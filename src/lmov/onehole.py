"""All-genus one-hole invariants from the quantum-invariant side.

The framed row invariants H_n obey a recursion in n: ``verify_recursion``
checks its tau-free core, an identity of 2-term Laurent polynomials, and
``row_top_step`` is one step of it on the top a-slice, the coefficient
of x^n in the reduced series Z_tau that ``gwdt.h_top`` gives in closed form.

The chain for a winding number m and framing tau runs on one dense int
row per a-slice, v -> (u0, row) with row[e] the coefficient of
q^((u0 + 2 e)/2) a^(v/2), and builds no LaurentQA on the way:

1. ``_cleared_rows`` -- the denominator-cleared colored-invariant sum
   {m}{m tau} Z_m, an integer Laurent polynomial from its q-binomial
   closed form.  ``colored_sum`` is the definition, the colored sum over
   the partitions of m as the exp recurrence on rows of the same shape,
   each packed into one big int, independent of the closed form; the
   verification suites hold the two equal (``closed_form_is_colored_sum``).
2. ``_z2_rows`` -- Moebius/Adams combination over divisors of m, then
   exact division by {m}{m tau}/{1}^2, whose leading coefficient is +-1.
3. ``lmov_one_hole`` -- the z^2-basis rewrite; each row must be a
   palindrome centred on q^0.  The rows hold ints throughout: the
   divisions of steps 1 and 2 certify integrality.

tau = 0 degenerates: Z_m collapses to {m}_a / {m}^2, so the cleared sum
is {m}_a and the divisor switches to {m}^2/{1}^2.

``g_mu_general`` runs the same pipeline for an arbitrary partition mu
(a conjectural statement for l(mu) >= 2, so failures are reported, not
raised), via characters and the log on the power-sum partition algebra.
``cal_z_partition`` is one character sum over hook-content products, and
``dlog_mu`` carries the log as its integral level |mu| z_mu f_mu, by the
derivation recurrence of ``series.series_dlog`` over the sub-multisets
of mu, with integer weights.  Both are PochFracs, numerators over
(q;q)_n; ``g_mu_general`` divides once, by the factors 1 - q^i of
{mu} (q;q)_|mu| and then by |mu|, where it reads its table; it records a
remainder of either division, or a target that ``to_z_basis`` refuses,
as a failure.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb, factorial
from typing import NamedTuple

from .arith import TheoremViolation, div_one_minus, divisors, moebius, qbinomial_step
from .partitions import (
    Partition,
    kappa,
    mn_character,
    partitions_of,
    parts_gcd,
    scale_down,
    z_factor,
)
from .qa import (
    LaurentQA,
    PochFrac,
    PochRow,
    Z_SQUARED,
    _nonneg_mul,
    _pack,
    _packed_geometric,
    _width,
    _z2_row,
    exact_div,
    one_minus_q_prod,
    quantum_int,
    to_z_basis,
)

# ---------------------------------------------------------------------------
# the framed row recursion
# ---------------------------------------------------------------------------


def _recursion_pair(n: int) -> tuple:
    # the two sides of (q^(n+1) - 1) f_n = hook_n {n+1}, where
    # f_n = a^(1/2) q^(n/2) - a^(-1/2) q^(-n/2) is the factor that step n
    # adds to the row numerator R_(n+1) = f_0 ... f_n
    lead = LaurentQA({(2 * (n + 1), 0): 1, (0, 0): -1})  # q^(n+1) - 1
    f = LaurentQA({(n, 1): 1, (-n, -1): -1})
    hook = LaurentQA({(2 * n + 1, 1): 1, (1, -1): -1})  # a^(1/2)q^(n+1/2) - a^(-1/2)q^(1/2)
    return lead * f, hook * quantum_int(n + 1)


def verify_recursion(max_n: int) -> list:
    """Exact check, for all n < max_n, of the core of the framed row recursion

    (-1)^tau (q^(n+1) - 1) H_{n+1} = hook_n q^(n tau) H_n,
    hook_n = a^(1/2) q^(n+1/2) - a^(-1/2) q^(1/2).

    H_n is (-1)^(n tau) q^(n(n-1)tau/2) R_n / prod_{i<=n} {i}.  The framing
    signs and powers of q cancel on the two sides for every tau, and the
    factor R_n / prod_{i<=n+1} {i} is common to both, so the recursion
    is the tau-free identity (q^(n+1) - 1) f_n = hook_n {n+1} of 2-term
    Laurent polynomials; that is what this checks, returning the failure
    records {"n": n} of the n where it fails.  ``row_top_step`` runs the
    framing factor on the top a-slice.
    """
    if max_n < 1:
        raise ValueError("verify_recursion needs max_n >= 1")
    pairs = map(_recursion_pair, range(max_n))
    return [{"n": n} for n, (p, r) in enumerate(pairs) if p != r]


def row_top_step(h: PochRow, n: int, tau: int) -> PochRow:
    """H_(n+1) from H_n, both on the top a-slice, by the framed row
    recursion, where hook_n is a^(1/2) q^(n+1/2):
    H_(n+1) = -(-1)^tau q^(n tau + n + 1/2) H_n / (1 - q^(n+1)),
    a numerator over (q;q)_(n+1) from one over (q;q)_n."""
    return PochRow(h.lo + 2 * n * tau + 2 * n + 1, h.scale(-((-1) ** (tau % 2))).row, n + 1)


# ---------------------------------------------------------------------------
# the one-hole generating functions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cleared_rows(m: int, tau: int) -> dict:
    """The rows of {m}{m tau} Z_m (tau != 0; {m}^2 Z_m = {m}_a at tau = 0) by
    the q-binomial closed form, t = |tau|: the sum over j + k = m of
    (-1)^(j + m t) q^((j(j-1) - (m t - 1) m)/2) a^(+-(k-j)/2) qbin(m t, j)
    qbin(m t + k - 1, k), a-sign that of tau, each qbin certified by ``qbinomial_step``."""
    if m < 1:
        raise ValueError("_cleared_rows needs m >= 1")
    if tau == 0:
        return {m: (0, [1]), -m: (0, [-1])}
    mt = m * abs(tau)  # >= m; the chains bins[j] = [mt, j], diag[k] = [mt + k - 1, k]
    bins, diag = [[1]], [[1]]
    for j in range(1, m + 1):
        bins.append(qbinomial_step(bins[-1], mt - j + 1, j, mt))
        diag.append(qbinomial_step(diag[-1], mt + j - 1, j, mt + j - 1))
    rows = {}
    for j in range(m + 1):  # each j fills its own a-slice
        k = m - j
        prod = _nonneg_mul(bins[j], diag[k])
        if (j + mt) % 2:
            prod = [-c for c in prod]
        rows[(k - j) * (1 if tau > 0 else -1)] = (j * (j - 1) - (mt - 1) * m, prod)
    return rows


def colored_sum(m: int, tau: int) -> tuple:
    """(width, rows): E_m = (-1)^(m tau) m! {m}{m tau} Z_m, tau != 0, by the
    definition of Z_m as the colored sum over |nu| = m: m! [x^m] exp(sum_k
    f_k x^k / k), f_k = {L k}/{k} {k}_a, L = m |tau|; rows[v] is its a-slice
    v from q^(-(L-1)m/2) up, packed: its value at q = 2^(8 width).

    The recurrence E_n = sum_k f_k (n-1)!/(n-k)! E_(n-k) for n! [x^n] stays
    integral.  {L k}/{k} = q^(-(L-1)k/2) (1 + q^k + ... + q^(k(L-1))), so a
    row of E_n runs from q^(-(L-1)n/2) to q^((L-1)n/2); {k}_a moves it to
    the a-slices v +- k.  Packing is a ring map: the geometric factor is one
    multiply (``_packed_geometric``) per row of E_(n-k), shared by 2 slices.
    The l1 norm is submultiplicative and |f_k|_1 = 2L, so |E_m|_1 <= m! [x^m]
    exp(2L sum_k x^k / k) = m! C(2L + m - 1, m) < 2^(8 width - 1)."""
    if m < 1:
        raise ValueError("colored_sum needs m >= 1")
    if tau == 0:
        raise ValueError("colored_sum needs tau != 0")
    length = m * abs(tau)
    width = _width(factorial(m) * comb(2 * length + m - 1, m))
    geometric = {k: _packed_geometric(width, k, length) for k in range(1, m + 1)}
    e = [{0: 1}]
    for n in range(1, m + 1):
        acc: dict = {}
        falling = 1 if tau > 0 else -1  # sign(tau) (n-1)!/(n-k)!
        for k in range(1, n + 1):
            for v, row in e[n - k].items():
                h = falling * row * geometric[k]
                acc[v + k] = acc.get(v + k, 0) + h
                acc[v - k] = acc.get(v - k, 0) - h
            falling *= n - k
        e.append(acc)
    return width, e[m]


def closed_form_is_colored_sum(m: int, tau: int) -> bool:
    """Whether E_m (``colored_sum``) is (-1)^(m tau) m! times the closed form
    (``_cleared_rows``), tau != 0, as one packed int per nonzero a-slice: the
    scaled row, after as many zeros as it starts above E_m, packed at E_m's
    width.  ``_pack`` writes entries in [-x/2, x/2), x = 2^(8 width), and
    refuses any other row with None: those are balanced residues mod x, so
    two such rows that first differ at slot j have values that differ by
    x^j (d + x k), 0 < |d| < x, and packing is injective on them, -x/2
    included.  E_m is among them by its l1 bound.  A cleared row that
    ``_pack`` refuses, on the other q^(1/2)-parity, starting (on a nonzero
    entry) below E_m or on a slice that E_m lacks is a mismatch; so is E_m
    not divisible by m!."""
    width, packed = colored_sum(m, tau)
    rows = {v: r for v, r in _cleared_rows(m, tau).items() if any(r[1])}
    lo = -(m * abs(tau) - 1) * m
    scale = (-1) ** ((m * tau) % 2) * factorial(m)
    for v, (u0, row) in rows.items():
        shift, odd = divmod(u0 - lo, 2)
        want = None if odd or shift < 0 else _pack([0] * shift + [scale * c for c in row], width)
        if want is None or packed.get(v) != want:
            return False
    return rows.keys() == {v for v, p in packed.items() if p}


def _z2_rows(m: int, tau: int) -> dict:
    """The rows of z^2 g_m: each row of {m}{m tau} g_m, times (1 - q)^2 and
    divided exactly by 1 - q^m and by 1 - q^(m t) (``div_one_minus``),
    t = |tau| or 1 at tau = 0, then times sign(tau) q^((m + m t)/2 - 1).
    Z[q^(+-1/2)] has no zero divisors, so this is exact if and only if
    division by {m}{m tau}/{1}^2 is."""
    mt = m * (abs(tau) or 1)
    parts: dict = {}
    for d in divisors(m):
        mu = moebius(d)
        if mu:
            for v, (u0, row) in _cleared_rows(m // d, tau).items():
                parts.setdefault(v * d, []).append((u0 * d, d, mu, row))
    out = {}
    for v, terms in parts.items():
        lo = min(u0 for u0, _, _, _ in terms)
        hi = max(u0 + 2 * d * (len(row) - 1) for u0, d, _, row in terms)
        f = [0] * ((hi - lo) // 2 + 3)  # two slots more for the (1 - q)^2
        for u0, d, mu, row in terms:
            s = (u0 - lo) // 2  # every u0 here is congruent to m (t + 1) mod 2
            f[s : s + d * len(row) : d] = [x + mu * c for x, c in zip(f[s::d], row)]
        f = [x - 2 * y + z for x, y, z in zip(f, [0] + f, [0, 0] + f)]
        e0 = next((i for i, x in enumerate(f) if x), None)
        if e0 is None:
            continue
        e1 = len(f) - next(i for i, x in enumerate(reversed(f)) if x)
        h = div_one_minus(f[e0:e1], m)
        h = None if h is None else div_one_minus(h, mt)
        if h is None:
            raise TheoremViolation(f"{{m}}{{m tau}} g_m not divisible by its "
                                   f"cyclotomic core (m={m}, tau={tau})")
        out[v] = (lo + 2 * e0 + m + mt - 2, h if tau >= 0 else [-c for c in h])
    return out


def lmov_one_hole(m: int, tau: int) -> dict:
    """Certified integer one-hole table n_{m,g,Q}(tau), keyed by (g, two_q).
    Each row of z^2 g_m must be a palindrome in integer powers of q, centred
    on q^0; its half from q^0 up is rewritten in z^2.  Integrality is
    certified by the zero-remainder checks of ``arith.div_one_minus`` under
    ``qbinomial_step`` and ``_z2_rows``; the rewrite only adds and doubles."""
    entries = {}
    for v, (u0, row) in _z2_rows(m, tau).items():
        pairs = _z2_row(u0, row)
        if pairs is None:
            raise TheoremViolation(f"z^2 g_m outside Q[z^2, a^(+-1/2)] "
                                   f"(m={m}, tau={tau})")
        for g, c in pairs:
            entries[(g, v)] = c
    return entries


# ---------------------------------------------------------------------------
# the general-partition pipeline
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _quantum_dim(lam: Partition) -> LaurentQA:
    """W_lam = prod over the boxes of (a^(1/2) q^(c/2) - a^(-1/2) q^(-c/2)) / {h},
    c the content and h the hook length, as a numerator over (q;q)_n.
    Since {h} = -q^(-h/2) (1 - q^h), it is (-1)^n q^(sum h/2) prod(...) times
    (q;q)_n / prod (1 - q^h), a polynomial by the q-hook-length formula."""
    cols = [sum(1 for p in lam if p > j) for j in range(lam[0])]
    hooks, num = [], LaurentQA.one()
    for i, p in enumerate(lam):
        for j in range(p):
            hooks.append(p - j + cols[j] - i - 1)
            num = num * LaurentQA({(j - i, 1): 1, (i - j, -1): -1})
    n = len(hooks)
    quot = exact_div(one_minus_q_prod(range(1, n + 1)), hooks)
    if quot is None:
        raise TheoremViolation(f"(q;q)_n / prod (1 - q^h) is not a polynomial "
                               f"(lam={lam})")
    return (num * quot).shift(du=sum(hooks)).scale((-1) ** (n % 2))


@lru_cache(maxsize=None)
def cal_z_partition(nu: Partition, tau: int) -> PochFrac:
    """The colored invariants of the framed unknot at cycle type nu:
    (-1)^(|nu| tau) sum over |lam| = |nu| of chi_lam(nu) q^(kappa_lam tau/2) W_lam,
    over (q;q)_|nu|, with W_lam the hook-content product of ``_quantum_dim``."""
    size = sum(nu)
    sign = (-1) ** ((size * tau) % 2)
    terms = ((sign * c, _quantum_dim(lam), LaurentQA.monomial(kappa(lam) * tau))
             for lam in partitions_of(size) if (c := mn_character(lam, nu)))
    return PochFrac(LaurentQA.dot(terms), size)


def _splits(mu: Partition):
    # the nonempty proper sub-multisets rho of mu, with mu - rho; both
    # descending, like the keys that dlog_mu and cal_z_partition cache on
    parts = sorted(set(mu), reverse=True)
    for counts in product(*(range(mu.count(p) + 1) for p in parts)):
        rho = tuple(p for p, c in zip(parts, counts) for _ in range(c))
        rest = tuple(p for p, c in zip(parts, counts) for _ in range(mu.count(p) - c))
        if rho and rest:
            yield rho, rest


@lru_cache(maxsize=None)
def dlog_mu(mu: Partition, tau: int) -> PochFrac:
    """G_mu = |mu| z_mu f_mu, with f_mu the connected (log) coefficient at
    p_mu of S = sum_nu cal_Z_nu p_nu / z_nu: the log's level under the
    degree operator E p_nu = |nu| p_nu.  E is a derivation, so
    E log S = E S / S, which is the recurrence

        G_mu = |mu| cal_Z_mu - sum_rho w G_rho cal_Z_(mu - rho)

    over the nonempty proper sub-multisets rho of mu, with the integer weight
    w = z_mu / (z_rho z_(mu - rho)), a product of binomials: one
    ``PochFrac.dot``, and no division."""
    if not mu:
        raise ValueError("dlog_mu needs a nonempty partition")
    z = z_factor(mu)
    return PochFrac.dot([(sum(mu), cal_z_partition(mu, tau), PochFrac.one())] + [
        (-(z // (z_factor(rho) * z_factor(rest))), dlog_mu(rho, tau), cal_z_partition(rest, tau))
        for rho, rest in _splits(mu)])


class GeneralHoleResult(NamedTuple):
    table: dict | None  # {(g, two_q): n}, when the z^2-basis rewrite exists
    failures: list  # failure records; empty when the table exists


def g_mu_general(mu: Partition, tau: int) -> GeneralHoleResult:
    """Conjectural integer table for an arbitrary partition mu.

    Computes g-hat_mu = sum over d | mu of (moebius(d)/d) adams_d of
    (f_{mu/d} / {mu/d}), then z^2 z_mu g-hat_mu, and attempts the z^2-basis
    rewrite.  Since adams_d({mu/d}) = {mu}, z_mu = d^l(mu) z_(mu/d) and
    |mu| = d |mu/d|, |mu| z_mu g-hat_mu = S / {mu} with S = sum_d
    moebius(d) d^l(mu) adams_d(G_{mu/d}) = num / (q;q)_|mu|, so the target
    is Laurent exactly when {mu} (q;q)_|mu| divides z^2 num.  Since
    {mu} = (-1)^l(mu) q^(-|mu|/2) prod (1 - q^(mu_i)), z^2 num is divided
    by the factors 1 - q^i of mu and of (q;q)_|mu|, and the quotient is
    then multiplied by (-1)^l(mu) q^(|mu|/2) and divided by |mu|,
    coefficient by coefficient.  Failures (a remainder of either division,
    a target with no z^2 rewrite) are reported, not raised: only the
    single-row case is a theorem.
    """
    mu = tuple(sorted(mu, reverse=True))
    if not mu:
        raise ValueError("g_mu_general needs a nonempty partition")
    if min(mu) < 1:
        raise ValueError("g_mu_general needs parts >= 1")
    s = PochFrac.dot([(moebius(d) * d ** len(mu), dlog_mu(scale_down(mu, d), tau).adams(d),
                       PochFrac.one()) for d in divisors(parts_gcd(mu)) if moebius(d)])
    size = sum(mu)
    sized = exact_div(s.num * Z_SQUARED, mu + tuple(range(1, size + 1)))
    if sized is None:
        return GeneralHoleResult(None, [{"mu": mu, "reason": "denominator did not clear"}])
    target = sized.shift(du=size).div((-1) ** (len(mu) % 2) * size)
    if target is None:
        return GeneralHoleResult(None, [{"mu": mu, "reason": "non-integer entries"}])
    table = to_z_basis(target)
    if table is None:
        return GeneralHoleResult(None, [{"mu": mu, "reason": "target not in Z[z^2, a^(+-1/2)]"}])
    return GeneralHoleResult(table, [])
