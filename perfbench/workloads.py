"""The benchmark's workloads: which requests run, in which order.

Two workloads are one-shot CLI table requests, each in a fresh interpreter
with cold caches, as a user of ``lmov <table>`` pays.  They split the
exact-arithmetic kernels between them, so each is the control for changes
to the other's kernels:

* ``onehole`` runs the LaurentQA multiply, ``exact_div``/``_dense_div``
  and ``to_z_basis`` layers and never touches ``RationalQ``.
* ``ov-dt`` runs ``RationalQ`` normalisation, ``Series1`` multiply,
  ``series_log``/``series_exp`` and ``plethystic_log`` and never calls
  ``exact_div``.

The third, ``verify``, is one ``verify.run_all`` sweep per fresh process:
the same kernels behind warm, shared ``lru_cache``s, with nothing emitted.

The seed permutes the order of the requests of a pass and never changes
their set, so every table output keeps its golden digest.
"""

from __future__ import annotations

import random

TAUS = range(-3, 4)
WORKLOADS = ("onehole", "ov-dt", "verify")
SWEEP = ("verify-sweep",)  # the request that runs verify.run_all in the child

# Bounds of the verify sweep, between verify.QUICK and verify.FULL.  Suites
# that stay under a second are at their FULL bounds; the others are cut so
# that no suite takes most of the sweep (about 11.5 calibrated seconds; the
# largest suites, infrastructure, ov-extraction and gaussian-closed-form,
# take about a fifth each).
VERIFY_BOUNDS = {
    "disc": dict(max_m=40, tau_range=range(-8, 9)),
    "disc_oracle": dict(max_m=12, tau_range=range(-4, 5)),
    "annulus": dict(max_total=12, tau_range=range(-4, 5)),
    "multihole": dict(max_size=10, tau_range=range(-5, 6)),
    "recursion": dict(max_n=30, tau_range=range(-3, 4)),
    "onehole": dict(max_m=6, tau_range=range(-3, 4)),
    "gaussian": dict(max_m=8, tau_range=range(1, 5)),
    "general": dict(max_size=4, tau_range=range(-2, 3)),
    "gwdt": dict(order=12, tau_range=range(-5, 0)),
    "dt": dict(max_loops=5, max_n=6),
    "ov": dict(max_m=6, tau_range=range(-3, 4)),
    "twist": dict(p_values=[-6, -5, -4, -3, -2, -1, 2, 3, 4, 5, 6], max_r=40),
    "infra": dict(max_n=6, samples=100),
}
# The infrastructure suite's sample seed.  Its cost depends on the samples
# drawn: seeds 0-7 took from 0.3 s to 6.3 s at QUICK bounds.  Tying it to the
# benchmark seed would make the sweep's work differ from run to run, so it
# stays at the `lmov verify-all` default.
VERIFY_SEED = 0
# run_all's suites, in order.  A suite missing from a sweep's reports did
# not run, and counts as failed.
VERIFY_SUITES = (
    "disc-integrality",
    "disc-series-oracle",
    "annulus",
    "multihole",
    "row-recursion",
    "one-hole-chain",
    "gaussian-closed-form",
    "general-partition",
    "gwdt-identity",
    "dt-extraction",
    "ov-extraction",
    "twist-integrality",
    "infrastructure",
)


def table_requests(workload: str) -> list[tuple[str, ...]]:
    """The fixed set of CLI requests of a table workload, in canonical order."""
    if workload == "onehole":
        return [
            ("onehole", "--tau", str(t), "--max-m", "8", "--format", fmt)
            for t in TAUS
            for fmt in ("json", "csv")
        ]
    if workload == "ov-dt":
        reqs = [("ov", "--tau", str(t), "--max-m", "8", "--format", "json") for t in TAUS]
        reqs.append(("ov", "--tau", "-1", "--max-m", "8", "--format", "csv"))
        # --max-n 8, not the default 6, so that interpreter start-up does not
        # dominate the dt requests, where the pass's median latency falls
        reqs += [("dt", "--loops", str(k), "--max-n", "8", "--format", "json") for k in range(1, 6)]
        reqs.append(("dt", "--loops", "2", "--max-n", "8", "--format", "csv"))
        reqs += [("gwdt-check", "--tau", str(t), "--order", "12") for t in (-1, -2, -3)]
        return reqs
    if workload == "verify":
        return []
    raise ValueError(f"unknown workload {workload!r}")


def pass_requests(workload: str, seed: int, index: int) -> list[tuple[str, ...]]:
    """Requests of pass ``index`` of a run seeded with ``seed``."""
    if workload == "verify":
        return [SWEEP]
    reqs = table_requests(workload)
    random.Random(f"{workload}/{seed}/{index}").shuffle(reqs)
    return reqs


def request_key(argv) -> str:
    return " ".join(argv)
