"""Exact-arithmetic integrality invariants of the framed unknot.

Modules:

* ``arith``      -- Moebius function, divisors, extended and Gaussian
  binomials, loop-quiver DT invariants, exact division by 1 - x^k.
* ``partitions`` -- integer partitions and symmetric-group characters.
* ``qa``         -- exact Laurent polynomials in q^(1/2), a^(1/2), their
  quotients by the q-Pochhammer symbol (q;q)_n, quantum integers, Adams
  operations, exact division or None, the z^2 basis as a plain dict.
* ``series``     -- one-variable truncated power series as plain coefficient
  lists, their logarithm and exponential, plethystic logarithm and
  exponential.
* ``genus0``     -- disc, annulus and multi-hole invariants with their
  Moebius-inversion assembly and integrality certificates.
* ``onehole``    -- all-genus one-hole invariants from the colored
  quantum-invariant side, plus the general-partition conjecture checker.
* ``gwdt``       -- reduced partition functions, Ooguri-Vafa and
  Donaldson-Thomas extraction, the GW/DT series identity.
* ``twist``      -- extremal BPS invariants of twist knots, as signed
  loop-quiver DT invariants.
* ``verify``     -- the verification sweep: one report per suite, built
  from the failure-record lists of the checks below it.
* ``cli``        -- the ``lmov`` command-line front end.
"""

__version__ = "0.1.0"
