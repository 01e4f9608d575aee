"""Run one benchmark request in a fresh interpreter.

    python3 perfbench/child.py SRC RESULT MODE [ARG ...]

SRC is the directory holding the ``lmov`` package.  ARGs are an ``lmov``
command line, run through ``lmov.cli.main`` exactly as the ``lmov`` script
runs it, so standard output carries the request's output bytes; the single
ARG ``verify-sweep`` runs ``verify.run_all`` at the benchmark's bounds
instead; no ARG only imports ``lmov.cli``.  MODE is ``plain``, ``bare``
(plain without speed samples), ``spans`` (per-layer spans and cache
counts) or ``fractions`` (count ``Fraction.__new__``); tracing starts
after ``lmov`` is imported.  A ``plain`` request samples machine speed
every ``calibrate.INTERVAL_S``.
RESULT receives a JSON record: the monotonic clock and the process CPU
time once ``lmov.cli`` is imported, the speed samples, the sweep's suite
reports and the trace.  The exit status is the request's.
"""

from __future__ import annotations

import sys
import time


def run_sweep() -> dict:
    """Run ``verify.run_all`` at the benchmark's bounds; report each suite's
    verdict and its span on the monotonic clock."""
    import traceback

    import workloads
    from lmov import verify

    suites = []
    start = time.monotonic()
    try:
        for rep in verify.run_all(workloads.VERIFY_BOUNDS, seed=workloads.VERIFY_SEED):
            end = time.monotonic()
            suites.append({"name": rep.name, "ok": rep.ok is True, "start": start, "end": end})
            start = end
    except Exception:  # a raised violation fails this suite and every later one
        suites.append({"name": None, "ok": False, "start": start, "end": time.monotonic()})
        return {"suites": suites, "error": traceback.format_exc()}
    return {"suites": suites, "error": None}


def main(argv: list[str]) -> int:
    src, result_path, mode, args = argv[0], argv[1], argv[2], argv[3:]
    sys.path.insert(0, src)
    import lmov.cli

    record = {"imported_at": time.monotonic(), "cpu_at_import": time.process_time()}
    # the benchmark's own modules load after the clock reading above, so
    # that setup probes time lmov's import alone
    import contextlib
    import json

    import calibrate
    import tracer
    import workloads

    if not lmov.cli.__file__.startswith(src.rstrip("/") + "/"):
        print(f"lmov was not imported from {src}", file=sys.stderr)
        return 3
    active = None
    if mode == "spans":
        mods = tracer.lmov_modules()
        found = tracer.caches(mods)
        before = tracer.cache_counts(found)
        active = tracer.Tracer().install(mods)
    elif mode == "fractions":
        active = tracer.FractionCounter().install()
    elif mode not in ("plain", "bare"):
        raise ValueError(f"unknown mode {mode!r}")
    code = 0
    log = calibrate.SpeedLog()
    # speed samples would land inside the spans of a traced run
    sampler = calibrate.sampling(log) if mode == "plain" else contextlib.nullcontext()
    try:
        with sampler:
            if tuple(args) == workloads.SWEEP:
                record["sweep"] = run_sweep()
            elif args:
                try:
                    code = lmov.cli.main(args)
                except SystemExit as e:  # argparse usage errors
                    code = e.code if isinstance(e.code, int) else 1
    finally:
        sys.stdout.flush()
        if active is not None:
            active.restore()
    record["samples"] = log.samples
    if mode == "spans":
        after = tracer.cache_counts(found)
        record["functions"] = active.summary()
        record["absent"] = active.absent
        record["spans"] = len(active.span_name)
        record["caches"] = {
            key: [after[key][0] - before[key][0], after[key][1] - before[key][1]]
            for key in found
        }
    elif mode == "fractions":
        record["fraction_new_calls"] = active.calls
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
