"""lmov benchmark: cold CLI table requests and a warm verification sweep.

    python3 perfbench/run.py --workload onehole|ov-dt|verify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.  Every
request runs in a fresh interpreter, one at a time (a closed loop with one
client), with ``LMOV_JOBS`` unset.  Table outputs are checked against the
SHA-256 digests in ``golden.json``; a sweep is checked by its suites'
verdicts.  Times are calibrated to a reference machine speed (see
calibrate.py) and RSS is raw.  See README.md for the metrics.

With ``--trace 0`` the run repeats passes over the workload's requests for
about ``--seconds`` and prints the end-to-end metrics.  With ``--trace 1``
it makes one untraced pass, one pass with per-layer spans and one pass
counting ``Fraction.__new__``, none of them sampling speed inside a
request; it prints the per-layer metrics and writes them, with the tracing
overhead, to ``.perfbench/trace-<workload>.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from calibrate import REFERENCE_S, SpeedLog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 9  # after one discarded probe that may compile bytecode


class SetupError(RuntimeError):
    """lmov cannot be imported from the checkout; no result is printed."""


@dataclass
class Outcome:
    """One child process: a table request, a sweep or a setup probe."""

    argv: tuple
    start: float  # time.monotonic() around the process
    end: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    digest: str
    size: int
    record: dict | None  # the child's RESULT file, None if it wrote none


@dataclass
class Pass:
    """One pass over a workload's requests.  Its times span each request
    after setup, from ``lmov.cli`` imported to exit, less the speed samples
    taken inside it; they are calibrated except ``raw_wall_s``."""

    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    output_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LMOV_JOBS", None)
    return env


def spawn(argv: tuple, mode: str, work: Path) -> Outcome:
    """Run ``child.py`` on one request; its stdout goes to a file."""
    out_path, res_path = work / "stdout", work / "result.json"
    res_path.unlink(missing_ok=True)
    args = [sys.executable, str(CHILD), str(SRC), str(res_path), mode, *argv]
    redirect = (os.POSIX_SPAWN_OPEN, 1, str(out_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, args, child_env(), file_actions=[redirect])
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    end = time.monotonic()
    data = out_path.read_bytes()
    record = json.loads(res_path.read_text()) if res_path.exists() else None
    return Outcome(
        argv=tuple(argv),
        start=start,
        end=end,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        exit_code=os.waitstatus_to_exitcode(status),
        digest=hashlib.sha256(data).hexdigest(),
        size=len(data),
        record=record,
    )


def measure_setup(work: Path, log: SpeedLog) -> list[float]:
    """Calibrated seconds from spawning a fresh interpreter to ``lmov.cli``
    imported."""
    probes = []
    for _ in range(SETUP_PROBES + 1):
        log.sample()
        o = spawn((), "plain", work)
        if o.exit_code != 0 or o.record is None:
            raise SetupError(f"cannot import lmov.cli from {SRC} (exit {o.exit_code})")
        probes.append(o)
    log.sample()
    return [log.scaled(o.start, o.record["imported_at"]) for o in probes[1:]]


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())["digests"]


def table_failed(o: Outcome, golden: dict) -> bool:
    """A table request fails on a non-zero exit or an output that differs
    from its golden digest."""
    return o.exit_code != 0 or golden.get(workloads.request_key(o.argv)) != o.digest


def sweep_suites(o: Outcome) -> list:
    return (o.record or {}).get("sweep", {}).get("suites", [])


def sweep_counts(o: Outcome) -> tuple[int, int]:
    """(attempted, failed) suites of one sweep.  A suite fails unless its
    report is ok; a suite that did not run fails too."""
    suites = sweep_suites(o)
    attempted = max(len(workloads.VERIFY_SUITES), len(suites))
    ok = sum(1 for s in suites if s["ok"]) if o.exit_code == 0 else 0
    return attempted, attempted - ok


def run_pass(workload: str, requests: list, modes: tuple, golden: dict, work: Path, log: SpeedLog) -> list:
    """One pass per mode.  Each request runs in every mode back to back, so
    that the modes of one request meet the same machine speed."""
    passes = {mode: Pass() for mode in modes}
    for argv in requests:
        for mode in modes:
            log.sample()
            passes[mode].outcomes.append(spawn(argv, mode, work))
    log.sample()
    for p in passes.values():
        tally(p, workload, golden, log)
    return list(passes.values())


def tally(p: Pass, workload: str, golden: dict, log: SpeedLog) -> None:
    for o in p.outcomes:
        record = o.record or {}
        # the child sampled speed inside the request: count those out
        log.extend(record.get("samples", []))
        start = record.get("imported_at", o.start)
        wall, busy = log.busy(start, o.end)
        cpu = (o.cpu_s - record.get("cpu_at_import", 0.0) - (o.end - start - busy)) * wall / busy
        if workload == "verify":
            attempted, failed = sweep_counts(o)
            suites = [log.busy(s["start"], s["end"])[0] for s in sweep_suites(o)]
            p.latencies += suites or [wall]  # a sweep that reported no suite
        else:
            attempted, failed = 1, int(table_failed(o, golden))
            p.latencies.append(wall)
        p.wall_s += wall
        p.raw_wall_s += busy
        p.cpu_s += cpu
        p.rss_mb = max(p.rss_mb, o.rss_mb)
        p.output_bytes += o.size
        p.attempted += attempted
        p.failed += failed


def p90(samples: list) -> float:
    if len(samples) < 2:
        return max(samples)
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def timed_run(workload: str, seed: int, seconds: float, golden: dict, work: Path) -> tuple:
    """Passes until the next would end after ``seconds``; end-to-end metrics."""
    log = SpeedLog()
    setup = measure_setup(work, log)
    passes = []
    start = time.monotonic()
    while True:
        reqs = workloads.pass_requests(workload, seed, len(passes))
        pass_start = time.monotonic()
        passes += run_pass(workload, reqs, ("plain",), golden, work, log)
        now = time.monotonic()
        if now - start + (now - pass_start) > seconds:
            break
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        # percentiles per pass, whose requests are always the same set, so
        # that the number of passes does not shift them
        "request_p50_s": statistics.median(statistics.median(p.latencies) for p in passes),
        "request_p90_s": statistics.median(p90(p.latencies) for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    cut = values["request_p90_s"]
    latencies = [x for p in passes for x in p.latencies]
    speeds = [REFERENCE_S / k for _, _, k in log.samples]
    notes = [
        f"passes: {len(passes)}; setup probes: {len(setup)}",
        f"request latency samples: {len(latencies)}, "
        f"{sum(x > cut for x in latencies)} beyond request_p90_s",
        f"raw (uncalibrated) wall_s: {statistics.median(p.raw_wall_s for p in passes):.4f} s",
        f"machine speed: {len(speeds)} samples, {min(speeds):.3f} to {max(speeds):.3f} "
        f"(median {statistics.median(speeds):.3f}) of the reference",
    ]
    return values, passes, notes


def sum_functions(records: list) -> dict:
    out = {}
    for rec in records:
        for name, stats in rec.get("functions", {}).items():
            acc = out.setdefault(name, dict.fromkeys(stats, 0))
            for k, v in stats.items():
                acc[k] += v
    return out


def traced_run(workload: str, seed: int, golden: dict, work: Path) -> tuple:
    """One untraced, one span-traced and one Fraction-counting pass."""
    log = SpeedLog()
    measure_setup(work, log)
    reqs = workloads.pass_requests(workload, seed, 0)
    # speed samples inside a request would land inside its spans, so no pass
    # here takes them: all three are calibrated alike, between requests only
    plain, spans, fracs = run_pass(workload, reqs, ("bare", "spans", "fractions"), golden, work, log)
    records = [o.record or {} for o in spans.outcomes]
    values = {}
    for name, stats in sum_functions(records).items():
        for k, v in stats.items():
            values[f"{name}.{k}"] = v
    hits, misses = {}, {}
    for rec in records:
        for key, (h, m) in rec.get("caches", {}).items():
            hits[key] = hits.get(key, 0) + h
            misses[key] = misses.get(key, 0) + m
    for key in hits:
        looked_up = hits[key] + misses[key]
        values[f"cache.{key}.hits"] = hits[key]
        values[f"cache.{key}.misses"] = misses[key]
        values[f"cache.{key}.hit_ratio"] = hits[key] / looked_up if looked_up else 0.0
    values["fractions.Fraction.__new__.calls"] = sum(
        (o.record or {}).get("fraction_new_calls", 0) for o in fracs.outcomes
    )
    values["io.output_bytes"] = plain.output_bytes
    values["trace.untraced_wall_s"] = plain.wall_s
    values["trace.traced_wall_s"] = spans.wall_s
    values["trace.overhead_s"] = spans.wall_s - plain.wall_s
    values["trace.fraction_pass_wall_s"] = fracs.wall_s
    values["trace.spans"] = sum(rec.get("spans", 0) for rec in records)
    absent = {}
    for rec in records:
        absent.update(rec.get("absent", {}))
    report = {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "metrics": values,
        "absent": absent,
        "requests": [
            {"request": workloads.request_key(o.argv), "functions": (o.record or {}).get("functions", {})}
            for o in spans.outcomes
        ],
    }
    (WORK / f"trace-{workload}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    notes = [
        f"traced requests: {len(reqs)}; spans: {values['trace.spans']}",
        f"tracing overhead: {values['trace.overhead_s']:.3f} s "
        f"({spans.wall_s:.3f} traced - {plain.wall_s:.3f} untraced wall_s; "
        f"raw {spans.raw_wall_s:.3f} - {plain.raw_wall_s:.3f})",
        f"written: {WORK / f'trace-{workload}.json'}",
    ]
    notes += [f"absent: {name}: {why}" for name, why in sorted(absent.items())]
    return values, [plain, spans, fracs], notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lmov" / "cli.py").is_file():
        print(f"error: no lmov sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    golden = load_golden()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # one CPU for this process and its children, so that speed samples and
    # requests run on the same vCPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.trace:
            values, passes, notes = traced_run(args.workload, args.seed, golden, work)
        else:
            values, passes, notes = timed_run(args.workload, args.seed, args.seconds, golden, work)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            notes.append(f"absent: {m['name']}: not measured on this workload, reported as 0")
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    for line in notes:
        print(line)
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:48s} {shown} {m['unit']}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
