"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import calibrate
import run
import tracer
import workloads
from calibrate import REFERENCE_S, SpeedLog, kernel_seconds

sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_requests_repeat_for_a_seed_and_keep_their_set(workload):
    first = workloads.pass_requests(workload, 7, 2)
    assert workloads.pass_requests(workload, 7, 2) == first
    canonical = sorted(workloads.pass_requests(workload, 0, 0))
    for seed in range(5):
        for index in range(3):
            assert sorted(workloads.pass_requests(workload, seed, index)) == canonical


def test_seed_permutes_the_order():
    orders = {tuple(workloads.pass_requests("onehole", seed, 0)) for seed in range(5)}
    assert len(orders) > 1


def test_every_table_request_has_a_golden_digest():
    golden = run.load_golden()
    keys = [
        workloads.request_key(argv)
        for w in workloads.WORKLOADS
        for argv in workloads.table_requests(w)
    ]
    assert sorted(keys) == sorted(golden)


def _attribute_snapshot(mods: dict) -> dict:
    snap = {}
    owners = list(mods.values()) + [Fraction]
    owners += [v for m in mods.values() for v in vars(m).values() if isinstance(v, type)]
    for owner in owners:
        snap[id(owner)] = (owner, dict(vars(owner)))
    return snap


def test_tracer_restores_every_patched_attribute():
    mods = tracer.lmov_modules()
    before = _attribute_snapshot(mods)
    qa, onehole = mods["qa"], mods["onehole"]
    exact_div, mul = qa.exact_div, vars(qa.LaurentQA)["__mul__"]
    spans = tracer.Tracer().install(mods)
    fractions = tracer.FractionCounter().install()
    try:
        assert qa.exact_div is not exact_div
        assert onehole.exact_div is qa.exact_div  # rebound where imported by name
        assert vars(qa.LaurentQA)["__mul__"] is not mul
        Fraction(3, 6)
        assert fractions.calls == 1
    finally:
        fractions.restore()
        spans.restore()
    after = _attribute_snapshot(mods)
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys(), owner
        assert all(now[k] is v for k, v in attrs.items()), owner


def test_self_time_is_duration_minus_children():
    t = tracer.Tracer()

    def leaf():
        return sum(range(20000))

    wrapped_leaf = t._timed("leaf", leaf)

    def outer(depth):
        wrapped_leaf()
        return wrapped_outer(depth - 1) if depth else None

    wrapped_outer = t._timed("outer", outer)
    wrapped_outer(2)
    s = t.summary()
    assert s["outer"]["calls"] == 3 and s["leaf"]["calls"] == 3
    top = t.span_end[0] - t.span_start[0]
    assert s["outer"]["total_s"] == pytest.approx(top)  # nested calls not recounted
    assert s["outer"]["self_s"] + s["leaf"]["self_s"] == pytest.approx(top)


def test_traced_and_untraced_runs_emit_the_same_bytes(tmp_path):
    for argv in (
        ("onehole", "--tau", "2", "--max-m", "4", "--format", "csv"),
        ("ov", "--tau", "-1", "--max-m", "4", "--format", "json"),
    ):
        outs = [run.spawn(argv, mode, tmp_path) for mode in ("plain", "spans", "fractions")]
        assert {o.exit_code for o in outs} == {0}
        assert len({o.digest for o in outs}) == 1
        assert outs[1].record["functions"]["cli.main"]["calls"] == 1
        assert outs[2].record["fraction_new_calls"] > 0


def test_corrupted_output_counts_as_failed(tmp_path):
    reqs = [("gwdt-check", "--tau", "-1", "--order", "4")]
    good = run.spawn(reqs[0], "plain", tmp_path)
    key = workloads.request_key(reqs[0])
    for golden, failed in (({key: good.digest}, 0), ({key: "0" * 64}, 1), ({}, 1)):
        (p,) = run.run_pass("ov-dt", reqs, ("plain",), golden, tmp_path, SpeedLog())
        assert (p.attempted, p.failed) == (1, failed)
    bad = run.Outcome(reqs[0], 0.0, 1.0, 1.0, 1.0, 2, good.digest, good.size, None)
    assert run.table_failed(bad, {key: good.digest})


def _sweep(suites, exit_code=0):
    record = {"sweep": {"suites": suites, "error": None}}
    return run.Outcome(workloads.SWEEP, 0.0, 1.0, 1.0, 1.0, exit_code, "", 0, record)


def test_failing_suite_counts_as_failed():
    names = workloads.VERIFY_SUITES
    all_ok = [{"name": n, "ok": True} for n in names]
    assert run.sweep_counts(_sweep(all_ok)) == (len(names), 0)
    one_bad = [dict(s, ok=s["name"] != "annulus") for s in all_ok]
    assert run.sweep_counts(_sweep(one_bad)) == (len(names), 1)
    # a raised violation in the fourth suite: it and the nine after it fail
    raised = all_ok[:3] + [{"name": None, "ok": False}]
    assert run.sweep_counts(_sweep(raised)) == (len(names), len(names) - 3)
    assert run.sweep_counts(_sweep(all_ok, exit_code=1)) == (len(names), len(names))


def test_calibrated_time_integrates_the_interpolated_speed():
    # speed 1 at t = 0 and 2 at t = 10 (samples centred on those times)
    log = SpeedLog([(-0.001, 0.001, REFERENCE_S), (9.999, 10.001, REFERENCE_S / 2)])
    assert log.scaled(0, 10) == pytest.approx(15)
    assert log.scaled(10, 12) == pytest.approx(4)  # constant past the last sample
    assert log.scaled(2, 4) == pytest.approx(2 * 1.3)


def test_speed_kernel_runs_no_garbage_collection(monkeypatch):
    # a collection inside the kernel would scan whatever the measured
    # process keeps alive; under the most eager thresholds and with many
    # live tracked objects, none runs, and the collector's state is restored
    inside, collections = [False], []
    kernel = calibrate._kernel

    def watched():
        inside[0] = True
        try:
            kernel()
        finally:
            inside[0] = False

    def count(phase, info):
        if phase == "start" and inside[0]:
            collections.append(info["generation"])

    monkeypatch.setattr(calibrate, "_kernel", watched)
    live = [[i] for i in range(100_000)]
    thresholds = gc.get_threshold()
    gc.set_threshold(1, 1, 1)
    gc.callbacks.append(count)
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            kernel_seconds()
            assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*thresholds)
        gc.enable()
    assert collections == []
    assert len(live) == 100_000


def test_exits_nonzero_without_lmov_sources(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = json.loads(run.SPEC.read_text())["command"]
    args = [sys.executable, *cmd[1:], "--workload", "onehole", "--seed", "1", "--seconds", "1", "--trace", "0"]
    p = subprocess.run(args, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
