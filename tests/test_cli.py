import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from helpers import clear_lmov_caches, lsum
from lmov import cli, genus0, gwdt, onehole, verify
from lmov.arith import TheoremViolation
from lmov.qa import Z_SQUARED, LaurentQA
from lmov.cli import EXIT_OK, EXIT_THEOREM, EXIT_USAGE, main
from test_golden_outputs import GOLDEN

SUITES = [
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
]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_disc_csv(tmp_path, capsys):
    out = tmp_path / "disc.csv"
    code = main(["disc", "--tau", "-2", "--max-m", "12", "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_bytes().decode().splitlines()
    assert lines[0] == "m,l,tau,value,integral"
    assert len(lines) == 1 + sum(m + 1 for m in range(1, 13))
    assert all(line.endswith("True") for line in lines[1:])


def test_disc_json_stdout(capsys):
    code, text = run(["disc", "--tau", "1", "--max-m", "3"], capsys)
    assert code == EXIT_OK
    obj = json.loads(text)
    assert obj["table"] == "disc" and obj["tau"] == 1
    assert {r["m"] for r in obj["rows"]} == {1, 2, 3}


def test_annulus_json(capsys):
    code, text = run(["annulus", "--tau", "2", "--max-total", "4"], capsys)
    assert code == EXIT_OK
    obj = json.loads(text)
    top = [r for r in obj["rows"] if r["m1"] == 1 and r["m2"] == 1 and r["l"] == 2]
    assert top == [{"m1": 1, "m2": 1, "l": 2, "n": 3, "integral": True}]


def test_multihole_json(capsys):
    code, text = run(["multihole", "--tau", "1", "--max-size", "4"], capsys)
    assert code == EXIT_OK
    obj = json.loads(text)
    assert {"mu": [1, 1, 1], "n": 4, "integral": True} in obj["rows"]


def test_onehole_half_formats(capsys):
    code, text = run(["onehole", "--tau", "1", "--max-m", "1"], capsys)
    assert code == EXIT_OK
    obj = json.loads(text)
    assert obj["rows"][0]["entries"] == [
        {"g": 0, "two_q": -1, "n": 1},
        {"g": 0, "two_q": 1, "n": -1},
    ]
    code, text = run(
        ["onehole", "--tau", "1", "--max-m", "1", "--half-format", "fraction"], capsys
    )
    obj = json.loads(text)
    assert obj["rows"][0]["entries"] == [
        {"g": 0, "Q": "-1/2", "n": 1},
        {"g": 0, "Q": "1/2", "n": -1},
    ]


def test_ov_and_dt(capsys):
    code, text = run(["ov", "--tau", "-1", "--max-m", "4"], capsys)
    assert code == EXIT_OK
    obj = json.loads(text)
    assert obj["rows"][0] == {"m": 1, "entries": [{"k": 0, "N": -1}]}
    code, text = run(["dt", "--loops", "2", "--max-n", "3", "--format", "csv"], capsys)
    assert code == EXIT_OK
    assert text.splitlines()[0] == "loops,n,k,c"


def test_gwdt_check_pass(capsys):
    code, text = run(["gwdt-check", "--tau", "-1", "--order", "12"], capsys)
    assert code == EXIT_OK
    assert "PASS" in text


def test_gwdt_check_records_each_coefficient_that_differs(monkeypatch, capsys):
    # one loop-quiver coefficient doubled: the identity fails at that x^n
    # alone, the suite keys the record by tau, and the command prints the
    # record in its JSON, then FAIL, and exits 2
    real = gwdt.coha_series

    def off_at_3(loops, order):
        p = real(loops, order)
        p[3] = p[3].scale(2)
        return p

    monkeypatch.setattr(gwdt, "coha_series", off_at_3)
    assert gwdt.gwdt_check(-2, 5) == [{"n": 3}]
    assert verify.check_gwdt_identity(5, range(-3, -1)).failures == [
        {"tau": -3, "n": 3}, {"tau": -2, "n": 3}
    ]
    code, text = run(["gwdt-check", "--tau", "-2", "--order", "5"], capsys)
    assert code == EXIT_THEOREM
    assert text.endswith("\nFAIL\n")
    assert json.loads(text[: -len("FAIL\n")])["failures"] == [{"n": 3}]


def test_gwdt_check_usage_guard(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["gwdt-check", "--tau", "0", "--order", "4"])
    assert ei.value.code == EXIT_USAGE
    assert "--tau: must be <= -1" in capsys.readouterr().err


def test_twist_cli(capsys):
    code, text = run(["twist", "--p-min", "-2", "--p-max", "2", "--max-r", "3"], capsys)
    assert code == EXIT_OK
    obj = json.loads(text)
    assert all(row["p"] != 0 and row["p"] != 1 for row in obj["rows"])


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as ei:
        main(["disc"])  # missing required --tau
    assert ei.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as ei:
        main(["no-such-command"])
    assert ei.value.code == EXIT_USAGE


def test_usage_errors_after_an_earlier_call_in_the_same_process(capsys):
    # the scan keeps no state from one main() call to the next
    assert main(["disc", "--tau", "1", "--max-m", "2"]) == EXIT_OK
    capsys.readouterr()
    for argv, message in [
        (["disc", "--tau", "1", "--max-m", "0"], "lmov disc: error: argument --max-m: "
                                                 "must be >= 1, got 0\n"),
        (["twist", "--p-min", "0", "--p-max", "1"], "lmov: error: --p-min 0 --p-max 1 "
                                                    "holds no p <= -1 or p >= 2\n"),
    ]:
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == EXIT_USAGE
        assert capsys.readouterr().err == message


def test_deterministic_output(tmp_path):
    pairs = [
        ["disc", "--tau", "3", "--max-m", "8", "--format", "csv"],
        ["onehole", "--tau", "-2", "--max-m", "3"],
        ["ov", "--tau", "2", "--max-m", "4"],
        ["annulus", "--tau", "-3", "--max-total", "5", "--format", "csv"],
    ]
    for argv in pairs:
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes(), argv


def _lmov(argv):
    """``python -m lmov.cli ARGV`` in a fresh process: ``sys.exit(main())``
    and then the interpreter's own exit, with stdout a block-buffered pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parent.parent)
    return subprocess.run([sys.executable, "-m", "lmov.cli", *argv], env=env,
                          capture_output=True)


@pytest.mark.parametrize("request_line", [
    "onehole --tau -3 --max-m 8 --format csv",
    "gwdt-check --tau -1 --order 8",  # two writes: the JSON, then PASS
])
def test_the_exit_path_delivers_every_byte(request_line):
    run = _lmov(request_line.split())
    assert (run.returncode, run.stderr) == (EXIT_OK, b"")
    assert hashlib.sha256(run.stdout).hexdigest() == dict(GOLDEN)[request_line]


def test_the_exit_path_writes_every_byte_of_out(tmp_path):
    out = tmp_path / "disc.json"
    run = _lmov(["disc", "--tau", "-2", "--max-m", "8", "--out", str(out)])
    assert (run.returncode, run.stdout, run.stderr) == (EXIT_OK, b"", b"")
    digest = dict(GOLDEN)["disc --tau -2 --max-m 8"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


BAD_INPUT = [
    ["ov", "--tau", "1", "--max-m", "0"],
    ["dt", "--loops", "0"],
    ["gwdt-check", "--tau", "-1", "--order", "-1"],
    ["gwdt-check", "--tau", "0"],
    ["disc", "--tau", "1", "--out", "/nonexistent/x"],
    ["verify-all", "--quick", "--out", "/nonexistent/x"],
    ["disc", "--tau", "1", "--max-m", "-3"],
    ["onehole", "--tau", "1", "--max-m", "0"],
    ["annulus", "--tau", "1", "--max-total", "0"],
    ["multihole", "--tau", "1", "--max-size", "-1"],
    ["twist", "--max-r", "0"],
    ["twist", "--p-min", "3", "--p-max", "2"],
    ["twist", "--p-min", "0", "--p-max", "1"],
    ["disc", "--tau", "x"],
    ["disc", "--tau", "1", "--out", ""],
    ["verify-all", "--quick", "--out", ""],
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_exits_1_before_computation(argv, monkeypatch, capsys):
    def computed(*args, **kwargs):
        raise AssertionError("computation started")

    for owner, name in [(cli, "_table"), (gwdt, "gwdt_check"), (verify, "run_all")]:
        monkeypatch.setattr(owner, name, computed)
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"lmov( [a-z-]+)?: error: [^\n]+\n", captured.err), captured.err


@pytest.mark.parametrize("argv", [["ov", "--tau", "1"], ["verify-all", "--quick"]], ids=" ".join)
def test_out_of_memory_exits_1_with_one_line(argv, monkeypatch, capsys):
    def exhausted(tau, max_m):
        raise MemoryError

    monkeypatch.setattr(gwdt, "ooguri_vafa", exhausted)
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "lmov: error: out of memory\n"
    assert "Traceback" not in err


def _failing_replace(src, dst):
    raise PermissionError(13, "Permission denied")


def test_out_is_atomic(tmp_path, monkeypatch, capsys):
    out = tmp_path / "disc.json"
    out.write_bytes(b"previous")
    argv = ["disc", "--tau", "1", "--max-m", "2", "--out", str(out)]
    with monkeypatch.context() as m:
        m.setattr("os.replace", _failing_replace)
        assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"lmov: error: cannot write {out}: Permission denied\n"
    # the failed write left the old file and no temporary file behind
    assert out.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["disc.json"]
    assert main(argv) == EXIT_OK
    assert json.loads(out.read_bytes())["table"] == "disc"
    assert [p.name for p in tmp_path.iterdir()] == ["disc.json"]


def _no_such_file(path, mode):
    # what creating a file beside /proc/version meets
    raise FileNotFoundError(2, "No such file or directory", path)


def test_out_names_the_temporary_file_it_could_not_create(tmp_path, monkeypatch, capsys):
    # the bytes go first to a temporary file beside the target: when that
    # cannot be created, the message names it after the target
    out = tmp_path / "disc.json"
    argv = ["disc", "--tau", "1", "--max-m", "2", "--out", str(out)]
    with monkeypatch.context() as m:
        m.setattr("lmov.io.open", _no_such_file, raising=False)
        assert main(argv) == EXIT_USAGE
    tmp = f"{out}.{os.getpid()}.tmp"
    err = capsys.readouterr().err
    assert err == f"lmov: error: cannot write {out}: {tmp}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_all_quick(capsys):
    code, text = run(["verify-all", "--quick", "--seed", "7"], capsys)
    assert code == EXIT_OK
    lines = [l for l in text.splitlines() if l.strip()]
    assert len(lines) == 13
    assert all(l.startswith("PASS") for l in lines)
    assert [re.fullmatch(r"PASS  (\S+)  \[\d+\.\ds\]", l).group(1) for l in lines] == SUITES


@pytest.fixture
def fractions_built(monkeypatch):
    """The arguments of every Fraction built from here on, until
    ``monkeypatch.undo()``.  The package's caches are cleared first, so
    that no value is read from an earlier test's run."""
    clear_lmov_caches()
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return built


@pytest.mark.parametrize("bounds", ["QUICK", "FULL"])
def test_sweep_builds_no_fraction(bounds, fractions_built, monkeypatch):
    # every division in the sweep is exact, and a remainder would be
    # reported where it arises, not kept as a Fraction
    reports = list(verify.run_all(getattr(verify, bounds)))
    monkeypatch.undo()
    assert [r.name for r in reports if r.ok] == SUITES
    assert fractions_built == []


def make_tables_requests() -> list:
    """The argument lists of every request that scripts/make_tables.py runs,
    less the output options."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_tables.py"
    spec = importlib.util.spec_from_file_location("make_tables", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    framed = [[a.format(tau=tau) for a in job] for tau in range(-3, 4) for job in script.JOBS]
    return framed + script.FIXED


def perfbench_requests() -> list:
    """The argument lists of every table request of the benchmark's
    workloads, read from perfbench/workloads.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [list(argv) for w in ("onehole", "ov-dt") for argv in workloads.table_requests(w)]


HERE = str(Path(__file__).resolve().parent)  # a directory, so a valid --out goes in it
PARSE_CORPUS = (
    perfbench_requests()
    + [argv + ["--format", fmt, "--out", f"{HERE}/t.{fmt}"]
       for argv in make_tables_requests() for fmt in ("json", "csv")]
    + [argv for argv in BAD_INPUT if "" not in argv]  # --out "" is refused only by the scan
    + [
        ["disc", "--tau=-3"],
        ["disc", "--tau", "1", "--max-m", "3", "--tau", "2"],
        ["annulus", "--max", "3"],
        ["annulus", "--tau", "2", "--max", "3"],
        ["twist", "--p", "1"],
        ["twist", "--p=1"],
        ["disc", "--tau"],
        ["disc", "--tau", "--max-m", "2"],
        ["disc", "--tau", "1", "extra"],
        ["disc", "extra"],
        ["disc", "--bogus", "--tau", "x"],
        ["verify-all", "--quick=1"],
        [],
        ["no-such-command"],
        # an ambiguous prefix is reported before a bad value that precedes it
        ["twist", "--max-r", "x", "--p", "1"],
        ["onehole", "--tau", "1", "--h", "fraction"],
        ["disc", "-hx"],
        ["--help=x"],
        ["disc", "--tau", "-1e3"],
        ["disc", "--tau", "-.5"],
        ["disc", "--tau", "-x y"],
        ["disc", "--tau="],
        ["disc", "--tau", "1", "--f", "csv", "--fo=json", "--ma", "2"],
        ["disc", "--tau", "1", "--", "x"],
        ["disc", "--", "--tau", "1"],
        ["-x", "disc", "--tau", "1", "y"],
        ["--", "disc"],
        ["--"],
        ["verify-all", "--quick", "--s", "-2", "--quick"],
        ["verify-all", "--seed", "1_0"],
        ["disc", "--tau", "1", "--format", "xml"],
        ["disc", "--tau", "1", "--out", HERE],
        ["gwdt-check", "--tau=0"],
        ["gwdt-check", "--tau", "-2", "--order", "0", "--out", "-"],
    ]
)


def parse_outcome(parse, argv) -> tuple:
    """``(vars(namespace), stderr)`` if ``parse(argv)`` returns, else
    ``(exit code, stderr)``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as e:
            result = e.code
    return result, err.getvalue()


def reference_parse(argv):
    return reference.argparse_parser().parse_args(argv)


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "(empty)")
def test_parse_args_matches_the_argparse_reference(argv):
    got, want = parse_outcome(cli.parse_args, argv), parse_outcome(reference_parse, argv)
    assert got == want
    # accepted, or refused with one line and exit 1
    assert isinstance(want[0], dict) or (want[0] == EXIT_USAGE and want[1].count("\n") == 1)


TOKENS = [
    "--tau", "--ta", "--t", "--max-m", "--max", "--m", "--format", "--f", "--out", "--o",
    "--quick", "--q", "--seed", "--p", "--p-min", "--loops", "--order", "--half-format", "--h",
    "-h", "-x", "-", "--", "1", "0", "-3", "x", "", "csv", "fraction", "--tau=-1", "--quick=",
    "-.5", "-1e3", "-x y", "--bogus", HERE, "disc", "twist",
]


@settings(max_examples=300)
@given(st.sampled_from([*cli.COMMANDS, "dis", "-x", "--", ""]),
       st.lists(st.sampled_from(TOKENS), max_size=6))
def test_parse_args_matches_the_argparse_reference_on_any_line(command, tokens):
    argv = [command, *tokens]
    got, want = parse_outcome(cli.parse_args, argv), parse_outcome(reference_parse, argv)
    assume("argument --out: empty path" not in got[1])
    assert got == want or got[0] == want[0] == EXIT_OK  # help text differs by design


HELP_REQUESTS = [["-h"], ["--help"], ["--he"]] + [[command, "-h"] for command in cli.COMMANDS]


@pytest.mark.parametrize("argv", HELP_REQUESTS, ids=" ".join)
def test_help_is_built_from_the_table_at_any_width(argv, monkeypatch, capsys):
    shown = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        shown.append(out)
    assert shown[0] == shown[1]
    if argv[0] not in cli.COMMANDS:
        assert cli.__doc__.strip() in out
        assert all(re.search(f"^  {c} +{re.escape(about)}$", out, re.M)
                   for c, (about, _) in cli.COMMANDS.items())
        return
    about, options = cli.COMMANDS[argv[0]]
    assert out.startswith(f"usage: lmov {argv[0]} ") and f"\n\n{about}\n\n" in out
    for name, (parse, default, what) in options.items():
        assert re.search(f"^  {name}.* {re.escape(what)}", out, re.M), name
        if isinstance(parse, tuple):
            assert f"{name} {{{','.join(parse)}}}" in out
        if default is cli.REQUIRED:
            assert f"{what} (required)" in out
        elif parse is not None and default is not None:
            assert f"{what} (default {default})" in out


def test_table_requests_build_no_fraction(fractions_built, monkeypatch, tmp_path, capsys):
    # every make_tables.py request in both formats, and gwdt-check
    requests = make_tables_requests()
    assert len(requests) == 39
    codes = [main(argv + ["--format", fmt, "--out", str(tmp_path / f"{i}.{fmt}")])
             for i, argv in enumerate(requests) for fmt in ("json", "csv")]
    codes += [main(["gwdt-check", "--tau", str(tau)]) for tau in (-1, -2, -3)]
    monkeypatch.undo()
    capsys.readouterr()
    assert codes == [EXIT_OK] * 81
    assert fractions_built == []


def test_a_remainder_in_a_round_trip_fails_cleanly(monkeypatch, capsys):
    # one more 1 on level 2 of the log that the log/exp round trip feeds to
    # series_dexp: 2 E_2 turns odd at q^0, the exp refuses it, and the
    # infrastructure suite records a mismatch instead of raising
    real_dlog, real_dexp, refused = verify.series_dlog, verify.series_dexp, []

    def bumped(s):
        d = real_dlog(s)
        return d[:2] + [lsum((1, d[2]), (1, LaurentQA.one()))] + d[3:]

    def recorded(d):
        out = real_dexp(d)
        refused.append(out is None)
        return out

    monkeypatch.setattr(verify, "series_dlog", bumped)
    monkeypatch.setattr(verify, "series_dexp", recorded)
    assert verify.check_infrastructure(3, 2, 0).failures == [{"log-exp-roundtrip": "mismatch"}]
    assert refused == [True]
    reports = list(verify.run_all(verify.QUICK))
    assert [r.name for r in reports] == SUITES
    assert [(r.name, r.failures) for r in reports if not r.ok] == [
        ("infrastructure", [{"log-exp-roundtrip": "mismatch"}])
    ]
    code, text = run(["verify-all", "--quick"], capsys)
    assert code == EXIT_THEOREM
    assert [l.split()[1] for l in text.splitlines() if l.startswith("FAIL")] == ["infrastructure"]
    assert "{'log-exp-roundtrip': 'mismatch'}" in text
    assert "Traceback" not in capsys.readouterr().err


def test_infrastructure_builds_each_z_squared_power_once(monkeypatch):
    # a running product: (z^2)^g from (z^2)^(g-1), one multiply for each g <= 4
    calls, real = [], LaurentQA.__mul__
    monkeypatch.setattr(LaurentQA, "__mul__",
                        lambda f, g: calls.append(g is Z_SQUARED) or real(f, g))
    assert verify.check_infrastructure(**verify.FULL["infra"], seed=0).ok
    assert calls.count(True) == 4


def test_violation_fails_only_its_suite(tmp_path, monkeypatch, capsys):
    def broken(tau, max_m):
        raise TheoremViolation(f"n_(1,0)(tau={tau}) is not an integer: 1/2")

    monkeypatch.setattr(genus0, "disc_rows", broken)
    reports = list(verify.run_all(verify.QUICK, seed=6))
    assert [r.name for r in reports] == SUITES
    # general-partition reads disc_rows too, for its genus-zero dictionary
    assert [r.name for r in reports if not r.ok] == ["disc-integrality", "general-partition"]
    assert reports[SUITES.index("general-partition")].failures == [
        {"violation": "n_(1,0)(tau=-1) is not an integer: 1/2"}
    ]
    failed = reports[0]
    assert failed.params == {"max_m": 12, "tau_range": list(range(-3, 4))}
    assert failed.failures == [{"violation": "n_(1,0)(tau=-3) is not an integer: 1/2"}]
    assert reports[-1].params == {"max_n": 5, "samples": 40, "seed": 6}

    out = tmp_path / "sweep.json"
    code = main(["verify-all", "--quick", "--seed", "6", "--out", str(out)])
    assert code == EXIT_THEOREM
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL  disc-integrality  [")
    assert lines[1] == "      {'violation': 'n_(1,0)(tau=-3) is not an integer: 1/2'}"
    assert sum(l.startswith("PASS  ") for l in lines) == 11
    suites = json.loads(out.read_bytes())["suites"]
    assert [s["suite"] for s in suites] == SUITES
    assert suites[0]["status"] == "FAIL" and suites[0]["failures"] == failed.failures
    assert all(set(s) == {"suite", "status", "params", "seconds", "failures"} for s in suites)


def test_annulus_division_failure_exits_2(monkeypatch, capsys):
    # a Lagrange sum that N = n + 1 does not divide: first at n = 1, N = 2
    real = genus0._lagrange_numerator

    def not_divisible(tau, n):
        return [c + 1 for c in real(tau, n)]

    monkeypatch.setattr(genus0, "_lagrange_numerator", not_divisible)
    caches = (genus0.kernel_level, genus0._annulus_log, genus0._annulus_column)
    for cached in caches:
        cached.cache_clear()
    try:
        assert main(["annulus", "--tau", "1", "--max-total", "3"]) == EXIT_THEOREM
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "(tau=1, n=1)" in err
        reports = list(verify.run_all(verify.QUICK))
        assert [r.name for r in reports if not r.ok] == [
            "disc-series-oracle", "annulus", "general-partition"
        ]
    finally:
        for cached in caches:
            cached.cache_clear()


def test_ov_failure_records_keyed_by_int_reach_the_report(tmp_path, monkeypatch, capsys):
    # N_{1,k} off its expected row: check_ov records {"N_1": ..., "want": {0: +-1}}
    # and, for tau <= -1, ov_dt_shift_check records {"dt_mapped": {k: c}, ...}
    real = gwdt.ooguri_vafa

    def broken(tau, max_m):
        table = real(tau, max_m)
        table.rows[1] = {0: 5}
        return table

    monkeypatch.setattr(gwdt, "ooguri_vafa", broken)
    out = tmp_path / "sweep.json"
    code = main(["verify-all", "--quick", "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_THEOREM
    suites = {s["suite"]: s for s in json.loads(out.read_bytes())["suites"]}
    assert [n for n, s in suites.items() if s["status"] == "FAIL"] == ["ov-extraction"]
    failures = suites["ov-extraction"]["failures"]
    assert {"tau": 2, "N_1": {"0": 5}, "want": {"0": 1}} in failures
    assert {"tau": -2, "n": 1, "dt_mapped": {"0": 1}, "ov": {"0": 5}} in failures


def test_one_hole_violation_keeps_the_other_failure_records(tmp_path, monkeypatch, capsys):
    # two broken cells in one sweep: a colored sum off by one at (m, tau) =
    # (2, 1), and a row of z^2 g_3 that is no palindrome at tau = 1
    real_sum, real_rows = onehole.colored_sum, onehole._z2_rows

    def off_by_one(m, tau):
        width, rows = real_sum(m, tau)
        if (m, tau) == (2, 1):  # E_2 = 2! {2}{2} Z_2 from q^(-1) up: 2 more at q^0 a^0
            rows = {**rows, 0: rows[0] + (2 << 8 * width)}
        return width, rows

    def not_a_palindrome(m, tau):
        return {1: (-2, [1, 0, 2])} if (m, tau) == (3, 1) else real_rows(m, tau)

    monkeypatch.setattr(onehole, "colored_sum", off_by_one)
    monkeypatch.setattr(onehole, "_z2_rows", not_a_palindrome)
    want = [
        {"tau": 1, "m": 2, "reason": "closed form != colored sum"},
        {"tau": 1, "m": 3, "violation": "z^2 g_m outside Q[z^2, a^(+-1/2)] (m=3, tau=1)"},
    ]
    assert verify.check_onehole_chain(4, range(1, 2)).failures == want
    out = tmp_path / "sweep.json"
    code = main(["verify-all", "--quick", "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_THEOREM
    suites = {s["suite"]: s for s in json.loads(out.read_bytes())["suites"]}
    failed = [n for n, s in suites.items() if s["status"] == "FAIL"]
    # general-partition holds the table of mu = (3,) equal to lmov_one_hole's
    assert failed == ["one-hole-chain", "gaussian-closed-form", "general-partition"]
    assert suites["one-hole-chain"]["failures"] == want
    assert suites["general-partition"]["failures"] == [{"violation": want[1]["violation"]}]
