"""Command-line front end.

Subcommands compute invariant tables (disc, annulus, multihole, onehole,
ov, dt, twist), run the GW/DT identity check, or sweep every property
suite (verify-all).  Tables are deterministic JSON (default) or CSV.

A command line is ``lmov COMMAND`` and then the command's options from
``COMMANDS`` in any order, each ``--name VALUE`` or ``--name=VALUE``.  A
value may be a negative number, a repeated option keeps its last value,
and a unique prefix of a name stands for it.  A usage error prints one
line and exits 1 before any computation.  The line names the first of:
an ambiguous prefix; a bad or missing value, in argv order; a missing
required option; the unrecognized arguments.  ``-h`` prints help.

Exit status: 0 success, 1 usage error or out of memory, 2 violation of a
proved theorem (the test suite asserts 2 is unreachable on shipped ranges).
``main`` freezes the heap once argv parses, so shutdown stops collecting it.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from types import SimpleNamespace

from . import genus0, gwdt, onehole, twist, verify
from .arith import TheoremViolation
from .io import emit, half_string, json_bytes, table_bytes
from .partitions import partitions_of

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_THEOREM = 2


def _int_in(lo: int | None = None, hi: int | None = None):
    """Option value: an int in [lo, hi]; a bound of None is open."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise ValueError(f"invalid int value: {text!r}") from None
        if lo is not None and n < lo:
            raise ValueError(f"must be >= {lo}, got {n}")
        if hi is not None and n > hi:
            raise ValueError(f"must be <= {hi}, got {n}")
        return n

    return parse


def _out_path(path: str) -> str:
    if not path:
        raise ValueError("empty path")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"no directory to write {path!r} into")
    if os.path.isdir(path):
        raise ValueError(f"{path!r} is a directory")
    return path


# COMMANDS maps each command to its help and its options, and each option
# to (parse, default, help): parse reads the value from the text, or is
# the tuple of accepted texts, or is None for a flag, which takes no value.
REQUIRED = object()  # the default of an option that must be given
_INT, _POSITIVE = _int_in(), _int_in(lo=1)
_TAU = {"--tau": (_INT, REQUIRED, "framing")}
_OUT = {"--out": (_out_path, None, "output path (default stdout)")}
_TABLE = {"--format": (("json", "csv"), "json", "table format"), **_OUT}
COMMANDS = {
    "disc": ("genus-0 one-hole integer table n_{m,l}",
             {**_TAU, "--max-m": (_POSITIVE, 12, "bound on m"), **_TABLE}),
    "annulus": ("genus-0 two-hole table n_{(m1,m2),l}",
                {**_TAU, "--max-total": (_int_in(lo=2), 8, "bound on m1+m2"), **_TABLE}),
    "multihole": ("genus-0 top-charge table, >= 3 holes",
                  {**_TAU, "--max-size": (_int_in(lo=3), 8, "bound on |mu|"), **_TABLE}),
    "onehole": ("all-genus one-hole tables n_{m,g,Q}", {
        **_TAU, "--max-m": (_POSITIVE, 6, "bound on m"),
        "--half-format": (("doubled", "fraction"), "doubled",
                          "serialize Q as two_q integers or explicit halves like 3/2"),
        **_TABLE}),
    "ov": ("Ooguri-Vafa integer table N_{m,k}",
           {**_TAU, "--max-m": (_POSITIVE, 8, "bound on m"), **_TABLE}),
    "dt": ("quantum DT invariants of the loop quiver", {
        "--loops": (_POSITIVE, REQUIRED, "number of loops"),
        "--max-n": (_POSITIVE, 6, "bound on n"), **_TABLE}),
    "twist": ("twist-knot extremal invariants", {
        "--p-min": (_INT, -6, "least p"), "--p-max": (_INT, 6, "greatest p"),
        "--max-r": (_POSITIVE, 20, "bound on r"), **_TABLE}),
    "gwdt-check": ("reduced series vs loop-quiver series", {
        "--tau": (_int_in(hi=-1), REQUIRED, "framing, must be <= -1"),
        "--order": (_int_in(lo=0), 12, "series order"), **_OUT}),
    "verify-all": ("run every property suite", {
        "--quick": (None, False, "reduced bounds"),
        "--seed": (_INT, 0, "seed of the sampled checks"), **_OUT}),
}
_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a value, never an option


def _fail(prog: str, message: str):
    sys.stderr.write(f"{prog}: error: {message}\n")
    sys.exit(EXIT_USAGE)


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _help(prog: str) -> str:
    """The help of ``lmov`` or ``lmov COMMAND``, the same at any width."""
    if prog == "lmov":
        usage, about = "lmov [-h] COMMAND [OPTION ...]", __doc__.strip()
        rows = {command: what for command, (what, _) in COMMANDS.items()}
    else:
        (about, options), usage = COMMANDS[prog[5:]], f"{prog} [-h]"
        rows = {"-h, --help": "show this help and exit"}
        for name, (parse, default, what) in options.items():
            if isinstance(parse, tuple):
                name += " {" + ",".join(parse) + "}"
            elif parse is not None:
                name += " " + _dest(name).upper()
            usage += f" {name}" if default is REQUIRED else f" [{name}]"
            if default is REQUIRED:
                what += " (required)"
            elif parse is not None and default is not None:
                what += f" (default {default})"
            rows[name] = what
    width = max(map(len, rows))
    lines = [f"  {left:<{width}}  {right}" for left, right in rows.items()]
    return "\n".join([f"usage: {usage}", "", about, "", *lines, ""])


def _read(prog: str, token: str, names) -> tuple | None:
    """How a token reads: None for a value, else the option it names (None
    for an unknown option) and the text after its ``=``, if any."""
    if token[:1] != "-" or token == "-" or _NEGATIVE.match(token):
        return None
    head, eq, text = token.partition("=")
    if token in names:
        return token, None
    if eq and head in names:
        return head, text
    if token[1] == "-":
        found = [(name, text if eq else None) for name in names if name.startswith(head)]
    else:
        found = [(name, token[2:]) for name in names if name == token[:2]]
    if len(found) > 1:
        matches = ", ".join(name for name, _ in found)
        _fail(prog, f"ambiguous option: {token} could match {matches}")
    if found:
        return found[0]
    return None if " " in token else (None, None)


def _scan(prog: str, options: dict, argv: list, ns: SimpleNamespace) -> list:
    """Set the options that ``argv`` gives in ``ns`` and return the tokens
    that name none of them; ``--`` and all after it name none."""
    end = argv.index("--") if "--" in argv else len(argv)
    read = [_read(prog, token, _HELP + tuple(options)) for token in argv[:end]]
    extras, i = [], 0
    while i < end:
        name, text = read[i] or (None, None)
        parse = options[name][0] if name in options else None
        i += 1
        if name is None:
            extras.append(argv[i - 1])
        elif parse is None and text is not None:
            spelled = "/".join(_HELP) if name in _HELP else name
            _fail(prog, f"argument {spelled}: ignored explicit argument {text!r}")
        elif name in _HELP:
            sys.stdout.write(_help(prog))
            sys.exit(EXIT_OK)
        elif parse is None:
            setattr(ns, _dest(name), True)
        elif text is None and (i == end or read[i] is not None):
            _fail(prog, f"argument {name}: expected one argument")
        else:
            if text is None:
                text, i = argv[i], i + 1
            if isinstance(parse, tuple) and text not in parse:
                choices = ", ".join(map(repr, parse))
                _fail(prog, f"argument {name}: invalid choice: {text!r} (choose from {choices})")
            try:
                setattr(ns, _dest(name), text if isinstance(parse, tuple) else parse(text))
            except ValueError as e:
                _fail(prog, f"argument {name}: {e}")
    return extras + argv[end:]


def parse_args(argv) -> SimpleNamespace:
    """The options of an ``lmov`` command line, by the names ``main`` reads.
    A usage error prints one line and exits 1; help exits 0."""
    argv = list(argv)
    i = next((i for i, t in enumerate(argv) if t == "--" or not _read("lmov", t, ())), len(argv))
    extras = _scan("lmov", {}, argv[:i], SimpleNamespace())
    if argv[i:] in ([], ["--"]):
        _fail("lmov", "the following arguments are required: command")
    if argv[i] not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail("lmov", f"argument command: invalid choice: {argv[i]!r} (choose from {choices})")
    prog, options = f"lmov {argv[i]}", COMMANDS[argv[i]][1]
    ns = SimpleNamespace(command=argv[i], **{_dest(n): o[1] for n, o in options.items()})
    extras += _scan(prog, options, argv[i + 1:], ns)
    missing = [name for name in options if getattr(ns, _dest(name)) is REQUIRED]
    if missing:
        _fail(prog, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail("lmov", f"unrecognized arguments: {' '.join(extras)}")
    return ns


def _twist_ps(args) -> list:
    return [p for p in range(args.p_min, args.p_max + 1) if p not in (0, 1)]


def _entries(cells: dict, name: str) -> list:
    return [{"k": k, name: cells[k]} for k in sorted(cells)]


def _table(args) -> tuple:
    """The requested table as a (head, rows, columns) triple; see lmov.io."""
    cmd, tau = args.command, getattr(args, "tau", None)
    if cmd == "disc":
        rows = [
            {"m": m, "l": l, "n": n, "integral": True}
            for m, row in enumerate(genus0.disc_rows(tau, args.max_m), 1)
            for l, n in enumerate(row)
        ]
        head = {"table": "disc", "tau": tau, "max_m": args.max_m}
        return head, rows, ["m", "l", "tau", "value=n", "integral"]
    if cmd == "annulus":
        rows = [
            {"m1": m1, "m2": m2, "l": l, "n": n, "integral": True}
            for m1 in range(1, args.max_total)
            for m2 in range(1, args.max_total + 1 - m1)
            for l, n in enumerate(genus0.annulus_row(m1, m2, tau, args.max_total))
        ]
        head = {"table": "annulus", "tau": tau, "max_total": args.max_total}
        return head, rows, ["m1", "m2", "l", "tau", "value=n", "integral"]
    if cmd == "multihole":
        rows = [
            {"mu": mu, "n": genus0.multihole_n(mu, tau), "integral": True}
            for size in range(3, args.max_size + 1)
            for mu in partitions_of(size)
            if len(mu) >= 3
        ]
        head = {"table": "multihole", "tau": tau, "max_size": args.max_size}
        return head, rows, ["mu", "tau", "value=n", "integral"]
    if cmd == "onehole":
        q = "Q" if (half := args.half_format == "fraction") else "two_q"
        rows = []
        for m in range(1, args.max_m + 1):
            cells = sorted(onehole.lmov_one_hole(m, tau).items())
            entries = [{"g": g, q: half_string(v) if half else v, "n": n} for (g, v), n in cells]
            rows.append({"m": m, "tau": tau, "entries": entries})
        return {"table": "onehole", "tau": tau}, rows, ["m", "tau", "g", q, "n"]
    if cmd == "ov":
        table = gwdt.ooguri_vafa(tau, args.max_m)
        rows = [{"m": m, "entries": _entries(table.rows[m], "N")} for m in sorted(table.rows)]
        return {"tau": tau}, rows, ["tau", "m", "k", "N"]
    if cmd == "dt":
        table = gwdt.dt_extract(args.loops, args.max_n)
        rows = [{"n": n, "entries": _entries(table.rows[n], "c")} for n in sorted(table.rows)]
        return {"loops": args.loops}, rows, ["loops", "n", "k", "c"]
    if cmd == "twist":
        rows = [
            {"p": p, "r": r, "b_minus": twist.b_minus(p, r), "b_plus": twist.b_plus(p, r)}
            for p in _twist_ps(args)
            for r in range(1, args.max_r + 1)
        ]
        return {"table": "twist"}, rows, ["p", "r", "b_minus", "b_plus"]
    raise AssertionError(cmd)


def _gwdt_check(args) -> int:
    failures = gwdt.gwdt_check(args.tau, args.order)
    result = "FAIL" if failures else "PASS"
    payload = {"check": "gwdt", "tau": args.tau, "order": args.order}
    emit(json_bytes({**payload, "result": result, "failures": failures}), args.out)
    print(result)
    return EXIT_THEOREM if failures else EXIT_OK


def _verify_all(args) -> int:
    """One line per suite, ``PASS  <suite>  [<s>s]``, with the first five
    failures of a failing suite indented below it."""
    bounds = verify.QUICK if args.quick else verify.FULL
    suites = []
    for rep in verify.run_all(bounds, seed=args.seed):
        status = "PASS" if rep.ok else "FAIL"
        print(f"{status}  {rep.name}  [{rep.seconds:.1f}s]", flush=True)
        for f in rep.failures[:5]:
            print(f"      {f}")
        suite = {"suite": rep.name, "status": status, "params": rep.params}
        suites.append({**suite, "seconds": round(rep.seconds, 3), "failures": rep.failures})
    if args.out:
        emit(json_bytes({"suites": suites}), args.out)
    return EXIT_OK if all(s["status"] == "PASS" for s in suites) else EXIT_THEOREM


def main(argv=None) -> int:
    """Run one command line; return its exit status.  What is alive once argv
    parses lives until exit, so ``gc.freeze`` there lets shutdown skip it."""
    args = parse_args(sys.argv[1:] if argv is None else argv)
    gc.freeze()
    if args.command == "twist" and not _twist_ps(args):
        _fail("lmov", f"--p-min {args.p_min} --p-max {args.p_max} holds no p <= -1 or p >= 2")
    try:
        if args.command == "gwdt-check":
            return _gwdt_check(args)
        if args.command == "verify-all":
            return _verify_all(args)
        emit(table_bytes(args.format, *_table(args)), args.out)
        return EXIT_OK
    except TheoremViolation as e:
        print(f"theorem violation: {e}", file=sys.stderr)
        return EXIT_THEOREM
    except OSError as e:  # the output could not be written
        where = args.out or "stdout"
        if e.filename not in (None, where):  # the temporary file beside it
            where += f": {e.filename}"
        print(f"lmov: error: cannot write {where}: {e.strerror or e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("lmov: error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
