"""Command-line front end.

Subcommands compute invariant tables (disc, annulus, multihole, onehole,
ov, dt, twist), run the GW/DT identity check, or sweep every property
suite (verify-all).  Tables are deterministic JSON (default) or CSV.

Exit status: 0 success, 1 usage error or out of memory, 2 violation of a
proved theorem (the test suite asserts 2 is unreachable on shipped ranges).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from . import genus0, gwdt, onehole, twist, verify
from .arith import TheoremViolation
from .io import emit, half_string, json_bytes, table_bytes
from .partitions import partitions_of

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_THEOREM = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved here
    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _int_in(lo: int | None = None, hi: int | None = None):
    """argparse type: an int in [lo, hi]; a bound of None is open."""

    def parse(text: str) -> int:
        n = int(text)
        if lo is not None and n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
        if hi is not None and n > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in its own messages
    return parse


def _out_path(path: str) -> str:
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise argparse.ArgumentTypeError(f"no directory to write {path!r} into")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    return path


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=_out_path, default=None, help="output path (default stdout)")


def _add_table_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out(p)


@cache  # one parser per process serves every main() call
def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="lmov", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    positive = _int_in(lo=1)

    p = sub.add_parser("disc", help="genus-0 one-hole integer table n_{m,l}")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--max-m", type=positive, default=12)
    _add_table_output(p)

    p = sub.add_parser("annulus", help="genus-0 two-hole table n_{(m1,m2),l}")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--max-total", type=_int_in(lo=2), default=8, help="bound on m1+m2")
    _add_table_output(p)

    p = sub.add_parser("multihole", help="genus-0 top-charge table, >= 3 holes")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--max-size", type=_int_in(lo=3), default=8, help="bound on |mu|")
    _add_table_output(p)

    p = sub.add_parser("onehole", help="all-genus one-hole tables n_{m,g,Q}")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--max-m", type=positive, default=6)
    p.add_argument(
        "--half-format",
        choices=("doubled", "fraction"),
        default="doubled",
        help="serialize Q as two_q integers or explicit halves like 3/2",
    )
    _add_table_output(p)

    p = sub.add_parser("ov", help="Ooguri-Vafa integer table N_{m,k}")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--max-m", type=positive, default=8)
    _add_table_output(p)

    p = sub.add_parser("dt", help="quantum DT invariants of the loop quiver")
    p.add_argument("--loops", type=positive, required=True)
    p.add_argument("--max-n", type=positive, default=6)
    _add_table_output(p)

    p = sub.add_parser("twist", help="twist-knot extremal invariants")
    p.add_argument("--p-min", type=int, default=-6)
    p.add_argument("--p-max", type=int, default=6)
    p.add_argument("--max-r", type=positive, default=20)
    _add_table_output(p)

    p = sub.add_parser("gwdt-check", help="reduced series vs loop-quiver series")
    p.add_argument("--tau", type=_int_in(hi=-1), required=True, help="must be <= -1")
    p.add_argument("--order", type=_int_in(lo=0), default=12)
    _add_out(p)

    p = sub.add_parser("verify-all", help="run every property suite")
    p.add_argument("--quick", action="store_true", help="reduced bounds")
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)

    return top


def _twist_ps(args) -> list:
    return [p for p in range(args.p_min, args.p_max + 1) if p not in (0, 1)]


def _entries(cells: dict, name: str) -> list:
    return [{"k": k, name: cells[k]} for k in sorted(cells)]


def _table(args) -> tuple:
    """The requested table as a (head, rows, columns) triple; see lmov.io."""
    cmd, tau = args.command, getattr(args, "tau", None)
    if cmd == "disc":
        rows = [
            {"m": m, "l": l, "n": genus0.disc_n(m, l, tau), "integral": True}
            for m in range(1, args.max_m + 1)
            for l in range(m + 1)
        ]
        head = {"table": "disc", "tau": tau, "max_m": args.max_m}
        return head, rows, ["m", "l", "tau", "value=n", "integral"]
    if cmd == "annulus":
        rows = []
        for m1 in range(1, args.max_total):
            for m2 in range(1, args.max_total + 1 - m1):
                for l in range(m1 + m2 + 1):
                    v, ok = genus0.annulus_n(m1, m2, l, tau, order=args.max_total)
                    rows.append({"m1": m1, "m2": m2, "l": l, "n": v, "integral": ok})
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
        q, fmt_q = ("Q", half_string) if args.half_format == "fraction" else ("two_q", int)
        rows = []
        for m in range(1, args.max_m + 1):
            cells = sorted(onehole.lmov_one_hole(m, tau).items())
            entries = [{"g": g, q: fmt_q(v), "n": n} for (g, v), n in cells]
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
    rep = gwdt.gwdt_check(args.tau, args.order)
    result = "PASS" if rep.ok else "FAIL"
    payload = {"check": "gwdt", "tau": args.tau, "order": args.order}
    emit(json_bytes({**payload, "result": result, "failures": rep.failures}), args.out)
    print(result)
    return EXIT_OK if rep.ok else EXIT_THEOREM


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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "twist" and not _twist_ps(args):
        parser.error(f"--p-min {args.p_min} --p-max {args.p_max} holds no p <= -1 or p >= 2")
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
        print(f"lmov: error: cannot write {where}: {e.strerror or e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("lmov: error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
