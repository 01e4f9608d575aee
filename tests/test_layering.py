"""The import graph of the lmov package, read from its source with ``ast``.

Layers, bottom up: the leaves (``arith``, ``partitions``, ``io``), the
exact algebra (``qa``, ``series``), the four invariant modules, which never
import one another, and on top ``verify`` and ``cli``.  Every module-level
function and class, and every method but the dunders, is used by the
package itself: what only the tests use lives in ``tests/``.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lmov
from lmov.qa import LaurentQA, PochRow

SRC = Path(lmov.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
LEAVES = {"arith", "partitions", "io"}
INVARIANTS = {"genus0", "onehole", "gwdt", "twist"}


def lmov_imports(module: str) -> set:
    """Short names of the lmov modules that ``module`` imports."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "lmov" if node.level else node.module or ""
            if node.level and node.module:
                base += "." + node.module
            names = [base] if base != "lmov" else [f"lmov.{a.name}" for a in node.names]
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("lmov."))
    return found


def test_the_graph_is_read():
    assert set(MODULES) >= LEAVES | INVARIANTS | {"qa", "series", "verify", "cli"}
    assert lmov_imports("cli") >= INVARIANTS | {"verify", "io"}


@pytest.mark.parametrize("module", sorted(LEAVES))
def test_leaves_import_no_lmov_module(module):
    assert lmov_imports(module) == set()


@pytest.mark.parametrize("module", ["qa", "series"])
def test_algebra_imports_only_leaves(module):
    assert lmov_imports(module) <= LEAVES


@pytest.mark.parametrize("module", sorted(INVARIANTS))
def test_invariant_modules_import_none_of_each_other(module):
    assert not lmov_imports(module) & INVARIANTS


def imported_modules(module: str) -> set:
    """The names of the modules that ``module`` imports or imports from."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names}
    return names | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"arith"}))
def test_exact_algebra_imports_nothing_from_fractions(module):
    # the package stores ints only: a remainder is reported where it
    # arises, never kept as a Fraction; arith alone spells the ratio of a
    # failed division with one (ratio_text)
    assert "fractions" not in imported_modules(module)


def test_qa_alone_knows_the_slot_format():
    # one slot codec (qa._pack, qa._unpack): no other module packs with
    # struct or shifts an int by a computed slot offset
    assert [m for m in MODULES if "struct" in imported_modules(m)] == ["qa"]
    for module in set(MODULES) - {"qa"}:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.BinOp)
                    and isinstance(node.op, (ast.LShift, ast.RShift))
                    and not isinstance(node.right, ast.Constant)], module


def test_only_cli_imports_verify():
    assert [m for m in MODULES if "verify" in lmov_imports(m)] == ["cli"]


def test_report_belongs_to_the_sweep():
    # below verify a check returns a plain list of failure records
    tree = ast.parse((SRC / "verify.py").read_text())
    assert "Report" in [n.name for n in tree.body if isinstance(n, ast.ClassDef)]
    named = [p.stem for p in sorted(SRC.glob("*.py")) if "Report" in p.read_text()]
    assert named == ["verify"]


def test_the_only_exception_is_theorem_violation():
    # a refused division or z^2 rewrite is None, as arith.div_one_minus
    # returns it, and each caller decides whether that raises or records
    found = []
    for module in MODULES:
        mod = importlib.import_module(f"lmov.{module}")
        found += [name for name, obj in vars(mod).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == mod.__name__]
    assert found == ["TheoremViolation"]


def qa_names(module: str) -> set:
    """The names that ``module`` imports from ``lmov.qa``."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "qa"
            for a in node.names}


def test_genus0_runs_on_packed_int_rows():
    # the mirror-curve kernel is an int a-row: no LaurentQA in genus0
    assert qa_names("genus0") == {"_pack", "_unpack", "_packed_geometric", "_width"}


def test_onehole_packs_through_the_qa_codec():
    # the colored sum and its certificate run on packed int rows, which
    # only qa writes and reads
    assert qa_names("onehole") == {
        "LaurentQA", "PochFrac", "PochRow", "Z_SQUARED", "exact_div", "one_minus_q_prod",
        "quantum_int", "to_z_basis", "_nonneg_mul", "_pack", "_packed_geometric", "_width",
        "_z2_row",
    }


def test_gwdt_runs_on_packed_rows():
    # every a-free series is a list of PochRows, whose products qa packs and
    # reads: no LaurentQA, PochFrac or exact_div in gwdt, whose one other
    # name from qa is the row of (q^2;q)_(m-1) behind each rebuilt tower
    assert qa_names("gwdt") == {"PochRow", "_one_minus_q_row"}


def test_dot_is_the_only_sum_of_laurent_polynomials():
    for cls in (LaurentQA, PochRow):
        assert not {"__add__", "__sub__", "__neg__", "__pow__"} & set(vars(cls)), cls


def test_the_cli_starts_without_dataclasses_or_inspect():
    # every request pays for its imports: inspect alone pulls in ast, dis,
    # tokenize and linecache
    code = "import sys, lmov.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout == "[]\n"


def test_a_table_request_loads_no_argument_parser():
    # the command line is read from cli.COMMANDS: no request pays for
    # argparse, or for the gettext and locale modules it loads
    code = ("import sys, lmov.cli; names = {'argparse', 'gettext', 'locale'}; "
            "seen = [sorted(names & set(sys.modules))]; "
            "lmov.cli.main(['disc', '--tau', '1', '--max-m', '2']); "
            "seen.append(sorted(names & set(sys.modules))); print(seen, file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stderr == "[[], []]\n"
    assert '"table": "disc"' in run.stdout


def test_a_csv_table_request_loads_no_csv_module():
    # lmov writes CSV by its own field rule: no request pays for csv.writer
    code = ("import sys, lmov.cli; names = {'csv', '_csv'}; "
            "lmov.cli.main(['onehole', '--tau', '1', '--max-m', '2', '--format', 'csv']); "
            "print(sorted(names & set(sys.modules)), file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stderr == "[]\n"
    assert run.stdout.startswith("m,tau,g,two_q,n\n1,1,")


def test_main_freezes_the_heap_and_import_does_not():
    # the freeze belongs to a process that runs one command line: importing
    # lmov.cli leaves its importer's collector as it was
    code = ("import gc, sys, lmov.cli; counts = [gc.get_freeze_count()]; "
            "lmov.cli.main(['disc', '--tau', '1', '--max-m', '2']); "
            "counts.append(gc.get_freeze_count()); print(counts, file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    before, after = ast.literal_eval(run.stderr)
    assert before == 0
    assert after > 0


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_definitions(src) -> list:
    """Module-level functions and classes of the package, and the methods
    of its classes whose names do not start with ``__``, that no code of
    the package references outside their own definition.  A method counts
    as referenced when any attribute of its name is read: the check goes
    by name, since ``ast`` does not know the type behind an attribute."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defs = []
    for stem, tree in trees.items():
        for top in tree.body:
            if isinstance(top, DEFS):
                defs.append(f"{stem}.{top.name}")
            if isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, DEFS[:2]) and not node.name.startswith("__"):
                        defs.append(f"{stem}.{top.name}.{node.name}")
    tracked, used = {d.rsplit(".", 1)[1] for d in defs}, set()

    def visit(node, owners):
        # owners: the tracked definitions that enclose node
        if isinstance(node, DEFS) and node.name in tracked:
            owners = owners | {node.name}
        elif isinstance(node, ast.Name) and node.id not in owners:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in owners:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    for tree in trees.values():
        visit(tree, frozenset())
    return [d for d in defs if d.rsplit(".", 1)[1] not in used]


def test_unused_definitions_flags_methods_by_name(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    def kept(self):\n        return 1\n"
        "    def mirror(self):\n        return self.mirror()\n"
        "    def __hash__(self):\n        return 0\n\n\n"
        "def f():\n    return A().kept()\n"
    )
    assert unused_definitions(tmp_path) == ["mod.A.mirror", "mod.f"]


def test_every_definition_is_used_by_the_package():
    # test-only helpers belong in tests/, not in src/
    assert unused_definitions(SRC) == []
