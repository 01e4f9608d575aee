"""The import graph of the lmov package, read from its source with ``ast``.

Layers, bottom up: the leaves (``arith``, ``partitions``, ``io``), the
exact algebra (``qa``, ``series``), the four invariant modules, which never
import one another, and on top ``verify`` and ``cli``.  Every module-level
function and class is used by the package itself: what only the tests use
lives in ``tests/``.
"""

import ast
from pathlib import Path

import pytest

import lmov

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


def test_only_cli_imports_verify():
    assert [m for m in MODULES if "verify" in lmov_imports(m)] == ["cli"]


def unused_definitions(src) -> list:
    """Module-level functions and classes of the package that no code of
    the package references outside their own definition."""
    defs, used = [], set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = top.name
                defs.append(f"{path.stem}.{own}")
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return [d for d in defs if d.split(".")[1] not in used]


def test_every_definition_is_used_by_the_package():
    # test-only helpers belong in tests/, not in src/
    assert unused_definitions(SRC) == []
