"""Per-layer tracing of lmov from outside the library.

The tracer wraps the public functions of each lmov layer in place and
restores them afterwards; lmov itself carries no instrumentation.  A
function bound by name in several modules (``from .qa import exact_div``)
is replaced in every lmov module that holds it, and a method is replaced on
its class, so every call path goes through the wrapper.

Timed targets record one span per call: name, parent span, start and end.
Spans live in flat arrays in memory; ``summary`` derives per-function
``calls``, ``self_s`` (duration minus the time covered by child spans) and
``total_s`` (outermost calls only, so recursion is not counted twice).
Counted targets only count calls.  ``Fraction.__new__`` is counted by
``FractionCounter`` in a pass of its own, because wrapping every Fraction
construction inflates the times of everything above it.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from array import array
from fractions import Fraction

# module -> functions whose spans are recorded; "Class.method" names a method
TIMED = {
    "qa": (
        "LaurentQA.__mul__",
        "LaurentQA.__add__",
        "exact_div",
        "to_z_basis",
        "RationalQ.__init__",
        "RationalQ.__add__",
        "RationalQ.__mul__",
        "RationalQ.__truediv__",
        "RationalQA.__mul__",
    ),
    "series": (
        "Series1.__mul__",
        "series_log",
        "series_exp",
        "plethystic_log",
        "plethystic_exp",
        "series2_log",
    ),
    "onehole": ("cal_z_cleared", "z2_g_m", "lmov_one_hole", "g_mu_general", "verify_recursion"),
    "gwdt": ("ooguri_vafa", "dt_extract", "gwdt_check"),
    "genus0": ("disc_n", "annulus_c", "multihole_n", "disc_series_check"),
    "twist": ("b_minus", "b_plus"),
    "cli": ("main",),
    "io": ("json_bytes", "csv_bytes"),
}
# module -> functions whose calls are counted, without spans
COUNTED = {"arith": ("gaussian_binomial",), "partitions": ("mn_character",)}
PACKAGE = "lmov"
_MISSING = object()


def lmov_modules() -> dict:
    """Import and return every module of the lmov package, by short name."""
    pkg = importlib.import_module(PACKAGE)
    mods = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return mods


def verify_suites(mods: dict) -> tuple:
    """Names of the ``check_*`` suites defined in ``lmov.verify``."""
    verify = mods.get("verify")
    if verify is None:
        return ()
    return tuple(
        name
        for name, obj in vars(verify).items()
        if name.startswith("check_")
        and callable(obj)
        and getattr(obj, "__module__", None) == verify.__name__
    )


def caches(mods: dict) -> dict:
    """Every ``functools.cache``/``lru_cache`` function lmov defines, keyed
    ``<module>.<function>``."""
    out = {}
    for short, mod in mods.items():
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                out[f"{short}.{name}"] = obj
    return out


def cache_counts(found: dict) -> dict:
    return {key: fn.cache_info()[:2] for key, fn in found.items()}


class _Patches:
    """Attribute replacements that can be undone exactly."""

    def __init__(self):
        self._undo = []  # (owner, attribute, raw value in owner.__dict__ or _MISSING)

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


class Tracer:
    """Spans around the TIMED functions, call counts for COUNTED ones."""

    def __init__(self):
        self.names: list[str] = []  # span name by index
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}  # counted targets
        self.absent: dict[str, str] = {}  # target -> why it was not wrapped
        self._stack = [-1]
        self._patches = _Patches()

    # -- installation ---------------------------------------------------------

    def install(self, mods: dict) -> Tracer:
        timed = {m: list(fns) for m, fns in TIMED.items()}
        timed.setdefault("verify", []).extend(verify_suites(mods))
        for module, fns in timed.items():
            for qualname in fns:
                self._wrap(mods, module, qualname, self._timed)
        for module, fns in COUNTED.items():
            for qualname in fns:
                self._wrap(mods, module, qualname, self._counted)
        return self

    def restore(self) -> None:
        self._patches.restore()

    def _wrap(self, mods: dict, module: str, qualname: str, make) -> None:
        name = f"{module}.{qualname}"
        mod = mods.get(module)
        if mod is None:
            self.absent[name] = f"module {PACKAGE}.{module} does not exist"
            return
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            cls = getattr(mod, owner_name, None)
            if cls is None or attr not in vars(cls):
                self.absent[name] = f"{PACKAGE}.{module} defines no {qualname}"
                return
            self._patches.set(cls, attr, make(name, vars(cls)[attr]))
            return
        original = getattr(mod, attr, None)
        if original is None:
            self.absent[name] = f"{PACKAGE}.{module} defines no {attr}"
            return
        wrapper = make(name, original)
        for other in mods.values():  # every module that bound the name
            for bound, value in list(vars(other).items()):
                if value is original:
                    self._patches.set(other, bound, wrapper)

    def _timed(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(idx)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function ``calls``, ``self_s`` and ``total_s``."""
        n = len(self.span_name)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        covered = [0.0] * n
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                covered[p] += dur[i]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i in range(n):
            name = self.names[self.span_name[i]]
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - covered[i]
            if not self._has_ancestor(i, self.span_name[i]):
                rec["total_s"] += dur[i]
        for name, c in self.calls.items():
            out[name] = {"calls": c}
        return out

    def _has_ancestor(self, i: int, name_idx: int) -> bool:
        p = self.span_parent[i]
        while p >= 0:
            if self.span_name[p] == name_idx:
                return True
            p = self.span_parent[p]
        return False


class FractionCounter:
    """Counts ``fractions.Fraction.__new__`` calls while installed."""

    def __init__(self):
        self.calls = 0
        self._patches = _Patches()

    def install(self) -> FractionCounter:
        raw = vars(Fraction)["__new__"]
        new = raw.__func__ if isinstance(raw, staticmethod) else raw

        def counted_new(cls, *args, **kwargs):
            self.calls += 1
            return new(cls, *args, **kwargs)

        self._patches.set(Fraction, "__new__", staticmethod(counted_new))
        return self

    def restore(self) -> None:
        self._patches.restore()
