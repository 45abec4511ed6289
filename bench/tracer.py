"""Outside-in tracer for one benchmark child process.

The tracer measures the package from outside: it replaces public functions
with wrappers and adds no code to the package itself.  A function is wrapped
by rebinding every module global of the package that *is* the function
object, because modules reach each other's functions through their own
globals (``complexes`` imports ``homotopy_H as _local_H``; ``transfer`` calls
f, g and H through module-level names).  Rebinding one name would miss those
call sites.

Three kinds of wrapper are installed:

* timed kernels keep aggregate counters only (calls, self time), because the
  hot kernels run about 10^6 times and one record per call would dominate
  memory;
* battery-level functions keep one span each, with a parent id, on top of
  the aggregate counters;
* generators are counted on call only, since their work runs in the caller.

Self time is a call's duration minus the durations of the wrapped calls made
inside it.  The wrapper's own cost lands in the caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

PACKAGE = "simplicial_transfer"

# module -> functions timed with aggregate counters
TIMED = {
    "forms": ("wedge", "differential", "face_restrict", "integrate_top"),
    "cochains": ("project_f", "include_g", "elementary_form", "coboundary"),
    "contraction": ("h_operator", "s_operator", "homotopy_H"),
    "transfer": ("morphism_G", "transferred_m"),
    "tensorwords": ("shuffle",),
    "complexes": (
        "cup",
        "global_g",
        "global_f",
        "global_wedge",
        "global_H",
        "global_coboundary",
    ),
}

# module -> battery-level functions, recorded as spans and timed
SPANS = {
    "transfer": (
        "check_a_infinity",
        "check_morphism",
        "check_c_infinity",
        "check_unital",
        "interval_product_table",
        "p_polynomial_sequence",
    ),
    "contraction": ("check_contraction",),
    "complexes": ("check_whitney_conditions",),
}

# module -> generators, counted on call only
COUNTED = {"tensorwords": ("compositions",)}


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "out_terms")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.out_terms = 0


class Tracer:
    """Counters, spans and the installed wrappers of one traced run."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans: list[dict] = []
        self.bindings: dict[str, int] = {}
        # child time accumulated by each open timed call, innermost last
        self._child_time: list[float] = []
        self._open_spans: list[int] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every function named in TIMED, SPANS and COUNTED, and count
        ``Form`` constructions.  Call after the package is imported."""
        modules = package_modules()
        for table, make in ((TIMED, self._timed), (SPANS, self._span), (COUNTED, self._counted)):
            for mod_name, names in table.items():
                module = sys.modules[f"{PACKAGE}.{mod_name}"]
                for name in names:
                    key = f"{mod_name}.{name}"
                    target = getattr(module, name, None)
                    if target is None:
                        # a function a later change removed reads 0 calls
                        self._stat(key)
                        self.bindings[key] = 0
                        continue
                    self.bindings[key] = _rebind(modules, target, make(key, target))
        form_cls = sys.modules[f"{PACKAGE}.forms"].Form
        form_cls.__init__ = self._counted("forms.Form", form_cls.__init__)
        self.bindings["forms.Form"] = 1

    def _stat(self, key: str) -> _Stat:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = _Stat()
        return stat

    def _timed(self, key: str, fn):
        stat = self._stat(key)
        child_time = self._child_time
        clock = time.perf_counter
        measure_terms = key == "forms.wedge"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = child_time.pop()
                stat.calls += 1
                stat.self_s += duration - inner
                stat.total_s += duration
                if child_time:
                    child_time[-1] += duration
            if measure_terms:
                stat.out_terms += len(result.terms)
            return result

        return wrapper

    def _span(self, key: str, fn):
        timed = self._timed(key, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(key):
                return timed(*args, **kwargs)

        return wrapper

    def _counted(self, key: str, fn):
        stat = self._stat(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span whose parent is the innermost open span."""
        parent = self._open_spans[-1] if self._open_spans else None
        record = {"id": len(self.spans), "parent": parent, "name": name,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open_spans.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open_spans.pop()

    # -- read-out ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything the run recorded, as plain JSON-ready data."""
        counters = {}
        for key, stat in sorted(self.stats.items()):
            entry = {"calls": stat.calls, "self_s": stat.self_s, "total_s": stat.total_s}
            if key == "forms.wedge":
                entry["out_terms_mean"] = stat.out_terms / stat.calls if stat.calls else 0.0
            counters[key] = entry
        origin = self.spans[0]["start"] if self.spans else 0.0
        spans = [
            dict(span, start=span["start"] - origin, end=span["end"] - origin)
            for span in self.spans
        ]
        return {
            "counters": counters,
            "spans": spans,
            "caches": cache_stats(),
            "bindings": self.bindings,
        }


def package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _rebind(modules, target, wrapper) -> int:
    """Point every module global that is ``target`` at ``wrapper``."""
    count = 0
    for module in modules:
        namespace = vars(module)
        for name, value in list(namespace.items()):
            if value is target:
                namespace[name] = wrapper
                count += 1
    return count


def cache_stats() -> dict:
    """Hit ratio and size of every ``lru_cache`` in the package, found by
    scanning module attributes, so caches added later are reported too."""
    out = {}
    seen = set()
    for module in package_modules():
        for value in list(vars(module).values()):
            # a wrapper installed by the tracer hides the cache behind it
            if not hasattr(value, "cache_info"):
                value = getattr(value, "__wrapped__", None)
            info = getattr(value, "cache_info", None)
            if not callable(info) or id(value) in seen:
                continue
            seen.add(id(value))
            module_name = value.__module__.removeprefix(PACKAGE + ".")
            ci = info()
            lookups = ci.hits + ci.misses
            out[f"cache.{module_name}.{value.__qualname__}"] = {
                "hits": ci.hits,
                "misses": ci.misses,
                "hit_ratio": ci.hits / lookups if lookups else 0.0,
                "currsize": ci.currsize,
            }
    return dict(sorted(out.items()))
