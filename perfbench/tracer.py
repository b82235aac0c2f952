"""Per-layer tracing of matsemi from outside the package.

``Tracer.install`` replaces public functions of the ``matsemi`` modules with
wrappers. ``from .gf import mat_rank`` copies a binding into the importing
module, so every module namespace that binds the original function object
gets the wrapper. Coarse entry points get spans, which record self time and
calls; hot leaves that only need a count get a bare counter. Self time is a
span's duration minus the durations of the spans it encloses.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import time
from collections import Counter, defaultdict

# (module, function, how): "span" records self time and calls, "count"
# records calls only.
TRACED = (
    ("gf", "enumerate_matrices", "span"),
    ("engine", "product_grid", "span"),
    ("engine", "ambient", "span"),
    ("engine", "equiv_closure", "span"),
    ("engine", "closure", "span"),
    ("engine", "closure_ids", "span"),
    ("engine", "enumerate_subsemigroups", "span"),
    ("engine", "build_table", "span"),
    ("engine", "power_sets", "span"),
    ("conjugacy", "sg_classes", "span"),
    ("conjugacy", "class_key", "span"),
    ("conjugacy", "core_chain", "span"),
    ("conjugacy", "semigroup_conjugate", "span"),
    ("flags", "flags_with_signature", "span"),
    ("flags", "all_flags", "span"),
    ("flags", "flag_make", "count"),
    ("flags", "lowers_flag", "span"),
    ("flags", "flag_semigroup", "span"),
    ("flags", "is_k_maximal", "span"),
    ("flags", "consolidates", "span"),
    ("nilclass", "nil_context", "span"),
    ("nilclass", "fingerprint", "span"),
    ("nilclass", "iso_construct", "span"),
    ("nilclass", "prec", "count"),
    ("nilclass", "ll", "count"),
    ("isolated", "enumerate_isolated", "span"),
    ("isolated", "is_completely_isolated", "span"),
    ("verify", "criterion_04", "span"),
    ("verify", "criterion_05", "span"),
    ("verify", "criterion_06", "span"),
    ("verify", "criterion_09", "span"),
    ("cli", "run_command", "span"),
)

# lru_cache'd functions whose cache_info() the trace reads.
CACHED = (
    ("gf", "invariant_factors"),
    ("gf", "mat_rank"),
    ("gf", "mat_kernel"),
    ("gf", "mat_image"),
    ("conjugacy", "core_decomposition"),
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _sg_classes_name(args, kwargs):
    method = args[2] if len(args) > 2 else kwargs.get("method", "theorem")
    return f"conjugacy.sg_classes.{method}"


# Span names chosen by a call's arguments.
_NAMES = {"conjugacy.sg_classes": _sg_classes_name}

# Work counts taken from a call's arguments or result: span -> (counter, how).
_WORK = {
    "engine.product_grid": (
        "engine.product_grid.entries",
        lambda args, kwargs, result: len(_arg(args, kwargs, 0, "elements")) ** 2,
    ),
    "engine.equiv_closure": (
        "engine.equiv_closure.pairs",
        lambda args, kwargs, result: len(_arg(args, kwargs, 1, "pairs")),
    ),
    "cli.run_command": ("cli.report_bytes", lambda args, kwargs, result: len(result[0].encode())),
}
WORK_COUNTS = tuple(counter for counter, _ in _WORK.values())


class Tracer:
    """Spans, call counts and work counts for one job; ``clock`` returns
    seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.work: Counter[str] = Counter()
        self.gc_s = 0.0
        self.gc_collections = 0
        self._children: list[float] = []  # enclosed span time, one per open span
        self._gc_t0 = 0.0
        self._caches: dict[str, object] = {}

    # -- wrappers -------------------------------------------------------

    def _open(self):
        self._children.append(0.0)
        return self.clock()

    def _close(self, name: str, t0: float):
        d = self.clock() - t0
        self.self_s[name] += d - self._children.pop()
        if self._children:
            self._children[-1] += d

    def span(self, name: str, fn):
        """``fn`` wrapped in a span named ``name``; a generator function
        is timed across its resumptions only."""
        calls, work = self.calls, self.work
        name_of = _NAMES.get(name)
        work_key, work_of = _WORK.get(name, (None, None))

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    t0 = self._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, t0)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            calls[label] += 1
            t0 = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(label, t0)
            if work_of:
                work[work_key] += work_of(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = self.clock()
        else:
            self.gc_s += self.clock() - self._gc_t0
            self.gc_collections += 1

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every traced function in every ``matsemi`` namespace that
        binds it, and start counting garbage collections."""
        mods = [m for k, m in list(sys.modules.items()) if k == "matsemi" or k.startswith("matsemi.")]
        for mod_name, fn_name, how in TRACED:
            original = getattr(sys.modules[f"matsemi.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapped = self.span(name, original) if how == "span" else self.counter(name, original)
            for cache_attr in ("cache_info", "cache_clear"):
                if hasattr(original, cache_attr):
                    setattr(wrapped, cache_attr, getattr(original, cache_attr))
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
        for mod_name, fn_name in CACHED:
            self._caches[f"{mod_name}.{fn_name}"] = getattr(sys.modules[f"matsemi.{mod_name}"], fn_name)
        gc.callbacks.append(self._gc)

    def uninstall(self):
        if self._gc in gc.callbacks:
            gc.callbacks.remove(self._gc)

    def snapshot(self) -> dict:
        """What one job recorded, in JSON-ready form."""
        caches = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
        return {
            "self_ms": {k: v * 1000.0 for k, v in self.self_s.items()},
            "calls": dict(self.calls),
            "work": dict(self.work),
            "caches": caches,
            "gc_ms": self.gc_s * 1000.0,
            "gc_collections": self.gc_collections,
        }
