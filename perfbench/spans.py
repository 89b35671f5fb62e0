"""In-memory call tracing for the crystalchords benchmark.

The wrappers live here, not in the package: :func:`install` replaces every
binding of each traced function inside ``crystalchords`` with a wrapper.
That covers the three ways the package holds a function:

* a module global, including the copies made by ``from .x import f``;
* a value of a module-level dict (``virtual._INVERSES``);
* a default argument bound when the function was defined
  (``sieving.orbit_decomposition`` and ``sieving.csp_check`` take
  ``action=promote``).

A traced function is either *spanned* (calls, self time and, for some,
per-call durations) or *counted* (calls only, for helpers called millions
of times per pass).  Self time is a span's duration minus the durations of
the spans it directly contains, so recursion (``promote`` on a vacillating
tableau calls the oscillating ``promote``) and nesting (``chord_matrix``
calls ``promote``) are attributed once each.  Counted helpers have no span,
so their time is part of their caller's self time.

Pool workers forked by ``verify --jobs N`` inherit the wrappers but keep
their records; only the parent's calls are reported.
"""

from __future__ import annotations

import functools
import gc
import importlib
import pkgutil
import sys
import time
import types
from collections import defaultdict

# (module, function, metric name); chord_matrix is named per chord map tag
SPANNED = [
    ("crystals", "enumerate_zero", "crystals.enumerate_zero"),
    ("virtual", "iota_f_to_o", "virtual.iota"),
    ("virtual", "iota_v_to_o", "virtual.iota"),
    ("virtual", "iota_v_to_f", "virtual.iota"),
    ("virtual", "iota_f_to_o_inverse", "virtual.iota"),
    ("virtual", "iota_v_to_o_inverse", "virtual.iota"),
    ("virtual", "iota_v_to_f_inverse", "virtual.iota"),
    ("virtual", "iota_inverse", "virtual.iota"),
    ("promotion", "promote", "promotion.promote"),
    ("promotion", "chord_matrix", "promotion.chord_matrix"),
    ("growth", "growth_matrix", "growth.growth_matrix"),
    ("growth", "growth_inverse", "growth.growth_inverse"),
    ("sieving", "energy", "sieving.energy"),
    ("sieving", "orbit_decomposition", "sieving.orbit_decomposition"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "_pool_map", "cli.pool_map"),
]

COUNTED = [
    ("crystals", "validate_tableau", "crystals.validate_tableau"),
    ("weights", "pad", "weights.pad"),
    ("weights", "trim", "weights.trim"),
    ("weights", "partition", "weights.partition"),
    ("weights", "dominant_representative", "weights.dominant_representative"),
    ("growth", "cell_backward", "growth.cell_backward"),
    ("growth", "cell_forward", "growth.cell_forward"),
]

# spans whose per-call durations are kept for percentiles
KEEP_DURATIONS = ("promotion.chord_matrix.", "growth.growth_matrix", "cli.verify")


class Tracer:
    """Calls, self time and durations per traced name, cleared between passes."""

    def __init__(self) -> None:
        self._open: list[float] = []  # child time of each open span
        self.clear()

    def clear(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.pool_wait_s = 0.0

    def spanned(self, name: str, fn):
        open_spans = self._open
        clock = time.perf_counter
        per_tag = name == "promotion.chord_matrix"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dur
                label = f"{name}.{args[0] if args else kwargs.get('tag')}" if per_tag else name
                self.calls[label] += 1
                self.self_s[label] += dur - child
                if label.startswith(KEEP_DURATIONS):
                    self.durations[label].append(dur)
                if name == "cli.pool_map" and _jobs(args, kwargs) > 1:
                    self.pool_wait_s += dur

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _jobs(args, kwargs) -> int:
    # cli._pool_map(fn, items, jobs): jobs <= 1 runs the checks in the parent
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    return jobs if isinstance(jobs, int) else 1


def _package_modules() -> list[types.ModuleType]:
    """Every submodule of the package, imported now so that all are wrapped."""
    import crystalchords

    for info in pkgutil.iter_modules(crystalchords.__path__, "crystalchords."):
        importlib.import_module(info.name)
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "crystalchords" or name.startswith("crystalchords."))
    ]


def _package_functions(modules) -> list[types.FunctionType]:
    """Every function defined in the package, methods included."""
    found: dict[int, types.FunctionType] = {}
    for m in modules:
        for value in vars(m).values():
            candidates = [value]
            if isinstance(value, type):
                candidates = list(vars(value).values())
            for f in candidates:
                if isinstance(f, types.FunctionType) and f.__module__.startswith("crystalchords"):
                    found[id(f)] = f
    return list(found.values())


def _rebind(modules, functions, original, wrapper) -> None:
    """Replace every package reference to ``original`` by ``wrapper``."""
    for m in modules:
        for key, value in list(vars(m).items()):
            if value is original:
                setattr(m, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper
    for f in functions:
        if f.__defaults__ and any(d is original for d in f.__defaults__):
            f.__defaults__ = tuple(wrapper if d is original else d for d in f.__defaults__)
        if f.__kwdefaults__ and any(d is original for d in f.__kwdefaults__.values()):
            f.__kwdefaults__ = {
                k: wrapper if d is original else d for k, d in f.__kwdefaults__.items()
            }


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function in the loaded package.

    Returns warnings for targets that no longer exist and for references to
    an original function that the rebinding could not reach (a list, a
    closure or another container it does not scan): calls through those
    would go untraced.
    """
    modules = _package_modules()
    functions = _package_functions(modules)
    by_name = {m.__name__: m for m in modules}
    warnings = []
    wrappers = []
    for spec, make in ((SPANNED, tracer.spanned), (COUNTED, tracer.counted)):
        for module, attr, name in spec:
            original = getattr(by_name.get(f"crystalchords.{module}"), attr, None)
            if not isinstance(original, types.FunctionType):
                warnings.append(f"crystalchords.{module}.{attr} not found; not traced")
                continue
            wrapper = make(name, original)
            _rebind(modules, functions, original, wrapper)
            wrappers.append((f"{module}.{attr}", wrapper))
    del functions, original  # only the wrappers may still hold the originals
    gc.collect()
    for label, wrapper in wrappers:
        own = [wrapper.__dict__, *(wrapper.__closure__ or ())]
        for ref in gc.get_referrers(wrapper.__wrapped__):
            if any(ref is x for x in own) or isinstance(ref, types.FrameType):
                continue
            warnings.append(f"{label} is still held by a {type(ref).__name__}")
    return warnings
