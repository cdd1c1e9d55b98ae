"""Span tracer for mtlab, installed from outside the package.

`Tracer.install` replaces each public function in `TRACED` with a timing
wrapper.  The mtlab modules import each other's functions by name (for
example `maximize.py` does `from .radial import lp_norm_pow`), so the
wrapper is rebound under every name that refers to the original function
in every loaded `mtlab` module and in the package namespace; patching only
the defining module would miss most calls.  Modules imported after
`install` are not patched, so import `mtlab.cli` first when tracing the
command line.

A span records its name, start, end, parent span and thread id.  mtlab runs
`ThreadPoolExecutor`s in `maximize_d` and `run_sweep`; the executor name is
rebound in those modules to a subclass that hands the submitting thread's
current span to the worker as its parent, so pool work nests under the call
that started it.  A span's self time is its duration minus the part of it
covered by the union of its children's intervals (children on other threads
may overlap).

The dataclass validations of `RadialGrid` and `RadialProfile` are counted
and timed by wrapping their `__post_init__`, without spans: they run
thousands of times per solve and their time stays in the caller's self time.

Spans are kept in memory; `aggregate` reduces them to per-function calls,
self and total time plus the counters the benchmark reports.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

#: Public functions timed by the tracer, by defining module.
TRACED = {
    "radial": ("lp_norm_pow", "grad_norm_pow", "decreasing_rearrangement"),
    "functional": ("mt_integral",),
    "scaling": ("dilate", "solve_amplitude"),
    "maximize": ("functional_gradient", "project_to_constraint", "gn_ratio", "maximize_gn", "maximize_d"),
    "sweeps": ("run_sweep",),
    "bounds": ("bracket_alpha_star", "g_function_test"),
    "appendix": ("claim_ledger",),
}

#: Functions whose inclusive (total) time is reported next to self time.
WITH_TOTAL = (
    "maximize.maximize_gn",
    "maximize.maximize_d",
    "sweeps.run_sweep",
    "bounds.bracket_alpha_star",
    "appendix.claim_ledger",
)

#: Counters read off the return values of traced calls.
_OBSERVERS = {
    "maximize.maximize_d": ("maximize.iterations", lambda r: r.iterations),
    "maximize.maximize_gn": ("maximize.gn_iterations", lambda r: r.iterations),
    "sweeps.run_sweep": ("sweeps.cells", lambda r: len(r.rows)),
    "bounds.bracket_alpha_star": ("bounds.cells", lambda r: len(r.grid)),
}

COUNTERS = (
    "maximize.iterations",
    "maximize.gn_iterations",
    "sweeps.cells",
    "bounds.cells",
    "radial.RadialGrid.constructions",
    "radial.RadialProfile.constructions",
    "radial.validation_s",
)


class Tracer:
    """Collects spans and counters while `active`; see the module docstring."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []  # (id, parent id or 0, name, thread id, start, end)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, key: str, amount) -> None:
        with self._lock:
            self.counters[key] += amount

    def _wrap(self, name: str, fn):
        tracer = self
        observer = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, threading.get_ident(), start, end))
            if observer is not None:
                tracer._add(observer[0], observer[1](result))
            return result

        return wrapper

    def _wrap_validation(self, cls) -> None:
        tracer = self
        original = cls.__post_init__
        key = f"radial.{cls.__name__}.constructions"

        def __post_init__(obj):
            if not tracer.active:
                return original(obj)
            start = perf_counter()
            try:
                original(obj)
            finally:
                elapsed = perf_counter() - start
                with tracer._lock:
                    tracer.counters[key] += 1
                    tracer.counters["radial.validation_s"] += elapsed

        cls.__post_init__ = __post_init__
        self._restore.append((cls, "__post_init__", original))

    def _pool_class(self):
        tracer = self

        class TracedThreadPoolExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else 0

                def task(*a, **k):
                    local = tracer._local
                    saved = getattr(local, "stack", None)
                    local.stack = [parent] if parent else []
                    try:
                        return fn(*a, **k)
                    finally:
                        local.stack = saved

                return super().submit(task, *args, **kwargs)

        return TracedThreadPoolExecutor

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name in the loaded mtlab modules and start recording."""
        import mtlab  # noqa: F401  (loads every module but cli)

        modules = [m for n, m in list(sys.modules.items()) if n == "mtlab" or n.startswith("mtlab.")]
        wrappers = {}
        for short, names in TRACED.items():
            module = sys.modules[f"mtlab.{short}"]
            for n in names:
                fn = getattr(module, n)
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{n}", fn))
        pool = self._pool_class()
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    replacement = hit[1]
                elif value is ThreadPoolExecutor:
                    replacement = pool
                else:
                    continue
                setattr(module, attr, replacement)
                self._restore.append((module, attr, value))
        radial = sys.modules["mtlab.radial"]
        self._wrap_validation(radial.RadialGrid)
        self._wrap_validation(radial.RadialProfile)
        self.active = True

    def uninstall(self) -> None:
        """Stop recording and put every original name back."""
        self.active = False
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-function calls, self and total seconds, plus counters and sweep/bracket figures."""
        children = defaultdict(list)
        info = {}
        for sid, parent, name, tid, start, end in self.spans:
            info[sid] = (parent, name)
            if parent:
                children[parent].append((start, end))
        functions = {
            f"{short}.{n}": {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            for short, names in TRACED.items()
            for n in names
        }
        sweep_md_s = sweep_wall_s = 0.0
        sweep_threads: set = set()
        bracket_md_calls = 0
        for sid, parent, name, tid, start, end in self.spans:
            duration = end - start
            entry = functions[name]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - _covered(children.get(sid, ()), start, end)
            if name == "sweeps.run_sweep":
                sweep_wall_s += duration
            elif name == "maximize.maximize_d":
                ancestors = _ancestor_names(info, parent)
                if "sweeps.run_sweep" in ancestors:
                    sweep_md_s += duration
                    sweep_threads.add(tid)
                if "bounds.bracket_alpha_star" in ancestors:
                    bracket_md_calls += 1
        return {
            "functions": functions,
            "counters": dict(self.counters),
            "sweep_maximize_d_s": sweep_md_s,
            "sweep_wall_s": sweep_wall_s,
            "sweep_threads": len(sweep_threads),
            "bracket_maximize_d_calls": bracket_md_calls,
        }


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _ancestor_names(info: dict, sid: int) -> set:
    names = set()
    while sid in info:
        sid, name = info[sid]
        names.add(name)
    return names


def merge(aggregates: list[dict]) -> dict:
    """Combine the aggregates of several traced processes: sums, and the largest pool size."""
    out = Tracer().aggregate()
    for agg in aggregates:
        for name, entry in agg["functions"].items():
            for key, value in entry.items():
                out["functions"][name][key] += value
        for key, value in agg["counters"].items():
            out["counters"][key] += value
        for key in ("sweep_maximize_d_s", "sweep_wall_s", "bracket_maximize_d_calls"):
            out[key] += agg[key]
        out["sweep_threads"] = max(out["sweep_threads"], agg["sweep_threads"])
    return out
