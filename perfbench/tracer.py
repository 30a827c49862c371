"""Spans around calls into qmemory's public functions, recorded from outside.

Nothing in the library is changed: :meth:`Tracer.install` replaces each traced
function in every module namespace that binds it with a wrapper that records
a span (name, start, end, parent) and, for some functions, two work counts
computed from the call's arguments and result.  Rebinding only the defining
module would let cross-module calls escape (``cli`` calls ``classify_dynamics``
through its own globals, ``nonmarkov`` calls ``superoperator`` through its
own).  Spans stay in flat in-memory arrays until :meth:`Tracer.save` writes
them out when the run ends.

This module imports neither numpy nor qmemory at load time, so that the child
entry script can time ``import qmemory`` on its own.
"""
from __future__ import annotations

import functools
import math
import sys
import threading
import time
from array import array

# Public functions whose spans the traced run records, by module.
TRACED = {
    "cli": ("main", "cmd_trace_distance", "cmd_sweep", "cmd_blp", "cmd_entanglement",
            "cmd_validate"),
    "nonmarkov": ("blp_measure", "classify_dynamics", "blp_measure_maximized",
                  "trace_distance_closed_form", "trace_distance_rate"),
    "dynamics": ("integrate_master", "superoperator", "propagate_xstate_exact",
                 "population_from_excited", "population_from_ground", "lindblad_rhs"),
    "densmat": ("validate_density_matrix", "hermitian_eigenvalues", "partial_trace_qubit2",
                "von_neumann_entropy", "trace_distance"),
    "entangle": ("entanglement_entropy", "steady_entanglement"),
    "validate": ("run_validation",),
}

# Real floating-point operations of the dominant matrix products (complex
# multiply-add = 8).  One RK4 step applies the 16x16 generator four times; one
# sampled point of a product-pair curve maps 16 modes to the 16-entry state and
# partial-traces it to 4 entries.  Exponentials and vector updates are omitted.
RK4_FLOPS_PER_STEP = 4 * 8 * 16 * 16
FLOPS_PER_CURVE_POINT = 8 * 16 * 16 + 4 * 4 * 16


def _bound(fn, args, kwargs):
    import inspect

    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _rate_counts(fn, args, kwargs, result):
    """(1 if scalar call, number of array points)."""
    t = args[1] if len(args) > 1 else kwargs["t"]
    size = getattr(t, "size", None)
    if size is None or getattr(t, "ndim", 1) == 0:
        return 1, 0
    return 0, int(size)


def _blp_counts(fn, args, kwargs, result):
    """(scan-grid points, increase intervals)."""
    a = _bound(fn, args, kwargs)
    from qmemory import nonmarkov

    dt = a["dt"] if a["dt"] is not None else nonmarkov.default_scan_step(a["params"])
    t_max = a["t_max"] if a["t_max"] is not None else nonmarkov.default_truncation_time(
        a["params"])
    return math.ceil(t_max / dt) + 1, len(result.intervals)


def _maximize_counts(fn, args, kwargs, result):
    """(candidate pairs, sampled curve points over all pair curves)."""
    a = _bound(fn, args, kwargs)
    from qmemory import nonmarkov

    params, g = a["params"], a["grid_size"]
    dt = a["dt"] if a["dt"] is not None else nonmarkov.default_scan_step(params)
    t_max = a["t_max"] if a["t_max"] is not None else nonmarkov.default_truncation_time(params)
    candidates = g * g * (g * g - 1) // 2  # unordered state pairs; canonical counted once
    # Every pair but the analytic canonical one is sampled; a sampled winner
    # is sampled once more for refinement.
    curves = candidates - 1 + (result.pair_label != nonmarkov.CANONICAL_PAIR_LABEL)
    return candidates, curves * (math.ceil(t_max / dt) + 1)


def _integrate_counts(fn, args, kwargs, result):
    """(RK4 steps, samples); the step policy is read from the library."""
    a = _bound(fn, args, kwargs)
    from qmemory import dynamics

    params = a["params"]
    if a["max_step"] is None:
        h = dynamics.STEP_RESOLUTION / params.relaxation_rate
        if params.omega > 0.0:
            h = min(h, dynamics.STEP_RESOLUTION / params.omega)
    else:
        h = float(a["max_step"])
    times = result.times
    steps = sum(max(1, math.ceil(float(r - l) / h)) for l, r in zip(times[:-1], times[1:]))
    return steps, len(times)


def _entropy_counts(fn, args, kwargs, result):
    """(time points, 0)."""
    t = args[1] if len(args) > 1 else kwargs["t"]
    return int(getattr(t, "size", 1)), 0


def _validation_counts(fn, args, kwargs, result):
    """(failed checks, 1 for a coarse-step control run)."""
    a = _bound(fn, args, kwargs)
    return sum(1 for r in result if not r.passed), int(a["max_step"] is not None)


COUNTS = {
    "nonmarkov.trace_distance_rate": _rate_counts,
    "nonmarkov.blp_measure": _blp_counts,
    "nonmarkov.blp_measure_maximized": _maximize_counts,
    "dynamics.integrate_master": _integrate_counts,
    "entangle.entanglement_entropy": _entropy_counts,
    "validate.run_validation": _validation_counts,
}


class Tracer:
    """In-memory span store; one per process.

    Each thread keeps its own stack of open spans.  A span opened on a worker
    thread with no open span of its own is parented to the innermost open
    span of the thread that created the tracer, which is blocked waiting for
    the worker (``cmd_sweep`` maps family members over a thread pool).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.a = array("q")
        self.b = array("q")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        stack = self._stack()
        outer = stack or self._main_stack
        with self._lock:
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(outer[-1] if outer else -1)
            self.a.append(0)
            self.b.append(0)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def set_counts(self, idx: int, a: int, b: int) -> None:
        self.a[idx] = a
        self.b[idx] = b

    # --- wrapping the library ---------------------------------------------

    def _wrap(self, qualname: str, fn):
        name_id = self.name_id(qualname)
        counts = COUNTS.get(qualname)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hits = cache_info().hits if cache_info else 0
            idx = self.begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if counts is not None:
                self.set_counts(idx, *counts(fn, args, kwargs, result))
            elif cache_info is not None:
                hit = int(cache_info().hits > hits)
                self.set_counts(idx, hit, 1 - hit)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a qmemory module binds it."""
        import qmemory

        modules = [qmemory] + [sys.modules[f"qmemory.{mod}"] for mod in TRACED]
        for mod, funcs in TRACED.items():
            defining = sys.modules[f"qmemory.{mod}"]
            for func in funcs:
                original = getattr(defining, func)
                wrapper = self._wrap(f"{mod}.{func}", original)
                for namespace in modules:
                    if getattr(namespace, func, None) is original:
                        self._patched.append((namespace, func, original))
                        setattr(namespace, func, wrapper)

    def uninstall(self) -> None:
        for namespace, func, original in reversed(self._patched):
            setattr(namespace, func, original)
        self._patched.clear()

    # --- storage ----------------------------------------------------------

    def columns(self) -> dict:
        import numpy as np

        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "a": np.frombuffer(self.a, dtype=np.int64).copy(),
            "b": np.frombuffer(self.b, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(path, **self.columns())

    def adopt(self, path: str, parent_idx: int) -> None:
        """Append the spans a child process saved, rooted under ``parent_idx``."""
        import numpy as np

        with np.load(path) as data:
            remap = np.array([self.name_id(str(n)) for n in data["names"]], dtype=np.int64)
            parent = data["parent"] + len(self.start)
            parent[data["parent"] < 0] = parent_idx
            self.name.extend(remap[data["name"]].tolist())
            self.parent.extend(parent.tolist())
            for col in ("start", "end", "a", "b"):
                getattr(self, col).extend(data[col].tolist())


def _covered(cols: dict, dur):
    """Per span: the length of its interval that its direct children cover."""
    import numpy as np

    covered = np.zeros_like(dur)
    kids = np.flatnonzero(cols["parent"] >= 0)
    np.add.at(covered, cols["parent"][kids], dur[kids])
    # Children on parallel threads overlap; measure their union instead.
    order = kids[np.lexsort((cols["start"][kids], cols["parent"][kids]))]
    par = cols["parent"][order]
    overlap = (par[1:] == par[:-1]) & (cols["start"][order][1:] < cols["end"][order][:-1])
    for p in np.unique(par[1:][overlap]).tolist():
        reach, total = -math.inf, 0.0
        for i in order[par == p].tolist():
            lo, hi = max(cols["start"][i], reach), cols["end"][i]
            if hi > lo:
                total += hi - lo
                reach = hi
        covered[p] = total
    return covered


def layer_totals(cols: dict) -> dict:
    """Per span name: calls, busy and self seconds, and summed counts a and b.

    Self time is a span's duration minus the part of it its children cover.
    """
    import numpy as np

    dur = cols["end"] - cols["start"]
    own = dur - _covered(cols, dur)
    totals = {}
    for i, name in enumerate(cols["names"].tolist()):
        sel = cols["name"] == i
        totals[name] = {
            "calls": int(np.count_nonzero(sel)),
            "busy_s": float(dur[sel].sum()),
            "self_s": float(own[sel].sum()),
            "a": int(cols["a"][sel].sum()),
            "b": int(cols["b"][sel].sum()),
        }
    return totals
