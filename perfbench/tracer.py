"""Spans around the public calls of each lrfit module, recorded from outside.

:func:`install` replaces each traced function where the program looks it up
(``basis_value`` as imported into ``surface`` and ``fitting``, ``cg`` as
imported into ``fitting``, methods on their classes) with a wrapper that
times the call.  Calls outside a :meth:`Tracer.root` block pass straight
through.  Frequent leaf calls are aggregated into a count and a summed time
on their parent span instead of one span each.  A span's self time is its
duration minus the time of the calls made inside it.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter

# traced call -> (layer bucket, is a leaf)
TRACED = {
    "cli.cli_main": ("cli.self", False),
    "driver.run": ("driver.self", False),
    "strategy.build_plan": ("strategy.plan", False),
    "strategy.plan_to_segments": ("strategy.plan", False),
    "mesh.LRSpace.try_apply_segments": ("mesh.refine", False),
    "mesh.split_knots": ("mesh.refine", True),
    "mesh.LRSpace.find_offense": ("mesh.offense", True),
    "mesh.LRSpace.elements": ("mesh.elements", True),
    "mesh.LRSpace.cell_to_element": ("mesh.elements", True),
    "mesh.LRSpace.overlap_maps": ("mesh.elements", True),
    "mesh.LRSpace.coverage": ("mesh.elements", True),
    "surface.assign_points": ("surface.assign", False),
    "surface.Collocation.update": ("surface.colloc_update", False),
    "surface.Collocation.matrix": ("surface.matrix", False),
    "surface.Collocation.predict": ("surface.predict", False),
    "surface.compute_accuracy": ("surface.accuracy", False),
    "surface.LRSurface.evaluate": ("surface.evaluate", False),
    "basis.basis_value": ("basis.value", True),
    "basis.basis_deriv": ("basis.deriv", True),
    "fitting.lsq_fit": ("fitting.lsq", False),
    "fitting.mba_update": ("fitting.mba", False),
    "fitting.smoothing_matrix": ("fitting.smoothing", False),
    "fitting.cg": ("fitting.cg", False),
    "io.read_points": ("io.read_points", False),
    "io.write_report": ("io.write_report", False),
    "io.read_surface": ("io.read_surface", False),
    "io.write_surface": ("io.write_surface", False),
    "io.sample_raster": ("io.raster", False),
}

# module-level names to replace: (module, attribute) -> traced call
MODULE_SITES = {
    ("lrfit", "run"): "driver.run",
    ("lrfit.cli", "cli_main"): "cli.cli_main",
    ("lrfit.cli", "run"): "driver.run",
    ("lrfit.cli", "read_points"): "io.read_points",
    ("lrfit.cli", "read_surface"): "io.read_surface",
    ("lrfit.cli", "write_surface"): "io.write_surface",
    ("lrfit.cli", "write_report"): "io.write_report",
    ("lrfit.cli", "sample_raster"): "io.sample_raster",
    ("lrfit.driver", "run"): "driver.run",
    ("lrfit.driver", "build_plan"): "strategy.build_plan",
    ("lrfit.driver", "plan_to_segments"): "strategy.plan_to_segments",
    ("lrfit.driver", "assign_points"): "surface.assign_points",
    ("lrfit.driver", "compute_accuracy"): "surface.compute_accuracy",
    ("lrfit.mesh", "split_knots"): "mesh.split_knots",
    ("lrfit.surface", "assign_points"): "surface.assign_points",
    ("lrfit.surface", "compute_accuracy"): "surface.compute_accuracy",
    ("lrfit.surface", "basis_value"): "basis.basis_value",
    ("lrfit.fitting", "basis_value"): "basis.basis_value",
    ("lrfit.fitting", "basis_deriv"): "basis.basis_deriv",
    ("lrfit.fitting", "assign_points"): "surface.assign_points",
    ("lrfit.fitting", "lsq_fit"): "fitting.lsq_fit",
    ("lrfit.fitting", "mba_update"): "fitting.mba_update",
    ("lrfit.fitting", "smoothing_matrix"): "fitting.smoothing_matrix",
    ("lrfit.fitting", "cg"): "fitting.cg",
    ("lrfit.io", "read_points"): "io.read_points",
    ("lrfit.io", "read_surface"): "io.read_surface",
    ("lrfit.io", "write_surface"): "io.write_surface",
    ("lrfit.io", "write_report"): "io.write_report",
    ("lrfit.io", "sample_raster"): "io.sample_raster",
}

# methods to replace on their classes: (module, class, method) -> traced call
METHOD_SITES = {
    ("lrfit.mesh", "LRSpace", "try_apply_segments"): "mesh.LRSpace.try_apply_segments",
    ("lrfit.mesh", "LRSpace", "find_offense"): "mesh.LRSpace.find_offense",
    ("lrfit.mesh", "LRSpace", "elements"): "mesh.LRSpace.elements",
    ("lrfit.mesh", "LRSpace", "cell_to_element"): "mesh.LRSpace.cell_to_element",
    ("lrfit.mesh", "LRSpace", "overlap_maps"): "mesh.LRSpace.overlap_maps",
    ("lrfit.mesh", "LRSpace", "coverage"): "mesh.LRSpace.coverage",
    ("lrfit.surface", "Collocation", "update"): "surface.Collocation.update",
    ("lrfit.surface", "Collocation", "matrix"): "surface.Collocation.matrix",
    ("lrfit.surface", "Collocation", "predict"): "surface.Collocation.predict",
    ("lrfit.surface", "LRSurface", "evaluate"): "surface.LRSurface.evaluate",
}

# the time buckets every traced run reports, in seconds of self time
TIME_BUCKETS = sorted({bucket for bucket, _leaf in TRACED.values()})


class _Frame:
    """A call in progress: the span it records into (its parent's, for a
    leaf) and the time of the calls made inside it so far."""

    __slots__ = ("span", "child_s")

    def __init__(self, span):
        self.span = span
        self.child_s = 0.0


class Tracer:
    """In-memory span recorder with per-bucket self times and counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[_Frame] = []
        self.self_s = {b: 0.0 for b in TIME_BUCKETS}
        self.counts: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def root(self, name: str):
        """A benchmark phase; traced calls inside it are recorded."""
        span = self._open(name, None)
        frame = _Frame(span)
        self.stack.append(frame)
        t0 = _clock()
        try:
            yield
        finally:
            t1 = _clock()
            self.stack.pop()
            self._close(span, t0, t1, t1 - t0 - frame.child_s)
            self.count("trace.root_self_s", t1 - t0 - frame.child_s)

    def _open(self, name: str, parent) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": parent["id"] if parent is not None else None,
                "leaves": {}}
        self.spans.append(span)
        return span

    @staticmethod
    def _close(span: dict, t0: float, t1: float, self_s: float) -> None:
        span["start"] = t0
        span["end"] = t1
        span["self_s"] = self_s

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                rec = dict(span)
                rec["leaves"] = {k: {"count": n, "total_s": tot, "self_s": s}
                                 for k, (n, tot, s) in span["leaves"].items()}
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _cg_with_counter(tracer: Tracer, kwargs: dict) -> dict:
    """Pass ``cg`` a callback that counts its iterations."""
    user_cb = kwargs.get("callback")

    def callback(xk):
        tracer.count("fitting.cg_iters")
        if user_cb is not None:
            user_cb(xk)
    return dict(kwargs, callback=callback)


def _count_matrix(t, args, result):
    t.count("surface.matrix_builds")
    t.count("surface.matrix_nnz", result.nnz)


def _count_value(t, args, result):
    t.count("basis.value_calls")
    t.count("basis.value_points", result.size)


def _count_segments(t, args, result):
    t.count("mesh.segments_inserted", result[0])
    t.count("mesh.segments_dropped", result[1])


# traced call -> counters recorded from its arguments and result
COUNTERS = {
    "strategy.plan_to_segments":
        lambda t, a, r: t.count("strategy.segments_planned", len(r)),
    "mesh.LRSpace.try_apply_segments": _count_segments,
    "mesh.split_knots": lambda t, a, r: t.count("mesh.splits"),
    "mesh.LRSpace.find_offense": lambda t, a, r: t.count("mesh.offense_checks"),
    "surface.Collocation.matrix": _count_matrix,
    "surface.LRSurface.evaluate": lambda t, a, r: t.count("surface.evaluate_points", np.size(r)),
    "basis.basis_value": _count_value,
    "basis.basis_deriv": lambda t, a, r: t.count("basis.deriv_calls"),
    "io.read_points": lambda t, a, r: t.count("io.bytes_read", os.path.getsize(a[0])),
    "io.read_surface": lambda t, a, r: t.count("io.bytes_read", os.path.getsize(a[0])),
    "io.write_surface": lambda t, a, r: t.count("io.bytes_written", os.path.getsize(a[1])),
    "io.write_report": lambda t, a, r: t.count("io.bytes_written", os.path.getsize(a[1])),
    "io.sample_raster": lambda t, a, r: t.count("io.bytes_written", os.path.getsize(a[3])),
}


def _wrapper(tracer: Tracer, name: str, fn):
    """``fn`` timed as the traced call ``name`` inside a root, and called
    directly outside one."""
    bucket, leaf = TRACED[name]
    counter = COUNTERS.get(name)
    stack, self_s = tracer.stack, tracer.self_s

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not stack:
            return fn(*args, **kwargs)
        if name == "fitting.cg":
            kwargs = _cg_with_counter(tracer, kwargs)
        parent = stack[-1]
        frame = _Frame(parent.span if leaf else tracer._open(name, parent.span))
        stack.append(frame)
        t0 = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = _clock()
            stack.pop()
            dur = t1 - t0
            own = dur - frame.child_s
            parent.child_s += dur
            self_s[bucket] += own
            if leaf:
                agg = parent.span["leaves"].get(name)
                if agg is None:
                    agg = parent.span["leaves"][name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += own
            else:
                tracer._close(frame.span, t0, t1, own)
        if counter is not None:
            counter(tracer, args, result)
        return result
    return wrapper


def install(tracer: Tracer) -> None:
    """Replace every traced name where lrfit looks it up."""
    import importlib

    wrappers: dict[int, object] = {}

    def wrap(name, fn):
        if id(fn) not in wrappers:
            wrappers[id(fn)] = _wrapper(tracer, name, fn)
        return wrappers[id(fn)]

    for (mod_name, attr), name in MODULE_SITES.items():
        mod = importlib.import_module(mod_name)
        setattr(mod, attr, wrap(name, getattr(mod, attr)))
    for (mod_name, cls_name, attr), name in METHOD_SITES.items():
        cls = getattr(importlib.import_module(mod_name), cls_name)
        setattr(cls, attr, wrap(name, cls.__dict__[attr]))
