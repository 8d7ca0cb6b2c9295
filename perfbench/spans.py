"""Span tracing around the public calls of each ``kinfp`` layer.

Wrappers are installed from the benchmark only: nothing under ``src/`` knows
about them.  Each target is patched where it is defined (module attribute or
class attribute) and on every ``kinfp`` module that imported the same object
by name, so ``from .fpsolver import solve`` call sites are traced too.

A span is ``(name, start, end, parent, op)``.  Calls made ~10^5 times per op
(targets marked hot) keep no span of their own; they are aggregated in memory
per ``(name, parent name)``.  Self time is a span's duration minus the time
its child spans cover, tracked exactly with a call stack because the
benchmark is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time

import numpy as np

LAYERS = ("geometry", "inkspots", "fpsolver", "fields", "kolmogorov",
          "logtransform", "harness", "cli")

#: The kinds one cli-all pass runs: every kind of ``kinfp.cli`` but "all"
#: and "holder".  ``holder`` raises ValueError for about half of all seeds,
#: and a benchmark op must not fail, so cli-all runs it outside the timed
#: passes and reports its crashes apart (``workloads.CliAll.notes``).
CLI_KINDS = ("geometry-check", "kernel-check", "solve", "weak-poincare",
             "pop", "minima-measure", "pop-large-times", "weak-harnack",
             "harnack", "inkspots")


def _result_size(args, kwargs, result):
    return {"points": np.size(result)}


def _dense_scan(args, kwargs, result):
    E = args[0]
    radii = kwargs.get("radii", args[2] if len(args) > 2 else None)
    if radii is None:
        from kinfp.inkspots import _default_radii
        radii = _default_radii(E.grid)
    # the scan stops before its first radius when E is empty
    scanned = E.mask.size * len(radii) if E.mask.any() else 0
    return {"candidates": scanned, "found": len(result)}


def _mask_cells(args, kwargs, result):
    return {"cells": np.size(args[0])}


def _solve_counts(args, kwargs, result):
    return {"cell_steps": result.values.size,
            "min_value": float(np.min(result.values))}


def _coefficient_bytes(args, kwargs, result):
    return {"bytes": result.A.nbytes + result.B.nbytes + result.S.nbytes}


def _sample_points(args, kwargs, result):
    return {"points": result.values.size}


def _minus1_slices(args, kwargs, result):
    grid = args[0].grid
    return {"slices": grid.n_t * grid.n_x ** grid.d}


# "<module>.<attribute>" -> (stats reported, hot, counter).  A counter may
# give more stats than are reported (``found``, ``min_value``): those go to
# the results file only, because they measure outputs, not cost.  The metric
# name drops a trailing ".__init__" (construction is timed) or ".*" (every
# public method of the class, reported under one name).  Hot targets run
# ~10^5 times per op.
TARGETS = {
    "geometry.PhasePoint.__init__": (("calls", "self_s"), True, None),
    "geometry.group_product": (("calls", "self_s"), True, None),
    "geometry.stack_cylinders": (("calls", "self_s"), False, None),
    "geometry.check_stacking": (("self_s",), False, None),
    "geometry.cylinder_in_cylinder": (("calls", "self_s"), True, None),
    "geometry.Cylinder.contains": (("calls", "points", "self_s"), False,
                                   _result_size),
    "geometry.StackedCylinder.contains": (("points", "self_s"), False,
                                          _result_size),
    "geometry.BoxCylinder.contains": (("points", "self_s"), False,
                                      _result_size),
    "inkspots.generate_hypothesis_pair": (("self_s",), False, None),
    "inkspots.find_dense_cylinders": (
        ("calls", "self_s", "candidates"), False, _dense_scan),
    "inkspots.verify_inkspots": (("self_s",), False, None),
    "inkspots.mask_to_rle": (("cells", "self_s"), False, _mask_cells),
    "inkspots.rle_to_mask": (("self_s",), False, None),
    "fpsolver.solve": (("calls", "self_s", "cell_steps"), False,
                       _solve_counts),
    "fpsolver.SolverConfig.__init__": (("self_s",), False, None),
    "fpsolver.weak_residual": (("self_s",), False, None),
    "fields.make_coefficients": (("calls", "self_s", "bytes"), False,
                                 _coefficient_bytes),
    "fields.CoefficientField.validate": (("self_s",), False, None),
    "fields.Grid.sample": (("points", "self_s"), False, _sample_points),
    "fields.h_minus1_norm": (("calls", "slices", "self_s"), False,
                             _minus1_slices),
    "kolmogorov.solve_cauchy": (("calls", "self_s"), False, None),
    "kolmogorov.localization_bound": (("self_s",), False, None),
    "kolmogorov.CutoffFunction.*": (("calls", "self_s"), False, None),
    "kolmogorov.log_kernel_eval": (("calls", "points", "self_s"), False,
                                   _result_size),
    "kolmogorov.theta0_parameters": (("self_s",), False, None),
    "logtransform.log_transform": (("self_s",), False, None),
    "logtransform.energy_estimate_check": (("self_s",), False, None),
    "harness.ExperimentEnsemble.member": (("self_s",), False, None),
    "harness.sample_on_box": (("calls", "points"), False, _sample_points),
    "harness.verify_weak_harnack": (("calls", "self_s"), False, None),
    "harness.verify_weak_poincare": (("self_s",), False, None),
    "harness.verify_expansion_of_positivity": (("self_s",), False, None),
    "harness.verify_minima_measure": (("self_s",), False, None),
    "harness.verify_pop_large_times": (("self_s",), False, None),
    "harness.verify_harnack": (("self_s",), False, None),
    "cli.run": (("self_s",), False, None),
}

_MODULES = ("geometry", "fields", "fpsolver", "kolmogorov", "logtransform",
            "harness", "inkspots", "report", "cli")

_UNITS = {"self_s": "s", "bytes": "B"}  # the rest: count


def _metric_prefix(target: str) -> str:
    return target.removesuffix(".__init__").removesuffix(".*")


#: Every metric the traced mode prints, with its unit.  Counts and times are
#: per op (totals divided by the op count).  A layer a workload never calls
#: reports 0.
PER_LAYER = (
    [(f"{_metric_prefix(t)}.{s}", _UNITS.get(s, "count"))
     for t, (stats, _, _) in TARGETS.items() for s in stats]
    + [(f"cli.run.{kind}.s", "s") for kind in CLI_KINDS]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.wall_s", "s")]
)


class Tracer:
    """Span recorder.  Create one, ``install()`` it, run ops inside
    ``op(op_id)``, then ``uninstall()``."""

    def __init__(self):
        self.spans: list[tuple] = []          # (name, start, end, parent, op)
        self.hot: dict[tuple, list] = {}      # (name, parent name) -> [n, total, self]
        self.stats: dict[str, list] = {}      # name -> [n, total, self]
        self.counts: dict[str, float] = {}    # "name.stat" -> total
        self.minima: dict[str, float] = {}    # "name.stat" -> minimum
        self._stack: list[list] = []          # [child time, span id, name]
        self._op = None
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _call(self, name, fn, hot, counter, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        if hot:
            frame = [0.0, parent[1] if parent else None, name]
        else:
            frame = [0.0, len(self.spans), name]
            self.spans.append(None)  # reserve the id; filled on exit
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[0] += dur
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[0]
            if hot:
                key = (name, parent[2] if parent else None)
                agg = self.hot.setdefault(key, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
            else:
                self.spans[frame[1]] = (name, t0, t1,
                                        parent[1] if parent else None,
                                        self._op)
        if counter is not None:
            for stat, value in counter(args, kwargs, result).items():
                key = f"{name}.{stat}"
                if stat.startswith("min_"):
                    self.minima[key] = min(self.minima.get(key, math.inf),
                                           value)
                else:
                    self.counts[key] = self.counts.get(key, 0) + value
        return result

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span ``op`` that every layer span of one benchmark op nests in."""
        frame = [0.0, len(self.spans), "op"]
        self.spans.append(None)
        self._stack.append(frame)
        self._op = op_id
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[frame[1]] = ("op", t0, t1, None, op_id)
            self._op = None

    # -- installation --------------------------------------------------------

    def _wrap(self, name, fn, hot, counter):
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, hot, counter, args, kwargs)

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        mods = {m: importlib.import_module(f"kinfp.{m}") for m in _MODULES}
        scanned = [importlib.import_module("kinfp"), *mods.values()]
        for target, (_, hot, counter) in TARGETS.items():
            name = _metric_prefix(target)
            mod, attr = target.split(".", 1)
            home = mods[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                meths = ([m for m, v in vars(cls).items()
                          if callable(v) and not m.startswith("_")]
                         if meth == "*" else [meth])
                for m in meths:
                    self._patch(cls, m, self._wrap(name, vars(cls)[m], hot,
                                                   counter))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original, hot, counter)
            for other in scanned:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapped)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, n_ops: int, wall_s: float, kind_seconds: dict) -> dict:
        """Per-op layer metrics, keyed by the names in ``PER_LAYER``;
        ``wall_s`` is the total over the ``n_ops`` ops."""
        raw = dict(self.counts)
        for name, (calls, _total, self_s) in self.stats.items():
            raw[f"{name}.calls"] = calls
            raw[f"{name}.self_s"] = self_s
        for layer in LAYERS:
            raw[f"layer.{layer}.self_s"] = sum(
                st[2] for name, st in self.stats.items()
                if name.split(".")[0] == layer)
        for kind, seconds in kind_seconds.items():
            raw[f"cli.run.{kind}.s"] = seconds
        raw["trace.wall_s"] = wall_s
        return {name: {"value": raw.get(name, 0) / n_ops, "unit": unit}
                for name, unit in PER_LAYER}
