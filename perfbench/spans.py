"""Spans around calls into smalltime's public functions, installed from outside.

``Tracer.patched()`` replaces each traced function with a wrapper in every
``smalltime`` module that binds it (``minimizer`` imports ``solve_skeleton``
and ``sample_fbm`` by name, ``rde`` imports ``lift_grid_path`` and
``young_translate``, the package re-exports ``chen_mul`` ...), and wraps the
``IncrementGram`` methods on the class itself because ``asymptotics`` imports
the class inside its functions.  Leaving the context restores every binding,
so untraced repetitions in the same process run the original code.

Each wrapper records a span (name, start, end, parent) in flat in-memory
arrays and adds counts computed from the call's array sizes.  Self time is
a span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np


def _arg(args, kwargs, pos, key, default=None):
    """A call's argument by keyword or position."""
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _count_sample_fbm(args, kwargs, result):
    spec, paths = _arg(args, kwargs, 0, "spec"), int(_arg(args, kwargs, 1, "n_paths"))
    return {"paths": paths, "madds": paths * spec.M * spec.M * spec.dim}


def _count_noise(spec_pos):
    """Counter of an estimator's paths and inline dense-sampler multiply-adds."""
    def count(args, kwargs, result):
        spec = _arg(args, kwargs, spec_pos, "spec")
        paths = int(_arg(args, kwargs, 3, "n_samples"))
        return {"paths": paths, "noise_madds": paths * spec.M * spec.M * spec.dim}
    return count


def _count_solve_increments(args, kwargs, result):
    inc = np.shape(_arg(args, kwargs, 2, "increments"))
    refine = int(_arg(args, kwargs, 8, "refine", 1))
    return {"path_steps": int(np.prod(inc[:-1], dtype=np.int64)) * refine}


def _count_expansion_endpoints(args, kwargs, result):
    inc = np.shape(_arg(args, kwargs, 3, "w_increments"))
    return {"path_steps": int(inc[0]) * int(inc[1])}


def _count_solve_rde(args, kwargs, result):
    driver = _arg(args, kwargs, 2, "driver")
    return {"cells": driver.n_cells * int(_arg(args, kwargs, 4, "refine", 1))}


def _count_q_batch(args, kwargs, result):
    return {"matrices": int(np.shape(result)[0])}


# (module, attribute, span name); the span name's first part is the layer.
TRACED = (
    ("smalltime.fgauss", "IncrementGram.__init__", "fgauss.gram"),
    ("smalltime.fgauss", "IncrementGram.cholesky", "fgauss.cholesky"),
    ("smalltime.fgauss", "sample_fbm", "fgauss.sample_fbm"),
    ("smalltime.asymptotics", "estimate_density", "asymptotics.estimate_density"),
    ("smalltime.asymptotics", "leading_coefficient", "asymptotics.leading_coefficient"),
    ("smalltime.asymptotics", "fit_asymptotics", "asymptotics.fit_asymptotics"),
    ("smalltime.rde", "solve_increments", "rde.solve_increments"),
    ("smalltime.rde", "expansion_endpoints_batch", "rde.expansion_endpoints_batch"),
    ("smalltime.rde", "solve_rde", "rde.solve_rde"),
    ("smalltime.rde", "solve_skeleton", "rde.solve_skeleton"),
    ("smalltime.rde", "expansion_terms", "rde.expansion_terms"),
    ("smalltime.rde", "remainder", "rde.remainder"),
    ("smalltime.malliavin", "malliavin_Q_batch", "malliavin.malliavin_Q_batch"),
    ("smalltime.malliavin", "stochastic_gradient_rows", "malliavin.stochastic_gradient_rows"),
    ("smalltime.malliavin", "sample_scaled_Q", "malliavin.sample_scaled_Q"),
    ("smalltime.malliavin", "eigen_tail", "malliavin.eigen_tail"),
    ("smalltime.minimizer", "minimize_energy", "minimizer.minimize_energy"),
    ("smalltime.minimizer", "hessian_check", "minimizer.hessian_check"),
    ("smalltime.roughlift", "lift_grid_path", "roughlift.lift_grid_path"),
    ("smalltime.roughlift", "young_translate", "roughlift.young_translate"),
    ("smalltime.roughlift", "prefix_chen_defect", "roughlift.defects"),
    ("smalltime.roughlift", "grouplike_defect", "roughlift.defects"),
    ("smalltime.tensor_sig", "chen_mul", "tensor_sig.chen_mul"),
    ("smalltime.tensor_sig", "sig_root", "tensor_sig.sig_root"),
    ("smalltime.metrics", "ControlEvaluator.__init__", "metrics.ControlEvaluator"),
    ("smalltime.metrics", "greedy_count", "metrics.greedy_count"),
    ("smalltime.metrics", "besov_norm", "metrics.besov_norm"),
)

COUNTERS = {
    "fgauss.sample_fbm": _count_sample_fbm,
    "asymptotics.estimate_density": _count_noise(spec_pos=4),
    "asymptotics.leading_coefficient": _count_noise(spec_pos=2),
    "rde.solve_increments": _count_solve_increments,
    "rde.expansion_endpoints_batch": _count_expansion_endpoints,
    "rde.solve_rde": _count_solve_rde,
    "malliavin.malliavin_Q_batch": _count_q_batch,
}

# exception types counted as failures of the layer whose span raised them first
FAILURE_TYPES = ("BlowUpError", "NonConvergenceError", "StarvationError")


class Tracer:
    """In-memory span recorder with per-name totals, self times and counts."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")  # which traced job a span belongs to
        self.job_id = -1
        self._stack = []  # [span index, time covered by direct children]
        self.reset_totals()

    def start_job(self):
        """Begin a traced job: new span group, fresh totals."""
        self.job_id += 1
        self.reset_totals()

    def reset_totals(self):
        self.total_s = {}
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self.failures = {}
        self.constraint_evals = []  # solve_skeleton calls under each minimize_energy
        self._in_minimize = 0

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.job.append(self.job_id)
            if name == "minimizer.minimize_energy":
                self.constraint_evals.append(0)
                self._in_minimize += 1
            elif name == "rde.solve_skeleton" and self._in_minimize:
                self.constraint_evals[-1] += 1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            self.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count at the innermost span only; outer spans see it marked
                if not hasattr(exc, "_perfbench_layer"):
                    exc._perfbench_layer = name.split(".")[0]
                    if type(exc).__name__ in FAILURE_TYPES:
                        layer = exc._perfbench_layer
                        self.failures[layer] = self.failures.get(layer, 0) + 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                if name == "minimizer.minimize_energy":
                    self._in_minimize -= 1
                self.end[idx] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    k = f"{name}.{key}"
                    self.counts[k] = self.counts.get(k, 0) + val
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install wrappers on every binding of the traced functions; restore on exit."""
        undo = []
        try:
            for modname, attr, name in TRACED:
                mod = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(name, orig))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(mod, attr)
                wrapped = self.wrap(name, orig)
                for other in list(sys.modules.values()):
                    oname = getattr(other, "__name__", "")
                    if oname.split(".")[0] != "smalltime":
                        continue
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            setattr(other, key, wrapped)
                            undo.append((other, key, orig))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def save(self, path, environment):
        """Write every recorded span as flat arrays; ``names[name_id]`` is a span's name
        and ``parent`` the index of its parent span (-1 at the top)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            environment=np.array(repr(environment)),
        )
