"""Span tracing of clarklab's public functions, installed from outside.

Modules import functions by name (``from .herglotz import
secular_roots_line``), so one function is bound in several module
namespaces; a wrapper is installed under every binding, and the class
attributes of the listed methods are replaced on the class itself.
Spans are kept in memory as (name, start, end, parent, op, probe) and
written out once, after the run; `probe` is the calibration probe time
that fell inside the span (see calibrate.py), which span durations
exclude.  The benchmark is single-threaded while tracing,
so one span stack is enough.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("measures", "herglotz", "quadrature", "rankone", "modelspace",
           "rankn", "scenarios", "cli")

# Functions traced, by the module that defines them.
TRACED = {
    "herglotz": ("secular_roots_line", "cauchy_rational_line",
                 "residue_masses_line", "level_set_batch", "blaschke_eval",
                 "boundary_derivative_modulus"),
    "rankone": ("perturb_selfadjoint", "inner_from_unitary", "clark_measure",
                "perturb_unitary", "matrix_oracle_selfadjoint",
                "matrix_oracle_unitary", "disintegration_check_line",
                "disintegration_check_circle"),
    "quadrature": ("integrate_line", "integrate_circle"),
    "measures": ("LineAtomicMeasure.from_atoms", "CircleAtomicMeasure.from_atoms",
                 "measure_of", "cauchy_transform_disk"),
    "modelspace": ("build_model_space", "lemma7_decompose", "ModelSpace.project",
                   "hat_conjugate", "v_alpha", "t_alpha_matrix",
                   "intertwine_check"),
    "rankn": ("knu_alpha_beta", "recursive_unitary", "spectral_measure_of_vector",
              "phi_density", "herglotz_positivity_check",
              "curve_disintegration_check", "family_model_space"),
}

# Check ids of the scenario layer, as registered in clarklab.scenarios.CHECKS.
CHECK_IDS = ("clark_correspondence", "curve_disintegration",
             "disintegration_circle", "disintegration_line", "lemma7_suite",
             "modelspace_suite", "positivity_bounds", "secular_oracle",
             "simon_wolff", "theorem4_axis", "theorem9_nullset",
             "two_parameter_oracle")

# Level-set points closer than this in angle count as one root.
DISTINCT_ANGLE = 1e-10


def traced_names():
    return [f"{mod}.{name}" for mod, names in TRACED.items() for name in names]


def _distinct_points(rows) -> int:
    angles = np.sort(np.angle(np.atleast_2d(rows)) % (2.0 * np.pi), axis=1)
    gaps = np.diff(angles, axis=1, append=angles[:, :1] + 2.0 * np.pi)
    return int(np.sum(np.maximum(1, np.sum(gaps > DISTINCT_ANGLE, axis=1))))


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    def __init__(self, calibrator):
        self.calibrator = calibrator
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self):
        mods = [importlib.import_module("clarklab")]
        mods += [importlib.import_module(f"clarklab.{m}") for m in MODULES]
        for mod_name, names in TRACED.items():
            home = importlib.import_module(f"clarklab.{mod_name}")
            for name in names:
                label = f"{mod_name}.{name}"
                if "." in name:
                    self._wrap_method(home, name, label)
                else:
                    self._wrap_function(mods, getattr(home, name), label)
        checks = importlib.import_module("clarklab.scenarios").CHECKS
        for check_id, handler in list(checks.items()):
            checks[check_id] = self._wrapper(handler, f"scenarios.check.{check_id}")
            self._undo.append((checks.__setitem__, check_id, handler))

    def uninstall(self):
        for setter, key, original in reversed(self._undo):
            setter(key, original)
        self._undo.clear()

    def _wrap_function(self, mods, fn, label):
        wrapped = self._wrapper(fn, label)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
                    self._undo.append((functools.partial(setattr, mod), attr, fn))

    def _wrap_method(self, home, dotted, label):
        cls_name, attr = dotted.split(".")
        cls = getattr(home, cls_name)
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrapper(original.__func__, label))
        else:
            replacement = self._wrapper(original, label)
        setattr(cls, attr, replacement)
        self._undo.append((functools.partial(setattr, cls), attr, original))

    def _wrapper(self, fn, label):
        name_id = self._name_ids.setdefault(label, len(self.names))
        if name_id == len(self.names):
            self.names.append(label)
        hook = getattr(self, "_hook_" + label.replace(".", "_"), None)
        spans = self.spans
        stack = self.stack
        calibrator = self.calibrator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            probed = calibrator.spent
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.op,
                              calibrator.spent - probed)
            self._after(label, out)
            return out

        return wrapper

    # -- counters ----------------------------------------------------------

    def _count_points(self, key, args, kwargs):
        args = list(args)
        f = args[0] if args else kwargs["f"]

        def counted(xs):
            self.counts[key] += np.size(xs)
            return f(xs)

        if args:
            args[0] = counted
        else:
            kwargs["f"] = counted
        return tuple(args), kwargs

    def _hook_quadrature_integrate_line(self, args, kwargs):
        return self._count_points("quadrature.integrate_line.points", args, kwargs)

    def _hook_quadrature_integrate_circle(self, args, kwargs):
        return self._count_points("quadrature.integrate_circle.points", args, kwargs)

    def _after(self, label, out):
        if label == "herglotz.level_set_batch":
            self.counts["herglotz.level_set_batch.rows"] += out.shape[0]
            self.counts["herglotz.level_set_batch.roots"] += out.size
            self.counts["herglotz.level_set_batch.distinct"] += _distinct_points(out)
        elif label == "modelspace.build_model_space":
            self.counts["modelspace.build_model_space.grid_points"] += out.grid.size

    # -- results -----------------------------------------------------------

    def layer_totals(self):
        """Per-name call counts and self times, and the scenario check times,
        in raw seconds with the probe time taken out."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _, probe in self.spans:
            if parent >= 0:
                child[parent] += end - start - probe
        for idx, (name_id, start, end, _, _, probe) in enumerate(self.spans):
            label = self.names[name_id]
            calls[label] += 1
            if label.startswith("scenarios.check."):
                self_s[label] += end - start - probe
            else:
                self_s[label] += (end - start - probe) - child[idx]
        return calls, self_s

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "op", "probe"],
                       "spans": self.spans}, fh)
