"""Span and operation-count tracing of the stokeswb layers, from outside.

The tracer replaces module attributes with wrappers; nothing in the
package itself changes.  Every public function of the seven numerical
modules, and every binding another module imported from it (for
example ``derham.support_radius``), records a span (name, start, end,
parent).  A few hot leaf helpers are only counted: a span each would
cost more than the work they do and would hold millions of records.

Counted events, attributed to the innermost open span:

* ``alpha_evals`` / ``omega_evals``: ``RationalForm.__call__`` on the
  workload's 1-form (any form ``derham.analyze`` returned, in either
  chart) versus on any other form (the integrands);
* ``exp_calls``, ``pade_solves``, ``polyroots_calls``: calls of
  ``mpmath.exp``, ``mpmath.pade`` and ``mpmath.polyroots``;
* ``<module>.<function>``: every call of a wrapped function.

Per-layer metrics are computed from the spans after the run: ``self_s``
is span time minus the time covered by child spans, and a count under
a span includes the events of all its descendants.
"""

import functools
import inspect
import json
import time

import mpmath

from stokeswb import betti, derham, gevrey, lattice, scalar, stokes, summation

MODULES = {
    "scalar": scalar, "gevrey": gevrey, "lattice": lattice,
    "derham": derham, "betti": betti, "stokes": stokes,
    "summation": summation,
}

# called hundreds of thousands of times per run: counted, no span
COUNT_ONLY = {
    "scalar.to_mpc", "scalar.legendre_nodes", "scalar.close",
    "scalar.wrap_angle", "scalar.angle_in_window",
    "derham.poly_eval", "derham.poly_trim", "derham.poly_deg",
}

MPMATH_EVENTS = {"exp": "exp_calls", "pade": "pade_solves",
                 "polyroots": "polyroots_calls"}

# (metric name, unit, kind, span name or module prefix, event)
LAYER_METRICS = [
    ("betti.trace_ray.self_s", "s", "self", "betti.trace_ray", None),
    ("betti.trace_ray.alpha_evals", "count", "under", "betti.trace_ray", "alpha_evals"),
    ("betti.rk_samples", "count", "rk_samples", None, None),
    ("stokes.sector_matrix.self_s", "s", "self", "stokes.sector_matrix", None),
    ("stokes.ray_integral.self_s", "s", "self", "stokes.ray_integral", None),
    ("stokes.ray_integral.calls", "count", "calls", "stokes.ray_integral", None),
    ("stokes.ray_integral.alpha_evals", "count", "under", "stokes.ray_integral", "alpha_evals"),
    ("stokes.ray_integral.omega_evals", "count", "under", "stokes.ray_integral", "omega_evals"),
    ("stokes.ray_integral.exp_calls", "count", "under", "stokes.ray_integral", "exp_calls"),
    ("stokes.stokes_factor.self_s", "s", "self", "stokes.stokes_factor", None),
    ("gevrey.compose.self_s", "s", "self", "gevrey.compose", None),
    ("gevrey.reversion.self_s", "s", "self", "gevrey.reversion", None),
    ("gevrey.mul.self_s", "s", "self", "gevrey.mul", None),
    ("gevrey.mul.calls", "count", "calls", "gevrey.mul", None),
    ("derham.local_coordinate_series.self_s", "s", "self", "derham.local_coordinate_series", None),
    ("derham.formal_comparison.self_s", "s", "self", "derham.formal_comparison", None),
    ("summation.borel_sum.self_s", "s", "self", "summation.borel_sum", None),
    ("summation.locate_borel_singularities.self_s", "s", "self",
     "summation.locate_borel_singularities", None),
    ("summation.exp_size_one_estimate.self_s", "s", "self",
     "summation.exp_size_one_estimate", None),
    ("summation.laplace.self_s", "s", "self", "summation.laplace", None),
    ("summation.continue_borel.calls", "count", "calls", "summation.continue_borel", None),
    ("summation.pade_solves", "count", "under", "summation.", "pade_solves"),
    ("summation.gauss_panels", "count", "under", "summation.", "scalar.gauss_segment"),
    ("derham.analyze.self_s", "s", "self", "derham.analyze", None),
    ("derham.poly_roots.self_s", "s", "self", "derham.poly_roots", None),
    ("derham.poly_roots.polyroots_calls", "count", "under", "derham.poly_roots",
     "polyroots_calls"),
    ("derham.period_lattice.self_s", "s", "self", "derham.period_lattice", None),
    ("lattice.support_radius.self_s", "s", "self", "lattice.support_radius", None),
    ("lattice.critical_differences.self_s", "s", "self", "lattice.critical_differences", None),
    ("derham.critical_values.self_s", "s", "self", "derham.critical_values", None),
    ("scalar.gauss_segment.self_s", "s", "self", "scalar.gauss_segment", None),
]


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self):
        # span record: [name, start, end, parent, counts or None, outer_name, outer_module]
        self.spans = []
        self.root = [None, 0.0, 0.0, -1, None, False, False]
        self.stack = []
        self._active = {}
        self._saved = []
        self._alpha_keys = set()
        self._form_kind = {}
        self.rays = {}

    # -- recording --

    def _bump(self, event):
        rec = self.spans[self.stack[-1]] if self.stack else self.root
        counts = rec[4]
        if counts is None:
            counts = rec[4] = {}
        counts[event] = counts.get(event, 0) + 1

    def _span(self, name, fn):
        spans, stack, active, clock = self.spans, self.stack, self._active, time.perf_counter
        module = name.split(".")[0] + "."
        bump = self._bump

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bump(name)
            idx = len(spans)
            outer_name = not active.get(name)
            outer_module = not active.get(module)
            active[name] = active.get(name, 0) + 1
            active[module] = active.get(module, 0) + 1
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None,
                          outer_name, outer_module])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
                active[name] -= 1
                active[module] -= 1
        return wrapper

    def _counter(self, event, fn):
        bump = self._bump

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bump(event)
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def register_form(self, one_form):
        """Mark a 1-form (both charts) as the workload's alpha."""
        for f in (one_form.form, one_form.form.at_infinity()):
            self._alpha_keys.add((f.P, f.Q))
        self._form_kind.clear()

    # -- installation --

    def install(self):
        wrappers = {}
        for mod_name, mod in MODULES.items():
            for attr, val in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(val)
                        or val.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(val)):
                    continue
                name = f"{mod_name}.{attr}"
                if name in COUNT_ONLY:
                    wrappers[val] = self._counter(name, val)
                else:
                    wrappers[val] = self._span(name, val)
        # the module's own binding and every binding imported elsewhere
        for mod in MODULES.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])

        analyze = derham.analyze

        def traced_analyze(*args, **kwargs):
            out = analyze(*args, **kwargs)
            self.register_form(out)
            return out
        self._patch(derham, "analyze", functools.wraps(analyze)(traced_analyze))

        trace_ray = betti.trace_ray

        def traced_trace_ray(*args, **kwargs):
            ray = trace_ray(*args, **kwargs)
            self.rays[id(ray)] = ray
            return ray
        self._patch(betti, "trace_ray", functools.wraps(trace_ray)(traced_trace_ray))

        call = derham.RationalForm.__call__
        kinds = self._form_kind
        alpha_keys = self._alpha_keys
        bump = self._bump

        def traced_call(form, x):
            entry = kinds.get(id(form))
            if entry is None:
                # the form is kept alive in the entry, so its id cannot be reused
                entry = kinds[id(form)] = (form, "alpha_evals" if (form.P, form.Q)
                                           in alpha_keys else "omega_evals")
            bump(entry[1])
            return call(form, x)
        self._patch(derham.RationalForm, "__call__", traced_call)

        for attr, event in MPMATH_EVENTS.items():
            self._patch(mpmath, attr, self._counter(event, getattr(mpmath, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- results --

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent, *_ in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent]))
                fh.write("\n")

    def layer_metrics(self):
        spans = self.spans
        n = len(spans)
        child_time = [0.0] * n
        inclusive = [dict(rec[4] or {}) for rec in spans]
        for i in range(n - 1, -1, -1):
            name, start, end, parent = spans[i][:4]
            if parent >= 0:
                child_time[parent] += end - start
                acc = inclusive[parent]
                for event, count in inclusive[i].items():
                    acc[event] = acc.get(event, 0) + count
        self_s, calls = {}, {}
        for i, (name, start, end, *_rest) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            calls[name] = calls.get(name, 0) + 1
        out = {}
        for metric, unit, kind, target, event in LAYER_METRICS:
            if kind == "self":
                value = self_s.get(target, 0.0)
            elif kind == "calls":
                value = calls.get(target, 0)
            elif kind == "rk_samples":
                value = sum(len(ray.samples) for ray in self.rays.values())
            elif target.endswith("."):
                value = sum(inclusive[i].get(event, 0) for i, rec in enumerate(spans)
                            if rec[0].startswith(target) and rec[6])
            else:
                value = sum(inclusive[i].get(event, 0) for i, rec in enumerate(spans)
                            if rec[0] == target and rec[5])
            out[metric] = {"value": value, "unit": unit}
        return out
