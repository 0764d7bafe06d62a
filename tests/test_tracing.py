"""The benchmark's tracer (perfbench/tracing.py) still sees ray tracing and
the per-ray sums.

The tracer wraps only the functions whose `__module__` is their own
module's, so a memo wrapper that lost its function's metadata would
silently drop the per-layer metrics of the layer it wraps.
"""

import importlib.util
import os

from mpmath import mpf

from stokeswb import betti, derham, stokes

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_ray_tracing(gamma_form, gamma_crit, monkeypatch):
    # cold memos, so the rays are traced under the tracer
    monkeypatch.setattr(betti._traced_ray, "cache", {})
    monkeypatch.setattr(derham.local_coordinate_series, "cache", {})
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        tracer.register_form(gamma_form)
        betti.trace_thimble(gamma_form, gamma_crit, 0, 0, 0)
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s[0] == "betti.trace_ray"]
    assert any(s[4] and s[4].get("alpha_evals") for s in spans)
    assert tracer.layer_metrics()["betti.rk_samples"]["value"] > 0
    # the series code is the Borel side's alone: its per-layer metrics
    # say nothing about tracing
    assert not [s for s in tracer.spans if s[0].startswith("gevrey.")
                or s[0] == "derham.local_coordinate_series"]


def test_tracer_records_ray_sums(gamma_form, gamma_crit, gamma_omega,
                                 monkeypatch):
    # a cold memo, so the sums lay their nodes under the tracer
    monkeypatch.setattr(betti._traced_ray, "cache", {})
    path = betti.trace_thimble(gamma_form, gamma_crit, 0, 0, 0)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        tracer.register_form(gamma_form)
        stokes.exp_integral(path, gamma_omega, gamma_crit, mpf("0.3"))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["stokes.ray_integral.calls"]["value"] == 2
    assert metrics["stokes.ray_integral.exp_calls"]["value"] > 0
    assert metrics["stokes.ray_integral.omega_evals"]["value"] > 0


def test_compose_runs_no_full_products(gamma_form, gamma_omega, monkeypatch):
    # cold memos, so the series arithmetic runs under the tracer
    monkeypatch.setattr(derham.local_coordinate_series, "cache", {})
    monkeypatch.setattr(derham.formal_comparison, "cache", {})
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        derham.formal_comparison(gamma_omega, gamma_form, 0, 26)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    names = [s[0] for s in spans]
    assert "gevrey.compose" in names and "gevrey.mul" in names

    def under_compose(i):
        while i >= 0:
            if spans[i][0] == "gevrey.compose":
                return True
            i = spans[i][3]
        return False
    # compose keeps its truncated Horner steps to itself
    assert not [i for i, name in enumerate(names)
                if name == "gevrey.mul" and under_compose(spans[i][3])]
