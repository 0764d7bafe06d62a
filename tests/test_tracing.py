"""The benchmark's tracer (perfbench/tracing.py) still sees ray tracing and
the per-ray sums.

The tracer wraps only the functions whose `__module__` is their own
module's, so a memo wrapper that lost its function's metadata would
silently drop the per-layer metrics of the layer it wraps.
"""

import importlib.util
import os

from mpmath import mpf

from stokeswb import betti, derham, gevrey, stokes, summation
from stokeswb.gevrey import GevreySeries

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def under(spans, i, name):
    """Whether span i or one of its ancestors is named `name`."""
    while i >= 0:
        if spans[i][0] == name:
            return True
        i = spans[i][3]
    return False


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
    # compose keeps its truncated Horner steps to itself
    assert not [i for i, name in enumerate(names)
                if name == "gevrey.mul" and under(spans, spans[i][3], "gevrey.compose")]


def test_tracer_records_borel_layers():
    # the dual Stirling series of dx/x at order 26, as `borel-resum` sums
    # it; borel_sum builds its Borel function afresh, so the sum is cold
    b = derham.stirling_exponent_series(1, 26)
    closed = gevrey.exp(gevrey.scale(b, -1))
    dual = GevreySeries(tuple(c if n % 2 == 0 else -c
                              for n, c in enumerate(closed.coeffs)))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        summation.borel_sum(dual, 0, [mpf("0.2")], tail_cut=mpf("1e-10"))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["summation.continue_borel.calls"]["value"] > 0
    assert metrics["summation.pade_solves"]["value"] > 0
    spans = tracer.spans
    assert [s for s in spans if s[0] == "scalar.gauss_segment"
            and under(spans, s[3], "summation.laplace")]
