"""The benchmark's checks reject perturbed results, and the tracer is inert.

Each workload runs here with its expensive program calls replaced by
fakes that return the reference value, exact or perturbed: the exact one
must pass every check and the perturbed one must fail the operation.
The form-setup checks run on the program's real results for a tiny
input, computed once and replayed, exact or perturbed, by each case.
"""

import types
from dataclasses import replace

import pytest
from mpmath import mp, mpf, mpc

import checks
import tracing
import workloads
from stokeswb import betti, derham, stokes, summation
from stokeswb.gevrey import GevreySeries

PERTURB = mpf("1e-6")


@pytest.fixture(autouse=True)
def precision():
    with mp.workprec(256):
        yield


def run(workload, inputs):
    ops = checks.Operations()
    workloads.WORKLOADS[workload][1](inputs, ops)
    return ops


def assert_outcome(ops, label):
    """No failure for exact results; a failure of check `label` otherwise."""
    if label is None:
        assert ops.failed == 0, ops.failures
    else:
        assert ops.failed >= 1
        assert any(msg.startswith(label) for msg in ops.failures), ops.failures


@pytest.mark.parametrize("delta", [0, PERTURB])
def test_dense_z_checks(monkeypatch, delta):
    monkeypatch.setattr(betti, "trace_thimble", lambda *a, **k: "path")
    monkeypatch.setattr(stokes, "exp_integral",
                        lambda path, omega, crit, z, tol: checks.thimble_ref(z) * (1 + delta))
    zs = [mpf("0.1"), mpc("0.3", "0.2")]
    ops = run("gamma-dense-z", dict(form=None, crit=None, omega=None, zs=zs))
    assert ops.attempted == 3
    assert ops.failed == (2 if delta else 0)
    assert_outcome(ops, "thimble integral" if delta else None)


@pytest.mark.parametrize("part, label", [
    (None, None), ("ratio", "entry ratio"), ("constant", "fitted constant"),
    ("coefficient", "fitted exp"), ("extra", "fitted term (-1,)")])
def test_crossing_checks(monkeypatch, part, label):
    grid = workloads.crossing_setup(0)["grid"]

    def sector(form, crit, d, z_grid, **kw):
        vals = [mpc(1) if d == 0 else checks.stokes_jump_ref(z, 1) for z in z_grid]
        if d != 0 and part == "ratio":
            vals[-1] *= 1 + PERTURB
        return types.SimpleNamespace(entries={(0, 0): vals})

    def factor(xa, xb, lat, basis_bound):
        terms = {(0,): mpc(1), (1,): mpc(-1), (-1,): mpc(0)}
        if part == "constant":
            terms[(0,)] += PERTURB * 10
        if part == "coefficient":
            terms[(1,)] += PERTURB * 10
        if part == "extra":
            terms[(-1,)] = mpf("1e-3")
        return types.SimpleNamespace(entries=[[types.SimpleNamespace(terms=terms)]])

    monkeypatch.setattr(stokes, "sector_matrix", sector)
    monkeypatch.setattr(stokes, "stokes_factor", factor)
    lat = types.SimpleNamespace(period=lambda g: -2j * mp.pi * g[0])
    ops = run("gamma-crossing", dict(form=None, lat=lat, crit=None, grid=grid))
    assert ops.attempted == 3
    assert_outcome(ops, label)


@pytest.mark.parametrize("part, label", [
    (None, None), ("formal", "formal coefficient"), ("sum", "Borel sum")])
def test_borel_checks(monkeypatch, part, label):
    ref = checks.stirling_formal_ref(workloads.BOREL_ORDER)
    if part == "formal":
        ref[7] *= 1 + PERTURB
    monkeypatch.setattr(derham, "formal_comparison",
                        lambda *a, **k: [GevreySeries(tuple(ref))])

    def borel_sum(series, d, grid, **kw):
        scale = 1 + PERTURB if part == "sum" else 1
        return types.SimpleNamespace(points=[(z, checks.borel_ref(z) * scale) for z in grid])
    monkeypatch.setattr(summation, "borel_sum", borel_sum)
    grid = [mpf("0.1"), mpc("0.2", "0.1")]
    ops = run("borel-resum", dict(form=None, omega=None, grid=grid))
    assert ops.attempted == 2
    assert_outcome(ops, label)


# (x^2 - 1)/((x - 1/2)(x + 2)) dx: zeros +-1, simple poles 1/2, -2 and infinity
FORM = ([mpc(-1), mpc(0), mpc(1)], [mpc(-1), mpc("1.5"), mpc(1)], mpf("0.3"))


FORM_CALLS = ("analyze", "period_lattice", "critical_values", "local_coordinate_series")


def form_call_key(name, args):
    return (name, args[1]) if name == "local_coordinate_series" else name


@pytest.fixture(scope="module")
def form_outputs():
    """The program's results on FORM, computed once and replayed by each case."""
    outputs = {}

    def recorder(name, fn):
        def call(*a, **k):
            outputs[form_call_key(name, a)] = out = fn(*a, **k)
            return out
        return call

    with pytest.MonkeyPatch.context() as m, mp.workprec(256):
        for name in FORM_CALLS:
            m.setattr(derham, name, recorder(name, getattr(derham, name)))
        ops = run("form-setup", dict(forms=[FORM]))
    assert ops.attempted == 6 and ops.failed == 0, ops.failures
    return outputs


@pytest.mark.parametrize("part, label", [
    (None, None), ("degree", "degree identity"), ("residue", "residue theorem"),
    ("zero", "zero backward error"), ("pole", "pole backward error"),
    ("critical", "critical value"), ("local", "local coordinate")])
def test_form_setup_checks(monkeypatch, form_outputs, part, label):
    def replay(name):
        return lambda *a, **k: form_outputs[form_call_key(name, a)]

    analyze = replay("analyze")
    critical_values = replay("critical_values")
    local_coordinate_series = replay("local_coordinate_series")

    def bad_analyze(p, q):
        of = analyze(p, q)
        zeros, poles = list(of.zeros), list(of.poles)
        if part == "degree":
            zeros[0] = replace(zeros[0], order=zeros[0].order + 1)
        if part == "residue":
            poles[0] = replace(poles[0], residue=poles[0].residue + mpf("1e-20"))
        if part == "zero":
            zeros[0] = replace(zeros[0], location=zeros[0].location + mpf("1e-30"))
        if part == "pole":
            poles[0] = replace(poles[0], location=poles[0].location + mpf("1e-30"))
        return replace(of, zeros=tuple(zeros), poles=tuple(poles))

    def bad_critical_values(*a, **k):
        crit = critical_values(*a, **k)
        if part != "critical":
            return crit
        return replace(crit, values=tuple(v * (1 + PERTURB) for v in crit.values))

    def bad_local(of, j, order):
        lc = local_coordinate_series(of, j, order)
        if part != "local":
            return lc
        x = lc.x_of_u.coeffs
        return replace(lc, x_of_u=GevreySeries(x[:2] + (x[2] + mpf("1e-3"),) + x[3:]))

    monkeypatch.setattr(derham, "analyze", bad_analyze)
    monkeypatch.setattr(derham, "period_lattice", replay("period_lattice"))
    monkeypatch.setattr(derham, "critical_values", bad_critical_values)
    monkeypatch.setattr(derham, "local_coordinate_series", bad_local)
    ops = run("form-setup", dict(forms=[FORM]))
    assert ops.attempted == 6
    assert_outcome(ops, label)


def test_tracer_records_and_restores():
    original = (derham.analyze, derham.support_radius, derham.RationalForm.__call__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        form = derham.analyze([-1, 1], [0, 1])
        lat = derham.period_lattice(form)
        derham.critical_values(form, 2, [[1]], lat=lat)
        derham.formal_comparison(workloads.dlog(), form, 0, 4)
    finally:
        tracer.uninstall()
    assert (derham.analyze, derham.support_radius, derham.RationalForm.__call__) == original
    names = [s[0] for s in tracer.spans]
    analyze = names.index("derham.analyze")
    assert tracer.spans[names.index("derham.poly_roots")][3] == analyze
    # derham's own binding of support_radius is traced under the lattice name
    lattice_span = names.index("derham.period_lattice")
    assert tracer.spans[names.index("lattice.support_radius")][3] == lattice_span
    metrics = tracer.layer_metrics()
    assert metrics["derham.poly_roots.polyroots_calls"]["value"] == 2
    assert metrics["gevrey.mul.calls"]["value"] > 0
    assert metrics["derham.critical_values.self_s"]["value"] > 0
    # adaptive_gauss on the 1-form inside critical_values counts alpha evaluations
    crit = names.index("derham.critical_values")
    assert tracer.spans[crit][4] is None or "alpha_evals" not in tracer.spans[crit][4]
    assert any(s[4] and s[4].get("alpha_evals") for s in tracer.spans
               if s[0] == "scalar.gauss_segment")


def test_run_lists_every_workload():
    import run
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
