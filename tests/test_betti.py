import json

import pytest
import mpmath
from mpmath import mp, mpf, mpc

from stokeswb import betti, derham
from stokeswb.betti import TraceControls
from stokeswb.derham import INF
from stokeswb.errors import NoCapture, SaddleEncounter
from stokeswb.scalar import wrap_angle


def assert_seed_directions(form, crit, d):
    """arg u_seed of traced ray l is (2 pi l + d)/(m+1) mod 2 pi."""
    m = form.zeros[0].order
    for ell in range(m + 1):
        ray = betti.trace_ray(form, crit, 0, ell, d)
        want = (2 * mp.pi * ell + mpf(d)) / (m + 1)
        assert abs(wrap_angle(mpmath.arg(ray.u_seed) - want)) < mpf("1e-40")


class TestLocalRays:
    def test_order_one(self, gamma_form, gamma_crit):
        assert_seed_directions(gamma_form, gamma_crit, 0)

    def test_order_two(self, power_form):
        assert_seed_directions(*power_form(2), 0)

    def test_direction_shift(self, power_form):
        assert_seed_directions(*power_form(2), mpf("0.9"))


class TestDftCycles:
    def test_order_one_weights(self):
        weights = betti.dft_weights(1)[0]
        assert abs(weights[0] - mpf(1) / 2) < mpf("1e-40")
        assert abs(weights[1] + mpf(1) / 2) < mpf("1e-40")

    def test_order_two_weights(self):
        weights = betti.dft_weights(2)[0]
        third = mpf(1) / 3
        assert abs(weights[0] - third) < mpf("1e-40")
        assert abs(weights[1] - third * mpmath.exp(-2j * mp.pi / 3)) < mpf("1e-40")
        assert abs(weights[2] - third * mpmath.exp(-4j * mp.pi / 3)) < mpf("1e-40")

    def test_unitarity(self):
        for m in (1, 2, 3, 4):
            w = betti.dft_weights(m)
            size = m + 1
            for i in range(size):
                for j in range(size):
                    acc = sum((w[i][l] * mpmath.conj(w[j][l])
                               for l in range(size)), mpc(0))
                    target = mpf(1) / size if i == j else mpf(0)
                    assert abs(acc - target) < mpf("1e-60")

    def test_cycle_values_from_one_value_per_ray(self, monkeypatch):
        # C_k = sum_l w[k][l] (v_l - v_(l+1)), and the local model integrates
        # each of its m+1 rays once for all m cycles
        v = [mpc(2, 1), mpc(-1, 3), mpc("0.5", -2)]
        w = betti.dft_weights(2)
        for k, got in enumerate(betti.cycle_values(v)):
            want = sum(w[k][l] * (v[l] - v[(l + 1) % 3]) for l in range(3))
            assert abs(got - want) < mpf("1e-70")
        rays = []
        ray_integral = betti.local_ray_integral

        def counted(m, ell, *args):
            rays.append(ell)
            return ray_integral(m, ell, *args)
        monkeypatch.setattr(betti, "local_ray_integral", counted)
        assert len(betti.local_cycle_integrals(2, 0, mpf("0.3"))) == 2
        assert rays == [0, 1, 2]

    def test_diagonality_by_quadrature(self):
        m = 2
        z = mpf("0.3")
        h00 = betti.local_normalizer(m, 0, z, 0)
        for kprime in range(2):
            vals = betti.local_cycle_integrals(m, kprime, z)
            for k, val in enumerate(vals):
                if k == kprime:
                    want = betti.local_normalizer(m, k, z, 0)
                    assert abs(val - want) <= mpf("1e-8") * abs(want)
                else:
                    assert abs(val) <= mpf("1e-8") * abs(h00)


class TestLocalNormalizer:
    def test_gaussian_closed_form(self):
        for z in (mpf("0.1"), mpf("0.3"), mpf(1), mpc("0.2", "0.1")):
            val = betti.local_normalizer(1, 0, z, 0)
            assert abs(val / mpmath.sqrt(2 * mp.pi * z) - 1) < mpf("1e-50")

    def test_order_two_value(self):
        val = betti.local_normalizer(2, 0, 1, 0)
        want = (1 - mpmath.exp(2j * mp.pi / 3)) * mpf(3) ** (mpf(1) / 3) \
            * mpmath.gamma(mpf(1) / 3) / 3
        assert abs(val - want) < mpf("1e-50")

    def test_quadrature_match(self):
        for z in (mpf("0.1"), mpf("0.3"), mpf(1)):
            quad = betti.local_cycle_integrals(1, 0, z)[0]
            want = betti.local_normalizer(1, 0, z, 0)
            assert abs(quad - want) <= mpf("1e-8") * abs(want)

    def test_branch_follows_direction(self):
        # at arg z continued from d = 2, the fractional power is not principal
        z = mpf("0.4") * mpmath.exp(1j * mpf("2.4"))
        v_d2 = betti.local_normalizer(1, 0, z, 2)
        v_d0 = betti.local_normalizer(1, 0, z, 0)
        assert abs(v_d2 - v_d0) < mpf("1e-40")
        z_neg = mpf("0.4") * mpmath.exp(1j * mpf("3.4"))   # arg beyond pi
        v_hi = betti.local_normalizer(1, 0, z_neg, 2)
        v_principal = mpmath.sqrt(2 * mp.pi * z_neg)
        assert abs(v_hi + v_principal) < mpf("1e-40")


class TestBoundarySet:
    def test_irregular_point_arc(self):
        pole = derham.Pole(mpc(0), 2, mpc(0))
        intervals = betti.boundary_set(pole, (mpf(0), mpf(0)))
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert abs(lo - mp.pi / 2) < mpf("1e-30")
        assert abs(hi - 3 * mp.pi / 2) < mpf("1e-30")
        assert betti.in_boundary_set(pole, (mpf(0), mpf(0)), mp.pi)
        assert not betti.in_boundary_set(pole, (mpf(0), mpf(0)), mpf(0))

    def test_simple_pole_all_or_nothing(self):
        pole = derham.Pole(mpc(0), 1, mpc(-1))
        assert betti.boundary_set(pole, (-mp.pi / 4, mp.pi / 4)) == \
            [(mpf(0), 2 * mp.pi)]
        assert betti.boundary_set(pole, (mp.pi - mpf("0.1"),
                                         mp.pi + mpf("0.1"))) == []

    def test_higher_order_components(self):
        pole = derham.Pole(mpc(0), 3, mpc(0))
        intervals = betti.boundary_set(pole, (mpf(0), mpf(0)))
        assert len(intervals) == 2


class TestTracing:
    def test_gamma_d0_terminals(self, gamma_form, gamma_crit):
        path = betti.trace_thimble(gamma_form, gamma_crit, 0, 0, 0)
        fwd, bwd = path.forward_terminal, path.backward_terminal
        # forward ray runs to infinity (irregular), backward to the simple pole
        assert gamma_form.poles[fwd.pole_index].location == INF
        assert fwd.regime == "irregular"
        assert fwd.in_boundary
        assert gamma_form.poles[bwd.pole_index].location == mpc(0)
        assert bwd.regime == "straight"
        assert bwd.in_boundary

    def test_gamma_hankel(self, gamma_form, gamma_crit):
        path = betti.trace_thimble(gamma_form, gamma_crit, 0, 0, mpf(2))
        for term in (path.forward_terminal, path.backward_terminal):
            assert gamma_form.poles[term.pole_index].location == INF
            assert term.in_boundary

    def test_flow_invariant_and_monotonicity(self, gamma_form, gamma_crit):
        path = betti.trace_thimble(gamma_form, gamma_crit, 0, 0, mpf(2))
        scale = max(abs(f) for _, _, f in path.samples())
        assert path.im_deviation() <= mpf("1e-9") * scale
        assert path.forward.monotone_flow()
        assert path.backward.monotone_flow()

    def test_flow_invariant_at_a_coarse_tolerance(self, gamma_form, gamma_crit):
        # a step's end is put back on the flow line in floats, so the drift
        # does not follow the step error of rk_tol 1e-8
        path = betti.trace_thimble(gamma_form, gamma_crit, 0, 0, mpf(2),
                                   TraceControls(rk_tol=mpf("1e-8")))
        scale = max(abs(f) for _, _, f in path.samples())
        assert path.im_deviation() <= mpf("1e-9") * scale
        assert path.forward.monotone_flow()
        assert path.backward.monotone_flow()

    @pytest.mark.parametrize("d", [mpf(0), mp.pi / 2 + mpf("0.2")])
    def test_f_advances_by_one_increment_per_sample(self, gamma_form, gamma_crit, d):
        # through the switch to the 1/x chart and a grown irregular tail
        for ell in (0, 1):
            ray = betti.ThimbleRay(gamma_form, gamma_crit, 0, ell, d,
                                   TraceControls(rk_tol=mpf("1e-8")))
            if ray.terminal.pole_order >= 2:
                for _ in range(20):
                    assert ray.grow()
                assert any(abs(x) > ray._switch_radius for _, x, _ in ray.samples)
            for (_, a, f_a), (_, b, f_b) in zip(ray.samples, ray.samples[1:]):
                step = ray.primitive.increment(a, b)
                assert abs(f_b - f_a - step) <= mpf(2) ** (8 - mp.prec) * abs(f_b)

    def test_form_evaluations_do_not_grow_with_the_samples(self, gamma_form,
                                                           gamma_crit, monkeypatch):
        # the seed's Newton steps and one evaluation per chart fixing the
        # phase of the form; the steps themselves run on the phase in floats
        calls = []
        call = derham.RationalForm.__call__
        monkeypatch.setattr(derham.RationalForm, "__call__",
                            lambda form, x: calls.append(x) or call(form, x))
        counts = []
        for rk_tol, grown in (("1e-8", 0), ("1e-14", 400)):
            calls.clear()
            ray = betti.ThimbleRay(gamma_form, gamma_crit, 0, 0, mp.pi / 2 + mpf("0.2"),
                                   TraceControls(rk_tol=mpf(rk_tol)))
            for _ in range(grown):
                ray.grow()
            counts.append((len(calls), len(ray.samples)))
        (coarse, few), (fine, many) = counts
        assert many > 5 * few
        assert coarse == fine <= betti._SEED_NEWTON_STEPS + 2

    @pytest.mark.parametrize("d", [mpf("0.8"), mp.pi - mpf("0.2")])
    def test_few_samples_on_the_flow_line(self, gamma_form, gamma_crit, d):
        # the step cap alone sets the samples (765 and 1,046 on the forward
        # rays under a Cash-Karp error target), and each lands on the flow
        # line to float rounding of f
        path = betti.trace_thimble(gamma_form, gamma_crit, 0, 0, d)
        for ray in (path.forward, path.backward):
            assert len(ray.samples) <= 150
            f_max = max(abs(f) for _, _, f in ray.samples)
            assert ray.im_deviation() <= mpf("1e-14") * max(1, f_max)
            assert ray.monotone_flow()

    def test_samples_do_not_depend_on_rk_tol(self, gamma_form, gamma_crit):
        # rk_tol only stops the corrector, so the same steps are taken
        for d in (mpf("0.8"), mp.pi - mpf("0.2")):
            for ell in (0, 1):
                counts = {len(betti.ThimbleRay(gamma_form, gamma_crit, 0, ell, d,
                                               TraceControls(rk_tol=mpf(tol))).samples)
                          for tol in ("1e-8", "1e-14")}
                assert len(counts) == 1

    def test_spiral_regime(self):
        # residue with an imaginary part spirals into the simple pole
        lam = mpc(1, "0.4")
        form = derham.analyze([-lam, 1], [0, 1])
        lat = derham.period_lattice(form)
        c = lam - lam * mpmath.log(lam)
        crit = derham.critical_values(form, lam, [[lam]], lat=lat, offset=c)
        path = betti.trace_thimble(form, crit, 0, 0, 0)
        terms = {t.regime for t in (path.forward_terminal,
                                    path.backward_terminal)}
        assert "spiral" in terms

    def test_saddle_connection_detected(self):
        # (x^2-1)/x^2 dx has zeros at +-1 with critical values +-2:
        # d = 0 is non-generic and the separatrix joins the zeros
        form = derham.analyze([-1, 0, 1], [0, 0, 1])
        lat = derham.period_lattice(form)
        crit = derham.critical_values(form, 1, [[1], [mpc(0, 1), -1]],
                                      lat=lat, offset=2)
        # the separatrix from the zero at -1 runs along the unit circle
        # straight into the zero at +1
        with pytest.raises(SaddleEncounter):
            for ell in (0, 1):
                betti.trace_thimble(form, crit, 1, ell, 0)

    def test_generic_direction_of_two_zero_form(self):
        form = derham.analyze([-1, 0, 1], [0, 0, 1])
        lat = derham.period_lattice(form)
        crit = derham.critical_values(form, 1, [[1], [mpc(0, 1), -1]],
                                      lat=lat, offset=2)
        path = betti.trace_thimble(form, crit, 0, 0, mpf("0.4"))
        assert path.forward_terminal is not None
        assert path.backward_terminal is not None

    def test_cache_keys_on_all_controls(self, gamma_form, gamma_crit):
        # the forward ray runs out to the pole at infinity, far beyond an
        # arc length of 1: a trace under that budget must not be served
        # from the default-controls trace of the same ray
        betti.trace_ray(gamma_form, gamma_crit, 0, 0, 0)
        with pytest.raises(NoCapture):
            betti.trace_ray(gamma_form, gamma_crit, 0, 0, 0,
                            controls=TraceControls(max_arc_length=1))

    def test_seed_on_the_local_coordinate(self, gamma_form, gamma_crit):
        # the Newton seed against the series inverse of the local coordinate
        # at the same u: m = 1 (Gamma, both rays) and m = 2 (x^2 dx)
        cube = derham.analyze([0, 0, 1], [1])
        cube_crit = derham.critical_values(cube, 0, [[0]],
                                           lat=derham.period_lattice(cube))
        cases = [(gamma_form, gamma_crit, ell, mpf(0)) for ell in (0, 1)]
        cases += [(cube, cube_crit, ell, mpf("0.15")) for ell in (0, 1, 2)]
        for form, crit, ell, d in cases:
            ray = betti.trace_ray(form, crit, 0, ell, d)
            local = derham.local_coordinate_series(form, 0, 16)
            assert abs(ray.samples[0][1] - local.point(ray.u_seed)) < mpf("1e-60")

    def test_csv_and_header(self, gamma_form, gamma_crit, tmp_path):
        path = betti.trace_thimble(gamma_form, gamma_crit, 0, 0, 0)
        text = path.to_csv()
        lines = text.splitlines()
        assert lines[0] == "t,x_re,x_im,f_re,f_im"
        assert len(lines) > 10
        header = path.header()
        assert header["zero"] == 0 and header["ray"] == 0
        json.dumps(header)  # serializable
        # deterministic output
        assert text == path.to_csv()
