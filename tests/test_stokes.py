import json
import math

import pytest
import mpmath
from mpmath import mp, mpf, mpc

from stokeswb import betti, derham, gevrey, stokes, summation
from stokeswb.betti import TraceControls
from stokeswb.derham import RationalForm
from stokeswb.errors import FitResidualTooLarge, TailNotDecaying


def gamma_closed(z, lam=mpc(1)):
    """z^(lam/z) Gamma(lam/z) for the one-zero example."""
    s = lam / z
    return z ** s * mpmath.gamma(s)


def dual_entry_closed(z, lam=mpc(1)):
    c = lam - lam * mpmath.log(lam)
    return (mpmath.exp(c / z) * gamma_closed(z, lam)
            / mpmath.sqrt(2 * mp.pi * z))


class TestExpIntegral:
    def test_gamma_closed_form(self, gamma_form, gamma_crit, gamma_thimble,
                               gamma_omega):
        for z in (mpf("0.5"), mpf("0.2"), mpc("0.3", "0.1")):
            val = stokes.exp_integral(gamma_thimble, gamma_omega, gamma_crit, z,
                                      tol=mpf("1e-12"))
            ref = gamma_closed(z)
            assert abs(val - ref) <= mpf("1e-10") * abs(ref)

    def test_deformation_invariance(self, gamma_form, gamma_crit,
                                    gamma_thimble, gamma_omega):
        # independent oracle: direct quadrature of the same contour integral
        # along the positive axis (no shared code with the node tables)
        z = mpf("0.4")
        val = stokes.exp_integral(gamma_thimble, gamma_omega, gamma_crit, z,
                                  tol=mpf("1e-12"))
        with mp.workprec(mp.prec + 64):
            oracle = mpmath.quad(
                lambda x: mpmath.exp(-x / z) * x ** (1 / z - 1), [0, mpmath.inf])
        assert abs(val - oracle) <= mpf("1e-12") * abs(oracle)

    def test_small_loop_vanishes(self):
        # Cauchy sanity for the quadrature helper on a closed square
        from stokeswb.scalar import gauss_segment
        z = mpf("0.3")
        corners = [mpc(2, -1), mpc(3, -1), mpc(3, 1), mpc(2, 1), mpc(2, -1)]
        total = mpc(0)
        for a, b in zip(corners[:-1], corners[1:]):
            total += gauss_segment(
                lambda x: mpmath.exp(-(x - mpmath.log(x)) / z) / x, a, b, n=32)
        assert abs(total) < mpf("1e-30")

    def test_pure_local_model(self):
        # the order-one model cycle against du gives the Gaussian normalizer
        for z in (mpf("0.1"), mpf("0.5")):
            cyc = betti.dft_cycles(1, 0)[0]
            val = betti.local_cycle_integral(cyc, 1, 0, z)
            assert abs(val - mpmath.sqrt(2 * mp.pi * z)) < mpf("1e-8")

    def test_tail_not_decaying_outside_sector(self, gamma_form, gamma_crit,
                                              gamma_thimble, gamma_omega):
        with pytest.raises(TailNotDecaying):
            stokes.exp_integral(gamma_thimble, gamma_omega, gamma_crit,
                                mpc(-0.2, 0.05))


def fresh_ray(form, crit, ell=0, d=0, controls=TraceControls()):
    """A ray at zero 0 traced apart from the memo of `betti.trace_ray`."""
    return betti.ThimbleRay(form, crit, 0, ell, d, controls)


def rho_at(tol="1e-12"):
    return stokes._bernstein_rho(mpf(tol))


def lay_traced(table):
    """Lay chords over the samples of the ray's first trace; the table's
    index of its last sample (the table puts the zero in front)."""
    end = table.ray.n_traced
    while not table.chords or table.chords[-1][1] < end:
        assert table.lay()
    return end


def covered(table):
    """The samples the table's chords cover, the zero first."""
    return [table.sample(i) for i in range(table.chords[-1][1] + 1)]


def remainder():
    """The n-point Gauss-Legendre remainder constant (n!)^4 / ((2n+1)
    ((2n)!)^3) for exp(-f/z), n = stokes._CHORD_NODES."""
    n = stokes._CHORD_NODES
    return mpf(math.factorial(n) ** 4) / ((2 * n + 1) * math.factorial(2 * n) ** 3)


def widest_power_of_two(fits):
    """The largest power of two w with fits(w), w between 2^-20 and 2^20."""
    w = mpf(2) ** 20
    while not fits(w):
        w /= 2
        assert w >= mpf(2) ** -20
    return w


class TestNodeTable:
    def test_drift_at_working_precision(self, gamma_thimble):
        # the table's chained primitive, closed at each sample, against
        # the traced f, on the irregular and the simple-pole ray
        bound = mpf(2) ** (-mp.prec // 2)
        for ray in (gamma_thimble.forward, gamma_thimble.backward):
            table = stokes._RayTable(ray, mpf(1) / 16, rho_at())
            lay_traced(table)
            f_max = max(abs(f) for _, _, f in covered(table))
            assert table.drift <= bound * max(1, f_max)

    def test_chords_span_several_samples(self, gamma_form, gamma_crit):
        # on a far ray, chords merge the short steps out of the zero, the
        # first starting at the zero itself, but keep each chunk's bounds
        # at every sample past the first interval: at most df_max of f,
        # every pole of the chart outside the Bernstein ellipse of the
        # chord so far, and inside the pole-free disk around the chord's
        # first sample; the first interval lies inside that disk too
        ray = fresh_ray(gamma_form, gamma_crit, 0, mp.pi - mpf("0.2"))
        df_max = mpf(1) / 4
        rho = rho_at()
        axis = (rho + 1 / rho) / 2
        table = stokes._RayTable(ray, df_max, rho)
        traced_end = lay_traced(table)
        # the samples the chords cover; the last chord may grow the ray
        samples = covered(table)
        switch = ray._switch_radius
        assert table.chords[0][0] == 0
        assert table.chords[-1][1] >= traced_end
        for (_, end), (start, _) in zip(table.chords, table.chords[1:]):
            assert start == end
        for start, end in table.chords:
            x0, f0 = samples[start][1], samples[start][2]
            use_inf = abs(x0) > switch and abs(samples[start + 1][1]) > switch
            a_pt = 1 / x0 if use_inf else x0
            poles = stokes._chart_poles(ray, derham.INF if use_inf else "affine")
            radius = min(abs(p - a_pt) for p in poles)
            for k, (_, x, f) in enumerate(samples[start + 1:end + 1]):
                b = 1 / x if use_inf else x
                assert abs(b - a_pt) < radius
                if k > 0:
                    assert abs(f - f0) <= df_max
                    for p in poles:
                        assert (abs(p - a_pt) + abs(p - b)
                                > axis * abs(b - a_pt))
        # the steps grow from the seed: the first chord covers many of them
        start, end = table.chords[0]
        assert end - start >= 10
        f_max = max(abs(f) for _, _, f in samples)
        assert table.drift <= mpf(2) ** (-mp.prec // 2) * max(1, f_max)

    def test_tail_follows_the_primitive(self, gamma_form, gamma_crit,
                                        gamma_thimble):
        ray = gamma_thimble.backward
        assert ray.terminal.pole_order == 1
        width = mpf(1) / 2
        tail = stokes._RayQuadrature.of(ray).parts(1, rho_at(), width)[-1]
        assert tail.width == width
        # the memoized ray may carry a deeper tail from earlier sums; its
        # nodes through tau = 4 are the same
        last = int(4 / width) * stokes._CHORD_NODES - 1
        while len(tail.nodes) <= last:
            tail.lay()
        x_cap, f_cap = ray.terminal.capture_point, ray.terminal.f_capture
        for x, f, _, _ in (tail.nodes[0], tail.nodes[last]):
            with mp.workprec(mp.prec + 32):
                ref = f_cap + mpmath.quad(gamma_form.form, [x_cap, x])
            assert abs(f - ref) < mpf("1e-60") * abs(ref)

    def test_tail_into_a_simple_pole_at_infinity(self):
        # (x - 1)/(x (x - 2)) dx, f = log(x (x - 2))/2: at d = 0.3 both rays
        # spiral into the simple pole at infinity.  Oracle: the same
        # integral by mpmath.quad along the first trace's polyline from the
        # zero, then along the straight ray x_cap e^t, with f continued
        # by the closed form over each short segment.  omega = dx has a
        # double pole at infinity, so the tail's terms fall slower than
        # exp(-f/z), and the sum must read on past the usual cut-off.
        # Checked from a loose to a tight tolerance
        form = derham.analyze([-1, 1], [0, -2, 1])
        crit = derham.critical_values(form, mpc(1, "0.5"), [[1]],
                                      lat=derham.period_lattice(form))
        d = mpf("0.3")
        z = mpf("0.3") * mpmath.exp(1j * d)
        dx = RationalForm((mpc(1),), (mpc(1),))

        def increment(a, b):
            return (mpmath.log(b / a) + mpmath.log((b - 2) / (a - 2))) / 2

        for ell in (0, 1):
            ray = betti.trace_ray(form, crit, 0, ell, d)
            assert form.poles[ray.terminal.pole_index].location == derham.INF
            assert ray.terminal.pole_order == 1
            points = [form.zeros[0].location]
            points += [x for _, x, _ in ray.samples[:ray.n_traced]]
            with mp.workdps(30):
                oracle, f_a = mpc(0), crit.values[0]
                for a, b in zip(points[:-1], points[1:]):
                    def chord(s):
                        return mpmath.exp(-(f_a + increment(a, a + (b - a) * s)) / z)
                    oracle += (b - a) * mpmath.quad(chord, [0, 1],
                                                    method="gauss-legendre")
                    f_a += increment(a, b)
                x_cap = points[-1]

                def tail(t):
                    x = x_cap * mpmath.exp(t)
                    return mpmath.exp(-(f_a + increment(x_cap, x)) / z) * x
                oracle += mpmath.quad(tail, [0, mpmath.inf])
            for tol, bound in ((mpf("1e-10"), mpf("1e-11")),
                               (mpf("1e-14"), mpf("1e-15")),
                               (mpf("1e-30"), mpf("1e-27"))):
                val = stokes.ray_integral(ray, dx, z, tol)
                assert abs(val - oracle) < bound * abs(oracle)

    def test_omega_evaluated_once_per_node(self, gamma_form, gamma_crit,
                                           gamma_omega, monkeypatch):
        # an irregular ray grown by the sum of a later z: the table
        # evaluates omega at the new nodes only
        ray = fresh_ray(gamma_form, gamma_crit,
                        controls=TraceControls(flow_reach=10))
        traced = len(ray.samples)
        table = stokes._RayTable(ray, mpf(1) / 16, rho_at())
        calls = []
        plain = RationalForm.__call__
        # the trace evaluates the 1-form as the sum grows the ray
        alpha = (gamma_form.form, gamma_form.form.at_infinity())

        def counted(form, x):
            if form not in alpha:
                calls.append(x)
            return plain(form, x)

        def sum_at(z):
            _, stop_decay = stokes._cutoffs(ray, z, mpf("1e-12"))
            monkeypatch.setattr(RationalForm, "__call__", counted)
            stokes._exp_sum(table.terms(gamma_omega), z, stop_decay)
            monkeypatch.setattr(RationalForm, "__call__", plain)

        sum_at(mpf("0.2"))
        first = len(table.nodes)
        sum_at(mpf("0.5"))
        assert len(ray.samples) > traced
        assert len(table.nodes) > first
        assert len(calls) == len(table.nodes)

    def test_one_sequence_per_ray(self, gamma_form, gamma_crit, gamma_omega,
                                  monkeypatch):
        # the d = 0 backward ray ends in the simple pole at 0: two z with
        # different chord spans and one tail panel width (the rates
        # 1/|z| + 1 of z = 0.2 and 0.3 fall in one power of two) lay one
        # table of chords from the zero each and share the pole tail, and
        # omega is evaluated once per node laid over chords and tail
        ray = fresh_ray(gamma_form, gamma_crit, 1)
        assert ray.terminal.pole_order == 1
        tol, zs = mpf("1e-12"), (mpf("0.2"), mpf("0.3"))
        spans = [stokes._quantized_df(z, tol) for z in zs]
        assert len(set(spans)) == 2
        widths = {stokes._quantized_df(1 / (1 / z + 1), tol) for z in zs}
        assert len(widths) == 1
        rho, width = rho_at(), widths.pop()
        calls = []
        plain = RationalForm.__call__
        alpha = (gamma_form.form, gamma_form.form.at_infinity())

        def counted(form, x):
            if form not in alpha:
                calls.append(x)
            return plain(form, x)

        monkeypatch.setattr(RationalForm, "__call__", counted)
        for z in zs:
            stokes.ray_integral(ray, gamma_omega, z, tol)
        monkeypatch.setattr(RationalForm, "__call__", plain)
        quad = ray.quadrature
        assert set(quad.spans) == {(span, rho) for span in spans}
        assert list(quad.tails) == [width]
        tail = quad.tails[width]
        parts = [quad.parts(span, rho, width) for span in spans]
        tables = [p[0] for p in parts]
        assert tables[0] is not tables[1]
        assert all(table.chords[0][0] == 0 for table in tables)
        assert parts[0][1] is parts[1][1] is tail
        assert tail.nodes
        laid = sum(len(table.nodes) for table in quad.spans.values())
        assert len(calls) == laid + len(tail.nodes)

    def test_first_chord_starts_at_the_zero(self, gamma_form, gamma_crit,
                                            gamma_omega):
        # the first chord runs from the zero q, sample 0 of the table with
        # f = c, and every sample it covers lies inside the pole-free
        # disk around q, so it integrates the same as the traced path
        # (Cauchy); the integrand is analytic at q, which bounds nothing
        q = gamma_form.zeros[0].location
        c = gamma_crit.values[0]
        tol = mpf("1e-12")
        for ell in (0, 1):
            ray = fresh_ray(gamma_form, gamma_crit, ell)
            radius = min(abs(p - q) for p in stokes._chart_poles(ray, "affine"))
            for z in (mpf("0.02"), mpf("0.1"), mpf("0.45")):
                span = stokes._quantized_df(z, tol)
                stokes.ray_integral(ray, gamma_omega, z, tol)
                table = ray.quadrature.parts(span, rho_at(tol))[0]
                assert table.sample(0) == (0, q, c)
                assert table.sample(1) == ray.samples[0]
                start, end = table.chords[0]
                assert start == 0 and end > 1
                for i in range(1, end + 1):
                    _, x, f = table.sample(i)
                    assert abs(x - q) < radius
                    assert abs(f - c) <= span
                # the chord's first node lies between q and the seed
                first = table.nodes[0][0]
                assert abs(first - q) < abs(table.sample(1)[1] - q)

    def test_first_chord_ended_by_the_span(self):
        # 30 (x - 1)/x dx: f = 30 (x - log x) rises 30 times faster than on
        # the Gamma form, so the span, not the pole-free disk, ends the
        # first chord; the d = 0 thimble integral of dx/x is
        # Gamma(30/z) (z/30)^(30/z)
        form = derham.analyze([-30, 30], [0, 1])
        lat = derham.period_lattice(form)
        crit = derham.critical_values(form, 1, [[1]], lat=lat, offset=30)
        omega = RationalForm((mpc(1),), (mpc(0), mpc(1)))
        q, c = form.zeros[0].location, crit.values[0]
        path = betti.trace_thimble(form, crit, 0, 0, 0)
        tol = mpf("1e-14")
        for z in (mpf("0.5"), mpf("0.2"), mpf("0.1")):
            val = stokes.exp_integral(path, omega, crit, z, tol)
            s = 30 / z
            ref = mpmath.gamma(s) / s ** s
            assert abs(val - ref) <= mpf("1e-20") * abs(ref)
        span = stokes._quantized_df(mpf("0.1"), tol)
        for ray in (path.forward, path.backward):
            table = ray.quadrature.parts(span, rho_at(tol))[0]
            end = table.chords[0][1]
            _, x, f = table.sample(end + 1)
            assert abs(x - q) < abs(q)
            assert abs(f - c) > span

    def test_gamma_form_far_from_the_origin(self):
        # (x - 1e6 - 1)/(x - 1e6) dx: the Gamma form moved by 1e6, traced in
        # floats on offsets from points near 1e6; the forward ray runs out to
        # the 1/x chart beyond 4e6, past the default arc-length budget
        shift = mpf(10) ** 6
        form = derham.analyze([-shift - 1, 1], [-shift, 1])
        q = shift + 1
        crit = derham.critical_values(form, q, [[q]],
                                      lat=derham.period_lattice(form), offset=1)
        path = betti.trace_thimble(form, crit, 0, 0, 0,
                                   TraceControls(max_arc_length=mpf(10) ** 8))
        omega = RationalForm((mpc(1),), (-shift, mpc(1)))
        z = mpf("0.3")
        val = stokes.exp_integral(path, omega, crit, z, mpf("1e-14"))
        assert abs(val - gamma_closed(z)) <= mpf("1e-20") * abs(gamma_closed(z))

    def test_cold_thimble_omega_count(self, gamma_form, gamma_crit,
                                      gamma_omega, monkeypatch):
        # one z on a cold d = 0 Gamma thimble: the first chord runs from
        # the zero over the short steps next to it
        monkeypatch.setattr(betti._traced_ray, "cache", {})
        path = betti.trace_thimble(gamma_form, gamma_crit, 0, 0, 0)
        calls = []
        plain = RationalForm.__call__
        alpha = (gamma_form.form, gamma_form.form.at_infinity())

        def counted(form, x):
            if form not in alpha:
                calls.append(x)
            return plain(form, x)

        monkeypatch.setattr(RationalForm, "__call__", counted)
        stokes.exp_integral(path, gamma_omega, gamma_crit, mpf("0.1"),
                            tol=mpf("1e-10"))
        monkeypatch.setattr(RationalForm, "__call__", plain)
        assert len(calls) <= 600

    def test_span_from_the_tolerance(self):
        # the largest power of two whose n-point Gauss remainder for
        # exp(-f/z), (n!)^4 / ((2n+1) ((2n)!)^3) (L/|z|)^(2n), stays at
        # most 1e-6 tol
        n, rem = stokes._CHORD_NODES, remainder()
        assert abs(stokes._REMAINDER - rem) <= mpf("1e-12") * rem
        for z_abs, tol in ((mpf("0.3"), mpf("1e-14")), (mpf("0.07"), mpf("1e-10")),
                           (mpf("0.45"), mpf("1e-16")), (mpf(1), mpf("1e-30"))):
            span = stokes._quantized_df(z_abs, tol)
            assert span == widest_power_of_two(
                lambda w: rem * (w / z_abs) ** (2 * n) <= mpf("1e-6") * tol)

    def test_frontier_sum_is_call_order_free(self, gamma_form, gamma_crit,
                                             gamma_omega):
        # z = 0.1 on the d = 0 forward ray, alone and after z = 0.45 has
        # laid the same span's chords further along; then against the
        # same chords from the zero laid over the whole first trace
        tol, z = mpf("1e-12"), mpf("0.1")
        span = stokes._quantized_df(z, tol)
        alone, after, full = (fresh_ray(gamma_form, gamma_crit)
                              for _ in range(3))
        stokes.ray_integral(after, gamma_omega, mpf("0.45"), tol, span)
        value = stokes.ray_integral(alone, gamma_omega, z, tol, span)
        assert stokes.ray_integral(after, gamma_omega, z, tol, span) == value
        laid = [ray.quadrature.parts(span, rho_at(tol))[0]
                for ray in (alone, after)]
        assert len(laid[1].nodes) > len(laid[0].nodes)
        assert laid[0].chords[0][0] == 0
        table, = stokes._RayQuadrature.of(full).parts(span, rho_at(tol))
        traced_end = lay_traced(table)
        assert len(table.nodes) > len(laid[1].nodes)
        assert traced_end == len(alone.samples) == len(after.samples)
        _, stop_decay = stokes._cutoffs(full, z, tol)
        assert stokes._exp_sum(table.terms(gamma_omega), z, stop_decay)[0] == value

    def test_frontier_stops_at_the_decay_cutoff(self, gamma_form, gamma_crit,
                                                gamma_omega, monkeypatch):
        # chords are laid up to the first that starts past the cut-off,
        # and omega is evaluated once per laid node
        tol, z = mpf("1e-12"), mpf("0.1")
        ray = fresh_ray(gamma_form, gamma_crit)
        table = stokes._RayTable(ray, stokes._quantized_df(z, tol), rho_at(tol))
        _, stop_decay = stokes._cutoffs(ray, z, tol)
        calls = []
        plain = RationalForm.__call__

        def counted(form, x):
            calls.append(x)
            return plain(form, x)

        monkeypatch.setattr(RationalForm, "__call__", counted)
        stokes._exp_sum(table.terms(gamma_omega), z, stop_decay)
        monkeypatch.setattr(RationalForm, "__call__", plain)
        assert len(calls) == len(table.nodes)
        starts = [mpmath.re(table.sample(start)[2] / z) for start, _ in table.chords]
        assert all(s <= stop_decay for s in starts[:-1])
        assert table.chords[-1][1] < len(ray.samples)

    def test_thimble_side_never_builds_the_series(self, gamma_form, gamma_crit,
                                                  gamma_omega, monkeypatch):
        def forbidden(*args):
            raise AssertionError("local-coordinate series built")

        monkeypatch.setattr(derham, "local_coordinate_series", forbidden)
        # a cold memo, so the rays are traced under the patch
        monkeypatch.setattr(betti._traced_ray, "cache", {})
        path = betti.trace_thimble(gamma_form, gamma_crit, 0, 0, 0)
        z = mpf("0.3")
        val = stokes.exp_integral(path, gamma_omega, gamma_crit, z,
                                  tol=mpf("1e-12"))
        ref = gamma_closed(z)
        assert abs(val - ref) <= mpf("1e-10") * abs(ref)

    def test_borel_side_never_builds_the_primitive(self, gamma_form,
                                                   gamma_crit, gamma_omega,
                                                   monkeypatch):
        class Forbidden:
            def __init__(self, *args):
                raise AssertionError("closed-form primitive called")

        monkeypatch.setattr(derham, "Primitive", Forbidden)
        # cold caches, so the series is computed under the patch
        monkeypatch.setattr(derham.formal_comparison, "cache", {})
        monkeypatch.setattr(derham.local_coordinate_series, "cache", {})
        series = derham.formal_comparison(gamma_omega, gamma_form, 0, 26)[0]
        zs = [mpf("0.1"), mpf("0.3") * mpmath.exp(1j * mpf("0.5"))]
        summed = summation.borel_sum(stokes._flip_z(series), 0, zs,
                                     tail_cut=mpf("1e-10"))
        for z, val in summed.points:
            ref = dual_entry_closed(z)
            assert abs(val - ref) <= mpf("1e-8") * abs(ref)
        with pytest.raises(AssertionError):
            betti.ThimbleRay(gamma_form, gamma_crit, 0, 0, 0, TraceControls())


class TestRemainderBudget:
    """Chords, their Bernstein ellipses and the pole-tail panels are sized
    by one n-point remainder budget, 1e-6 tol, n = stokes._CHORD_NODES:
    the integrals meet tol against closed forms from loose to tight
    tolerances."""

    tols = (mpf("1e-10"), mpf("1e-14"), mpf("1e-20"), mpf("1e-30"))

    def test_gamma_thimble_across_the_stokes_ray(self, gamma_form, gamma_crit,
                                                 gamma_omega):
        # d = 0 (the backward ray runs straight into the simple pole at
        # 0) and d = pi/2 + 0.2 (the backward ray circles that pole),
        # traced at rk_tol 1e-8 as perfbench's gamma-crossing does; then
        # acceptance criterion 3's d = 0 and d = pi - 0.2 at its smallest
        # and largest z on the ray pi/2 - 0.1, 1.47 from both, where the
        # sums read far along each ray.  Past the Stokes ray pi/2 the
        # thimble integral picks up the factor 1 - exp(-2 pi i/z)
        controls = TraceControls(rk_tol=mpf("1e-8"))
        unit = mpmath.exp(1j * (mp.pi / 2 - mpf("0.1")))
        cases = [(mpf(0), False,
                  [mpf("0.15"), mpf("0.4") * mpmath.exp(1j * mpf("0.6"))]),
                 (mp.pi / 2 + mpf("0.2"), True,
                  [mpf("0.3") * mpmath.exp(1j * mpf("0.9")),
                   mpf("0.5") * mpmath.exp(1j * mpf("1.3"))]),
                 (mpf(0), False, [mpf("0.3") * unit, mpf("0.45") * unit]),
                 (mp.pi - mpf("0.2"), True, [mpf("0.3") * unit, mpf("0.45") * unit])]
        for d, crossed, zs in cases:
            path = betti.trace_thimble(gamma_form, gamma_crit, 0, 0, d, controls)
            for z in zs:
                ref = gamma_closed(z)
                if crossed:
                    ref *= 1 - mpmath.exp(-2j * mp.pi / z)
                for tol in self.tols:
                    val = stokes.exp_integral(path, gamma_omega, gamma_crit, z, tol)
                    assert abs(val - ref) <= tol / 10 * abs(ref)

    def test_bessel_thimble(self, gamma_omega):
        # (x^2 - 1)/x^2 dx, f = x + 1/x: the d = 0 thimble through x = 1
        # runs from the double pole at 0 to the one at infinity, and the
        # integral of exp(-f/z) dx/x over it is 2 K_0(2/z)
        form = derham.analyze([-1, 0, 1], [0, 0, 1])
        crit = derham.critical_values(form, 1, [[1], [mpc(0, 1), -1]],
                                      lat=derham.period_lattice(form), offset=2)
        path = betti.trace_thimble(form, crit, 0, 0, 0)
        for z in (mpf("0.2"), mpf("0.5"), mpf("0.4") * mpmath.exp(1j * mpf("0.5"))):
            ref = 2 * mpmath.besselk(0, 2 / z)
            for tol in self.tols:
                val = stokes.exp_integral(path, gamma_omega, crit, z, tol)
                assert abs(val - ref) <= tol / 10 * abs(ref)

    def test_chord_bounds_count_guard(self, gamma_form, gamma_crit):
        # the d = 0 thimble over its first trace at span 8 and tol 1e-6, in
        # chunks of n nodes: without the ellipse the backward ray's chords
        # would run into the pole at 0 (1 chunk, not 2), and without the
        # pole-free disk the forward ray would lay 15 chunks, not 17
        n = stokes._CHORD_NODES
        rho = rho_at("1e-6")
        assert 1 / rho == widest_power_of_two(lambda w: w ** (2 * n) <= mpf("1e-12"))
        laid = []
        for ell in (0, 1):
            table = stokes._RayTable(fresh_ray(gamma_form, gamma_crit, ell), 8, rho)
            lay_traced(table)
            laid.append(len(table.nodes))
        assert laid == [17 * n, 2 * n]

    def test_tail_panels_from_the_budget(self, gamma_form, gamma_crit,
                                         gamma_omega):
        # the d = 0 backward tail at z = 0.3: rate |res/z| + |n_om - 1| + 1
        # = 13/3 for omega = dx/x, so panels of the widest power of two in
        # tau whose remainder at that rate meets the budget, one width per
        # tolerance; the ellipse parameter is the smallest power of two
        # whose rho^-2n meets it
        n, rem = stokes._CHORD_NODES, remainder()
        ray = fresh_ray(gamma_form, gamma_crit, 1)
        z, rate = mpf("0.3"), mpf(13) / 3
        widths = []
        for tol in (mpf("1e-12"), mpf("1e-30")):
            budget = mpf("1e-6") * tol
            width = widest_power_of_two(lambda w: rem * (w * rate) ** (2 * n) <= budget)
            stokes.ray_integral(ray, gamma_omega, z, tol)
            assert width in ray.quadrature.tails
            widths.append(width)
            inverse_rho = widest_power_of_two(lambda w: w ** (2 * n) <= budget)
            assert stokes._bernstein_rho(tol) == 1 / inverse_rho
        assert widths[0] > widths[1]

    def test_criterion_3_reads_few_nodes(self, gamma_form, gamma_crit,
                                         monkeypatch):
        # acceptance criterion 3's plus-side pair of sectorial matrices
        # reads 19,951 nodes over all its sums; the 12-point chords after
        # a seed gap read 56,918
        monkeypatch.setattr(betti._traced_ray, "cache", {})
        read = []
        plain = stokes._exp_sum

        def counting(terms, z, stop_decay):
            def each():
                for term in terms:
                    read.append(None)
                    yield term
            return plain(each(), z, stop_decay)

        monkeypatch.setattr(stokes, "_exp_sum", counting)
        unit = mpmath.exp(1j * (mp.pi / 2 - mpf("0.1")))
        grid = [mpf(r) * unit for r in ("0.3", "0.33", "0.36", "0.39", "0.42", "0.45")]
        for d in (0, mp.pi - mpf("0.2")):
            stokes.sector_matrix(gamma_form, gamma_crit, d, grid, asy_order=4,
                                 tol=mpf("1e-14"))
        assert len(read) <= 56918 // 2


class TestCallOrder:
    """A result depends on its inputs and the precision, not on what ran
    before: sums grow a ray by its one fixed sequence of samples."""

    # criterion 3's far ray: exp(-f/z) decays slowly along it, so its sums
    # read far past the first trace
    d = mp.pi - mpf("0.2")
    unit = mpmath.exp(1j * (mp.pi / 2 - mpf("0.1")))

    def test_far_ray_alone_and_after_a_larger_z(self, gamma_form, gamma_crit,
                                                gamma_omega):
        tol = mpf("1e-14")
        z1, z2 = mpf("0.3") * self.unit, mpf("0.45") * self.unit
        for ell in (0, 1):
            alone = fresh_ray(gamma_form, gamma_crit, ell, self.d)
            after = fresh_ray(gamma_form, gamma_crit, ell, self.d)
            stokes.ray_integral(after, gamma_omega, z2, tol)
            assert (stokes.ray_integral(after, gamma_omega, z1, tol)
                    == stokes.ray_integral(alone, gamma_omega, z1, tol))

    def test_pole_tail_alone_and_after_a_larger_z(self, gamma_form, gamma_crit,
                                                  gamma_omega):
        # the d = 0 backward ray ends in the simple pole at 0; z = 0.45
        # lays its tail further than z = 0.3 reads on its own
        ray = betti.trace_thimble(gamma_form, gamma_crit, 0, 0, 0).backward
        assert ray.terminal.pole_order == 1
        z1, z2 = mpf("0.3"), mpf("0.45")
        alone = fresh_ray(gamma_form, gamma_crit, ray.ell)
        after = fresh_ray(gamma_form, gamma_crit, ray.ell)
        stokes.ray_integral(after, gamma_omega, z2)
        assert (stokes.ray_integral(after, gamma_omega, z1)
                == stokes.ray_integral(alone, gamma_omega, z1))

    def test_grown_ray_equals_a_longer_trace(self, gamma_form, gamma_crit,
                                             gamma_omega):
        controls = TraceControls(rk_tol=mpf("1e-8"), flow_reach=10)
        grown = fresh_ray(gamma_form, gamma_crit, 0, self.d, controls)
        traced = len(grown.samples)
        for r in ("0.3", "0.45"):
            stokes.ray_integral(grown, gamma_omega, mpf(r) * self.unit)
        assert len(grown.samples) > traced
        reach = grown.flow_progress(grown.samples[-1][2])
        longer = fresh_ray(gamma_form, gamma_crit, 0, self.d,
                           TraceControls(rk_tol=mpf("1e-8"), flow_reach=reach))
        assert longer.samples == grown.samples

    def test_csv_lists_the_first_trace(self, gamma_form, gamma_crit,
                                       gamma_omega, monkeypatch):
        monkeypatch.setattr(betti._traced_ray, "cache", {})
        path = betti.trace_thimble(gamma_form, gamma_crit, 0, 0, self.d,
                                   TraceControls(rk_tol=mpf("1e-8")))
        text = path.to_csv()
        traced = len(path.forward.samples)
        stokes.ray_integral(path.forward, gamma_omega, mpf("0.45") * self.unit)
        assert len(path.forward.samples) > traced
        assert path.to_csv() == text

    def test_matrix_alone_and_after_a_larger_grid(self, gamma_form, gamma_crit,
                                                  monkeypatch):
        controls = TraceControls(rk_tol=mpf("1e-8"))
        small = [mpf(r) * self.unit for r in ("0.3", "0.33")]
        large = [mpf(r) * self.unit for r in ("0.42", "0.45")]

        def artifact(*grids):
            monkeypatch.setattr(betti._traced_ray, "cache", {})
            for grid in grids:
                sm = stokes.sector_matrix(gamma_form, gamma_crit, self.d, grid,
                                          asy_order=4, controls=controls)
            return json.dumps(sm.to_json())

        assert artifact(large, small) == artifact(small)


class TestSectorialMatrix:
    def test_entries_vs_closed_form_and_asy(self, gamma_form, gamma_crit):
        zs = [mpf("0.02"), mpf("0.05"), mpf("0.1"), mpf("0.2")]
        sm = stokes.sector_matrix(gamma_form, gamma_crit, 0, zs, asy_order=8,
                                  tol=mpf("1e-12"))
        vals = sm.entries[(0, 0)]
        for z, v in zip(zs, vals):
            ref = dual_entry_closed(z)
            assert abs(v - ref) <= mpf("1e-9") * abs(ref)
        # Gevrey asymptotics of the entries against the reduction series
        report = gevrey.check_asymptotic(list(zip(sm.z_grid, vals)),
                                         sm.asy[(0, 0)], 6)
        assert report.passed
        # leading slope from samples matches the first series coefficient 1/12
        slope = (vals[0] - 1) / zs[0]
        assert abs(slope - mpf(1) / 12) < mpf("0.01")

    def test_borel_sum_reproduces_entries(self, gamma_form, gamma_crit,
                                          gamma_lattice):
        from stokeswb import summation, lattice
        zs = [mpf("0.1"), mpf("0.25"), mpf("0.4") * mpmath.exp(1j * mpf("0.7"))]
        sm = stokes.sector_matrix(gamma_form, gamma_crit, 0, zs, asy_order=40,
                                  tol=mpf("1e-12"))
        sing = lattice.critical_differences(gamma_crit.representatives,
                                            gamma_lattice, 40)
        summed = summation.borel_sum(sm.asy[(0, 0)], 0, zs,
                                     tail_cut=mpf("1e-10"),
                                     known_singularities=sing)
        for (z, s_val), direct in zip(summed.points, sm.entries[(0, 0)]):
            assert abs(s_val - direct) <= mpf("1e-6") * abs(direct)


class TestStokesFactor:
    def overlap_grid(self, sign=1, eps=mpf("0.1")):
        ray = sign * mp.pi / 2
        return [r * mpmath.exp(1j * (ray - sign * eps))
                for r in (mpf("0.3"), mpf("0.33"), mpf("0.36"),
                          mpf("0.39"), mpf("0.42"), mpf("0.45"))]

    def test_identity_at_equal_directions(self, gamma_form, gamma_crit,
                                          gamma_lattice):
        grid = self.overlap_grid()
        xa = stokes.sector_matrix(gamma_form, gamma_crit, 0, grid, asy_order=4,
                                  tol=mpf("1e-14"))
        fac = stokes.stokes_factor(xa, xa, gamma_lattice, basis_bound=1)
        entry = fac.entries[0][0]
        assert abs(entry.terms.get((0,), mpc(0)) - 1) < mpf("1e-12")
        assert abs(entry.terms.get((1,), mpc(0))) < mpf("1e-12")
        assert fac.fit_residual < mpf("1e-12")

    def test_crossing_factors(self, gamma_form, gamma_crit, gamma_lattice):
        # across +pi/2 the decaying dictionary exponential is the lattice
        # generator (exp(-2 pi i/z)); across -pi/2 it is its inverse
        for sign, d2 in ((1, mp.pi - mpf("0.2")), (-1, -mp.pi + mpf("0.2"))):
            grid = self.overlap_grid(sign)
            xa = stokes.sector_matrix(gamma_form, gamma_crit, 0, grid,
                                      asy_order=4, tol=mpf("1e-16"))
            xb = stokes.sector_matrix(gamma_form, gamma_crit, d2, grid,
                                      asy_order=4, tol=mpf("1e-16"))
            fac = stokes.stokes_factor(xa, xb, gamma_lattice, basis_bound=2)
            entry = fac.entries[0][0]
            assert abs(entry.terms.get((0,), mpc(0)) - 1) < mpf("1e-6")
            assert abs(entry.terms.get((sign,), mpc(0)) + 1) < mpf("1e-6")
            assert fac.fit_residual < mpf("1e-6")
            # remaining dictionary terms contribute below tolerance on grid
            for g, coeff in entry.terms.items():
                if g in ((0,), (sign,)):
                    continue
                contrib = max(abs(coeff) * abs(mpmath.exp(
                    gamma_lattice.period(g) / z)) for z in grid)
                assert contrib < mpf("1e-6")

    def test_normalization_invariance(self, gamma_form, gamma_crit,
                                      gamma_lattice):
        # rescaling both matrices by the same diagonal leaves the factor
        grid = self.overlap_grid()
        xa = stokes.sector_matrix(gamma_form, gamma_crit, 0, grid, asy_order=4,
                                  tol=mpf("1e-16"))
        xb = stokes.sector_matrix(gamma_form, gamma_crit, mp.pi - mpf("0.2"),
                                  grid, asy_order=4, tol=mpf("1e-16"))
        import copy
        xa2 = copy.copy(xa)
        xb2 = copy.copy(xb)
        twist = [mpmath.exp(mpf("0.3") / z) * mpmath.sqrt(z) for z in grid]
        xa2.entries = {k: [v * t for v, t in zip(vals, twist)]
                       for k, vals in xa.entries.items()}
        xb2.entries = {k: [v * t for v, t in zip(vals, twist)]
                       for k, vals in xb.entries.items()}
        f1 = stokes.stokes_factor(xa, xb, gamma_lattice, basis_bound=2)
        f2 = stokes.stokes_factor(xa2, xb2, gamma_lattice, basis_bound=2)
        for g in ((0,), (1,)):
            a = f1.entries[0][0].terms.get(g, mpc(0))
            b = f2.entries[0][0].terms.get(g, mpc(0))
            assert abs(a - b) < mpf("1e-8")

    def test_dropped_grid_points_are_reported(self):
        # diag(1, t) has 1-norm condition number t; a cap between 10 and
        # 1000 leaves out the last two points, and the singular one is
        # left out at any cap
        lat = derham.period_lattice(derham.analyze([0, 0, 1], [1]))
        grid = [mpf(r) for r in ("0.3", "0.35", "0.4", "0.45", "0.5")]
        mats = [[[1, 0], [0, t]] for t in (1, 10, 1000, 10 ** 4)]
        mats.append([[1, 1], [1, 1]])
        rows = [(0, 0), (0, 1)]
        entries = {(r, c): [mpc(m[r][c]) for m in mats]
                   for r in range(2) for c in range(2)}
        xi = stokes.SectorialMatrix(0, grid, rows, [None, None], entries, {},
                                    [mpc(0)])
        fac = stokes.stokes_factor(xi, xi, lat, cond_cap=mpf(100))
        assert fac.overlap_grid == grid[:2]
        assert fac.dropped == grid[2:]
        assert fac.fit_residual == 0
        fac = stokes.stokes_factor(xi, xi, lat)
        assert fac.overlap_grid == grid[:4]
        assert fac.dropped == grid[4:]

    def test_fit_needs_a_point_per_dictionary_term(self, gamma_lattice):
        # the Gamma lattice at basis bound 2 gives 5 terms: 4 kept points
        # cannot determine them, 5 can
        assert len(stokes.fit_dictionary(gamma_lattice, 2)) == 5
        grid = [mpf(r) for r in ("0.3", "0.33", "0.36", "0.39", "0.42")]

        def sampled(points):
            return stokes.SectorialMatrix(0, points, [(0, 0)], [None],
                                          {(0, 0): [mpc(1)] * len(points)},
                                          {}, [mpc(0)])
        with pytest.raises(FitResidualTooLarge):
            stokes.stokes_factor(sampled(grid[:4]), sampled(grid[:4]),
                                 gamma_lattice)
        fac = stokes.stokes_factor(sampled(grid), sampled(grid), gamma_lattice)
        assert fac.overlap_grid == grid

    def test_cocycle(self, gamma_form, gamma_crit, gamma_lattice):
        # S(d1,d2) S(d2,d3) = S(d1,d3) on a common grid: with d1, d2 on one
        # side of the crossing the first factor is the identity
        d1, d2, d3 = mpf("0.3"), mpf("1.2"), mpf("2.2")
        grid = [r * mpmath.exp(1j * mpf("1.45"))
                for r in (mpf("0.3"), mpf("0.35"), mpf("0.4"))]
        grid += [r * mpmath.exp(1j * mpf("1.3")) for r in (mpf("0.32"), mpf("0.38"))]
        mats = {d: stokes.sector_matrix(gamma_form, gamma_crit, d, grid,
                                        asy_order=4, tol=mpf("1e-16"))
                for d in (d1, d2, d3)}
        s12 = stokes.stokes_factor(mats[d1], mats[d2], gamma_lattice, 2)
        s23 = stokes.stokes_factor(mats[d2], mats[d3], gamma_lattice, 2)
        s13 = stokes.stokes_factor(mats[d1], mats[d3], gamma_lattice, 2)
        budget = s12.fit_residual + s23.fit_residual + s13.fit_residual
        for z in grid:
            lhs = s12.evaluate(z)[0][0] * s23.evaluate(z)[0][0]
            rhs = s13.evaluate(z)[0][0]
            assert abs(lhs - rhs) <= 10 * budget + mpf("1e-10")


class TestComparison:
    def test_gamma_small_grid(self, gamma_form, gamma_crit):
        zs = [mpf("0.06"), mpf("0.2") * mpmath.exp(1j * mpf("0.9")),
              mpf("0.45") * mpmath.exp(-1j * mpf("0.6"))]
        rep = stokes.comparison_check(gamma_form, gamma_crit, 0, zs,
                                      asy_order=40, tol=mpf("1e-6"))
        assert rep.passed
        assert rep.max_rel_discrepancy < mpf("1e-6")

    def test_sector_boundary_points(self, gamma_form, gamma_crit):
        edge = mp.pi / 2 - mpf("0.05")
        zs = [mpf("0.05") * mpmath.exp(1j * edge),
              mpf("0.05") * mpmath.exp(-1j * edge)]
        rep = stokes.comparison_check(gamma_form, gamma_crit, 0, zs,
                                      asy_order=44, tol=mpf("1e-6"),
                                      quad_tol=mpf("1e-10"))
        assert rep.passed

    def test_rank_zero_local_model(self):
        # x^2 dx: no residues, trivial lattice, classical local comparison
        form = derham.analyze([0, 0, 1], [1])
        lat = derham.period_lattice(form)
        crit = derham.critical_values(form, 0, [[0]], lat=lat)
        zs = [mpf("0.1"), mpf("0.3")]
        rep = stokes.comparison_check(form, crit, mpf("0.15"), zs,
                                      asy_order=8, tol=mpf("1e-8"))
        assert rep.passed
        assert rep.max_rel_discrepancy < mpf("1e-8")


class TestDigamma:
    def entry_function(self, gamma_form, gamma_crit, gamma_omega, d):
        rays = [betti.trace_ray(gamma_form, gamma_crit, 0, ell, d)
                for ell in (0, 1)]

        def entry(z):
            vals = [stokes.ray_integral(r, gamma_omega, z, mpf("1e-14"))
                    for r in rays]
            h = betti.local_normalizer(1, 0, z, d)
            return (vals[0] - vals[1]) * mpmath.exp(gamma_crit.values[0] / z) / h

        return entry

    def test_primary_family(self, gamma_form, gamma_crit, gamma_omega):
        entry = self.entry_function(gamma_form, gamma_crit, gamma_omega, 0)
        rep = stokes.digamma_connection_check(
            1, 0, [mpf("0.2"), mpf("0.35")], entry)
        assert rep.passed
        assert rep.max_rel_error < mpf("1e-5")
        assert rep.series_match

    def test_secondary_family(self, gamma_form, gamma_crit, gamma_omega):
        d = mp.pi - mpf("0.2")
        entry = self.entry_function(gamma_form, gamma_crit, gamma_omega, d)
        zs = [mpf("0.3") * mpmath.exp(1j * mpf("2.2")),
              mpf("0.4") * mpmath.exp(1j * mpf("2.0"))]
        rep = stokes.digamma_connection_check(1, d, zs, entry,
                                              branch="secondary")
        assert rep.passed
