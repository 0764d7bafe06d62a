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


class TestNodeTable:
    def test_drift_at_working_precision(self, gamma_thimble):
        # the table's chained primitive, closed at each sample, against
        # the traced f, on the irregular and the simple-pole ray
        bound = mpf(2) ** (-mp.prec // 2)
        for ray in (gamma_thimble.forward, gamma_thimble.backward):
            table = stokes._RayTable(ray, mpf(1) / 16)
            while table.lay_chord():
                pass
            f_max = max(abs(f) for _, _, f in ray.samples)
            assert table.drift <= bound * max(1, f_max)

    def test_chords_span_several_samples(self, gamma_form, gamma_crit):
        # on a far ray, chords merge the short steps of the irregular tail
        # but keep each chunk's two bounds: at most df_max of f, and inside
        # the tracer's step cap at the chord's first sample
        ray = betti.trace_ray(gamma_form, gamma_crit, 0, 0,
                              mp.pi - mpf("0.2"))
        df_max = mpf(1) / 4
        table = stokes._RayTable(ray, df_max)
        while table.lay_chord():
            pass
        samples = ray.samples
        switch = ray._switch_radius
        assert table.chords[0][0] == 0
        assert table.chords[-1][1] == len(samples) - 1
        for (_, end), (start, _) in zip(table.chords, table.chords[1:]):
            assert start == end
        for start, end in table.chords:
            x0, f0 = samples[start][1], samples[start][2]
            use_inf = abs(x0) > switch and abs(samples[start + 1][1]) > switch
            a_pt = 1 / x0 if use_inf else x0
            cap = ray._step_cap(derham.INF if use_inf else "affine", a_pt)
            for _, x, f in samples[start + 1:end + 1]:
                assert abs((1 / x if use_inf else x) - a_pt) <= cap
                if end > start + 1:
                    assert abs(f - f0) <= df_max
        chunks = len(table.nodes) // table.n_nodes
        assert chunks < len(samples) - 1
        f_max = max(abs(f) for _, _, f in samples)
        assert table.drift <= mpf(2) ** (-mp.prec // 2) * max(1, f_max)

    def test_tail_follows_the_primitive(self, gamma_form, gamma_crit,
                                        gamma_thimble):
        ray = gamma_thimble.backward
        assert ray.terminal.pole_order == 1
        quad = stokes._RayQuadrature.of(ray)
        quad.ensure_tail(4)
        x_cap, f_cap = ray.terminal.capture_point, ray.terminal.f_capture
        for x, f, _ in (quad.tail_nodes[0], quad.tail_nodes[-1]):
            with mp.workprec(mp.prec + 32):
                ref = f_cap + mpmath.quad(gamma_form.form, [x_cap, x])
            assert abs(f - ref) < mpf("1e-60") * abs(ref)

    def test_omega_evaluated_once_per_node(self, gamma_form, gamma_crit,
                                           gamma_omega, monkeypatch):
        # an irregular ray extended for a later z: the table evaluates
        # omega at the new nodes only
        local = derham.local_coordinate_series(gamma_form, 0, 16)
        ray = betti.ThimbleRay(gamma_form, gamma_crit, 0, 0, 0, local,
                               TraceControls(flow_reach=10))
        table = stokes._RayTable(ray, mpf(1) / 16)
        calls = []
        plain = RationalForm.__call__

        def counted(form, x):
            calls.append(x)
            return plain(form, x)

        def sum_at(z):
            monkeypatch.setattr(RationalForm, "__call__", counted)
            table.integral(gamma_omega, z)
            monkeypatch.setattr(RationalForm, "__call__", plain)

        sum_at(mpf("0.2"))
        first = len(table.nodes)
        ray.ensure_flow_reach(30)
        sum_at(mpf("0.5"))
        assert len(table.nodes) > first
        assert len(calls) == len(table.nodes)

    def test_span_from_the_tolerance(self):
        # the largest power of two whose 12-point Gauss remainder for
        # exp(-f/z), 8.8e-39 (L/|z|)^24, stays at most 1e-6 tol
        assert stokes._quantized_df(mpf("0.3"), mpf("1e-14")) == 1
        for z_abs, tol in ((mpf("0.07"), mpf("1e-10")), (mpf("0.45"), mpf("1e-16")),
                           (mpf(1), mpf("1e-30"))):
            span = stokes._quantized_df(z_abs, tol)
            assert mpf("8.8e-39") * (span / z_abs) ** 24 <= mpf("1e-6") * tol
            assert mpf("8.8e-39") * (2 * span / z_abs) ** 24 > mpf("1e-6") * tol

    def fresh_forward_ray(self, gamma_form, gamma_crit):
        local = derham.local_coordinate_series(gamma_form, 0, 16)
        return betti.ThimbleRay(gamma_form, gamma_crit, 0, 0, 0, local,
                                TraceControls())

    def test_frontier_sum_is_call_order_free(self, gamma_form, gamma_crit,
                                             gamma_omega):
        # z = 0.1 on the d = 0 forward ray, alone and after z = 0.45 has
        # laid the same table further along; then against the same span
        # laid to the end of the ray
        tol, z = mpf("1e-12"), mpf("0.1")
        span = stokes._quantized_df(z, tol)
        alone, after, full = (self.fresh_forward_ray(gamma_form, gamma_crit)
                              for _ in range(3))
        stokes.ray_integral(after, gamma_omega, mpf("0.45"), tol, span)
        value = stokes.ray_integral(alone, gamma_omega, z, tol, span)
        assert stokes.ray_integral(after, gamma_omega, z, tol, span) == value
        key = (span, stokes._CHORD_NODES)
        assert (len(after.quadrature.tables[key].nodes)
                > len(alone.quadrature.tables[key].nodes))
        table = stokes._RayTable(full, span)
        while table.lay_chord():
            pass
        assert len(table.nodes) > len(after.quadrature.tables[key].nodes)
        assert len(full.samples) == len(alone.samples) == len(after.samples)
        _, stop_decay = stokes._cutoffs(full, z, tol)
        seed_gap = stokes._RayQuadrature.of(full).seed_gap(gamma_omega)
        assert (stokes._exp_sum(seed_gap, z)
                + table.integral(gamma_omega, z, stop_decay)) == value

    def test_frontier_stops_at_the_decay_cutoff(self, gamma_form, gamma_crit,
                                                gamma_omega, monkeypatch):
        # chords are laid up to the first that starts past the cut-off,
        # and omega is evaluated once per laid node
        tol, z = mpf("1e-12"), mpf("0.1")
        ray = self.fresh_forward_ray(gamma_form, gamma_crit)
        table = stokes._RayTable(ray, stokes._quantized_df(z, tol))
        _, stop_decay = stokes._cutoffs(ray, z, tol)
        calls = []
        plain = RationalForm.__call__

        def counted(form, x):
            calls.append(x)
            return plain(form, x)

        monkeypatch.setattr(RationalForm, "__call__", counted)
        table.integral(gamma_omega, z, stop_decay)
        monkeypatch.setattr(RationalForm, "__call__", plain)
        assert len(calls) == len(table.nodes)
        starts = [mpmath.re(ray.samples[start][2] / z) for start, _ in table.chords]
        assert all(s <= stop_decay for s in starts[:-1])
        assert table.chords[-1][1] < len(ray.samples) - 1

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
            betti.ThimbleRay(gamma_form, gamma_crit, 0, 0, 0,
                             derham.local_coordinate_series(gamma_form, 0, 16),
                             TraceControls())


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
