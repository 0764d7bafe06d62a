import pytest
import mpmath
from mpmath import mp, mpf, mpc

from stokeswb import derham, gevrey, summation
from stokeswb.errors import (ContinuationDiverged, DivergentLaplace,
                             GrowthTooFast, NearSingularity, SingularRay,
                             WorkbenchError)
from stokeswb.gevrey import GevreySeries, from_coeffs
from stokeswb.summation import BorelFunction, borel_sum, continue_borel, laplace


# one z per stratum of log|z| over [0.05, 0.5], arg z in [-1, 1]
GRID = [mpc("0.0512", "-0.0358"), mpc("0.0703", "0.0797"), mpc("0.122", "0.0414"),
        mpc("0.146", "-0.0907"), mpc("0.240", "0.0973"), mpc("0.217", "0.299")]


def geometric(order=60):
    return BorelFunction(GevreySeries((mpc(1),) * (order + 1)),
                         known_singularities=[mpc(1)])


def dual_stirling(order):
    # the dual Stirling series of dx/x (its Bernoulli closed form), as the
    # `borel-resum` benchmark sums it
    b = derham.stirling_exponent_series(1, order)
    closed = gevrey.exp(gevrey.scale(b, -1))
    return GevreySeries(tuple(c if n % 2 == 0 else -c
                              for n, c in enumerate(closed.coeffs)))


def count_pade_evaluations(monkeypatch):
    """A one-item list that counts the Pade evaluations from now on."""
    count = [0]
    evaluate = BorelFunction._eval_pade

    def counted(self, order, powers):
        count[0] += 1
        return evaluate(self, order, powers)
    monkeypatch.setattr(BorelFunction, "_eval_pade", counted)
    return count


def euler_borel(order=60, **kw):
    # Borel transform of sum (-1)^n n! z^n is the alternating geometric series
    return BorelFunction(GevreySeries(tuple(mpc(-1) ** n
                                            for n in range(order + 1))),
                         known_singularities=[mpc(-1)], **kw)


class TestContinuation:
    def test_geometric_off_cut(self):
        g = geometric()
        for zeta in (mpc(2), mpc(0, 3), mpc(-5, 0), mpc(0, 5), mpc(-3, 3),
                     mpc(2, 4.5)):
            assert abs(continue_borel(g, zeta) - 1 / (1 - zeta)) < mpf("1e-40")

    def test_pade_vs_stepping_on_geometric(self):
        # the re-expansion stepping this once compared against is gone; the
        # closed form 1/(1 - zeta) is the reference, at the order-120 data
        # and the zeta the comparison used
        gp = geometric(120)
        for zeta in (mpc(-5, 0), mpc(0, 5), mpc(-3, 3), mpc(2, 4.5)):
            exact = 1 / (1 - zeta)
            assert abs(continue_borel(gp, zeta) - exact) <= mpf("1e-40") * abs(exact)

    def test_near_singularity_guard(self):
        with pytest.raises(NearSingularity):
            continue_borel(geometric(), 1)

    def test_guard_is_the_laplace_guard(self):
        # 2^n has its pole at 1/2; 7e-4 from it lies inside the 1e-3 guard
        # distance by which `laplace` refuses a ray
        g = BorelFunction(GevreySeries(tuple(mpc(2) ** n for n in range(61))),
                          known_singularities=[mpf("0.5")])
        assert g.guard_distance(mpf("0.5")) == mpf("1e-3")
        with pytest.raises(NearSingularity):
            continue_borel(g, mpf("0.5") + mpf("7e-4"))

    def test_stirling_borel_value_between_singularities(self):
        # the target lies between the branch points 2 pi i and 4 pi i on
        # their common axis: the rational approximant's cut runs through
        # it, so the evaluation must refuse
        b = derham.stirling_exponent_series(1, 70)
        sing = [2j * mp.pi * k for k in range(-3, 4) if k != 0]
        g = BorelFunction(gevrey.formal_borel(b), known_singularities=sing,
                          pade_order=34)
        with pytest.raises(ContinuationDiverged):
            continue_borel(g, 3j * mp.pi)

    def test_one_pade_order_refuses(self):
        # the data of 1 + z + z^2 admit only the [1/1] approximant, whose
        # pole at zeta = 2 no second order can confirm
        with pytest.raises(ContinuationDiverged, match="no second order"):
            borel_sum(GevreySeries((mpc(1),) * 3), 0, [mpf("0.1")])

    def test_pade_values_match_horner(self):
        # the values from shared powers of zeta against P/Q by Horner
        g = geometric()
        p, q = g._pade(g.pade_order)
        for zeta in (mpc("0.1"), 5 * mpmath.expj(mpf("0.5")), 40 * mpmath.expj(2)):
            num = den = mpc(0)
            for c in reversed(p):
                num = num * zeta + c
            for c in reversed(q):
                den = den * zeta + c
            want = num / den
            assert abs(continue_borel(g, zeta) - want) <= mpf("1e-70") * abs(want)

    def test_radius_estimate(self):
        assert mpmath.isinf(BorelFunction(from_coeffs([1] + [0] * 10)).radius_estimate())
        r = geometric(20).radius_estimate()
        assert abs(r - 1) < mpf("1e-30")


class TestExpSize:
    def test_constant(self):
        g = BorelFunction(from_coeffs([1] + [0] * 40))
        samples = [mpf("0.1") * mpf("1.5") ** k for k in range(12)]
        est = summation.exp_size_one_estimate(g, samples)
        assert est.h <= mpf("1e-8")
        assert abs(est.C - 1) < mpf("0.01")

    def test_exponential_growth_rate(self):
        g = BorelFunction(gevrey.formal_borel(
            from_coeffs([mpmath.factorial(n) for n in range(41)])))
        # Borel data of sum n! z^n is the geometric series; use exp data instead
        g = BorelFunction(from_coeffs([1 / mpmath.factorial(n)
                                       for n in range(41)]))
        samples = [mpf("0.5") * mpf("1.3") ** k for k in range(14)]
        est = summation.exp_size_one_estimate(g, samples)
        assert abs(est.h - 1) < mpf("0.05")

    def test_pole_straddle_flags_growth(self):
        g = geometric()
        # samples pass very close to the pole at 1 (outside the guard)
        samples = [mpf("0.1") * mpf("1.2") ** k for k in range(16)]
        samples += [mpf(1) + mpf("3e-3"), mpf(1) - mpf("3e-3")]
        with pytest.raises(GrowthTooFast):
            summation.exp_size_one_estimate(g, samples, residual_cap=3)

    def test_excluded_samples_counted(self):
        # past |zeta| ~ 9 the Pade orders of the dual Stirling data disagree
        g = BorelFunction(gevrey.formal_borel(dual_stirling(26)))
        samples = [mpf("0.5") * mpf("1.25") ** k for k in range(24)]
        diverged = 0
        for zeta in samples:
            try:
                continue_borel(g, zeta)
            except ContinuationDiverged:
                diverged += 1
        assert diverged > 0
        est = summation.exp_size_one_estimate(g, samples)
        assert est.excluded == diverged

    def test_beyond_pole_fit_is_flat(self):
        # with the near-pole region avoided the tail fit sees decay: h ~ 0
        g = geometric()
        samples = [mpf(2) + mpf(k) for k in range(0, 40, 2)]
        est = summation.exp_size_one_estimate(g, samples)
        assert est.h < mpf("0.05")


class TestLaplace:
    def test_constant_gives_one(self):
        g = BorelFunction(from_coeffs([1] + [0] * 20))
        val = laplace(g, 0, mpf("0.5"), tail_cut=mpf("1e-16"))
        assert abs(val - 1) < mpf("1e-12")

    def test_linear_gives_z(self):
        g = BorelFunction(from_coeffs([0, 1] + [0] * 20))
        z = mpf("0.25")
        val = laplace(g, 0, z, tail_cut=mpf("1e-16"))
        assert abs(val - z) < mpf("1e-12")

    def test_euler_series_value(self):
        g = euler_borel()
        val = laplace(g, 0, mpf(1), tail_cut=mpf("1e-14"))
        with mp.workprec(mp.prec * 2):
            oracle = mpmath.quad(lambda t: mpmath.exp(-t) / (1 + t),
                                 [0, mpmath.inf])
        assert abs(val - oracle) < mpf("1e-10")
        # frozen reference: e * E_1(1) = 0.59634736232319407...
        assert abs(val - mpf("0.596347362323194074341078499369")) < mpf("1e-10")

    def test_padded_polynomial_off_axis(self, monkeypatch):
        # the size fit puts the growth rate of 1 + z + z^2 near the decay
        # rate at z = e^i, so the truncation point lies far out; the far
        # panels must cost little
        s = from_coeffs([1, 1, 1] + [0] * 6)
        z = mpmath.expj(1)
        count = count_pade_evaluations(monkeypatch)
        value = borel_sum(s, 0, [z]).points[0][1]
        assert abs(value - s(z)) < mpf("1e-12")
        assert count[0] < 5000

    def test_divergent_outside_half_plane(self):
        g = euler_borel()
        with pytest.raises(DivergentLaplace):
            laplace(g, 0, mpc(-0.1, 0.01))

    def test_singular_ray(self):
        g = euler_borel()
        with pytest.raises(SingularRay):
            laplace(g, mp.pi, mpf("-0.3") + mpc(0, "0.001"))

    def test_rounded_cutoff_reaches_singularity(self):
        # with C = 1, h = 0 and tail_cut 1e-10 the cut-off for z = 0.2i
        # solves to about 4.6, short of the Borel singularity 2 pi i;
        # rounded up to 8 it passes it, so the ray is refused (at 0.1i
        # the cut-off 2.3 rounds up to 4 and the ray is accepted)
        sing = [2j * mp.pi * k for k in (-2, -1, 1, 2)]
        g = BorelFunction(gevrey.formal_borel(dual_stirling(26)),
                          known_singularities=sing)
        d = mp.pi / 2
        size = summation.ExpSizeEstimate(mpf(1), mpf(0))
        tail_cut = mpf("1e-10")
        laplace(g, d, mpc(0, "0.1"), tail_cut=tail_cut, size=size)
        with pytest.raises(SingularRay):
            laplace(g, d, mpc(0, "0.2"), tail_cut=tail_cut, size=size)

    def test_cutoff_ending_on_singularity(self):
        # the cut-off for z = -0.03 solves to about 0.83 and rounds up to
        # 1, so the ray ends on the singularity at -1
        with pytest.raises(SingularRay):
            laplace(euler_borel(), mp.pi, mpf("-0.03"))


class TestBorelSum:
    def test_polynomial_identity(self):
        s = from_coeffs([1, 1, 1] + [0] * 8)
        for d in (0, mpf("0.4")):
            out = borel_sum(s, d, [mpf("0.1") * mpmath.exp(1j * mpf(d))],
                            tail_cut=mpf("1e-14"))
            z, v = out.points[0]
            assert abs(v - s(z)) < mpf("1e-11")

    def test_euler_series_vs_quadrature(self):
        s = from_coeffs([mpmath.factorial(n) * (-1) ** n for n in range(55)])
        out = borel_sum(s, 0, [mpf("0.2")], tail_cut=mpf("1e-12"))
        with mp.workprec(mp.prec * 2):
            oracle = mpmath.quad(
                lambda t: mpmath.exp(-t / mpf("0.2")) / (1 + t),
                [0, mpmath.inf]) / mpf("0.2")
        assert abs(out.points[0][1] - oracle) < mpf("1e-10")

    def test_multiplicativity(self):
        z = mpf("0.1")
        euler = from_coeffs([mpmath.factorial(n) * (-1) ** n for n in range(41)])
        square = gevrey.mul(euler, euler)
        lhs = borel_sum(square, 0, [z], tail_cut=mpf("1e-12")).points[0][1]
        f = borel_sum(euler, 0, [z], tail_cut=mpf("1e-12")).points[0][1]
        assert abs(lhs - f * f) <= mpf("1e-8") * abs(lhs)

    def test_additivity(self):
        z = mpf("0.15")
        a = from_coeffs([mpmath.factorial(n) * (-1) ** n for n in range(31)])
        b = from_coeffs([1] * 31)
        lhs = borel_sum(gevrey.add(a, b), 0, [z]).points[0][1]
        va = borel_sum(a, 0, [z]).points[0][1]
        vb = borel_sum(b, 0, [z]).points[0][1]
        assert abs(lhs - (va + vb)) < mpf("1e-9")

    def test_watson_consistency(self):
        # the resummed function has its source series as Gevrey-1 expansion
        s = from_coeffs([mpmath.factorial(n) * (-1) ** n for n in range(25)])
        zs = [mpf("0.3") * mpf("0.5") ** k for k in range(6)]
        out = borel_sum(s, 0, zs, tail_cut=mpf("1e-20"))
        report = gevrey.check_asymptotic(out.points, s, 6)
        assert report.passed

    def test_csv_and_sidecar(self):
        s = from_coeffs([1, 1] + [0] * 5)
        out = borel_sum(s, 0, [mpf("0.1"), mpf("0.2")])
        text = out.to_csv()
        assert text.splitlines()[0] == "z_re,z_im,f_re,f_im"
        assert len(text.splitlines()) == 3
        side = out.sidecar()
        assert side["source_hash"] == summation.series_hash(s)


    def test_size_fit_failure_is_typed(self):
        # at order 24 the continuation of the dual Stirling data is stable
        # at too few radii for the size fit
        with pytest.raises(WorkbenchError):
            borel_sum(dual_stirling(24), 0, [mpf("0.2")], tail_cut=mpf("1e-10"))

    def test_grid_shares_borel_values(self, monkeypatch):
        # the nodes of every z lie on one dyadic ladder, so the grid costs
        # about what its largest |z| costs alone
        s = dual_stirling(26)
        count = count_pade_evaluations(monkeypatch)
        borel_sum(s, 0, GRID, tail_cut=mpf("1e-10"))
        grid = count[0]
        count[0] = 0
        borel_sum(s, 0, [max(GRID, key=abs)], tail_cut=mpf("1e-10"))
        assert grid <= mpf("1.25") * count[0]


class TestCallOrder:
    """A Borel-side value depends on its inputs, not on what ran before."""

    def test_grid_point_equals_its_sum_alone(self):
        s = from_coeffs([mpmath.factorial(n) * (-1) ** n for n in range(31)])
        points = borel_sum(s, 0, GRID).points
        for z, value in points:
            assert borel_sum(s, 0, [z]).points == [(z, value)]

    def test_laplace_alone_and_after_other_z(self):
        g = euler_borel(40)
        size = summation._default_size(g, 0)
        z = GRID[2]
        alone = laplace(g, 0, z, size=size)
        for other in GRID[::-1]:
            laplace(g, 0, other, size=size)
        assert laplace(g, 0, z, size=size) == alone
        # and with the other z's nodes continued first
        after = euler_borel(40)
        for other in GRID[::-1]:
            laplace(after, 0, other, size=size)
        assert laplace(after, 0, z, size=size) == alone

    def test_continuation_alone_and_after_a_farther_zeta(self):
        for near, far in ((mpc(-3, 0), mpc(-8, 0)), (mpc(-2, 2), mpc(-6, 6))):
            after = geometric()
            continue_borel(after, far)
            assert continue_borel(after, near) == continue_borel(geometric(), near)

    def test_sum_alone_and_after_a_larger_grid(self):
        s = from_coeffs([mpmath.factorial(n) * (-1) ** n for n in range(31)])
        small = [mpf("0.1"), mpf("0.2")]
        alone = borel_sum(s, 0, small).points
        borel_sum(s, 0, small + [mpf("0.3"), mpf("0.45")])
        assert borel_sum(s, 0, small).points == alone


class TestSingularityLocation:
    def test_geometric(self):
        g = geometric(40)
        poles = summation.locate_borel_singularities(g, 3)
        assert len(poles) == 1
        assert abs(poles[0] - 1) < mpf("1e-20")

    def test_euler(self):
        g = euler_borel(40)
        poles = summation.locate_borel_singularities(g, 3)
        assert len(poles) == 1
        assert abs(poles[0] + 1) < mpf("1e-20")

    def test_stirling_lattice_translates(self, gamma_lattice):
        from stokeswb import lattice as lat_mod
        b = derham.stirling_exponent_series(1, 80)
        g = BorelFunction(gevrey.formal_borel(b), pade_order=38)
        poles = summation.locate_borel_singularities(g, 15)
        targets = lat_mod.critical_differences([mpc(0)], gamma_lattice, 15)
        assert targets
        for t in targets:
            assert min(abs(p - t) for p in poles) < mpf("1e-3")
        for p in poles:
            assert min(abs(p - t) for t in targets) < mpf("1e-3")
