import random
import time

import pytest
import mpmath
from mpmath import mp, mpf, mpc

from stokeswb import derham, gevrey, lattice
from stokeswb.derham import INF, RationalForm
from stokeswb.errors import (DegenerateLattice, NotOneForm, PathThroughPole,
                             RelationDetectionAmbiguous)


class TestAnalyze:
    def test_gamma_example(self, gamma_form):
        assert len(gamma_form.zeros) == 1
        z = gamma_form.zeros[0]
        assert abs(z.location - 1) < mpf("1e-60") and z.order == 1
        by_loc = {p.location if p.location == INF else 0: p
                  for p in gamma_form.poles}
        assert by_loc[0].order == 1
        assert abs(by_loc[0].residue + 1) < mpf("1e-60")
        assert by_loc[INF].order == 2

    def test_constant_form_rejected(self):
        with pytest.raises(NotOneForm):
            derham.analyze([1], [1])

    def test_x_dx(self):
        form = derham.analyze([0, 1], [1])
        assert len(form.zeros) == 1 and form.zeros[0].order == 1
        assert abs(form.zeros[0].location) < mpf("1e-60")
        assert len(form.poles) == 1
        assert form.poles[0].location == INF and form.poles[0].order == 3
        assert form.zero_order_sum() - form.pole_order_sum() == -2

    def test_common_factor_cancellation(self):
        # (x-1)(x-2) / x(x-2) dx reduces to (x-1)/x dx
        p = derham.poly_mul([-1, 1], [-2, 1])
        q = derham.poly_mul([0, 1], [-2, 1])
        form = derham.analyze(p, q)
        assert len(form.zeros) == 1
        assert abs(form.zeros[0].location - 1) < mpf("1e-40")
        finite = [pl for pl in form.poles if pl.location != INF]
        assert len(finite) == 1 and abs(finite[0].location) < mpf("1e-40")

    def test_cancelled_pole_leaves_a_regular_form(self):
        # x (x - 1) / x dx is (x - 1) dx: no finite pole is left, and the
        # rebuilt form is regular at 0
        form = derham.analyze([0, -1, 1], [0, 1])
        assert [(p.location, p.order) for p in form.poles] == [(INF, 3)]
        assert form.form(0) == -1

    def test_zero_at_infinity(self):
        # dx / x^3: zero of order 1 at infinity, pole of order 3 at 0
        form = derham.analyze([1], [0, 0, 0, 1])
        assert any(z.location == INF and z.order == 1 for z in form.zeros)
        assert any(p.location != INF and p.order == 3 for p in form.poles)

    def test_order_at_infinity_far_from_the_origin(self):
        # the Gamma form moved by 1e6: the Laurent coefficients at infinity
        # grow like 1e6^k, and the leading one is still found
        form = derham.analyze(["-1000001", 1], ["-1000000", 1])
        (zero,), (pole, far) = form.zeros, form.poles
        assert abs(zero.location - 1000001) < mpf("1e-40") and zero.order == 1
        assert abs(pole.location - 1000000) < mpf("1e-40") and pole.order == 1
        assert far.location == INF and far.order == 2

    def test_rank_identity_random(self, rng):
        done = 0
        while done < 30:
            dp = rng.randint(1, 5)
            dq = rng.randint(0, 5)
            p = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(dp + 1)]
            q = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(dq + 1)]
            p[-1] += 3
            q[-1] += 3
            try:
                form = derham.analyze(p, q)
            except NotOneForm:
                continue
            assert form.zero_order_sum() - form.pole_order_sum() == -2
            done += 1

    def test_multiplicity_detection(self):
        p = derham.poly_mul(derham.poly_mul([-1, 1], [-1, 1]), [2, 1])
        form = derham.analyze(p, [0, 1])
        orders = sorted(z.order for z in form.zeros)
        assert orders == [1, 2]

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_multiplicity_of_powers(self, m):
        # the m-th power of a random polynomial: every root of the base,
        # each exactly m-fold, polished to working precision
        rng = random.Random(50 + m)
        for _ in range(8):
            d = rng.randint(1, 3)
            base = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
                    for _ in range(d + 1)]
            base[-1] += 3
            p = [mpc(1)]
            for _ in range(m):
                p = derham.poly_mul(p, base)
            want = derham.poly_roots(base)
            got = derham.poly_roots(p)
            assert [k for _, k in got] == [m] * d
            for r, _ in want:
                err = min(abs(r - g) for g, _ in got)
                assert err <= mpf(2) ** (16 - mp.prec) * max(1, abs(r))

    @pytest.mark.parametrize("gap", ["1e-10", "1e-30"])
    def test_close_roots_stay_simple(self, gap):
        # two simple roots closer together than 64-bit seeds resolve, but
        # apart at working precision, are not merged into a double root
        r = mpc(1) + mpf(gap)
        p = derham.poly_mul(derham.poly_mul([-1, 1], [-r, 1]), [2, 1])
        got = derham.poly_roots(p)
        assert [k for _, k in got] == [1, 1, 1]
        for want in (mpc(1), r):
            assert min(abs(want - g) for g, _ in got) < mpf(gap) / 100


class TestPeriodLattice:
    def test_gamma(self, gamma_form):
        lat = derham.period_lattice(gamma_form)
        assert lat.rank == 1
        assert abs(lat.mu[0] - mpc(0, -2) * mp.pi) < mpf("1e-50")

    def test_zero_residues_rank_zero(self):
        # x dx / ((x-1)^2 (x+1)^2): double poles with vanishing residues
        q = derham.poly_mul(derham.poly_mul([-1, 1], [-1, 1]),
                            derham.poly_mul([1, 1], [1, 1]))
        form = derham.analyze([0, 1], q)
        lat = derham.period_lattice(form)
        assert lat.rank == 0

    def test_two_simple_poles_rank_two(self):
        # 1/x + i/(x-1): residues 1 and i
        p = [mpc(-1, 0), mpc(1, 1)]      # (x-1) + i x
        q = derham.poly_mul([0, 1], [-1, 1])
        form = derham.analyze(p, q)
        lat = derham.period_lattice(form)
        assert lat.rank == 2
        vals = sorted((abs(m.real), abs(m.imag)) for m in lat.mu)
        # periods 2 pi i and -2 pi: as a set {2 pi i, 2 pi i * i}
        assert any(abs(m - mpc(0, 2) * mp.pi) < mpf("1e-40") for m in lat.mu)
        assert any(abs(m + 2 * mp.pi) < mpf("1e-40") for m in lat.mu)

    def test_integer_relation_reduced(self):
        # residues 1 and 2: loops have periods 2 pi i and 4 pi i
        p = [mpc(-3, 0), mpc(3, 0)]      # (x-1) + 2x = 3x - 1 ... build explicitly
        p = [mpc(-1), mpc(3)]            # 1/x + 2/(x-1) = (3x - 1)/(x(x-1))
        q = derham.poly_mul([0, 1], [-1, 1])
        form = derham.analyze(p, q)
        lat = derham.period_lattice(form)
        assert lat.rank == 1
        assert abs(lat.mu[0] - mpc(0, 2) * mp.pi) < mpf("1e-40")

    def test_marginal_relation_warns_then_support_fails(self):
        # residues 1 and 1 + 1e-30 look related only at marginal tolerance:
        # the basis stays conservative and the support check fails instead
        import warnings
        from stokeswb.errors import DegenerateLattice
        eps = mpf("1e-30")
        p = [mpc(-1), mpc(2) + eps]
        q = derham.poly_mul([0, 1], [-1, 1])
        form = derham.analyze(p, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RelationDetectionAmbiguous)
            with pytest.raises(RelationDetectionAmbiguous):
                derham.period_lattice(form)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RelationDetectionAmbiguous)
            with pytest.raises(DegenerateLattice):
                derham.period_lattice(form)


class TestCriticalValues:
    def test_gamma_with_normalization(self, gamma_form, gamma_lattice):
        crit = derham.critical_values(gamma_form, 1, [[1]], lat=gamma_lattice,
                                      offset=1)
        assert abs(crit.values[0] - 1) < mpf("1e-40")

    def test_x_dx_at_origin(self):
        form = derham.analyze([0, 1], [1])
        lat = derham.period_lattice(form)
        crit = derham.critical_values(form, 0, [[0]], lat=lat)
        assert abs(crit.values[0]) < mpf("1e-40")

    def test_loop_shifts_by_period(self, gamma_form, gamma_lattice):
        direct = derham.critical_values(gamma_form, 2, [[2, 1]],
                                        lat=gamma_lattice)
        # same endpoints, one positive loop around the pole at 0
        loop = [2, mpc(0, 2), -2, mpc(0, -2), 2, 1]
        looped = derham.critical_values(gamma_form, 2, [loop],
                                        lat=gamma_lattice)
        delta = looped.values[0] - direct.values[0]
        assert abs(delta - gamma_lattice.mu[0]) < mpf("1e-30") or \
            abs(delta + gamma_lattice.mu[0]) < mpf("1e-30")

    def test_path_through_pole(self, gamma_form, gamma_lattice):
        with pytest.raises(PathThroughPole):
            derham.critical_values(gamma_form, -1, [[-1, 1]],
                                   lat=gamma_lattice)

    def test_reduce_mod_lattice(self):
        lat = derham.Lattice((mpc(0, -2) * mp.pi,))
        c = mpc(3, -13)
        r = derham.reduce_mod_lattice(c, lat)
        k = (c - r) / lat.mu[0]
        assert abs(k - mpmath.nint(k.real)) < mpf("1e-30")
        lat2 = derham.Lattice((mpc(2, 0), mpc(0, 2)))
        r2 = derham.reduce_mod_lattice(mpc(5.5, -3.2), lat2)
        assert 0 <= r2.real < 2 and 0 <= r2.imag < 2


class TestLocalCoordinate:
    def test_model_is_identity(self):
        form = derham.analyze([0, 1], [1])     # x dx
        loc = derham.local_coordinate_series(form, 0, 10)
        assert abs(loc.u_of_w.coeffs[1] - 1) < mpf("1e-60")
        assert all(abs(c) < mpf("1e-60") for c in loc.u_of_w.coeffs[2:])
        assert loc.residual < mpf("1e-60")

    def test_gamma_resubstitution(self, gamma_form):
        loc = derham.local_coordinate_series(gamma_form, 0, 12)
        # xi(u) = x(u) - 1 satisfies xi - log(1+xi) = u^2/2 through order 10
        xi = loc.x_of_u
        one_plus = gevrey.GevreySeries((mpc(1),) + xi.coeffs[1:])
        lhs = gevrey.sub(xi, gevrey.log(one_plus))
        for n in range(11):
            target = mpf("0.5") if n == 2 else mpf(0)
            assert abs(lhs.coeffs[n] - target) < mpf("1e-40")
        assert abs(xi.coeffs[1] - 1) < mpf("1e-50")
        assert abs(xi.coeffs[2] - mpf(1) / 3) < mpf("1e-50")

    def test_scaled_quadratic(self):
        form = derham.analyze([0, 2], [1])     # 2x dx, u = sqrt(2) x
        loc = derham.local_coordinate_series(form, 0, 8)
        assert abs(loc.u_of_w.coeffs[1] - mpmath.sqrt(2)) < mpf("1e-50")
        assert abs(loc.x_of_u.coeffs[1] - 1 / mpmath.sqrt(2)) < mpf("1e-50")

    def test_roundtrip_residual(self, gamma_form):
        loc = derham.local_coordinate_series(gamma_form, 0, 16)
        assert loc.residual < mpf("1e-25")


class TestReduction:
    def test_monomial_classes(self):
        k, fac = derham.reduce_monomial(2, 1, 4)
        assert k == 0
        assert abs(fac.coeffs[1] + 1) < mpf("1e-60")      # -z
        k, fac = derham.reduce_monomial(4, 1, 4)
        assert k == 0
        assert abs(fac.coeffs[2] - 3) < mpf("1e-60")      # 3 z^2
        k, fac = derham.reduce_monomial(1, 3, 4)
        assert k == 1 and abs(fac.coeffs[0] - 1) < mpf("1e-60")
        # classes congruent to m are exact and vanish
        k, fac = derham.reduce_monomial(3, 3, 4)
        assert k == 3 and fac.is_zero()

    def test_rewriting_confluence(self, rng):
        # composing the closed form across m+1 steps agrees with one shot
        for _ in range(10):
            m = rng.randint(1, 4)
            n_deg = rng.randint(0, 25)
            k, fac = derham.reduce_monomial(n_deg, m, 12)
            if n_deg >= m + 1 and k != m:
                k2, fac2 = derham.reduce_monomial(n_deg - (m + 1), m, 12)
                assert k2 == k
                step = -(n_deg - m)
                lifted = gevrey.mul(gevrey.monomial(step, 1, 12), fac2)
                assert fac.isclose(lifted, rel=mpf("1e-55"))

    def test_brute_force_oracle(self, rng):
        for _ in range(8):
            m = rng.randint(1, 4)
            order = rng.randint(4, 14)
            coeffs = [mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range((m + 1) * (order + 1) + m)]
            closed = derham.reduction_series(coeffs, m, order)
            brute = derham.reduction_series_bruteforce(coeffs, m, order)
            for a, b in zip(closed, brute):
                assert a.isclose(b, rel=mpf("1e-40"))

    def test_exact_pullback_of_basis_form(self):
        # omega = x^k dx against alpha = x^m dx: the model coordinate is x
        form = derham.analyze([0, 0, 1], [1])  # x^2 dx, m = 2
        for k in range(2):
            coeffs = [mpc(0)] * k + [mpc(1)]
            omega = RationalForm(tuple(coeffs), (mpc(1),))
            out = derham.formal_comparison(omega, form, 0, 6)
            for kk in range(2):
                expect = mpc(1) if kk == k else mpc(0)
                assert abs(out[kk].coeffs[0] - expect) < mpf("1e-50")
                assert all(abs(c) < mpf("1e-50") for c in out[kk].coeffs[1:])


class TestStirling:
    def test_bernoulli_numbers(self):
        bern = derham.bernoulli_numbers(8)
        assert bern[2] == mpf(1) / 6 or float(bern[2]) == pytest.approx(1 / 6)
        from fractions import Fraction
        assert bern[2] == Fraction(1, 6)
        assert bern[4] == Fraction(-1, 30)
        assert bern[6] == Fraction(1, 42)
        assert bern[3] == 0

    def test_exponent_series_coefficients(self):
        b = derham.stirling_exponent_series(1, 8)
        assert abs(b.coeffs[1] - mpf(1) / 12) < mpf("1e-60")
        assert abs(b.coeffs[3] + mpf(1) / 360) < mpf("1e-60")
        assert abs(b.coeffs[5] - mpf(1) / 1260) < mpf("1e-60")
        assert all(abs(b.coeffs[n]) == 0 for n in (0, 2, 4, 6))

    def test_lambda_one_reference_values(self):
        rep = derham.stirling_check(1, 12)
        assert rep.passed
        assert abs(rep.formal.coeffs[0] - 1) < mpf("1e-40")
        assert abs(rep.formal.coeffs[1] + mpf(1) / 12) < mpf("1e-40")
        assert abs(rep.formal.coeffs[2] - mpf(1) / 288) < mpf("1e-40")
        assert abs(rep.formal.coeffs[3] - mpf(139) / 51840) < mpf("1e-40")

    def test_lambda_two(self):
        rep = derham.stirling_check(2, 10)
        assert rep.passed
        assert rep.max_rel_error < mpf("1e-12")


class TestConnection:
    def test_gamma_block(self, gamma_form, gamma_lattice, gamma_crit):
        blocks = derham.elementary_connection(gamma_form, gamma_crit)
        assert len(blocks) == 1
        assert abs(blocks[0].exponential_factor - 1) < mpf("1e-40")
        assert blocks[0].exponents == (mpf(1) / 2,)

    def test_order_two_exponents(self):
        form = derham.analyze([0, 0, 1], [1])
        lat = derham.period_lattice(form)
        crit = derham.critical_values(form, 0, [[0]], lat=lat)
        blocks = derham.elementary_connection(form, crit)
        assert blocks[0].exponents == (mpf(1) / 3, mpf(2) / 3)


def _quad(form, points):
    """Reference integral of the form along a polyline, by mpmath.quad."""
    with mp.workprec(mp.prec + 32):
        return mpmath.quad(form, [mpc(p) for p in points])


class TestPrimitive:
    def check_segments(self, one_form, segments, rel=mpf("1e-60")):
        prim = derham.Primitive(one_form)
        for a, b in segments:
            a, b = mpc(a), mpc(b)
            ref = _quad(one_form.form, [a, b])
            assert abs(prim.increment(a, b) - ref) <= rel * max(abs(ref), 1)

    def test_gamma_form(self, gamma_form):
        self.check_segments(gamma_form, [(1, mpc(3, 2)), (mpc("0.5", "-0.5"), 2),
                                         (mpc(-2, 1), mpc(-2, -1))])

    def test_order_four_pole_at_infinity(self):
        # x^2 dx: no finite pole, the primitive is the polynomial x^3/3
        form = derham.analyze([0, 0, 1], [1])
        self.check_segments(form, [(0, mpc(2, 1)), (-3, mpc(1, "0.5"))])

    def test_double_finite_pole(self):
        # (x^2 + i x + 1) dx / ((x - 1)^2 (x + 2)): a double pole at 1 with
        # a nonzero residue, a simple pole at -2 and a simple pole at infinity
        q = derham.poly_mul(derham.poly_mul([-1, 1], [-1, 1]), [2, 1])
        form = derham.analyze([1, mpc(0, 1), 1], q)
        assert sorted(p.order for p in form.poles) == [1, 1, 2]
        self.check_segments(form, [(mpc(0, 1), mpc(3, 2)),
                                   (mpc("1.2", "0.1"), mpc("0.8", "-0.3")),
                                   (mpc(-1, -1), mpc(-3, "0.5"))])

    def test_loop_in_the_inverse_chart(self, gamma_form):
        # a traced ray steps in v = 1/x beyond the switch radius: a circle
        # |v| = 1/50 walked in short steps is a clockwise loop |x| = 50
        # around the pole at 0, and the chained increments must follow the
        # log branch all the way round
        prim = derham.Primitive(gamma_form)
        vs = [mpf(1) / 50 * mpmath.exp(2j * mp.pi * k / 40) for k in range(41)]
        xs = [1 / v for v in vs]
        total = sum((prim.increment(a, b) for a, b in zip(xs[:-1], xs[1:])), mpc(0))
        # clockwise around the residue -1 of (1 - 1/x) dx at 0
        assert abs(total - 2j * mp.pi) < mpf("1e-60")
        assert abs(total - _quad(gamma_form.form, xs)) < mpf("1e-60")


def residue_form(roots, residues):
    """sum r/(x - root) dx: simple poles, and one at infinity unless the
    residues sum to zero."""
    q = [mpc(1)]
    for x in roots:
        q = derham.poly_mul(q, [-x, 1])
    p = [mpc(0)] * len(roots)
    for x, r in zip(roots, residues):
        for i, c in enumerate(derham.deflate(q, x)):
            p[i] += r * c
    return derham.analyze(p, q)


def finite_periods(form):
    return [2j * mp.pi * p.residue for p in form.poles if p.location != INF]


def coordinates(mu, p):
    """Real coordinates of p in the generators mu, of rank 1 or 2."""
    if len(mu) == 1:
        return [mpmath.re(p / mu[0])]
    m = mpmath.matrix([[g.real for g in mu], [g.imag for g in mu]])
    return list(mpmath.lu_solve(m, mpmath.matrix([p.real, p.imag])))


def random_complex(rng):
    """A complex number in the unit square at 256 random bits per part."""
    return mpc(*(mpf(rng.getrandbits(256)) / 2 ** 255 - 1 for _ in range(2)))


class TestRankAboveTwo:
    ROOTS = [mpc(1), mpc(0, 1), mpc("-1.5", "0.5")]

    def test_period_lattice_raises(self):
        # residues 1, i and sqrt 2, and a pole at infinity: three periods
        # independent over Z, a rank no discrete subgroup of C has
        form = residue_form(self.ROOTS, [mpc(1), mpc(0, 1), mpmath.sqrt(2)])
        assert len(finite_periods(form)) == 3
        with pytest.raises(DegenerateLattice, match="rank > 2"):
            derham.period_lattice(form)

    def test_related_residues_rank_two(self):
        # degree 4 over the same roots: residues 12/13 + 18/13 i,
        # -3/5 - 9/5 i and 153/130 - 38/65 i, with 107 r1 + 94 r2 - 36 r3 = 0
        p = [mpc(3, 1), mpc(2), mpc(0), mpc(0, -1), mpc(1)]
        q = [mpc(1)]
        for r in self.ROOTS:
            q = derham.poly_mul(q, [-r, 1])
        form = derham.analyze(p, q)
        lat = derham.period_lattice(form)
        assert lat.rank == 2
        coords = [coordinates(lat.mu, per) for per in finite_periods(form)]
        for t in sum(coords, []):
            assert abs(t - mpmath.nint(t)) < mpf("1e-60")
        a = [[int(mpmath.nint(t)) for t in row] for row in coords]
        minors = [a[i][0] * a[j][1] - a[i][1] * a[j][0]
                  for i, j in ((0, 1), (0, 2), (1, 2))]
        # |minors| are a basis change away from (36, 94, 107), gcd 1: the
        # generators span exactly the subgroup of the periods
        assert sorted(abs(m) for m in minors) == [36, 94, 107]


class TestPeriodBasis:
    def test_relation_beyond_twelve(self):
        # 25 p1 - 13 p2 = 0: rank 1 with mu = +-2 pi i / 13
        lat = derham.period_lattice(residue_form([mpc(0), mpc(1)],
                                                 [mpc(1), mpf(25) / 13]))
        assert lat.rank == 1
        assert abs(abs(lat.mu[0]) - 2 * mp.pi / 13) < mpf("1e-60")
        assert abs(mpmath.re(lat.mu[0])) < mpf("1e-60")

    def test_dense_on_a_line(self):
        form = residue_form([mpc(0), mpc(1)], [mpc(1), mpmath.sqrt(2)])
        with pytest.raises(DegenerateLattice, match="rank > 2"):
            derham.period_lattice(form)

    def test_short_independent_period_joins(self):
        # joining an independent period refines nothing, however short
        lat = derham.period_lattice(residue_form([mpc(0), mpc(1)],
                                                 [mpc(1), mpc(0, "1e-4")]))
        assert lat.rank == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_relations(self, seed):
        # residues that are small integer combinations of one or two random
        # complex numbers, on 6-8 random simple poles
        rng = random.Random(seed)
        k, rank = 6 + seed % 3, 1 + seed % 2
        omegas = [random_complex(rng) for _ in range(rank)]
        residues = [sum((rng.choice([-1, 1]) * rng.randint(1, 9) * omegas[0],
                         *(rng.randint(-9, 9) * w for w in omegas[1:])), mpc(0))
                    for _ in range(k)]
        form = residue_form([3 * random_complex(rng) for _ in range(k)], residues)
        lat = derham.period_lattice(form)
        assert lat.rank == rank
        for per in finite_periods(form):
            for t in coordinates(lat.mu, per):
                assert abs(t - mpmath.nint(t)) < mpf("1e-30")

    @pytest.mark.parametrize("k", range(3, 9))
    def test_independent_periods_fail_fast(self, k):
        rng = random.Random(100 + k)
        form = residue_form([3 * random_complex(rng) for _ in range(k)],
                            [random_complex(rng) for _ in range(k)])
        start = time.perf_counter()
        with pytest.raises(DegenerateLattice, match="rank > 2"):
            derham.period_lattice(form)
        # an exhaustive search over coefficient vectors grows like c^k
        assert time.perf_counter() - start < 1


class TestValueMemo:
    def test_equal_forms_share_results(self):
        a = derham.analyze([-1, 1], [0, 1])
        b = derham.analyze([-1, 1], [0, 1])
        assert a == b and a is not b
        omega = RationalForm((mpc(1),), (mpc(0), mpc(1)))
        assert derham.formal_comparison(omega, a, 0, 6) is \
            derham.formal_comparison(omega, b, 0, 6)
        assert derham.local_coordinate_series(a, 0, 8) is \
            derham.local_coordinate_series(b, 0, 8)
        assert derham.local_coordinate_series(a, 0, 8) is not \
            derham.local_coordinate_series(a, 0, 9)

    def test_distinct_forms_get_their_own_series(self):
        # a value key cannot hand one form's series to another, even when
        # the first form is gone and its id is reused
        omega = RationalForm((mpc(1),), (mpc(0), mpc(1)))
        for lam in (1, 2, 3):
            form = derham.analyze([-lam, 1], [0, 1])
            got = derham.formal_comparison(omega, form, 0, 6)[0]
            b = derham.stirling_exponent_series(lam, 6)
            closed = gevrey.scale(gevrey.exp(gevrey.scale(b, -1)),
                                  mpf(lam) ** mpf("-0.5"))
            assert got.isclose(closed, rel=mpf("1e-40"))
            del form


def test_defaults_made_at_the_working_precision():
    # 1e-8 and 1e-40 rounded to 53 bits lie on either side of their
    # 256-bit values: a default fixed at import would settle these
    # boundary cases unlike the explicit mpf("...") at the call
    one = RationalForm((mpc(1),), (mpc(1),))
    pole = mpc("0.5", "1e-8")       # 1e-8 from the segment [0, 1]
    explicit = derham.path_integral(one, [0, 1], poles=[pole], guard=mpf("1e-8"))
    assert derham.path_integral(one, [0, 1], poles=[pole]) == explicit
    with pytest.raises(DegenerateLattice):   # |mu| at the zero tolerance
        lattice.support_radius(lattice.Lattice((mpc("1e-40"),)))
