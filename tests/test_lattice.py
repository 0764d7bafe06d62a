import itertools
import math

import pytest
import mpmath
from mpmath import mp, mpf, mpc

from stokeswb import lattice
from stokeswb.errors import DegenerateLattice, NotDecaying, NotLowering
from stokeswb.lattice import (EQUAL, LESS, NOT_LESS, ExpSum, ExpTruncation,
                              ExponentMultiMap, GradedModule, Lattice,
                              critical_differences, exp_less_at,
                              exp_less_on_arc, expsum_norm, filtration_level,
                              frechet_seminorm, is_generic, moderate_bound,
                              neumann_solve, support_radius)
from stokeswb.scalar import wrap_angle

GAMMA_MU = mpc(0, -2) * mp.pi


class TestSupportRadius:
    def test_rank_one_exact(self):
        rep = support_radius(Lattice((GAMMA_MU,)))
        assert rep.exact
        assert abs(rep.value - 2 * mp.pi) < mpf("1e-60")

    def test_rank_zero_infinite(self):
        rep = support_radius(Lattice(()))
        assert mpmath.isinf(rep.value)

    def test_rank_two_matches_bruteforce(self):
        lat = Lattice((mpc(1), mpc(0, 1)))
        rep = support_radius(lat, enum_bound=50)
        # independent exhaustive enumeration over the same ball
        best = None
        for a in range(-50, 51):
            for b in range(-50, 51):
                if a == 0 and b == 0 or abs(a) + abs(b) > 50:
                    continue
                ratio = abs(mpc(a, b)) / (abs(a) + abs(b))
                best = ratio if best is None else min(best, ratio)
        assert abs(rep.value - best) < mpf("1e-50")
        assert abs(rep.value - mpmath.sqrt(2) / 2) < mpf("1e-50")

    def test_degenerate(self):
        with pytest.raises(DegenerateLattice):
            support_radius(Lattice((mpc(1), mpc(-1))), enum_bound=3)


class TestCriticalDifferences:
    def test_gamma_translates(self):
        lat = Lattice((GAMMA_MU,))
        out = critical_differences([mpc(1)], lat, 20)
        expected = sorted({2 * mp.pi * k for k in (-3, -2, -1, 1, 2, 3)})
        assert len(out) == 6
        for w in out:
            assert abs(abs(w.imag) % (2 * mp.pi)) < mpf("1e-40") or \
                abs(abs(w.imag) % (2 * mp.pi) - 2 * mp.pi) < mpf("1e-40")
            assert abs(w.real) < mpf("1e-40")

    def test_rank_zero_singleton_empty(self):
        assert critical_differences([mpc(0)], Lattice(()), 5) == []

    def test_rank_zero_two_points(self):
        out = critical_differences([mpc(0), mpc(1, 1)], Lattice(()), 5)
        assert len(out) == 2
        assert any(abs(w - mpc(1, 1)) < mpf("1e-40") for w in out)
        assert any(abs(w + mpc(1, 1)) < mpf("1e-40") for w in out)

    def test_negation_symmetry_rank2(self):
        lat = Lattice((mpc(1, 2), mpc(-2, 1)))
        out = critical_differences([mpc(0)], lat, 6)
        assert out
        for w in out:
            assert any(abs(w + v) < mpf("1e-30") for v in out)


def pairwise_differences(c_set, lat, radius):
    """critical_differences deduplicated against every kept point in turn."""
    bound = int(mpmath.ceil((radius + max(abs(c - cp) for c in c_set
                                          for cp in c_set))
                            / support_radius(lat).value)) + 1
    gammas = [(0,) * lat.rank] + list(lat.vectors_in_ball(bound))
    tol = mpf("1e-30") * max(mpf(radius), 1)
    out = []
    for c in c_set:
        for cp in c_set:
            for gamma in gammas:
                w = c - cp + lat.period(gamma)
                if tol < abs(w) <= radius and not any(abs(w - o) <= tol
                                                      for o in out):
                    out.append(w)
    return sorted(out, key=lambda w: (abs(w), mpmath.arg(w)))


def exact_directions(diffs, angle_tol):
    """nongeneric_directions from the exact arguments, each against every
    kept one."""
    out = []
    for w in diffs:
        a = mpmath.arg(w)
        if a < 0:
            a += 2 * mp.pi
        if not any(abs(wrap_angle(a - b)) < angle_tol for b in out):
            out.append(a)
    return sorted(out)


class TestDeduplication:
    # a lattice of small support radius puts thousands of differences in
    # the default search disk of `analyze`; the kept points are looked up
    # by cell, and must be the ones a pairwise scan keeps
    SKEW = Lattice((mpc("0.28212334869654604", "1.5707963267948966"),
                    mpc("-0.28212334869654604", "1.5707963267948966")))
    TOL = mpf("1e-12")      # the angle tolerance of the direction scans

    def test_skew_lattice_matches_pairwise(self):
        c_set = [mpc(0), mpc("0.5", "0.25")]
        out = critical_differences(c_set, self.SKEW, 6)
        assert len(out) > 100
        assert out == pairwise_differences(c_set, self.SKEW, 6)

    def test_float_screen_keeps_the_exact_enumeration(self, monkeypatch):
        # mu(3, 0) lies on the search circle, and 0.7 + 1.3 on the ball's
        # boundary; an infinite margin sends every candidate to the exact test
        c_set = [mpc(0), mpc("0.5", "0.25")]
        radius = abs(self.SKEW.period((3, 0)))
        weighted = Lattice(self.SKEW.mu, (mpf("0.7"), mpf("1.3")))
        screened = [critical_differences(c_set, lat, radius) for lat in (self.SKEW, weighted)]
        balls = [list(lat.vectors_in_ball(2)) for lat in (self.SKEW, weighted)]
        assert any(abs(w) == radius for w in screened[0])
        assert (1, 1) in balls[1]
        monkeypatch.setattr(lattice, "_SCREEN", math.inf)
        assert [critical_differences(c_set, lat, radius)
                for lat in (self.SKEW, weighted)] == screened
        assert [list(lat.vectors_in_ball(2)) for lat in (self.SKEW, weighted)] == balls

    def test_float_keys_keep_the_exact_order(self):
        # the rotations by pi/3 of the hexagonal lattice give equal moduli,
        # some equal at working precision and some apart by its rounding
        hexagonal = Lattice((mpc(1), mpmath.exp(1j * mp.pi / 3)))
        c_set = [mpc(0), mpc("0.5", "0.25")]
        for lat in (self.SKEW, hexagonal):
            out = critical_differences(c_set, lat, 6)
            assert out == sorted(out, key=lambda w: (abs(w), mpmath.arg(w)))
            assert (lattice.nongeneric_directions(c_set, lat, 6, angle_tol=self.TOL)
                    == exact_directions(out, self.TOL))

    @pytest.mark.parametrize("offset, kept", [(-1, 1), (1, 2)])
    def test_directions_at_the_tolerance_decided_exactly(self, offset, kept):
        # arguments 0 and 1e-12 -+ 1e-29: the float gap is within rounding
        # of the 1e-12 tolerance, so the exact arguments decide
        theta = self.TOL + offset * mpf("1e-29")
        c_set = [mpc(0), mpc(1), mpmath.exp(1j * theta)]
        out = lattice.nongeneric_directions(c_set, Lattice(()), 5, angle_tol=self.TOL)
        assert out == exact_directions(critical_differences(c_set, Lattice(()), 5), self.TOL)
        assert sum(a < mpf("1e-11") for a in out) == kept

    def test_default_tolerance_at_the_working_precision(self):
        # arguments 0 and 1e-12 - 1e-29: the default angle_tol is made at
        # the precision of the call, so it keeps them as one direction
        # as the explicit 256-bit tolerance does
        c_set = [mpc(0), mpc(1), mpmath.exp(1j * (self.TOL - mpf("1e-29")))]
        default = lattice.nongeneric_directions(c_set, Lattice(()), 5)
        assert default == lattice.nongeneric_directions(c_set, Lattice(()), 5,
                                                        angle_tol=mpf("1e-12"))
        assert sum(a < mpf("1e-11") for a in default) == 1

    def test_points_closer_than_the_tolerance_kept_once(self):
        # offsets of 4e-31 and 8e-31 around a cell edge at 1e-30 * 5
        eps = mpf("4e-31")
        c_set = [mpc(0), mpc(1, 0), mpc(1, eps), mpc(1 + 2 * eps, -eps)]
        out = critical_differences(c_set, Lattice(()), 5)
        assert out == pairwise_differences(c_set, Lattice(()), 5)
        assert sum(abs(w - 1) < mpf("1e-20") for w in out) == 1

    def test_directions_merge_across_zero(self):
        # arg 1e-14 and 2 pi - 1e-14 lie 2e-14 apart modulo 2 pi
        c_set = [mpc(0), mpc(1, "1e-14"), mpc(1, "-1e-14")]
        out = lattice.nongeneric_directions(c_set, Lattice(()), 5)
        near_zero = [a for a in out if min(a, 2 * mp.pi - a) < mpf("1e-12")]
        assert len(near_zero) == 1
        assert len(out) == 4
        for b in (0, mp.pi / 2, mp.pi, 3 * mp.pi / 2):
            assert sum(abs(wrap_angle(a - b)) < mpf("1e-12") for a in out) == 1


class TestGenericity:
    def test_gamma_directions(self):
        lat = Lattice((GAMMA_MU,))
        c = [mpc(1)]
        assert is_generic(0, c, lat, 20).generic
        rep = is_generic(mp.pi / 2, c, lat, 20)
        assert not rep.generic
        assert abs(abs(rep.witness) - 2 * mp.pi) < mpf("1e-40")

    def test_rank_zero_always_generic(self):
        for d in (0, 1, 2, 3):
            assert is_generic(d, [mpc(0)], Lattice(()), 5).generic

    def test_two_exponents_rank_zero(self):
        c = [mpc(0), mpc(1)]
        lat = Lattice(())
        assert not is_generic(0, c, lat, 5).generic
        assert is_generic(mp.pi / 4, c, lat, 5).generic

    def test_nongeneric_scan(self):
        lat = Lattice((GAMMA_MU,))
        out = lattice.nongeneric_directions([mpc(1)], lat, 20 * mp.pi)
        assert len(out) == 2
        assert abs(out[0] - mp.pi / 2) < mpf("1e-12")
        assert abs(out[1] - 3 * mp.pi / 2) < mpf("1e-12")


class TestExponentOrder:
    def test_examples(self):
        assert exp_less_at(-1, 0, 0) == LESS
        assert exp_less_at(mpc(0, 1), 0, 0) == NOT_LESS
        assert exp_less_at(mpc(0, 1), 0, mp.pi / 2) == NOT_LESS
        assert exp_less_at(mpc(0, 1), 0, -mp.pi / 2) == LESS
        assert exp_less_at(mpc(2, 3), mpc(2, 3), 1.234) == EQUAL

    def test_interval_examples(self):
        assert exp_less_on_arc(-1, 0, (-mp.pi / 4, mp.pi / 4))
        assert not exp_less_on_arc(-1, 0, (-3 * mp.pi / 4, 3 * mp.pi / 4))
        assert not exp_less_on_arc(mpc(1), mpc(1), (0, 1))

    def test_partial_order_random(self, rng):
        for _ in range(60):
            a, b, c = (mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       for _ in range(3))
            theta = rng.uniform(0, 6.28)
            assert exp_less_at(a, a, theta) == EQUAL
            if exp_less_at(a, b, theta) == LESS and \
                    exp_less_at(b, c, theta) == LESS:
                assert exp_less_at(a, c, theta) == LESS
            if exp_less_at(a, b, theta) == LESS:
                assert exp_less_at(b, a, theta) == NOT_LESS


class TestExpSum:
    def lat(self):
        return Lattice((GAMMA_MU,))

    def test_norm_examples(self):
        lat = self.lat()
        one = ExpSum.constant(lat, 1)
        assert expsum_norm(one, mpf("0.5")) == 1
        f = ExpSum(lat, {(2,): 3})
        assert abs(expsum_norm(f, mpf("0.5")) - mpf(3) / 4) < mpf("1e-60")

    def test_norm_triangle_random(self, rng):
        lat = self.lat()
        for _ in range(10):
            f = ExpSum(lat, {(rng.randint(-4, 4),): mpc(rng.uniform(-1, 1))
                             for _ in range(4)})
            g = ExpSum(lat, {(rng.randint(-4, 4),): mpc(rng.uniform(-1, 1))
                             for _ in range(4)})
            rho = mpf("0.37")
            assert expsum_norm(f + g, rho) <= \
                expsum_norm(f, rho) + expsum_norm(g, rho) + mpf("1e-50")

    def test_equality_normal_form(self):
        lat = self.lat()
        a = ExpSum(lat, {(1,): mpc(2)})
        b = ExpSum(lat, {(0,): mpc(2)}, offset=GAMMA_MU)
        assert a.equals(b)
        assert not a.equals(ExpSum(lat, {(1,): mpc(2, 1)}))

    def test_mul_shift(self):
        lat = self.lat()
        f = ExpSum(lat, {(0,): 1, (1,): mpf("0.5")})
        shifted = f.shift((2,))
        assert set(shifted.terms) == {(2,), (3,)}
        prod = f * ExpSum(lat, {(2,): 1})
        assert prod.equals(shifted)

    def test_evaluate(self):
        lat = self.lat()
        f = ExpSum(lat, {(1,): 1})
        z = mpc("0.3", "0.1")
        assert abs(f.evaluate(z) - mpmath.exp(GAMMA_MU / z)) < mpf("1e-60")

    def test_json_round_trip(self):
        lat = self.lat()
        f = ExpSum(lat, {(1,): mpc(1, 2), (-3,): mpf("0.25")}, offset=mpc(0, 1))
        back = ExpSum.from_json(lat, f.to_json())
        assert back.equals(f)


class TestFiltration:
    def test_examples(self):
        lat = Lattice((mpc(-1),))
        f = ExpSum(lat, {(0,): 1, (1,): 1})   # 1 + e^{-1/z}
        levels = filtration_level(f, 0)
        assert len(levels) == 1 and abs(levels[0]) < mpf("1e-40")

        lat_i = Lattice((mpc(0, 1),))
        g = ExpSum(lat_i, {(1,): 1, (-1,): 1})  # e^{i/z} + e^{-i/z}
        levels = sorted(filtration_level(g, 0), key=lambda e: mpmath.im(e))
        assert len(levels) == 2
        assert abs(levels[0] + mpc(0, 1)) < mpf("1e-40")
        assert abs(levels[1] - mpc(0, 1)) < mpf("1e-40")

    def test_shift_equivariance(self, rng):
        lat = Lattice((GAMMA_MU,))
        f = ExpSum(lat, {(k,): mpc(rng.uniform(-1, 1)) for k in (0, 1, 3)})
        theta = mpf("0.3")
        mu = lat.period((1,))
        base = filtration_level(f, theta)
        shifted = filtration_level(f.shift((1,)), theta)
        for e in base:
            assert any(abs(e + mu - e2) < mpf("1e-30") for e2 in shifted)


class TestModerateBound:
    def test_single_decaying_term(self):
        lat = Lattice((mpc(-1),))
        f = ExpSum(lat, {(1,): 1})
        rep = moderate_bound(f, (mpf(0), mpf(0)), mpf("0.1"))
        assert rep.satisfied
        assert abs(rep.bound - mpmath.exp(-10)) < mpf("1e-40")
        assert abs(rep.max_actual - mpmath.exp(-10)) < mpf("1e-40")

    def test_constant_only(self):
        lat = Lattice((mpc(-1),))
        f = ExpSum.constant(lat, 1)
        rep = moderate_bound(f, (mpf("-0.1"), mpf("0.1")), mpf("0.2"))
        assert rep.satisfied
        assert abs(rep.bound - 1) < mpf("1e-40")
        assert rep.max_actual == 0

    def test_random_decaying(self, rng):
        lat = Lattice((mpc(-1),))
        f = ExpSum(lat, {(k,): mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                         for k in range(1, 6)})
        rep = moderate_bound(f, (mpf("-0.3"), mpf("0.3")), mpf("0.15"))
        assert rep.satisfied

    def test_not_decaying(self):
        lat = Lattice((mpc(1),))   # exponent +1 grows along d = 0
        f = ExpSum(lat, {(1,): 1})
        with pytest.raises(NotDecaying):
            moderate_bound(f, (mpf("-0.1"), mpf("0.1")), mpf("0.1"))


class TestFrechetSeminorm:
    def test_balanced_weight(self):
        amap = ExponentMultiMap()
        amap.insert(0, 0, 1)
        rep = frechet_seminorm(lambda z: mpmath.exp(-1 / z), amap, (0, 0),
                               mpf("0.5"))
        assert abs(rep.value - 1) < mpf("1e-20")
        assert not rep.growth_detected

    def test_overweight_grows(self):
        amap = ExponentMultiMap()
        amap.insert(0, 0, 2)
        rep = frechet_seminorm(lambda z: mpmath.exp(-1 / z), amap, (0, 0),
                               mpf("0.2"))
        assert rep.growth_detected

    def test_zero_function(self):
        amap = ExponentMultiMap()
        amap.insert(0, 0, 1)
        rep = frechet_seminorm(lambda z: mpc(0), amap, (0, 0), mpf("0.5"))
        assert rep.value == 0

    def test_monotonicity_enforced(self):
        amap = ExponentMultiMap()
        amap.insert(0, 1, 2)
        with pytest.raises(ValueError):
            amap.insert(mpf("0.2"), mpf("0.8"), 1)  # sub-arc, smaller value


class TestNeumann:
    def arc(self):
        return (mp.pi / 2 - mpf("0.2"), mp.pi / 2 + mpf("0.2"))

    def test_zero_endomorphism(self):
        lat = Lattice((GAMMA_MU,))
        module = GradedModule(lat, (mpc(0),))
        psi = [[ExpSum(lat, {})]]
        g = [ExpSum(lat, {(0,): 1, (1,): mpf("0.5")})]
        rep = neumann_solve(module, psi, g, ExpTruncation(self.arc(), norm_bound=6))
        assert rep.solution[0].equals(g[0])
        assert rep.residual_norm == 0

    def test_rank_one_geometric(self):
        lat = Lattice((GAMMA_MU,))
        module = GradedModule(lat, (mpc(0),))
        psi = [[ExpSum(lat, {(1,): mpf("0.5")})]]
        g = [ExpSum.constant(lat, 1)]
        rep = neumann_solve(module, psi, g, ExpTruncation(self.arc(), norm_bound=6))
        expected = ExpSum(lat, {(n,): mpf("0.5") ** n for n in range(7)})
        assert rep.solution[0].equals(expected)
        # residual is exactly minus the first discarded iterate
        assert abs(rep.residual_norm - mpf("0.5") ** 7 * mpf("0.5") ** 7) \
            < mpf("1e-50")
        assert rep.residual_norm <= rep.first_discarded_norm + mpf("1e-50")

    def test_two_by_two_triangular(self):
        lat = Lattice((GAMMA_MU,))
        module = GradedModule(lat, (mpc(0), GAMMA_MU))
        # slot 1 sits one level below slot 0; psi maps 0 -> 1 strictly down
        psi = [[ExpSum(lat, {}), ExpSum(lat, {})],
               [ExpSum(lat, {(0,): mpc("0.7", "0.1")}), ExpSum(lat, {})]]
        g = [ExpSum.constant(lat, 1), ExpSum.constant(lat, 2)]
        rep = neumann_solve(module, psi, g,
                            ExpTruncation(self.arc(), norm_bound=8))
        assert rep.iterations <= 2
        assert all(r.is_zero() for r in rep.residual)

    def test_not_lowering(self):
        lat = Lattice((GAMMA_MU,))
        module = GradedModule(lat, (mpc(0),))
        psi = [[ExpSum(lat, {(-1,): mpf("0.5")})]]   # raises the level
        g = [ExpSum.constant(lat, 1)]
        with pytest.raises(NotLowering):
            neumann_solve(module, psi, g, ExpTruncation(self.arc(), norm_bound=6))

    def test_random_two_by_two(self, rng):
        lat = Lattice((GAMMA_MU,))
        module = GradedModule(lat, (mpc(0), GAMMA_MU))
        for _ in range(5):
            psi = [[ExpSum(lat, {(1,): mpc(rng.uniform(-0.5, 0.5))}),
                    ExpSum(lat, {})],
                   [ExpSum(lat, {(0,): mpc(rng.uniform(-0.5, 0.5))}),
                    ExpSum(lat, {(1,): mpc(rng.uniform(-0.5, 0.5))})]]
            g = [ExpSum.constant(lat, mpc(rng.uniform(-1, 1))),
                 ExpSum.constant(lat, mpc(rng.uniform(-1, 1)))]
            rep = neumann_solve(module, psi, g,
                                ExpTruncation(self.arc(), norm_bound=7))
            assert rep.residual_norm <= rep.first_discarded_norm + mpf("1e-45")


class TestSerialization:
    def test_lattice_round_trip(self):
        lat = Lattice((mpc(1, 2), mpc(0, -3)), (mpf(1), mpf(2)))
        back = Lattice.from_json(lat.to_json())
        assert all(abs(a - b) < mpf("1e-70") for a, b in zip(back.mu, lat.mu))
        assert back.weights == lat.weights
