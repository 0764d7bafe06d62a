import json
from fractions import Fraction

import pytest
import mpmath
from mpmath import mp, mpf, mpc

from stokeswb import derham, gevrey, summation
from stokeswb.errors import EmptyGrid, ZeroLeadingCoefficient
from stokeswb.gevrey import GevreySeries, Sector, from_coeffs


def coeffs_close(s, values, rel=mpf("1e-60")):
    assert len(s.coeffs) >= len(values)
    for c, v in zip(s.coeffs, values):
        scale = max(abs(c), abs(mpc(v)), mpf(1))
        assert abs(c - mpc(v)) <= rel * scale


class TestArithmetic:
    def test_polynomial_product(self):
        out = gevrey.mul(from_coeffs([1, 1]), from_coeffs([1, -1]))
        coeffs_close(out, [1, 0])
        out = gevrey.mul(from_coeffs([1, 1, 0]), from_coeffs([1, -1, 0]))
        coeffs_close(out, [1, 0, -1])

    def test_exp_log_inverse_pair(self):
        for order in (4, 9, 15):
            s = from_coeffs([1, 1] + [0] * (order - 1))
            out = gevrey.exp(gevrey.log(s))
            coeffs_close(out, [1, 1] + [0] * (order - 1))

    def test_compose_geometric_with_doubling(self):
        n = 8
        geo = from_coeffs([1] * (n + 1))
        double = gevrey.monomial(2, 1, n)
        out = gevrey.compose(geo, double)
        # direct substitution oracle: sum (2z)^n has coefficients 2^n
        coeffs_close(out, [mpf(2) ** k for k in range(n + 1)])

    def test_compose_requires_zero_constant(self):
        with pytest.raises(ZeroLeadingCoefficient):
            gevrey.compose(from_coeffs([1, 1]), from_coeffs([1, 1]))

    def test_reciprocal_and_errors(self):
        s = from_coeffs([2, 1, 1])
        out = gevrey.mul(s, gevrey.reciprocal(s))
        coeffs_close(out, [1, 0, 0])
        with pytest.raises(ZeroLeadingCoefficient):
            gevrey.reciprocal(from_coeffs([0, 1]))
        with pytest.raises(ZeroLeadingCoefficient):
            gevrey.log(from_coeffs([0, 1]))

    def test_truncation_to_min_order(self):
        a = from_coeffs([1, 2, 3, 4])
        b = from_coeffs([1, 1])
        assert gevrey.add(a, b).trunc_order == 1
        assert gevrey.mul(a, b).trunc_order == 1

    def test_nth_root_branch(self):
        # leading root argument must land in (-pi/n, pi/n]
        s = from_coeffs([0, 0, -4, 0, 0, 0])   # valuation 2
        r = gevrey.nth_root(s, 2)
        lead = r.coeffs[1]
        assert abs(abs(lead) - 2) < mpf("1e-70")
        assert -mp.pi / 2 < mpmath.arg(lead) <= mp.pi / 2
        # branch hint rotates by a root of unity
        r1 = gevrey.nth_root(s, 2, branch=1)
        assert abs(r1.coeffs[1] + lead) < mpf("1e-70")
        sq = gevrey.mul(r, r)
        coeffs_close(sq, [0, 0, -4, 0])

    def test_reversion_round_trip(self, rng):
        coeffs = [0, 1] + [mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 4
                           for _ in range(10)]
        a = from_coeffs(coeffs)
        w = gevrey.reversion(a)
        round_trip = gevrey.compose(a, w)
        coeffs_close(round_trip, [0, 1] + [0] * 10, rel=mpf("1e-55"))

    def test_newton_ladder_planned_from_the_top(self):
        # order 36 is the order-16 local coordinate at a simple zero
        assert gevrey._newton_orders(36) == [2, 3, 5, 9, 18, 36]
        assert gevrey._newton_orders(64) == [2, 4, 8, 16, 32, 64]
        assert gevrey._newton_orders(1) == []

    @pytest.mark.parametrize("n", [36, 64])
    def test_reversion_matches_doubling_ladder(self, rng, monkeypatch, n):
        def doubling(n):
            # the ladder 3, 7, 15, ... capped at n
            orders, order = [], 1
            while order < n:
                order = min(2 * order + 1, n)
                orders.append(order)
            return orders
        coeffs = [0, mpc(1, "0.5")] + [mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 4
                                       for _ in range(n - 1)]
        a = from_coeffs(coeffs)
        planned = gevrey.reversion(a)
        monkeypatch.setattr(gevrey, "_newton_orders", doubling)
        doubled = gevrey.reversion(a)
        assert planned.trunc_order == doubled.trunc_order == n
        coeffs_close(planned, doubled.coeffs, rel=mpf(2) ** (-mp.prec + 32))

    def test_ring_axioms_random(self, rng):
        for _ in range(5):
            a, b, c = (from_coeffs([mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                    for _ in range(9)]) for _ in range(3))
            assert gevrey.mul(gevrey.mul(a, b), c).isclose(
                gevrey.mul(a, gevrey.mul(b, c)), rel=mpf("1e-55"))
            assert gevrey.mul(a, gevrey.add(b, c)).isclose(
                gevrey.add(gevrey.mul(a, b), gevrey.mul(a, c)), rel=mpf("1e-55"))


def random_series(rng, order, zero_constant=False):
    coeffs = [mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(order + 1)]
    if zero_constant:
        coeffs[0] = mpc(0)
    return from_coeffs(coeffs)


def fraction_mul(a, b, n):
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(n + 1)]


class TestKernel:
    """mul and compose against exact arithmetic and an independent sum."""

    def test_small_integers_exact(self, rng):
        for n in (0, 1, 5, 9):
            ia = [rng.randint(-9, 9) for _ in range(n + 1)]
            ib = [0] + [rng.randint(-9, 9) for _ in range(n)]
            a, b = [Fraction(x) for x in ia], [Fraction(x) for x in ib]
            got = gevrey.mul(from_coeffs(ia), from_coeffs(ib))
            assert got.coeffs == tuple(mpc(int(x)) for x in fraction_mul(a, b, n))
            # a(b) = sum a_k b^k, every b^k truncated at n
            want = [Fraction(0)] * (n + 1)
            power = [Fraction(1)] + [Fraction(0)] * n
            for ak in a:
                want = [w + ak * p for w, p in zip(want, power)]
                power = fraction_mul(power, b, n)
            got = gevrey.compose(from_coeffs(ia), from_coeffs(ib))
            assert got.coeffs == tuple(mpc(int(x)) for x in want)

    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    def test_compose_matches_power_sum(self, rng, n):
        a = random_series(rng, n)
        b = random_series(rng, n, zero_constant=True)
        want = gevrey.monomial(a.coeffs[0], 0, n)
        power = gevrey.monomial(1, 0, n)
        for ak in a.coeffs[1:]:
            power = gevrey.mul(power, b)
            want = gevrey.add(want, gevrey.scale(power, ak))
        coeffs_close(gevrey.compose(a, b), want.coeffs, rel=mpf("1e-70"))

    def test_coefficient_reads_only_lower_inputs(self, rng):
        n = 12
        a = random_series(rng, n)
        b = random_series(rng, n, zero_constant=True)
        prod, comp = gevrey.mul(a, b), gevrey.compose(a, b)
        for j in (0, 3, n - 1):
            bump = [mpc(0)] * (j + 1) + [mpc(rng.uniform(1, 2), 1)] * (n - j)
            a2 = gevrey.add(a, from_coeffs(bump))
            b2 = gevrey.add(b, from_coeffs(bump))
            assert gevrey.mul(a2, b2).coeffs[: j + 1] == prod.coeffs[: j + 1]
            assert gevrey.compose(a2, b2).coeffs[: j + 1] == comp.coeffs[: j + 1]


class TestGevreyConstant:
    def test_factorial_series(self):
        s = from_coeffs([mpmath.factorial(n) for n in range(12)])
        assert abs(gevrey.estimate_gevrey_constant(s) - 1) < mpf("1e-70")

    def test_constant_one(self):
        assert gevrey.estimate_gevrey_constant(from_coeffs([1])) == 1

    def test_stirling_exponent_constant_below_one(self):
        s = derham.stirling_exponent_series(1, 20)
        c = gevrey.estimate_gevrey_constant(s)
        # direct evaluation of the max over stored coefficients
        direct = max((abs(a) / mpmath.factorial(n)) ** (mpf(1) / (n + 1))
                     for n, a in enumerate(s.coeffs) if a != 0)
        assert c == direct
        assert c < 1

    def test_zero_series(self):
        assert gevrey.estimate_gevrey_constant(gevrey.zero_series(5)) == 0

    def test_padding_invariance(self):
        s = from_coeffs([1, 3, 7])
        padded = GevreySeries(s.coeffs + (mpc(0),) * 6)
        assert gevrey.estimate_gevrey_constant(s) == \
            gevrey.estimate_gevrey_constant(padded)


class TestFormalBorel:
    def test_factorials_cancel(self):
        s = from_coeffs([mpmath.factorial(n) for n in range(10)])
        coeffs_close(gevrey.formal_borel(s), [1] * 10)

    def test_constant(self):
        coeffs_close(gevrey.formal_borel(from_coeffs([1])), [1])

    def test_z_squared(self):
        out = gevrey.formal_borel(gevrey.monomial(1, 2, 4))
        coeffs_close(out, [0, 0, mpf(1) / 2, 0, 0])

    def test_linearity(self, rng):
        a = from_coeffs([mpc(rng.uniform(-1, 1)) for _ in range(8)])
        b = from_coeffs([mpc(rng.uniform(-1, 1)) for _ in range(8)])
        lhs = gevrey.formal_borel(gevrey.add(gevrey.scale(a, 3), gevrey.scale(b, -2)))
        rhs = gevrey.add(gevrey.scale(gevrey.formal_borel(a), 3),
                         gevrey.scale(gevrey.formal_borel(b), -2))
        assert lhs.isclose(rhs, rel=mpf("1e-70"))

    def test_geometric_bound_from_constant(self):
        # |a_n| <= C^(n+1) n! gives Borel coefficients below C^(n+1)
        s = from_coeffs([mpmath.factorial(n) * mpf(2) ** (n + 1)
                         for n in range(10)], )
        c = gevrey.estimate_gevrey_constant(s)
        borel = gevrey.formal_borel(s)
        for n, coeff in enumerate(borel.coeffs):
            assert abs(coeff) <= c ** (n + 1) * (1 + mpf("1e-50"))


class TestCheckAsymptotic:
    def euler_series(self, order):
        return from_coeffs([mpmath.factorial(n) * (-1) ** n
                            for n in range(order + 1)])

    def euler_samples(self, zs):
        # independent oracle at doubled precision: f(z) = int_0^inf e^-t/(1+t z) dt
        out = []
        with mp.workprec(mp.prec * 2):
            for z in zs:
                val = mpmath.quad(lambda t: mpmath.exp(-t) / (1 + t * z),
                                  [0, mpmath.inf])
                out.append((z, val))
        return out

    def test_exact_polynomial_passes(self):
        s = from_coeffs([1, 1, 0, 0, 0])
        samples = [(z, 1 + z) for z in (mpf("0.1"), mpf("0.05"), mpc("0.02", "0.01"))]
        report = gevrey.check_asymptotic(samples, s, 3)
        assert report.passed

    def test_euler_sum_passes(self):
        s = self.euler_series(10)
        zs = [mpf("0.3") ** k for k in range(2, 8)]
        report = gevrey.check_asymptotic(self.euler_samples(zs), s, 6)
        assert report.passed

    def test_perturbation_fails_at_order_five(self):
        s = self.euler_series(10)
        bump = mpmath.factorial(5) ** 2
        samples = [(z, f + bump * z ** 5)
                   for z, f in self.euler_samples([mpf("0.3") ** k
                                                   for k in range(2, 8)])]
        report = gevrey.check_asymptotic(samples, s, 6)
        assert not report.passed
        assert 5 in report.failed_orders

    def test_empty_grid(self):
        with pytest.raises(EmptyGrid):
            gevrey.check_asymptotic([], from_coeffs([1, 1]), 1)


class TestSerialization:
    def test_bit_exact_round_trip(self, rng):
        coeffs = [mpc(mpf(rng.random()) / 3, mpf(rng.random()) / 7)
                  for _ in range(6)]
        s = GevreySeries(tuple(coeffs))
        data = json.loads(json.dumps(s.to_json()))
        back = GevreySeries.from_json(data)
        assert back.precision == s.precision
        assert all(a == b for a, b in zip(back.coeffs, s.coeffs))

    def test_sector_membership(self):
        sec = Sector(0, 1, 1)
        assert sec.contains(mpf("0.5"))
        assert not sec.contains(mpf("1.5"))
        assert not sec.contains(mpf("0.5") * mpmath.exp(1j * mpf("0.8")))
        with pytest.raises(ValueError):
            Sector(0, 0, 1)
