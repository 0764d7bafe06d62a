"""Acceptance suite: one test per criterion, with timing budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.  Shared geometry (the one-zero example at parameter
1) is built once per module; stated runtimes are asserted against each
criterion's incremental work.
"""

import random
import time

import pytest
import mpmath
from mpmath import mp, mpf, mpc

from stokeswb import betti, derham, gevrey, lattice, stokes, summation
from stokeswb.derham import RationalForm
from stokeswb.gevrey import GevreySeries

mp.prec = 256


def report(n, label, metric, elapsed, budget):
    print(f"ACCEPTANCE {n:2d} PASS  {label}: {metric} "
          f"({elapsed:.2f}s of {budget}s budget)")


@pytest.fixture(scope="module")
def gamma():
    form = derham.analyze([-1, 1], [0, 1])
    lat = derham.period_lattice(form)
    crit = derham.critical_values(form, 1, [[1]], lat=lat, offset=1)
    omega = RationalForm((mpc(1),), (mpc(0), mpc(1)))
    return form, lat, crit, omega


@pytest.fixture(scope="module")
def summability_grid():
    grid = []
    for i in range(5):
        r = mpf("0.05") * mpf(10) ** (mpf(i) / 4)
        for a in (mpf(-1), mpf("-0.35"), mpf("0.35"), mpf(1)):
            grid.append(r * mpmath.exp(1j * a))
    assert len(grid) == 20
    return grid


@pytest.fixture(scope="module")
def dual_series(gamma):
    """Formal reduction of dlog x at order 44, flipped to the dual side."""
    form, lat, crit, omega = gamma
    series = derham.formal_comparison(omega, form, 0, 44)[0]
    return GevreySeries(tuple(c if n % 2 == 0 else -c
                              for n, c in enumerate(series.coeffs)))


def closed_product(z, lam=mpc(1)):
    c = lam - lam * mpmath.log(lam)
    s = lam / z
    return mpmath.exp(c / z) * z ** s * mpmath.gamma(s) / mpmath.sqrt(2 * mp.pi * z)


def test_criterion_01_stirling_agreement():
    t0 = time.monotonic()
    rep = derham.stirling_check(1, 12, rel_tol=mpf("1e-12"))
    refs = [mpc(1), mpf(-1) / 12, mpf(1) / 288, mpf(139) / 51840]
    assert rep.passed
    for got, want in zip(rep.formal.coeffs, refs):
        assert abs(got - want) <= mpf("1e-12") * abs(want)
    elapsed = time.monotonic() - t0
    assert elapsed < 1
    report(1, "Stirling/formal agreement",
           f"max rel err {mpmath.nstr(rep.max_rel_error, 3)} through order 12",
           elapsed, 1)


def test_criterion_02_summability(gamma, dual_series, summability_grid):
    form, lat, crit, omega = gamma
    t0 = time.monotonic()
    sing = lattice.critical_differences(crit.representatives, lat, 40)
    out = summation.borel_sum(dual_series, 0, summability_grid,
                              tail_cut=mpf("1e-10"),
                              known_singularities=sing)
    worst = mpf(0)
    for z, v in out.points:
        ref = closed_product(z)
        worst = max(worst, abs(v - ref) / abs(ref))
    elapsed = time.monotonic() - t0
    assert worst <= mpf("1e-6")
    assert elapsed < 30
    report(2, "Borel summability on 20 grid points",
           f"max rel err {mpmath.nstr(worst, 3)}", elapsed, 30)


def test_criterion_03_stokes_factors(gamma):
    form, lat, crit, omega = gamma
    t0 = time.monotonic()
    results = {}
    for sign, d2 in ((1, mp.pi - mpf("0.2")), (-1, -mp.pi + mpf("0.2"))):
        # one band at the center of the 0.2-wide overlap window: the
        # radial spread conditions the exponential fit, and both decay
        # rates stay bounded away from zero
        ray = sign * mp.pi / 2
        eps = mpf("0.1")
        grid = [r * mpmath.exp(1j * (ray - sign * eps))
                for r in (mpf("0.3"), mpf("0.33"), mpf("0.36"),
                          mpf("0.39"), mpf("0.42"), mpf("0.45"))]
        xa = stokes.sector_matrix(form, crit, 0, grid, asy_order=4,
                                  tol=mpf("1e-14"))
        xb = stokes.sector_matrix(form, crit, d2, grid, asy_order=4,
                                  tol=mpf("1e-14"))
        fac = stokes.stokes_factor(xa, xb, lat, basis_bound=2)
        entry = fac.entries[0][0]
        # the identity part and a coefficient -1 on the decaying exponential
        # exp(mu(sign * generator)/z) = exp(-sign 2 pi i/z)
        assert abs(entry.terms.get((0,), mpc(0)) - 1) <= mpf("1e-6")
        assert abs(entry.terms.get((sign,), mpc(0)) + 1) <= mpf("1e-6")
        assert fac.fit_residual <= mpf("1e-6")
        for g, coeff in entry.terms.items():
            if g in ((0,), (sign,)):
                continue
            contrib = max(abs(coeff) * abs(mpmath.exp(lat.period(g) / z))
                          for z in grid)
            assert contrib <= mpf("1e-6")
        results[sign] = fac.fit_residual
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    report(3, "Stokes factors 1 - exp(-+2 pi i/z) across the two rays",
           f"fit residuals {mpmath.nstr(results[1], 3)} / "
           f"{mpmath.nstr(results[-1], 3)}", elapsed, 60)


def test_criterion_04_reduction_oracle():
    t0 = time.monotonic()
    rng = random.Random(4)
    worst = mpf(0)
    for _ in range(50):
        m = rng.randint(1, 4)
        order = rng.randint(3, 40)
        coeffs = [mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range((m + 1) * (order + 1) + m)]
        closed = derham.reduction_series(coeffs, m, order)
        brute = derham.reduction_series_bruteforce(coeffs, m, order)
        for a, b in zip(closed, brute):
            for ca, cb in zip(a.coeffs, b.coeffs):
                scale = max(abs(ca), abs(cb), mpf(1))
                worst = max(worst, abs(ca - cb) / scale)
    elapsed = time.monotonic() - t0
    assert worst <= mpf("1e-12")
    assert elapsed < 10
    report(4, "reduction closed form vs rewriting oracle (50 instances)",
           f"max rel dev {mpmath.nstr(worst, 3)}", elapsed, 10)


def test_criterion_05_local_normalizer():
    t0 = time.monotonic()
    worst = mpf(0)
    for z in (mpf("0.1"), mpf("0.3"), mpf(1)):
        closed = betti.local_normalizer(1, 0, z, 0)
        assert abs(closed / mpmath.sqrt(2 * mp.pi * z) - 1) < mpf("1e-40")
        cyc = betti.dft_cycles(1, 0)[0]
        quad = betti.local_cycle_integral(cyc, 1, 0, z)
        worst = max(worst, abs(quad - closed) / abs(closed))
    elapsed = time.monotonic() - t0
    assert worst <= mpf("1e-8")
    assert elapsed < 5
    report(5, "Gaussian normalizer sqrt(2 pi z) vs cycle quadrature",
           f"max rel err {mpmath.nstr(worst, 3)}", elapsed, 5)


def test_criterion_06_rank_identity():
    t0 = time.monotonic()
    rng = random.Random(6)
    done = 0
    while done < 100:
        dp = rng.randint(1, 5)
        dq = rng.randint(0, 5)
        p = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(dp + 1)]
        q = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(dq + 1)]
        p[-1] += 3
        q[-1] += 3
        if done % 10 == 9:
            p = derham.poly_mul(p, derham.poly_mul(p, [mpc(1)]))  # square: forces multiplicity
        try:
            form = derham.analyze(p, q)
        except derham.NotOneForm:
            continue
        assert form.zero_order_sum() - form.pole_order_sum() == -2
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    report(6, "degree identity on 100 random forms", "exact integer equality",
           elapsed, 5)


def test_criterion_07_generic_directions(gamma):
    form, lat, crit, omega = gamma
    t0 = time.monotonic()
    out = lattice.nongeneric_directions(crit.representatives, lat, 20 * mp.pi)
    assert len(out) == 2
    assert abs(out[0] - mp.pi / 2) < mpf("1e-12")
    assert abs(out[1] - 3 * mp.pi / 2) < mpf("1e-12")
    elapsed = time.monotonic() - t0
    assert elapsed < 1
    report(7, "non-generic directions are exactly pi/2 + k pi",
           f"{len(out)} directions within radius 20 pi", elapsed, 1)


def test_criterion_08_thimble_integral(gamma):
    form, lat, crit, omega = gamma
    t0 = time.monotonic()
    path = betti.trace_thimble(form, crit, 0, 0, 0)
    worst = mpf(0)
    zs = [mpf("0.07") * (mpf("0.5") / mpf("0.07")) ** (mpf(i) / 7)
          for i in range(8)]
    zs += [mpf("0.2") * mpmath.exp(1j * mpf("0.6")),
           mpf("0.35") * mpmath.exp(-1j * mpf("0.5"))]
    assert len(zs) == 10
    for z in zs:
        val = stokes.exp_integral(path, omega, crit, z, tol=mpf("1e-10"))
        ref = z ** (1 / z) * mpmath.gamma(1 / z)
        worst = max(worst, abs(val - ref) / abs(ref))
    elapsed = time.monotonic() - t0
    assert worst <= mpf("1e-6")
    assert elapsed < 60
    report(8, "traced thimble integral vs z^(1/z) Gamma(1/z) at 10 samples",
           f"max rel err {mpmath.nstr(worst, 3)}", elapsed, 60)


def test_criterion_09_comparison_diagram(gamma, summability_grid):
    form, lat, crit, omega = gamma
    t0 = time.monotonic()
    rep = stokes.comparison_check(form, crit, 0, summability_grid,
                                  asy_order=44, tol=mpf("1e-6"),
                                  quad_tol=mpf("1e-10"))
    elapsed = time.monotonic() - t0
    assert rep.passed
    assert elapsed < 30
    report(9, "comparison diagram on the criterion-2 grid",
           f"max rel discrepancy {mpmath.nstr(rep.max_rel_discrepancy, 3)}",
           elapsed, 30)


def test_criterion_10_neumann_gluing():
    t0 = time.monotonic()
    lat = lattice.Lattice((mpc(0, -2) * mp.pi,))
    arc = (mp.pi / 2 - mpf("0.2"), mp.pi / 2 + mpf("0.2"))
    module = lattice.GradedModule(lat, (mpc(0),))
    psi = [[lattice.ExpSum(lat, {(1,): mpf("0.5")})]]
    g = [lattice.ExpSum.constant(lat, 1)]
    rep = lattice.neumann_solve(module, psi, g,
                                lattice.ExpTruncation(arc, norm_bound=6))
    assert rep.residual_norm <= rep.first_discarded_norm + mpf("1e-45")
    rng = random.Random(10)
    module2 = lattice.GradedModule(lat, (mpc(0), mpc(0, -2) * mp.pi))
    for _ in range(20):
        psi2 = [[lattice.ExpSum(lat, {(1,): mpc(rng.uniform(-0.6, 0.6),
                                               rng.uniform(-0.3, 0.3))}),
                 lattice.ExpSum(lat, {})],
                [lattice.ExpSum(lat, {(0,): mpc(rng.uniform(-0.6, 0.6))}),
                 lattice.ExpSum(lat, {(1,): mpc(rng.uniform(-0.6, 0.6))})]]
        g2 = [lattice.ExpSum.constant(lat, mpc(rng.uniform(-1, 1))),
              lattice.ExpSum.constant(lat, mpc(rng.uniform(-1, 1)))]
        rep2 = lattice.neumann_solve(module2, psi2, g2,
                                     lattice.ExpTruncation(arc, norm_bound=7))
        assert rep2.residual_norm <= rep2.first_discarded_norm + mpf("1e-45")
    elapsed = time.monotonic() - t0
    assert elapsed < 1
    report(10, "Neumann gluing residual bounds (geometric + 20 random)",
           "residual <= first discarded term", elapsed, 1)


def test_criterion_11_asymptotic_checker_discriminates():
    t0 = time.monotonic()
    s = GevreySeries(tuple(mpmath.factorial(n) * mpc(-1) ** n
                           for n in range(11)))
    zs = [mpf("0.3") * mpf("0.5") ** k for k in range(6)]
    out = summation.borel_sum(s, 0, zs, tail_cut=mpf("1e-20"),
                              known_singularities=[mpc(-1)])
    clean = gevrey.check_asymptotic(out.points, s, 6)
    assert clean.passed
    bump = mpmath.factorial(5) ** 2
    perturbed = [(z, v + bump * z ** 5) for z, v in out.points]
    dirty = gevrey.check_asymptotic(perturbed, s, 6)
    assert not dirty.passed
    assert 5 in dirty.failed_orders
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    report(11, "Gevrey checker passes the resummed series, fails the "
               "(5!)^2-perturbed one at order 5",
           f"clean sup C_N {mpmath.nstr(clean.worst(), 3)}", elapsed, 5)


def test_criterion_12_borel_singularities(gamma):
    form, lat, crit, omega = gamma
    t0 = time.monotonic()
    b = derham.stirling_exponent_series(1, 80)
    g = summation.BorelFunction(gevrey.formal_borel(b), pade_order=38)
    poles = summation.locate_borel_singularities(g, 15)
    targets = lattice.critical_differences([mpc(0)], lat, 15)
    assert targets
    worst = mpf(0)
    for t in targets:
        d = min(abs(p - t) for p in poles)
        worst = max(worst, d)
    for p in poles:
        assert min(abs(p - t) for t in targets) <= mpf("1e-3")
    elapsed = time.monotonic() - t0
    assert worst <= mpf("1e-3")
    assert elapsed < 10
    report(12, "Borel singularities cluster on the period translates",
           f"worst cluster distance {mpmath.nstr(worst, 3)}", elapsed, 10)
