"""The four benchmark workloads: seeded inputs, program calls, checks.

Each workload has a ``setup(seed)`` that builds its inputs (the part a
user pays before any result) and a ``run(inputs, ops)`` that makes the
program calls and checks every output with ``checks.Operations``.  The
seed only shapes the inputs; the program receives the generated values.

Sizes are chosen so one cold round takes roughly 5-10 s on a 2-CPU box:
the benchmark repeats whole rounds in fresh interpreters for the length
of a run and reports medians, and the acceptance-criterion sizes (67 s
for the criterion-3 crossing, 33 s for criterion 2) would leave one
noisy sample per run.
"""

import random

import mpmath
from mpmath import mp, mpf, mpc

from stokeswb import betti, derham, stokes, summation
from stokeswb.derham import RationalForm
from stokeswb.gevrey import GevreySeries

import checks


def gamma_geometry():
    """The one-zero example -(1 - x)/x dx with critical value 1."""
    form = derham.analyze([-1, 1], [0, 1])
    lat = derham.period_lattice(form)
    crit = derham.critical_values(form, 1, [[1]], lat=lat, offset=1)
    return form, lat, crit


def dlog():
    return RationalForm((mpc(1),), (mpc(0), mpc(1)))


# ---------------------------------------------------------------------------
# gamma-crossing: cold thimble tracing and node-table builds
# ---------------------------------------------------------------------------

# The plus crossing of the Stokes ray pi/2, from d = 0 to d = pi/2 + 0.2,
# on a grid in the middle of the 1.37-wide overlap window.  Criterion 3
# uses d = pi - 0.2, whose 0.2-wide window puts every grid point at
# angle pi/2 - 0.1 from both directions and makes the tables ten times
# longer (about 67 s per round).  |z| >= 0.7 keeps the node spacing at
# one unit of f, and rk_tol 1e-8 keeps the traced rays near 90 samples
# (the default 1e-14 traces about 1000 per ray at the far direction).
# Three grid points determine the three dictionary terms of basis bound 1.
CROSS_D2 = mp.pi / 2 + mpf("0.2")
CROSS_TOL = mpf("1e-12")
CROSS_CONTROLS = dict(rk_tol=mpf("1e-8"))
CROSS_N = 3


def crossing_setup(seed):
    form, lat, crit = gamma_geometry()
    rng = random.Random(seed)
    theta = CROSS_D2 / 2
    radii = [mpf("0.70") + mpf("0.1") * i + mpf(rng.uniform(0, 0.05))
             for i in range(CROSS_N)]
    grid = [r * mpmath.exp(1j * theta) for r in radii]
    return dict(form=form, lat=lat, crit=crit, grid=grid)


def crossing_run(inp, ops):
    form, lat, crit, grid = inp["form"], inp["lat"], inp["crit"], inp["grid"]
    controls = betti.TraceControls(**CROSS_CONTROLS)

    def sector(d):
        return stokes.sector_matrix(form, crit, d, grid, asy_order=4,
                                    controls=controls, tol=CROSS_TOL)

    xa = ops.run("sector_matrix d=0", sector, mpf(0))
    xb = ops.run("sector_matrix d=pi/2+0.2", sector, CROSS_D2)

    def factor():
        for z, a, b in zip(grid, xa.entries[(0, 0)], xb.entries[(0, 0)]):
            ops.check("entry ratio vs 1 - exp(-2 pi i/z)",
                      checks.rel_err(b / a, checks.stokes_jump_ref(z, 1)), 1e-8)
        fac = stokes.stokes_factor(xa, xb, lat, basis_bound=1)
        terms = fac.entries[0][0].terms
        ops.check("fitted constant term vs 1",
                  abs(terms.get((0,), mpc(0)) - 1), 1e-6)
        ops.check("fitted exp(-2 pi i/z) coefficient vs -1",
                  abs(terms.get((1,), mpc(0)) + 1), 1e-6)
        for g, coeff in terms.items():
            if g not in ((0,), (1,)):
                ops.check(f"fitted term {g} contribution",
                          max(abs(coeff * mpmath.exp(lat.period(g) / z)) for z in grid),
                          1e-6)
    ops.run("stokes_factor", factor)


# ---------------------------------------------------------------------------
# gamma-dense-z: per-z table sums on one warm thimble
# ---------------------------------------------------------------------------

DENSE_N = 8
DENSE_TOL = mpf("1e-10")
# no z below extends a ray traced to this reach; at the default 80 the
# table build alone would outweigh the per-z sums
DENSE_REACH = 30


def dense_setup(seed):
    form, lat, crit = gamma_geometry()
    rng = random.Random(seed)
    lo, hi = mpmath.log(mpf("0.07")), mpmath.log(mpf("0.5"))
    zs = []
    # one |z| per stratum of log|z| keeps the per-z work of a round steady
    for i in range(DENSE_N):
        r = mpmath.exp(lo + (hi - lo) * (i + mpf(rng.random())) / DENSE_N)
        zs.append(r * mpmath.exp(1j * mpf(rng.uniform(-0.8, 0.8))))
    return dict(form=form, crit=crit, omega=dlog(), zs=zs)


def dense_run(inp, ops):
    form, crit, omega = inp["form"], inp["crit"], inp["omega"]
    controls = betti.TraceControls(flow_reach=DENSE_REACH)
    path = ops.run("trace_thimble d=0", betti.trace_thimble, form, crit, 0, 0, 0,
                   controls)

    def one(z):
        val = stokes.exp_integral(path, omega, crit, z, tol=DENSE_TOL)
        ops.check("thimble integral vs z^(1/z) Gamma(1/z)",
                  checks.rel_err(val, checks.thimble_ref(z)), 1e-8)
    for z in inp["zs"]:
        ops.run(f"exp_integral z={mpmath.nstr(z, 5)}", one, z)


# ---------------------------------------------------------------------------
# borel-resum: formal reduction and Borel-Laplace summation, no geometry
# ---------------------------------------------------------------------------

# local_coordinate_series costs about the cube of the order; at order 24
# borel_sum raises ValueError in its exponential-size fit
BOREL_ORDER = 26
BOREL_N = 6
BOREL_TAIL = mpf("1e-10")


def borel_setup(seed):
    form, lat, crit = gamma_geometry()
    rng = random.Random(seed)
    lo, hi = mpmath.log(mpf("0.05")), mpmath.log(mpf("0.5"))
    grid = []
    # the criterion-2 region, one point per stratum of log|z|
    for i in range(BOREL_N):
        r = mpmath.exp(lo + (hi - lo) * (i + mpf(rng.random())) / BOREL_N)
        grid.append(r * mpmath.exp(1j * mpf(rng.uniform(-1, 1))))
    return dict(form=form, omega=dlog(), grid=grid)


def borel_run(inp, ops):
    form, omega = inp["form"], inp["omega"]

    def formal():
        series = derham.formal_comparison(omega, form, 0, BOREL_ORDER)[0]
        ref = checks.stirling_formal_ref(BOREL_ORDER)
        for got, want in zip(series.coeffs, ref):
            ops.check("formal coefficient vs Bernoulli closed form",
                      checks.rel_err(got, want), 1e-30)
        return GevreySeries(tuple(c if n % 2 == 0 else -c
                                  for n, c in enumerate(series.coeffs)))
    dual = ops.run(f"formal_comparison order {BOREL_ORDER}", formal)

    def resum():
        out = summation.borel_sum(dual, 0, inp["grid"], tail_cut=BOREL_TAIL)
        for z, v in out.points:
            ops.check("Borel sum vs exp(1/z) z^(1/z) Gamma(1/z)/sqrt(2 pi z)",
                      checks.rel_err(v, checks.borel_ref(z)), 1e-8)
    ops.run("borel_sum", resum)


# ---------------------------------------------------------------------------
# form-setup: roots, lattices, critical values, local coordinates
# ---------------------------------------------------------------------------

FORMS_N = 12


def forms_setup(seed):
    """Random forms of the criterion-6 kind, as coefficient lists.

    The degrees cycle through a fixed list, so every seed gives the same
    mix of pole, zero and lattice structure; the seed draws coefficients.
    """
    rng = random.Random(seed)
    forms = []
    for i in range(FORMS_N):
        dp, dq = 1 + i % 5, i % 6
        p = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(dp + 1)]
        q = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(dq + 1)]
        p[-1] += 3
        q[-1] += 3
        if i % 10 == 9:
            # a square, so every zero is double
            p = [mpmath.fsum(p[k] * p[n - k] for k in range(max(0, n - dp), min(n, dp) + 1))
                 for n in range(2 * dp + 1)]
        forms.append((p, q, mpf(rng.uniform(0, 2 * mp.pi))))
    return dict(forms=forms)


def _segment_distance(a, b, x):
    ab = b - a
    t = mpmath.re((x - a) * mpmath.conj(ab)) / abs(ab) ** 2
    t = min(max(t, mpf(0)), mpf(1))
    return abs(a + t * ab - x)


def _basepoint(zeros, poles, scale):
    """A point whose straight paths to the zeros keep clear of the poles."""
    best, best_gap = None, mpf(-1)
    for k in range(12):
        cand = 2 * scale * mpmath.exp(2j * mp.pi * (k + mpf("0.5")) / 12)
        gap = min([_segment_distance(cand, z, p) for z in zeros for p in poles]
                  + [abs(cand - p) for p in poles] + [scale])
        if gap > best_gap:
            best, best_gap = cand, gap
    return best, best_gap


def forms_run(inp, ops):
    for p, q, phase in inp["forms"]:
        of = ops.run("analyze", derham.analyze, p, q)
        if of is None:
            continue
        deg_p, deg_q = len(p) - 1, len(q) - 1

        def properties():
            ops.check_exact("degree identity", checks.degree_identity(of, deg_p, deg_q))
            ops.check("residue theorem", checks.residue_sum(of), 1e-30)
            for z in of.zeros:
                if z.location != derham.INF:
                    ops.check("zero backward error",
                              checks.backward_error(p, z.location), 1e-38)
            for pole in of.poles:
                if pole.location != derham.INF:
                    ops.check("pole backward error",
                              checks.backward_error(q, pole.location), 1e-38)
        ops.run("root properties", properties)

        finite = [pl for pl in of.poles if pl.location != derham.INF]
        n_periods = len(finite) - (0 if len(finite) < len(of.poles) else 1)
        if any(z.location == derham.INF for z in of.zeros) or n_periods > 2:
            continue
        zeros = [z.location for z in of.zeros]
        poles = [pl.location for pl in finite]
        scale = max([abs(x) for x in zeros + poles] + [mpf(1)])
        base, gap = _basepoint(zeros, poles, scale)
        lat = ops.run("period_lattice", derham.period_lattice, of)
        if lat is None or gap < mpf("0.05") * scale:
            continue

        def crit_values():
            crit = derham.critical_values(of, base, [[z] for z in zeros], lat=lat)
            for z, c in zip(zeros, crit.values):
                ops.check("critical value vs mpmath.quad",
                          checks.rel_err(c, checks.segment_quad(p, q, base, z)), 1e-30)
        ops.run("critical_values", crit_values)

        for j, zero in enumerate(of.zeros):
            def local(j=j, zero=zero):
                # the lowest order the method accepts; the series cost
                # grows like ((m + 1) (order + 2))^3
                m = zero.order
                lc = derham.local_coordinate_series(of, j, m + 2)
                coeffs = lc.x_of_u.coeffs
                radius = 1 / max(abs(c) ** (mpf(1) / n)
                                 for n, c in enumerate(coeffs) if n and c != 0)
                # truncation error ~ (|u|/radius)^2 ~ 1e-30
                u = radius * mpf("1e-15") * mpmath.exp(1j * phase)
                lhs = checks.segment_quad(p, q, zero.location, lc.point(u), mp.prec)
                ops.check("local coordinate: integral to x(u) vs u^(m+1)/(m+1)",
                          checks.rel_err(lhs, u ** (m + 1) / (m + 1)), 1e-20)
            ops.run("local_coordinate_series", local)


WORKLOADS = {
    "gamma-crossing": (crossing_setup, crossing_run),
    "gamma-dense-z": (dense_setup, dense_run),
    "borel-resum": (borel_setup, borel_run),
    "form-setup": (forms_setup, forms_run),
}
