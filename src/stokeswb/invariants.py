"""Quick-running invariant suite behind the `check` command.

Each invariant returns (name, passed, detail).  Randomized spot checks
take their seed from the caller so runs are reproducible.
"""

import random

import mpmath
from mpmath import mp, mpf, mpc

from . import betti, derham, gevrey, lattice, summation
from .gevrey import GevreySeries


def _random_series(rng, order, scale=1.0):
    return GevreySeries(tuple(mpc(rng.uniform(-scale, scale),
                                  rng.uniform(-scale, scale))
                              for _ in range(order + 1)))


def _inv_borel_linear(rng):
    a = _random_series(rng, 12)
    b = _random_series(rng, 12)
    al, be = mpc(rng.uniform(-2, 2)), mpc(rng.uniform(-2, 2))
    lhs = gevrey.formal_borel(gevrey.add(gevrey.scale(a, al), gevrey.scale(b, be)))
    rhs = gevrey.add(gevrey.scale(gevrey.formal_borel(a), al),
                     gevrey.scale(gevrey.formal_borel(b), be))
    return lhs.isclose(rhs, rel=mpf("1e-60"))


def _inv_ring_axioms(rng):
    a = _random_series(rng, 10)
    b = _random_series(rng, 10)
    c = _random_series(rng, 10)
    assoc = gevrey.mul(gevrey.mul(a, b), c).isclose(
        gevrey.mul(a, gevrey.mul(b, c)), rel=mpf("1e-55"))
    distr = gevrey.mul(a, gevrey.add(b, c)).isclose(
        gevrey.add(gevrey.mul(a, b), gevrey.mul(a, c)), rel=mpf("1e-55"))
    return assoc and distr


def _inv_gevrey_padding(rng):
    a = _random_series(rng, 9)
    padded = GevreySeries(a.coeffs + (mpc(0),) * 5)
    return gevrey.estimate_gevrey_constant(a) == gevrey.estimate_gevrey_constant(padded)


def _inv_sum_identity_on_polynomials(rng):
    poly = GevreySeries((mpc(1), mpc(1), mpc(1)) + (mpc(0),) * 8)
    z = mpf("0.1")
    out = summation.borel_sum(poly, 0, [z], tail_cut=mpf("1e-14"))
    return abs(out.points[0][1] - poly(z)) < mpf("1e-10")


def _inv_pade_on_geometric(rng):
    geo = GevreySeries((mpc(1),) * 121)
    g = summation.BorelFunction(geo, pade_order=30, known_singularities=[mpc(1)])
    for zeta in (mpc(-5, 0), mpc(0, 5), mpc(-3, 3)):
        exact = 1 / (1 - zeta)
        if abs(summation.continue_borel(g, zeta) - exact) > mpf("1e-40") * abs(exact):
            return False
    return True


def _inv_order_properties(rng):
    for _ in range(30):
        pts = [mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        theta = rng.uniform(0, 6.28)
        a, b, c = pts
        if lattice.exp_less_at(a, a, theta) != lattice.EQUAL:
            return False
        if (lattice.exp_less_at(a, b, theta) == lattice.LESS
                and lattice.exp_less_at(b, c, theta) == lattice.LESS
                and lattice.exp_less_at(a, c, theta) != lattice.LESS):
            return False
    return True


def _inv_omega_negation(rng):
    lat = lattice.Lattice((mpc(1, 2), mpc(-2, 1)))
    diffs = lattice.critical_differences([mpc(0)], lat, 6)
    for w in diffs:
        if not any(abs(w + v) < mpf("1e-25") for v in diffs):
            return False
    return bool(diffs)


def _inv_filtration_shift(rng):
    lat = lattice.Lattice((mpc(0, -2) * mp.pi,))
    f = lattice.ExpSum(lat, {(0,): mpc(1), (1,): mpc(0.5), (2,): mpc(0.25)})
    base = lattice.filtration_level(f, mpf("0.3"))
    shifted = lattice.filtration_level(f.shift((1,)), mpf("0.3"))
    mu = lat.period((1,))
    for e in base:
        if not any(abs(e + mu - e2) < mpf("1e-25") for e2 in shifted):
            return False
    return True


def _inv_neumann_residual(rng):
    lat = lattice.Lattice((mpc(0, -2) * mp.pi,))
    module = lattice.GradedModule(lat, (mpc(0),))
    psi = [[lattice.ExpSum(lat, {(1,): mpc("0.5")})]]
    g = [lattice.ExpSum.constant(lat, 1)]
    trunc = lattice.ExpTruncation(arc=(mp.pi / 2 - mpf("0.2"), mp.pi / 2 + mpf("0.2")),
                                  norm_bound=6)
    rep = lattice.neumann_solve(module, psi, g, trunc)
    return rep.residual_norm <= rep.first_discarded_norm + mpf("1e-40")


def _inv_support_rank1(rng):
    lam = mpc(rng.uniform(0.5, 2), rng.uniform(-1, 1))
    lat = lattice.Lattice((lam,), (mpf(2),))
    rep = lattice.support_radius(lat)
    return abs(rep.value - abs(lam) / 2) < mpf("1e-30")


def _inv_rank_identity(rng):
    for _ in range(20):
        dp = rng.randint(1, 4)
        dq = rng.randint(0, 4)
        p = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(dp + 1)]
        q = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(dq + 1)]
        p[-1] += mpc(3)
        q[-1] += mpc(3)
        try:
            form = derham.analyze(p, q)
        except derham.NotOneForm:
            continue
        if form.zero_order_sum() - form.pole_order_sum() != -2:
            return False
    return True


def _inv_reduction_forms_agree(rng):
    for _ in range(6):
        m = rng.randint(1, 4)
        order = rng.randint(5, 12)
        coeffs = [mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range((m + 1) * (order + 1) + m)]
        a = derham.reduction_series(coeffs, m, order)
        b = derham.reduction_series_bruteforce(coeffs, m, order)
        for s1, s2 in zip(a, b):
            if not s1.isclose(s2, rel=mpf("1e-40")):
                return False
    return True


def _inv_local_roundtrip(rng):
    lam = mpc(rng.uniform(0.7, 1.5), rng.uniform(-0.3, 0.3))
    form = derham.analyze([-lam, mpc(1)], [mpc(0), mpc(1)])
    loc = derham.local_coordinate_series(form, 0, 12)
    return loc.residual < mpf("1e-25")


def _inv_dft_unitary(rng):
    for m in (1, 2, 3):
        w = betti.dft_weights(m)
        size = m + 1
        for i in range(size):
            for j in range(size):
                acc = mpc(0)
                for l in range(size):
                    acc += w[i][l] * mpmath.conj(w[j][l])
                target = mpf(1) / size if i == j else mpf(0)
                if abs(acc - target) > mpf("1e-60"):
                    return False
    return True


def _inv_h_closed_form(rng):
    for z in (mpf("0.1"), mpc("0.2", "0.1")):
        val = betti.local_normalizer(1, 0, z, 0)
        if abs(val / mpmath.sqrt(2 * mp.pi * z) - 1) > mpf("1e-50"):
            return False
    return True


def _inv_boundary_formula(rng):
    pole = derham.Pole(mpc(0), 2, mpc(0))
    intervals = betti.boundary_set(pole, (mpf(0), mpf(0)))
    if len(intervals) != 1:
        return False
    lo, hi = intervals[0]
    return abs(lo - mp.pi / 2) < mpf("1e-30") and abs(hi - 3 * mp.pi / 2) < mpf("1e-30")


_INVARIANTS = [
    ("gevrey.borel_transform_linear", _inv_borel_linear),
    ("gevrey.ring_axioms", _inv_ring_axioms),
    ("gevrey.constant_zero_padding", _inv_gevrey_padding),
    ("summation.identity_on_polynomials", _inv_sum_identity_on_polynomials),
    ("summation.pade_on_geometric", _inv_pade_on_geometric),
    ("lattice.order_partial", _inv_order_properties),
    ("lattice.difference_set_symmetric", _inv_omega_negation),
    ("lattice.filtration_equivariant", _inv_filtration_shift),
    ("lattice.neumann_residual_bound", _inv_neumann_residual),
    ("lattice.support_radius_rank1", _inv_support_rank1),
    ("derham.rank_identity", _inv_rank_identity),
    ("derham.reduction_forms_agree", _inv_reduction_forms_agree),
    ("derham.local_coordinate_roundtrip", _inv_local_roundtrip),
    ("betti.dft_unitary", _inv_dft_unitary),
    ("betti.normalizer_closed_form", _inv_h_closed_form),
    ("betti.boundary_set_formula", _inv_boundary_formula),
]


def run_all(seed=0, pattern=None, corrupt=False):
    results = []
    for i, (name, fn) in enumerate(_INVARIANTS):
        if pattern and pattern not in name:
            continue
        rng = random.Random(seed + i)
        try:
            ok = fn(rng)
            detail = ""
        except Exception as err:  # an invariant crashing is a failure
            ok = False
            detail = f"{type(err).__name__}: {err}"
        if corrupt and name == "gevrey.ring_axioms":
            ok = False
            detail = "corruption injected by --inject-corruption"
        results.append((name, bool(ok), detail))
    return results
