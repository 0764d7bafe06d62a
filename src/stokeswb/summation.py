"""Borel-plane continuation, directional Laplace transform, 1-summation.

A divergent Gevrey-1 series is resummed along a direction d by
continuing its Borel transform along the ray arg(zeta) = d by diagonal
Pade approximation (checked by the agreement of two consecutive orders)
and applying the truncated Laplace integral
z^-1 * int_0^T g(zeta) exp(-zeta/z) dzeta, with T chosen from a fitted
exponential-size bound and rounded up to a power of two.

The quadrature panels lie on the dyadic ladder 0, 1, 2, 4, ..., T and
split only at midpoints, so every z of a grid reads the Borel function
at the same nodes.  A `BorelFunction` memoizes its continued values by
zeta, so each node is continued once for the whole grid.
"""

import hashlib
import json
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf, mpc

from . import derham, gevrey
from .errors import (ContinuationDiverged, DivergentLaplace, EmptyGrid,
                     GrowthTooFast, NearSingularity, RootFindingFailed,
                     SingularRay)
from .gevrey import GevreySeries, UnboundedSector, formal_borel
from .scalar import adaptive_gauss, to_mpc

# guard distance around a known singularity, relative to |zeta|
_GUARD_FACTOR = "1e-3"
# relative agreement two consecutive Pade orders must reach
_AGREE_REL = "1e-8"


@dataclass(frozen=True)
class ExpSizeEstimate:
    """Fitted bound |g(zeta)| <= C * exp(h |zeta|) on a sector."""
    C: object
    h: object
    sector: UnboundedSector
    max_residual: object = mpf(0)
    # samples left out of the fit because their continuation diverged
    excluded: int = 0


class BorelFunction:
    """Taylor data at 0 in the Borel plane, continued by diagonal Pade.

    Values come from the diagonal Pade approximant of order pade_order
    (default N//2), declared stable when two consecutive orders agree
    (see `continue_borel`), so pade_order must be at least 2.
    known_singularities feed the guard distance checks.  What a value
    derives from zeta alone is memoized by zeta in `_values`.
    """

    def __init__(self, base, pade_order=None, known_singularities=()):
        self.base = base
        self.pade_order = pade_order if pade_order is not None else base.trunc_order // 2
        self.known_singularities = tuple(to_mpc(s) for s in known_singularities)
        for i, s in enumerate(self.known_singularities):
            for t in self.known_singularities[:i]:
                if s == t:
                    raise ValueError("known_singularities must be pairwise distinct")
        if self.radius_estimate() <= 0:
            raise ValueError("Taylor data has vanishing convergence radius estimate")
        if self.pade_order < 2:
            raise ContinuationDiverged(
                f"Pade order {self.pade_order}: the data admit no second order "
                "to check the continuation against")
        self._pade_cache = {}
        self._values = {}

    # -- convergence radius by root test over stored coefficients --
    def radius_estimate(self):
        coeffs = self.base.coeffs
        worst = mpf(0)
        for n in range(1, len(coeffs)):
            c = abs(coeffs[n])
            if c == 0:
                continue
            worst = max(worst, c ** (mpf(1) / n))
        if worst == 0:
            return mpf("inf")
        return 1 / worst

    def guard_distance(self, zeta):
        return mpf(_GUARD_FACTOR) * max(abs(to_mpc(zeta)), mpf(1))

    def _check_guard(self, zeta):
        zeta = to_mpc(zeta)
        guard = mpf(_GUARD_FACTOR) * abs(zeta)
        for s in self.known_singularities:
            if abs(zeta - s) < guard:
                raise NearSingularity(f"zeta within guard distance of {s}")

    # -- Pade --
    def _pade(self, order):
        cached = self._pade_cache.get(order)
        if cached is not None:
            return cached
        coeffs = self.base.coeffs
        if 2 * order > len(coeffs) - 1:
            raise ValueError("not enough coefficients for the requested Pade order")
        # exactly rational data makes the diagonal system singular at
        # excessive orders: fall back until the solve succeeds
        for o in range(order, 0, -1):
            try:
                p, q = mpmath.pade([mpc(c) for c in coeffs[: 2 * o + 1]], o, o)
                break
            except ZeroDivisionError:
                continue
        else:
            p, q = [mpc(coeffs[0])], [mpc(1)]
        self._pade_cache[order] = (p, q)
        return p, q

    def _eval_pade(self, order, powers):
        """P/Q of the given order at the point whose powers 1, zeta, ... are given."""
        p, q = self._pade(order)
        return mpmath.fdot(p, powers) / mpmath.fdot(q, powers)

    def _continued(self, zeta):
        """(value, gap) at zeta, computed once per zeta.

        The value is the order-`pade_order` approximant and the gap its
        distance to the next lower order, kept only when it exceeds
        `_AGREE_REL` times the larger of the two values and 1 (else None).
        """
        got = self._values.get(zeta)
        if got is None:
            self._check_guard(zeta)
            order = self.pade_order
            powers = gevrey._powers(zeta, order)
            a = self._eval_pade(order, powers)
            b = self._eval_pade(order - 1, powers)
            gap = abs(a - b)
            if gap <= mpf(_AGREE_REL) * max(abs(a), abs(b), mpf(1)):
                gap = None
            got = self._values[zeta] = (a, gap)
        return got

    def __call__(self, zeta):
        return continue_borel(self, zeta)


def _expand_rational(p, q, n_out):
    """Taylor coefficients 0..n_out of P/Q, each from one `gevrey._cauchy`."""
    q1 = q[1:]
    inv0 = 1 / q[0]
    out = []
    for k in range(n_out + 1):
        s = p[k] if k < len(p) else mpc(0)
        out.append((s - gevrey._cauchy(q1, out, k - 1)) * inv0)
    return out


def continue_borel(g, zeta, abs_budget=None):
    """Value of the analytic continuation of g at zeta.

    Two consecutive diagonal Pade orders are evaluated and must agree to
    `_AGREE_REL` (relative) or `abs_budget` (absolute), whichever is
    looser, else `ContinuationDiverged` is raised.  abs_budget is a
    function of no arguments, called only when the relative test fails
    (in `laplace` it costs an `exp`, and most nodes pass without it).
    The powers 1, zeta, ..., zeta^order are formed once, and each
    numerator and denominator is one `mpmath.fdot` against them (exact
    products, one rounding).  The value and the two orders' gap are
    memoized on g by zeta, so a zeta is continued once, and a value
    depends only on g's data and zeta, not on earlier calls.
    """
    zeta = to_mpc(zeta)
    a, gap = g._continued(zeta)
    if gap is not None:
        if abs_budget is None or gap > abs_budget():
            order = g.pade_order
            raise ContinuationDiverged(
                f"Pade orders {order - 1} and {order} disagree at zeta={zeta}")
    return a


def exp_size_one_estimate(g, sector, samples, residual_cap=mpf(10)):
    """Least-squares fit of log|g| <= log C + h |zeta| over the samples.

    The returned (C, h) is shifted so the bound holds at every sample.
    Samples whose continuation diverges are left out of the fit and
    counted in the estimate's `excluded`.  Raises GrowthTooFast when the
    shift is larger than `residual_cap`, i.e. the residuals grow beyond
    any linear-in-|zeta| law.
    """
    samples = [to_mpc(s) for s in samples]
    if not samples:
        raise EmptyGrid("exponential-size fit needs samples")
    radii = [abs(s) for s in samples]
    if max(radii) < 10 * min(radii):
        raise ValueError("sample radii must cover at least one decade")
    logs = []
    for s in samples:
        try:
            val = continue_borel(g, s)
        except ContinuationDiverged:
            continue  # beyond the reliable continuation range: exclude
        logs.append((abs(s), mpmath.log(max(abs(val), mpf("1e-300")))))
    if len(logs) < 4:
        raise ContinuationDiverged("too few stable samples for the size fit")
    if max(x for x, _ in logs) < 10 * min(x for x, _ in logs):
        raise ContinuationDiverged("stable samples no longer cover a decade")
    h, logc = _line_fit(logs)
    resid = [y - (logc + h * x) for x, y in logs]
    worst = max(resid)
    if worst > residual_cap:
        raise GrowthTooFast(f"fit residual {worst} exceeds cap {residual_cap}")
    # superlinear drift check: lower/upper half slopes
    mid = sorted(x for x, _ in logs)[len(logs) // 2]
    lo = [(x, y) for x, y in logs if x <= mid]
    hi = [(x, y) for x, y in logs if x > mid]
    if len(lo) >= 2 and len(hi) >= 2:
        h_lo = _line_fit(lo)[0]
        h_hi = _line_fit(hi)[0]
        # the fitted rate may approach its asymptote from below; flag only
        # growth that keeps accelerating beyond any fixed exponential rate
        if h_hi - h_lo > max(mpf(1), mpf("0.6") * abs(h_hi)):
            raise GrowthTooFast(
                f"slope grows with radius ({h_lo} -> {h_hi}): not of exponential size one")
    h = max(h, mpf(0))
    return ExpSizeEstimate(mpmath.exp(logc + worst + mpf("1e-20")), h, sector, worst,
                           len(samples) - len(logs))


def _line_fit(points):
    """Least-squares slope and intercept of y = intercept + slope * x."""
    n = len(points)
    sx = mpmath.fsum(x for x, _ in points)
    sxx = mpmath.fsum(x * x for x, _ in points)
    sy = mpmath.fsum(y for _, y in points)
    sxy = mpmath.fsum(x * y for x, y in points)
    # 2x2 normal equations
    det = n * sxx - sx * sx
    return (n * sxy - sx * sy) / det, (sy * sxx - sx * sxy) / det


def _decay_rate(z, d):
    """exp(-zeta/z) decays along the ray arg zeta = d at this rate per unit length."""
    z = to_mpc(z)
    return mpmath.cos(mpf(d) - mpmath.arg(z)) / abs(z)


def laplace(g, d, z, tail_cut="1e-12", size=None):
    """Truncated Laplace transform along direction d, evaluated at z.

    The truncation point solves C*exp((h - rate) T) = tail_cut with
    rate = cos(arg z - d)/|z|, so the discarded tail is below tail_cut,
    and is rounded up to the next edge of the panel ladder 0, 1, 2, 4,
    ....  Each ladder panel is integrated to tail_cut / 10 by adaptive
    Gauss-Legendre, which splits at midpoints, so the nodes of every z
    are dyadic points of one ray and g's memo continues each node once.

    The rounding can nearly double how far the integral reaches, and a
    ray that comes within the guard distance of a known singularity
    anywhere on [0, T], its end included, raises SingularRay.  So a z
    whose unrounded cut-off stopped short of a singularity is refused
    (C = 1, h = 0, tail_cut 1e-10, d = pi/2, z = 0.2i: the unrounded T
    is about 4.6, the rounded 8 passes the dual Stirling singularity
    2 pi i).
    """
    z, d, tail_cut = to_mpc(z), mpf(d), mpf(tail_cut)
    if size is None:
        size = _default_size(g, d)
    rate = _decay_rate(z, d)
    if rate <= size.h + mpf("1e-12"):
        raise DivergentLaplace(
            f"decay rate {rate} does not dominate growth {size.h} at z={z}")
    T = mpmath.log(max(size.C, mpf(1)) / tail_cut) / (rate - size.h)
    T = max(T, 4 * abs(z))
    edges = [mpf(0), mpf(1)]
    while edges[-1] < T:
        edges.append(2 * edges[-1])
    T = edges[-1]
    unit = mpmath.exp(1j * d)
    # reject rays passing within the guard distance of a known singularity;
    # the nearest point of [0, T] to one past the end is the end, which a
    # power-of-two T can put on a singularity
    for s in g.known_singularities:
        t = mpmath.re(s * mpmath.conj(unit))
        if t > 0:
            dist = abs(s - min(t, T) * unit)
            if dist < g.guard_distance(s):
                raise SingularRay(f"ray arg={d} passes near singularity {s}")
    quad_tol = tail_cut / 10

    def integrand(t):
        # continuation error epsilon(t) enters damped by exp(-rate t), so
        # the acceptable absolute error grows like exp(+rate t)
        def budget():
            return tail_cut * rate * mpmath.exp(rate * mpmath.re(t)) / 20
        return (continue_borel(g, t * unit, abs_budget=budget)
                * mpmath.exp(-t * unit / z))

    total = mpc(0)
    for a, b in zip(edges[:-1], edges[1:]):
        total += adaptive_gauss(integrand, a, b, quad_tol, n=32)
    return unit * total / z


def _default_size(g, d):
    r = g.radius_estimate()
    if g.known_singularities:
        fit_radius = 4 * min(abs(s) for s in g.known_singularities)
    elif mpmath.isinf(r):
        fit_radius = mpf(20)
    else:
        fit_radius = 8 * r
    fit_radius = min(fit_radius, mpf(48))
    unit = mpmath.exp(1j * mpf(d))
    lo = (r / 8) if not mpmath.isinf(r) else fit_radius / mpf(40)
    lo = min(lo, fit_radius / mpf(40))
    samples = []
    t = lo
    while t <= fit_radius:
        ok = True
        for s in g.known_singularities:
            if abs(t * unit - s) < 2 * g.guard_distance(t * unit):
                ok = False
                break
        if ok:
            samples.append(t * unit)
        t *= mpf("1.25")
    sector = UnboundedSector(d, mpf("0.1"))
    return exp_size_one_estimate(g, sector, samples)


@dataclass
class SampledFunction:
    """Values of a sectorial function on a z grid, with provenance."""
    direction: object
    points: list                    # list of (z, value)
    tolerance: object
    source: GevreySeries = None
    source_hash: str = ""

    def to_csv(self):
        lines = ["z_re,z_im,f_re,f_im"]
        for z, v in self.points:
            z, v = to_mpc(z), to_mpc(v)
            lines.append(",".join(mpmath.nstr(x, 17)
                                  for x in (z.real, z.imag, v.real, v.imag)))
        return "\n".join(lines) + "\n"

    def sidecar(self):
        return {
            "direction": mpmath.nstr(mpf(self.direction), 25),
            "tolerance": mpmath.nstr(mpf(self.tolerance), 10),
            "source_hash": self.source_hash,
        }


def series_hash(s):
    payload = json.dumps(s.to_json(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def borel_sum(s, d, z_grid, tail_cut="1e-12", known_singularities=None,
              pade_order=None):
    """1-summation of a Gevrey series: Laplace of its Borel transform.

    The Borel transform is continued by diagonal Pade (`continue_borel`),
    so each value depends only on the arguments, not on earlier calls.
    Every z in the grid must satisfy |arg z - d| < pi/2; failures of the
    Laplace precondition propagate.  When no singularity list is given,
    stable approximant poles within a few convergence radii are located
    and used for the guard checks.
    """
    d, tail_cut = mpf(d), mpf(tail_cut)
    for z in z_grid:
        delta = mpmath.arg(to_mpc(z) * mpmath.exp(-1j * d))
        if not abs(delta) < mp.pi / 2:
            raise DivergentLaplace(f"z={z} outside the half-plane around d={d}")
    base = formal_borel(s)
    if known_singularities is None:
        probe = BorelFunction(base, pade_order=pade_order)
        r = probe.radius_estimate()
        if mpmath.isinf(r):
            known_singularities = []
        else:
            known_singularities = locate_borel_singularities(
                probe, min(8 * r, mpf(50)))
    g = BorelFunction(base, pade_order=pade_order,
                      known_singularities=known_singularities)
    size = _default_size(g, d)
    points = [(to_mpc(z), laplace(g, d, z, tail_cut, size=size)) for z in z_grid]
    return SampledFunction(d, points, tail_cut, s, series_hash(s))


def _pade_pole_set(coeffs, order):
    """Poles of the [order/order] approximant, or None if unsolvable.

    Returns (poles, exact) where `exact` flags an approximant that
    reproduces every supplied coefficient to near working precision
    (rational data): its poles need no cross-order stabilization.
    """
    if order < 1 or 2 * order + 1 > len(coeffs):
        return None
    p = q = None
    for drop in range(min(3, order + 1)):
        num_deg = order - drop
        try:
            p, q = mpmath.pade([mpc(c) for c in coeffs[: num_deg + order + 1]],
                               num_deg, order)
            break
        except ZeroDivisionError:
            continue
    if p is None:
        return None
    qc = [mpc(c) for c in q]
    scale_q = max(abs(c) for c in qc)
    tiny = mpf(2) ** (-mp.prec // 2) * scale_q
    while len(qc) > 1 and abs(qc[-1]) < tiny:
        qc.pop()
    if len(qc) <= 1:
        return [], True
    try:
        roots = derham.poly_roots(qc)
    except RootFindingFailed:
        return None
    trial = _expand_rational(p, qc, len(coeffs) - 1)
    scale = max(abs(c) for c in coeffs) or mpf(1)
    exact = all(abs(a - b) <= mpf(2) ** (-mp.prec + 40) * scale
                for a, b in zip(trial, coeffs))
    return [r for r, m in roots for _ in range(m)], exact


def _stable_pade_poles(coeffs, order, search_radius, cluster_tol):
    """Poles agreeing between two consecutive solvable diagonal orders.

    Orders are walked downward; an approximant that reproduces the whole
    data set exactly short-circuits the stabilization (degenerate,
    rational input).
    """
    prev = None
    attempts = 0
    for o in range(order, 0, -1):
        got = _pade_pole_set(coeffs, o)
        if got is None:
            continue
        poles, exact = got
        if exact:
            return [r for r in poles if abs(r) <= search_radius]
        if prev is not None:
            stable = []
            for r in prev:
                if abs(r) > search_radius:
                    continue
                matches = [r2 for r2 in poles if abs(r - r2) < cluster_tol]
                if matches:
                    partner = min(matches, key=lambda r2: abs(r - r2))
                    stable.append((r + partner) / 2)
            if stable:
                return stable
            attempts += 1
            if attempts >= 40:
                return []
        prev = poles
    return []


def locate_borel_singularities(g, search_radius):
    """Stable poles of consecutive diagonal Pade approximants.

    The approximants are taken of the derivative of the Taylor data:
    the singular locations coincide with those of g, and differentiation
    sharpens logarithmic branch points into pole-like behavior that the
    rational approximation localizes far more accurately.  A pole is
    kept when two consecutive orders place it within 1e-4 * search_radius
    of each other; results are sorted by modulus.
    """
    search_radius = mpf(search_radius)
    cluster_tol = mpf("1e-4") * search_radius
    order = g.pade_order
    if 2 * (order + 1) > g.base.trunc_order:
        order = g.base.trunc_order // 2 - 1
    dcoeffs = [(n + 1) * c for n, c in enumerate(g.base.coeffs[1:])]
    stable = _stable_pade_poles(dcoeffs, order, search_radius, cluster_tol)
    # merge poles the two orders agree on but that duplicate each other
    merged = []
    for r in stable:
        if not any(abs(r - m) < cluster_tol for m in merged):
            merged.append(r)
    merged.sort(key=lambda r: (abs(r), mpmath.arg(r)))
    return merged
