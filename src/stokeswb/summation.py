"""Borel-plane continuation, directional Laplace transform, 1-summation.

A divergent Gevrey-1 series is resummed along a direction d by
transporting its Borel transform along the ray arg(zeta) = d (diagonal
Pade approximation or stepwise Taylor re-expansion) and applying the
truncated Laplace integral z^-1 * int_0^T g(zeta) exp(-zeta/z) dzeta,
with T chosen from a fitted exponential-size bound.
"""

import hashlib
import json
from dataclasses import dataclass, field

import mpmath
from mpmath import mp, mpf, mpc

from . import gevrey
from .errors import (ContinuationDiverged, DivergentLaplace, EmptyGrid,
                     GrowthTooFast, NearSingularity, SingularRay)
from .gevrey import GevreySeries, UnboundedSector, formal_borel
from .scalar import adaptive_gauss, legendre_nodes, to_mpc


@dataclass(frozen=True)
class ExpSizeEstimate:
    """Fitted bound |g(zeta)| <= C * exp(h |zeta|) on a sector."""
    C: object
    h: object
    sector: UnboundedSector
    max_residual: object = mpf(0)


class BorelFunction:
    """Taylor data at 0 in the Borel plane plus a continuation method.

    method is 'pade' (diagonal Pade of order pade_order, default N//2,
    declared stable when two consecutive orders agree) or
    'taylor_stepping' (repeated re-expansion along the segment to the
    evaluation point).  known_singularities feed both the guard distance
    checks and the stepping radius.
    """

    def __init__(self, base, method="pade", pade_order=None, step_size=None,
                 known_singularities=(), guard_factor=mpf("1e-3"),
                 step_fraction=mpf("0.25")):
        if method not in ("pade", "taylor_stepping"):
            raise ValueError("method must be 'pade' or 'taylor_stepping'")
        self.base = base
        self.method = method
        self.pade_order = pade_order if pade_order is not None else base.trunc_order // 2
        self.step_size = step_size
        self.step_fraction = mpf(step_fraction)
        self.known_singularities = tuple(to_mpc(s) for s in known_singularities)
        for i, s in enumerate(self.known_singularities):
            for t in self.known_singularities[:i]:
                if s == t:
                    raise ValueError("known_singularities must be pairwise distinct")
        self.guard_factor = mpf(guard_factor)
        if self.radius_estimate() <= 0:
            raise ValueError("Taylor data has vanishing convergence radius estimate")
        self._pade_cache = {}
        self._chain_cache = {}

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
        return self.guard_factor * max(abs(to_mpc(zeta)), mpf(1))

    def _check_guard(self, zeta):
        zeta = to_mpc(zeta)
        guard = self.guard_factor * abs(zeta)
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

    # -- Taylor stepping --
    def _local_radius(self, center):
        r = self.radius_estimate()
        if self.known_singularities:
            r = min(abs(center - s) for s in self.known_singularities)
        return r

    def _chain(self, key):
        chain = self._chain_cache.get(key)
        if chain is None:
            chain = self._chain_cache[key] = [(mpc(0), list(self.base.coeffs))]
        return chain

    def _advance(self, chain, target, land=False):
        """Add re-expansion centers until `target` is within evaluation reach.

        Centers step along the straight leg from the current frontier
        toward the target; the walk stops once some center sees the
        target inside a comfortable fraction of its convergence disk,
        or lands exactly on the target when `land` is set (intermediate
        waypoints must be honored, they steer around branch cuts).
        """
        n_base = self.base.trunc_order
        while True:
            center, coeffs = chain[-1]
            gap = target - center
            if land:
                if abs(gap) <= mpf("1e-30") * max(abs(target), mpf(1)):
                    return chain
            elif abs(gap) <= mpf("0.35") * self._local_radius(center):
                return chain
            step = self.step_size or self.step_fraction * self._local_radius(center)
            new_center = center + gap / abs(gap) * min(step, abs(gap))
            shifted = _shift_with_retention(coeffs, new_center - center,
                                            self._local_radius(center))
            if shifted is None:
                raise ContinuationDiverged(
                    f"stepping ran out of reliable coefficients at {new_center}")
            # local rational resummation: fit a diagonal approximant to the
            # retained data, then regenerate a full-length clean expansion
            regen = _pade_regenerate(shifted, n_base,
                                     min((len(shifted) - 1) // 2, self.pade_order),
                                     radius=self._local_radius(new_center))
            chain.append((new_center, regen))
            if len(chain) > 4000:
                raise ContinuationDiverged("taylor stepping chain too long")

    def _eval_stepping(self, zeta, agree_rel=mpf("1e-9"), abs_budget=None,
                       via=()):
        zeta = to_mpc(zeta)
        if abs(zeta) == 0:
            return self.base.coeffs[0]
        waypoints = tuple(to_mpc(w) for w in via)
        key = tuple(mpmath.nstr(w, 25) for w in waypoints) or \
            mpmath.nstr(mpmath.arg(zeta), 25)
        chain = self._chain(key)
        for w in waypoints:
            self._advance(chain, w, land=True)
        self._advance(chain, zeta)
        ranked = sorted(chain, key=lambda cc: abs(zeta - cc[0]))
        vals = []
        for center, coeffs in ranked[:2]:
            dz = zeta - center
            acc = mpc(0)
            for c in reversed(coeffs):
                acc = acc * dz + c
            vals.append(acc)
        if len(vals) == 2:
            tol = agree_rel * max(abs(vals[0]), abs(vals[1]), mpf(1))
            if abs_budget is not None:
                tol = max(tol, mpf(abs_budget))
            if abs(vals[0] - vals[1]) > tol:
                raise ContinuationDiverged(
                    f"stepping centers disagree at zeta={zeta}")
        return vals[0]

    def __call__(self, zeta):
        return continue_borel(self, zeta)


def _taylor_shift(coeffs, dz):
    """Coefficients of p(x + dz) given those of p(x) (truncated Taylor shift)."""
    n = len(coeffs) - 1
    out = list(coeffs)
    # classical synthetic division cascade: O(n^2), numerically benign
    for k in range(n):
        for m in range(n - 1, k - 1, -1):
            out[m] = out[m] + dz * out[m + 1]
    return out


def _expand_rational(p, q, n_out):
    """Taylor coefficients 0..n_out of P/Q, each from one `gevrey._cauchy`."""
    q1 = q[1:]
    inv0 = 1 / q[0]
    out = []
    for k in range(n_out + 1):
        s = p[k] if k < len(p) else mpc(0)
        out.append((s - gevrey._cauchy(q1, out, k - 1)) * inv0)
    return out


def _pade_regenerate(coeffs, n_out, order, radius=None, fit_tol=mpf("1e-12")):
    """De-noised expansion of the data through a local rational model.

    The smallest diagonal order whose regenerated expansion reproduces
    the retained data (weighted at the next evaluation radius) is kept;
    small orders first avoids spurious pole-zero doublets of overfitted
    approximants.  Regenerated coefficients breaking the growth envelope
    (2/radius)^m are dropped; if no order reproduces the data, the raw
    retained coefficients are returned unchanged.
    """
    n_data = len(coeffs) - 1
    if order < 1 or n_data < 4:
        return list(coeffs)
    r_eval = mpf("0.35") * radius if radius is not None and not mpmath.isinf(radius) \
        else mpf(1)
    value_scale = max(abs(coeffs[0]), abs(coeffs[1]) * r_eval, mpf("1e-30"))
    for o in range(1, order + 1):
        try:
            p, q = mpmath.pade([mpc(c) for c in coeffs[: 2 * o + 1]], o, o)
        except ZeroDivisionError:
            continue
        trial = _expand_rational(p, q, n_data)
        err = mpf(0)
        weight = mpf(1)
        for m in range(n_data + 1):
            err += abs(trial[m] - coeffs[m]) * weight
            weight *= r_eval
        if err > fit_tol * value_scale:
            continue
        out = _expand_rational(p, q, n_out)
        if radius is not None and not mpmath.isinf(radius):
            # growth cap beyond the validated data window: spurious
            # pole-zero doublets of the fit explode much faster than any
            # coefficient of a function analytic on |dz| < radius can
            grow = 2 / mpf(radius)
            anchor = mpf("1e-60")
            for k in range(max(0, n_data - 4), n_data + 1):
                anchor = max(anchor, abs(out[k]) * grow ** (n_data - k))
            env = anchor
            keep = len(out)
            for m in range(n_data + 1, len(out)):
                env *= grow
                if abs(out[m]) > env:
                    keep = m
                    break
            if keep <= n_data:
                return list(coeffs)
            out = out[:keep]
        return out
    return list(coeffs)


def _shift_with_retention(coeffs, dz, rho, budget=mpf("1e-14"), min_keep=8,
                          eval_fraction=mpf("0.35")):
    """Taylor shift that drops coefficients drowned by the truncation tail.

    Shifting a truncated series injects into coefficient k the noise
    sum_{m>N} C(m,k) c_m dz^(m-k); modelling |c_m| ~ |c_N| rho^-(m-N)
    (root-test decay of the stored data) gives a computable estimate.
    A coefficient is kept while its noise, weighted by the evaluation
    radius of the next step, stays below `budget` times the value scale.
    Returns None when fewer than `min_keep` coefficients survive.
    """
    n = len(coeffs) - 1
    shifted = _taylor_shift(coeffs, dz)
    top = abs(coeffs[n])
    if top == 0:
        return shifted
    q = abs(dz) / rho
    if q >= 1:
        return None
    value_scale = max(abs(shifted[0]), abs(shifted[1]) if n >= 1 else mpf(0),
                      mpf("1e-30"))
    r_eval = eval_fraction * rho
    keep = n + 1
    binom = mpf(1)                     # C(n+1, k), updated per k
    for k in range(n + 1):
        # dropped tail at coefficient k: leading term m = n+1, geometric in m
        lead = binom * top * abs(dz) ** (n + 1 - k) / rho
        ratio = q * mpf(n + 2) / max(n + 2 - k, 1)
        noise = lead / (1 - ratio) if ratio < 1 else mpf("inf")
        if noise * r_eval ** k > budget * value_scale:
            keep = k
            break
        binom = binom * (n + 1 - k) / (k + 1)
    if keep < min_keep:
        return None
    return shifted[:keep]


def continue_borel(g, zeta, agree_rel=mpf("1e-8"), abs_budget=None, via=()):
    """Value of the analytic continuation of g at zeta.

    Pade mode evaluates two consecutive diagonal orders and requires them
    to agree to `agree_rel` (relative) or `abs_budget` (absolute), which-
    ever is looser; the powers 1, zeta, ..., zeta^order are formed once,
    and each numerator and denominator is one `mpmath.fdot` against them
    (exact products, one rounding).  Stepping mode walks noise-controlled
    re-expansions along the segment [0, zeta], or through the `via`
    waypoints when the straight segment runs into a singularity.
    """
    zeta = to_mpc(zeta)
    g._check_guard(zeta)
    if g.method == "pade":
        order = g.pade_order
        lo = max(order - 1, 1)
        powers = gevrey._powers(zeta, order)
        a = g._eval_pade(order, powers)
        b = g._eval_pade(lo, powers) if lo != order else a
        scale = max(abs(a), abs(b), mpf(1))
        tol = agree_rel * scale
        if abs_budget is not None:
            tol = max(tol, mpf(abs_budget))
        if abs(a - b) > tol:
            raise ContinuationDiverged(
                f"Pade orders {lo} and {order} disagree at zeta={zeta}")
        return a
    return g._eval_stepping(zeta, agree_rel=max(agree_rel, mpf("1e-9")),
                            abs_budget=abs_budget, via=via)


def exp_size_one_estimate(g, sector, samples, residual_cap=mpf(10)):
    """Least-squares fit of log|g| <= log C + h |zeta| over the samples.

    The returned (C, h) is shifted so the bound holds at every sample.
    Raises GrowthTooFast when the shift is larger than `residual_cap`,
    i.e. the residuals grow beyond any linear-in-|zeta| law.
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
    # 2x2 normal equations for [log C, h]
    n = len(logs)
    sx = mpmath.fsum(x for x, _ in logs)
    sxx = mpmath.fsum(x * x for x, _ in logs)
    sy = mpmath.fsum(y for _, y in logs)
    sxy = mpmath.fsum(x * y for x, y in logs)
    det = n * sxx - sx * sx
    h = (n * sxy - sx * sy) / det
    logc = (sy * sxx - sx * sxy) / det
    resid = [y - (logc + h * x) for x, y in logs]
    worst = max(resid)
    if worst > residual_cap:
        raise GrowthTooFast(f"fit residual {worst} exceeds cap {residual_cap}")
    # superlinear drift check: lower/upper half slopes
    mid = sorted(x for x, _ in logs)[n // 2]
    lo = [(x, y) for x, y in logs if x <= mid]
    hi = [(x, y) for x, y in logs if x > mid]
    if len(lo) >= 2 and len(hi) >= 2:
        h_lo = _slope(lo)
        h_hi = _slope(hi)
        # the fitted rate may approach its asymptote from below; flag only
        # growth that keeps accelerating beyond any fixed exponential rate
        if h_hi - h_lo > max(mpf(1), mpf("0.6") * abs(h_hi)):
            raise GrowthTooFast(
                f"slope grows with radius ({h_lo} -> {h_hi}): not of exponential size one")
    h = max(h, mpf(0))
    return ExpSizeEstimate(mpmath.exp(logc + worst + mpf("1e-20")), h, sector, worst)


def _slope(points):
    n = len(points)
    sx = mpmath.fsum(x for x, _ in points)
    sxx = mpmath.fsum(x * x for x, _ in points)
    sy = mpmath.fsum(y for _, y in points)
    sxy = mpmath.fsum(x * y for x, y in points)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def _decay_rate(z, d):
    """exp(-zeta/z) decays along the ray arg zeta = d at this rate per unit length."""
    z = to_mpc(z)
    return mpmath.cos(mpf(d) - mpmath.arg(z)) / abs(z)


def laplace(g, d, z, tail_cut=mpf("1e-12"), size=None, quad_tol=None):
    """Truncated Laplace transform along direction d, evaluated at z.

    The truncation point T solves C*exp((h - rate) T) = tail_cut with
    rate = cos(arg z - d)/|z|, so the discarded tail is below tail_cut.
    """
    z = to_mpc(z)
    d = mpf(d)
    if size is None:
        size = _default_size(g, d)
    rate = _decay_rate(z, d)
    if rate <= size.h + mpf("1e-12"):
        raise DivergentLaplace(
            f"decay rate {rate} does not dominate growth {size.h} at z={z}")
    T = mpmath.log(max(size.C, mpf(1)) / tail_cut) / (rate - size.h)
    T = max(T, 4 * abs(z))
    unit = mpmath.exp(1j * d)
    # reject rays passing within the guard distance of a known singularity
    for s in g.known_singularities:
        t = mpmath.re(s * mpmath.conj(unit))
        if 0 < t < T:
            dist = abs(s - t * unit)
            if dist < g.guard_distance(s):
                raise SingularRay(f"ray arg={d} passes near singularity {s}")
    if quad_tol is None:
        quad_tol = tail_cut / 10

    def integrand(t):
        # continuation error epsilon(t) enters damped by exp(-rate t), so
        # the acceptable absolute error grows like exp(+rate t)
        budget = mpf(tail_cut) * rate * mpmath.exp(rate * mpmath.re(t)) / 20
        return (continue_borel(g, t * unit, abs_budget=budget)
                * mpmath.exp(-t * unit / z))

    # panels sized to the exponential scale keep the adaptive depth small
    npanels = max(4, int(mpmath.ceil(T * rate / 3)))
    npanels = min(npanels, 400)
    total = mpc(0)
    edges = [T * mpf(i) / npanels for i in range(npanels + 1)]
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


def borel_sum(s, d, z_grid, tail_cut=mpf("1e-12"), method="pade",
              known_singularities=None, pade_order=None):
    """1-summation of a Gevrey series: Laplace of its Borel transform.

    Every z in the grid must satisfy |arg z - d| < pi/2; failures of the
    Laplace precondition propagate.  When no singularity list is given,
    stable approximant poles within a few convergence radii are located
    and used for the guard checks.
    """
    d = mpf(d)
    for z in z_grid:
        delta = mpmath.arg(to_mpc(z) * mpmath.exp(-1j * d))
        if not abs(delta) < mp.pi / 2:
            raise DivergentLaplace(f"z={z} outside the half-plane around d={d}")
    base = formal_borel(s)
    if known_singularities is None:
        probe = BorelFunction(base, method="pade", pade_order=pade_order)
        r = probe.radius_estimate()
        if mpmath.isinf(r):
            known_singularities = []
        else:
            known_singularities = locate_borel_singularities(
                probe, min(8 * r, mpf(50)))
    g = BorelFunction(base, method=method, pade_order=pade_order,
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
        roots = mpmath.polyroots(list(reversed(qc)), maxsteps=120, extraprec=60)
    except mpmath.libmp.libhyper.NoConvergence:
        try:
            # multiple roots make Durand-Kerner converge only linearly
            roots = mpmath.polyroots(list(reversed(qc)), maxsteps=3000,
                                     extraprec=80)
        except mpmath.libmp.libhyper.NoConvergence:
            return None
    trial = _expand_rational(p, qc, len(coeffs) - 1)
    scale = max(abs(c) for c in coeffs) or mpf(1)
    exact = all(abs(a - b) <= mpf(2) ** (-mp.prec + 40) * scale
                for a, b in zip(trial, coeffs))
    return [to_mpc(r) for r in roots], exact


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


def locate_borel_singularities(g, search_radius, cluster_tol=None):
    """Stable poles of consecutive diagonal Pade approximants.

    The approximants are taken of the derivative of the Taylor data:
    the singular locations coincide with those of g, and differentiation
    sharpens logarithmic branch points into pole-like behavior that the
    rational approximation localizes far more accurately.  A pole is
    kept when two consecutive orders place it within `cluster_tol`
    (default 1e-4 * search_radius) of each other; results are sorted by
    modulus.
    """
    search_radius = mpf(search_radius)
    if cluster_tol is None:
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
