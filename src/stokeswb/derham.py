"""Rational 1-forms on the projective line and their de Rham data.

A form P(x)/Q(x) dx is analyzed into zeros, poles (including infinity,
via x = 1/v), residues, and critical values; a distinguished local
coordinate u with form = u^m du is built at every zero, and global
1-forms are reduced to the local cohomology basis as explicit series in
the deformation parameter z.
"""

import functools
import inspect
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import mpmath
from mpmath import mp, mpf, mpc

from . import gevrey
from .errors import (DegenerateLattice, NotOneForm, PathThroughPole,
                     RelationDetectionAmbiguous, RootFindingFailed)
from .gevrey import GevreySeries
from .lattice import Lattice, support_radius
from .scalar import adaptive_gauss, close, cplx_to_pair, to_mpc

INF = "infinity"


# ---------------------------------------------------------------------------
# polynomial helpers (ascending coefficient lists of mpc)
# ---------------------------------------------------------------------------

def poly_trim(p):
    p = [to_mpc(c) for c in p]
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def poly_deg(p):
    p = poly_trim(p)
    return len(p) - 1 if any(c != 0 for c in p) else -1


def poly_eval(p, x):
    acc = mpc(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_derivative(p):
    return [n * c for n, c in enumerate(p)][1:] or [mpc(0)]


def poly_quotient(p, q):
    """Polynomial part of p/q (long division, remainder discarded)."""
    rem = list(poly_trim(p))
    q = poly_trim(q)
    dq = len(q) - 1
    if len(rem) - 1 < dq:
        return [mpc(0)]
    quot = [mpc(0)] * (len(rem) - dq)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + dq] / q[-1]
        quot[k] = c
        for i, qc in enumerate(q):
            rem[k + i] -= c * qc
    return quot


def poly_mul(p, q):
    out = [mpc(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_reverse(p):
    """x^deg * p(1/x): coefficient list reversed."""
    return list(reversed(poly_trim(p)))


def deflate(p, root):
    """Synthetic division of p by (x - root); returns quotient."""
    p = poly_trim(p)
    out = [mpc(0)] * (len(p) - 1)
    acc = mpc(0)
    for i in range(len(p) - 1, 0, -1):
        acc = p[i] + acc * root
        out[i - 1] = acc
    return out


def newton_polish(p, dp, x, steps=8):
    for _ in range(steps):
        fx = poly_eval(p, x)
        dfx = poly_eval(dp, x)
        if dfx == 0:
            break
        step = fx / dfx
        x = x - step
        if abs(step) < mpf(2) ** (-mp.prec + 8) * max(abs(x), mpf(1)):
            break
    return x


def _noise(bits):
    """|p(x)| / sum |p_i| |x|^i below which x counts as a root at `bits`."""
    return mpf(2) ** (8 - bits)


def _newton_deflation_roots(p):
    """All roots by repeated Newton iteration and synthetic deflation.

    Runs at the caller's precision.  An iterate counts as a root once
    its step is below half the working precision or |p(x)| is within
    the rounding error of evaluating p there, which is where Newton
    stalls on a multiple root.
    """
    work = poly_trim(p)
    roots = []
    starts = [mpc("0.4", "0.9"), mpc("-0.8", "0.3"), mpc("0.1", "-1.1"),
              mpc("1.3", "0.2"), mpc("-0.2", "-0.5")]
    noise = _noise(mp.prec)
    while poly_deg(work) >= 1:
        dp = poly_derivative(work)
        size = [abs(c) for c in work]
        root = None
        for k, start in enumerate(starts * 4):
            x = start * (1 + mpf(k) / 7)
            ok = False
            for _ in range(2000):
                fx = poly_eval(work, x)
                if abs(fx) <= noise * poly_eval(size, abs(x)).real:
                    ok = True
                    break
                dfx = poly_eval(dp, x)
                if dfx == 0:
                    break
                step = fx / dfx
                x = x - step
                if abs(step) <= mpf(2) ** (-mp.prec // 2) * max(abs(x), mpf(1)):
                    ok = True
                    break
            if ok and mpmath.isfinite(x):
                root = x
                break
        if root is None:
            raise RootFindingFailed("Newton fallback failed to isolate a root")
        roots.append(root)
        work = deflate(work, root)
    return roots


SEED_PREC = 64          # bits of the root seeds, before polishing
_CLUSTER_SLACK = 16     # seed spread allowed over the predicted radius
_CLUSTER_CAP = mpf(2) ** -4   # relative radius beyond which seeds are distinct


def _seed_roots(p):
    """All roots of p at SEED_PREC bits: one polyroots call, else Newton."""
    with mp.workprec(SEED_PREC):
        try:
            return [to_mpc(r) for r in mpmath.polyroots(
                list(reversed(p)), maxsteps=100, extraprec=SEED_PREC)]
        except mpmath.libmp.libhyper.NoConvergence:
            # multiple roots stall the simultaneous iteration: Newton with
            # deflation is only linearly convergent there but never stalls
            return _newton_deflation_roots(p)


def _clusters(p, seeds, bits):
    """Group the `bits`-bit seeds of p into roots with multiplicities.

    A seed x with |p(x)| <= eps * sum |p_i| |x|^i (eps = _noise(bits))
    near an n-fold root a lies within
    rho_n = (eps * sum |p_i| |a|^i / |c_n|)^(1/n) of it, where
    c_n = p^(n)(a)/n!: with b-bit seeds an n-fold root splits
    into points about 2^(-b/n) apart.  Seed r and its n - 1 nearest
    neighbours form one n-fold root when exactly n seeds lie within
    min(_CLUSTER_SLACK * rho_n, _CLUSTER_CAP * scale) of r, with c_n
    taken at r; the largest such n is taken.  A seed with no other seed
    within _CLUSTER_CAP * scale is a simple root without the Taylor
    expansion.
    """
    scale = max([abs(r) for r in seeds] + [mpf(1)])
    cap = _CLUSTER_CAP * scale
    size = [abs(c) for c in p]
    left = list(seeds)
    out = []
    while left:
        r = left[0]
        left.sort(key=lambda s: abs(s - r))
        m = 1
        if len(left) > 1 and abs(left[1] - r) <= cap:
            taylor = local_taylor(p, r, len(left))
            noise = _noise(bits) * poly_eval(size, abs(r)).real
            for n in range(len(left), 1, -1):
                if taylor[n] == 0:
                    continue
                radius = min(cap, _CLUSTER_SLACK
                             * (noise / abs(taylor[n])) ** (mpf(1) / n))
                if abs(left[n - 1] - r) <= radius and (
                        n == len(left) or abs(left[n] - r) > radius):
                    m = n
                    break
        out.append(left[:m])
        left = left[m:]
    return out


def _polished_roots(p, seeds, bits):
    """(root, multiplicity) at working precision from clustered seeds.

    None when seeds below working precision give a multiple root that
    is no root of p at working precision: they then merged distinct
    roots closer together than they resolve.
    """
    size = [abs(c) for c in p]
    out = []
    for members in _clusters(p, seeds, bits):
        m = len(members)
        q = p
        for _ in range(m - 1):
            q = poly_derivative(q)
        center = sum(members, mpc(0)) / m
        x = newton_polish(q, poly_derivative(q), center, steps=40)
        if m > 1 and bits < mp.prec and (
                abs(poly_eval(p, x)) > _noise(mp.prec) * poly_eval(size, abs(x)).real):
            return None
        out.append((x, m))
    return out


def poly_roots(p):
    """Roots with multiplicities: low-precision seeds, clustered, polished.

    Multiplicity detection matters because zero/pole orders enter
    discrete formulas.  The seeds come from one `mpmath.polyroots` call
    at SEED_PREC bits, or from Newton with deflation at that precision
    where a multiple root stalls the simultaneous iteration.  They are
    grouped by the spread a multiple root takes at that precision
    (`_clusters`).  A simple root is then polished by Newton on p at
    working precision, and an m-fold root by Newton on the (m-1)-st
    derivative, started from the mean of its cluster.  A multiple root
    must also be a root of p at working precision; where one is not,
    distinct roots lay closer together than the seeds resolve, and the
    roots are seeded again by Newton with deflation at working precision,
    whose clusters stand as found.
    """
    p = poly_trim(p)
    deg = poly_deg(p)
    if deg <= 0:
        return []
    out = _polished_roots(p, _seed_roots(p), SEED_PREC)
    if out is None:
        out = _polished_roots(p, _newton_deflation_roots(p), mp.prec)
    out.sort(key=lambda t: (abs(t[0]), mpmath.arg(t[0]) if abs(t[0]) else 0))
    return out


def local_taylor(p, center, order):
    """Taylor coefficients of the polynomial p at `center` up to `order`."""
    shifted = list(poly_trim(p))
    # synthetic translation cascade
    n = len(shifted) - 1
    for k in range(n):
        for m in range(n - 1, k - 1, -1):
            shifted[m] = shifted[m] + center * shifted[m + 1]
    return (shifted + [mpc(0)] * (order + 1))[: order + 1]


# ---------------------------------------------------------------------------
# rational forms and charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalForm:
    """g(x) dx with g = P/Q; the coefficient function in a fixed chart."""
    P: tuple
    Q: tuple

    def __post_init__(self):
        object.__setattr__(self, "P", tuple(poly_trim(self.P)))
        object.__setattr__(self, "Q", tuple(poly_trim(self.Q)))
        if poly_deg(self.Q) < 0:
            raise ValueError("denominator is identically zero")

    def __call__(self, x):
        return poly_eval(self.P, x) / poly_eval(self.Q, x)

    def at_infinity(self):
        """The same form in the chart v = 1/x (dx = -dv/v^2)."""
        dp, dq = poly_deg(self.P), poly_deg(self.Q)
        num = [-c for c in poly_reverse(self.P)]
        den = list(poly_reverse(self.Q))
        e = dq - dp - 2
        if e >= 0:
            num = [mpc(0)] * e + num
        else:
            den = [mpc(0)] * (-e) + den
        return RationalForm(tuple(num), tuple(den))

    def in_chart(self, chart):
        return self.at_infinity() if chart == INF else self


@dataclass(frozen=True)
class Zero:
    location: object          # finite point or INF
    order: int
    chart: str = "affine"     # chart in which local data is computed


@dataclass(frozen=True)
class Pole:
    location: object
    order: int
    residue: object           # residue in the chart coordinate (chart invariant)


@dataclass(frozen=True)
class OneForm:
    """P/Q dx with derived zero/pole/residue data on the projective line."""
    form: RationalForm
    zeros: tuple
    poles: tuple

    @property
    def genus(self):
        return 0

    def zero_order_sum(self):
        return sum(z.order for z in self.zeros)

    def pole_order_sum(self):
        return sum(p.order for p in self.poles)

    def finite_special_points(self):
        pts = [z.location for z in self.zeros if z.location != INF]
        pts += [p.location for p in self.poles if p.location != INF]
        return pts

    def has_infinity(self):
        return any(z.location == INF for z in self.zeros) or \
            any(p.location == INF for p in self.poles)

    def report(self):
        return {
            "zeros": [{"location": "infinity" if z.location == INF
                       else cplx_to_pair(z.location), "order": z.order}
                      for z in self.zeros],
            "poles": [{"location": "infinity" if p.location == INF
                       else cplx_to_pair(p.location), "order": p.order,
                       "residue": cplx_to_pair(p.residue)}
                      for p in self.poles],
        }


def _laurent_series(form, center, order_hint=8):
    """Laurent coefficients (c_{-n}, ..) of P/Q at a finite pole/zero center.

    Returns (n, coeffs) where n is the pole order (negative valuation)
    and coeffs[k] is the coefficient of (x-center)^(k-n).
    """
    p = list(form.P)
    q = list(form.Q)
    n = 0
    while True:
        val = poly_eval(q, center)
        if abs(val) > mpf(2) ** (-mp.prec // 2) * max(abs(c) for c in q):
            break
        q = deflate(q, center)
        n += 1
        if not q:
            raise ValueError("denominator vanished identically at center")
    order = n + order_hint
    pt = local_taylor(p, center, order)
    qt = local_taylor(q, center, order)
    # series division pt/qt
    inv0 = 1 / qt[0]
    series = [mpc(0)] * (order + 1)
    for k in range(order + 1):
        s = pt[k]
        for j in range(1, k + 1):
            s -= qt[j] * series[k - j]
        series[k] = s * inv0
    return n, series


def analyze(p_coeffs, q_coeffs):
    """Zeros, poles and residues of (P/Q) dx on the projective line.

    Cancels common roots, includes the point at infinity via x = 1/v,
    and checks the degree identity (zeros minus poles is -2 on genus 0).
    Raises NotOneForm when P or Q is zero, or the form has no zeros or
    no poles.
    """
    p = poly_trim(p_coeffs)
    q = poly_trim(q_coeffs)
    if poly_deg(p) < 0:
        raise NotOneForm("numerator is identically zero")
    if poly_deg(q) < 0:
        raise NotOneForm("denominator is identically zero")
    p_roots = poly_roots(p)
    q_roots = poly_roots(q)
    # cancel shared roots (coprimality normalization)
    scale = max([abs(r) for r, _ in p_roots + q_roots] + [mpf(1)])
    keep_p, keep_q = [], []
    q_used = [False] * len(q_roots)
    for (rp, mp_) in p_roots:
        matched = None
        for i, (rq, mq) in enumerate(q_roots):
            if not q_used[i] and abs(rp - rq) < mpf("1e-18") * scale:
                matched = i
                break
        if matched is None:
            keep_p.append((rp, mp_))
        else:
            rq, mq = q_roots[matched]
            q_used[matched] = True
            common = min(mp_, mq)
            if mp_ > common:
                keep_p.append((rp, mp_ - common))
            if mq > common:
                keep_q.append((rq, mq - common))
    for i, used in enumerate(q_used):
        if not used:
            keep_q.append(q_roots[i])
    if any(mq for _, mq in keep_q):
        # rebuild canceled polynomials for residue work
        lead_p = p[-1]
        lead_q = q[-1]
        newp = [lead_p]
        for r, m in keep_p:
            for _ in range(m):
                newp = poly_mul(newp, [-r, mpc(1)])
        newq = [lead_q]
        for r, m in keep_q:
            for _ in range(m):
                newq = poly_mul(newq, [-r, mpc(1)])
        form = RationalForm(tuple(newp), tuple(newq))
    else:
        form = RationalForm(tuple(p), tuple(q))
    zeros = [Zero(r, m) for r, m in keep_p]
    poles = []
    for r, m in keep_q:
        n, series = _laurent_series(form, r)
        assert n == m
        poles.append(Pole(r, m, series[n - 1] if n >= 1 else mpc(0)))
    # the point at infinity, via the chart v = 1/x
    inf_form = form.at_infinity()
    n_inf, series_inf = _laurent_series(inf_form, mpc(0))
    scale_inf = max([abs(c) for c in series_inf] + [mpf(1)])
    first = next((k for k, c in enumerate(series_inf)
                  if abs(c) > mpf("1e-30") * scale_inf), None)
    if first is not None:
        val = first - n_inf
        if val < 0:
            residue = series_inf[n_inf - 1] if n_inf >= 1 else mpc(0)
            poles.append(Pole(INF, -val, residue))
        elif val > 0:
            zeros.append(Zero(INF, val, INF))
    if not zeros:
        raise NotOneForm("form has no zeros: exponential integrals degenerate")
    if not poles:
        raise NotOneForm("form has no poles: nothing to integrate toward")
    one_form = OneForm(form, tuple(zeros), tuple(poles))
    total = one_form.zero_order_sum() - one_form.pole_order_sum()
    if total != -2:
        raise AssertionError(f"degree identity violated: {total} != -2")
    return one_form


# ---------------------------------------------------------------------------
# closed-form primitive
# ---------------------------------------------------------------------------

class Primitive:
    """Primitive F of P/Q dx from its partial fractions.

    P/Q = quotient + sum over finite poles p of sum_k a_{p,k} (x - p)^-k,
    so F = int quotient + sum_p [a_{p,1} log(x - p)
    + sum_{k>=2} a_{p,k} (x - p)^(1-k)/(1-k)].  Only increments are
    exposed: each log term enters as a_{p,1} log((b - p)/(a - p)) on the
    principal branch.  That is F continued along the straight segment
    from a to b, and along any path near it, such as a traced step,
    which stays within 1/5 of the distance to every special point.
    Points are affine coordinates x, also where a path is traced in the
    chart 1/x.
    """

    def __init__(self, one_form):
        form = one_form.form
        quot = poly_quotient(form.P, form.Q)
        self._poly = [mpc(0)] + [c / (k + 1) for k, c in enumerate(quot)]
        # (p, a_{p,1}, [0, a_{p,2}/(-1), a_{p,3}/(-2), ...]) per finite pole;
        # the last list holds the rational part as a polynomial in 1/(x - p)
        self.poles = []
        for pole in one_form.poles:
            if pole.location == INF:
                continue
            p = to_mpc(pole.location)
            n, series = _laurent_series(form, p, order_hint=0)
            principal = [mpc(0)] + [series[n - k] / (1 - k) for k in range(2, n + 1)]
            self.poles.append((p, series[n - 1], principal))

    def rational(self, x):
        """F without its log terms."""
        acc = poly_eval(self._poly, x)
        for p, _, principal in self.poles:
            if len(principal) > 1:
                acc += poly_eval(principal, 1 / (x - p))
        return acc

    def log_increment(self, a, b, skip=None):
        """Sum of a_{p,1} log((b - p)/(a - p)), leaving out pole `skip`."""
        acc = mpc(0)
        for i, (p, res, _) in enumerate(self.poles):
            if i != skip and res != 0:
                acc += res * mpmath.log((b - p) / (a - p))
        return acc

    def increment(self, a, b):
        """F(b) - F(a) along a short path from a to b."""
        return self.rational(b) - self.rational(a) + self.log_increment(a, b)


# ---------------------------------------------------------------------------
# period lattice
# ---------------------------------------------------------------------------

def _integer_relations(periods, search_bound=12,
                       strict_tol=mpf("1e-40"), loose_tol=mpf("1e-25")):
    """Small integer relations sum a_i p_i = 0 among complex periods.

    Relations inside the strict tolerance are accepted; relations seen
    only between the strict and loose tolerances are ambiguous at
    working precision and reported rather than imposed.
    """
    k = len(periods)
    scale = max([abs(p) for p in periods] + [mpf(1)])
    relations = []
    ambiguous = []
    if k == 0:
        return relations
    for combo in itertools.product(range(-search_bound, search_bound + 1), repeat=k):
        if all(c == 0 for c in combo):
            continue
        nz = [c for c in combo if c != 0]
        # primitive, first nonzero positive: avoids duplicates up to sign/scaling
        from math import gcd
        g = 0
        for c in nz:
            g = gcd(g, abs(c))
        if g != 1 or nz[0] < 0:
            continue
        val = abs(sum((c * p for c, p in zip(combo, periods)), mpc(0)))
        if val <= strict_tol * scale:
            relations.append(tuple(combo))
        elif val <= loose_tol * scale:
            ambiguous.append(tuple(combo))
    if ambiguous and not relations:
        # conservative choice: keep the full basis and let the support
        # check downstream fail loudly if the near-relation is real
        import warnings
        warnings.warn(f"relations {ambiguous} detected only at marginal "
                      f"tolerance; no relation imposed",
                      RelationDetectionAmbiguous)
    return relations


def _reduce_by_relation(generators, relation):
    """Unimodular change making `relation` a coordinate, then drop it.

    `generators` is a list of complex periods; returns the new list with
    one fewer generator spanning the same subgroup of C.
    """
    gens = list(generators)
    rel = list(relation)
    # Euclidean column operations shrink the relation to a single +-1
    # entry; the paired generator updates are unimodular, so the
    # subgroup is preserved and the flagged generator becomes zero.
    while True:
        nz = [i for i, c in enumerate(rel) if c != 0]
        if len(nz) <= 1:
            break
        i, j = nz[0], nz[1]
        if abs(rel[i]) > abs(rel[j]):
            i, j = j, i
        q = rel[j] // rel[i]
        rel[j] -= q * rel[i]
        # column operation on generators preserving the lattice
        gens[i] += q * gens[j]
    keep = [i for i, c in enumerate(rel) if c == 0]
    drop = [i for i, c in enumerate(rel) if c != 0]
    assert len(drop) == 1 and abs(rel[drop[0]]) == 1
    return [gens[i] for i in keep]


def period_lattice(one_form, weights=None):
    """Lattice of periods of the form over loops around its poles.

    On genus zero, loops around finite poles generate the homology of
    the punctured line; when infinity is not a pole the residues sum to
    zero and one loop is dependent.  Zero periods are discarded and
    small-integer relations are reduced away, so the lattice embeds into
    C by its period map.
    """
    finite = [p for p in one_form.poles if p.location != INF]
    has_inf_pole = any(p.location == INF for p in one_form.poles)
    periods = [2j * mp.pi * p.residue for p in finite]
    if not has_inf_pole and periods:
        periods = periods[:-1]  # residue theorem: last loop is minus the others
    scale = max([abs(p) for p in periods] + [mpf(1)])
    periods = [p for p in periods if abs(p) > mpf("1e-35") * scale]
    relations = _integer_relations(periods) if len(periods) >= 2 else []
    while relations:
        periods = _reduce_by_relation(periods, relations[0])
        relations = _integer_relations(periods) if len(periods) >= 2 else []
    if len(periods) > 2:
        # checked before the support radius, whose search grows like 49^rank
        raise DegenerateLattice(
            f"{len(periods)} periods independent over Z: no subgroup of C "
            f"of rank > 2 is discrete")
    lat = Lattice(tuple(periods), weights)
    if lat.rank:
        rep = support_radius(lat)  # raises DegenerateLattice on exact failure
        period_scale = max(abs(m) for m in lat.mu)
        if rep.value < mpf("1e-28") * period_scale:
            raise DegenerateLattice(
                f"support radius {rep.value} is negligible against the "
                f"period scale: near-relation among periods")
    return lat


# ---------------------------------------------------------------------------
# critical values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalData:
    basepoint: object
    values: tuple                # one critical value per zero, path-dependent branch
    representatives: tuple       # reduced mod the period lattice, deduplicated
    offset: object               # additive normalization of the primitive
    lattice: Lattice


def _segment_integral(form, a, b, tol=None):
    if tol is None:
        tol = mpf(2) ** (-mp.prec // 2)
    return adaptive_gauss(lambda x: form(x), a, b, tol)


def path_integral(form, waypoints, poles=None, guard=mpf("1e-8")):
    """Integral of the form along a polyline, guarding against poles."""
    total = mpc(0)
    pts = [to_mpc(w) for w in waypoints]
    for a, b in zip(pts[:-1], pts[1:]):
        if poles:
            for p in poles:
                # distance from pole to the segment [a, b]
                ab = b - a
                t = mpmath.re((p - a) * mpmath.conj(ab)) / max(abs(ab) ** 2, mpf("1e-60"))
                t = min(max(t, mpf(0)), mpf(1))
                if abs(a + t * ab - p) < guard:
                    raise PathThroughPole(f"segment [{a}, {b}] passes near pole {p}")
        total += _segment_integral(form, a, b)
    return total


def reduce_mod_lattice(c, lat):
    """Representative of c modulo the period lattice in a fixed domain.

    Coordinates in the generator basis (real span) are reduced to [0, 1)
    lexicographically.  The support property keeps the image discrete,
    so at most two generators can be R-independent.
    """
    c = to_mpc(c)
    if lat.rank == 0:
        return c
    if lat.rank == 1:
        mu = lat.mu[0]
        t = mpmath.re(c * mpmath.conj(mu)) / abs(mu) ** 2
        return c - mpmath.floor(t) * mu
    if lat.rank == 2:
        m1, m2 = lat.mu
        det = mpmath.re(m1) * mpmath.im(m2) - mpmath.im(m1) * mpmath.re(m2)
        if abs(det) < mpf("1e-30") * abs(m1) * abs(m2):
            raise ValueError("rank-2 lattice with R-dependent periods")
        a = (mpmath.re(c) * mpmath.im(m2) - mpmath.im(c) * mpmath.re(m2)) / det
        b = (mpmath.re(m1) * mpmath.im(c) - mpmath.im(m1) * mpmath.re(c)) / det
        return c - mpmath.floor(a) * m1 - mpmath.floor(b) * m2
    raise ValueError("support property forbids lattices of rank > 2 in C")


def critical_values(one_form, basepoint, branch_paths, lat=None, offset=0):
    """Critical values c_j = offset + int(basepoint -> zero_j) of the form.

    One path per zero, given as waypoint lists ending at (or near) the
    zero; paths fix the branch of the primitive.  Representatives are
    reduced modulo the period lattice into the fundamental domain.
    """
    if lat is None:
        lat = period_lattice(one_form)
    finite_poles = [p.location for p in one_form.poles if p.location != INF]
    values = []
    basepoint = to_mpc(basepoint)
    for j, zero in enumerate(one_form.zeros):
        path = [to_mpc(w) for w in branch_paths[j]]
        if path[0] != basepoint:
            path = [basepoint] + path
        target = zero.location if zero.location != INF else None
        if target is None:
            raise ValueError("critical value at an infinite zero needs a chart path")
        if abs(path[-1] - target) > 0:
            path = path + [target]
        values.append(to_mpc(offset) + path_integral(one_form.form, path,
                                                     poles=finite_poles))
    reps = []
    for v in values:
        r = reduce_mod_lattice(v, lat)
        if not any(abs(r - r2) < mpf("1e-25") * max(abs(r), mpf(1)) for r2 in reps):
            reps.append(r)
    return CriticalData(basepoint, tuple(values), tuple(reps), to_mpc(offset), lat)


# ---------------------------------------------------------------------------
# distinguished local coordinates at zeros
# ---------------------------------------------------------------------------

def _value_memo(fn):
    """Memoize fn by the values of its arguments and the working precision.

    The arguments are hashable values (frozen dataclasses, tuples,
    numbers), so equal inputs share one result whatever ran before, and
    the cache holds its keys, so no key can alias a dead object.  The
    cache is the wrapper's `cache` attribute, read at every call.
    """
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def memoized(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (tuple(bound.arguments.values()), mp.prec)
        out = memoized.cache.get(key)
        if out is None:
            out = memoized.cache[key] = fn(*args, **kwargs)
        return out
    memoized.cache = {}
    return memoized


@dataclass(frozen=True)
class LocalCoordinate:
    """Coordinate u at a zero with form = u^m du, plus the inverse series.

    u_of_w is the series of u in w = x - q (or w = v at an infinite
    zero); x_of_u is w as a series in u, so the chart point is
    q + x_of_u(u).  residual is the verification defect of
    a(x(u)) x'(u) = u^m through the truncation order.
    """
    zero_index: int
    chart: str
    center: object
    order: int
    u_of_w: GevreySeries
    x_of_u: GevreySeries
    residual: object
    dx_of_u: GevreySeries = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dx_of_u", self.x_of_u.derivative())

    def point(self, u):
        """Chart coordinate of the point with local parameter u."""
        return self.center + self.x_of_u(u)

    def dpoint(self, u):
        return self.dx_of_u(u)


@_value_memo
def local_coordinate_series(one_form, j, order, branch=0):
    """Solve u^(m+1)/(m+1) = primitive of the form at the j-th zero.

    The primitive's Taylor series at the zero has valuation m+1; its
    (m+1)-st root (deterministic branch) gives u(w), inverted to w(u).
    Memoized by value: every ray and direction at one zero shares it.
    """
    zero = one_form.zeros[j]
    m = zero.order
    if order < m + 2:
        raise ValueError("order must be at least m + 2")
    chart = INF if zero.location == INF else "affine"
    form = one_form.form.in_chart(chart)
    center = mpc(0) if zero.location == INF else to_mpc(zero.location)
    work = (m + 1) * (order + 2)
    n_loc, series = _laurent_series(form, center, order_hint=work)
    assert n_loc == 0, "zero of the form must not be a pole of the chart function"
    a_series = GevreySeries(tuple(series[: work + 1]))
    prim = a_series.integral(0)                      # valuation m+1
    target = gevrey.scale(prim, m + 1)
    u_of_w = gevrey.nth_root(target, m + 1, branch)  # valuation 1
    x_of_u = gevrey.reversion(u_of_w)
    # verify a(x(u)) * x'(u) = u^m through the available order
    comp = gevrey.compose(a_series.truncate(x_of_u.trunc_order), x_of_u)
    pullback = gevrey.mul(comp, x_of_u.derivative())
    residual = mpf(0)
    for n, c in enumerate(pullback.coeffs):
        expect = mpc(1) if n == m else mpc(0)
        residual = max(residual, abs(c - expect))
    return LocalCoordinate(j, chart, center, order, u_of_w, x_of_u, residual)


# ---------------------------------------------------------------------------
# reduction to the local cohomology basis
# ---------------------------------------------------------------------------

def reduce_monomial(n_deg, m, trunc):
    """Class of u^N du in the local cohomology at a zero of order m.

    The rewriting u^N du -> -z (N - m) u^(N-m-1) du lowers the degree by
    m+1, so the terminal class is k = N mod (m+1); classes with k = m
    vanish (they are exact).  Returns (k, factor) with the scalar factor
    as a z-series truncated at `trunc`:
        u^((m+1)n+k) du = (-z)^n * prod_{l=0}^{n-1} (k + (m+1)l + 1) u^k du.
    """
    if n_deg < 0 or m < 1:
        raise ValueError("need N >= 0 and m >= 1")
    k = n_deg % (m + 1)
    n = n_deg // (m + 1)
    if k == m:
        return k, gevrey.zero_series(trunc)
    if n > trunc:
        return k, gevrey.zero_series(trunc)
    factor = mpc(1)
    for l in range(n):
        factor *= (k + (m + 1) * l + 1)
    factor *= (-1) ** n
    return k, gevrey.monomial(factor, n, trunc)


def reduction_series(g_coeffs, m, order):
    """Reduce sum a_N u^N du to the basis classes u^k du, k < m.

    Output entry k is the series
        sum_n (-1)^n a_((m+1)n+k) prod_{l<n} (k + (m+1)l + 1) z^n
    truncated at `order`; the Gamma-function form of the same product is
    evaluated independently and must agree to near working precision.
    """
    out = []
    for k in range(m):
        coeffs = [mpc(0)] * (order + 1)
        gamma_coeffs = [mpc(0)] * (order + 1)
        ratio = mpf(k + 1) / (m + 1)
        gamma_base = mpmath.gamma(ratio)
        for n in range(order + 1):
            idx = (m + 1) * n + k
            if idx >= len(g_coeffs):
                break
            a = to_mpc(g_coeffs[idx])
            prod = mpc(1)
            for l in range(n):
                prod *= (k + (m + 1) * l + 1)
            coeffs[n] = (-1) ** n * a * prod
            gamma_coeffs[n] = ((-1) ** n * a * mpf(m + 1) ** n
                               * mpmath.gamma(ratio + n) / gamma_base)
        prod_form = GevreySeries(tuple(coeffs))
        gamma_form = GevreySeries(tuple(gamma_coeffs))
        if not prod_form.isclose(gamma_form, rel=mpf("1e-20")):
            raise AssertionError("product and Gamma forms of the reduction disagree")
        out.append(prod_form)
    return out


def reduction_series_bruteforce(g_coeffs, m, order):
    """Oracle: apply the rewriting relation termwise until degrees < m.

    Independent of the closed form: maintains a map degree -> z-series
    coefficient and rewrites the highest degree until only basis classes
    remain.
    """
    table = {n: {0: to_mpc(c)} for n, c in enumerate(g_coeffs) if to_mpc(c) != 0}
    while True:
        top = max((d for d in table if d >= m), default=None)
        if top is None:
            break
        entry = table.pop(top)
        if top == m:
            continue  # u^m du is exact: class vanishes
        # u^top du = -z (top - m) u^(top-m-1) du
        dest = table.setdefault(top - m - 1, {})
        for zpow, c in entry.items():
            if zpow + 1 > order:
                continue
            dest[zpow + 1] = dest.get(zpow + 1, mpc(0)) - (top - m) * c
        if not dest:
            table.pop(top - m - 1, None)
    out = []
    for k in range(m):
        coeffs = [mpc(0)] * (order + 1)
        for zpow, c in table.get(k, {}).items():
            coeffs[zpow] = c
        out.append(GevreySeries(tuple(coeffs)))
    return out


@_value_memo
def formal_comparison(omega, one_form, j, order, local=None):
    """Reduce a global form to the local basis at zero j, as z-series.

    `omega` is a RationalForm holomorphic at the zero.  Its pullback
    g(u) du through the distinguished coordinate is computed by series
    composition, then reduced by `reduction_series`.  Returns the list
    of m series (basis classes u^k du, k = 0..m-1).  Memoized by value.
    """
    zero = one_form.zeros[j]
    m = zero.order
    if local is None:
        local = local_coordinate_series(one_form, j, order + 2)
    omega_chart = omega.in_chart(local.chart)
    n_loc, om_series = _laurent_series(omega_chart, local.center,
                                       order_hint=local.x_of_u.trunc_order + 4)
    if n_loc != 0:
        raise ValueError("omega must be holomorphic at the zero")
    om = GevreySeries(tuple(om_series[: local.x_of_u.trunc_order + 1]))
    comp = gevrey.compose(om, local.x_of_u)
    g_u = gevrey.mul(comp, local.dx_of_u)
    return reduction_series(g_u.coeffs, m, order)


# ---------------------------------------------------------------------------
# Bernoulli cross-check and the elementary connection
# ---------------------------------------------------------------------------

def bernoulli_numbers(count):
    """B_0 .. B_count as exact fractions via the standard recurrence."""
    out = [Fraction(1)]
    for n in range(1, count + 1):
        # sum_{k=0}^{n} C(n+1, k) B_k = 0
        acc = Fraction(0)
        binom = 1
        for k in range(n):
            acc += binom * out[k]
            binom = binom * (n + 1 - k) // (k + 1)
        out.append(Fraction(-acc, n + 1))
    return out


def stirling_exponent_series(lam, order):
    """sum B_2n / (2n (2n-1) lam^(2n-1)) z^(2n-1), truncated at `order`."""
    lam = to_mpc(lam)
    bern = bernoulli_numbers(order + 1)
    coeffs = [mpc(0)] * (order + 1)
    for n in range(1, order // 2 + 1):
        if 2 * n - 1 > order:
            break
        b = bern[2 * n]
        coeffs[2 * n - 1] = (mpf(b.numerator) / mpf(b.denominator)
                             / (2 * n * (2 * n - 1)) / lam ** (2 * n - 1))
    return GevreySeries(tuple(coeffs))


@dataclass
class StirlingReport:
    passed: bool
    formal: GevreySeries         # reduction-pipeline coefficients
    closed: GevreySeries         # lam^(-1/2) exp(-b_lam)
    max_rel_error: object


def stirling_check(lam, order, rel_tol=mpf("1e-12")):
    """Reduction pipeline vs the Bernoulli closed form for dlog x.

    Builds the form -(lam - x)/x dx, reduces dx/x at its zero, and
    compares with lam^(-1/2) exp(-b_lam(z)) coefficient by coefficient.
    """
    lam = to_mpc(lam)
    if lam == 0:
        raise ValueError("lam must be nonzero")
    one_form = analyze([-lam, mpc(1)], [mpc(0), mpc(1)])
    omega = RationalForm((mpc(1),), (mpc(0), mpc(1)))
    formal = formal_comparison(omega, one_form, 0, order)[0]
    b = stirling_exponent_series(lam, order)
    closed = gevrey.scale(gevrey.exp(gevrey.scale(b, -1)), lam ** mpf("-0.5"))
    worst = mpf(0)
    for n in range(order + 1):
        a, c = formal.coeffs[n], closed.coeffs[n]
        scale = max(abs(a), abs(c), mpf("1e-30"))
        worst = max(worst, abs(a - c) / scale)
    return StirlingReport(worst <= rel_tol, formal, closed, worst)


@dataclass(frozen=True)
class ConnectionBlock:
    zero_index: int
    exponential_factor: object       # critical value c_j
    exponents: tuple                 # regular-singular exponents (k+1)/(m+1)


def elementary_connection(one_form, crit):
    """Per-zero spectral data of the elementary exponential connection."""
    blocks = []
    for j, zero in enumerate(one_form.zeros):
        m = zero.order
        exps = tuple(mpf(k + 1) / (m + 1) for k in range(m))
        blocks.append(ConnectionBlock(j, crit.values[j], exps))
    rank = sum(z.order for z in one_form.zeros)
    expected = 2 * one_form.genus - 2 + sum(p.order for p in one_form.poles)
    if rank != expected:
        raise AssertionError("rank count disagrees with the degree identity")
    return blocks
