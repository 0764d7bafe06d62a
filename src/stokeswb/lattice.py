"""Period lattices, exponential sums, and direction-wise exponent order.

A lattice is Z^r together with complex period values mu(e_i) on the
generators and a weighted l1 norm.  The support property (a positive
lower bound R ||gamma|| <= |mu(gamma)|) makes enumeration balls finite
and keeps exponential sums summable; everything downstream assumes it.
Tolerance defaults are strings, made mpf at call time, so they carry
the working precision of the call.
"""

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import mpmath
from mpmath import mp, mpf, mpc

from .errors import DegenerateLattice, NotDecaying, NotLowering
from .scalar import cplx_to_pair, pair_to_cplx, to_mpc, wrap_angle

_ZERO_TOL = "1e-40"
# relative margin of the float screens ahead of the exact tests of a
# norm or a modulus against its bound: only what passes the screen is
# tested at working precision
_SCREEN = 1e-9
# absolute margin of the float screens of angles in [0, 2 pi): well above
# their float error of a few 1e-16
_ANGLE_SCREEN = 1e-13
# `critical_differences` merges points closer than this times max(radius, 1)
_DEDUP_REL = "1e-30"
# exponents and coefficients of two equal `ExpSum`s agree to this
_EQUAL_TOL = "1e-30"
# endpoints of a stored arc of an `ExponentMultiMap` match to this
_ARC_TOL = "1e-12"
# samples of arg z on the arc of `moderate_bound`
_MODERATE_SAMPLES = 16
# radii and angles of the grid of `frechet_seminorm`
_SEMINORM_RADII, _SEMINORM_ANGLES = 24, 9
# applications of Psi that `neumann_solve` tries before it gives up
_NEUMANN_MAX_ITER = 10000


@dataclass(frozen=True)
class Lattice:
    mu: tuple                      # period of each generator
    weights: tuple = None          # positive l1 weights, default all 1

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(to_mpc(m) for m in self.mu))
        if self.weights is None:
            object.__setattr__(self, "weights", (mpf(1),) * len(self.mu))
        else:
            object.__setattr__(self, "weights", tuple(mpf(w) for w in self.weights))
        if len(self.weights) != len(self.mu):
            raise ValueError("one weight per generator")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")

    @property
    def rank(self):
        return len(self.mu)

    def period(self, gamma):
        return sum((g * m for g, m in zip(gamma, self.mu)), mpc(0))

    def norm(self, gamma):
        return sum((w * abs(g) for w, g in zip(self.weights, gamma)), mpf(0))

    def vectors_in_ball(self, bound):
        """All gamma in Z^r with 0 < ||gamma|| <= bound (weighted l1)."""
        if self.rank == 0:
            return
        bound = mpf(bound)
        ranges = [range(-int(bound / w), int(bound / w) + 1) for w in self.weights]
        weights = [float(w) for w in self.weights]
        inside, outside = float(bound) * (1 - _SCREEN), float(bound) * (1 + _SCREEN)
        for gamma in itertools.product(*ranges):
            if not any(gamma):
                continue
            size = sum(w * abs(g) for w, g in zip(weights, gamma))
            if size <= inside or (size <= outside and self.norm(gamma) <= bound):
                yield gamma

    def to_json(self):
        return {
            "rank": self.rank,
            "mu": [cplx_to_pair(m) for m in self.mu],
            "weights": [mpmath.nstr(w, 40) for w in self.weights],
        }

    @classmethod
    def from_json(cls, data):
        return cls(tuple(pair_to_cplx(p) for p in data["mu"]),
                   tuple(mpf(w) for w in data["weights"]))


@dataclass
class SupportRadiusReport:
    value: object
    attained_interior: bool      # meaningful for rank >= 2 (upper estimate otherwise)
    witness: Optional[tuple]
    exact: bool                  # enumeration is exhaustive for rank <= 1


def support_radius(lat, enum_bound=24):
    """min |mu(gamma)| / ||gamma|| over 0 < ||gamma|| <= enum_bound.

    Exact for rank <= 1; an upper estimate for rank >= 2, with a flag
    telling whether the minimum sat strictly inside the ball.  A nonzero
    gamma with mu(gamma) = 0 means the support property fails.
    """
    if enum_bound < 1:
        raise ValueError("enum_bound must be >= 1")
    if lat.rank == 0:
        return SupportRadiusReport(mpf("inf"), False, None, True)
    if lat.rank == 1:
        g = (1,)
        value = abs(lat.period(g)) / lat.norm(g)
        if value <= mpf(_ZERO_TOL):
            raise DegenerateLattice("generator has vanishing period")
        return SupportRadiusReport(value, False, g, True)
    best = None
    witness = None
    zero = mpf(_ZERO_TOL) * (max(abs(m) for m in lat.mu) or mpf(1))
    for gamma in lat.vectors_in_ball(enum_bound):
        p = abs(lat.period(gamma))
        if p <= zero:
            raise DegenerateLattice(f"mu({gamma}) = 0: support property fails")
        ratio = p / lat.norm(gamma)
        if best is None or ratio < best:
            best, witness = ratio, gamma
    interior = lat.norm(witness) < enum_bound - min(lat.weights) / 2
    return SupportRadiusReport(best, interior, witness, False)


def critical_differences(c_set, lat, radius):
    """All (c - c') + mu(gamma) with modulus <= radius, zero removed.

    The support property guarantees only finitely many gamma contribute;
    the enumeration bound is derived from it.  Points closer than
    _DEDUP_REL * max(radius, 1) count as one.
    """
    radius = mpf(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    c_set = [to_mpc(c) for c in c_set]
    diffs = {(0, 0): mpc(0)}
    out = []
    max_diff = mpf(0)
    for c in c_set:
        for cp in c_set:
            max_diff = max(max_diff, abs(c - cp))
    if lat.rank > 0:
        rep = support_radius(lat)
        enum_bound = int(mpmath.ceil((radius + max_diff) / rep.value)) + 1
        gammas = [tuple([0] * lat.rank)] + list(lat.vectors_in_ball(enum_bound))
        reach = enum_bound * max(abs(m) for m in lat.mu) / min(lat.weights)
    else:
        gammas, reach = [()], mpf(0)
    # |w| in floats is within `slack` of the exact |w| over the whole ball
    mu = [complex(m) for m in lat.mu]
    periods = [sum((g * m for g, m in zip(gamma, mu)), 0j) for gamma in gammas]
    slack = _SCREEN * float(radius + max_diff + reach)
    outside = float(radius) + slack
    dedup_tol = mpf(_DEDUP_REL) * max(radius, mpf(1))
    # kept points by grid cell of side dedup_tol: a point within dedup_tol
    # of w lies in w's cell or one of its eight neighbours
    cells = {}
    for c in c_set:
        for cp in c_set:
            base = c - cp
            base_f = complex(base)
            for gamma, period in zip(gammas, periods):
                if abs(base_f + period) > outside:
                    continue
                w = base + lat.period(gamma)
                if not dedup_tol < abs(w) <= radius:
                    continue
                i = int(mpmath.floor(w.real / dedup_tol))
                j = int(mpmath.floor(w.imag / dedup_tol))
                near = (o for di in (-1, 0, 1) for dj in (-1, 0, 1)
                        for o in cells.get((i + di, j + dj), ()))
                if not any(abs(w - o) <= dedup_tol for o in near):
                    out.append(w)
                    cells.setdefault((i, j), []).append(w)
    return _by_modulus(out)


def _by_modulus(points):
    """points sorted by (abs(w), arg(w)) at working precision.

    The sort runs on float keys.  A run of neighbours whose float moduli
    agree to _SCREEN is ordered by the exact modulus, then by the float
    argument, or by the exact one where two equal moduli have float
    arguments that agree to _SCREEN.
    """
    def settle(run):
        run = sorted(((abs(w), arg_f, w) for _, arg_f, w in run), key=lambda k: k[:2])
        if any(a[0] == b[0] and b[1] - a[1] <= _SCREEN for a, b in zip(run, run[1:])):
            run.sort(key=lambda k: (k[0], mpmath.arg(k[2])))
        return run

    keyed = [(abs(wf), cmath.phase(wf), w) for w, wf in ((w, complex(w)) for w in points)]
    return [w for _, _, w in _float_sorted(
        keyed, lambda a, b: b[0] - a[0] <= _SCREEN * b[0], settle)]


def _float_sorted(keyed, close, settle):
    """Tuples sorted by their leading floats, each run of neighbours that
    are `close` put in order by `settle`."""
    keyed = sorted(keyed, key=lambda k: k[:-1])
    out, start = [], 0
    for end in range(1, len(keyed) + 1):
        if end < len(keyed) and close(keyed[end - 1], keyed[end]):
            continue
        run = keyed[start:end]
        out.extend(settle(run) if len(run) > 1 else run)
        start = end
    return out


@dataclass
class GenericityReport:
    generic: bool
    witness: Optional[object]    # offending element of the difference set


def is_generic(d, c_set, lat, radius, angle_tol="1e-12"):
    """True when the ray arg = d avoids all critical differences."""
    d, angle_tol = mpf(d), mpf(angle_tol)
    for w in critical_differences(c_set, lat, radius):
        if abs(wrap_angle(mpmath.arg(w) - d)) < angle_tol:
            return GenericityReport(False, w)
    return GenericityReport(True, None)


def nongeneric_directions(c_set, lat, radius, angle_tol="1e-12"):
    """Sorted non-generic directions in [0, 2*pi), deduplicated."""
    angle_tol = mpf(angle_tol)
    out = []
    # kept angles (float, exact) by float bucket of width 2 angle_tol; an
    # angle within angle_tol of a, modulo 2 pi, lies in a neighbour of the
    # bucket of a, a - 2 pi or a + 2 pi.  Floats decide where they are
    # _ANGLE_SCREEN clear of angle_tol, the exact angles elsewhere
    buckets = {}
    tol = float(angle_tol)
    for w in critical_differences(c_set, lat, radius):
        af = cmath.phase(complex(w))
        if af < 0:
            af += 2 * math.pi
        keys = [math.floor((af + s) / (2 * tol)) for s in (-2 * math.pi, 0, 2 * math.pi)]
        near = [(bf, b) for k in keys for dk in (-1, 0, 1)
                for bf, b in buckets.get(k + dk, ())]
        gaps = [(abs(math.remainder(af - bf, 2 * math.pi)), b) for bf, b in near]
        if any(gap < tol - _ANGLE_SCREEN for gap, _ in gaps):
            continue
        a = mpmath.arg(w)
        if a < 0:
            a += 2 * mp.pi
        if any(abs(wrap_angle(a - b)) < angle_tol
               for gap, b in gaps if gap <= tol + _ANGLE_SCREEN):
            continue
        out.append((af, a))
        buckets.setdefault(keys[1], []).append((af, a))
    return [a for _, a in _float_sorted(out, lambda a, b: b[0] - a[0] <= _ANGLE_SCREEN,
                                        lambda run: sorted(run, key=lambda k: k[1]))]


# ---------------------------------------------------------------------------
# direction-wise order on exponents
# ---------------------------------------------------------------------------

LESS = "less"
EQUAL = "equal"
NOT_LESS = "not-less"


def exp_less_at(c, cp, theta):
    """Order of exponential factors at direction theta.

    c is smaller than c' when Re(exp(-i theta)(c - c')) < 0, i.e. the
    twist exp(c/z) decays relative to exp(c'/z) as z -> 0 along theta.
    """
    c, cp = to_mpc(c), to_mpc(cp)
    if c == cp:
        return EQUAL
    return LESS if mpmath.re(mpmath.exp(-1j * mpf(theta)) * (c - cp)) < 0 else NOT_LESS


def exp_less_on_arc(c, cp, arc):
    """Strict comparison on the whole open arc (theta_min, theta_max).

    Uses that theta -> Re(exp(-i theta) w) vanishes exactly at
    arg(w) +- pi/2 (mod pi): the endpoint values must be negative and no
    zero may fall inside the arc.
    """
    lo, hi = mpf(arc[0]), mpf(arc[1])
    if not hi > lo:
        raise ValueError("arc must be a nonempty interval")
    c, cp = to_mpc(c), to_mpc(cp)
    if c == cp:
        return False
    w = c - cp
    if mpmath.re(mpmath.exp(-1j * lo) * w) >= 0:
        return False
    if mpmath.re(mpmath.exp(-1j * hi) * w) >= 0:
        return False
    if hi - lo >= mp.pi:
        return False
    # zeros of cos(arg w - theta) at theta = arg w - pi/2 + k pi
    base = mpmath.arg(w) - mp.pi / 2
    k = mpmath.floor((lo - base) / mp.pi)
    zero = base + (k + 1) * mp.pi
    return not (lo < zero < hi)


# ---------------------------------------------------------------------------
# exponential sums
# ---------------------------------------------------------------------------

class ExpSum:
    """Finite sum exp(offset/z) * sum_gamma a_gamma exp(mu(gamma)/z).

    Terms are indexed by lattice vectors; zero coefficients are dropped
    on construction.  Two sums are equal when their exponent-to-
    coefficient maps match after folding the offset into the exponents.
    """

    def __init__(self, lat, terms=None, offset=0):
        self.lattice = lat
        self.offset = to_mpc(offset)
        clean = {}
        for gamma, coeff in (terms or {}).items():
            gamma = tuple(int(g) for g in gamma)
            if len(gamma) != lat.rank:
                raise ValueError("term index rank mismatch")
            coeff = to_mpc(coeff)
            if coeff != 0:
                clean[gamma] = clean.get(gamma, mpc(0)) + coeff
        self.terms = {g: c for g, c in clean.items() if c != 0}

    @classmethod
    def constant(cls, lat, value=1):
        return cls(lat, {tuple([0] * lat.rank): value})

    def exponent_map(self):
        return {g: (self.offset + self.lattice.period(g), c)
                for g, c in self.terms.items()}

    def equals(self, other):
        """Same exponents and coefficients up to _EQUAL_TOL, in any order."""
        tol = mpf(_EQUAL_TOL)
        mine = list(self.exponent_map().values())
        theirs = list(other.exponent_map().values())
        if len(mine) != len(theirs):
            return False
        used = [False] * len(theirs)
        for e, c in mine:
            found = False
            for i, (e2, c2) in enumerate(theirs):
                if used[i]:
                    continue
                if abs(e - e2) <= tol and abs(c - c2) <= tol * max(abs(c), mpf(1)):
                    used[i] = True
                    found = True
                    break
            if not found:
                return False
        return True

    def __add__(self, other):
        if isinstance(other, (int, float, complex, mpf, mpc)):
            other = ExpSum.constant(self.lattice, other)
        if other.offset != self.offset:
            raise ValueError("can only add exponential sums with equal offsets")
        merged = dict(self.terms)
        for g, c in other.terms.items():
            merged[g] = merged.get(g, mpc(0)) + c
        return ExpSum(self.lattice, merged, self.offset)

    def __neg__(self):
        return ExpSum(self.lattice, {g: -c for g, c in self.terms.items()}, self.offset)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, mpf, mpc)):
            return ExpSum(self.lattice,
                          {g: c * to_mpc(other) for g, c in self.terms.items()},
                          self.offset)
        out = {}
        for g1, c1 in self.terms.items():
            for g2, c2 in other.terms.items():
                g = tuple(a + b for a, b in zip(g1, g2))
                out[g] = out.get(g, mpc(0)) + c1 * c2
        return ExpSum(self.lattice, out, self.offset + other.offset)

    __rmul__ = __mul__

    def shift(self, gamma):
        """Multiply by exp(mu(gamma)/z): shift every term index."""
        gamma = tuple(int(g) for g in gamma)
        return ExpSum(self.lattice,
                      {tuple(a + b for a, b in zip(g, gamma)): c
                       for g, c in self.terms.items()},
                      self.offset)

    def evaluate(self, z):
        z = to_mpc(z)
        acc = mpc(0)
        for g, c in self.terms.items():
            acc += c * mpmath.exp(self.lattice.period(g) / z)
        return acc * mpmath.exp(self.offset / z)

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        bits = []
        for g, c in sorted(self.terms.items()):
            bits.append(f"{mpmath.nstr(c, 6)}*u^{g}")
        body = " + ".join(bits) if bits else "0"
        if self.offset != 0:
            return f"exp({mpmath.nstr(self.offset, 6)}/z)*({body})"
        return body

    def to_json(self):
        return {
            "offset": cplx_to_pair(self.offset),
            "terms": [{"gamma": list(g), "coeff": cplx_to_pair(c)}
                      for g, c in sorted(self.terms.items())],
        }

    @classmethod
    def from_json(cls, lat, data):
        return cls(lat,
                   {tuple(t["gamma"]): pair_to_cplx(t["coeff"]) for t in data["terms"]},
                   pair_to_cplx(data["offset"]))


def expsum_norm(f, rho):
    """sum |a_gamma| rho^||gamma|| over stored terms, 0 < rho < 1."""
    rho = mpf(rho)
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0, 1)")
    return sum((abs(c) * rho ** f.lattice.norm(g) for g, c in f.terms.items()), mpf(0))


def filtration_level(f, theta):
    """Maximal exponents of f under the order at direction theta."""
    exps = [e for e, _ in f.exponent_map().values()]
    out = []
    for e in exps:
        if any(exp_less_at(e, e2, theta) == LESS for e2 in exps):
            continue
        if not any(abs(e - o) <= mpf("1e-30") for o in out):
            out.append(e)
    return out


def _max_cos_over_arc(phi, lo, hi):
    """max of cos(phi - theta) over theta in [lo, hi]."""
    base = wrap_angle(phi - lo)
    width = hi - lo
    if 0 <= base <= width:
        return mpf(1)
    return max(mpmath.cos(phi - lo), mpmath.cos(phi - hi))


@dataclass
class ModerateBoundReport:
    bound: object
    epsilon: object
    max_actual: object           # sampled sup of |f(z) - a_0|
    satisfied: bool


def moderate_bound(f, arc, z_abs):
    """Decay bound |f(z) - a_0| <= sum |a_gamma| exp(-eps R ||gamma||/|z|).

    Every nonzero-index term must decay strictly on the interior of the
    closed arc; the bound is then checked against _MODERATE_SAMPLES
    samples of arg z on the arc at |z| = z_abs.
    """
    lo, hi = mpf(arc[0]), mpf(arc[1])
    z_abs = mpf(z_abs)
    lat = f.lattice
    if f.offset != 0:
        raise ValueError("moderate_bound expects offset 0")
    nonzero = [(g, c) for g, c in f.terms.items() if any(v != 0 for v in g)]
    interior = (lo + mpf("1e-18"), hi - mpf("1e-18")) if hi > lo else None
    eps = mpf(1)
    for g, _ in nonzero:
        w = lat.period(g)
        if interior is not None:
            ok = exp_less_on_arc(w, 0, interior)
        else:
            ok = exp_less_at(w, 0, lo) == LESS
        if not ok:
            raise NotDecaying(f"term {g} does not decay on the arc")
        eps = min(eps, -_max_cos_over_arc(mpmath.arg(w), lo, hi))
    if not nonzero:
        eps = mpf(0)
    rsr = support_radius(lat) if lat.rank else None
    big_r = rsr.value if rsr else mpf(0)
    a0 = f.terms.get(tuple([0] * lat.rank), mpc(0))
    decay_part = mpf(0)
    for g, c in nonzero:
        decay_part += abs(c) * mpmath.exp(-eps * big_r * lat.norm(g) / z_abs)
    bound_total = abs(a0) + decay_part
    worst = mpf(0)
    for i in range(_MODERATE_SAMPLES):
        theta = lo + (hi - lo) * i / (_MODERATE_SAMPLES - 1) if hi > lo else lo
        z = z_abs * mpmath.exp(1j * theta)
        worst = max(worst, abs(f.evaluate(z) - a0))
    return ModerateBoundReport(
        bound_total, eps, worst,
        worst <= decay_part + mpf("1e-25") * max(decay_part, mpf(1)))


# ---------------------------------------------------------------------------
# exponent multi-maps and Frechet seminorms
# ---------------------------------------------------------------------------

class ExponentMultiMap:
    """Finitely many closed arcs J -> a_J with monotonicity J c J' => a_J >= a_J'."""

    def __init__(self):
        self._arcs = []      # (lo, hi, value)

    def insert(self, lo, hi, value):
        lo, hi, value = mpf(lo), mpf(hi), mpf(value)
        if not hi >= lo:
            raise ValueError("empty arc")
        for (l2, h2, v2) in self._arcs:
            if lo >= l2 and hi <= h2 and value < v2:
                raise ValueError("monotonicity violated: sub-arc with smaller value")
            if l2 >= lo and h2 <= hi and v2 < value:
                raise ValueError("monotonicity violated: super-arc with larger value")
        self._arcs.append((lo, hi, value))

    def value(self, lo, hi):
        """The value of the stored arc whose ends match lo and hi to _ARC_TOL."""
        tol = mpf(_ARC_TOL)
        for (l2, h2, v2) in self._arcs:
            if abs(l2 - lo) <= tol and abs(h2 - hi) <= tol:
                return v2
        raise KeyError("arc not stored")


@dataclass
class SeminormReport:
    value: object
    growth_detected: bool


def frechet_seminorm(f, a_map, arc, rho):
    """sup over the closed sector S(arc, rho) of exp(a_J/|z|) |f(z)|.

    f is a callable z -> value or an ExpSum.  The sup is taken over a
    grid of _SEMINORM_RADII radii and _SEMINORM_ANGLES angles; a
    monotone increase toward |z| -> 0 at the smallest radii is flagged
    as growth (the weight outpaces the decay of f).
    """
    lo, hi = mpf(arc[0]), mpf(arc[1])
    a_j = a_map.value(lo, hi)
    fun = f.evaluate if isinstance(f, ExpSum) else f
    radii = sorted(mpf(rho) * mpf(k + 1) / _SEMINORM_RADII
                   for k in range(_SEMINORM_RADII))
    best = mpf(0)
    trend = []
    for r in radii:
        local = mpf(0)
        for i in range(_SEMINORM_ANGLES):
            theta = lo + (hi - lo) * i / (_SEMINORM_ANGLES - 1) if hi > lo else lo
            z = r * mpmath.exp(1j * theta)
            local = max(local, mpmath.exp(a_j / r) * abs(fun(z)))
        trend.append(local)
        best = max(best, local)
    # weight outpacing the function: the sup blows up toward |z| -> 0
    growth = len(trend) >= 3 and trend[0] > 4 * trend[1] and trend[1] > 4 * trend[2]
    return SeminormReport(best, growth)


# ---------------------------------------------------------------------------
# Neumann series solver on graded modules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedModule:
    """Free module with basis carrying exponential grades (one level per slot)."""
    lattice: Lattice
    grades: tuple                    # c_i for each basis slot

    def __post_init__(self):
        object.__setattr__(self, "grades", tuple(to_mpc(c) for c in self.grades))

    @property
    def dim(self):
        return len(self.grades)

    def zero_element(self):
        return [ExpSum(self.lattice, {}) for _ in range(self.dim)]


@dataclass(frozen=True)
class ExpTruncation:
    """Discard terms beyond a decay cutoff (and/or lattice-norm bound) on an arc."""
    arc: tuple
    decay_cutoff: Optional[object] = None       # default 8R is applied by the solver
    norm_bound: Optional[int] = None


def _min_decay_on_arc(e, arc):
    """min over the arc of -Re(exp(-i theta) e): the slowest decay rate."""
    lo, hi = mpf(arc[0]), mpf(arc[1])
    e = to_mpc(e)
    if abs(e) == 0:
        return mpf(0)
    # -Re(e^{-i theta} e) = -|e| cos(arg e - theta); minimum where cos is max
    return -abs(e) * _max_cos_over_arc(mpmath.arg(e), lo, hi)


def _beyond_cutoff(module, slot, gamma, offset, trunc, cutoff):
    if trunc.norm_bound is not None and module.lattice.norm(gamma) > trunc.norm_bound:
        return True
    e_tot = module.grades[slot] + offset + module.lattice.period(gamma)
    return _min_decay_on_arc(e_tot, trunc.arc) > cutoff


def _entirely_beyond(module, elem, trunc, cutoff):
    seen = False
    for i, comp in enumerate(elem):
        for g in comp.terms:
            seen = True
            if not _beyond_cutoff(module, i, g, comp.offset, trunc, cutoff):
                return False
    return seen


@dataclass
class NeumannReport:
    solution: list
    iterations: int
    residual: list               # (id - Psi) h - g, exact arithmetic
    residual_norm: object        # expsum norm at rho = 1/2, summed over slots
    first_discarded_norm: object


def _apply(module, psi, elem):
    out = []
    for i in range(module.dim):
        acc = ExpSum(module.lattice, {})
        for j in range(module.dim):
            entry = psi[i][j]
            if entry is None or entry.is_zero() or elem[j].is_zero():
                continue
            acc = acc + entry * elem[j]
        out.append(acc)
    return out


def check_lowering(module, psi, arc):
    """Every term of Psi[i][j] must send grade c_j strictly below c_i + exponent."""
    interior = (mpf(arc[0]) + mpf("1e-18"), mpf(arc[1]) - mpf("1e-18"))
    if not interior[1] > interior[0]:
        interior = (mpf(arc[0]) - mpf("1e-15"), mpf(arc[0]) + mpf("1e-15"))
    for i in range(module.dim):
        for j in range(module.dim):
            entry = psi[i][j]
            if entry is None or entry.is_zero():
                continue
            if entry.offset != 0:
                raise ValueError("Psi entries must carry offset 0")
            for g in entry.terms:
                e = module.grades[i] + module.lattice.period(g)
                if not exp_less_on_arc(e, module.grades[j], interior):
                    raise NotLowering(
                        f"Psi[{i}][{j}] term {g} does not lower the filtration")


def neumann_solve(module, psi, g, trunc):
    """h = sum_n Psi^n(g), stopped once an iterate falls below the cutoff.

    Psi must strictly lower the exponent filtration at every direction of
    the working arc, so each application decreases decay levels by a
    fixed positive amount and the iteration terminates.  Following the
    stop rule, iterates are kept whole: the first iterate *entirely*
    beyond the truncation cutoff is discarded and the sum ends, so
    (id - Psi) h - g equals exactly minus that iterate and the residual
    norm is bounded by (indeed equal to) its norm.  After
    _NEUMANN_MAX_ITER applications without that stop, Psi is taken not to
    lower, and NotLowering is raised.
    """
    check_lowering(module, psi, trunc.arc)
    if any(comp.offset != 0 for comp in g):
        raise ValueError("module elements must carry offset 0")
    if trunc.decay_cutoff is not None:
        cutoff = mpf(trunc.decay_cutoff)
    elif module.lattice.rank:
        cutoff = 8 * support_radius(module.lattice).value
    elif trunc.norm_bound is None:
        raise ValueError("rank-0 lattice needs an explicit truncation cutoff")
    else:
        cutoff = mpf("inf")
    h = [ExpSum(module.lattice, dict(comp.terms)) for comp in g]
    term = h
    iterations = 0
    first_discarded = module.zero_element()
    while iterations < _NEUMANN_MAX_ITER:
        iterations += 1
        nxt = _apply(module, psi, term)
        if all(c.is_zero() for c in nxt):
            break
        if _entirely_beyond(module, nxt, trunc, cutoff):
            first_discarded = nxt
            break
        term = nxt
        h = [a + b for a, b in zip(h, nxt)]
    else:
        raise NotLowering("iteration budget exhausted: Psi does not seem to lower")
    psih = _apply(module, psi, h)
    residual = [h[i] - psih[i] - g[i] for i in range(module.dim)]
    res_norm = sum((expsum_norm(r, mpf("0.5")) for r in residual), mpf(0))
    fd_norm = sum((expsum_norm(t, mpf("0.5")) for t in first_discarded), mpf(0))
    return NeumannReport(h, iterations, residual, res_norm, fd_norm)
