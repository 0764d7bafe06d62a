"""Truncated formal power series with Gevrey-order-1 bookkeeping.

A series is stored as its coefficients a_0..a_N at a fixed truncation
order N.  Operations never extend a series silently: binary operations
truncate to the smaller order, so Gevrey estimates always refer to
stored coefficients only.

Every truncated convolution (`mul`, each Horner step of `compose`, and
the recurrences of `reciprocal`, `exp` and `log`) goes through one
kernel, `_cauchy`: a coefficient is one `mpmath.fdot`, with exact
products and a single rounding.  Values of a series are one `fdot`
against the powers of z.  `compose` keeps at each Horner step only the
coefficients the result reads, n^3/6 products at order n.
"""

from dataclasses import dataclass, field
from typing import Optional

import mpmath
from mpmath import mp, mpf, mpc

from .errors import EmptyGrid, ZeroLeadingCoefficient
from .scalar import close, cplx_to_pair, pair_to_cplx, to_mpc


@dataclass(frozen=True)
class Sector:
    """Open sector {0 < |z| < radius, |arg z - direction| < opening/2}."""
    direction: object
    opening: object
    radius: object

    def __post_init__(self):
        if not (mpf(self.opening) > 0 and mpf(self.radius) > 0):
            raise ValueError("sector needs opening > 0 and radius > 0")

    def contains(self, z):
        z = to_mpc(z)
        if not (0 < abs(z) < mpf(self.radius)):
            return False
        delta = mpmath.arg(z * mpmath.exp(-1j * mpf(self.direction)))
        return abs(delta) < mpf(self.opening) / 2


@dataclass(frozen=True)
class UnboundedSector:
    """Unbounded sector {|arg zeta - direction| < half_opening} in the Borel plane."""
    direction: object
    half_opening: object

    def __post_init__(self):
        if not mpf(self.half_opening) > 0:
            raise ValueError("half_opening must be positive")

    def contains(self, zeta):
        zeta = to_mpc(zeta)
        if abs(zeta) == 0:
            return False
        delta = mpmath.arg(zeta * mpmath.exp(-1j * mpf(self.direction)))
        return abs(delta) < mpf(self.half_opening)


@dataclass(frozen=True)
class GevreySeries:
    """a_0 + a_1 z + ... + a_N z^N with an optional Gevrey-1 constant."""
    coeffs: tuple
    precision: int = field(default=None)
    gevrey_constant: Optional[object] = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(to_mpc(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")
        if self.precision is None:
            object.__setattr__(self, "precision", mp.prec)
        if self.gevrey_constant is not None and not mpf(self.gevrey_constant) > 0:
            raise ValueError("gevrey_constant must be positive")

    @property
    def trunc_order(self):
        return len(self.coeffs) - 1

    def __call__(self, z):
        return mpmath.fdot(self.coeffs, _powers(to_mpc(z), self.trunc_order))

    def truncate(self, order):
        if order >= self.trunc_order:
            return self
        return GevreySeries(self.coeffs[: order + 1], self.precision)

    def derivative(self):
        if self.trunc_order == 0:
            return GevreySeries((mpc(0),), self.precision)
        return GevreySeries(tuple((n + 1) * c for n, c in enumerate(self.coeffs[1:])),
                            self.precision)

    def integral(self, constant=0):
        return GevreySeries((to_mpc(constant),)
                            + tuple(c / (n + 1) for n, c in enumerate(self.coeffs)),
                            self.precision)

    def valuation(self, tol=None):
        """Index of the first coefficient that is not numerically zero."""
        if tol is None:
            tol = mpf(2) ** (-self.precision // 2)
        scale = max(abs(c) for c in self.coeffs)
        if scale == 0:
            return None
        for n, c in enumerate(self.coeffs):
            if abs(c) > tol * scale:
                return n
        return None

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def isclose(self, other, rel=None):
        n = min(self.trunc_order, other.trunc_order)
        return all(close(self.coeffs[k], other.coeffs[k], rel=rel) for k in range(n + 1))

    def to_json(self):
        return {
            "precision": self.precision,
            "trunc_order": self.trunc_order,
            "coeffs": [cplx_to_pair(c, self.precision) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data):
        prec = int(data["precision"])
        with mp.workprec(prec):
            coeffs = tuple(pair_to_cplx(p) for p in data["coeffs"])
        if len(coeffs) != int(data["trunc_order"]) + 1:
            raise ValueError("trunc_order inconsistent with coefficient count")
        return cls(coeffs, prec)


def from_coeffs(values, precision=None):
    return GevreySeries(tuple(to_mpc(v) for v in values), precision)


def zero_series(order, precision=None):
    return GevreySeries((mpc(0),) * (order + 1), precision)


def monomial(coeff, degree, order, precision=None):
    if degree > order:
        return zero_series(order, precision)
    coeffs = [mpc(0)] * (order + 1)
    coeffs[degree] = to_mpc(coeff)
    return GevreySeries(tuple(coeffs), precision)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    n = min(a.trunc_order, b.trunc_order)
    return GevreySeries(tuple(a.coeffs[k] + b.coeffs[k] for k in range(n + 1)))


def sub(a, b):
    n = min(a.trunc_order, b.trunc_order)
    return GevreySeries(tuple(a.coeffs[k] - b.coeffs[k] for k in range(n + 1)))


def scale(a, factor):
    factor = to_mpc(factor)
    return GevreySeries(tuple(factor * c for c in a.coeffs), a.precision)


def _powers(z, n):
    """[1, z, ..., z^n], for values of a polynomial as one `mpmath.fdot`."""
    out = [mpc(1)]
    for _ in range(n):
        out.append(out[-1] * z)
    return out


def _cauchy(a, b, k):
    """sum_i a_i b_(k-i): coefficient k of the product of two coefficient lists.

    One `mpmath.fdot`, so every product is exact and the sum is rounded
    once.  Terms past the end of `a` are absent, `b` must hold b_0..b_k,
    and k = -1 gives the empty sum.
    """
    return mpmath.fdot(a[:k + 1], b[k::-1])


def mul(a, b):
    """Product truncated to the smaller order; each coefficient is one `_cauchy`."""
    n = min(a.trunc_order, b.trunc_order)
    return GevreySeries(tuple(_cauchy(a.coeffs, b.coeffs, k) for k in range(n + 1)))


def compose(a, b):
    """a(b(z)); requires b(0) = 0 so truncation is stable.

    Horner in b: acc_k = a_k + b * acc_(k+1), and acc_0 is the result.
    acc_k is multiplied by b^k, which has valuation k, so only its
    coefficients through order n - k are kept, and b_0 = 0 is skipped.
    Each step is a truncated product by `_cauchy`, n^3/6 products in all
    where full-order steps would need n^3/2.
    """
    if b.coeffs[0] != 0:
        raise ZeroLeadingCoefficient("compose requires inner constant term 0")
    n = min(a.trunc_order, b.trunc_order)
    b1 = b.coeffs[1:]
    acc = [a.coeffs[n]]
    for k in range(n - 1, -1, -1):
        acc = [a.coeffs[k]] + [_cauchy(b1, acc, i) for i in range(n - k)]
    return GevreySeries(tuple(acc))


def reciprocal(a):
    if a.coeffs[0] == 0:
        raise ZeroLeadingCoefficient("reciprocal requires a_0 != 0")
    a1 = a.coeffs[1:]
    inv0 = 1 / a.coeffs[0]
    out = [inv0]
    for k in range(a.trunc_order):
        out.append(-inv0 * _cauchy(a1, out, k))
    return GevreySeries(tuple(out))


def exp(a):
    """exp of a series; the constant term goes through mpmath.exp."""
    da = a.derivative().coeffs                        # j a_j at index j - 1
    out = [mpmath.exp(a.coeffs[0])]
    for k in range(1, a.trunc_order + 1):
        out.append(_cauchy(da, out, k - 1) / k)
    return GevreySeries(tuple(out))


def log(a):
    if a.coeffs[0] == 0:
        raise ZeroLeadingCoefficient("log requires a_0 != 0")
    a1 = a.coeffs[1:]
    out = [mpmath.log(a.coeffs[0])]
    dout = []                                         # j out_j at index j - 1
    for k in range(1, a.trunc_order + 1):
        out.append((a.coeffs[k] - _cauchy(dout, a1, k - 2) / k) / a.coeffs[0])
        dout.append(k * out[k])
    return GevreySeries(tuple(out))


def nth_root(a, n, branch=0):
    """n-th root of a series whose valuation is divisible by n.

    The root of the leading coefficient is the one with argument in
    (-pi/n, pi/n], rotated by exp(2*pi*i*branch/n) when a branch hint is
    given.  The result has valuation val(a)/n and truncation order
    trunc - val(a) + val(a)/n.
    """
    v = a.valuation()
    if v is None:
        raise ZeroLeadingCoefficient("nth_root of the zero series")
    if v % n != 0:
        raise ZeroLeadingCoefficient(f"valuation {v} not divisible by {n}")
    lead = a.coeffs[v]
    rest_order = a.trunc_order - v
    unit = GevreySeries(tuple(c / lead for c in a.coeffs[v:]))
    root_unit = exp(scale(log(unit), mpf(1) / n))
    # arg(lead) is principal, so arg(lead)/n lies in (-pi/n, pi/n]
    lead_root = abs(lead) ** (mpf(1) / n) * mpmath.exp(1j * mpmath.arg(lead) / n)
    if branch:
        lead_root *= mpmath.exp(2j * mp.pi * branch / n)
    shifted = [mpc(0)] * (v // n) + [lead_root * c for c in root_unit.coeffs]
    return GevreySeries(tuple(shifted[: rest_order + v // n + 1]))


def _newton_orders(n):
    """Ascending orders n_1 < ... < n of a Newton ladder, planned from the top.

    Each order is ceil(next/2), which one Newton step carries to `next`
    (a step from order k is good through 2k + 1), so no step runs past
    what the following one needs.
    """
    orders = []
    while n > 1:
        orders.append(n)
        n = (n + 1) // 2
    return orders[::-1]


def reversion(a):
    """Compositional inverse of a series with a_0 = 0, a_1 != 0.

    Newton iteration w <- w - (a(w) - u)/a'(w) with order doubling, so
    the cost is dominated by two compositions at the full order.
    """
    if a.coeffs[0] != 0:
        raise ZeroLeadingCoefficient("reversion requires a_0 = 0")
    if a.trunc_order < 1 or a.coeffs[1] == 0:
        raise ZeroLeadingCoefficient("reversion requires a_1 != 0")
    n = a.trunc_order
    da = a.derivative()
    w = [mpc(0), 1 / a.coeffs[1]]
    for order in _newton_orders(n):
        wt = GevreySeries(tuple(w) + (mpc(0),) * (order + 1 - len(w)))
        at = a.truncate(order)
        comp = compose(at, wt)
        err = list(comp.coeffs)
        if len(err) > 1:
            err[1] -= 1
        dat = GevreySeries((da.coeffs + (mpc(0),) * order)[: order + 1])
        dcomp = compose(dat, wt)
        corr = mul(GevreySeries(tuple(err)), reciprocal(dcomp))
        w = [wc - cc for wc, cc in zip(wt.coeffs, corr.coeffs)]
    return GevreySeries(tuple(w[: n + 1]))


# ---------------------------------------------------------------------------
# Gevrey-1 machinery
# ---------------------------------------------------------------------------

def estimate_gevrey_constant(s):
    """Minimal C with |a_n| <= C^(n+1) n! over stored coefficients.

    Computed as max_n (|a_n|/n!)^(1/(n+1)); the zero series gives 0.
    """
    best = mpf(0)
    fact = mpf(1)
    for n, c in enumerate(s.coeffs):
        if n > 0:
            fact *= n
        if c == 0:
            continue
        cand = (abs(c) / fact) ** (mpf(1) / (n + 1))
        if cand > best:
            best = cand
    return best


def formal_borel(s):
    """Divide coefficient n by n!; same truncation order."""
    out = []
    fact = mpf(1)
    for n, c in enumerate(s.coeffs):
        if n > 0:
            fact *= n
        out.append(c / fact)
    return GevreySeries(tuple(out), s.precision, None)


@dataclass
class AsymptoticReport:
    passed: bool
    constants: list            # C_N for N = 1..N_max
    gevrey_estimate: object    # from the series coefficients
    tolerance_factor: object
    failed_orders: list

    def worst(self):
        return max(self.constants) if self.constants else mpf(0)


def check_asymptotic(samples, s, n_max, tolerance_factor=2):
    """Gevrey-1 remainder test of sampled values against a series.

    `samples` is an iterable of (z, f(z)) pairs on a closed subsector.
    For each N <= n_max the constant
        C_N = sup_z (|z|^-N |f(z) - sum_{n<N} a_n z^n| / N!)^(1/(N+1))
    is computed; the test passes when every C_N is at most
    tolerance_factor * estimate_gevrey_constant(s).
    """
    samples = list(samples)
    if not samples:
        raise EmptyGrid("check_asymptotic needs at least one sample")
    if n_max > s.trunc_order:
        raise ValueError("n_max exceeds the stored truncation order")
    c_est = estimate_gevrey_constant(s)
    powers = [_powers(to_mpc(z), n_max) for z, _ in samples]
    constants = []
    failed = []
    fact = mpf(1)
    for big_n in range(1, n_max + 1):
        fact *= big_n
        worst = mpf(0)
        for (z, fz), zk in zip(samples, powers):
            partial = mpmath.fdot(s.coeffs[:big_n], zk)
            rem = abs(to_mpc(fz) - partial) / (abs(to_mpc(z)) ** big_n * fact)
            cand = rem ** (mpf(1) / (big_n + 1))
            if cand > worst:
                worst = cand
        constants.append(worst)
        if worst > tolerance_factor * c_est:
            failed.append(big_n)
    return AsymptoticReport(not failed, constants, c_est, tolerance_factor, failed)
