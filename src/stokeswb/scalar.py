"""Arbitrary-precision complex scalars and shared numerical helpers.

All numbers in the workbench are mpmath values.  Operations run in the
ambient mpmath context; entry points that start a computation wrap
themselves in ``mp.workprec(prec)``.  The default working precision is
256 bits and can be overridden with the ``STOKES_WB_PRECISION``
environment variable (in bits, minimum 64).
"""

import functools
import inspect
import os

from mpmath import mp, mpf, mpc
import mpmath

from .errors import QuadratureNotConverged

DEFAULT_PRECISION = 256
MIN_PRECISION = 64
# panels of adaptive_gauss halve at most this many times
MAX_DEPTH = 40
# Gauss-Legendre nodes per panel of gauss_segment and adaptive_gauss
GAUSS_NODES = 32
# magnitude below which `close` compares absolutely, made mpf at call time
_ABS_FLOOR = "1e-30"


def default_precision():
    """Working precision in bits, honoring STOKES_WB_PRECISION."""
    raw = os.environ.get("STOKES_WB_PRECISION")
    if raw is None:
        return DEFAULT_PRECISION
    prec = int(raw)
    if prec < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION} bits, got {prec}")
    return prec


def to_mpc(value):
    if isinstance(value, mpc):
        return value
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return mpc(mpf(str(value[0])) if isinstance(value[0], str) else value[0],
                   mpf(str(value[1])) if isinstance(value[1], str) else value[1])
    return mpc(value)


def close(a, b, rel=None):
    """Relative comparison, absolute below `_ABS_FLOOR` magnitude.

    Factorials and Gamma values span a huge dynamic range, so comparisons
    are relative unless both values are tiny.
    """
    a, b = mpc(a), mpc(b)
    if rel is None:
        rel = mpf(2) ** (-mp.prec + 16)
    scale = max(abs(a), abs(b))
    if scale <= mpf(_ABS_FLOOR):
        return True
    return abs(a - b) <= rel * scale


def num_to_str(x, prec=None):
    """Decimal string with enough digits for a bit-exact round trip."""
    if prec is None:
        prec = mp.prec
    dps = int(prec * 0.30103) + 3
    return mpmath.nstr(mpf(x), dps, strip_zeros=True)


def str_to_num(s):
    return mpf(s)


def cplx_to_pair(z, prec=None):
    z = mpc(z)
    return [num_to_str(z.real, prec), num_to_str(z.imag, prec)]


def pair_to_cplx(pair):
    return mpc(str_to_num(pair[0]), str_to_num(pair[1]))


def wrap_angle(theta):
    """Reduce an angle to (-pi, pi]."""
    theta = mpf(theta)
    twopi = 2 * mp.pi
    theta = theta - twopi * mpmath.floor((theta + mp.pi) / twopi)
    if theta <= -mp.pi:
        theta += twopi
    return theta


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


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

@_value_memo
def legendre_nodes(n):
    """Nodes and weights of n-point Gauss-Legendre on [-1, 1] at working precision."""
    prec = mp.prec
    with mp.workprec(prec + 16):
        nodes = []
        for i in range(n):
            # Chebyshev-like initial guess, then Newton on P_n.
            x = mpmath.cos(mp.pi * (i + mpf(3) / 4) / (n + mpf(1) / 2))
            for _ in range(60):
                p0, p1 = mpf(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < mpf(2) ** (-prec - 8):
                    break
            p0, p1 = mpf(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            w = 2 / ((1 - x * x) * dp * dp)
            nodes.append((x, w))
        nodes.sort(key=lambda t: t[0])
    return tuple(nodes)


def gauss_segment(f, a, b):
    """GAUSS_NODES-point Gauss-Legendre of f over the straight segment [a, b] in C."""
    a, b = to_mpc(a), to_mpc(b)
    mid = (a + b) / 2
    half = (b - a) / 2
    total = mpc(0)
    for x, w in legendre_nodes(GAUSS_NODES):
        total += w * f(mid + half * x)
    return total * half


def adaptive_gauss(f, a, b, tol, depth=0, whole=None):
    """Adaptive panel Gauss-Legendre over [a, b] (straight segment).

    A panel is split when the whole-panel estimate and the sum of the two
    half-panel estimates disagree by more than 0.1 * tol; a panel that
    still disagrees at depth MAX_DEPTH raises QuadratureNotConverged.
    Each half is passed down as its child's `whole`, so no panel is
    summed twice.
    """
    if whole is None:
        whole = gauss_segment(f, a, b)
    mid = (to_mpc(a) + to_mpc(b)) / 2
    left = gauss_segment(f, a, mid)
    right = gauss_segment(f, mid, b)
    if abs(whole - (left + right)) <= mpf(tol) / 10:
        return left + right
    if depth >= MAX_DEPTH:
        raise QuadratureNotConverged(
            f"adaptive Gauss-Legendre not converged at depth {MAX_DEPTH} "
            f"near {mpmath.nstr(mid, 15)}")
    return (adaptive_gauss(f, a, mid, tol / 2, depth + 1, left)
            + adaptive_gauss(f, mid, b, tol / 2, depth + 1, right))
