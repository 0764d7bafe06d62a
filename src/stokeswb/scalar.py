"""Arbitrary-precision complex scalars and shared numerical helpers.

All numbers in the workbench are mpmath values.  Operations run in the
ambient mpmath context; entry points that start a computation wrap
themselves in ``mp.workprec(prec)``.  The default working precision is
256 bits and can be overridden with the ``STOKES_WB_PRECISION``
environment variable (in bits, minimum 64).
"""

import os

from mpmath import mp, mpf, mpc
import mpmath

from .errors import QuadratureNotConverged

DEFAULT_PRECISION = 256
MIN_PRECISION = 64
# panels of adaptive_gauss halve at most this many times
MAX_DEPTH = 40


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


def close(a, b, rel=None, abs_floor="1e-30"):
    """Relative comparison, absolute below `abs_floor` magnitude.

    Factorials and Gamma values span a huge dynamic range, so comparisons
    are relative unless both values are tiny.
    """
    a, b = mpc(a), mpc(b)
    if rel is None:
        rel = mpf(2) ** (-mp.prec + 16)
    scale = max(abs(a), abs(b))
    if scale <= mpf(abs_floor):
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


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

_gl_cache = {}


def legendre_nodes(n, prec=None):
    """Nodes and weights of n-point Gauss-Legendre on [-1, 1]."""
    if prec is None:
        prec = mp.prec
    key = (n, prec)
    cached = _gl_cache.get(key)
    if cached is not None:
        return cached
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
    _gl_cache[key] = tuple(nodes)
    return _gl_cache[key]


def gauss_segment(f, a, b, n=32):
    """n-point Gauss-Legendre of f over the straight segment [a, b] in C."""
    a, b = to_mpc(a), to_mpc(b)
    mid = (a + b) / 2
    half = (b - a) / 2
    total = mpc(0)
    for x, w in legendre_nodes(n):
        total += w * f(mid + half * x)
    return total * half


def adaptive_gauss(f, a, b, tol, n=32, depth=0, whole=None):
    """Adaptive panel Gauss-Legendre over [a, b] (straight segment).

    A panel is split when the whole-panel estimate and the sum of the two
    half-panel estimates disagree by more than 0.1 * tol; a panel that
    still disagrees at depth MAX_DEPTH raises QuadratureNotConverged.
    Each half is passed down as its child's `whole`, so no panel is
    summed twice.
    """
    if whole is None:
        whole = gauss_segment(f, a, b, n)
    mid = (to_mpc(a) + to_mpc(b)) / 2
    left = gauss_segment(f, a, mid, n)
    right = gauss_segment(f, mid, b, n)
    if abs(whole - (left + right)) <= mpf(tol) / 10:
        return left + right
    if depth >= MAX_DEPTH:
        raise QuadratureNotConverged(
            f"adaptive Gauss-Legendre not converged at depth {MAX_DEPTH} "
            f"near {mpmath.nstr(mid, 15)}")
    return (adaptive_gauss(f, a, mid, tol / 2, n, depth + 1, left)
            + adaptive_gauss(f, mid, b, tol / 2, n, depth + 1, right))
