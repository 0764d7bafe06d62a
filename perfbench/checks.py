"""Independent references and the checks the workloads apply.

Every reference here is computed with mpmath from a closed form or a
defining property, never with stokeswb code and never from a stored copy
of earlier output.  Each check records a relative error and a tolerance;
an operation fails when any of its checks exceeds its tolerance.
"""

import mpmath
from mpmath import mp, mpf, mpc


def rel_err(got, want):
    want = mpc(want)
    scale = abs(want) if want != 0 else mpf(1)
    return abs(mpc(got) - want) / scale


# ---------------------------------------------------------------------------
# closed forms for the Gamma family -(1 - x)/x dx, critical value 1
# ---------------------------------------------------------------------------

def thimble_ref(z):
    """Integral of exp(-f/z) dx/x over the d = 0 thimble: z^(1/z) Gamma(1/z)."""
    z = mpc(z)
    return z ** (1 / z) * mpmath.gamma(1 / z)


def borel_ref(z):
    """Borel sum of the dual Stirling series: exp(c/z) z^(1/z) Gamma(1/z)/sqrt(2 pi z)."""
    z = mpc(z)
    return mpmath.exp(1 / z) * thimble_ref(z) / mpmath.sqrt(2 * mp.pi * z)


def stokes_jump_ref(z, sign):
    """Ratio of the two sectorial entries across the ray sign * pi/2."""
    return 1 - mpmath.exp(-sign * 2j * mp.pi / mpc(z))


def stirling_formal_ref(order):
    """Coefficients of exp(-sum_n B_2n z^(2n-1) / (2n (2n-1))) through z^order."""
    b = [mpc(0)] * (order + 1)
    for n in range(1, order // 2 + 2):
        if 2 * n - 1 <= order:
            b[2 * n - 1] = -mpmath.bernoulli(2 * n) / (2 * n * (2 * n - 1))
    # exp of a series with zero constant term: n e_n = sum_k k b_k e_(n-k)
    e = [mpc(1)] + [mpc(0)] * order
    for n in range(1, order + 1):
        e[n] = mpmath.fsum(k * b[k] * e[n - k] for k in range(1, n + 1)) / n
    return e


# ---------------------------------------------------------------------------
# properties of a rational form P/Q dx, from its input coefficients
# ---------------------------------------------------------------------------

def horner(p, x):
    acc = mpc(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def backward_error(p, root):
    """|p(root)| relative to sum |p_i| |root|^i."""
    scale = abs(horner([abs(c) for c in p], abs(root)))
    return abs(horner(p, root)) / scale


def segment_quad(p, q, a, b, prec=128):
    """Integral of P/Q dx along the segment [a, b], by mpmath.quad.

    128 bits (38 digits) resolve the 1e-30 tolerances of the checks at a
    fraction of the cost of tanh-sinh at the program's 256 bits.
    """
    a, b = mpc(a), mpc(b)
    with mp.workprec(prec):
        return mpmath.quad(lambda x: horner(p, x) / horner(q, x), [a, b])


def degree_identity(one_form, deg_p, deg_q):
    """Exact integer checks: zeros - poles = -2, finite orders = degrees.

    Returns the number of violated identities (0 when all hold).
    """
    finite_zeros = sum(z.order for z in one_form.zeros if z.location != "infinity")
    finite_poles = sum(p.order for p in one_form.poles if p.location != "infinity")
    bad = 0
    bad += one_form.zero_order_sum() - one_form.pole_order_sum() != -2
    bad += finite_zeros != deg_p
    bad += finite_poles != deg_q
    return bad


def residue_sum(one_form):
    """|sum of all residues, infinity included| relative to sum |res|."""
    total = mpc(0)
    scale = mpf(0)
    for pole in one_form.poles:
        total += pole.residue
        scale += abs(pole.residue)
    return abs(total) / max(scale, mpf(1))


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------

class Operations:
    """Attempted and failed operations of one round, with their checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.worst_digits = None
        self._current_ok = True

    def run(self, label, fn, *args):
        """Attempt one operation; exceptions and failed checks fail it."""
        self.attempted += 1
        self._current_ok = True
        try:
            out = fn(*args)
        except Exception as exc:  # an operation that raises has failed
            self._current_ok = False
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}"[:300])
            out = None
        if not self._current_ok:
            self.failed += 1
        return out

    def check(self, label, err, tol):
        """Relative-error check; feeds the run's correct-digits figure."""
        err = mpf(err)
        ok = err <= tol
        if not ok:
            self._current_ok = False
            self.failures.append(f"{label}: error {mpmath.nstr(err, 3)} > {tol}")
        digits = float(-mpmath.log10(max(err, mpf(2) ** -mp.prec)))
        if self.worst_digits is None or digits < self.worst_digits:
            self.worst_digits = digits
        return ok

    def check_exact(self, label, violations):
        ok = violations == 0
        if not ok:
            self._current_ok = False
            self.failures.append(f"{label}: {violations} exact identities violated")
        return ok
