"""Steepest-flow thimbles, local model cycles, and pole boundary data.

A thimble of direction d at a zero of order m is a flow line of
Im(exp(-i d) f) = const leaving the zero along one of the m+1
distinguished rays of the local coordinate, traced with an embedded
Runge-Kutta pair (unit speed, projection step re-imposing the constant
imaginary part) until it is captured by a pole.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import mpmath
from mpmath import mp, mpf, mpc

from . import derham
from .derham import INF, LocalCoordinate, RationalForm
from .errors import NoCapture, SaddleEncounter
from .lattice import exp_less_on_arc, exp_less_at, LESS
from .scalar import legendre_nodes, to_mpc, wrap_angle


# ---------------------------------------------------------------------------
# local rays and discrete-Fourier cycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalRay:
    zero_index: int
    ray_index: int           # 0..m (m+1 rays)
    direction: object
    slope_forward: object    # (2 pi l + d)/(m+1), the t >= 0 half
    slope_backward: object   # (2 pi (l+1) + d)/(m+1), the t <= 0 half


def local_rays(m, d, zero_index=0):
    d = mpf(d)
    out = []
    for ell in range(m + 1):
        out.append(LocalRay(
            zero_index, ell, d,
            (2 * mp.pi * ell + d) / (m + 1),
            (2 * mp.pi * (ell + 1) + d) / (m + 1)))
    return out


def dft_weights(m):
    """(m+1) x (m+1) matrix w[k][l] = exp(-2 pi i (k+1) l/(m+1))/(m+1)."""
    size = m + 1
    return [[mpmath.exp(-2j * mp.pi * (k + 1) * l / size) / size
             for l in range(size)]
            for k in range(size)]


@dataclass(frozen=True)
class Cycle:
    """Complex combination of paths sharing one direction."""
    members: tuple            # (weight, path) pairs
    direction: object

    @classmethod
    def combine(cls, weights, paths, direction):
        return cls(tuple((to_mpc(w), p) for w, p in zip(weights, paths)), direction)


def dft_cycles(m, d, zero_index=0):
    """Local model cycles C_k = sum_l w[k][l] c_l, k = 0..m-1."""
    rays = local_rays(m, d, zero_index)
    weights = dft_weights(m)
    return [Cycle.combine(weights[k], rays, mpf(d)) for k in range(m)]


def local_normalizer(m, k, z, d=0):
    """Closed-form pairing of the k-th model cycle with u^k du.

    (m+1)^-1 (1 - exp(2 pi i (k+1)/(m+1))) ((m+1) z)^((k+1)/(m+1))
    Gamma((k+1)/(m+1)), with the fractional power branch following
    arg z continued from the direction d.
    """
    z = to_mpc(z)
    d = mpf(d)
    ratio = mpf(k + 1) / (m + 1)
    theta = d + mpmath.arg(z * mpmath.exp(-1j * d))
    w = (m + 1) * abs(z)
    power = w ** ratio * mpmath.exp(1j * ratio * theta)
    return (1 - mpmath.exp(2j * mp.pi * ratio)) * power * mpmath.gamma(ratio) / (m + 1)


def local_ray_integral(m, ell, kprime, z, d=0, tol=mpf("1e-24"), n_nodes=24):
    """Quadrature of exp(-u^(m+1)/((m+1) z)) u^k' du over one outgoing ray."""
    z, d = to_mpc(z), mpf(d)
    phi = (2 * mp.pi * ell + d) / (m + 1)
    rate = mpmath.cos(d - mpmath.arg(z)) / abs(z)
    if rate <= 0:
        raise ValueError("z outside the admissible half-plane")
    t_max = ((m + 1) * mpmath.log(1 / tol) / rate) ** (mpf(1) / (m + 1))
    phase = mpmath.exp(1j * (kprime + 1) * phi)
    expo = mpmath.exp(1j * d) / ((m + 1) * z)

    def integrand(t):
        return t ** kprime * mpmath.exp(-t ** (m + 1) * expo)

    total = mpc(0)
    n_panels = max(6, int(4 * float(t_max)))
    edges = [t_max * mpf(i) / n_panels for i in range(n_panels + 1)]
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2, (b - a) / 2
        acc = mpc(0)
        for x, w in legendre_nodes(n_nodes):
            acc += w * integrand(mid + half * x)
        total += acc * half
    return phase * total


def local_cycle_integral(cycle, m, kprime, z, tol=mpf("1e-24")):
    """Pairing of a local model cycle with u^k' du by quadrature.

    Each member path c_l contributes its outgoing ray l minus the
    outgoing ray l+1 (the incoming half traversed backwards).
    """
    d = cycle.direction
    total = mpc(0)
    for w, ray in cycle.members:
        ell = ray.ray_index
        plus = local_ray_integral(m, ell, kprime, z, d, tol)
        minus = local_ray_integral(m, (ell + 1) % (m + 1), kprime, z, d, tol)
        total += w * (plus - minus)
    return total


def boundary_set(pole, arc):
    """Directions on the pole circle receiving rapid-decay flow from the arc.

    For pole order n >= 2: the angles theta_k with
    Re(exp(-i((n-1) theta_k + theta))) < 0 for every theta in the arc,
    as a list of (lo, hi) intervals.  For a simple pole: all or nothing
    by the residue test Re(exp(-i theta) residue) < 0 on the arc.
    """
    lo, hi = mpf(arc[0]), mpf(arc[1])
    if pole.order == 1:
        if hi > lo:
            interior = (lo + mpf("1e-18"), hi - mpf("1e-18"))
            ok = exp_less_on_arc(pole.residue, 0, interior) if interior[1] > interior[0] \
                else exp_less_at(pole.residue, 0, lo) == LESS
        else:
            ok = exp_less_at(pole.residue, 0, lo) == LESS
        return [(mpf(0), 2 * mp.pi)] if ok else []
    n = pole.order
    if hi - lo >= mp.pi:
        return []
    out = []
    width = (mp.pi - (hi - lo)) / (n - 1)
    if width <= 0:
        return []
    for kk in range(n - 1):
        start = (mp.pi / 2 - lo + 2 * mp.pi * kk) / (n - 1)
        stop = (3 * mp.pi / 2 - hi + 2 * mp.pi * kk) / (n - 1)
        out.append((start, stop))
    return out


def in_boundary_set(pole, arc, theta_k):
    for lo, hi in boundary_set(pole, arc):
        delta = wrap_angle(theta_k - (lo + hi) / 2)
        if abs(delta) <= (hi - lo) / 2 + mpf("1e-12"):
            return True
    return False


# ---------------------------------------------------------------------------
# thimble tracing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceControls:
    seed_scale: object = mpf("1e-6")       # |f - c| at the seed / reference scale
    rk_tol: object = mpf("1e-14")          # local error target per step
    max_arc_length: object = mpf("1e5")
    capture_factor: object = mpf("0.1")    # trap radius / distance to nearest point
    saddle_tol: object = mpf("1e-7")       # approach tolerance at foreign zeros
    flow_reach: object = mpf(80)           # Re(e^{-id}(f-c)) traced before stopping
    chart_switch: object = None            # |x| beyond which the 1/x chart is used
    spiral_tol: object = mpf("1e-8")       # straight-vs-spiral test at simple poles
    max_steps: int = 200000


@dataclass(frozen=True)
class RayTerminal:
    pole_index: int
    pole_order: int
    regime: str                 # 'irregular', 'straight', or 'spiral'
    boundary_angle: object      # model-chart angle at the pole (irregular case)
    capture_point: object       # affine coordinate where the trap was entered
    f_capture: object
    in_boundary: Optional[bool] = None


# Cash-Karp embedded Runge-Kutta pair (orders 4 and 5)
_CK_A = [
    (),
    (mpf(1) / 5,),
    (mpf(3) / 40, mpf(9) / 40),
    (mpf(3) / 10, mpf(-9) / 10, mpf(6) / 5),
    (mpf(-11) / 54, mpf(5) / 2, mpf(-70) / 27, mpf(35) / 27),
    (mpf(1631) / 55296, mpf(175) / 512, mpf(575) / 13824,
     mpf(44275) / 110592, mpf(253) / 4096),
]
_CK_B5 = (mpf(37) / 378, mpf(0), mpf(250) / 621, mpf(125) / 594,
          mpf(0), mpf(512) / 1771)
_CK_B4 = (mpf(2825) / 27648, mpf(0), mpf(18575) / 48384, mpf(13525) / 55296,
          mpf(277) / 14336, mpf(1) / 4)


class ThimbleRay:
    """One outgoing flow ray from a zero, traced until pole capture.

    Samples are stored as (s, x, f) with s the arc length in the chart
    where the step was taken and x always the affine coordinate.  The
    running value f is the integral of the form from the zero, offset by
    the critical value, so Im(exp(-i d) f) is constant along the ray and
    Re(exp(-i d) f) is strictly increasing.  f advances by increments of
    the closed-form primitive (`derham.Primitive`, kept as `primitive`
    for the node tables built on the ray).
    """

    def __init__(self, one_form, crit, j, ell, d, local, controls):
        self.one_form = one_form
        self.crit = crit
        self.j = j
        self.ell = ell
        self.d = mpf(d)
        self.local = local
        self.controls = controls
        self.samples = []
        self.terminal = None
        self.quadrature = None      # z-independent node data, laid by stokes
        self._state = None          # (x_chart_value, f, chart, s)
        self._form_aff = one_form.form
        self._form_inf = one_form.form.at_infinity()
        self.primitive = derham.Primitive(one_form)
        self._unit = mpmath.exp(1j * self.d)
        self._setup_geometry()
        self._seed()
        self._run()

    # -- geometry helpers --

    def _setup_geometry(self):
        of = self.one_form
        finite = of.finite_special_points()
        self._finite_points = finite
        ctl = self.controls
        if ctl.chart_switch is not None:
            self._switch_radius = mpf(ctl.chart_switch)
        else:
            big = max([abs(p) for p in finite] + [mpf(1)])
            self._switch_radius = 4 * big + 4
        self._poles = list(of.poles)
        self._capture_radius = {}
        pts = finite + ([mpc(0)] if of.has_infinity() else [])
        for idx, p in enumerate(of.poles):
            if p.location == INF:
                others = [abs(1 / q) for q in finite if abs(q) > 0]
                base = min(others) if others else mpf(1)
                self._capture_radius[idx] = min(ctl.capture_factor * base,
                                                1 / (2 * self._switch_radius))
            else:
                others = [abs(p.location - q) for q in finite
                          if abs(p.location - q) > 0]
                base = min(others) if others else mpf(1)
                self._capture_radius[idx] = ctl.capture_factor * base

    def _form_value(self, chart, val):
        return (self._form_inf if chart == INF else self._form_aff)(val)

    def _affine(self, chart, val):
        if chart == INF:
            return 1 / val if val != 0 else mpc("inf")
        return val

    # -- seeding --

    def _seed(self):
        m = self.one_form.zeros[self.j].order
        scale = self._reference_scale()
        u_mag = ((m + 1) * self.controls.seed_scale * scale) ** (mpf(1) / (m + 1))
        # stay well inside the convergence disk of the inverse series
        conv = self._series_radius()
        u_mag = min(u_mag, conv / 4)
        phi = (2 * mp.pi * self.ell + self.d) / (m + 1)
        u = u_mag * mpmath.exp(1j * phi)
        self.u_seed = u
        chart = self.local.chart
        x_chart = self.local.point(u)
        f = self.crit.values[self.j] + u_mag ** (m + 1) * self._unit / (m + 1)
        self.psi0 = mpmath.im(mpmath.exp(-1j * self.d) * f)
        self._state = (x_chart, f, chart, mpf(0))
        self.samples.append((mpf(0), self._affine(chart, x_chart), f))

    def _reference_scale(self):
        from .lattice import critical_differences
        lat = self.crit.lattice
        reps = self.crit.representatives
        diffs = critical_differences(reps, lat, radius=mpf(100))
        if diffs:
            return abs(diffs[0])
        return mpf(1)

    def _series_radius(self):
        worst = mpf(0)
        for n in range(1, len(self.local.x_of_u.coeffs)):
            c = abs(self.local.x_of_u.coeffs[n])
            if c > 0:
                worst = max(worst, c ** (mpf(1) / n))
        return 1 / worst if worst > 0 else mpf(1)

    # -- flow field: unit-speed velocity in the working chart --

    def _velocity(self, chart, val):
        a = self._form_value(chart, val)
        v = self._unit / a
        return v / abs(v)

    def _project(self, chart, x, f, x_new):
        """Put an accepted step back on the flow line; f exact at the result.

        One Newton step along i e^{id}/a restores Im(e^{-id} f) = psi0 to
        second order in the step error, and f is the closed-form primitive
        at the projected point, so every sample carries f to working
        precision.
        """
        x_aff = self._affine(chart, x)
        f_new = f + self.primitive.increment(x_aff, self._affine(chart, x_new))
        drift = mpmath.im(mpmath.conj(self._unit) * f_new) - self.psi0
        x_new = x_new - drift * 1j * self._unit / self._form_value(chart, x_new)
        return x_new, f + self.primitive.increment(x_aff, self._affine(chart, x_new))

    # -- main loop --

    def _run(self):
        ctl = self.controls
        x, f, chart, s = self._state
        h = self._initial_step(chart, x)
        steps = 0
        own_zero = self.one_form.zeros[self.j]
        while True:
            steps += 1
            if steps > ctl.max_steps:
                raise NoCapture("step budget exhausted")
            if s > ctl.max_arc_length:
                raise NoCapture("arc length budget exhausted")
            x_new, err = self._ck_step(chart, x, h)
            tol = mpf(ctl.rk_tol) * max(abs(x), mpf(1))
            if err > tol and h > mpf("1e-30"):
                h *= mpf("0.5")
                continue
            # accept
            x_new, f_new = self._project(chart, x, f, x_new)
            s_new = s + h
            if err < tol / 32:
                h *= mpf(2)
            x, f, s = x_new, f_new, s_new
            x_aff = self._affine(chart, x)
            self.samples.append((s, x_aff, f))
            # chart management
            if chart != INF and abs(x) > self._switch_radius:
                chart = INF
                x = 1 / x
            elif chart == INF and abs(x) > 1 / self._switch_radius:
                chart = "affine"
                x = 1 / x
            # saddle check at foreign zeros (own zero excluded near the seed)
            for jz, zero in enumerate(self.one_form.zeros):
                if zero.location == INF:
                    if chart == INF and abs(x) < ctl.saddle_tol:
                        raise SaddleEncounter(f"approached zero {jz} at infinity")
                    continue
                if jz == self.j and s < 10 * abs(self.u_seed):
                    continue
                ref = max(abs(zero.location), mpf(1))
                if abs(x_aff - zero.location) < ctl.saddle_tol * ref:
                    raise SaddleEncounter(f"approached zero {jz}")
            # capture checks
            hit = self._check_capture(chart, x, f, s)
            if hit is not None:
                self._state = (x, f, chart, s)
                self.terminal = hit
                if hit.pole_order >= 2:
                    self._extend_irregular(ctl.flow_reach)
                    self._finish_irregular()
                else:
                    self._finish_simple()
                return
            self._state = (x, f, chart, s)
            h = min(h, self._step_cap(chart, x))

    def _initial_step(self, chart, x):
        return self._step_cap(chart, x) / 8

    def _step_cap(self, chart, x):
        x_aff = self._affine(chart, x)
        dists = []
        for q in self._finite_points:
            if chart == INF:
                if abs(q) > 0:
                    dists.append(abs(x - 1 / q))
            else:
                d_ = abs(x_aff - q)
                if d_ > 0:
                    dists.append(d_)
        if chart == INF:
            dists.append(abs(x) + mpf("1e-3"))
        if not dists:
            return mpf(1)
        return max(min(dists) / 5, mpf("1e-25"))

    def _ck_step(self, chart, x, h):
        k = []
        for stage in range(6):
            xs = x
            for coef, kk in zip(_CK_A[stage], k):
                xs = xs + h * coef * kk
            k.append(self._velocity(chart, xs))
        x5 = x
        x4 = x
        for b5, b4, kk in zip(_CK_B5, _CK_B4, k):
            x5 = x5 + h * b5 * kk
            x4 = x4 + h * b4 * kk
        return x5, abs(x5 - x4)

    def _check_capture(self, chart, x, f, s):
        ctl = self.controls
        for idx, pole in enumerate(self._poles):
            radius = self._capture_radius[idx]
            if pole.location == INF:
                if chart != INF or abs(x) > radius:
                    continue
                x_tilde = x
            else:
                x_aff = self._affine(chart, x)
                if abs(x_aff - pole.location) > radius:
                    continue
                x_tilde = x_aff - pole.location
            if pole.order == 1:
                # inbound iff the residue decays the exponential along d
                inbound = mpmath.re(mpmath.exp(-1j * self.d) * pole.residue) < 0
                if not inbound:
                    continue
                ratio = self._unit / pole.residue
                spiral = abs(mpmath.im(ratio)) > mpf(ctl.spiral_tol) * abs(ratio)
                return RayTerminal(idx, 1, "spiral" if spiral else "straight",
                                   mpmath.arg(x_tilde), self._affine(chart, x), f)
            return RayTerminal(idx, pole.order, "irregular",
                               mpmath.arg(x_tilde), self._affine(chart, x), f)
        return None

    # -- post-capture handling --

    def flow_progress(self, f):
        return mpmath.re(mpmath.conj(self._unit) * (f - self.crit.values[self.j]))

    def _extend_irregular(self, reach):
        """Continue inside the trap until Re(e^{-id}(f-c)) >= reach."""
        ctl = self.controls
        x, f, chart, s = self._state
        h = self._inner_step(chart, x)
        steps = 0
        while self.flow_progress(f) < reach:
            steps += 1
            if steps > ctl.max_steps:
                raise NoCapture("trap extension budget exhausted")
            x_new, err = self._ck_step(chart, x, h)
            tol = mpf(ctl.rk_tol) * max(abs(x), mpf("1e-6"))
            if err > tol and h > mpf("1e-40"):
                h *= mpf("0.5")
                continue
            x, f = self._project(chart, x, f, x_new)
            s += h
            self.samples.append((s, self._affine(chart, x), f))
            if err < tol / 32:
                h *= 2
            h = min(h, self._inner_step(chart, x))
        self._state = (x, f, chart, s)

    def ensure_flow_reach(self, reach):
        """Extend an irregular tail so the decaying exponent reaches `reach`."""
        if self.terminal is None or self.terminal.pole_order < 2:
            return
        if self.flow_progress(self._state[1]) < reach:
            self._extend_irregular(reach)
            self._finish_irregular()

    def _inner_step(self, chart, x):
        pole = self._poles[self.terminal.pole_index] if self.terminal else None
        if pole is None:
            return self._step_cap(chart, x)
        if pole.location == INF:
            dist = abs(x)
        else:
            dist = abs(self._affine(chart, x) - pole.location)
        return max(dist / 6, mpf("1e-30"))

    def _finish_irregular(self):
        """Model-chart boundary angle, refined through the primitive."""
        term = self.terminal
        pole = self._poles[term.pole_index]
        x, f, chart, s = self._state
        if pole.location == INF:
            x_tilde = x if chart == INF else 1 / x
            form_loc = self._form_inf
            center = mpc(0)
        else:
            x_tilde = self._affine(chart, x) - pole.location
            form_loc = self._form_aff
            center = to_mpc(pole.location)
        n = pole.order
        n_loc, series = derham._laurent_series(form_loc, center, order_hint=2)
        lead = series[0]
        # model coordinate w = beta * x~ brings the leading term to w^-n dw;
        # membership in the boundary set only depends on (n-1) theta mod 2 pi,
        # so the choice among the n-1 roots of beta is immaterial
        beta = lead ** (mpf(1) / (1 - n))
        w = beta * x_tilde
        theta = mpmath.arg(w)
        ok = in_boundary_set(pole, (self.d, self.d), theta)
        self.terminal = replace(term, boundary_angle=theta, in_boundary=ok)

    def _finish_simple(self):
        """Straighten the tail: final segment runs to the pole itself."""
        term = self.terminal
        pole = self._poles[term.pole_index]
        self.terminal = replace(
            term, in_boundary=mpmath.re(
                mpmath.exp(-1j * self.d) * pole.residue) < 0)

    # -- diagnostics --

    def im_deviation(self):
        worst = mpf(0)
        for _, _, f in self.samples:
            worst = max(worst, abs(mpmath.im(mpmath.exp(-1j * self.d) * f) - self.psi0))
        return worst

    def monotone_flow(self):
        prev = None
        for _, _, f in self.samples:
            cur = self.flow_progress(f)
            if prev is not None and cur < prev - mpf("1e-20"):
                return False
            prev = cur
        return True


@dataclass
class ThimblePath:
    """Full flow line through a zero: ray ell forward, ray ell+1 backward."""
    j: int
    ell: int
    direction: object
    forward: ThimbleRay
    backward: ThimbleRay

    @property
    def forward_terminal(self):
        return self.forward.terminal

    @property
    def backward_terminal(self):
        return self.backward.terminal

    def samples(self):
        """(t, x, f) with t < 0 on the backward ray."""
        back = [(-s, x, f) for s, x, f in self.backward.samples]
        back.reverse()
        return back + [(s, x, f) for s, x, f in self.forward.samples]

    def im_deviation(self):
        return max(self.forward.im_deviation(), self.backward.im_deviation())

    def to_csv(self):
        lines = ["t,x_re,x_im,f_re,f_im"]
        for t, x, f in self.samples():
            x, f = to_mpc(x), to_mpc(f)
            lines.append(",".join(mpmath.nstr(v, 17)
                                  for v in (t, x.real, x.imag, f.real, f.imag)))
        return "\n".join(lines) + "\n"

    def header(self):
        def term(t):
            return {
                "pole_index": t.pole_index,
                "pole_order": t.pole_order,
                "regime": t.regime,
                "boundary_angle": mpmath.nstr(mpf(t.boundary_angle), 20),
                "in_boundary": t.in_boundary,
            }
        return {
            "zero": self.j,
            "ray": self.ell,
            "direction": mpmath.nstr(mpf(self.direction), 20),
            "forward_terminal": term(self.forward_terminal),
            "backward_terminal": term(self.backward_terminal),
        }


_ray_cache = {}


def trace_ray(one_form, crit, j, ell, d, controls=None):
    """Trace the outgoing ray `ell` (0..m) at zero j along direction d."""
    controls = controls or TraceControls()
    m = one_form.zeros[j].order
    # the cached ray keeps one_form and crit alive, so their ids stay unique
    key = (id(one_form), id(crit), j, ell % (m + 1), mpmath.nstr(mpf(d), 22),
           controls, mp.prec)
    if key in _ray_cache:
        return _ray_cache[key]
    # memoized by value: one series per zero, shared by every ray
    local = derham.local_coordinate_series(one_form, j, max(m + 2, 16))
    ray = ThimbleRay(one_form, crit, j, ell % (m + 1), d, local, controls)
    _ray_cache[key] = ray
    return ray


def trace_thimble(one_form, crit, j, ell, d, controls=None, generic_check=None):
    """Flow line of Im(e^{-id} f) = const through zero j, ray pair (ell, ell+1).

    `generic_check` (a GenericityReport) may be supplied by the caller;
    tracing itself reports saddle encounters as SaddleEncounter, which is
    the numerical signature of a non-generic direction.
    """
    if generic_check is not None and not generic_check.generic:
        raise SaddleEncounter(f"direction is non-generic: {generic_check.witness}")
    m = one_form.zeros[j].order
    fwd = trace_ray(one_form, crit, j, ell, d, controls)
    bwd = trace_ray(one_form, crit, j, (ell + 1) % (m + 1), d, controls)
    return ThimblePath(j, ell, mpf(d), fwd, bwd)
