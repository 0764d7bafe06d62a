"""Steepest-flow thimbles, local model cycles, and pole boundary data.

A thimble of direction d at a zero of order m is a flow line of
Im(exp(-i d) f) = const leaving the zero along one of the m+1
distinguished rays of the local coordinate, traced in the flow parameter
t = Re(exp(-i d)(f - c)) until it is captured by a pole: each sample is
a step along the flow put back on the flow line by Newton in machine
floats (numerical steepest descent, Huybrechs-Vandewalle 2006).  It is
placed at working precision with f the previous f plus one closed-form
increment, so f is exact at every sample.  Down to the seed next to the
zero, x and f come from the closed-form primitive alone.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import mpmath
from mpmath import mp, mpf, mpc

from . import derham
from .derham import INF
from .errors import NoCapture, RootFindingFailed, SaddleEncounter
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


def local_ray_integral(m, ell, kprime, z, d=0, tol="1e-24"):
    """Quadrature of exp(-u^(m+1)/((m+1) z)) u^k' du over one outgoing ray."""
    z, d = to_mpc(z), mpf(d)
    phi = (2 * mp.pi * ell + d) / (m + 1)
    rate = mpmath.cos(d - mpmath.arg(z)) / abs(z)
    if rate <= 0:
        raise ValueError("z outside the admissible half-plane")
    t_max = ((m + 1) * mpmath.log(1 / mpf(tol)) / rate) ** (mpf(1) / (m + 1))
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
        for x, w in legendre_nodes(24):
            acc += w * integrand(mid + half * x)
        total += acc * half
    return phase * total


def local_cycle_integral(cycle, m, kprime, z, tol="1e-24"):
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
    rk_tol: object = mpf("1e-14")          # stops a sample's Newton corrector
    max_arc_length: object = mpf("1e5")    # arc length of the first trace
    # Re(e^{-id}(f-c)) where the first trace of an irregular tail ends;
    # sums grow the tail on demand, so no integral depends on it
    flow_reach: object = mpf(80)


_SEED_SCALE = "1e-6"            # |f - c| at the seed / reference scale
_CAPTURE_FACTOR = mpf("0.1")    # trap radius / distance to nearest point
_SADDLE_TOL = 1e-7              # approach tolerance at foreign zeros
_SPIRAL_TOL = "1e-8"            # straight-vs-spiral test at simple poles
_MAX_STEPS = 200000             # steps tried on a ray, growth included
_SEED_NEWTON_STEPS = 40         # Newton steps placing the seed
_CORRECTOR_STEPS = 8            # Newton steps placing a sample at step h


@dataclass(frozen=True)
class RayTerminal:
    pole_index: int
    pole_order: int
    regime: str                 # 'irregular', 'straight', or 'spiral'
    boundary_angle: object      # model-chart angle at the pole (irregular case)
    capture_point: object       # affine coordinate where the trap was entered
    f_capture: object
    in_boundary: Optional[bool] = None


# 8-point Gauss-Legendre rule on [-1, 1] in floats: (node, weight) pairs
_GAUSS = [(sign * t, w) for t, w in (
    (0.1834346424956498, 0.362683783378362),
    (0.525532409916329, 0.31370664587788727),
    (0.7966664774136267, 0.22238103445337448),
    (0.9602898564975363, 0.10122853629037626)) for sign in (-1, 1)]


class ThimbleRay:
    """One outgoing flow ray from a zero, traced until pole capture.

    Samples are stored as (s, x, f) with s the arc length in the chart
    where the step was taken and x always the affine coordinate.  The
    running value f is the integral of the form from the zero, offset by
    the critical value, so Im(exp(-i d) f) is constant along the ray and
    Re(exp(-i d) f) is strictly increasing.  f advances by one increment
    of the closed-form primitive per sample (`derham.Primitive`, kept as
    `primitive` for the node tables built on the ray), which also places
    the seed, so f is exact at every sample.  The steps double up to
    `_step_cap` and Newton puts each end back on the flow line (`_step`),
    so the samples do not depend on `rk_tol`.

    An irregular tail is one fixed sequence: `grow` appends the next
    sample with the step carried over, so the samples do not depend on
    how many calls produced them.  The terminal and `n_traced` are fixed
    at the end of the first trace, which stops at `flow_reach`.
    """

    def __init__(self, one_form, crit, j, ell, d, controls):
        self.one_form = one_form
        self.crit = crit
        self.j = j
        self.ell = ell
        self.d = mpf(d)
        self.controls = controls
        self.samples = []
        self.n_traced = None
        self.terminal = None
        self.quadrature = None      # node sequence of the sums, laid by stokes
        self._state = None          # (x_chart_value, f, chart, s)
        self._h = None              # next step of an irregular tail
        self._steps = 0             # steps tried, growth included
        self._form_aff = one_form.form
        self._form_inf = one_form.form.at_infinity()
        self.primitive = derham.Primitive(one_form)
        self._unit = mpmath.exp(1j * self.d)
        self._phase = {}            # chart -> (K, log|C|) of `_step`
        self._setup_geometry()
        self._seed()
        self._run()

    # -- geometry helpers --

    def _setup_geometry(self):
        of = self.one_form
        finite = [(to_mpc(z.location), z.order) for z in of.zeros if z.location != INF]
        finite += [(to_mpc(p.location), -p.order) for p in of.poles if p.location != INF]
        at_inf = -2 - sum(n for _, n in finite)     # the order at infinity
        # |x| beyond which the 1/x chart is used
        big = max([abs(p) for p, _ in finite] + [mpf(1)])
        self._switch_radius = float(4 * big + 4)
        # the frame R of the float steps in each chart: the seed's direction.
        # Over it, the chart's zeros (n > 0) and poles (n < 0), where
        # alpha = C prod (x - s)^n; all but v = 0 bound a step (`_step_cap`)
        m = of.zeros[self.j].order
        frame = mpmath.exp(1j * (2 * mp.pi * self.ell + self.d) / (m + 1))
        self._frame = {"affine": frame, INF: mpmath.conj(frame)}
        self._chart_points = {
            "affine": [(p * mpmath.conj(frame), n) for p, n in finite],
            INF: ([(frame / p, n) for p, n in finite if p != 0]
                  + [(mpc(0), at_inf)] * (at_inf != 0))}
        self._poles = list(of.poles)

        def spacing(point):
            # to the nearest other finite special point (1/x chart at infinity)
            if point == INF:
                return min((abs(1 / p) for p, _ in finite if p != 0), default=mpf(1))
            return min((abs(point - p) for p, _ in finite if p != point), default=mpf(1))

        self._saddle_radius = [_SADDLE_TOL * float(spacing(z.location)) for z in of.zeros]
        self._capture_radius = {}
        for idx, p in enumerate(of.poles):
            radius = _CAPTURE_FACTOR * spacing(p.location)
            if p.location == INF:
                radius = min(radius, 1 / (2 * self._switch_radius))
            self._capture_radius[idx] = float(radius)

    def _form_value(self, chart, val):
        return (self._form_inf if chart == INF else self._form_aff)(val)

    def _affine(self, chart, val):
        if chart == INF:
            return 1 / val if val != 0 else mpc("inf")
        return val

    # -- seeding --

    def _seed(self):
        """The first sample: x where f = c + |u|^(m+1) e^{id}/(m+1), u on ray
        ell of the local coordinate, by Newton on the primitive from
        q + u / a_m^(1/(m+1)) (a_m the form's leading Taylor coefficient
        at the zero q, principal root as in the series)."""
        m = self.one_form.zeros[self.j].order
        q = to_mpc(self.one_form.zeros[self.j].location)
        root = derham._laurent_series(self._form_aff, q, order_hint=m)[1][m] \
            ** (mpf(1) / (m + 1))
        scale = self._reference_scale()
        u_mag = ((m + 1) * mpf(_SEED_SCALE) * scale) ** (mpf(1) / (m + 1))
        # the primitive's increments from q hold within the step cap
        cap = self._step_cap("affine", q)
        u_mag = min(u_mag, cap * abs(root))
        self.u_seed = u_mag * self._frame["affine"]
        self._seed_zone = 10 * u_mag   # no saddle check at the own zero
        step = u_mag ** (m + 1) * self._unit / (m + 1)
        # quadratic: a step below half the digits leaves x at full precision
        tol, x = mpf(2) ** (-mp.prec // 2), q + self.u_seed / root
        for _ in range(_SEED_NEWTON_STEPS):
            dx = (self.primitive.increment(q, x) - step) / self._form_aff(x)
            x -= dx
            if abs(dx) <= tol * abs(x - q):
                break
        if not (abs(dx) <= tol * abs(x - q) and abs(x - q) <= 2 * cap):
            raise RootFindingFailed(f"no seed on ray {self.ell} at zero {self.j}")
        f = self.crit.values[self.j] + step
        self.psi0 = mpmath.im(mpmath.exp(-1j * self.d) * f)
        self._state = (x, f, "affine", mpf(0))
        self._rational = self.primitive.rational(x)
        self.samples.append((mpf(0), x, f))

    def _reference_scale(self):
        from .lattice import critical_differences
        lat = self.crit.lattice
        reps = self.crit.representatives
        diffs = critical_differences(reps, lat, radius=mpf(100))
        if diffs:
            return abs(diffs[0])
        return mpf(1)

    # -- main loop --

    def _step(self, h):
        """Append one sample from the current state; the next h.

        Newton in floats, from h along the unit velocity e^{id}|alpha|/alpha,
        finds the chord from x with e^{-id} int alpha = h |alpha(x)| - i drift
        (Gauss rule; drift the exact Im(e^{-id} f) - psi0 at x): t grows by
        h |alpha(x)| and the sample is back on the flow line.  h halves until
        a correction is at most rk_tol of the chord; the next h is 2h.  The
        solve runs on the offset delta from x in the frame R of the seed's
        direction (rotated rays stay exact rotations).  With alpha =
        C prod (x - s)^n over the chart's zeros and poles and w = (x - s)/R,
        e^{id}/alpha/R has the phase K prod (conj(w)/|w|)^n, and alpha at
        delta is alpha(x) prod (1 + delta/w)^n: no overflow, and relative
        accuracy next to a close zero or pole.
        """
        x, f, chart, s = self._state
        frame, points = self._frame[chart], self._chart_points[chart]
        y = x * mpmath.conj(frame)
        if chart not in self._phase:
            c = self._form_value(chart, x) / mpmath.fprod((y - p) ** n for p, n in points)
            self._phase[chart] = (complex(self._unit * mpmath.conj(c * frame) / abs(c)),
                                  float(mpmath.log(abs(c))))
        v_x, log_x = self._phase[chart]
        factors = [(complex(y - p), n) for p, n in points]
        for w, n in factors:
            v_x *= (w.conjugate() / abs(w)) ** n
            log_x += n * math.log(abs(w))

        def weight(delta):
            """e^{-id} alpha R / |alpha(x)| at offset delta."""
            out = v_x.conjugate()
            for w, n in factors:
                out *= (1 + delta / w) ** n
            return out

        drift = float(self._unit.real * f.imag - self._unit.imag * f.real - self.psi0)
        tol = float(self.controls.rk_tol)

        def corrected(h):
            """The chord's end for step h, or None where Newton fails."""
            target, end = h - 1j * drift * math.exp(-log_x), h * v_x
            for _ in range(_CORRECTOR_STEPS):
                half = end / 2
                miss = half * sum(w * weight(half + half * t) for t, w in _GAUSS) - target
                correction = miss / weight(end)
                end -= correction
                if abs(correction) <= tol * abs(end):
                    return end
            return None

        while True:
            self._steps += 1
            if self._steps > _MAX_STEPS:
                raise NoCapture("step budget exhausted")
            end = corrected(h)
            if end is not None:
                break
            h *= 0.5
        x = x + frame * mpc(end)
        x_aff = self._affine(chart, x)
        prim, r_prev = self.primitive, self._rational
        self._rational = prim.rational(x_aff)     # at the last sample
        f = f + (self._rational - r_prev + prim.log_increment(self.samples[-1][1], x_aff))
        s += h
        self.samples.append((s, x_aff, f))
        self._state = (x, f, chart, s)
        return 2 * h

    def _run(self):
        ctl = self.controls
        x, _, chart, _ = self._state
        h = self._step_cap(chart, x) / 8
        while True:
            if self._state[3] > ctl.max_arc_length:
                raise NoCapture("arc length budget exhausted")
            h = self._step(h)
            x, f, chart, s = self._state
            x_aff = self.samples[-1][1]
            # chart management
            if chart != INF and abs(complex(x)) > self._switch_radius:
                chart = INF
                x = 1 / x
            elif chart == INF and abs(complex(x)) > 1 / self._switch_radius:
                chart = "affine"
                x = 1 / x
            self._state = (x, f, chart, s)
            # saddle check at foreign zeros (own zero excluded near the seed)
            for jz, zero in enumerate(self.one_form.zeros):
                if zero.location == INF:
                    if chart == INF and abs(complex(x)) < self._saddle_radius[jz]:
                        raise SaddleEncounter(f"approached zero {jz} at infinity")
                    continue
                if jz == self.j and s < self._seed_zone:
                    continue
                if abs(complex(x_aff - zero.location)) < self._saddle_radius[jz]:
                    raise SaddleEncounter(f"approached zero {jz}")
            # capture checks
            hit = self._check_capture(chart, x, x_aff, f)
            if hit is not None:
                self.terminal = hit
                if hit.pole_order >= 2:
                    self._h = self._inner_step(chart, x)
                    while self.flow_progress(self._state[1]) < ctl.flow_reach:
                        self.grow()
                    self._finish_irregular()
                self.n_traced = len(self.samples)
                return
            h = min(h, self._step_cap(chart, x))

    def _step_cap(self, chart, x):
        """A fifth of the distance from x to the nearest finite special point
        of the chart, and in the 1/x chart to v = 0 plus 1e-3."""
        y = x * mpmath.conj(self._frame[chart])
        dists = [abs(complex(y - p)) for p, _ in self._chart_points[chart]
                 if chart != INF or p != 0]
        if chart == INF:
            dists.append(abs(complex(y)) + 1e-3)
        dists = [dist for dist in dists if dist > 0]
        if not dists:
            return 1.0
        return max(min(dists) / 5, 1e-25)

    def _check_capture(self, chart, x, x_aff, f):
        for idx, pole in enumerate(self._poles):
            radius = self._capture_radius[idx]
            if pole.location == INF:
                if chart != INF or abs(complex(x)) > radius:
                    continue
                x_tilde = x
            else:
                x_tilde = x_aff - pole.location
                if abs(complex(x_tilde)) > radius:
                    continue
            if pole.order == 1:
                # inbound iff the residue decays the exponential along d
                inbound = mpmath.re(mpmath.exp(-1j * self.d) * pole.residue) < 0
                if not inbound:
                    continue
                ratio = self._unit / pole.residue
                spiral = abs(mpmath.im(ratio)) > mpf(_SPIRAL_TOL) * abs(ratio)
                return RayTerminal(idx, 1, "spiral" if spiral else "straight",
                                   mpmath.arg(x_tilde), x_aff, f, in_boundary=True)
            return RayTerminal(idx, pole.order, "irregular",
                               mpmath.arg(x_tilde), x_aff, f)
        return None

    # -- post-capture handling --

    def flow_progress(self, f):
        return mpmath.re(mpmath.conj(self._unit) * (f - self.crit.values[self.j]))

    def grow(self):
        """Append the next sample of an irregular tail; False on other rays."""
        if self.terminal is None or self.terminal.pole_order < 2:
            return False
        h = self._step(self._h)
        x, _, chart, _ = self._state
        self._h = min(h, self._inner_step(chart, x))
        return True

    def _inner_step(self, chart, x):
        pole = self._poles[self.terminal.pole_index]
        if pole.location == INF:
            dist = abs(x)
        else:
            dist = abs(self._affine(chart, x) - pole.location)
        return max(float(dist) / 6, 1e-30)

    def _finish_irregular(self):
        """Model-chart boundary angle, refined through the primitive."""
        term = self.terminal
        pole = self._poles[term.pole_index]
        x, _, chart, _ = self._state
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
        """(t, x, f) of the first traces (not what sums grew), t < 0 backward."""
        bwd, fwd = self.backward, self.forward
        back = [(-s, x, f) for s, x, f in bwd.samples[:bwd.n_traced]]
        back.reverse()
        return back + fwd.samples[:fwd.n_traced]

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


def trace_ray(one_form, crit, j, ell, d, controls=None):
    """Trace the outgoing ray `ell` (0..m) at zero j along direction d.

    Memoized by value: equal inputs share one ray.
    """
    m = one_form.zeros[j].order
    return _traced_ray(one_form, crit, j, ell % (m + 1), mpf(d),
                       controls or TraceControls())


@derham._value_memo
def _traced_ray(one_form, crit, j, ell, d, controls):
    return ThimbleRay(one_form, crit, j, ell, d, controls)


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
