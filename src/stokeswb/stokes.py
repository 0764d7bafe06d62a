"""Exponential period integrals, sectorial matrices, and Stokes factors.

The contour integral of exp(-f/z) * omega along a traced ray is one sum
over one sequence of z-independent quadrature nodes kept on the ray, in
flow order: the chords along the sampled flow line, the first of which
starts at the zero, and, on a ray that ends in a simple pole, the
straightened tail into the pole.  f at the nodes comes from the ray's
closed-form primitive (`derham.Primitive`) alone, never from the formal
side's series, and each part keeps w * omega at its nodes per omega, so
one trace serves a whole z grid at one exp per node.

Every part is sized by one remainder budget: the 24-point
Gauss-Legendre remainder stays below 1e-6 tol relative to the
integrand.  A chord spans at most the largest power of two in f at which
the remainder for exp(-f/z) meets it (`_quantized_df`), and keeps the
poles of the form far enough that the Bernstein-ellipse remainder,
rho^-48 with the exponential's growth on the ellipse, meets it
(`_bernstein_rho`).  Zeros do not bound a chord, since the integrand is
analytic there, so the first chord runs out of the zero under the same
bounds as every other.  A pole-tail panel is the widest power of two in
its parameter that meets the budget at the rate the tail's terms turn
(`ray_integral`).  Nodes are laid, and omega evaluated on them, only as
far along the ray as a sum has read: up to where Re(f/z) passes the
decay cut-off of the z at hand, growing an irregular tail as they go.
A later z reads on from there, so a result does not depend on which z
ran before.

Sectorial matrices collect the normalized integrals over the
discrete-Fourier cycles; Stokes factors are least-squares fits of
matrix transition data over the exponential dictionary supplied by the
period lattice.  Tolerance defaults are strings, made mpf at call time,
so they carry the working precision of the call.
"""

import math
from dataclasses import dataclass
from itertools import chain

import mpmath
from mpmath import mp, mpf, mpc

from . import betti, derham, summation
from .betti import ThimblePath, local_normalizer
from .derham import INF, RationalForm
from .errors import FitResidualTooLarge, TailNotDecaying
from .gevrey import GevreySeries
from .lattice import ExpSum
from .scalar import legendre_nodes, to_mpc


# Gauss-Legendre nodes per flow-line chunk and per pole-tail panel
_CHORD_NODES = 24
# (n!)^4 / ((2n+1) ((2n)!)^3) at n = _CHORD_NODES, about 1.6e-90
_REMAINDER = (math.factorial(_CHORD_NODES) ** 4
              / ((2 * _CHORD_NODES + 1) * math.factorial(2 * _CHORD_NODES) ** 3))


# ---------------------------------------------------------------------------
# quadrature nodes along traced rays
# ---------------------------------------------------------------------------

class _Nodes:
    """One part of a ray's node sequence, laid lazily in flow order.

    A node is (point, f, w, chart): the point in the chart where omega
    is evaluated, the primitive f there, and w, the Gauss-Legendre
    weight times the path element in that chart, so the sum of
    w * omega(point) * exp(-f/z) over the nodes is the contour integral
    over the part.  `lay` appends the next nodes and returns False once
    the part is covered.
    """

    def __init__(self, ray):
        self.ray = ray
        self.nodes = []
        self._weighted = {}      # omega -> [w * omega(point)] over laid nodes

    def terms(self, omega):
        """(node, w * omega(point)) in flow order, laid as they are read."""
        vals = self._weighted.setdefault(omega, [])
        i = 0
        while i < len(self.nodes) or self.lay():
            if i == len(vals):
                new = self.nodes[i:]
                forms = {chart: omega.in_chart(chart) for chart in {n[3] for n in new}}
                vals.extend(w * forms[chart](point) for point, _, w, chart in new)
            yield self.nodes[i], vals[i]
            i += 1


def _chart_poles(ray, chart):
    """The form's poles in a chart: the finite ones, and in the 1/x chart
    their images 1/p together with v = 0."""
    finite = [to_mpc(p.location) for p in ray._poles if p.location != INF]
    if chart == INF:
        return [mpc(0)] + [1 / p for p in finite if p != 0]
    return finite


class _RayTable(_Nodes):
    """Flow-line chords of one traced ray at chord span df_max and
    Bernstein parameter rho.

    The chords run over the ray's samples with the zero (0, q, c) put in
    front as sample 0 (`sample`), so the first chord starts at q.  The
    nodes lie on the sampled polyline, in the 1/x chart where both ends
    of a chord's first sample interval lie beyond the tracer's switch
    radius.  A chord runs on over consecutive samples while three bounds
    hold at the next sample b, seen from the chord's first sample a: it
    spans at most df_max of the primitive; the poles of the form in the
    chart keep the remainder within budget (`_ellipse_resolved`); and b
    lies inside the largest pole-free disk around a.  The span and the
    poles bound the 24-point Gauss-Legendre remainder of exp(-f/z) omega
    on the chord to the budget rho^-48 <= 1e-6 tol: the span by the
    Taylor remainder of the exponential (`_quantized_df`), the poles of
    omega and the log terms of f through the Bernstein ellipse with foci
    a and b (`_bernstein_rho`).  Zeros do not bound a chord, since the
    integrand is analytic there, at q too.  The disk holds the samples
    the chord covers and no pole, so the chord integrates the same as
    the traced path (Cauchy).  Each bound reads only a and b, so a step
    costs O(poles).  A sample interval that spans more than df_max is
    cut into chunks of at most df_max.  f at each node is the ray's
    closed-form primitive, chained from node to node; `drift` is the
    largest gap between that chain, closed at the end of each chord, and
    the traced f there.

    `lay` lays the next chord of the one greedy sequence over the
    samples.  A chord that reaches the last sample of an irregular tail
    grows the ray (`ThimbleRay.grow`), so no chord is cut at a traced
    end, and the chords a sum reads do not depend on what ran before it.
    """

    def __init__(self, ray, df_max, rho):
        super().__init__(ray)
        self.df_max = mpf(df_max)
        self.chords = []         # (first sample, last sample) per chord
        self.drift = mpf(0)
        self._consumed = 1       # the first chord starts at sample 0, the zero
        self._zero = (mpf(0), to_mpc(ray.one_form.zeros[ray.j].location),
                      ray.crit.values[ray.j])
        self._poles = {chart: _chart_poles(ray, chart) for chart in ("affine", INF)}
        # a span of df_max meets the budget rho^-2n at |z| = df_max rho
        # _REMAINDER^(1/2n) (`_quantized_df`): f / that is the exponent's
        # change in units of |z|
        self._per_z = 1 / (float(self.df_max * rho)
                           * _REMAINDER ** (1 / (2 * _CHORD_NODES)))
        self._log_rho = math.log(rho)

    def sample(self, i):
        """(s, x, f) of sample i: the zero, then the ray's samples."""
        return self._zero if i == 0 else self.ray.samples[i - 1]

    def _ellipse_resolved(self, df, length, focal_sums):
        """Whether the poles leave the chord's remainder within rho^-2n,
        n = _CHORD_NODES.

        focal_sums holds |p - a| + |p - b| per pole p, so the Bernstein
        ellipse with foci a and b through the nearest pole has parameter
        R with (R + 1/R)/2 = c = min(focal_sums)/|b - a|.  By Trefethen's
        bound the remainder is about R^-2n times the largest integrand on
        that ellipse, on which exp(-f/z) grows by up to exp(s c/2), s the
        chord's span in units of |z|; so the chord holds while
        2n log(R/rho) >= s c/2.  A pole beyond the ellipse that best
        resolves the exponential alone, R* = 4n/s + sqrt((4n/s)^2 + 1),
        leaves the span bound to decide.
        """
        if not focal_sums:
            return True
        c = max(float(min(focal_sums) / length), 1.0)
        r_pole = c + math.sqrt(c * c - 1)
        s = float(df) * self._per_z
        n4 = 4 * _CHORD_NODES
        if s > 0 and r_pole >= n4 / s + math.sqrt((n4 / s) ** 2 + 1):
            return True
        return 2 * _CHORD_NODES * (math.log(r_pole) - self._log_rho) >= s * c / 2

    def lay(self):
        """Lay the next chord greedily; False once a finite ray is covered."""
        ray = self.ray
        sample = self.sample

        def has(i):
            # samples are read in order, so one grown sample reaches i
            return i <= len(ray.samples) or ray.grow()

        if not has(self._consumed):
            return False
        prim = ray.primitive
        switch = ray._switch_radius

        def in_inf(i):
            return abs(sample(i)[1]) > switch and abs(sample(i + 1)[1]) > switch

        start = self._consumed - 1
        _, x0, f0 = sample(start)
        use_inf = in_inf(start)
        chart = INF if use_inf else "affine"
        a_pt = 1 / x0 if use_inf else x0
        poles = [(p, abs(p - a_pt)) for p in self._poles[chart]]
        radius = min((dist for _, dist in poles), default=mpmath.inf)
        end = start + 1
        while has(end + 1) and in_inf(end) == use_inf:
            _, x_next, f_next = sample(end + 1)
            b_next = 1 / x_next if use_inf else x_next
            length = abs(b_next - a_pt)
            df = abs(f_next - f0)
            if (df > self.df_max or length >= radius or not self._ellipse_resolved(
                    df, length, [dist + abs(p - b_next) for p, dist in poles])):
                break
            end += 1
        self._consumed = end + 1
        self.chords.append((start, end))
        _, x1, f1 = sample(end)
        b_pt = 1 / x1 if use_inf else x1
        pieces = max(1, int(mpmath.ceil(abs(f1 - f0) / self.df_max)))
        f_run, prev, r_prev = f0, x0, prim.rational(x0)
        for p in range(pieces):
            pa = a_pt + (b_pt - a_pt) * mpf(p) / pieces
            pb = a_pt + (b_pt - a_pt) * mpf(p + 1) / pieces
            half = (pb - pa) / 2
            mid = (pa + pb) / 2
            for xg, wg in legendre_nodes(_CHORD_NODES):
                node = mid + half * xg
                x_here = 1 / node if use_inf else node
                r_here = prim.rational(x_here)
                f_run += r_here - r_prev + prim.log_increment(prev, x_here)
                prev, r_prev = x_here, r_here
                self.nodes.append((node, f_run, wg * half, chart))
        f_end = f_run + prim.rational(x1) - r_prev + prim.log_increment(prev, x1)
        self.drift = max(self.drift, abs(f_end - f1))
        return True


class _PoleTail(_Nodes):
    """The straightened segment from the capture point into a simple pole.

    In the pole's chart, centred on it, the segment is v = v0 exp(-tau),
    v0 the capture point: at a finite pole the pole's own log term of
    the primitive is exactly -residue * tau there, so f is exact at
    every node.  Each `lay` adds one 24-node panel of `width` in tau
    (`ray_integral` sizes it by the 1e-6 tol budget of
    `_quantized_df`); the tail has no end.
    """

    def __init__(self, ray, width):
        super().__init__(ray)
        self.width = mpf(width)
        term, prim = ray.terminal, ray.primitive
        self._chart, self._center = _pole_chart(ray)
        self._x_cap = to_mpc(term.capture_point)
        self._f_cap = to_mpc(term.f_capture) - prim.rational(self._x_cap)
        self._v0 = ray._affine(self._chart, self._x_cap) - self._center
        self._k = None if self._chart == INF else next(
            i for i, pole in enumerate(prim.poles) if pole[0] == self._center)

    def lay(self):
        prim = self.ray.primitive
        own = 0 if self._k is None else prim.poles[self._k][1]
        half = self.width / 2
        mid = (2 * (len(self.nodes) // _CHORD_NODES) + 1) * half
        for xg, wg in legendre_nodes(_CHORD_NODES):
            tau = mid + half * xg
            v = self._v0 * mpmath.exp(-tau)
            point = self._center + v
            x_here = self.ray._affine(self._chart, point)
            f = (self._f_cap + prim.rational(x_here) - own * tau
                 + prim.log_increment(self._x_cap, x_here, skip=self._k))
            self.nodes.append((point, f, -wg * half * v, self._chart))
        return True


def _pole_chart(ray):
    """(chart, centre) of the pole that captured the ray."""
    location = ray._poles[ray.terminal.pole_index].location
    return (INF, mpc(0)) if location == INF else ("affine", to_mpc(location))


class _RayQuadrature:
    """The node sequence of one traced ray, kept on the ray.

    Each chord span df_max and Bernstein parameter rho has its own
    flow-line table from the zero.  A simple-pole tail depends only on
    its panel width, so the spans share one tail per width.
    """

    def __init__(self, ray):
        self.ray = ray
        self.spans = {}          # (df_max, rho) -> table
        self.tails = {}          # panel width in tau -> pole tail

    @classmethod
    def of(cls, ray):
        if ray.quadrature is None:
            ray.quadrature = cls(ray)
        return ray.quadrature

    def parts(self, df_max, rho, width=None):
        """The chords of (df_max, rho), then on a simple-pole ray the tail
        of panel width `width`, in flow order."""
        key = (mpf(df_max), mpf(rho))
        if key not in self.spans:
            self.spans[key] = _RayTable(self.ray, *key)
        if width is None:
            return [self.spans[key]]
        width = mpf(width)
        if width not in self.tails:
            self.tails[width] = _PoleTail(self.ray, width)
        return [self.spans[key], self.tails[width]]


def _exp_sum(terms, z, stop_decay):
    """sum of c * exp(-f/z) over (node, c) pairs taken in flow order, and
    the first node past the cut-off (None if the nodes end before it).

    The running primitive grows monotonically along the ray, so once
    Re(f/z) exceeds `stop_decay` the remaining nodes are negligible
    and the loop ends early.
    """
    mz = -1 / to_mpc(z)
    total = mpc(0)
    past = None
    deep = 0
    for node, c in terms:
        e = node[1] * mz
        if -e.real > stop_decay:
            if past is None:
                past = node
            deep += 1
            if deep > 3:
                break
            continue
        total += c * mpmath.exp(e)
    return total, past


# ---------------------------------------------------------------------------
# the contour integral over one ray
# ---------------------------------------------------------------------------

def _quantized_df(z_abs, tol):
    """Chord span in f: the largest power of two resolved to tol at |z|.

    The n-point Gauss-Legendre remainder for exp(-f/z) over a span L in
    f, relative to the integrand, is (L/|z|)^(2n) (n!)^4 / ((2n+1)
    ((2n)!)^3); for the 24 nodes of a chunk that is about 1.6e-90
    (L/|z|)^48.  The span keeps it at most 1e-6 tol, the one remainder
    budget of every part: the Bernstein ellipse of a chord
    (`_bernstein_rho`) and the panels of a pole tail, whose width in tau
    is this span at |z| = 1/rate for the rate at which the tail's terms
    turn, are held to it too.  The margin is for `stokes_factor`, whose
    fits amplify the quadrature error of the entries.  At 24 nodes the
    span moves as the 48th root of the budget: on the grid of acceptance
    criterion 3 (|z| = 0.3, tol 1e-14) every margin from 1e-7 to 1e7
    gives span 8.  Span 16 there changes the entries by 2.3e-14 and the
    fitted |c1 + 1| from 1.8e-15 to 4.0e-9, while span 4 changes the
    entries by 6e-21 and leaves the fit at the same level.  Rounding
    down to a power of two lets the z of a grid, and nearby stand-alone
    z, share one table.
    """
    raw = mpf(z_abs) * (mpf("1e-6") * mpf(tol) / _REMAINDER) ** (
        mpf(1) / (2 * _CHORD_NODES))
    return mpf(2) ** int(mpmath.floor(mpmath.log(raw, 2)))


def _bernstein_rho(tol):
    """Chord ellipse: the smallest power of two rho with rho^-48 <= 1e-6 tol.

    The 24-point Gauss-Legendre remainder of an integrand analytic inside
    the Bernstein ellipse of parameter rho, with a pole or log branch
    point on it, is about rho^-48 times the integrand there, so a chord
    whose ellipse holds no pole, and on which the exponential stays
    resolved (`_RayTable._ellipse_resolved`), meets the budget of
    `_quantized_df`.  Rounding up to a power of two, as the span rounds
    down, leaves the remainder between 2^-48 and 1 times the budget and
    lets nearby tolerances share one table.  Unrounded, rho = 2.6 at
    acceptance criterion 3's tol 1e-14 (rounded: 4) changes its entries
    by 2e-18 and moves the fitted |c1 + 1| from 1.8e-15 to 1.9e-13.
    """
    raw = (mpf("1e-6") * mpf(tol)) ** (-mpf(1) / (2 * _CHORD_NODES))
    return mpf(2) ** int(mpmath.ceil(mpmath.log(raw, 2)))


def _cutoffs(ray, z, tol):
    """(tol_abs, stop_decay) of one ray at z.

    tol_abs is tol relative to the size exp(-c/z) sqrt|z| of the ray's
    contribution; past Re(f/z) = stop_decay a node adds less than
    exp(-15) tol_abs.
    """
    c = ray.crit.values[ray.j]
    tol_abs = mpf(tol) * abs(mpmath.exp(-c / z)) * abs(z) ** mpf("0.5")
    return tol_abs, mpmath.log(1 / tol_abs) + 15


def ray_integral(ray, omega, z, tol="1e-12", df_max=None):
    """Integral of exp(-f/z) omega from the zero along one outgoing ray.

    One sum over the ray's node sequence in flow order: the chords from
    the zero at span df_max (by default the largest span `_quantized_df`
    allows at this |z| and tol) and chord ellipse `_bernstein_rho(tol)`,
    and on a ray into a simple pole the straightened tail.  The tail's
    terms turn in tau at the exponential rate |res/z|, at omega's rate
    |n_om - 1|, and at rate 1 through the terms of f and omega analytic
    at the pole, so its panel width is the `_quantized_df` span at
    |z| = 1/(sum of the three).  Its reach is set by the sum alone: nodes are laid, and an
    irregular tail grown, up to where Re(f/z) passes the decay cut-off
    of `_cutoffs` (on a simple-pole tail one panel further), past which
    no node counts.  A simple-pole tail must decay at a rate above 0.05
    per unit of its parameter; on an irregular tail the analytic
    remainder bound at the first node past the cut-off must be
    below tol_abs.
    """
    z = to_mpc(z)
    rate = mpmath.cos(ray.d - mpmath.arg(z)) / abs(z)
    if rate <= 0:
        raise TailNotDecaying(f"z={mpmath.nstr(z, 3)} outside the half-plane of "
                              f"direction {mpmath.nstr(ray.d, 3)}")
    term = ray.terminal
    width = None
    if term.pole_order == 1:
        chart, center = _pole_chart(ray)
        # along the tail exp(-f/z) goes like exp(-tau decay) and omega like
        # exp((n_om - 1) tau), n_om its pole order in the pole's chart
        n_om, _ = derham._laurent_series(omega.in_chart(chart), center,
                                         order_hint=0)
        res_z = ray._poles[term.pole_index].residue / z
        decay = -mpmath.re(res_z)
        tail_rate = decay - n_om + 1
        if tail_rate <= mpf("0.05"):
            raise TailNotDecaying(f"simple-pole tail rate {mpmath.nstr(tail_rate, 3)} "
                                  f"at z={mpmath.nstr(z, 3)} (omega pole order {n_om})")
        width = _quantized_df(1 / (abs(res_z) + abs(n_om - 1) + 1), tol)
    tol_abs, stop_decay = _cutoffs(ray, z, tol)
    if term.pole_order == 1:
        if tail_rate < decay:
            # the terms fall at tail_rate, slower than Re(f/z) grows (decay):
            # move the cut-off out by that ratio
            stop_decay *= decay / tail_rate
        # the sum stops inside the tail panel where the cut-off falls, whose
        # partial Gauss sum errs by the integrand up to one panel, width *
        # decay in Re(f/z), before the cut-off: read on by that much
        stop_decay += width * decay
    if df_max is None:
        df_max = _quantized_df(abs(z), tol)
    parts = _RayQuadrature.of(ray).parts(df_max, _bernstein_rho(tol), width)
    total, past = _exp_sum(chain.from_iterable(p.terms(omega) for p in parts),
                           z, stop_decay)
    if term.pole_order == 1:
        return total
    # remainder past the cut-off: M * exp(-s * rate - Re(c/z)) / rate, with
    # M a safety bound for |omega/alpha| (a function: the same in each chart)
    point, f_past, _, chart = past
    m_tail = 4 * max(abs(omega.in_chart(chart)(point) / ray._form_value(chart, point)),
                     mpf("1e-30"))
    c = ray.crit.values[ray.j]
    exponent = ray.flow_progress(f_past) * rate + mpmath.re(c / z)
    bound = m_tail * mpmath.exp(-exponent) / rate
    if bound > tol_abs:
        raise TailNotDecaying(f"irregular tail bound {mpmath.nstr(bound, 3)} "
                              f"above {mpmath.nstr(tol_abs, 3)} at z={mpmath.nstr(z, 3)}")
    return total


def path_integral_exp(path, omega, z, tol="1e-12"):
    """Integral over a full thimble: forward ray minus backward ray."""
    return (ray_integral(path.forward, omega, z, tol)
            - ray_integral(path.backward, omega, z, tol))


def exp_integral(obj, omega, crit, z, tol="1e-12"):
    """Exponential period of omega over a thimble or cycle at z."""
    if isinstance(obj, ThimblePath):
        return path_integral_exp(obj, omega, z, tol)
    if isinstance(obj, betti.Cycle):
        total = mpc(0)
        for w, member in obj.members:
            total += w * path_integral_exp(member, omega, z, tol)
        return total
    raise TypeError("expected a ThimblePath or Cycle")


# ---------------------------------------------------------------------------
# sectorial matrices
# ---------------------------------------------------------------------------

@dataclass
class SectorialMatrix:
    """Sampled matrix of normalized thimble integrals in one direction.

    Rows are indexed by (zero, class) pairs, columns by the global form
    representatives.  asy holds the expected asymptotic series of each
    entry (the formal reduction with z -> -z).
    """
    direction: object
    z_grid: list
    row_index: list              # (j, k) pairs
    reps: list                   # column forms
    entries: dict                # (row, col) -> list of values over the grid
    asy: dict                    # (row, col) -> GevreySeries
    critical_values: list

    @property
    def dim(self):
        return len(self.row_index)

    def matrix_at(self, i):
        return [[self.entries[(r, c)][i] for c in range(len(self.reps))]
                for r in range(self.dim)]

    def to_json(self):
        return {
            "direction": mpmath.nstr(mpf(self.direction), 25),
            "z_grid": [[mpmath.nstr(to_mpc(z).real, 25),
                        mpmath.nstr(to_mpc(z).imag, 25)] for z in self.z_grid],
            "rows": self.row_index,
            "entries": {f"{r},{c}": [[mpmath.nstr(v.real, 25),
                                      mpmath.nstr(v.imag, 25)] for v in vals]
                        for (r, c), vals in self.entries.items()},
        }


def default_representatives(one_form):
    """Partial-fraction basis of global forms, one per matrix column.

    Uses dx/(x - p)^i at finite poles (orders up to n_k, skipping one
    form overall for the exact relation) and powers x^i dx toward an
    infinite pole; on the line these span the cohomology whose dimension
    is the total zero order.
    """
    target = sum(z.order for z in one_form.zeros)
    reps = []
    for pole in one_form.poles:
        if pole.location == INF:
            # x^i dx has pole order i + 2 at infinity: i <= n - 2
            for i in range(pole.order - 1):
                coeffs = [mpc(0)] * i + [mpc(1)]
                reps.append(RationalForm(tuple(coeffs), (mpc(1),)))
        else:
            p = to_mpc(pole.location)
            den = (mpc(1),)
            for i in range(1, pole.order + 1):
                den = tuple(derham.poly_mul(list(den), [-p, mpc(1)]))
                reps.append(RationalForm((mpc(1),), den))
    return reps[:target]


def sector_matrix(one_form, crit, d, z_grid, reps=None, asy_order=12,
                  controls=None, tol="1e-12"):
    """Assemble the per-direction matrix of normalized cycle integrals.

    Entry ((j,k), omega) is
        normalizer^-1 exp(c_j/z) * integral over the k-th cycle at zero j
    of exp(-f/z) omega, where the integral runs over the discrete-
    Fourier combination of traced thimbles.
    """
    d = mpf(d)
    for z in z_grid:
        if not abs(mpmath.arg(to_mpc(z) * mpmath.exp(-1j * d))) < mp.pi / 2:
            raise ValueError(f"grid point {z} outside the half-plane of {d}")
    if reps is None:
        reps = default_representatives(one_form)
    row_index = []
    for j, zero in enumerate(one_form.zeros):
        for k in range(zero.order):
            row_index.append((j, k))
    if len(reps) != len(row_index):
        raise ValueError("need as many representatives as matrix rows")
    entries = {}
    asy = {}
    df_max = _quantized_df(min(abs(to_mpc(z)) for z in z_grid), tol)
    for r, (j, k) in enumerate(row_index):
        m = one_form.zeros[j].order
        weights = betti.dft_weights(m)[k]
        # trace_ray and formal_comparison are memoized by value
        rays = [betti.trace_ray(one_form, crit, j, ell, d, controls)
                for ell in range(m + 1)]
        c_j = crit.values[j]
        for col, omega in enumerate(reps):
            asy[(r, col)] = _flip_z(derham.formal_comparison(
                omega, one_form, j, asy_order)[k])
            vals = []
            for z in z_grid:
                z = to_mpc(z)
                ray_vals = [ray_integral(ray, omega, z, tol, df_max)
                            for ray in rays]
                total = mpc(0)
                for ell in range(m + 1):
                    contrib = ray_vals[ell] - ray_vals[(ell + 1) % (m + 1)]
                    total += weights[ell] * contrib
                h = local_normalizer(m, k, z, d)
                vals.append(total * mpmath.exp(c_j / z) / h)
            entries[(r, col)] = vals
    return SectorialMatrix(d, [to_mpc(z) for z in z_grid], row_index, list(reps),
                           entries, asy, list(crit.values))


def _flip_z(series):
    return GevreySeries(tuple(c if n % 2 == 0 else -c
                              for n, c in enumerate(series.coeffs)),
                        series.precision)


# ---------------------------------------------------------------------------
# Stokes factors
# ---------------------------------------------------------------------------

@dataclass
class StokesFactor:
    direction_a: object
    direction_b: object
    entries: list                # matrix of ExpSum
    fit_residual: object
    overlap_grid: list           # the grid points the fit used
    dropped: list                # grid points left out of the fit

    def evaluate(self, z):
        return [[e.evaluate(z) for e in row] for row in self.entries]


def fit_dictionary(lat, basis_bound):
    """Lattice vectors of the fit: 0 and those with norm up to basis_bound."""
    gammas = [tuple([0] * lat.rank)]
    if lat.rank:
        gammas += list(lat.vectors_in_ball(basis_bound))
    return gammas


def _solve_least_squares(design, rhs):
    """Normal-equations solve at working precision (small systems)."""
    k = len(design[0])
    ata = mpmath.matrix(k, k)
    atb = mpmath.matrix(k, 1)
    for i in range(k):
        for j in range(k):
            ata[i, j] = sum(mpmath.conj(row[i]) * row[j] for row in design)
        atb[i] = sum(mpmath.conj(row[i]) * b for row, b in zip(design, rhs))
    sol = mpmath.lu_solve(ata, atb)
    return [sol[i] for i in range(k)]


def stokes_factor(xi_a, xi_b, lat, basis_bound=2, residual_tol="1e-6",
                  cond_cap="1e12"):
    """Fit the sector-to-sector transition over the exponential dictionary.

    The two sectorial matrices must share their z grid (the overlap
    region).  The sampled matrices are the duals of the sectorial lifts,
    so the transition between the lifts themselves is the transpose of
    B(z) A(z)^-1; that is the composition with finitely many dictionary
    terms (its dual inverse is an infinite decaying sum).  Each entry is
    fitted by linear least squares over exponentials
    exp(((c_j' - c_j) + mu(gamma))/z) with ||gamma|| up to the basis
    bound; the residual is the worst absolute mismatch over the grid.
    Grid points where A is singular or its 1-norm condition number
    exceeds cond_cap are left out of the fit and listed in `dropped`;
    the fit needs at least as many kept points as the dictionary has
    terms, and at least two.
    """
    residual_tol, cond_cap = mpf(residual_tol), mpf(cond_cap)
    grid = [to_mpc(z) for z in xi_a.z_grid]
    if len(grid) != len(xi_b.z_grid) or any(
            abs(a - to_mpc(b)) > mpf("1e-30") for a, b in zip(grid, xi_b.z_grid)):
        raise ValueError("sectorial matrices must share the overlap grid")
    dim = xi_a.dim
    n_cols = len(xi_a.reps)
    if dim != n_cols:
        raise ValueError("square matrices required for transition fitting")
    s_samples = []
    kept = []
    dropped = []
    for i, z in enumerate(grid):
        a = mpmath.matrix(xi_a.matrix_at(i))
        b = mpmath.matrix(xi_b.matrix_at(i))
        try:
            a_inv = a ** -1
        except ZeroDivisionError:
            dropped.append(z)
            continue
        cond = mpmath.mnorm(a, 1) * mpmath.mnorm(a_inv, 1)
        if cond > cond_cap:
            dropped.append(z)
            continue
        s_samples.append((b * a_inv).T)
        kept.append(z)
    # dictionary: gamma in the ball, exponent offsets from critical values
    gammas = fit_dictionary(lat, basis_bound)
    if len(kept) < max(2, len(gammas)):
        raise FitResidualTooLarge(
            f"{len(kept)} well-conditioned grid points for a fit dictionary "
            f"of {len(gammas)} terms")
    c_vals = xi_a.critical_values
    entries = []
    worst = mpf(0)
    for r in range(dim):
        row_out = []
        j_r = xi_a.row_index[r][0]
        for c in range(dim):
            j_c = xi_a.row_index[c][0]
            offset = to_mpc(c_vals[j_c]) - to_mpc(c_vals[j_r])
            design = []
            rhs = []
            for z, s in zip(kept, s_samples):
                design.append([mpmath.exp((offset + lat.period(g)) / z)
                               for g in gammas])
                rhs.append(s[r, c])
            coeffs = _solve_least_squares(design, rhs)
            terms = {g: co for g, co in zip(gammas, coeffs)}
            fitted = ExpSum(lat, terms, offset)
            for z, s in zip(kept, s_samples):
                worst = max(worst, abs(fitted.evaluate(z) - s[r, c]))
            row_out.append(fitted)
        entries.append(row_out)
    if worst > residual_tol:
        raise FitResidualTooLarge(
            f"fit residual {mpmath.nstr(worst, 6)} exceeds {residual_tol}")
    factor = StokesFactor(xi_a.direction, xi_b.direction, entries, worst, kept,
                          dropped)
    _assert_near_identity(factor, xi_a.row_index, c_vals, residual_tol)
    return factor


def _assert_near_identity(factor, row_index, c_vals, tol):
    """Constant dictionary term must be 1 on the diagonal, 0 off it."""
    dim = len(factor.entries)
    zero_gamma = None
    for r in range(dim):
        for c in range(dim):
            e = factor.entries[r][c]
            if zero_gamma is None:
                zero_gamma = tuple([0] * e.lattice.rank)
            const = e.terms.get(zero_gamma, mpc(0)) if e.offset == 0 else mpc(0)
            target = mpc(1) if r == c else mpc(0)
            if e.offset == 0 and abs(const - target) > 100 * tol:
                raise FitResidualTooLarge(
                    f"transition matrix is not asymptotic to the identity "
                    f"at entry ({r},{c}): constant term {const}")


# ---------------------------------------------------------------------------
# comparison of the two period pipelines
# ---------------------------------------------------------------------------

@dataclass
class ComparisonReport:
    direction: object
    max_rel_discrepancy: object
    per_entry: dict              # (row, col) -> worst relative discrepancy
    passed: bool
    tolerance: object


def comparison_check(one_form, crit, d, z_grid, reps=None, tol="1e-6",
                     asy_order=24, quad_tol="1e-12", controls=None):
    """Route the diagram both ways and report the worst discrepancy.

    Left-bottom: the raw thimble-cycle integral of exp(-f/z) omega
    (geometry plus quadrature).  Top-right: exp(-c_j/z) times the local
    normalizer times the Borel sum of the entry's asymptotic series
    (formal reduction, diagonal Pade continuation of its Borel transform,
    Laplace resummation).  The two pipelines share no code path, so
    agreement validates both.
    """
    d, tol, quad_tol = mpf(d), mpf(tol), mpf(quad_tol)
    if reps is None:
        reps = default_representatives(one_form)
    sm = sector_matrix(one_form, crit, d, z_grid, reps, asy_order=asy_order,
                       controls=controls, tol=quad_tol)
    from .lattice import critical_differences
    sing = critical_differences(crit.representatives, crit.lattice,
                                radius=mpf(40)) if crit.lattice.rank else []
    per_entry = {}
    worst = mpf(0)
    for (r, c), vals in sm.entries.items():
        series = sm.asy[(r, c)]
        summed = summation.borel_sum(series, d, sm.z_grid, tail_cut=quad_tol,
                                     known_singularities=sing)
        entry_worst = mpf(0)
        for (z, resummed), direct in zip(summed.points, vals):
            scale = max(abs(direct), abs(resummed), mpf("1e-30"))
            entry_worst = max(entry_worst, abs(direct - resummed) / scale)
        per_entry[(r, c)] = entry_worst
        worst = max(worst, entry_worst)
    return ComparisonReport(d, worst, per_entry, worst <= tol, tol)


# ---------------------------------------------------------------------------
# digamma cross-check for the one-zero example family
# ---------------------------------------------------------------------------

@dataclass
class DigammaReport:
    max_rel_error: object
    series_match: bool
    passed: bool


def digamma_connection_check(lam, d, z_grid, entry_fn, rel_tol="1e-5",
                             fd_step="1e-6", branch="primary"):
    """Finite-difference log-derivative of a sampled entry vs digamma.

    For the one-zero family with parameter lam, the sampled entry E
    satisfies z^2 (log E)'(z) = -lam (psi(lam/z) - log(lam/z)) - z/2
    on the sector family through arg(lam); on the opposite family
    ('secondary') the relation uses psi(1 - lam/z) with the log branch
    0 < arg(lam/z) < 2 pi and an extra -i pi.  The centered finite
    difference limits the attainable accuracy.
    """
    lam = to_mpc(lam)
    rel_tol, fd_step = mpf(rel_tol), mpf(fd_step)
    c = lam - lam * mpmath.log(lam)
    worst = mpf(0)
    for z in z_grid:
        z = to_mpc(z)
        h = fd_step * abs(z)
        lo, hi = entry_fn(z - h), entry_fn(z + h)
        fd = (mpmath.log(hi) - mpmath.log(lo)) / (2 * h)
        lhs = z ** 2 * fd + z / 2
        s = lam / z
        # the log branch follows arg z continued from the direction d: that
        # is the branch the sampled normalizer and quadrature carry
        theta = mpf(d) + mpmath.arg(z * mpmath.exp(-1j * mpf(d)))
        log_s = mpmath.log(lam) - mpmath.log(abs(z)) - 1j * theta
        if branch == "primary":
            rhs = -lam * (mpmath.digamma(s) - log_s)
        else:
            rhs = -lam * (mpmath.digamma(1 - s) - log_s - 1j * mp.pi)
        scale = max(abs(lhs), abs(rhs), mpf("1e-20"))
        worst = max(worst, abs(lhs - rhs) / scale)
    # asymptotic consistency through z^3: the bracket expansion is
    # -z/2 - z^2/(12 lam) + 0 z^3 (Bernoulli numbers 1/6, -1/30, ...)
    series_ok = True
    b2_coeff = -1 / (12 * lam)
    z_test = mpf("0.05")
    s = lam / z_test
    bracket = lam * (mpmath.digamma(s) - mpmath.log(s))
    model = -z_test / 2 + b2_coeff * z_test ** 2
    if abs(bracket - model) > mpf("1e-4") * abs(model):
        series_ok = False
    return DigammaReport(worst, series_ok, worst <= rel_tol and series_ok)
