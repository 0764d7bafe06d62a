"""Exponential period integrals, sectorial matrices, and Stokes factors.

The contour integral of exp(-f/z) * omega over a traced thimble is
evaluated from z-independent quadrature nodes (position, primitive,
weight) laid once per ray: along the sampled flow line, along the
straightened tail into a simple pole, and across the local-coordinate
gap at the zero.  f at the nodes comes from the ray's closed-form
primitive (`derham.Primitive`), and the values of omega are kept per
node, so one trace serves a whole z grid at one exp per node.  Sectorial
matrices collect the normalized integrals over the discrete-Fourier
cycles; Stokes factors are least-squares fits of matrix transition data
over the exponential dictionary supplied by the period lattice.
"""

from dataclasses import dataclass, field

import mpmath
from mpmath import mp, mpf, mpc

from . import betti, derham, gevrey, summation
from .betti import ThimblePath, TraceControls, local_normalizer
from .derham import INF, RationalForm
from .errors import FitResidualTooLarge, TailNotDecaying
from .gevrey import GevreySeries
from .lattice import ExpSum, Lattice
from .scalar import legendre_nodes, to_mpc


# ---------------------------------------------------------------------------
# quadrature node tables along traced rays
# ---------------------------------------------------------------------------

class _RayTable:
    """z-independent data of the contour integral along one traced ray.

    Nodes (x, f, w, in_infinity_chart) lie on the sampled polyline: w
    includes the Gauss-Legendre weight and the complex chord element,
    so sum w * omega(x) * exp(-f/z) is the contour integral over the
    sampled part of the ray.  Chunks are cut to a fixed span of the
    primitive so the exponential stays resolved down to df_max ~ |z|.
    f at each node is the ray's closed-form primitive, chained from node
    to node; `drift` is the largest gap between that chain, closed at
    the end of a sample interval, and the traced f there.

    Per omega the table keeps the weighted values w * omega(x) of the
    polyline nodes, of the straightened tail into a simple pole, and of
    the local-coordinate gap from the zero to the seed point, each
    computed once per node.  A z then costs one exp per node.
    """

    def __init__(self, ray, df_max, n_nodes=10):
        self.ray = ray
        self.df_max = mpf(df_max)
        self.n_nodes = n_nodes
        self.nodes = []          # (x, f, w, in_infinity_chart)
        self.drift = mpf(0)
        self._consumed = 1       # ray.samples[0] is the seed
        self._weighted = {}      # omega -> [w * omega(x)] over nodes
        self.tail_nodes = []     # (x, f, w) along the straightened pole segment
        self.tail_tau = mpf(0)
        self._tail_weighted = {}
        self._seed_gap = {}      # omega -> ([f], [w * omega * x'(u)])
        self._ingest()

    # walk newly appended samples and lay quadrature nodes
    def _ingest(self):
        samples = self.ray.samples
        prim = self.ray.primitive
        switch = self.ray._switch_radius
        while self._consumed < len(samples):
            s0, x0, f0 = samples[self._consumed - 1]
            s1, x1, f1 = samples[self._consumed]
            self._consumed += 1
            pieces = max(1, int(mpmath.ceil(abs(f1 - f0) / self.df_max)))
            use_inf = abs(x0) > switch and abs(x1) > switch
            a_pt, b_pt = (1 / x0, 1 / x1) if use_inf else (x0, x1)
            f_run, prev, r_prev = f0, x0, prim.rational(x0)
            for p in range(pieces):
                pa = a_pt + (b_pt - a_pt) * mpf(p) / pieces
                pb = a_pt + (b_pt - a_pt) * mpf(p + 1) / pieces
                half = (pb - pa) / 2
                mid = (pa + pb) / 2
                for xg, wg in legendre_nodes(self.n_nodes):
                    node = mid + half * xg
                    x_here = 1 / node if use_inf else node
                    r_here = prim.rational(x_here)
                    f_run += r_here - r_prev + prim.log_increment(prev, x_here)
                    prev, r_prev = x_here, r_here
                    self.nodes.append((x_here, f_run, wg * half, use_inf))
            f_end = f_run + prim.rational(x1) - r_prev + prim.log_increment(prev, x1)
            self.drift = max(self.drift, abs(f_end - f1))

    def weighted_values(self, omega):
        """w * omega(x) at every node, each node evaluated once."""
        vals = self._weighted.setdefault(omega, [])
        if len(vals) < len(self.nodes):
            form_inf = omega.at_infinity()
            for x, f, w, use_inf in self.nodes[len(vals):]:
                vals.append(w * (form_inf(1 / x) if use_inf else omega(x)))
        return vals

    def integral(self, omega, z, stop_decay=None):
        """sum over nodes of w * omega * exp(-f/z), in the right chart."""
        return _exp_sum((f for _, f, _, _ in self.nodes),
                        self.weighted_values(omega), z, stop_decay)

    # -- straightened tail into a simple pole, log-parametrized --

    def ensure_tail(self, tau_max, panels_per_unit=2, n_nodes=10):
        term = self.ray.terminal
        if term is None or term.pole_order != 1:
            return
        prim = self.ray.primitive
        p = to_mpc(self.ray._poles[term.pole_index].location)
        k = next(i for i, pole in enumerate(prim.poles) if pole[0] == p)
        residue = prim.poles[k][1]
        x_cap = to_mpc(term.capture_point)
        x0 = x_cap - p
        f_cap = to_mpc(term.f_capture) - prim.rational(x_cap)
        while self.tail_tau < tau_max:
            a = self.tail_tau
            b = a + 1 / mpf(panels_per_unit)
            mid, half = (a + b) / 2, (b - a) / 2
            for xg, wg in legendre_nodes(n_nodes):
                tau = mid + half * xg
                dx = x0 * mpmath.exp(-tau)
                x_here = p + dx
                # along x = p + x0 exp(-tau) the pole's own log term is
                # exactly -residue * tau
                f = (f_cap + prim.rational(x_here) - residue * tau
                     + prim.log_increment(x_cap, x_here, skip=k))
                self.tail_nodes.append((x_here, f, -wg * half * dx))
            self.tail_tau = b

    def tail_integral(self, omega, z, stop_decay=None):
        vals = self._tail_weighted.setdefault(omega, [])
        for x, _, w in self.tail_nodes[len(vals):]:
            vals.append(w * omega(x))
        return _exp_sum((f for _, f, _ in self.tail_nodes), vals, z, stop_decay)

    # -- from the zero to the seed point, in the local coordinate --

    def seed_gap(self, omega, n_panels=3, n_nodes=16):
        """([f], [weight * omega(x(u)) x'(u)]) over the gap to the seed."""
        out = self._seed_gap.get(omega)
        if out is None:
            ray = self.ray
            local = ray.local
            m = ray.one_form.zeros[ray.j].order
            c = ray.crit.values[ray.j]
            omega_chart = omega.in_chart(local.chart)
            u_end = ray.u_seed
            out = self._seed_gap[omega] = ([], [])
            for p in range(n_panels):
                a = u_end * mpf(p) / n_panels
                b = u_end * mpf(p + 1) / n_panels
                mid, half = (a + b) / 2, (b - a) / 2
                for xg, wg in legendre_nodes(n_nodes):
                    u = mid + half * xg
                    out[0].append(c + u ** (m + 1) / (m + 1))
                    out[1].append(wg * half * omega_chart(local.point(u))
                                  * local.dpoint(u))
        return out


def _exp_sum(fs, cs, z, stop_decay=None):
    """sum of c * exp(-f/z) over nodes taken in flow order.

    The running primitive grows monotonically along the ray, so once
    Re(f/z) exceeds `stop_decay` the remaining nodes are negligible
    and the loop ends early.
    """
    mz = -1 / to_mpc(z)
    total = mpc(0)
    deep = 0
    for f, c in zip(fs, cs):
        e = f * mz
        if stop_decay is not None and -e.real > stop_decay:
            deep += 1
            if deep > 3:
                break
            continue
        total += c * mpmath.exp(e)
    return total


_table_cache = {}


def _ray_table(ray, df_max, n_nodes=12):
    key = (id(ray), mpmath.nstr(mpf(df_max), 8), n_nodes)
    table = _table_cache.get(key)
    if table is None:
        table = _RayTable(ray, df_max, n_nodes)
        _table_cache[key] = table
    else:
        table._ingest()
    return table


# ---------------------------------------------------------------------------
# the three-part contour integral over one ray
# ---------------------------------------------------------------------------

def _simple_pole_tail(ray, table, omega, z, tol_abs, stop_decay=None):
    """Tail along the straightened segment into a simple pole.

    Parametrized by x = p + x0 * exp(-tau); the primitive increment per
    unit tau tends to -residue, so the integrand decays at rate
    -Re(residue/z) minus the pole order of omega at p (if any).  The
    nodes are z-independent and cached on the ray table.
    """
    term = ray.terminal
    pole = ray._poles[term.pole_index]
    z = to_mpc(z)
    if pole.location == INF:
        raise AssertionError("simple-pole tail at infinity is handled in-chart")
    p = to_mpc(pole.location)
    x0 = to_mpc(term.capture_point) - p
    # pole order of omega at p decides the growth of the non-exponential part
    n_om, _ = derham._laurent_series(omega, p, order_hint=1)
    rate = -mpmath.re(pole.residue / z) - n_om + 1
    if rate <= mpf("0.05"):
        raise TailNotDecaying(
            f"simple-pole tail rate {rate} at z={z} (omega pole order {n_om})")
    g0 = abs(omega(p + x0)) * abs(x0)
    tau_max = (mpmath.log(max(g0, mpf("1e-30")) / tol_abs) + 5) / rate
    tau_max = max(tau_max, mpf(4))
    table.ensure_tail(tau_max)
    return table.tail_integral(omega, z, stop_decay)


def _quantized_df(z_abs, cap=None):
    """Power-of-two node resolution so z grids share one table.

    Per-z defaults are capped at 1/16 so stand-alone evaluations across
    moderate |z| all hit the same table; grid-wide callers pass no cap.
    """
    raw = mpf(z_abs) * mpf("1.5")
    out = mpf(2) ** int(mpmath.floor(mpmath.log(raw, 2)))
    if cap is not None:
        out = min(out, mpf(cap))
    return out


def ray_integral(ray, omega, z, tol=mpf("1e-12"), df_max=None):
    """Integral of exp(-f/z) omega from the zero along one outgoing ray.

    Splits into the local-coordinate gap, the traced polyline, and the
    pole tail.  The polyline part re-uses a z-independent node table;
    irregular tails are traced deep enough that the analytic remainder
    bound falls below tol * |partial|.
    """
    z = to_mpc(z)
    d = ray.d
    rate = mpmath.cos(d - mpmath.arg(z)) / abs(z)
    if rate <= 0:
        raise TailNotDecaying(f"z={z} outside the half-plane of direction {d}")
    term = ray.terminal
    c = ray.crit.values[ray.j]
    scale = abs(mpmath.exp(-c / z)) * abs(z) ** mpf("0.5")
    tol_abs = mpf(tol) * scale
    if term.pole_order >= 2:
        # reach s with M * exp(-s * rate) <= tol_abs
        for _ in range(4):
            x_end, f_end = ray.samples[-1][1], ray.samples[-1][2]
            m_tail = _tail_magnitude(ray, omega, x_end)
            s_end = ray.flow_progress(f_end)
            bound = m_tail * mpmath.exp(-s_end * rate - mpmath.re(c / z)) / rate
            if bound <= tol_abs:
                break
            needed = (mpmath.log(max(m_tail, mpf("1e-30")) / (tol_abs * rate))
                      - mpmath.re(c / z)) / rate
            ray.ensure_flow_reach(needed * mpf("1.1") + 2)
        else:
            raise TailNotDecaying("irregular tail bound did not close")
    if df_max is None:
        df_max = _quantized_df(abs(z), cap=mpf(1) / 16)
    table = _ray_table(ray, df_max)
    stop_decay = mpmath.log(1 / tol_abs) + 15
    total = _exp_sum(*table.seed_gap(omega), z) + table.integral(omega, z, stop_decay)
    if term.pole_order == 1:
        total += _simple_pole_tail(ray, table, omega, z, tol_abs, stop_decay)
    return total


def _tail_magnitude(ray, omega, x_end):
    """Safety bound for |omega/alpha| on the tail beyond x_end."""
    of = ray.one_form
    term = ray.terminal
    pole = of.poles[term.pole_index]
    if pole.location == INF:
        v = 1 / x_end
        val = abs(omega.at_infinity()(v) / of.form.at_infinity()(v))
    else:
        val = abs(omega(x_end) / of.form(x_end))
    return 4 * max(val, mpf("1e-30"))


def path_integral_exp(path, omega, z, tol=mpf("1e-12")):
    """Integral over a full thimble: forward ray minus backward ray."""
    return (ray_integral(path.forward, omega, z, tol)
            - ray_integral(path.backward, omega, z, tol))


def exp_integral(obj, omega, crit, z, tol=mpf("1e-12")):
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
        import json
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
                  controls=None, tol=mpf("1e-12")):
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
    weights_by_m = {}
    series_cache = {}
    rays_cache = {}
    df_max = _quantized_df(min(abs(to_mpc(z)) for z in z_grid))
    for r, (j, k) in enumerate(row_index):
        m = one_form.zeros[j].order
        if m not in weights_by_m:
            weights_by_m[m] = betti.dft_weights(m)
        if j not in rays_cache:
            rays_cache[j] = [betti.trace_ray(one_form, crit, j, ell, d, controls)
                             for ell in range(m + 1)]
        rays = rays_cache[j]
        c_j = crit.values[j]
        for col, omega in enumerate(reps):
            if (j, col) not in series_cache:
                series_cache[(j, col)] = derham.formal_comparison(
                    omega, one_form, j, asy_order)
            asy[(r, col)] = _flip_z(series_cache[(j, col)][k])
            vals = []
            for z in z_grid:
                z = to_mpc(z)
                ray_vals = [ray_integral(ray, omega, z, tol, df_max)
                            for ray in rays]
                total = mpc(0)
                for ell in range(m + 1):
                    contrib = ray_vals[ell] - ray_vals[(ell + 1) % (m + 1)]
                    total += weights_by_m[m][k][ell] * contrib
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
    overlap_grid: list

    def evaluate(self, z):
        return [[e.evaluate(z) for e in row] for row in self.entries]


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


def stokes_factor(xi_a, xi_b, lat, basis_bound=2, residual_tol=mpf("1e-6"),
                  cond_cap=mpf("1e12")):
    """Fit the sector-to-sector transition over the exponential dictionary.

    The two sectorial matrices must share their z grid (the overlap
    region).  The sampled matrices are the duals of the sectorial lifts,
    so the transition between the lifts themselves is the transpose of
    B(z) A(z)^-1; that is the composition with finitely many dictionary
    terms (its dual inverse is an infinite decaying sum).  Each entry is
    fitted by linear least squares over exponentials
    exp(((c_j' - c_j) + mu(gamma))/z) with ||gamma|| up to the basis
    bound; the residual is the worst absolute mismatch over the grid.
    """
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
    for i, z in enumerate(grid):
        a = mpmath.matrix(xi_a.matrix_at(i))
        b = mpmath.matrix(xi_b.matrix_at(i))
        try:
            a_inv = a ** -1
        except ZeroDivisionError:
            continue
        cond = mpmath.mnorm(a, 1) * mpmath.mnorm(a_inv, 1)
        if cond > cond_cap:
            continue
        s_samples.append((b * a_inv).T)
        kept.append(z)
    if len(kept) < 2:
        raise FitResidualTooLarge("not enough well-conditioned grid points")
    # dictionary: gamma in the ball, exponent offsets from critical values
    gammas = [tuple([0] * lat.rank)]
    if lat.rank:
        gammas += list(lat.vectors_in_ball(basis_bound))
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
    factor = StokesFactor(xi_a.direction, xi_b.direction, entries, worst, kept)
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


def comparison_check(one_form, crit, d, z_grid, reps=None, tol=mpf("1e-6"),
                     asy_order=24, quad_tol=mpf("1e-12"), controls=None,
                     borel_method="pade"):
    """Route the diagram both ways and report the worst discrepancy.

    Left-bottom: the raw thimble-cycle integral of exp(-f/z) omega
    (geometry plus quadrature).  Top-right: exp(-c_j/z) times the local
    normalizer times the Borel sum of the entry's asymptotic series
    (formal reduction plus Laplace resummation).  The two pipelines
    share no code path, so agreement validates both.
    """
    d = mpf(d)
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
                                     method=borel_method,
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


def digamma_connection_check(lam, d, z_grid, entry_fn, rel_tol=mpf("1e-5"),
                             fd_step=mpf("1e-6"), branch="primary"):
    """Finite-difference log-derivative of a sampled entry vs digamma.

    For the one-zero family with parameter lam, the sampled entry E
    satisfies z^2 (log E)'(z) = -lam (psi(lam/z) - log(lam/z)) - z/2
    on the sector family through arg(lam); on the opposite family
    ('secondary') the relation uses psi(1 - lam/z) with the log branch
    0 < arg(lam/z) < 2 pi and an extra -i pi.  The centered finite
    difference limits the attainable accuracy.
    """
    lam = to_mpc(lam)
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
