"""Command-line front end.

Subcommands: analyze, sum, formal-xi, thimble, stokes, gamma-demo, check.
All numeric output is written as decimal strings at the working
precision; identical configurations produce byte-identical artifacts.

Exit codes: 0 success, 1 usage or malformed input, 2 degenerate 1-form,
3 support property failure, 4 divergent resummation, 5 invariant
failure.
"""

import argparse
import json
import os
import sys

import mpmath
from mpmath import mp, mpf, mpc

from . import betti, derham, gevrey, lattice, stokes, summation
from .derham import INF, RationalForm
from .errors import (ContinuationDiverged, DegenerateLattice, DivergentLaplace,
                     GrowthTooFast, MalformedInput, NearSingularity, NotOneForm,
                     SingularRay, WorkbenchError)
from .scalar import cplx_to_pair, default_precision

EXIT_USAGE = 1
EXIT_NOT_ONE_FORM = 2
EXIT_SUPPORT_FAILURE = 3
EXIT_DIVERGENT = 4
EXIT_INVARIANT = 5

# exit code of each error type, first match wins
EXIT_CODES = (
    (MalformedInput, EXIT_USAGE),
    (NotOneForm, EXIT_NOT_ONE_FORM),
    (DegenerateLattice, EXIT_SUPPORT_FAILURE),
    ((ContinuationDiverged, DivergentLaplace, GrowthTooFast, NearSingularity,
      SingularRay), EXIT_DIVERGENT),
    (WorkbenchError, EXIT_INVARIANT),
)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise MalformedInput(f"cannot read {path}: {err}")


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _real(text, what):
    """A finite real from a decimal string."""
    try:
        value = mpf(text)
    except (TypeError, ValueError):
        value = None
    if value is None or not mpmath.isfinite(value):
        raise MalformedInput(f"{what}: {text!r} is not a finite number")
    return value


def _num(value):
    """Parse a JSON number or decimal string or [re, im] pair."""
    if isinstance(value, list):
        if len(value) != 2:
            raise MalformedInput(f"{value!r} is not an [re, im] pair")
        return mpc(_real(str(value[0]), "real part"),
                   _real(str(value[1]), "imaginary part"))
    return mpc(_real(str(value), "number"))


def _list_of(parse):
    def read(values):
        if not isinstance(values, list):
            raise MalformedInput(f"{values!r} is not a list")
        return [parse(v) for v in values]
    return read


def _spec_field(data, key, parse, default=None):
    """parse(data[key]), or parse(default) when the key is absent or null."""
    if not isinstance(data, dict):
        raise MalformedInput("spec must be a JSON object")
    value = data.get(key)
    if value is None:
        if default is None:
            raise MalformedInput(f"spec has no {key!r}")
        value = default
    return parse(value)


def _parse_grid(spec):
    """r_min:r_max:n_radial:n_angular[:half_opening] around the direction."""
    parts = spec.split(":")
    if len(parts) not in (4, 5):
        raise MalformedInput(
            f"grid spec {spec!r} must be r_min:r_max:n_radial:n_angular[:opening]")
    r_min, r_max = _real(parts[0], "grid r_min"), _real(parts[1], "grid r_max")
    try:
        n_r, n_a = int(parts[2]), int(parts[3])
    except ValueError:
        raise MalformedInput(f"grid spec {spec!r}: counts must be integers")
    opening = _real(parts[4], "grid opening") if len(parts) == 5 else mpf(1)
    if not (r_min > 0 and r_max >= r_min and n_r >= 1 and n_a >= 1):
        raise MalformedInput(f"grid spec {spec!r}: values out of range")
    return r_min, r_max, n_r, n_a, opening


def _grid_points(d, spec):
    r_min, r_max, n_r, n_a, opening = _parse_grid(spec)
    points = []
    for i in range(n_r):
        if n_r == 1:
            r = r_min
        else:
            r = r_min * (r_max / r_min) ** (mpf(i) / (n_r - 1))
        for j in range(n_a):
            if n_a == 1:
                a = mpf(0)
            else:
                a = -opening + 2 * opening * mpf(j) / (n_a - 1)
            points.append(r * mpmath.exp(1j * (mpf(d) + a)))
    return points


def _one_form_from_spec(data):
    p = _spec_field(data, "P", _list_of(_num))
    q = _spec_field(data, "Q", _list_of(_num))
    return derham.analyze(p, q)


def _critical_from_spec(one_form, data, lat):
    if any(z.location == INF for z in one_form.zeros):
        raise MalformedInput("critical values at a zero at infinity need a "
                             "chart path, which a spec cannot give")
    basepoint = _spec_field(data, "basepoint", _num, [1, 0])
    waypoints = _spec_field(data, "branch_paths", _list_of(_list_of(_num)),
                            [[cplx_to_pair(z.location)] for z in one_form.zeros])
    if len(waypoints) < len(one_form.zeros) or not all(waypoints):
        raise MalformedInput(f"branch_paths needs a nonempty path for each of "
                             f"the {len(one_form.zeros)} zeros")
    offset = _spec_field(data, "f_offset", _num, 0)
    return derham.critical_values(one_form, basepoint, waypoints, lat=lat,
                                  offset=offset)


def _write(path, text):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _json_dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_analyze(args):
    data = _load_json(args.spec)
    one_form = _one_form_from_spec(data)
    lat = derham.period_lattice(one_form)
    support = lattice.support_radius(lat) if lat.rank else None
    crit = _critical_from_spec(one_form, data, lat)
    radius = _real(args.radius, "--radius")
    nongen = lattice.nongeneric_directions(crit.representatives, lat, radius) \
        if lat.rank else []
    report = {
        "form": one_form.report(),
        "lattice": lat.to_json(),
        "support_radius": mpmath.nstr(support.value, 30) if support else None,
        "critical_values": [cplx_to_pair(c) for c in crit.values],
        "representatives": [cplx_to_pair(c) for c in crit.representatives],
        "nongeneric_directions": [mpmath.nstr(a, 30) for a in nongen],
        "search_radius": mpmath.nstr(radius, 10),
    }
    out = args.out or "analyze_report.json"
    _write(out, _json_dump(report))
    print(out)
    return 0


def cmd_sum(args):
    data = _load_json(args.series)
    try:
        series = gevrey.GevreySeries.from_json(data)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as err:
        raise MalformedInput(f"bad series file: {err}")
    d = _real(args.direction, "--direction")
    grid = _grid_points(d, args.grid)
    sampled = summation.borel_sum(series, d, grid,
                                  tail_cut=_real(args.tolerance, "--tolerance"))
    out = args.out or "samples.csv"
    _write(out, sampled.to_csv())
    _write(out + ".json", _json_dump(sampled.sidecar()))
    print(out)
    return 0


def cmd_formal_xi(args):
    data = _load_json(args.spec)
    one_form = _one_form_from_spec(data)
    omega = RationalForm(tuple(_spec_field(data, "omega_P", _list_of(_num), [1])),
                         tuple(_spec_field(data, "omega_Q", _list_of(_num), [0, 1])))
    series_list = derham.formal_comparison(omega, one_form, args.zero, args.order)
    payload = [s.to_json() for s in series_list]
    out = args.out or "formal_xi.json"
    _write(out, _json_dump(payload))
    print(out)
    return 0


def cmd_thimble(args):
    data = _load_json(args.spec)
    one_form = _one_form_from_spec(data)
    lat = derham.period_lattice(one_form)
    crit = _critical_from_spec(one_form, data, lat)
    d = _real(args.direction, "--direction")
    gen = lattice.is_generic(d, crit.representatives, lat,
                             _real(args.radius, "--radius")) \
        if lat.rank else lattice.GenericityReport(True, None)
    path = betti.trace_thimble(one_form, crit, args.zero, args.ray, d,
                               generic_check=gen)
    out = args.out or f"thimble_j{args.zero}_l{args.ray}.csv"
    _write(out, path.to_csv())
    _write(out + ".json", _json_dump(path.header()))
    print(out)
    return 0


def cmd_stokes(args):
    data = _load_json(args.spec)
    one_form = _one_form_from_spec(data)
    lat = derham.period_lattice(one_form)
    crit = _critical_from_spec(one_form, data, lat)
    d1, d2 = _real(args.d1, "--d1"), _real(args.d2, "--d2")
    lo = max(d1 - mp.pi / 2, d2 - mp.pi / 2)
    hi = min(d1 + mp.pi / 2, d2 + mp.pi / 2)
    if not hi > lo:
        return _fail(EXIT_USAGE, "directions do not share a half-plane overlap")
    mid = (lo + hi) / 2
    width = (hi - lo) / 2
    r_min, r_max, n_r, n_a, _ = _parse_grid(args.grid)
    grid = []
    for i in range(n_r):
        r = r_min if n_r == 1 else r_min * (r_max / r_min) ** (mpf(i) / (n_r - 1))
        for j in range(n_a):
            a = mid if n_a == 1 else mid + width * (mpf(2 * j) / (n_a - 1) - 1) * mpf("0.8")
            grid.append(r * mpmath.exp(1j * a))
    tol = _real(args.tolerance, "--tolerance")
    xa = stokes.sector_matrix(one_form, crit, d1, grid, tol=tol)
    xb = stokes.sector_matrix(one_form, crit, d2, grid, tol=tol)
    factor = stokes.stokes_factor(xa, xb, lat, basis_bound=args.basis_bound)
    payload = {
        "direction_a": mpmath.nstr(d1, 25),
        "direction_b": mpmath.nstr(d2, 25),
        "fit_residual": mpmath.nstr(factor.fit_residual, 10),
        "entries": [[e.to_json() for e in row] for row in factor.entries],
    }
    out = args.out or "stokes_factor.json"
    _write(out, _json_dump(payload))
    print(out)
    return 0


def cmd_gamma_demo(args):
    lam = mpc(_real(args.lam, "--lambda"))
    if lam == 0:
        return _fail(EXIT_USAGE, "lambda must be nonzero")
    outdir = args.out or "gamma_demo"
    os.makedirs(outdir, exist_ok=True)
    summary = {}
    one_form = derham.analyze([-lam, mpc(1)], [mpc(0), mpc(1)])
    lat = derham.period_lattice(one_form)
    c_norm = lam - lam * mpmath.log(lam)
    crit = derham.critical_values(one_form, lam, [[lam]], lat=lat, offset=c_norm)
    omega = RationalForm((mpc(1),), (mpc(0), mpc(1)))

    # (a) Stirling coefficient table
    rep = derham.stirling_check(lam, 12)
    rows = ["n,formal_re,formal_im,closed_re,closed_im"]
    for n in range(13):
        a, b = rep.formal.coeffs[n], rep.closed.coeffs[n]
        rows.append(",".join(mpmath.nstr(v, 20)
                             for v in (mpf(n), a.real, a.imag, b.real, b.imag)))
    _write(os.path.join(outdir, "stirling_table.csv"), "\n".join(rows) + "\n")
    summary["stirling"] = {"passed": bool(rep.passed),
                           "max_rel_error": mpmath.nstr(rep.max_rel_error, 6)}

    # (b) sectorial samples vs the closed Gamma product
    grid = []
    for i in range(5):
        r = mpf("0.05") * (mpf(10)) ** (mpf(i) / 4)
        for a in (mpf("-0.8"), mpf(0), mpf("0.8")):
            grid.append(r * mpmath.exp(1j * a))
    sm = stokes.sector_matrix(one_form, crit, 0, grid, asy_order=10,
                              tol=mpf("1e-10"))
    rows = ["z_re,z_im,entry_re,entry_im,closed_re,closed_im,rel_err"]
    worst = mpf(0)
    for z, v in zip(sm.z_grid, sm.entries[(0, 0)]):
        s = lam / z
        closed = (mpmath.exp(c_norm / z) * z ** s * mpmath.gamma(s)
                  / mpmath.sqrt(2 * mp.pi * z))
        err = abs(v - closed) / abs(closed)
        worst = max(worst, err)
        rows.append(",".join(mpmath.nstr(t, 17) for t in
                             (z.real, z.imag, v.real, v.imag,
                              closed.real, closed.imag, err)))
    _write(os.path.join(outdir, "xi_samples.csv"), "\n".join(rows) + "\n")
    summary["xi_vs_gamma"] = {"passed": bool(worst <= mpf("1e-6")),
                              "max_rel_error": mpmath.nstr(worst, 6)}

    # (c) Stokes factor fits across both non-generic rays
    arg_l = mpmath.arg(lam)
    factors = {}
    ok_fit = True
    for label, d2, sign in (("plus", arg_l + mp.pi - mpf("0.2"), 1),
                            ("minus", arg_l - mp.pi + mpf("0.2"), -1)):
        ray_angle = arg_l + sign * mp.pi / 2
        ogrid = [r * mpmath.exp(1j * (ray_angle - sign * mpf("0.1")))
                 for r in (mpf("0.3"), mpf("0.33"), mpf("0.36"),
                           mpf("0.39"), mpf("0.42"), mpf("0.45"))]
        xa = stokes.sector_matrix(one_form, crit, arg_l, ogrid, asy_order=6,
                                  tol=mpf("1e-16"))
        xb = stokes.sector_matrix(one_form, crit, d2, ogrid, asy_order=6,
                                  tol=mpf("1e-16"))
        factor = stokes.stokes_factor(xa, xb, lat, basis_bound=2)
        entry = factor.entries[0][0]
        gen = tuple([sign])
        coeff = entry.terms.get(gen, mpc(0))
        ok = abs(coeff + 1) <= mpf("1e-6") and factor.fit_residual <= mpf("1e-6")
        ok_fit = ok_fit and ok
        factors[label] = {
            "crossing": mpmath.nstr(ray_angle, 10),
            "coefficient": cplx_to_pair(coeff),
            "fit_residual": mpmath.nstr(factor.fit_residual, 6),
            "passed": bool(ok),
        }
    summary["stokes_factors"] = factors
    summary["stokes_factors"]["passed"] = bool(ok_fit)

    # (d) digamma connection residuals
    rays = [betti.trace_ray(one_form, crit, 0, ell, arg_l) for ell in (0, 1)]

    def entry_fn(z):
        vals = [stokes.ray_integral(r, omega, z, mpf("1e-14")) for r in rays]
        h = betti.local_normalizer(1, 0, z, arg_l)
        return (vals[0] - vals[1]) * mpmath.exp(crit.values[0] / z) / h

    dz_grid = [mpf("0.2") * mpmath.exp(1j * arg_l),
               mpf("0.35") * mpmath.exp(1j * arg_l)]
    drep = stokes.digamma_connection_check(lam, arg_l, dz_grid, entry_fn)
    summary["digamma"] = {"passed": bool(drep.passed),
                          "max_rel_error": mpmath.nstr(drep.max_rel_error, 6)}

    # (e) thimble CSVs for d in {0, 2.0} (shifted by arg lambda)
    for d in (arg_l, arg_l + mpf("2.0")):
        path = betti.trace_thimble(one_form, crit, 0, 0, d)
        name = f"thimble_d{mpmath.nstr(d, 4)}.csv".replace(" ", "")
        _write(os.path.join(outdir, name), path.to_csv())
        _write(os.path.join(outdir, name + ".json"), _json_dump(path.header()))

    summary["all_passed"] = bool(all(
        block.get("passed", True) for block in summary.values()
        if isinstance(block, dict)))
    _write(os.path.join(outdir, "summary.json"), _json_dump(summary))
    print(os.path.join(outdir, "summary.json"))
    return 0 if summary["all_passed"] else EXIT_INVARIANT


def cmd_check(args):
    from . import invariants
    results = invariants.run_all(seed=args.seed, pattern=args.filter,
                                 corrupt=args.inject_corruption)
    n = len(results)
    print(f"1..{n}")
    failed = 0
    for i, (name, ok, detail) in enumerate(results, 1):
        mark = "ok" if ok else "not ok"
        suffix = f" # {detail}" if detail and not ok else ""
        print(f"{mark} {i} - {name}{suffix}")
        if not ok:
            failed += 1
    return 0 if failed == 0 else EXIT_INVARIANT


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line rather than the usage text."""

    def error(self, message):
        raise MalformedInput(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="stokeswb",
        description="Workbench for Borel-Laplace resummation, thimble "
                    "tracing and Stokes factors of rational 1-forms")
    parser.add_argument("--precision", type=int, default=None,
                        help="working precision in bits (default 256, or "
                             "STOKES_WB_PRECISION)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="zeros/poles/periods/generic directions")
    p.add_argument("spec")
    p.add_argument("--radius", default="62.83185307179586",
                   help="search radius for non-generic directions")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sum", help="Borel-Laplace resummation of a series")
    p.add_argument("series")
    p.add_argument("--direction", required=True)
    p.add_argument("--grid", required=True,
                   help="r_min:r_max:n_radial:n_angular[:opening]")
    p.add_argument("--tolerance", default="1e-10")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("formal-xi", help="formal reduction of a global form")
    p.add_argument("spec")
    p.add_argument("--zero", type=int, default=0)
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(func=cmd_formal_xi)

    p = sub.add_parser("thimble", help="trace a steepest-flow thimble")
    p.add_argument("spec")
    p.add_argument("--zero", type=int, default=0)
    p.add_argument("--ray", type=int, default=0)
    p.add_argument("--direction", required=True)
    p.add_argument("--radius", default="40")
    p.add_argument("--out")
    p.set_defaults(func=cmd_thimble)

    p = sub.add_parser("stokes", help="fit a Stokes factor between directions")
    p.add_argument("spec")
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    p.add_argument("--grid", default="0.3:0.42:4:2")
    p.add_argument("--tolerance", default="1e-16")
    p.add_argument("--basis-bound", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stokes)

    p = sub.add_parser("gamma-demo", help="end-to-end Gamma-function bundle")
    p.add_argument("--lambda", dest="lam", default="1")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gamma_demo)

    p = sub.add_parser("check", help="run the invariant suite (TAP output)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--filter", default=None)
    p.add_argument("--inject-corruption", action="store_true",
                   help="corrupt one invariant to exercise failure reporting")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except MalformedInput as err:
        return _fail(EXIT_USAGE, str(err))
    except SystemExit as err:  # --help
        return err.code or 0
    try:
        prec = args.precision if args.precision is not None else default_precision()
    except ValueError as err:
        return _fail(EXIT_USAGE, str(err))
    if prec < 64:
        return _fail(EXIT_USAGE, "precision must be at least 64 bits")
    with mp.workprec(prec):
        try:
            return args.func(args)
        except WorkbenchError as err:
            code = next(code for kind, code in EXIT_CODES if isinstance(err, kind))
            return _fail(code, str(err))


if __name__ == "__main__":
    sys.exit(main())
