import contextlib
import io
import json
import os
import tempfile

import pytest
import mpmath
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, mpc

from stokeswb import cli, derham, gevrey, summation
from stokeswb.errors import (ContinuationDiverged, DegenerateLattice,
                             DivergentLaplace, MalformedInput, NoCapture,
                             NotOneForm, PathThroughPole, QuadratureNotConverged)
from stokeswb.gevrey import GevreySeries
from stokeswb.scalar import cplx_to_pair


def run_cli(args):
    return cli.main([str(a) for a in args])


def gamma_spec(tmp_path, lam="1"):
    spec = {
        "P": [[f"-{lam}", "0"], ["1", "0"]],
        "Q": [["0", "0"], ["1", "0"]],
        "basepoint": [lam, "0"],
        "branch_paths": [[[lam, "0"]]],
        "f_offset": ["1", "0"],
        "omega_P": [["1", "0"]],
        "omega_Q": [["0", "0"], ["1", "0"]],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


class TestAnalyze:
    def test_gamma_report(self, tmp_path):
        spec = gamma_spec(tmp_path)
        out = tmp_path / "report.json"
        assert run_cli(["analyze", spec, "--out", out]) == 0
        report = json.loads(out.read_text())
        nongen = [mpf(a) for a in report["nongeneric_directions"]]
        assert len(nongen) == 2
        assert abs(nongen[0] - mp.pi / 2) < mpf("1e-12")
        assert abs(nongen[1] - 3 * mp.pi / 2) < mpf("1e-12")
        assert abs(mpf(report["support_radius"]) - 2 * mp.pi) < mpf("1e-12")

    def test_gamma_form_far_from_the_origin(self, tmp_path, capsys):
        # moved by 1e6: the order at infinity is read at the roots' scale;
        # the default basepoint 1 reaches the zero only through the pole
        spec = {"P": ["-1000001", 1], "Q": ["-1000000", 1]}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(spec))
        assert run_cli(["analyze", path, "--out", tmp_path / "r.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "branch_paths" in err
        path.write_text(json.dumps({**spec, "basepoint": ["1000002", "0"]}))
        out = tmp_path / "report.json"
        assert run_cli(["analyze", path, "--out", out]) == 0
        poles = json.loads(out.read_text())["form"]["poles"]
        assert [(p["location"], p["order"]) for p in poles][1:] == [("infinity", 2)]

    def test_rank_zero_all_generic(self, tmp_path):
        spec = tmp_path / "xdx.json"
        spec.write_text(json.dumps({"P": [["0", "0"], ["1", "0"]],
                                    "Q": [["1", "0"]],
                                    "basepoint": ["0", "0"],
                                    "branch_paths": [[["0", "0"]]]}))
        out = tmp_path / "r.json"
        assert run_cli(["analyze", spec, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["lattice"]["rank"] == 0
        assert report["nongeneric_directions"] == []

    def test_not_one_form_exit_2(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"P": [["1", "0"]], "Q": [["1", "0"]]}))
        assert run_cli(["analyze", spec]) == 2

    def test_malformed_json_exit_1(self, tmp_path):
        spec = tmp_path / "broken.json"
        spec.write_text("{not json")
        assert run_cli(["analyze", spec]) == 1

    def test_support_failure_exit_3(self, tmp_path):
        # residues 1 and 1 + 1e-30: marginal near-relation, conservative
        # basis, support property fails downstream
        import warnings
        spec = tmp_path / "degenerate.json"
        spec.write_text(json.dumps({
            "P": [["-1", "0"], ["2.000000000000000000000000000001", "0"]],
            "Q": [["0", "0"], ["-1", "0"], ["1", "0"]],
            "basepoint": ["0.5", "0.5"],
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli(["analyze", spec])
        assert code == 3

    def test_rank_three_exit_3(self, tmp_path, capsys):
        # simple poles at 1, i, -1.5 + 0.5i with residues 1, i, sqrt 2, and
        # a pole at infinity: three periods independent over Z, a rank no
        # discrete subgroup of C has
        roots = [mpc(1), mpc(0, 1), mpc("-1.5", "0.5")]
        q = [mpc(1)]
        for r in roots:
            q = derham.poly_mul(q, [-r, 1])
        p = [mpc(0)] * 3
        for x, res in zip(roots, [mpc(1), mpc(0, 1), mpmath.sqrt(2)]):
            for i, c in enumerate(derham.deflate(q, x)):
                p[i] += res * c
        spec = tmp_path / "rank3.json"
        spec.write_text(json.dumps({
            "P": [cplx_to_pair(c) for c in p],
            "Q": [["0.5", "1.5"], ["-2", "0"], ["0.5", "-1.5"], ["1", "0"]],
            "basepoint": ["0.5", "-0.5"],
            "branch_paths": [],
        }))
        assert run_cli(["analyze", spec]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


class TestSum:
    def euler_file(self, tmp_path, order=40):
        s = GevreySeries(tuple(mpmath.factorial(n) * mpc(-1) ** n
                               for n in range(order + 1)))
        path = tmp_path / "euler.json"
        path.write_text(json.dumps(s.to_json()))
        return path, s

    def test_euler_csv_matches_oracle(self, tmp_path):
        series_path, s = self.euler_file(tmp_path)
        out = tmp_path / "samples.csv"
        code = run_cli(["sum", series_path, "--direction", "0",
                        "--grid", "0.2:0.2:1:1", "--out", out])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "z_re,z_im,f_re,f_im"
        z_re, z_im, f_re, f_im = [mpf(v) for v in rows[1].split(",")]
        with mp.workprec(mp.prec * 2):
            oracle = mpmath.quad(lambda t: mpmath.exp(-t / mpf("0.2")) / (1 + t),
                                 [0, mpmath.inf]) / mpf("0.2")
        assert abs(mpc(f_re, f_im) - oracle) < mpf("1e-9")
        sidecar = json.loads(open(str(out) + ".json").read())
        assert "source_hash" in sidecar

    def test_polynomial_identity(self, tmp_path):
        s = GevreySeries((mpc(1), mpc(1), mpc(1)) + (mpc(0),) * 6)
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(s.to_json()))
        out = tmp_path / "poly.csv"
        assert run_cli(["sum", path, "--direction", "0",
                        "--grid", "0.1:0.1:1:1", "--out", out]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert abs(mpf(row[2]) - mpf("1.11")) < mpf("1e-9")

    def test_singular_direction_exit_4(self, tmp_path):
        series_path, _ = self.euler_file(tmp_path)
        code = run_cli(["sum", series_path, "--direction", str(mp.pi),
                        "--grid", "0.2:0.2:1:1", "--out", tmp_path / "x.csv"])
        assert code == 4

    def test_one_pade_order_exit_4(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps(GevreySeries((mpc(1),) * 3).to_json()))
        code = run_cli(["sum", path, "--direction", "0",
                        "--grid", "0.1:0.1:1:1", "--out", tmp_path / "x.csv"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_deterministic_output(self, tmp_path):
        series_path, _ = self.euler_file(tmp_path, order=25)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["sum", series_path, "--direction", "0",
                 "--grid", "0.1:0.3:2:2", "--out", out1])
        run_cli(["sum", series_path, "--direction", "0",
                 "--grid", "0.1:0.3:2:2", "--out", out2])
        assert out1.read_bytes() == out2.read_bytes()


class TestFormalXi:
    def test_gamma_series(self, tmp_path):
        spec = gamma_spec(tmp_path)
        out = tmp_path / "fx.json"
        assert run_cli(["formal-xi", spec, "--order", "6", "--out", out]) == 0
        data = json.loads(out.read_text())
        series = GevreySeries.from_json(data[0])
        assert abs(series.coeffs[0] - 1) < mpf("1e-40")
        assert abs(series.coeffs[1] + mpf(1) / 12) < mpf("1e-40")

    def test_round_trip_is_bit_exact(self, tmp_path):
        spec = gamma_spec(tmp_path)
        out = tmp_path / "fx.json"
        run_cli(["formal-xi", spec, "--order", "5", "--out", out])
        data = json.loads(out.read_text())
        series = GevreySeries.from_json(data[0])
        assert series.to_json() == data[0]


class TestThimble:
    def test_trace_csv(self, tmp_path):
        spec = gamma_spec(tmp_path)
        out = tmp_path / "th.csv"
        assert run_cli(["thimble", spec, "--direction", "0", "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x_re,x_im,f_re,f_im"
        header = json.loads(open(str(out) + ".json").read())
        assert header["forward_terminal"]["in_boundary"]

    def test_deterministic(self, tmp_path):
        spec = gamma_spec(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["thimble", spec, "--direction", "2.0", "--out", a])
        run_cli(["thimble", spec, "--direction", "2.0", "--out", b])
        assert a.read_bytes() == b.read_bytes()


class TestStokes:
    def test_readme_command_with_the_default_grid(self, tmp_path, monkeypatch):
        # the README's pair of directions has an overlap 0.2 wide: the
        # default grid keeps to its middle, where the tail into the simple
        # pole at 0 still decays
        spec = gamma_spec(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert run_cli(["stokes", spec, "--d1", "0", "--d2", "2.94159"]) == 0
        factor = json.loads((tmp_path / "stokes_factor.json").read_text())
        assert mpf(factor["fit_residual"]) < mpf("1e-10")


class TestGammaDemo:
    FILES = {"stirling_table.csv", "xi_samples.csv", "summary.json",
             "thimble_d0.0.csv", "thimble_d0.0.csv.json",
             "thimble_d2.0.csv", "thimble_d2.0.csv.json"}

    def test_bundle_passes_and_repeats_byte_identical(self, tmp_path):
        # the README's end-to-end command; the second run in the same
        # process finds every memo warm and must write the same bytes
        outs = [tmp_path / "first", tmp_path / "second"]
        for out in outs:
            assert run_cli(["gamma-demo", "--out", out]) == 0
            assert {p.name for p in out.iterdir()} == self.FILES
        assert json.loads((outs[0] / "summary.json").read_text())["all_passed"]
        for name in self.FILES:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestCheck:
    def test_all_pass(self, capsys):
        assert run_cli(["check"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("1..")
        assert "not ok" not in out

    def test_filter(self, capsys):
        assert run_cli(["check", "--filter", "lattice"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines()[1:]:
            assert "lattice." in line

    def test_injected_corruption_exit_5(self, capsys):
        assert run_cli(["check", "--inject-corruption"]) == 5
        out = capsys.readouterr().out
        assert "not ok" in out
        assert "gevrey.ring_axioms" in out


class TestPrecisionOverride:
    def test_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STOKES_WB_PRECISION", "128")
        spec = gamma_spec(tmp_path)
        out = tmp_path / "report.json"
        assert run_cli(["analyze", spec, "--out", out]) == 0
        monkeypatch.setenv("STOKES_WB_PRECISION", "32")
        assert run_cli(["analyze", spec, "--out", out]) == 1


class TestErrorContract:
    def test_missing_numerator_exit_1(self, tmp_path, capsys):
        spec = tmp_path / "noP.json"
        spec.write_text(json.dumps({"Q": [["0", "0"], ["1", "0"]]}))
        assert run_cli(["analyze", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_bad_grid_count_exit_1(self, tmp_path, capsys):
        series = tmp_path / "s.json"
        series.write_text(json.dumps(GevreySeries((mpc(1), mpc(1))).to_json()))
        assert run_cli(["sum", series, "--direction", "0",
                        "--grid", "0.1:0.2:x:1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_default_path_through_a_pole_exit_1(self, tmp_path, capsys):
        # (x^2 - 1)/x dx with no branch_paths: the straight path from the
        # basepoint 1 to the zero -1 runs through the pole at 0
        spec = tmp_path / "pole.json"
        spec.write_text(json.dumps({"P": [[-1, 0], [0, 0], [1, 0]],
                                    "Q": [[0, 0], [1, 0]]}))
        assert run_cli(["analyze", spec, "--out", tmp_path / "r.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "branch_paths" in err

    def test_stokes_grid_smaller_than_the_dictionary_exit_1(self, tmp_path, capsys,
                                                            monkeypatch):
        # 4 grid points against the 5 terms of the Gamma lattice's fit
        # dictionary at --basis-bound 2 (0, +-1, +-2): refused before any
        # thimble is integrated, not a singular least-squares solve
        def integrate(*args, **kwargs):
            raise AssertionError("sectorial matrix computed")

        monkeypatch.setattr(cli.stokes, "sector_matrix", integrate)
        out = tmp_path / "factor.json"
        assert run_cli(["stokes", gamma_spec(tmp_path), "--d1", "0",
                        "--d2", "2.94159", "--grid", "0.3:0.42:4:1",
                        "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "needs 5" in err
        assert not out.exists()

    def test_stokes_grid_with_an_opening_exit_1(self, tmp_path, capsys, monkeypatch):
        # stokes places its angles in the overlap itself: a fifth field
        # is refused, not dropped
        def integrate(*args, **kwargs):
            raise AssertionError("sectorial matrix computed")

        monkeypatch.setattr(cli.stokes, "sector_matrix", integrate)
        assert run_cli(["stokes", gamma_spec(tmp_path), "--d1", "0",
                        "--d2", "2.94159", "--grid", "0.3:0.42:4:2:0.5",
                        "--out", tmp_path / "factor.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert err.rstrip().endswith("must be r_min:r_max:n_radial:n_angular")

    @pytest.mark.parametrize("argv", [
        ["thimble", "--direction", "0", "--zero", "3"],
        ["thimble", "--direction", "0", "--zero", "-1"],
        ["thimble", "--direction", "0", "--radius", "0"],
        ["formal-xi", "--zero", "2"],
        ["formal-xi", "--zero", "-1"],
        ["formal-xi", "--order", "0"],
        ["analyze", "--radius", "-1"]])
    def test_out_of_range_option_exit_1(self, tmp_path, capsys, argv):
        # the Gamma form has one simple zero
        out = tmp_path / "out"
        assert run_cli([argv[0], gamma_spec(tmp_path), *argv[1:],
                        "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_formal_xi_omega_with_a_pole_at_the_zero_exit_1(self, tmp_path, capsys):
        # omega = dx/(x - 1) has a pole at the Gamma form's zero x = 1
        spec = gamma_spec(tmp_path)
        data = json.loads(spec.read_text())
        data["omega_Q"] = [["-1", "0"], ["1", "0"]]
        spec.write_text(json.dumps(data))
        out = tmp_path / "xi.json"
        assert run_cli(["formal-xi", spec, "--order", "6", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "holomorphic" in err
        assert not out.exists()

    @pytest.mark.parametrize("error, code", [
        (MalformedInput, 1), (NotOneForm, 2), (DegenerateLattice, 3),
        (ContinuationDiverged, 4), (DivergentLaplace, 4), (PathThroughPole, 1),
        (QuadratureNotConverged, 4), (NoCapture, 5)])
    def test_each_error_type_has_its_code(self, monkeypatch, tmp_path,
                                          error, code):
        def fail(args):
            raise error("raised by the command")

        monkeypatch.setattr(cli, "cmd_analyze", fail)
        assert run_cli(["analyze", gamma_spec(tmp_path)]) == code


def run_quietly(argv):
    """cli.main on argv; (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def assert_contract(code, err):
    assert code in range(6)
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) <= 1


# Inputs for the fuzz tests: each field is drawn mostly from values the
# parser accepts, so whole inputs reach the numerics as well as the parser.
# The polynomials give forms that analyze quickly.
GOOD_NUMBERS = [0, 1, -1, "0.5", "2", [1, 0], ["0.5", "0.5"], [0, 0]]
BAD_VALUES = ["x", "", None, True, {}, [1], [1, 2, 3], "nan", "inf", [[1, 0]]]
NUMBER = st.sampled_from(2 * GOOD_NUMBERS + BAD_VALUES)
POLY = st.one_of(
    st.sampled_from(4 * [[-1, 1], [0, 1], [0, 0, 1], [-1, 0, 1], [0, -1, 1], [1]]
                    + [[], [0]] + BAD_VALUES),
    st.lists(NUMBER, min_size=1, max_size=3).filter(
        lambda xs: any(x in BAD_VALUES for x in xs)))
SPEC = st.one_of(
    st.fixed_dictionaries({"P": POLY, "Q": POLY}, optional={
        "basepoint": NUMBER, "f_offset": NUMBER,
        "branch_paths": st.one_of(
            st.lists(st.lists(NUMBER, max_size=2), max_size=2), NUMBER)}),
    st.fixed_dictionaries({}, optional={"P": POLY, "Q": POLY}),
    st.sampled_from([[], 3, "spec", None]))
# |z| <= 0.5 keeps a round short: the sum at |z| = 1, arg 1 takes seconds
RADIUS = st.sampled_from(["0.1", "0.2", "0.3", "0.5", "1e-3", "0", "-1", "x",
                          "inf", ""])
COUNT = st.sampled_from(["1", "2", "1", "2", "1", "2", "0", "-1", "1.5", "x"])
OPENING = st.sampled_from(["0.5", "-1", "2", "nan", "x"])
GRID = st.one_of(
    st.tuples(RADIUS, RADIUS, COUNT, COUNT).map(":".join),
    st.tuples(RADIUS, RADIUS, COUNT, COUNT, OPENING).map(":".join),
    st.text(alphabet="0.:-xe ", max_size=8))


@settings(max_examples=40, deadline=None)
@given(SPEC)
# residues 1 and 25/13 (rank 1 through a relation with coefficient 25),
# residues 1 and sqrt 2 (dense on a line), and six simple poles with five
# independent periods
@example(spec={"P": ["-13", "38"], "Q": ["0", "-13", "13"],
               "basepoint": ["0.5", "0.5"]})
@example(spec={"P": ["-1", "2.41421356237309504880168872420969807856967187537694807317668"],
               "Q": ["0", "-1", "1"], "basepoint": ["0.5", "0.5"]})
@example(spec={"P": ["1"], "Q": ["1", "1", "0", "0", "0", "0", "1"]})
def test_fuzz_spec_exit_codes(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        assert_contract(*run_quietly(["analyze", path, "--out",
                                      os.path.join(tmp, "r.json")]))


@settings(max_examples=30, deadline=None)
@given(GRID)
@example(grid="--")
def test_fuzz_grid_exit_codes(grid):
    series = GevreySeries((mpc(1), mpc(1), mpc(1)) + (mpc(0),) * 6)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.json")
        with open(path, "w") as fh:
            json.dump(series.to_json(), fh)
        assert_contract(*run_quietly(["sum", path, "--direction", "0",
                                      f"--grid={grid}", "--out",
                                      os.path.join(tmp, "s.csv")]))
