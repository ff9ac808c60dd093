import json
import math
import warnings

import numpy as np
import pytest

from deformed_e2 import OperatorPoly, cli
from deformed_e2.models import SYMMETRIC, Mu, classify_region
from deformed_e2.representations import (
    diagonalize_classify,
    make_representation,
    poly_to_matrix,
)


def test_uncertified_general_coeffs_search_is_unresolved(capsys):
    # the inequalities hold at mu = (1, 0, 1, 2, 1, 1, 0.5, 0.5, 0.5), but
    # the numeric search finds no certified map for the same coefficients
    mu = Mu(1.0, 0.0, 1.0, 2.0, 1.0, 1.0, 0.5, 0.5, 0.5)
    assert classify_region(mu, 12.0, mode="general").phase == SYMMETRIC
    fixed = {"c1": 1.0, "c3": 1.0, "c4_im": 2.0, "c5": 1.0, "c6_im": 1.0,
             "c7": 0.5, "c8": 0.5, "c9_im": 0.5}
    axes = [{"name": "theta", "min": 11.0, "max": 12.0, "steps": 2}]
    assert cli.main(["classify", "--workers", "1",
                     "--set", 'model="general-coeffs"',
                     "--set", "fixed=" + json.dumps(fixed),
                     "--set", "axes=" + json.dumps(axes)]) == 0
    row = capsys.readouterr().out.strip().split("\n")[-1].split(",")
    assert row[0] == "12.0" and row[5] == "Unresolved"
    # CERT_TOL minus the smallest residual of the candidate maps and their
    # polish (an 801-point lam grid reached 0.511, the old multistart 0.518)
    assert float(row[6]) == pytest.approx(-0.457, abs=1e-3)


def test_planted_c1_zero_input_certifies(capsys):
    # U + 0.5i V: no J^2 to eliminate with; tanh(lam) = 1/2 is the map
    assert cli.main(["hermitize", "--set", 'model="general-coeffs"',
                     "--set", "theta=0.7",
                     "--set", 'fixed={"c3": 1, "c4_im": 0.5}']) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified"] is True
    assert doc["dyson"]["lambda_re"] == pytest.approx(math.log(3) / 2,
                                                      abs=1e-12)


def test_huge_coefficients_certify_without_warnings(capsys):
    # the samples overflow away from lam = 0; the identity map is exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["hermitize", "--set", 'model="general-coeffs"',
                         "--set", "theta=0.7",
                         "--set", 'fixed={"c1": 1e300, "c3": 1e300}']) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["certified"] is True and doc["dyson"]["lambda_re"] == 0.0


# general-coeffs inputs at the edge of the float range: the first leaves a
# non-finite Gauss-Newton Jacobian, the second non-finite residuals at every
# candidate map
_OVERFLOWING = [
    ({"c1": 1.7e308, "c5": 1.7e308, "c6": -1.7e308, "c7": 1.7e308}, 1.0, 0),
    ({"c1": 1.0, "c9": 1.7e308}, 4.0, 3),
]


@pytest.mark.parametrize("command", ["classify", "hermitize"])
@pytest.mark.parametrize("fixed, theta, code", _OVERFLOWING,
                         ids=["jacobian", "residuals"])
def test_overflowing_coefficients_exit_cleanly(command, fixed, theta, code,
                                               capsys):
    argv = [command, "--set", 'model="general-coeffs"',
            "--set", "fixed=" + json.dumps(fixed), "--set", f"theta={theta}"]
    if command == "classify":
        argv += ["--set", 'axes=[{"name": "c3", "min": 0, "max": 1, '
                          '"steps": 2}]']
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 3:
        assert captured.err.startswith("numeric failure: ")
        return
    assert captured.err == ""
    if command == "classify":
        rows = captured.out.strip().split("\n")[1:]
        assert [row.split(",")[6] for row in rows] == ["Unresolved"] * 2
    else:
        assert json.loads(captured.out)["certified"] is False


# a special-choice member whose mu7 = (mu5^2 + ...)/(4 mu1) overflows
_OVERFLOWING_MU = ["--set", 'model="pt5-special"', "--set",
                   'fixed={"mu1": 1, "mu2": 0, "mu3": 1, "mu4": 2, '
                   '"mu5": 1e300, "mu6": 1, "mu8": 0}']
# a deformed general member whose mu3-condition polynomial overflows
_OVERFLOWING_GENERAL = ["--set", 'model="pt5-general"', "--set",
                        'fixed={"mu1": 1, "mu2": 0, "mu3": 1, "mu4": 2, '
                        '"mu5": 1e150, "mu6": 1, "mu7": 0, "mu8": 0, '
                        '"mu9": 0}']
# a general member whose matrix overflows to inf and nan entries
_OVERFLOWING_MATRIX = ["--set", 'model="pt5-general"', "--set",
                       'fixed={"mu1": 1, "mu2": 0, "mu3": 1, "mu4": 2, '
                       '"mu5": 1e300, "mu6": 1, "mu7": 1e308, "mu8": 1e308, '
                       '"mu9": 0}']


@pytest.mark.parametrize("argv", [
    ["classify", *_OVERFLOWING_MU, "--set",
     'axes=[{"name": "theta", "min": 0, "max": 16, "steps": 3}]'],
    ["ep", *_OVERFLOWING_MU, "--set",
     'sweep={"name": "theta", "min": 0, "max": 16}', "--set", "tol=1e-7"],
    ["hermitize", *_OVERFLOWING_MU, "--set", "theta=12"],
    ["spectrum", *_OVERFLOWING_MU, "--set", "theta=1"],
    ["classify", *_OVERFLOWING_GENERAL, "--set",
     'axes=[{"name": "theta", "min": 0.5, "max": 2, "steps": 3}]'],
    ["ep", *_OVERFLOWING_GENERAL, "--set",
     'sweep={"name": "theta", "min": 0.5, "max": 2}'],
    ["spectrum", *_OVERFLOWING_MATRIX, "--set", "theta=1"],
], ids=["classify", "ep", "hermitize", "spectrum", "general-classify",
        "general-ep", "nonfinite-spectrum"])
def test_overflowing_member_is_a_numeric_failure(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("numeric failure: ")


_MID_GRID = 'axes=[{"name": "mu5", "min": 1, "max": 1e300, "steps": 3}]'
_OVERFLOW = "numeric failure: (34, 'Numerical result out of range')\n"


@pytest.mark.parametrize("argv, err", [
    # mu5 = 1, 5e299, 1e300: mu5 ** 2 overflows from the middle point on
    (["--set", 'model="pt5-special"', "--set",
      'fixed={"mu1": 1, "mu2": 0, "mu3": 1, "mu4": 2, "mu6": 1, "mu8": 0}',
      "--set", _MID_GRID], _OVERFLOW),
    (["--set", 'model="pt5-general"', "--set",
      'fixed={"mu1": 1, "mu2": 0, "mu3": 1, "mu4": 2, "mu6": 1, "mu7": 0, '
      '"mu8": 0, "mu9": 0}', "--set", _MID_GRID], _OVERFLOW),
    # rows (mu5, mu4): (0.5, 1) passes; (0.5, 1e300) leaves non-finite
    # mu3-condition coefficients, a later stage than the overflowing
    # mu5 ** 2 of the two points after it, and comes first in row order
    (["--set", 'model="pt5-general"', "--set",
      'fixed={"mu1": 1e10, "mu2": 0, "mu3": 1, "mu6": 1, "mu7": 0, '
      '"mu8": 0, "mu9": 0}', "--set",
      'axes=[{"name": "mu5", "min": 0.5, "max": 1e300, "steps": 2}, '
      '{"name": "mu4", "min": 1, "max": 1e300, "steps": 2}]'],
     "numeric failure: non-finite mu3 condition coefficients\n"),
    # 1,600 points, whose first failing point lies in the second block:
    # mu5 ** 2 overflows from row 358 on, and the deformed coefficients
    # leave the float range from row 299 on
    (["--set", 'model="pt5-special"', "--set",
      'fixed={"mu1": 1, "mu2": 0, "mu3": 1, "mu4": 2, "mu6": 1, "mu8": 0}',
      "--set", 'axes=[{"name": "mu5", "min": 1, "max": 6e154, '
               '"steps": 1600}]'], _OVERFLOW),
    (["--set", 'model="pt5-general"', "--set",
      'fixed={"mu1": 1, "mu2": 0, "mu3": 1, "mu4": 2, "mu6": 1, "mu7": 0, '
      '"mu8": 0, "mu9": 0}', "--set",
      'axes=[{"name": "mu5", "min": 1, "max": 2.4e103, "steps": 1600}]'],
     "numeric failure: non-finite mu3 condition coefficients\n"),
], ids=["special", "deformed", "first-failure-in-row-order",
        "special-second-block", "deformed-second-block"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_failing_grid_point_prints_no_rows(argv, err, workers, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["classify", "--workers", workers, "--set",
                         "theta=1", *argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == err


@pytest.fixture
def no_linspace(monkeypatch):
    """Fails the test if the CLI builds a grid axis."""
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built")
    monkeypatch.setattr(cli.np, "linspace", no_grid)


@pytest.mark.parametrize("axes", [
    [{"name": "mu3", "min": 0.0, "max": 1.0, "steps": 10 ** 18}],
    [{"name": "mu3", "min": 0.0, "max": 1.0, "steps": 1001},
     {"name": "theta", "min": 0.0, "max": 1.0, "steps": 1000}],
])
def test_oversized_grid_is_rejected_before_allocation(axes, capsys,
                                                      no_linspace):
    code = cli.main(["classify", "-c", "configs/classify_mu3_sweep.json",
                     "--set", "axes=" + json.dumps(axes)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "at most 1000000 are allowed" in captured.err


def test_grid_at_the_limit_is_accepted():
    axes = [{"name": "mu3", "min": 0.0, "max": 1.0, "steps": 1000},
            {"name": "theta", "min": 0.0, "max": 1.0, "steps": 1000}]
    parsed = cli._axes({"axes": axes}, "pt5-general")
    assert [len(values) for _, values in parsed] == [1000, 1000]


@pytest.mark.parametrize("config, name", [
    ("configs/classify_mu3_sweep.json", "mu3"),
    ("configs/classify_theta_sweep.json", "theta"),
], ids=["mu3", "theta"])
def test_overflowing_axis_span_is_rejected_before_allocation(
        config, name, capsys, no_linspace):
    # both ends are finite, but max - min is not: linspace would print
    # RuntimeWarnings and fill the grid with inf and nan
    axes = [{"name": name, "min": -1.7e308, "max": 1.7e308, "steps": 3}]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["classify", "-c", config,
                         "--set", "axes=" + json.dumps(axes)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("config error: axes[0]: max - min overflows to "
                            "inf\n")


_SPECIAL_MU4 = ["--set", 'model="pt5-special"',
                "--set", 'fixed={"mu1": 1, "mu3": 1, "mu4": MU4}']
_DEGENERATE = ("numeric failure: special-choice coth ratio has zero "
               "denominator; lambda degenerates\n")


# mu4 = 1e-320 is nonzero, but the coth ratios mu23/mu24 and the special
# one overflow to inf; they count as a zero denominator, as at mu4 = 0
@pytest.mark.parametrize("mu4", ["1e-320", "0"])
@pytest.mark.parametrize("argv, code, out, err", [
    (["classify", *_SPECIAL_MU4, "--set",
      'axes=[{"name": "theta", "min": 0, "max": 1, "steps": 2}]'], 0,
     "theta,lambda_re,lambda_im,rho,tau,verdict,margin_ineq1,margin_ineq2\n"
     "0.0,,,,,Boundary,nan,nan\n1.0,,,,,Boundary,nan,nan\n", ""),
    (["classify", "-c", "configs/classify_mu3_sweep.json",
      "--set", "fixed.mu4=MU4", "--set",
      'axes=[{"name": "mu3", "min": 0.5, "max": 2, "steps": 2}]'], 0,
     "mu3,theta,lambda_re,lambda_im,rho,tau,verdict,margin_ineq1,"
     "margin_ineq2\n0.5,1.0,,,,,Symmetric,0.0,0.5\n"
     "2.0,1.0,,,,,Symmetric,0.0,2.0\n", ""),
    (["hermitize", *_SPECIAL_MU4], 3, "", _DEGENERATE),
    (["spectrum", *_SPECIAL_MU4, "--set", 'hamiltonian="h"'], 3, "",
     _DEGENERATE),
], ids=["special-classify", "general-classify", "hermitize", "spectrum-h"])
def test_overflowing_coth_ratio_is_a_zero_denominator(argv, code, out, err,
                                                      mu4, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([a.replace("MU4", mu4) for a in argv]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("argv", [
    ["classify", "-c", "configs/classify_mu3_sweep.json",
     "--set", "fixed.mu1=0"],
    ["classify", "-c", "configs/classify_mu3_sweep.json",
     "--set", 'fixed={"mu3": 1, "mu4": 2}',
     "--set", 'axes=[{"name": "mu1", "min": -1, "max": 1, "steps": 3}]'],
    ["ep", "-c", "configs/ep_theta_sweep.json", "--set", "fixed.mu1=0"],
    ["hermitize", "-c", "configs/hermitize_special.json",
     "--set", "fixed.mu1=0"],
    ["hermitize", "--set", 'model="toy"',
     "--set", 'fixed={"mu1": 0, "mu4": 1, "lam": 0.5}'],
    ["spectrum", "-c", "configs/spectrum_toy.json", "--set", "fixed.mu1=0"],
    ["spectrum", "--set", 'model="pt5-special"', "--set", "theta=1",
     "--set", 'fixed={"mu1": 0, "mu3": 1, "mu4": 2}'],
], ids=["classify-fixed", "classify-axis", "ep-fixed", "hermitize-special",
        "hermitize-toy", "spectrum-toy", "spectrum-special"])
def test_zero_mu1_is_a_config_error(argv, capsys, monkeypatch):
    def no_point(*args, **kwargs):
        raise AssertionError("a point was computed")
    for name in ("_run_pool", "find_exceptional_point",
                 "with_special_choice", "toy_model", "make_representation"):
        monkeypatch.setattr(cli, name, no_point)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "mu1 must be nonzero" in captured.err


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_nonpositive_ep_tol_is_a_config_error(tol, capsys, monkeypatch):
    def no_bisection(*args, **kwargs):
        raise AssertionError("a bisection ran")
    monkeypatch.setattr(cli, "find_exceptional_point", no_bisection)
    code = cli.main(["ep", "-c", "configs/ep_theta_sweep.json",
                     "--set", f"tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "tol must be positive" in captured.err


def _first_match_pairs(poly, rep):
    """The circle's pair count by the loop it used before nearest-partner
    matching: each popped value takes the first partner within tolerance."""
    e = np.sort_complex(np.diagonal(poly_to_matrix(poly, rep)))
    tol = 1e-12 * max(1.0, float(np.max(np.abs(e))))
    pool = [complex(z) for z in e if abs(z.imag) > tol]
    pairs = 0
    while pool:
        z = pool.pop()
        for k, w in enumerate(pool):
            if abs(w - z.conjugate()) < tol:
                pool.pop(k)
                pairs += 1
                break
    return pairs


def test_circle_pair_count_matches_first_match_loop():
    theta = 0.5
    rep = make_representation("circle", theta, 6)
    # (J^2 - 1)(J^2 - 4) + i (J^3 - 7J): E(1) = E(2) = -6i, E(-1) = E(-2) = 6i
    polys = [OperatorPoly({(0, 0, 4): 1, (0, 0, 2): -5, (0, 0, 0): 4,
                           (0, 0, 3): 1j, (0, 0, 1): -7j}, theta)]
    # half-integer coefficients of J^0..J^4; a real part on even powers and
    # an imaginary part on odd ones makes E(-m) = conj E(m) exactly, all on
    # even powers makes E(-m) = E(m)
    rng = np.random.default_rng(11)
    even = np.arange(5) % 2 == 0
    for kind in rng.integers(0, 3, 300):
        re, im = rng.integers(-4, 5, (2, 5)) / 2
        if kind == 0:
            re, im = re * even, im * ~even
        elif kind == 1:
            re, im = re * even, im * even
        polys.append(OperatorPoly({(0, 0, k): complex(re[k], im[k])
                                   for k in range(5)}, theta))
    counts = []
    for poly in polys:
        pairs = diagonalize_classify(poly, rep).pairs
        assert pairs == _first_match_pairs(poly, rep)
        counts.append(pairs)
    assert counts[0] == 6 and {0, 6} <= set(counts[1:])


def _no_matrix(monkeypatch):
    def no_rep(*args, **kwargs):
        raise AssertionError("a representation was built")
    monkeypatch.setattr(cli, "make_representation", no_rep)


@pytest.mark.parametrize("rep", [
    {"kind": "fock", "dims": [60]},
    {"kind": "circle", "dims": [3, 3]},
    {"kind": "planar", "dims": [8, 8, 8]},
    {"kind": "planar", "dims": [8]},
    {"kind": "fock", "dims": 0},
    {"kind": "circle", "dims": -1},
    {"kind": "planar", "dims": [8, -1]},
    {"kind": "planar", "dims": True},
    {"kind": "fock", "dims": 60.0},
], ids=["fock-list", "circle-list", "planar-three-axes", "planar-one-axis",
        "fock-zero", "circle-negative", "planar-negative", "planar-bool",
        "fock-float"])
def test_malformed_dims_are_a_config_error(rep, capsys, monkeypatch):
    _no_matrix(monkeypatch)
    code = cli.main(["spectrum", "-c", "configs/spectrum_fock_pairs.json",
                     "--set", "representation=" + json.dumps(rep)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "representation.dims must be" in captured.err


@pytest.mark.parametrize("rep", [
    {"kind": "fock", "dims": 3277, "delta": 820},
    {"kind": "fock", "dims": 10 ** 6},
    {"kind": "planar", "dims": [63, 64], "delta": 1},
    {"kind": "circle", "dims": 2048},
], ids=["fock-enlarged", "fock-huge", "planar-enlarged", "circle"])
def test_oversized_truncation_is_rejected_before_allocation(rep, capsys,
                                                           monkeypatch):
    # one state over MAX_MATRIX_SIZE (4096) after enlargement, except the
    # huge case, which must fail just as early
    _no_matrix(monkeypatch)
    code = cli.main(["spectrum", "-c", "configs/spectrum_fock_pairs.json",
                     "--set", "representation=" + json.dumps(rep)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"at most {cli.MAX_MATRIX_SIZE} are allowed" in captured.err


@pytest.mark.parametrize("config, rep", [
    ("configs/spectrum_toy.json", {"kind": "circle", "dims": 2, "j0": 0.5}),
    ("configs/spectrum_fock_pairs.json",
     {"kind": "planar", "dims": 8, "j0": 0.5}),
], ids=["circle", "planar"])
def test_j0_off_fock_is_a_config_error(config, rep, capsys, monkeypatch):
    # j0 offsets only the fock J; elsewhere it used to be echoed but unused
    with pytest.raises(ValueError, match="j0"):
        make_representation(rep["kind"], 0.5, rep["dims"], j0=rep["j0"])
    _no_matrix(monkeypatch)
    code = cli.main(["spectrum", "-c", config,
                     "--set", "representation=" + json.dumps(rep)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "unknown representation keys: ['j0']" in captured.err


@pytest.mark.parametrize("rep", [
    {"kind": "fock", "dims": 3277},
    {"kind": "planar", "dims": [63, 63], "delta": 1},
    {"kind": "circle", "dims": 2047},
])
def test_truncation_at_the_limit_is_accepted(rep):
    kind, dims, delta, _ = cli._representation_from(
        {"representation": rep}, "pt5-general")
    assert (kind, delta) == (rep["kind"], rep.get("delta"))
    assert dims == (tuple(rep["dims"]) if kind == "planar" else rep["dims"])


_PLANAR = "configs/spectrum_planar.json"


@pytest.mark.parametrize("dims", [[5, 12], [12, 5], [2, 8]])
def test_planar_spectrum_keeps_nx_ny_eigenvalues(dims, capsys):
    # N_x Casimir sectors of N_y levels each: the document still lists
    # N_x N_y eigenvalues, whichever axis is the longer
    code = cli.main(["spectrum", "-c", _PLANAR, "--set",
                     "representation.dims=" + json.dumps(dims)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    doc = json.loads(captured.out)
    assert doc["representation"]["dims"] == dims
    assert len(doc["eigenvalues"]) == dims[0] * dims[1]


def test_planar_below_16_states_is_a_numeric_failure(capsys):
    # the guard counts the N_x N_y grid, not the levels of a sector
    code = cli.main(["spectrum", "-c", _PLANAR, "--set",
                     'representation={"kind": "planar", "dims": [3, 5]}'])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        3, "", "numeric failure: matrix size below 16 is all edge, "
               "no interior\n")
