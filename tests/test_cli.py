import argparse
import json
import math

import numpy as np
import pytest

import pt5_reference
from deformed_e2 import cli, models

MU3_SWEEP = "configs/classify_mu3_sweep.json"
THETA_SWEEP = "configs/classify_theta_sweep.json"
HEADER = ("mu3,theta,lambda_re,lambda_im,rho,tau,verdict,"
          "margin_ineq1,margin_ineq2")


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_classify_header_and_rows(capsys):
    code, out = run(capsys, ["classify", "-c", MU3_SWEEP,
                             "--set", "axes.0.steps=5", "--workers", "1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0.5"
    assert first[6] == "Broken"
    # broken rows carry the complex branch: imag(lambda) = pi/2
    assert float(first[3]) == pytest.approx(math.pi / 2, abs=1e-15)
    assert float(first[8]) == pytest.approx(-0.5)
    last = lines[-1].split(",")
    assert last[0] == "2.0"
    assert last[6] == "Symmetric"
    assert float(last[2]) == pytest.approx(0.5493061443340549, abs=1e-15)
    assert float(last[8]) == pytest.approx(1.0)


def test_classify_steps_two_duplicate_endpoint(capsys):
    code, out = run(capsys, ["classify", "-c", MU3_SWEEP,
                             "--set", "axes.0.min=1.5", "--set", "axes.0.max=1.5",
                             "--set", "axes.0.steps=2", "--workers", "1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[1] == lines[2]


def test_classify_boundary_row_has_empty_cells(capsys):
    # theta = 8 sits exactly on the transition of the worked family
    code, out = run(capsys, ["classify", "-c", THETA_SWEEP,
                             "--set", "axes.0.steps=5", "--workers", "1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("theta,lambda_re,lambda_im,rho,tau,verdict,"
                        "margin_ineq1,margin_ineq2")
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert rows["0.0"][5] == "Broken"
    assert rows["16.0"][5] == "Symmetric"
    boundary = rows["8.0"]
    assert boundary[5] == "Boundary"
    assert boundary[1] == "" and boundary[2] == ""     # no lambda
    assert boundary[3] == "" and boundary[4] == ""     # no rho, tau


def test_classify_toy_rows_follow_the_closed_forms(capsys):
    # mu3 swept across |mu3/mu4| = 1: lambda = ln((mu3 + mu4)/(mu3 - mu4)),
    # rho = lambda mu4 (x^2 - 1)/(2 mu1) with x = mu3/mu4, complex with
    # Im lambda = pi on the broken side, no lambda at the two boundaries
    mu1, mu4 = 1.5, 2.0
    code, out = run(capsys, ["classify", "--set", 'model="toy"',
                             "--set", f'fixed={{"mu1": {mu1}, "mu4": {mu4}}}',
                             "--set", "theta=0.3",
                             "--set", 'axes=[{"name": "mu3", "min": -5, '
                                      '"max": 5, "steps": 11}]'])
    assert code == 0
    verdicts = []
    for line in out.strip().split("\n")[1:]:
        mu3_cell, theta, lam_re, lam_im, rho, tau, verdict, m1, m2 = (
            line.split(","))
        mu3, x = float(mu3_cell), float(mu3_cell) / mu4
        verdicts.append(verdict)
        assert theta == "0.3" and m2 == ""
        assert float(m1) == pytest.approx(abs(x) - 1, abs=1e-15)
        if abs(x) == 1:
            assert verdict == "Boundary"
            assert (lam_re, lam_im, rho, tau) == ("", "", "", "")
            continue
        lam = complex(math.log(abs((mu3 + mu4) / (mu3 - mu4))),
                      0.0 if abs(x) > 1 else math.pi)
        assert verdict == ("Symmetric" if abs(x) > 1 else "Broken")
        assert complex(float(lam_re), float(lam_im)) == pytest.approx(
            lam, rel=1e-14, abs=1e-15)
        assert complex(rho) == pytest.approx(
            lam * mu4 * (x * x - 1) / (2 * mu1), rel=1e-14, abs=1e-15)
        assert float(tau) == 0.0
    assert verdicts == (["Symmetric"] * 3 + ["Boundary"] + ["Broken"] * 3
                        + ["Boundary"] + ["Symmetric"] * 3)


def test_classify_deterministic_across_workers(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["classify", "-c", MU3_SWEEP, "--set", "axes.0.steps=7"]
    assert cli.main(base + ["-o", str(out1), "--workers", "1"]) == 0
    assert cli.main(base + ["-o", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_classify_builds_a_pool_only_when_asked(tmp_path, monkeypatch):
    pools = []

    class CountingPool:
        """Records each construction and maps inline."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads, chunksize=1):
            return map(fn, payloads)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
    out = tmp_path / "sweep.csv"
    assert cli.main(["classify", "-c", THETA_SWEEP, "-o", str(out)]) == 0
    assert pools == []
    with open("tests/golden/classify_theta_sweep.csv", "rb") as f:
        assert out.read_bytes() == f.read()
    assert cli.main(["classify", "-c", THETA_SWEEP, "-o", str(out),
                     "--workers", "2"]) == 0
    assert pools == [2]


@pytest.mark.parametrize("argv, message", [
    (["classify", "-c", THETA_SWEEP, "--workers", "0"],
     "workers must be a positive integer"),
    (["classify", "-c", THETA_SWEEP, "--set", "workers=2"],
     "unknown config keys: ['workers']"),
    (["classify", "-c", THETA_SWEEP, "--set", "seed=1"],
     "unknown config keys: ['seed']"),
    (["hermitize", "-c", "configs/hermitize_special.json", "--set", "seed=1"],
     "unknown config keys: ['seed']"),
    (["spectrum", "-c", "configs/spectrum_toy.json", "--set", "modes=3"],
     "unknown config keys: ['modes']"),
], ids=["zero-flag", "config-key", "seed-key", "hermitize-seed-key",
        "spectrum-modes-key"])
def test_workers_come_only_from_a_positive_flag(argv, message, capsys):
    """Neither a worker count, a solver seed nor a toy `modes` count is a
    config key."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


_MU1_FIXED = ({}, {"mu1": 1}, {"mu1": 0})
# exit code for each entry of _MU1_FIXED at theta = 1 (classify and ep
# sweep theta instead)
_MU1_MATRIX = {
    ("classify", "pt5-general"): (2, 0, 2),
    ("classify", "pt5-special"): (2, 0, 2),
    ("classify", "toy"): (2, 0, 2),
    ("classify", "general-coeffs"): (0, 2, 2),
    ("spectrum", "pt5-general"): (2, 0, 0),
    ("spectrum", "pt5-special"): (2, 0, 2),
    ("spectrum", "toy"): (2, 2, 2),
    ("spectrum", "general-coeffs"): (0, 2, 2),
    ("ep", "pt5-general"): (2, 2, 2),
    ("ep", "pt5-special"): (2, 2, 2),
    ("ep", "toy"): (2, 2, 2),
    ("ep", "general-coeffs"): (2, 2, 2),
    ("hermitize", "pt5-general"): (2, 2, 2),
    ("hermitize", "pt5-special"): (2, 3, 2),
    ("hermitize", "toy"): (2, 2, 2),
    ("hermitize", "general-coeffs"): (0, 2, 2),
}


@pytest.mark.parametrize("column", range(3), ids=["none", "mu1=1", "mu1=0"])
@pytest.mark.parametrize("command, model", list(_MU1_MATRIX))
def test_fixed_mu1_validation_matrix(command, model, column, capsys):
    """Every data command and model with mu1 absent, 1 and 0 ends in its
    documented exit code, never in a traceback: pt5 members need mu1, toy
    spectrum and hermitize still need lam or mu3, general-coeffs has no
    mu1, and only spectrum of pt5-general accepts mu1 = 0."""
    argv = [command, "--set", f"model={json.dumps(model)}",
            "--set", f"fixed={json.dumps(_MU1_FIXED[column])}"]
    if command == "classify":
        argv += ["--set", 'axes=[{"name": "theta", "min": 0.5, "max": 1, '
                          '"steps": 2}]']
    elif command == "ep":
        argv += ["--set", 'sweep={"name": "theta", "min": 0, "max": 16}']
    else:
        argv += ["--set", "theta=1"]
    code, out = run(capsys, argv)
    assert code == _MU1_MATRIX[command, model][column]
    assert (out != "") == (code == 0)


def test_classify_rejects_unknown_model(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {
        "model": "nonsense", "fixed": {"mu1": 1.0}, "theta": 1.0,
        "axes": [{"name": "mu3", "min": 0.5, "max": 2.0, "steps": 3}]})
    assert cli.main(["classify", "-c", cfg]) == 2


def test_classify_rejects_single_step_axis(capsys):
    code, _ = run(capsys, ["classify", "-c", MU3_SWEEP,
                           "--set", "axes.0.steps=1"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["classify", "-c", THETA_SWEEP, "--workers", "1"],
    ["ep", "-c", "configs/ep_theta_sweep.json"],
], ids=["classify", "ep"])
def test_theta_both_fixed_and_swept_is_a_config_error(argv, capsys):
    code = cli.main(argv + ["--set", "theta=3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "'theta' is both fixed and swept" in captured.err


def test_classify_rejects_unknown_parameter(capsys):
    code, _ = run(capsys, ["classify", "-c", MU3_SWEEP,
                           "--set", "fixed.mu77=1.0"])
    assert code == 2


def test_classify_rejects_mu7_for_special_model(tmp_path):
    # the special family computes mu7 and mu9 itself
    cfg = write_config(tmp_path, "special.json", {
        "model": "pt5-special",
        "fixed": {"mu1": 1.0, "mu2": 0.0, "mu3": 1.0, "mu4": 2.0,
                  "mu5": 1.0, "mu6": 1.0, "mu7": 0.5, "mu8": 0.0},
        "axes": [{"name": "theta", "min": 0.0, "max": 16.0, "steps": 3}]})
    assert cli.main(["classify", "-c", cfg]) == 2


def test_spectrum_toy_worked_values(capsys):
    code, out = run(capsys, ["spectrum", "-c", "configs/spectrum_toy.json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "toy"
    assert doc["verdict"] == "AllReal"
    assert doc["params"]["mu3"] == pytest.approx(2.0)
    assert doc["params"]["epsilon"] == pytest.approx(0.3)
    got = sorted(e["re"] for e in doc["eigenvalues"])
    want = sorted(m * m + 0.3 * m for m in range(-3, 4))
    assert got == pytest.approx(want, abs=1e-12)
    assert all(e["im"] == 0.0 and e["converged"] for e in doc["eigenvalues"])
    byn = {c["n"]: c for c in doc["conventions"]}
    assert byn[1]["oracle"] == pytest.approx(0.7)
    assert byn[1]["paper"] == pytest.approx(4 * math.pi ** 2 - 0.6 * math.pi)


def test_spectrum_toy_H_carries_the_engine_scalar(capsys):
    # H itself, not h, on fock: its converged eigenvalues are mu1 n^2 + eps n
    # plus the scalar that hermitize's engine conjugation prints (-0.1775),
    # not the stated closed-form shift (-0.17)
    code, out = run(capsys, ["hermitize", "--set", 'model="toy"',
                             "--set", "theta=0.1", "--set",
                             'fixed={"mu1": 1.0, "mu4": 1.0, "mu3": 2.0}'])
    assert code == 0
    shift = json.loads(out)["shift_engine"]
    assert shift == pytest.approx(-0.1775, abs=1e-12)
    code, out = run(capsys, ["spectrum", "-c", "configs/spectrum_toy.json",
                             "--set", 'hamiltonian="H"', "--set",
                             'representation={"kind": "fock", "dims": 40}'])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "AllReal"
    eps = doc["params"]["epsilon"]
    converged = [e for e in doc["eigenvalues"] if e["converged"]]
    assert len(converged) == 30 and all(e["im"] == 0.0 for e in converged)
    got = sorted(e["re"] for e in converged)
    assert got == pytest.approx([n * n + eps * n + shift for n in range(30)],
                                rel=1e-6)


def test_spectrum_fock_conjugate_pairs(capsys):
    code, out = run(capsys, ["spectrum", "-c",
                             "configs/spectrum_fock_pairs.json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "ConjugatePairs"
    assert doc["pairs"] >= 1


def _spectrum_doc(eigenvalues, flags, conventions):
    """A spectrum document as cmd_spectrum builds it, its eigenvalues as
    `json` would write them."""
    doc = {"model": "toy", "params": {"mu1": 1.0, "theta": 0.1},
           "representation": {"kind": "circle", "dims": 3, "delta": None},
           "hamiltonian": "h",
           "eigenvalues": [{"re": z.real, "im": z.imag, "converged": f}
                           for z, f in zip(eigenvalues, flags)],
           "verdict": "AllReal", "pairs": 0, "diagnostic": ""}
    if conventions:
        doc["conventions"] = [{"n": n, "oracle": n * n - 0.5 * n,
                               "paper": math.inf if n else -0.0}
                              for n in (-1, 0, 1)]
    return doc


@pytest.mark.parametrize("values", [
    [], [-0.0], [5e-324], [math.nan], [math.inf, -math.inf],
    [complex(x, y) for x in (-0.0, 5e-324, math.nan, math.inf, -math.inf)
     for y in (0.0, -0.0, 1e300, -math.inf, math.nan)],
], ids=["empty", "negative-zero", "subnormal", "nan", "infinities",
        "complex-grid"])
@pytest.mark.parametrize("conventions", [False, True],
                         ids=["no-conventions", "conventions-after"])
def test_spectrum_json_writer_keeps_the_bytes_of_json(values, conventions):
    values = [complex(z) for z in values]
    flags = [k % 3 != 1 for k in range(len(values))]
    doc = _spectrum_doc(values, flags, conventions)
    text = cli._json_doc({**doc, "eigenvalues":
                          cli._eigenvalues_json(values, flags)},
                         raw=("eigenvalues",))
    assert text == json.dumps(doc, indent=2) + "\n"


def test_spectrum_toy_needs_exactly_one_of_lam_mu3(tmp_path):
    cfg = write_config(tmp_path, "toy.json", {
        "model": "toy", "theta": 0.1, "hamiltonian": "h",
        "fixed": {"mu1": 1.0, "mu4": 1.0, "lam": 1.1, "mu3": 2.0}})
    assert cli.main(["spectrum", "-c", cfg]) == 2
    cfg = write_config(tmp_path, "toy2.json", {
        "model": "toy", "theta": 0.1, "hamiltonian": "h",
        "fixed": {"mu1": 1.0, "mu4": 1.0}})
    assert cli.main(["spectrum", "-c", cfg]) == 2


@pytest.mark.parametrize("command", ["hermitize", "spectrum"])
@pytest.mark.parametrize("fixed, err", [
    ({"mu1": 1, "mu3": 1, "mu4": 0},
     "toy mu3 needs a nonzero mu4: lam = 2 arccoth(mu3/mu4)"),
    ({"mu1": 1, "mu3": 1},
     "toy mu3 needs a nonzero mu4: lam = 2 arccoth(mu3/mu4)"),
    ({"mu1": 1, "mu4": 1, "lam": 0}, "toy lam must be nonzero"),
    # mu3/mu4 overflows to inf, which counts as mu4 = 0
    ({"mu1": 1, "mu3": 1, "mu4": 1e-320},
     "toy mu3 needs a nonzero mu4: lam = 2 arccoth(mu3/mu4)"),
], ids=["mu4-zero", "mu4-absent", "lam-zero", "mu3-over-mu4-overflows"])
def test_toy_input_errors_exit_2(command, fixed, err, capsys, monkeypatch):
    """A toy member with no lam to build is an input error, checked before
    the member is built (these exited 3, as numeric failures)."""
    def no_member(*args, **kwargs):
        raise AssertionError("a member was built")
    monkeypatch.setattr(cli, "toy_model", no_member)
    code = cli.main([command, "--set", 'model="toy"',
                     "--set", "fixed=" + json.dumps(fixed)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"config error: {err}\n"


def test_classify_toy_overflowing_ratio_is_a_mu4_zero_row(capsys):
    # mu3/mu4 overflows at mu4 = 1e-320: the rows are those of mu4 = 0,
    # Boundary without map cells (they printed nan cells as Symmetric)
    rows = []
    for mu4 in (0, 1e-320):
        code = cli.main(["classify", "--set", 'model="toy"',
                         "--set", f'fixed={{"mu1": 1, "mu4": {mu4}}}',
                         "--set", 'axes=[{"name": "mu3", "min": 0.5, '
                                  '"max": 2, "steps": 2}]'])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        rows.append(captured.out)
    assert rows[0] == rows[1] == (
        "mu3,theta,lambda_re,lambda_im,rho,tau,verdict,margin_ineq1,"
        "margin_ineq2\n"
        "0.5,0.0,,,,,Boundary,nan,\n"
        "2.0,0.0,,,,,Boundary,nan,\n")


def test_blocks_keep_the_bytes_of_a_point_by_point_run(tmp_path,
                                                       monkeypatch):
    # 601 deformed points cross two block boundaries; with one point per
    # block every stacked eigvals call holds one matrix
    argv = ["classify", "-c", "configs/classify_deformed_sweep.json",
            "--set", 'axes=[{"name": "mu3", "min": -4, "max": 4, '
                     '"steps": 601}]', "--set", "theta=1.5"]
    sizes = []
    real = cli.classify_points

    def recording(model, block):
        sizes.append(len(block["theta"]))
        return real(model, block)

    monkeypatch.setattr(cli, "classify_points", recording)
    blocks, points = tmp_path / "blocks.csv", tmp_path / "points.csv"
    assert cli.main(argv + ["-o", str(blocks)]) == 0
    assert sizes == [256, 256, 89]
    sizes.clear()
    monkeypatch.setattr(cli, "BLOCK_POINTS", 1)
    assert cli.main(argv + ["-o", str(points)]) == 0
    assert sizes == [1] * 601
    text = blocks.read_text()
    assert text == points.read_text()
    assert len(text.splitlines()) == 602
    assert {"Symmetric", "Broken"} <= {row.split(",")[6]
                                       for row in text.splitlines()[1:]}


def test_cell_lines_match_cell_by_cell_text():
    # the column formatter against the one-cell-at-a-time text, on cells
    # that print in unusual ways; 0.0 and -0.0 share a column, where a memo
    # keyed by float value would merge them
    above = math.nextafter(1e-12, 1.0)
    values = [math.nan, math.inf, -math.inf, 5e-324, math.pi / 2, 0.0, -0.0,
              1.0]
    rho = [complex(1.5, 1e-12), complex(1.5, -1e-12), complex(1.5, above),
           complex(-0.0, -above), complex(math.nan, 0.0),
           complex(0.0, math.nan), complex(math.pi / 2, 0.0),
           complex(5e-324, -0.0)]
    cells = models.Cells(
        theta=np.array(values),
        lam=np.array([complex(a, b) for a, b in zip(values, values[::-1])]),
        rho=np.array(rho), tau=np.array(values[::-1]),
        verdict=["Symmetric", "Broken", "Boundary", "Unresolved"] * 2,
        margin1=np.array(values), margin2=np.array([0.0, -0.0] * 4),
        mapped=np.array([True, False, True, True, False, True, True, True]))
    for margin2 in (cells.margin2, np.array(values), None):
        block = cells._replace(margin2=margin2)
        assert cli._cell_lines(block) == [
            ",".join(map(pt5_reference.cell, row[1:])) + "\n"
            for row in pt5_reference.rows(block)]
    every = cells._replace(mapped=np.ones(8, dtype=bool))
    assert cli._cell_lines(every) == [
        ",".join(map(pt5_reference.cell, row[1:])) + "\n"
        for row in pt5_reference.rows(every)]


def test_negative_zero_theta_keeps_its_sign(capsys):
    code, out = run(capsys, ["classify", "-c", MU3_SWEEP, "--set",
                             "axes.0.steps=2", "--set", "theta=-0.0"])
    assert code == 0
    assert [row.split(",")[1] for row in out.splitlines()[1:]] == ["-0.0"] * 2


def test_spectrum_fock_needs_positive_theta(tmp_path):
    cfg = write_config(tmp_path, "zero.json", {
        "model": "pt5-general", "theta": 0.0, "hamiltonian": "H",
        "fixed": {"mu1": 1.0, "mu2": 0.0, "mu3": 2.0, "mu4": 1.0, "mu5": 0.0,
                  "mu6": 0.0, "mu7": 0.0, "mu8": 0.0, "mu9": 0.0},
        "representation": {"kind": "fock", "dims": 32}})
    assert cli.main(["spectrum", "-c", cfg]) == 3


def test_ep_worked_theta_family(capsys):
    code, out = run(capsys, ["ep", "-c", "configs/ep_theta_sweep.json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exceptional_point"] == pytest.approx(8.0, abs=1e-6)
    assert doc["phase_low"] == "Broken"
    assert doc["phase_high"] == "Symmetric"
    assert doc["theta"] is None      # theta is the swept axis here


def test_ep_stops_at_its_tolerance(capsys):
    # with mu8 = 0.1 the special coth ratio
    # (mu1 mu23 + theta mu5 mu68)/(mu1 mu24 + theta mu6 mu68) has numerator
    # and denominator linear in theta; ratio = -1 at theta = 40/7, which no
    # dyadic midpoint of [0, 16] hits, so bisection runs down to tol
    mu = {"mu1": 1.0, "mu2": 0.0, "mu3": 1.0, "mu4": 2.0, "mu5": 1.0,
          "mu6": 1.0, "mu8": 0.1}
    tol = 1e-3
    code, out = run(capsys, ["ep", "-c", "configs/ep_theta_sweep.json",
                             "--set", "fixed=" + json.dumps(mu),
                             "--set", f"tol={tol}"])
    assert code == 0
    mu23 = mu["mu2"] * mu["mu5"] / (2 * mu["mu1"]) - mu["mu6"] / 2 - mu["mu3"]
    mu24 = mu["mu2"] * mu["mu6"] / (2 * mu["mu1"]) - mu["mu5"] / 2 - mu["mu4"]
    mu68 = mu["mu6"] ** 2 / (4 * mu["mu1"]) + mu["mu8"]
    root = -mu["mu1"] * (mu23 + mu24) / (mu68 * (mu["mu5"] + mu["mu6"]))
    assert root == pytest.approx(40 / 7, rel=1e-15)
    point = json.loads(out)["exceptional_point"]
    # the midpoint of a final bracket no wider than tol that holds the root
    assert abs(point - root) <= tol / 2


def test_ep_bisection_through_mu1_zero_is_a_config_error(capsys):
    # the phases differ at mu1 = -1 and 1, so the first midpoint is mu1 = 0,
    # where the special mu7 and mu9 divide by zero
    code = cli.main(["ep", "--set", 'model="pt5-special"', "--set", "theta=0.14",
                     "--set", 'fixed={"mu2": 0.92, "mu3": -1.3, "mu4": 1.45, '
                              '"mu5": 0.17, "mu6": -0.8, "mu8": -0.31}',
                     "--set", 'sweep={"name": "mu1", "min": -1, "max": 1}'])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "mu1 must be nonzero" in captured.err


def test_ep_requires_a_transition(capsys):
    # both endpoints symmetric: nothing to bisect
    code, _ = run(capsys, ["ep", "-c", "configs/ep_theta_sweep.json",
                           "--set", "sweep.min=12.0", "--set", "sweep.max=16.0"])
    assert code == 2


# pt5-general crossing at mu3 = 1e7 - 1e-3, where the float spacing
# (1.86e-9) is wider than the default tol and no float mu3 puts |mu23|
# within BOUNDARY_TOL of mu4: no midpoint is ever Boundary
_EP_PAST_THE_FLOATS = [
    "ep", "--set", 'model="pt5-general"',
    "--set", 'fixed={"mu1": 1, "mu4": 1e-3, "mu6": -2e7}',
    "--set", 'sweep={"name": "mu3", "min": 9999999.7, '
             '"max": 10000000.0003}']


def _past_the_floats_family(t):
    return models.Mu(mu1=1.0, mu3=float(t), mu4=1e-3, mu6=-2e7), 0.0


def test_ep_stops_when_no_float_is_left_between_the_ends(capsys):
    # the bisection used to spin once its midpoint rounded onto an end
    code, out = run(capsys, _EP_PAST_THE_FLOATS)
    assert code == 0
    doc = json.loads(out)
    point = doc["exceptional_point"]
    assert point == pytest.approx(1e7 - 1e-3, abs=1e-8)
    phase = models.classify_region(*_past_the_floats_family(point)).phase
    if phase == doc["phase_low"]:
        other, want = math.nextafter(point, math.inf), doc["phase_high"]
    else:
        assert phase == doc["phase_high"]
        other, want = math.nextafter(point, -math.inf), doc["phase_low"]
    assert models.classify_region(*_past_the_floats_family(other)).phase \
        == want


def _worked_theta_family(t):
    return models.with_special_choice(models.Mu(
        mu1=1.0, mu2=0.0, mu3=1.0, mu4=2.0, mu5=1.0, mu6=1.0, mu8=0.0)), t


@pytest.mark.parametrize("argv, family, bracket, mode, tol", [
    (["ep", "-c", "configs/ep_theta_sweep.json"], _worked_theta_family,
     (0.0, 16.0), "special", 1e-7),
    (_EP_PAST_THE_FLOATS, _past_the_floats_family,
     (9999999.7, 10000000.0003), "general", models.BOUNDARY_TOL),
], ids=["ep_theta_sweep", "past-the-floats"])
def test_ep_classifies_each_point_once(argv, family, bracket, mode, tol,
                                       capsys, monkeypatch):
    # the end phases ep prints come from the bisection's own classification
    calls = []
    classify = models.classify_region

    def counted(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)
    monkeypatch.setattr(models, "classify_region", counted)
    code, out = run(capsys, argv)
    assert code == 0
    via_cli = len(calls)
    calls.clear()
    point, low, high = models.find_exceptional_point(family, bracket,
                                                     mode=mode, tol=tol)
    assert via_cli == len(calls)
    doc = json.loads(out)
    assert (doc["exceptional_point"], doc["phase_low"], doc["phase_high"]) \
        == (point, low, high)


def test_hermitize_special_worked_point(capsys):
    code, out = run(capsys, ["hermitize", "-c", "configs/hermitize_special.json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dyson"]["lambda_re"] == pytest.approx(0.34657359027997264,
                                                      abs=1e-14)
    assert doc["dyson"]["lambda_im"] == 0.0
    assert doc["dyson"]["rho"] == pytest.approx(-0.34657359027997264, abs=1e-14)
    assert doc["dyson"]["tau"] == 0.0
    assert doc["residual"] < 1e-12
    assert doc["closed_vs_engine"] < 1e-12
    # the special choice fills mu7 and mu9 and echoes them back
    assert doc["params"]["mu7"] == pytest.approx(0.5)
    assert doc["params"]["mu9"] == pytest.approx(0.5)
    # counterpart coefficients come as [re, im] pairs; hermiticity shows up
    # as real J, J^2 and scalar entries and a pure-imaginary V entry
    assert doc["h"]["c1"] == [1.0, 0.0]
    assert doc["h"]["c2"][1] == 0.0
    assert doc["h"]["c4"][0] == 0.0
    assert doc["h"]["c10"][0] == pytest.approx(3.206927312437234, abs=1e-12)
    assert doc["h"]["c10"][1] == 0.0


def test_hermitize_toy(tmp_path, capsys):
    cfg = write_config(tmp_path, "toy.json", {
        "model": "toy", "theta": 0.1,
        "fixed": {"mu1": 1.0, "mu4": 1.0, "lam": 1.0986122886681098}})
    code, out = run(capsys, ["hermitize", "-c", cfg])
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] < 1e-13
    assert doc["shift_engine"] == pytest.approx(-0.1775, abs=1e-12)
    assert doc["shift_stated"] == pytest.approx(-0.17, abs=1e-12)
    assert doc["h"]["c1"][0] == pytest.approx(1.0)
    assert doc["h"]["c10"][0] == pytest.approx(-0.1775, abs=1e-12)


def test_hermitize_broken_toy_fails_numerically(tmp_path):
    cfg = write_config(tmp_path, "broken.json", {
        "model": "toy", "theta": 0.0,
        "fixed": {"mu1": 1.0, "mu4": 1.0, "mu3": 0.5}})
    assert cli.main(["hermitize", "-c", cfg]) == 3


# draw 782 of `_hard_family` in tests/test_models.py: c1 = 1e-9 and
# coefficients in the thousands, where a second conjugation of H moved the
# printed h off its certificate (residual 7.6e-10, h's own 2.79e-9)
_HARD_DRAW_THETA = 3.6148225264946863
_HARD_DRAW_C = [
    (1e-09+0j), (17.079143883546294-40.85676224947789j),
    (-5665.464522727676+3533.162182799918j),
    (-3538.6142245662018-5641.979052902989j),
    (19.385292805809605+10.00775791906679j),
    (-10.015046408518977+19.37118508490904j),
    (-775.4987478872794-1440.3629676424637j),
    (779.1148774784793+1429.0604038374581j),
    (2869.4163421142894-1554.608651041886j),
    (1165.0533821076185+333.00048137600726j)]


def test_hermitize_general_prints_the_row_it_certified(tmp_path, capsys):
    fixed = {}
    for k, z in enumerate(_HARD_DRAW_C, 1):
        fixed[f"c{k}"], fixed[f"c{k}_im"] = z.real, z.imag
    cfg = write_config(tmp_path, "hard.json", {
        "model": "general-coeffs", "theta": _HARD_DRAW_THETA,
        "fixed": fixed})
    code, out = run(capsys, ["hermitize", "-c", cfg])
    assert code == 0
    doc = json.loads(out)
    h = models.HamiltonianCoeffs(tuple(
        complex(*doc["h"][f"c{k}"]) for k in range(1, 11)))
    assert doc["certified"] is True
    assert doc["residual"] == np.max(np.abs(
        models.constraint_residuals(h, _HARD_DRAW_THETA)))


def test_hermitize_general_makes_no_engine_conjugation(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("adjoint_poly was called")
    monkeypatch.setattr(cli, "adjoint_poly", forbidden)
    code, out = run(capsys, ["hermitize", "-c",
                             "configs/hermitize_general.json"])
    assert code == 0
    assert json.loads(out)["certified"] is True


# the worked special-choice member is Broken at theta = 4: |coth ratio| = 1/3
_BROKEN_SPECIAL = ["--set", "model=\"pt5-special\"", "--set", "theta=4.0",
                   "--set", "fixed={\"mu1\": 1.0, \"mu2\": 0.0, \"mu3\": 1.0, "
                   "\"mu4\": 2.0, \"mu5\": 1.0, \"mu6\": 1.0, \"mu8\": 0.0}"]
_BROKEN_TOY = ["--set", "model=\"toy\"", "--set", "theta=0.0", "--set",
               "fixed={\"mu1\": 1.0, \"mu4\": 1.0, \"mu3\": 0.5}"]


@pytest.mark.parametrize("argv, reason", [
    (["hermitize", *_BROKEN_SPECIAL],
     "|coth ratio| = 0.3333333333333333 <= 1, lambda is complex"),
    (["spectrum", "-c", "configs/spectrum_fock_pairs.json",
      "--set", "hamiltonian=\"h\"", *_BROKEN_SPECIAL],
     "|coth ratio| = 0.3333333333333333 <= 1, lambda is complex"),
    (["hermitize", *_BROKEN_TOY],
     "|mu3/mu4| <= 1 gives complex lambda "
     "(1.0986122886681098+3.141592653589793j)"),
    (["spectrum", *_BROKEN_TOY],
     "|mu3/mu4| <= 1 gives complex lambda "
     "(1.0986122886681098+3.141592653589793j)"),
])
def test_broken_phase_is_reported_once(argv, reason, capsys):
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"broken phase: {reason}\n"


def test_hermitize_general_model_is_rejected(tmp_path):
    cfg = write_config(tmp_path, "gen.json", {
        "model": "pt5-general", "theta": 1.0,
        "fixed": {"mu1": 1.0, "mu2": 0.0, "mu3": 2.0, "mu4": 1.0, "mu5": 0.0,
                  "mu6": 0.0, "mu7": 0.0, "mu8": 0.0, "mu9": 0.0}})
    assert cli.main(["hermitize", "-c", cfg]) == 2


def test_output_file_and_set_precedence(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main(["classify", "-c", MU3_SWEEP,
                     "--set", "axes.0.steps=3", "-o", str(out), "--workers", "1"])
    assert code == 0
    text = out.read_text()
    assert text.startswith(HEADER)
    assert len(text.strip().split("\n")) == 4      # --set overrode steps=51
    captured = capsys.readouterr()
    assert captured.out == ""                      # CSV went to the file
    assert "sweep.csv" in captured.err


def test_verify_subcommand(capsys, tmp_path):
    code, out = run(capsys, ["verify", "--only", "algebra"])
    assert code == 0
    assert "checks passed" in out
    assert "[PASS]" in out and "[FAIL]" not in out
    # deliberate fault must be caught by exactly the dual-route check
    report = tmp_path / "report.json"
    code, out = run(capsys, ["verify", "--only", "adjoint",
                             "--fault", "adjoint-theta", "--json", str(report)])
    assert code == 1
    assert "adjoint closed-form vs oracle" in out
    doc = json.loads(report.read_text())
    assert doc["fault"] == "adjoint-theta"
    assert not doc["passed"]
    checks = [c for s in doc["suites"] for c in s["checks"]]
    failed = [c for c in checks if not c["passed"]]
    assert [c["name"] for c in failed] == ["adjoint closed-form vs oracle"]
    # the report names the worst draw and generator
    assert failed[0]["detail"] == (
        "worst |closed - oracle| 4.521e-03 over 300 draws; offending draw "
        "292, generator J, lam=-1.7101889819654095, rho=-1.800387825227721, "
        "tau=-1.970946861571265, theta=-1.5974727169230154 "
        "(fault injection active: theta_fault=0.001)")


def test_missing_config_is_a_config_error():
    assert cli.main(["classify", "-c", "no/such/file.json"]) == 2


def test_nan_fixed_parameter_is_a_config_error(capsys):
    code = cli.main(["classify", "-c", MU3_SWEEP, "--set", "fixed.mu4=NaN",
                     "--workers", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "fixed.mu4 must be finite" in captured.err


def test_infinite_theta_is_a_config_error(capsys):
    code = cli.main(["hermitize", "-c", "configs/hermitize_special.json",
                     "--set", "theta=Infinity"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "theta must be finite" in captured.err


def test_nan_theta_spectrum_is_a_config_error(capsys):
    code = cli.main(["spectrum", "-c", "configs/spectrum_fock_pairs.json",
                     "--set", "theta=NaN"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "theta must be finite" in captured.err


def test_integer_beyond_float_range_is_a_config_error(capsys):
    code = cli.main(["hermitize", "-c", "configs/hermitize_special.json",
                     "--set", "theta=" + "9" * 400])
    captured = capsys.readouterr()
    assert code == 2
    assert "theta must be finite" in captured.err


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    def no_parser(*args, **kwargs):
        raise AssertionError("a parser was built")
    monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
    for argv in (["hermitize", "-c", "configs/hermitize_special.json"],
                 ["ep", "-c", "configs/ep_theta_sweep.json"],
                 ["hermitize", "-c", "configs/hermitize_special.json"]):
        assert cli.main(argv) == 0
    assert cli.main(["classify", "-c", THETA_SWEEP, "--workers", "0"]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("value", ["true", "2", "[1]", '{"a": 1}'])
def test_output_key_must_be_a_path(value, capsys, monkeypatch):
    """A non-string `output` used to open a file descriptor (fd 1 for
    true, closing the caller's stdout) or end in a traceback."""
    def no_point(*args, **kwargs):
        raise AssertionError("a point was computed")
    monkeypatch.setattr(cli, "find_exceptional_point", no_point)
    code = cli.main(["ep", "-c", "configs/ep_theta_sweep.json",
                     "--set", f"output={value}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("config error: output must be a path string, "
                            f"got {value}\n")


@pytest.mark.parametrize("value", ['""', "null"])
def test_empty_or_null_output_means_stdout(value, capsys):
    code, out = run(capsys, ["hermitize", "-c",
                             "configs/hermitize_special.json",
                             "--set", f"output={value}"])
    assert code == 0 and json.loads(out)["model"] == "pt5-special"


_EP = "configs/ep_theta_sweep.json"
_FOCK = "configs/spectrum_fock_pairs.json"
_AXIS = '{"name": "mu3", "min": 0, "max": 1, "steps": 2}'


@pytest.mark.parametrize("argv, err", [
    (["classify", "-c", "{tmp}/bad.json"],
     "config error: config {tmp}/bad.json is not valid JSON: Expecting "
     "property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (["classify", "-c", "{tmp}/list.json"],
     "config error: config root must be a JSON object"),
    (["classify", "-c", MU3_SWEEP, "--set", "axes"],
     "config error: --set needs KEY=VALUE, got 'axes'"),
    (["classify", "-c", MU3_SWEEP, "--set", "axes.x.steps=5"],
     "config error: --set 'axes.x.steps=5': 'x' is not a list index"),
    (["classify", "-c", MU3_SWEEP, "--set", "axes.3.steps=5"],
     "config error: --set 'axes.3.steps=5': index 3 out of range"),
    (["classify", "-c", MU3_SWEEP, "--set", "theta.x=1"],
     "config error: --set 'theta.x=1': cannot descend into float"),
    (["classify", "-c", MU3_SWEEP, "--set", 'theta="a"'],
     "config error: theta must be a number, got 'a'"),
    (["classify", "-c", MU3_SWEEP, "--set", "fixed=1"],
     "config error: fixed must be a name -> value object"),
    (["classify", "-c", MU3_SWEEP, "--set", "axes=1"],
     "config error: axes must be a list of one or two sweeps"),
    (["classify", "-c", MU3_SWEEP, "--set", "axes=[1]"],
     "config error: axes[0] must be an object"),
    (["classify", "-c", MU3_SWEEP, "--set", 'axes.0.name="mu77"'],
     "config error: axes[0].name 'mu77' is not sweepable for model "
     "pt5-general"),
    (["classify", "-c", MU3_SWEEP, "--set", f"axes=[{_AXIS}, {_AXIS}]"],
     "config error: duplicate sweep axis 'mu3'"),
    (["spectrum", "-c", _FOCK, "--set", "representation=1"],
     "config error: representation must be an object"),
    (["spectrum", "-c", _FOCK,
      "--set", 'representation={"kind": "x", "dims": 3}'],
     "config error: representation.kind must be fock, planar or circle, "
     "got 'x'"),
    (["spectrum", "-c", _FOCK, "--set", "representation.delta=0"],
     "config error: representation.delta must be a positive integer"),
    (["spectrum", "-c", "configs/spectrum_general_coeffs.json",
      "--set", 'hamiltonian="h"'],
     'config error: hamiltonian must be "H" for general-coeffs'),
    (["spectrum", "-c", _FOCK, "--set", 'hamiltonian="h"'],
     'config error: hamiltonian "h" needs model pt5-special or toy'),
    (["spectrum", "-c", _FOCK, "--set", 'hamiltonian="x"'],
     'config error: hamiltonian must be "H" or "h"'),
    (["ep", "-c", _EP, "--set", "sweep=1"],
     "config error: sweep must be an object {name, min, max}"),
    (["ep", "-c", _EP, "--set", 'sweep.name="mu77"'],
     "config error: sweep.name 'mu77' is not valid for pt5-special"),
    (["verify", "--only", ","], "config error: --only got no suite names"),
    (["verify", "--only", "nosuch"],
     "config error: unknown suite 'nosuch'; known: ('algebra', 'adjoint', "
     "'constraints', 'pt5', 'toy', 'spectral')"),
    (["hermitize", "-c", "configs/hermitize_special.json",
      "-o", "{tmp}/missing/out.json"],
     "io error: [Errno 2] No such file or directory: "
     "'{tmp}/missing/out.json'"),
], ids=["invalid-json", "root-not-object", "set-without-equals",
        "set-list-index", "set-index-range", "set-into-scalar", "not-a-number",
        "fixed-not-object", "axes-not-list", "axis-not-object",
        "axis-not-sweepable", "axis-duplicate", "representation-not-object",
        "representation-kind", "representation-delta", "general-coeffs-h",
        "pt5-general-h", "hamiltonian-neither", "sweep-not-object",
        "sweep-name", "verify-no-names", "verify-unknown-suite",
        "output-missing-directory"])
def test_input_errors_exit_2(argv, err, tmp_path, capsys):
    (tmp_path / "bad.json").write_text("{")
    (tmp_path / "list.json").write_text("[1]")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == err.replace("{tmp}", str(tmp_path)) + "\n"
