import json
import math

import pytest

from deformed_e2 import cli

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


def test_spectrum_fock_conjugate_pairs(capsys):
    code, out = run(capsys, ["spectrum", "-c",
                             "configs/spectrum_fock_pairs.json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "ConjugatePairs"
    assert doc["pairs"] >= 1


def test_spectrum_toy_needs_exactly_one_of_lam_mu3(tmp_path):
    cfg = write_config(tmp_path, "toy.json", {
        "model": "toy", "theta": 0.1, "hamiltonian": "h",
        "fixed": {"mu1": 1.0, "mu4": 1.0, "lam": 1.1, "mu3": 2.0}})
    assert cli.main(["spectrum", "-c", cfg]) == 2
    cfg = write_config(tmp_path, "toy2.json", {
        "model": "toy", "theta": 0.1, "hamiltonian": "h",
        "fixed": {"mu1": 1.0, "mu4": 1.0}})
    assert cli.main(["spectrum", "-c", cfg]) == 2


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
    failed = [c["name"] for c in checks if not c["passed"]]
    assert failed == ["adjoint closed-form vs oracle"]


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
