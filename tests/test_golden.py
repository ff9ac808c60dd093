"""Byte-for-byte CLI output on every shipped config and on the `verify
--json` report; a refactor that keeps behaviour keeps these bytes.

Six of the files pass through LAPACK: the four fock and planar
`spectrum_*.json` (fock pairs and planar take numpy's `eigvals` on the real
route of `real_gauge`, planar as one stack of fock Casimir sectors per
truncation, general-coeffs on the complex route, and hermitian, the worked
member's Hermitian counterpart, takes `eigvalsh`), `hermitize_general.json`
(the solver's colleague-matrix `eigvals` and Gauss-Newton `lstsq`) and
`verify.json` (the spectral checks' details).  They are compared byte for
byte too: `tests/conftest.py` pins BLAS to one thread, and each was seen
byte-identical with one thread and with two.

The in-process runs follow tests that have already imported scipy; the
fresh-process runs start as a CLI call does, and no shipped config may
import scipy.linalg or scipy.optimize there: every data command gets its
eigenvalues from numpy, and scipy stands only behind `verify`'s oracles."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from deformed_e2 import cli

TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden"
CASES = [("classify", "classify_mu3_sweep.csv"),
         ("classify", "classify_theta_sweep.csv"),
         ("classify", "classify_deformed_sweep.csv"),
         ("classify", "classify_deformed_grid.csv"),
         ("ep", "ep_theta_sweep.json"),
         ("hermitize", "hermitize_special.json"),
         ("hermitize", "hermitize_general.json"),
         ("spectrum", "spectrum_toy.json"),
         ("spectrum", "spectrum_fock_pairs.json"),
         ("spectrum", "spectrum_planar.json"),
         ("spectrum", "spectrum_general_coeffs.json"),
         ("spectrum", "spectrum_hermitian.json")]


def test_configs_goldens_cases_and_ci_loop_agree():
    """Every shipped config has a golden and a CASES entry, every golden
    but verify.json has a config, and the CI cold-start loop runs every
    CASES entry."""
    root = TESTS.parent
    configs = sorted(p.stem for p in (root / "configs").glob("*.json"))
    goldens = sorted(p.name for p in GOLDEN.iterdir()
                     if p.name != "verify.json")
    assert sorted(Path(g).stem for g in goldens) == configs
    assert sorted(g for _, g in CASES) == goldens
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    loop = re.search(r"for run in ([^;]*); do", workflow).group(1).split()
    assert sorted(tuple(run.split(":")) for run in loop) == sorted(CASES)


@pytest.mark.parametrize("command, golden", CASES)
def test_config_output_matches_golden(command, golden, tmp_path):
    out = tmp_path / golden
    config = TESTS.parent / "configs" / f"{Path(golden).stem}.json"
    assert cli.main([command, "-c", str(config), "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_multi_block_golden_with_a_worker_pool(tmp_path):
    # 1,600 rows in 7 blocks, mapped over two worker processes
    out = tmp_path / "grid.csv"
    config = TESTS.parent / "configs" / "classify_deformed_grid.json"
    assert cli.main(["classify", "-c", str(config), "-o", str(out),
                     "--workers", "2"]) == 0
    assert out.read_bytes() == (GOLDEN / "classify_deformed_grid.csv"
                                ).read_bytes()


def test_verify_report_matches_golden(tmp_path):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "verify.json").read_bytes()


@pytest.mark.parametrize("command, golden", CASES)
def test_fresh_process_output_matches_golden(command, golden, tmp_path):
    out = tmp_path / golden
    config = TESTS.parent / "configs" / f"{Path(golden).stem}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS.parent / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "deformed_e2.cli",
         command, "-c", str(config), "-o", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert not imported & {"scipy.linalg", "scipy.optimize"}


@pytest.mark.parametrize("which", ["H", "h"])
@pytest.mark.parametrize("dims", [14, 20])
def test_planar_spectrum_bytes_do_not_depend_on_the_thread_count(
        which, dims, tmp_path):
    # the worked member at theta 12 on planar 14 and 20, where the grid's
    # eig and eigvalsh gave different last bits at 1 and 2 BLAS threads;
    # its Casimir sectors do not
    config = TESTS.parent / "configs" / "spectrum_hermitian.json"
    rep = json.dumps({"kind": "planar", "dims": dims})
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(TESTS.parent / "src")]
            + [p for p in [env.get("PYTHONPATH")] if p])
        out = tmp_path / f"{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "deformed_e2.cli", "spectrum",
             "-c", str(config), "--set", f'hamiltonian="{which}"',
             "--set", f"representation={rep}", "-o", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
