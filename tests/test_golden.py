"""Byte-for-byte CLI output on every shipped config and on the `verify
--json` report; a refactor that keeps behaviour keeps these bytes.

Two of the files pass through LAPACK: `spectrum_fock_pairs.json` (`eig`)
and `verify.json` (the spectral checks' details).  They are compared byte
for byte too: `tests/conftest.py` pins BLAS to one thread, and both were
seen byte-identical over repeated runs with one thread and with the
default count."""

from pathlib import Path

import pytest

from deformed_e2 import cli

TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden"
CASES = [("classify", "classify_mu3_sweep.csv"),
         ("classify", "classify_theta_sweep.csv"),
         ("ep", "ep_theta_sweep.json"),
         ("hermitize", "hermitize_special.json"),
         ("spectrum", "spectrum_toy.json"),
         ("spectrum", "spectrum_fock_pairs.json")]


@pytest.mark.parametrize("command, golden", CASES)
def test_config_output_matches_golden(command, golden, tmp_path):
    out = tmp_path / golden
    config = TESTS.parent / "configs" / f"{Path(golden).stem}.json"
    assert cli.main([command, "-c", str(config), "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_verify_report_matches_golden(tmp_path):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "verify.json").read_bytes()
