"""Byte-for-byte CLI output on the shipped configs whose results do not
pass through LAPACK; a refactor that keeps behaviour keeps these bytes."""

from pathlib import Path

import pytest

from deformed_e2 import cli

TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden"
CASES = [("classify", "classify_mu3_sweep.csv"),
         ("classify", "classify_theta_sweep.csv"),
         ("ep", "ep_theta_sweep.json"),
         ("hermitize", "hermitize_special.json"),
         ("spectrum", "spectrum_toy.json")]


@pytest.mark.parametrize("command, golden", CASES)
def test_config_output_matches_golden(command, golden, tmp_path):
    out = tmp_path / golden
    config = TESTS.parent / "configs" / f"{Path(golden).stem}.json"
    assert cli.main([command, "-c", str(config), "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
