import json

import pytest

from deformed_e2 import cli
from deformed_e2.models import SYMMETRIC, Mu, classify_region


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
    assert float(row[6]) == pytest.approx(-0.518, abs=1e-3)


@pytest.mark.parametrize("axes", [
    [{"name": "mu3", "min": 0.0, "max": 1.0, "steps": 10 ** 18}],
    [{"name": "mu3", "min": 0.0, "max": 1.0, "steps": 1001},
     {"name": "theta", "min": 0.0, "max": 1.0, "steps": 1000}],
])
def test_oversized_grid_is_rejected_before_allocation(axes, capsys,
                                                      monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built")
    monkeypatch.setattr(cli.np, "linspace", no_grid)
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
