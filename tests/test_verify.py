import pytest

from deformed_e2.verify import CHECKS, run_check


@pytest.mark.parametrize("check", CHECKS,
                         ids=[f"{c.suite}: {c.name}" for c in CHECKS])
def test_registry_check(check):
    result = run_check(check)
    assert result.passed, result.detail
