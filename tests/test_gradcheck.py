"""The finite-difference gradient suites run as part of the test suite."""

import pytest

from medlitenet import gradcheck


@pytest.mark.parametrize("scope", ["ops", "blocks", "model"])
def test_scope_passes(scope):
    checks = gradcheck.run_scope(scope)
    failed = {name: report.max_rel_err for name, report in checks if not report.passed}
    assert checks
    assert not failed


def test_injected_error_is_caught():
    checks = dict(gradcheck.run_scope("ops", inject_error=True))
    assert not checks.pop("corrupted_gradient_hook").passed
    assert all(report.passed for report in checks.values())
