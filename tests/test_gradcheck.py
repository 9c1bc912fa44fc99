"""The finite-difference gradient suites run as part of the test suite."""

import numpy as np
import pytest

from medlitenet import autodiff as ad, gradcheck
from medlitenet.autodiff import Tensor


@pytest.mark.parametrize("scope", ["ops", "blocks", "model"])
def test_scope_passes(scope):
    checks = gradcheck.run_scope(scope)
    failed = {name: report.max_rel_err for name, report in checks if not report.passed}
    assert checks
    assert not failed


def _corrupted_identity(t: Tensor) -> Tensor:
    # deliberately wrong backward; exists to prove the harness catches errors
    out = Tensor(t.data.copy())
    return ad._record("corrupted_identity", out, (t,), lambda g: (g * 1.05,))


def test_injected_error_is_caught():
    rng = np.random.default_rng(99)
    x = gradcheck._rand(rng, (3, 4))
    w = gradcheck._weigher(rng, (3, 4))

    def check(f):
        return gradcheck.finite_diff_gradcheck(
            lambda t: w(f(ad.sigmoid(t))), x, tol=gradcheck.DEFAULT_TOLS["ops"])

    assert check(lambda t: t).passed
    assert not check(_corrupted_identity).passed
