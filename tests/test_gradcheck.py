"""The finite-difference gradient suites run as part of the test suite."""

import ast
import inspect

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


def test_ops_suite_records_every_op_autodiff_records(monkeypatch):
    tree = ast.parse(inspect.getsource(ad))
    recorded_ops = {node.args[0].value for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_record"}
    seen = set()
    real = ad._record

    def record(op, *args):
        seen.add(op)
        return real(op, *args)

    monkeypatch.setattr(ad, "_record", record)
    gradcheck.ops_suite()
    assert {"matmul", "conv2d", "batchnorm2d"} <= recorded_ops
    assert recorded_ops - seen == set()
