"""AdamW refuses a step on a non-finite gradient."""

import numpy as np
import pytest

from medlitenet.autodiff import Parameter
from medlitenet.training import AdamW, NumericalError


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_adamw_rejects_non_finite_gradient(bad):
    a = Parameter(np.ones(3, np.float32), name="a")
    b = Parameter(np.ones(2, np.float32), name="b")
    a.grad = np.full(3, 0.5, np.float32)
    b.grad = np.array([0.1, bad], np.float32)
    opt = AdamW([("a", a), ("b", b)], lr=0.1)
    with pytest.raises(NumericalError, match="non-finite gradient in parameter 'b'"):
        opt.step()
    # no weight moved, not even those checked before the bad one
    assert np.array_equal(a.data, np.ones(3, np.float32))
    assert np.array_equal(b.data, np.ones(2, np.float32))
    assert opt.step_count == 0
    b.grad[1] = 0.0
    opt.step()
    assert opt.step_count == 1
    assert (a.data < 1).all()
