"""Every name the package and its autodiff core export resolves."""

import pytest

import medlitenet
from medlitenet import autodiff


@pytest.mark.parametrize("module", [medlitenet, autodiff],
                         ids=["medlitenet", "autodiff"])
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)
