"""Every name a module lists in ``__all__`` exists, so ``import *`` works."""

import importlib
import pkgutil

import pytest

import kcusum

MODULES = ["kcusum"] + [
    f"kcusum.{info.name}" for info in pkgutil.iter_modules(kcusum.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
