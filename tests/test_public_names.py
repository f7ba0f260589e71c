"""Every public name a stochheat module lists in `__all__` resolves."""

import importlib
import pkgutil

import pytest

import stochheat

MODULES = [importlib.import_module(f"stochheat.{info.name}")
           for info in pkgutil.iter_modules(stochheat.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_entries_resolve(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)
