import importlib
import pkgutil

import pytest

import conic_moduli

MODULES = sorted(m.name for m in pkgutil.iter_modules(conic_moduli.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    # a stale export breaks `from conic_moduli.<name> import *`
    module = importlib.import_module(f"conic_moduli.{name}")
    exported = getattr(module, "__all__", [])
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []
