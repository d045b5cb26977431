import importlib
import pkgutil

import pytest

import akzeta


def test_all_exports_resolve():
    modules = [akzeta] + [importlib.import_module(f"akzeta.{info.name}")
                          for info in pkgutil.iter_modules(akzeta.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"


def test_lazy_exports_are_the_submodule_objects(monkeypatch):
    # drop the names earlier accesses cached, so each one loads again
    for name in akzeta._EXPORTS:
        monkeypatch.delitem(vars(akzeta), name, raising=False)
    assert set(akzeta.__all__) <= set(dir(akzeta))
    assert akzeta.verify is akzeta.identities.verify
    for name, module in akzeta._EXPORTS.items():
        assert getattr(akzeta, name) is getattr(importlib.import_module(f"akzeta.{module}"), name)
    with pytest.raises(AttributeError, match="no_such_name"):
        akzeta.no_such_name
