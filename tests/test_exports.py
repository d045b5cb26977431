import importlib
import pkgutil

import akzeta


def test_all_exports_resolve():
    modules = [akzeta] + [importlib.import_module(f"akzeta.{info.name}")
                          for info in pkgutil.iter_modules(akzeta.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"
