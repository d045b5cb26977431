import ast
import importlib
import pkgutil
from pathlib import Path

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


def _unused_imports(source: str) -> set[str]:
    """Names a module imports but neither uses nor lists in its __all__."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return imported - used


def test_modules_import_only_what_they_use():
    assert _unused_imports("from dataclasses import dataclass\nimport math\nmath.pi") == {"dataclass"}
    assert not _unused_imports("from .a import f\n__all__ = ['f']")
    for path in sorted(Path(akzeta.__file__).parent.glob("*.py")):
        unused = _unused_imports(path.read_text())
        assert not unused, f"{path.name} imports {sorted(unused)} but never uses them"
