"""Exports stay in step with the code: no stale name in ``__all__`` or the package."""

import ast
import importlib
import pathlib

import pytest

import cbftk

PACKAGE = pathlib.Path(cbftk.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"cbftk.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"cbftk.{node.module}").__all__
        stale = [alias.name for alias in node.names if alias.name not in exported]
        assert not stale, f"cbftk/__init__.py imports {stale} from {node.module}, not in its __all__"
