"""Every exported name resolves: each module's ``__all__`` and the package's imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import krrdeteq

MODULES = sorted(info.name for info in pkgutil.iter_modules(krrdeteq.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"krrdeteq.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(krrdeteq.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"krrdeteq.{node.module}")
        for alias in node.names:
            assert getattr(krrdeteq, alias.asname or alias.name) is getattr(module, alias.name)
