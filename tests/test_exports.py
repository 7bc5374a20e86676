"""Each public name is declared once, in its module's ``__all__``, and resolves from the package root."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import krrdeteq

MODULES = sorted(info.name for info in pkgutil.iter_modules(krrdeteq.__path__))
# the modules whose ``__all__`` the package root star-imports
ROOT_MODULES = ("deteq", "estimation", "functionals", "harness", "krr", "spectrum", "sphere")
README = Path(__file__).resolve().parents[1] / "README.md"


def module(name):
    return importlib.import_module(f"krrdeteq.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_imports_resolve():
    """Every name in a root module's ``__all__`` is the same object at ``krrdeteq.<name>``."""
    for name in ROOT_MODULES:
        mod = module(name)
        for attr in mod.__all__:
            assert getattr(krrdeteq, attr, None) is getattr(mod, attr), f"{name}.{attr}"


def test_each_name_declared_once():
    owner = {}
    for name in MODULES:
        for attr in getattr(module(name), "__all__", ()):
            assert attr not in owner, f"{attr} is in the __all__ of both {owner[attr]} and {name}"
            owner[attr] = name


@pytest.mark.parametrize("name", MODULES)
def test_error_types_are_public(name):
    """Every exception a module defines can be caught by importing it from that module's ``__all__``."""
    mod = module(name)
    errors = [
        attr
        for attr, obj in vars(mod).items()
        if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == mod.__name__
    ]
    assert [e for e in errors if e not in getattr(mod, "__all__", ())] == []


def test_readme_imports():
    statements = re.findall(r"^from krrdeteq import (?:\([^)]*\)|.*)$", README.read_text(), re.MULTILINE)
    assert len(statements) >= 2
    for statement in statements:
        exec(statement, {})
