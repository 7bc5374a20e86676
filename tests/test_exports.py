"""Each public name is declared once, in its module's ``__all__``, resolves from the package root, and has a reader in ``src/`` or is contract."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import krrdeteq

MODULES = sorted(info.name for info in pkgutil.iter_modules(krrdeteq.__path__))
# the modules whose ``__all__`` the package root star-imports
ROOT_MODULES = ("config", "deteq", "estimation", "functionals", "harness", "krr", "spectrum", "sphere")
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(krrdeteq.__file__).resolve().parent


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


# public names with no reader in src/ that are the library's contract: what the README's module
# table names, the closed-form predictions its introduction names, and the solver's certificate and
# evaluation count
CONTRACT = {
    "write_gram_binary", "read_gram_binary", "write_labels_binary", "read_labels_binary",
    "tail_rank", "effective_rank", "train_error", "test_error_monte_carlo", "KrrFit.predict",
    "SphereKernel.cross_gram", "model_to_json", "linear_sweep", "ModelSpec.truncated",
    "DetEquivalents.bias", "DetEquivalents.stieltjes", "DetEquivalents.train", "EffectiveReg.residual",
    "EffectiveReg.evaluations",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    decorators = (dec.func if isinstance(dec, ast.Call) else dec for dec in node.decorator_list)
    return any(isinstance(dec, ast.Name) and dec.id == "dataclass" for dec in decorators)


def _public_members(node: ast.ClassDef):
    """The public methods, properties and (for a dataclass) fields of a class body."""
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            yield item.name
        elif isinstance(item, ast.AnnAssign) and _is_dataclass(node) and isinstance(item.target, ast.Name):
            yield item.target.id


def test_every_public_name_has_a_program_reader():
    """Each public name of a root module, and each public member of its classes, is read in ``src/`` or is contract.

    A module-level name is read through a Name, an import or an attribute of its
    module (``krr.gcv``); a class member only through an attribute, so a local
    variable of the same name does not count.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in trees:
                    names.add(node.attr)
    unread = []
    for name in ROOT_MODULES:
        unread += [attr for attr in module(name).__all__ if attr not in names]
        for node in trees[name].body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                members = [m for m in _public_members(node) if not m.startswith("_")]
                unread += [f"{node.name}.{m}" for m in members if m not in attrs]
    extra = sorted(set(unread) - CONTRACT)
    assert not extra, f"public names with no reader in src/: {extra}"
