"""Import hygiene of the package: every name a module imports is used there,
and every name a module exports is defined there."""

import ast
import importlib
from pathlib import Path

import pytest

import robustpca

PACKAGE = Path(robustpca.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def imported_names(tree):
    """``{name: line}`` of every name an import statement binds, ``*`` aside."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    # ``import a.b`` binds ``a``
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def defined_names(tree):
    """Names the module's top-level ``def``, ``class`` and assignments bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("stem", MODULES)
def test_every_imported_name_is_used_or_exported(stem):
    tree = ast.parse((PACKAGE / ("%s.py" % stem)).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    name = "robustpca" if stem == "__init__" else "robustpca." + stem
    exported = set(getattr(importlib.import_module(name), "__all__", ()))
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used and name not in exported}
    assert not unused, "imported but neither used nor in __all__ (name: line): %r" % unused


# __init__ republishes the modules' names, so it defines none of them
@pytest.mark.parametrize("stem", [stem for stem in MODULES if stem != "__init__"])
def test_every_exported_name_is_defined_here(stem):
    tree = ast.parse((PACKAGE / ("%s.py" % stem)).read_text())
    exported = getattr(importlib.import_module("robustpca." + stem), "__all__", ())
    foreign = sorted(set(exported) - defined_names(tree))
    assert not foreign, "in __all__ but defined in another module: %r" % foreign
