"""Import hygiene of the package: every name a module imports is used there."""

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


@pytest.mark.parametrize("stem", MODULES)
def test_every_imported_name_is_used_or_exported(stem):
    tree = ast.parse((PACKAGE / ("%s.py" % stem)).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    name = "robustpca" if stem == "__init__" else "robustpca." + stem
    exported = set(getattr(importlib.import_module(name), "__all__", ()))
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used and name not in exported}
    assert not unused, "imported but neither used nor in __all__ (name: line): %r" % unused
