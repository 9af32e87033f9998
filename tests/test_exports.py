"""Every name a module exports through ``__all__`` exists, so ``import *``
cannot fail on a stale entry, and every error type is still raised."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dopshift
from dopshift import errors

MODULES = ["dopshift"] + [f"dopshift.{m.name}"
                          for m in pkgutil.iter_modules(dopshift.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_every_error_class_is_raised():
    """Each ``DopshiftError`` subclass in ``errors`` appears in a ``raise``
    in the package, so no error type outlives the code that raised it."""
    raised = set()
    for path in Path(dopshift.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj is not errors.DopshiftError
               and issubclass(obj, errors.DopshiftError)}
    assert sorted(defined - raised) == []
