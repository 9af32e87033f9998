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


MEDIA = {"NonDispersive", "ColdPlasma", "LorentzMetamaterial"}
WORLD_LINES = {"StraightLine", "CustomTrajectory"}


def _kind_tests(tree, kinds):
    """Calls that pick code by the kind: ``isinstance`` against a class in
    kinds, or ``getattr`` of a named attribute on a model."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and len(node.args) >= 2):
            continue
        first, second = node.args[:2]
        classes = second.elts if isinstance(second, ast.Tuple) else [second]
        if node.func.id == "isinstance" and any(
                getattr(c, "id", getattr(c, "attr", None)) in kinds
                for c in classes):
            yield node
        elif node.func.id == "getattr" and isinstance(second, ast.Constant) \
                and getattr(first, "id", None) == "model":
            yield node


def _sites_outside(kinds, functions):
    """file:line of each test of the kind in the package outside the named
    functions."""
    sites = []
    for path in sorted(Path(dopshift.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef)
                   and func.name in functions
                   for node in ast.walk(func)}
        sites += [f"{path.name}:{node.lineno}"
                  for node in _kind_tests(tree, kinds)
                  if id(node) not in allowed]
    return sites


def test_each_medium_holds_its_formulas():
    """No code outside the medium classes tests which medium it has, so a
    new term of a medium goes into its class alone.  The one exception is
    ``fields.cherenkov_solve``: a non-dispersive medium's stationary set is
    a line, which needs another algorithm, not another formula."""
    assert _sites_outside(MEDIA, {"cherenkov_solve"}) == []


def test_each_world_line_holds_its_state():
    """No code outside the world-line classes tests which kind it has to
    get a position or a derivative: each kind's ``_state`` gives them.
    Three functions test the kind to pick an algorithm: ``default_seed``
    (bisection off a line), ``solve_line`` (needs a line) and
    ``moving_source_fields`` (a seed grid off a line)."""
    assert _sites_outside(WORLD_LINES, {"default_seed", "solve_line",
                                        "moving_source_fields"}) == []
