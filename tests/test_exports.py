"""Every name a module exports through ``__all__`` exists, so ``import *``
cannot fail on a stale entry."""

import importlib
import pkgutil

import pytest

import dopshift

MODULES = ["dopshift"] + [f"dopshift.{m.name}"
                          for m in pkgutil.iter_modules(dopshift.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
