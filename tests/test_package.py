"""Package layout: every name a module exports in ``__all__`` exists.

A stale entry breaks ``from masshist.<module> import *`` for every
caller, so it should fail here first.
"""

import importlib
import pkgutil

import pytest

import masshist

MODULES = sorted(f"masshist.{info.name}"
                 for info in pkgutil.iter_modules(masshist.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
