"""Every name a safeobench module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import safeobench

MODULES = ["safeobench"] + [
    f"safeobench.{info.name}" for info in pkgutil.iter_modules(safeobench.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
