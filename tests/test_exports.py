"""Every exported name of the package and of its modules resolves."""

import importlib
import pkgutil

import pytest

import bpskrx

NAMES = ["bpskrx"] + [f"bpskrx.{m.name}" for m in pkgutil.iter_modules(bpskrx.__path__)]
# cli is the command line and declares no __all__
MODULES = [name for name in NAMES if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # raises on a stale __all__ entry
    assert set(importlib.import_module(name).__all__) <= namespace.keys()
