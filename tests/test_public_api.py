"""Every exported name resolves: deletions must not leave stale exports."""

import importlib
import pkgutil

import pytest

import lorentzk

MODULES = [lorentzk] + [
    importlib.import_module(f"lorentzk.{info.name}") for info in pkgutil.iter_modules(lorentzk.__path__)
]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"

