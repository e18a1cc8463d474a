"""Every name a module exports in __all__ exists in it."""

import importlib
import pkgutil

import pytest

import szpirolab

MODULES = sorted(
    f"szpirolab.{info.name}" for info in pkgutil.iter_modules(szpirolab.__path__)
)


def test_modules_found():
    assert "szpirolab.families" in MODULES and "szpirolab.sweeps" in MODULES


@pytest.mark.parametrize("modname", MODULES)
def test_all_entries_resolve(modname):
    module = importlib.import_module(modname)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == [], modname
