"""Every name a module lists in ``__all__`` resolves, so a deleted name
cannot stay listed."""

import importlib
import pkgutil

import pytest

import switchopt

MODULES = sorted(m.name for m in pkgutil.iter_modules(switchopt.__path__))


@pytest.mark.parametrize("name", ["switchopt"] + [f"switchopt.{m}" for m in MODULES])
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", ())
    assert len(set(listed)) == len(listed), f"{name}.__all__ repeats a name"
    assert [n for n in listed if not hasattr(module, n)] == []
