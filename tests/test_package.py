"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import gradedgeo

MODULES = ["gradedgeo"] + [
    f"gradedgeo.{info.name}" for info in pkgutil.iter_modules(gradedgeo.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    mod = importlib.import_module(name)
    assert [public for public in mod.__all__ if not hasattr(mod, public)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(mod.__all__) <= set(namespace)
