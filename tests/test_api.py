"""Tests for the package's public names."""

import importlib
import pkgutil

import pytest

import qot

MODULES = ["qot"] + [f"qot.{m.name}" for m in pkgutil.iter_modules(qot.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_top_level_exports_are_unique():
    assert len(qot.__all__) == len(set(qot.__all__))
