"""Every name a package lists in __all__ exists on it."""

import importlib

import pytest

PACKAGES = (
    "fracspec",
    "fracspec.cantor",
    "fracspec.geometry",
    "fracspec.fourier",
    "fracspec.tauberian",
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
