"""Every name a package lists in __all__ exists on it, and the program uses it."""

import ast
import importlib
from pathlib import Path

import pytest

import fracspec

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


def used_names() -> set:
    """Names loaded or read as attributes in the modules of fracspec other
    than the package __init__ files.  A definition (def, class, or an
    assignment target) is not a use, and neither is an import."""
    used = set()
    for path in Path(fracspec.__file__).parent.rglob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_are_used(name):
    """An export that no module of the program uses is library code only
    tests reach: wire it into an experiment or criterion, or delete it."""
    used = used_names()
    unused = [export for export in importlib.import_module(name).__all__ if export not in used]
    assert unused == []
