"""Import layering: the pure-Python layers never reach numpy or the upper layers.

``calculus``, ``amplitudes``, ``errors`` and ``data`` (which owns the count
model) must stay importable without numpy and must not depend on the
sampling layer (``simulation``) or the command line (``cli``).  The check
reads each module's source with :mod:`ast`, so it also catches imports
placed inside functions.
"""

import ast
from pathlib import Path

import pytest

import ctxprob

PACKAGE_DIR = Path(ctxprob.__file__).parent
LOWER_LAYERS = ("calculus", "amplitudes", "errors", "data")
FORBIDDEN = {"numpy", "ctxprob.simulation", "ctxprob.cli"}


def _imported_modules(source: str) -> set[str]:
    """Absolute names of every module a source file imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "ctxprob" + ("." + base if base else "")
            found.add(base)
            # "from . import cli" and "from ctxprob import simulation" name modules too
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def _is_forbidden(module: str) -> bool:
    return any(module == f or module.startswith(f + ".") for f in FORBIDDEN)


@pytest.mark.parametrize("name", LOWER_LAYERS)
def test_lower_layer_imports_neither_numpy_nor_upper_layers(name):
    source = (PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8")
    offending = sorted(m for m in _imported_modules(source) if _is_forbidden(m))
    assert offending == [], f"ctxprob.{name} imports {offending}"


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np",
        "from numpy.random import Generator",
        "from .simulation import CountRow",
        "from . import cli",
        "def f():\n    from ctxprob.simulation import estimate",
    ],
)
def test_detector_flags_each_import_form(source):
    assert any(_is_forbidden(m) for m in _imported_modules(source))
