"""Import layering: the pure-Python layers never reach numpy or the upper layers.

``calculus``, ``amplitudes``, ``errors`` and ``data`` (which owns the count
model) must stay importable without numpy and must not depend on the
sampling layer (``simulation``) or the command line (``cli``).  The check
reads each module's source with :mod:`ast`, so it also catches imports
placed inside functions.  The same ``ast`` walk checks that the 1e-12
round-off slack is written once, as ``calculus.ROUND_OFF``.

At run time, only sampling and the bootstrap load numpy: ``range``,
``sweep`` and direct-mode ``analyze`` run in a fresh interpreter without it.
"""

import ast
import os
import subprocess
import sys
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


def test_one_round_off_literal():
    """The 1e-12 slack is written once, at calculus.ROUND_OFF; every other use names it."""
    places = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e-12
    ]
    assert [name for name, _ in places] == ["calculus.py"], places


# The closed-form subcommands never draw, so they must not pay for importing numpy.
_NUMPY_PROBE = """
import sys
from ctxprob import cli
code = cli.main(sys.argv[1:])
print("numpy-loaded" if "numpy" in sys.modules else "numpy-absent", code, file=sys.stderr)
"""

def _numpy_after_main(argv: list[str]) -> str:
    """Run ``cli.main(argv)`` in a fresh interpreter; report whether numpy got loaded."""
    env = dict(os.environ)
    path = [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stderr.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        ["range", "--p1p", "0.1", "--p2p", "0.1"],
        ["sweep", "--p1p", "0.1", "--p2p", "0.1", "--lambda-min", "-1", "--lambda-max", "4",
         "--steps", "11"],
        ["analyze", "--p-s", "0.9", "--p1p", "0.1", "--p2p", "0.1"],
    ],
    ids=["range", "sweep", "analyze-direct"],
)
def test_closed_form_subcommands_never_import_numpy(argv):
    assert _numpy_after_main(argv) == "numpy-absent 0"


def test_simulate_imports_numpy():
    argv = ["simulate", "direct", "--p-s", "0.9", "--p1p", "0.1", "--p2p", "0.1", "--trials", "100"]
    assert _numpy_after_main(argv) == "numpy-loaded 0"


def test_analyze_of_counts_imports_numpy(tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text("context,successes,trials\nS,900,1000\nS1p,100,1000\nS2p,100,1000\n")
    assert _numpy_after_main(["analyze", str(counts), "--replicates", "10"]) == "numpy-loaded 0"
