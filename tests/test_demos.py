"""Byte goldens for the demo scripts.

Each demo in ``demos/`` runs in a fresh interpreter with the package on its
``PYTHONPATH``, and the SHA-256 digest of its standard output must match the
table below.  The recapture rule is ``tests/test_golden.py``'s: only a
deliberate bump of ``GENERATOR_NAME`` may move a digest, and only for the
demos that sample (03 and 04).  Recapture with ``python tests/test_demos.py``,
which prints the current table.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctxprob

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"

# The generator the table was captured with; the recapture prints it too.
GOLDEN_GENERATOR = "philox4x64-counterblock-v3"
GOLDEN = {
    "01_interference_calculus.py": "a20e7e283924ee7f58976c1f6d0f3646ad8ee313c9a4177bf6bc6535706ec13d",
    "02_wave_reconstruction.py": "68501dd8cd6fb5f67941a983f43cd1b39b85f1a1768dcb229fedcda61f47d4f8",
    "03_two_slit_estimation.py": "458d9d0add6e9fe5b85bc6b2b0a067043214b2fc25294fac99795846c8e061be",
    "04_hyperbolic_urn.py": "6aef4707d8ac6b939b1d5dc376b40a1b4a31fb73a423ecbfde63e221c6119fd3",
    "05_correspondence_principle.py": "944d0be060eb8d3dffb6458e8295ff7e76bcc8fe98c6ddcf9b68cbd0c649dfdb",
}


def demo_digest(name: str) -> str:
    """SHA-256 of a demo's standard output; the demo must exit 0 and write no stderr."""
    env = dict(os.environ)
    path = [str(Path(ctxprob.__file__).parent.parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    done = subprocess.run(
        [sys.executable, str(DEMO_DIR / name)], capture_output=True, env=env, timeout=60
    )
    assert done.returncode == 0 and done.stderr == b"", done.stderr
    return hashlib.sha256(done.stdout).hexdigest()


def test_golden_table_covers_every_demo():
    assert sorted(p.name for p in DEMO_DIR.glob("*.py")) == sorted(GOLDEN)


def test_golden_table_was_taken_with_the_current_generator():
    assert GOLDEN_GENERATOR == ctxprob.GENERATOR_NAME


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_output_matches_golden(name):
    assert demo_digest(name) == GOLDEN[name]


if __name__ == "__main__":
    print(f"GOLDEN_GENERATOR = {ctxprob.GENERATOR_NAME!r}")
    for name in sorted(p.name for p in DEMO_DIR.glob("*.py")):
        print(f"    {name!r}: {demo_digest(name)!r},")
