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

GOLDEN = {
    "01_interference_calculus.py": "a20e7e283924ee7f58976c1f6d0f3646ad8ee313c9a4177bf6bc6535706ec13d",
    "02_wave_reconstruction.py": "68501dd8cd6fb5f67941a983f43cd1b39b85f1a1768dcb229fedcda61f47d4f8",
    "03_two_slit_estimation.py": "160405467f8e5d6d176c26fc69957d02b26c65d85757f5f8be5e836857f1804a",
    "04_hyperbolic_urn.py": "7e609b16deb18bcdd893665811517a50ceaa3622629573086d6299af0b317aee",
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_output_matches_golden(name):
    assert demo_digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(p.name for p in DEMO_DIR.glob("*.py")):
        print(f"    {name!r}: {demo_digest(name)!r},")
