"""Byte goldens for the command-line outputs.

Each case runs ``ctxprob.cli.main`` in-process and compares the SHA-256
digest of its standard output (and, for ``simulate``, of the ``truth`` line
on standard error) against a digest captured before the calculus, count
model and regime tags were consolidated.  Any refactor must leave every
digest unchanged.

The only accepted reason to recapture the ``simulate`` digests (and the
``analyze`` digests of the files they produce) is a deliberate bump of
``GENERATOR_NAME``, which changes the random stream on purpose.  Recapture
with ``python tests/test_golden.py``, which prints the current table.
"""

import hashlib
import io
import sys

import pytest

from ctxprob.cli import main

# (name, argv); the direct-mode and grid cases have no randomness.
EXACT_CASES = [
    ("range-trig", ["range", "--p1p", "0.3", "--p2p", "0.2"]),
    ("range-hyper", ["range", "--p1p", "0.1", "--p2p", "0.1"]),
    ("sweep-trig", ["sweep", "--p1p", "0.25", "--p2p", "0.25",
                    "--lambda-min", "-1", "--lambda-max", "1", "--steps", "9"]),
    ("sweep-cross", ["sweep", "--p1p", "0.1", "--p2p", "0.1",
                     "--lambda-min", "-1", "--lambda-max", "4", "--steps", "11"]),
    ("analyze-3", ["analyze", "--p-s", "0.5", "--p1p", "0.3", "--p2p", "0.15"]),
    ("analyze-5", ["analyze", "--p-s", "0.9", "--p1p", "0.1", "--p2p", "0.1",
                   "--p1", "0.4", "--p2", "0.5"]),
    ("analyze-degenerate", ["analyze", "--p-s", "0.5", "--p1p", "0", "--p2p", "0.2"]),
    ("analyze-neg-hyper", ["analyze", "--p-s", "0.1", "--p1p", "0.6", "--p2p", "0.1"]),
]

SIMULATE_CASES = [
    ("sim-two-slit", ["simulate", "two-slit", "--p1", "0.3", "--p2", "0.2",
                      "--theta", "1.0471975511965976", "--trials", "3000", "--seed", "42"]),
    ("sim-urn", ["simulate", "hyperbolic-urn", "--p1", "0.4", "--p2", "0.5",
                 "--p1p", "0.1", "--p2p", "0.1", "--trials", "3000", "--seed", "7"]),
    ("sim-direct-3", ["simulate", "direct", "--p-s", "0.78", "--p1p", "0.2",
                      "--p2p", "0.2", "--trials", "400", "--seed", "3"]),
    ("sim-direct-5", ["simulate", "direct", "--p-s", "0.6", "--p1p", "0.2",
                      "--p2p", "0.15", "--p1", "0.35", "--p2", "0.25",
                      "--trials", "2500", "--seed", "5"]),
]

ANALYZE_SEEDS = ("0", "11")

# A zero S1p proportion: degenerate point, degenerate replicates.
ZERO_PROPORTION_COUNTS = b"context,successes,trials\nS,120,400\nS1p,0,400\nS2p,57,400\n"

GOLDEN = {
    'range-trig': '339daa08528f7560bde2d982aa8440fe319cf63bacfaaac8c0e3c3d7b87bb3ed',
    'range-hyper': '189d0fe66c24f2f5c05b888aa7296e09b6fe0f73d147f2f09ba1234e095a193c',
    'sweep-trig': '7cd289c64d7865edf379317af9ff9bd182f777f806e5adba030fc9941f1b68fc',
    'sweep-cross': 'a91c8fc04dde9e142d9f0a0f6e6de15711421afb73a8e24333f0069b4e5e65f9',
    'analyze-3': 'acd882603e4dc7fa0942f45abe1069de036820f19b41501e49547df42807516b',
    'analyze-5': 'becf381954cf2faa9a4e786e17f37e964e80d9739b20d40b70ab7cbca5614bf5',
    'analyze-degenerate': 'e23494280f973f64fce1a96b6194330885d90d36974744707d10ec4a310e06cf',
    'analyze-neg-hyper': 'a38211293bc0c9ad271a1fe04acd0d48bdf92c751b5de8925fdb431016a0d6d2',
    'sim-two-slit.counts': '3adaca21b6bd8fa5f0dde20cffde5fbe6d8e3ab05bdcbbf1d56652aa237c86b3',
    'sim-two-slit.truth': '990450d17b728ff399493af01ccf21bf2f2760630edebb69cec99f76b8284217',
    'sim-urn.counts': 'b276e7e20ac1b15b2c395e03faca7b720fb982e0d5d9eb7abbf7825708c5f828',
    'sim-urn.truth': 'f725b467f40aa49d880ea850dcdaff715f374bc99451e72932b674ff879b4464',
    'sim-direct-3.counts': 'e5252edac544ab4abded3a3ff43bdd706d96bb956b57a2d8cbb01385b5bc1d48',
    'sim-direct-3.truth': 'fd62a6e2155659ee5949b9e92e8148dfb8c754671e95b2f00da0fb007c51a204',
    'sim-direct-5.counts': '430a8d41ef130c152a685bd7a3b1f976e8a5979a81db9f6b47edb11d9f6e6f51',
    'sim-direct-5.truth': '6acdf64d4f8238c5d40e96bc991a0ba77f2a6638264ec3682188b8d0f2620bf4',
    'zero-proportion.analyze-seed0': 'd041a9a149beaa8c60bbec5cb638a80643f0b17295852e9778e3cd7aec39ba2d',
    'zero-proportion.analyze-seed11': 'f64ac10331ef0c3c46d439ed245da850eca6a5e5b87f5ebc7b1530ca3c91b89c',
    'sim-two-slit.analyze-seed0': 'a5848660c1e7e73255f32e60f22be862db8b8e96f70ff917267d64409daadfd1',
    'sim-two-slit.analyze-seed11': '36500d8454cf202213067a03a1c1ee04c03fab1529ab2183faf4e8334026ca24',
    'sim-urn.analyze-seed0': 'a75975017f61a0a1a600b5d6cdb6545ba8c326869bdcba5e20e4399376a193d2',
    'sim-urn.analyze-seed11': 'bf38ec3c7b7ddd12795e5f9033e74b260c75bcc308e12ef3c3bdd70ca27cc4a8',
    'sim-direct-3.analyze-seed0': '13f74a6216369c742f8138a07a1e94bb98cd01766bcf60abc2923d632a3f6a92',
    'sim-direct-3.analyze-seed11': '6277d2336ce812178785ac2f9ce38387edaefc9fa89a86bb06c1259053de069e',
    'sim-direct-5.analyze-seed0': 'e32ec337a78225f7531913e41670ce37d0833eb94b07406dc296a72fb97d97a2',
    'sim-direct-5.analyze-seed11': '73304db82b64ff8a25e814d305d797c30a21abbb6f98b12a4e545ae9989102f6',
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv, stdin: bytes = b""):
    """Run the CLI in-process, returning (exit code, stdout, stderr) bytes."""
    out = io.BytesIO()
    err = io.BytesIO()
    streams = [io.TextIOWrapper(b, encoding="utf-8") for b in (io.BytesIO(stdin), out, err)]
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = streams
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
        for stream in streams:
            stream.flush()
            stream.detach()
    return code, out.getvalue(), err.getvalue()


def current_digests() -> dict[str, str]:
    """Digest of every golden output, keyed by case name and stream."""
    digests = {}
    for name, argv in EXACT_CASES:
        code, out, err = _run(argv)
        assert code == 0 and err == b"", (name, err)
        digests[name] = _digest(out)
    count_files = [("zero-proportion", ZERO_PROPORTION_COUNTS)]
    for name, argv in SIMULATE_CASES:
        code, out, err = _run(argv)
        assert code == 0 and err.startswith(b"truth ") and err.count(b"\n") == 1, (name, err)
        digests[f"{name}.counts"] = _digest(out)
        digests[f"{name}.truth"] = _digest(err)
        count_files.append((name, out))
    for name, counts in count_files:
        for seed in ANALYZE_SEEDS:
            code, out, err = _run(["analyze", "-", "--seed", seed], stdin=counts)
            assert code == 0 and err == b"", (name, err)
            digests[f"{name}.analyze-seed{seed}"] = _digest(out)
    return digests


@pytest.fixture(scope="module")
def digests():
    return current_digests()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_output_matches_golden(digests, key):
    assert digests[key] == GOLDEN[key]


def test_golden_table_covers_every_case(digests):
    assert set(digests) == set(GOLDEN)


if __name__ == "__main__":
    for key, value in current_digests().items():
        print(f"    {key!r}: {value!r},")
