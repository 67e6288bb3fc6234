"""Byte goldens for the command-line outputs.

Each case runs ``ctxprob.cli.main`` in-process and compares the SHA-256
digest of its standard output (and, for ``simulate``, of the ``truth`` line
on standard error) against a digest captured before the calculus, count
model and regime tags were consolidated.  Any refactor must leave every
digest unchanged.

The only accepted reason to recapture the ``simulate`` count digests (and
the ``analyze`` digests, which carry ``generator_name`` and, for simulated
files, the counts) is a deliberate bump of ``GENERATOR_NAME``, which changes
the random stream on purpose; ``GOLDEN_GENERATOR`` records the generator the
table was taken with, and a test holds it to the current one.  The
``range``, ``sweep`` and ``truth`` digests never move.  Recapture with
``python tests/test_golden.py``, which prints the current table; the other
draw-dependent tables (``tests/test_demos.py``, ``tests/test_simulation.py``
and ``tests/test_data.py``) print theirs the same way.  They were last
recaptured for ``philox4x64-counterblock-v3``, which keys each seed once and
gives each context its own Philox counter block; every ``analyze`` output
that does not read simulated counts differed from v2 only in
``generator_name``.
"""

import hashlib
import io
import sys

import pytest

from ctxprob.cli import main
from ctxprob.simulation import GENERATOR_NAME

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

# The generator the table was captured with; the recapture prints it too.
GOLDEN_GENERATOR = "philox4x64-counterblock-v3"
GOLDEN = {
    'range-trig': '339daa08528f7560bde2d982aa8440fe319cf63bacfaaac8c0e3c3d7b87bb3ed',
    'range-hyper': '189d0fe66c24f2f5c05b888aa7296e09b6fe0f73d147f2f09ba1234e095a193c',
    'sweep-trig': '7cd289c64d7865edf379317af9ff9bd182f777f806e5adba030fc9941f1b68fc',
    'sweep-cross': 'a91c8fc04dde9e142d9f0a0f6e6de15711421afb73a8e24333f0069b4e5e65f9',
    'analyze-3': '04ebf902b42601ca8d735c45e35fddeb96a41a2ac5b89faa4f20b8f32f935d1a',
    'analyze-5': '36ffd51ea2cbe839ac246425d601276471e88e13d5189e074aacef30bd6e829a',
    'analyze-degenerate': '9a9ca6487c44f32214f29af749fdaf8f0a938b54e99c77a32102941f6af4780a',
    'analyze-neg-hyper': 'abe85ec9a09a71f636dd10a9ef17d429db64368b1623c62c8dd3e112a08129a4',
    'sim-two-slit.counts': 'e91cface63d44fe15e826513b1b46d42a0053ef3bed054757808f7bfca1f7b75',
    'sim-two-slit.truth': '990450d17b728ff399493af01ccf21bf2f2760630edebb69cec99f76b8284217',
    'sim-urn.counts': 'b817846ed66a5021e439a2a0383e54bbbb11207852089ee93b5a62bf1e182f72',
    'sim-urn.truth': 'f725b467f40aa49d880ea850dcdaff715f374bc99451e72932b674ff879b4464',
    'sim-direct-3.counts': 'ded3c9ac5160edd052ac847438138e999a95bac5677bb66f568c6de77eae940d',
    'sim-direct-3.truth': 'fd62a6e2155659ee5949b9e92e8148dfb8c754671e95b2f00da0fb007c51a204',
    'sim-direct-5.counts': '1d615c2b38213b39b0cd4880450903a706d8f1c730359284dca05cce83dec76f',
    'sim-direct-5.truth': '6acdf64d4f8238c5d40e96bc991a0ba77f2a6638264ec3682188b8d0f2620bf4',
    'zero-proportion.analyze-seed0': '24c5ec15bfe8929cbb882b7997ecb97f60344aa62caee4ee58a56ab625020e5e',
    'zero-proportion.analyze-seed11': '4338275e7af2cc380e100e097331ab3a961b8401b99686f3140783fadfcb3c76',
    'sim-two-slit.analyze-seed0': '3b560709b9296a4f2936ee8233310a7cf7487edd094e7289bee7f8a5f4dbe4b3',
    'sim-two-slit.analyze-seed11': '65e6c726e9286261f2448498aa2852c280177f36978988ce17bedc7dc2ecc839',
    'sim-urn.analyze-seed0': '4d6883f4b7ffe2a7df732128ecf4d125a75c506b1c0da07754393dfed77364c2',
    'sim-urn.analyze-seed11': '07a368f2c1d061e8d15283d58c8f92c4924fbfeab9acd369835788d815e45388',
    'sim-direct-3.analyze-seed0': 'fd40235da0e5d3ceec01d7951029197ce6f6ba1571d69a04c30ccc65d4e7db23',
    'sim-direct-3.analyze-seed11': 'c5b8fa468e0bd7aca066bd9d3d4d196a2f81a1d4886b0fd01c8aa57918fdfed2',
    'sim-direct-5.analyze-seed0': 'ac7d33a8d4f5c1940ee94d773282f9ca1112d6ac6e86e98f8628cd3ef179aa11',
    'sim-direct-5.analyze-seed11': '7648e6210973a237f625f71dde8af4225887bd2d7272bdd70ca3d1858da8102e',
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


def test_golden_table_was_taken_with_the_current_generator():
    assert GOLDEN_GENERATOR == GENERATOR_NAME


if __name__ == "__main__":
    print(f"GOLDEN_GENERATOR = {GENERATOR_NAME!r}")
    for key, value in current_digests().items():
        print(f"    {key!r}: {value!r},")
