"""Byte goldens for the command-line outputs.

Each case runs ``ctxprob.cli.main`` in-process and compares the SHA-256
digest of its standard output (and, for ``simulate``, of the ``truth`` line
on standard error) against a digest captured before the calculus, count
model and regime tags were consolidated.  Any refactor must leave every
digest unchanged.

The only accepted reason to recapture the ``simulate`` count digests (and
the ``analyze`` digests, which carry ``generator_name`` and, for simulated
files, the counts) is a deliberate bump of ``GENERATOR_NAME``, which changes
the random stream on purpose.  The ``range``, ``sweep`` and ``truth``
digests never move.  Recapture with ``python tests/test_golden.py``, which
prints the current table.  They were last recaptured for
``philox4x64-seedseq-v2``, which draws each context's successes as one
binomial variate; every ``analyze`` output that does not read simulated
counts differed from v1 only in ``generator_name``.
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
    'analyze-3': 'ba24f38689247ee5ecfeec24d16ea0efd17fc2b5e79778b8c22ef5aaccb1cc63',
    'analyze-5': '6b8aa51868fb16f965adacf8ffaae0367fa9c534dfe4a6ce3798f6973c8456b3',
    'analyze-degenerate': 'f7a2c94fb16328d2c07eb38bdc149b9c8d06cae4ad59b7c60f513f0b5161cba8',
    'analyze-neg-hyper': '435487e19d96343d0f97598e68ca888a2346eb161e6a957461c12f1169bd65c0',
    'sim-two-slit.counts': '716400d144fb29118f4a2e5ae61a2a611077b0ca745ac0dfe9790b447d9a10d4',
    'sim-two-slit.truth': '990450d17b728ff399493af01ccf21bf2f2760630edebb69cec99f76b8284217',
    'sim-urn.counts': '379b4e9b43eb3e7215dabf9cb0a736cca9412d136319d5b4767cf8fd4febf56c',
    'sim-urn.truth': 'f725b467f40aa49d880ea850dcdaff715f374bc99451e72932b674ff879b4464',
    'sim-direct-3.counts': 'c7e081b1f016e18a23691ae7465e98647382eb05f786b94c538caf7d0cfac2b6',
    'sim-direct-3.truth': 'fd62a6e2155659ee5949b9e92e8148dfb8c754671e95b2f00da0fb007c51a204',
    'sim-direct-5.counts': '221d3eeed2a0d5e34f77e28bf47aab6c06589bb6110317571550bfdbfe3b436a',
    'sim-direct-5.truth': '6acdf64d4f8238c5d40e96bc991a0ba77f2a6638264ec3682188b8d0f2620bf4',
    'zero-proportion.analyze-seed0': '09a003ddc93757bd860940998cbdeade7b7b1e9375fc065e5818aab86f71ad18',
    'zero-proportion.analyze-seed11': '2405a04fed290a9293f49c08008ffd0d6a43e8f3d69606d95e83fe0f4c5bc1db',
    'sim-two-slit.analyze-seed0': 'e59c501697984d91cf636b6c3ce612c68dd12a20de12b66ee87b7b21272b176c',
    'sim-two-slit.analyze-seed11': 'ac048c2bc886cadf99cee4b8dd7d7651c2bf129c542c67883f1e64d77bc4b961',
    'sim-urn.analyze-seed0': 'd9994d2c995968197aa619899b08a05a1f1d763a039d23df26f61613c73dada3',
    'sim-urn.analyze-seed11': '86af74d060b66a7a8fd1f6c2b8e768df748ee25d07b3aa67b102aa6c3e95cc29',
    'sim-direct-3.analyze-seed0': 'b1298f5f7a0ce88787b1194cd9df95c8397c47399e4b3c14985c7f1ad7fa5443',
    'sim-direct-3.analyze-seed11': 'dd9b3d75956c1533abbdeaad465fae673e0a0645152dfce8d9bf13e3bf403bf7',
    'sim-direct-5.analyze-seed0': 'cbca75e8eef3e75ed35099ba870e0c22d059e841b25a752a21597a0af1b64a2d',
    'sim-direct-5.analyze-seed11': '9f97efd75838feb8c20918f93f01dee31b30409611676f35fd3a6794855acc2e',
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
