"""Property-based gate for the command-line contract.

Argument vectors come from a grammar over the subcommands, their float and
integer flags (with hostile values: nan, infinities, -0.0, the smallest
subnormal, integers around 2**63 and 2**64, non-numbers and the empty
string), ``--output`` targets and standard input (arbitrary bytes, a
mutated valid count file, or a valid one padded to the 1 MiB input cap or
just past it).  Each vector runs in-process through
``cli.main``.  Whatever the input:

* the exit code is 0, 1, 2 or 3;
* a failure writes exactly one ``error: <kind>: <message>`` line to
  standard error, with the kind that belongs to the exit code;
* a success writes nothing to standard error, except ``simulate``, which
  writes exactly its ``truth`` line;
* no warning is raised.

Every ``--steps`` or ``--replicates`` value the grammar draws is either at
most 1,000 or above the 10**6 cap, which the CLI refuses before allocating,
so no example costs more than a millisecond or two of sampling.
"""

import io
import re
import sys
import warnings

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from ctxprob.cli import main
from ctxprob.data import MAX_INPUT_BYTES

WILD_VALUES = ["nan", "inf", "-inf", "-0.0", "5e-324", str(2**63 - 1), str(2**63), str(2**63 + 1),
               str(2**64 - 1), str(2**64), "1e300", "-1", "-3", "3.5", "3.141592653589793", "abc", ""]
PROBABILITIES = ["0", "0.1", "0.2", "0.25", "0.3", "0.5", "0.9", "1"]

# Each flag draws its value from a slot.  A clean example fills every slot
# from CLEAN, which mostly reaches a result; a wild one fills them from WILD.
CLEAN = {
    "real": st.one_of(st.sampled_from(PROBABILITIES), st.floats(0, 1).map(repr)),
    "int": st.integers(2, 1000).map(str),
    "out": st.sampled_from(["-", "{out}/x.out"]),
    "src": st.sampled_from(["-", "{out}/counts.csv"]),
    "sub": st.none(),  # a triple's --p1 and --p2 are left out
    "lo": st.sampled_from(["-1", "-0.5", "0"]),  # sweep's lambda bounds, in order
    "hi": st.sampled_from(["0.1", "0.5", "1"]),
}
WILD = {
    "real": st.one_of(st.sampled_from(WILD_VALUES), CLEAN["real"]),
    "int": st.one_of(st.sampled_from(WILD_VALUES), st.integers(-3, 1000).map(str)),
    "out": st.sampled_from(["-", "{out}", "{out}/missing/x.out", "{out}/x.out"]),
    "src": st.sampled_from(["-", "{out}/counts.csv", "{out}", "{out}/none.csv"]),
}
WILD["sub"] = WILD["lo"] = WILD["hi"] = WILD["real"]

# name -> (leading arguments, {flag: slot}); a leading argument that names a slot is drawn
_RUN = {"--seed": "int", "--output": "out"}
_TRIPLE = {"--p-s": "real", "--p1p": "real", "--p2p": "real", "--p1": "sub", "--p2": "sub"}
COMMANDS = {
    "analyze-file": (["analyze", "src"], {"--replicates": "int", "--confidence": "real", **_RUN}),
    "analyze-direct": (["analyze"], {**_TRIPLE, **_RUN}),
    "two-slit": (["simulate", "two-slit"],
                 {"--p1": "real", "--p2": "real", "--theta": "real", "--trials": "int", **_RUN}),
    "hyperbolic-urn": (["simulate", "hyperbolic-urn"],
                       {"--p1": "real", "--p2": "real", "--p1p": "real", "--p2p": "real",
                        "--trials": "int", **_RUN}),
    "direct": (["simulate", "direct"], {**_TRIPLE, "--trials": "int", **_RUN}),
    "sweep": (["sweep"], {"--p1p": "real", "--p2p": "real", "--lambda-min": "lo",
                          "--lambda-max": "hi", "--steps": "int", "--output": "out"}),
    "range": (["range"], {"--p1p": "real", "--p2p": "real"}),
    "bare": ([], {}),
}
# Appended now and then: a second count-file source, a flag of the other analyze mode, junk.
STRAYS = ["{out}/counts.csv", "--p-s", "--replicates", "--confidence", "--bogus", "simulate",
          "nonsense", "--", "0.5"]

COUNT_FILES = [
    b"context,successes,trials\nS,900,1000\nS1p,100,1000\nS2p,100,1000\n",
    b"context,successes,trials\nS,120,400\nS1,50,400\nS2,70,400\nS1p,0,400\nS2p,57,400\n",
    b"context,successes,trials\r\nS,9223372036854775807,9223372036854775807\r\n"
    b"S1p,1,9223372036854775807\r\nS2p,0,1\r\n",
]

KIND_CODE = {b"usage": 1, b"parse": 2, b"io": 2, b"inadmissible": 3}
ERROR_LINE = re.compile(rb"error: (usage|parse|io|inadmissible): [^\n]*\n")
TRUTH_LINE = re.compile(rb"truth [^\n]*\n")


@st.composite
def _mutated_count_file(draw) -> bytes:
    data = bytearray(draw(st.sampled_from(COUNT_FILES)))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(b"0123456789,-\n\r#SQp \xff")) if draw(st.booleans()) else None
        if byte is None:
            del data[at:at + 1]
        else:
            data[at:at + draw(st.integers(0, 1))] = bytes([byte])
    return bytes(data)


@st.composite
def _padded_count_file(draw) -> bytes:
    """A valid count file whose last line, a comment, takes it to the cap or just past it."""
    data = draw(st.sampled_from(COUNT_FILES)) + b"#"
    return data.ljust(MAX_INPUT_BYTES + draw(st.integers(0, 2)), b"x")


@st.composite
def invocations(draw):
    """(argv, stdin bytes); ``{out}`` in a path stands for the test's temporary directory."""
    lead, flags = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
    slots = draw(st.sampled_from([CLEAN, WILD]))
    argv = [draw(slots[arg]) if arg in slots else arg for arg in lead]
    for flag, slot in flags.items():
        value = draw(slots[slot])
        if value is not None and draw(st.integers(0, 15)) < 15:  # now and then, leave a flag out
            argv += [flag, value]
    if draw(st.integers(0, 4)) == 4:
        argv += draw(st.lists(st.sampled_from(STRAYS), min_size=1, max_size=2))
    stdin = draw(st.one_of(_mutated_count_file(), st.binary(max_size=200), _padded_count_file()))
    return argv, stdin


def _run(argv, stdin: bytes):
    """Run ``main`` in-process; return (exit code, stderr bytes, warnings raised)."""
    streams = [io.TextIOWrapper(io.BytesIO(b), encoding="utf-8") for b in (stdin, b"", b"")]
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = streams
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
        for stream in streams:
            stream.flush()
    return code, streams[2].buffer.getvalue(), caught


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "counts.csv").write_bytes(COUNT_FILES[1])
    return path


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=invocations())
@example(case=(["analyze", "-", "--confidence", "nan"], COUNT_FILES[0]))
@example(case=(["analyze", "-", "--seed", str(2**64)], COUNT_FILES[0]))
@example(case=(["analyze", "-", "--replicates", "1000"], COUNT_FILES[2]))
@example(case=(["simulate", "direct", "--p-s", "5e-324", "--p1p", "5e-324", "--p2p", "0",
                "--trials", str(2**63 - 1), "--seed", str(2**64 - 1)], b""))
@example(case=(["sweep", "--p1p", "5e-324", "--p2p", "5e-324", "--lambda-min", "-1e300",
                "--lambda-max", "1e300", "--steps", "1000"], b""))
@example(case=(["analyze", "--p-s", "0.5", "--p1p", "0", "--p2p", "0",
                "--output", "{out}/missing/x.out"], b""))
def test_cli_contract_holds_for_any_input(out_dir, case):
    argv, stdin = case
    argv = [arg.replace("{out}", str(out_dir)) for arg in argv]
    code, err, caught = _run(argv, stdin)
    event(f"{argv[0] if argv and argv[0] in ('analyze', 'simulate', 'sweep', 'range') else 'other'}"
          f" exits {code}")
    assert caught == [], [str(w.message) for w in caught]
    assert code in (0, 1, 2, 3)
    if code == 0:
        expected = TRUTH_LINE if argv[:1] == ["simulate"] else re.compile(b"")
        assert expected.fullmatch(err), err
    else:
        match = ERROR_LINE.fullmatch(err)
        assert match, err
        assert KIND_CODE[match.group(1)] == code, err
