import hashlib
import json
import math
import os
import random
import re
import stat
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxprob.calculus import (
    ContextTriple,
    Degenerate,
    DegenerateReason,
    Hyperbolic,
    Trigonometric,
    classify,
)
from ctxprob.data import (
    CONTEXT_LABELS,
    COUNTS_HEADER,
    MAX_INPUT_BYTES,
    SCHEMA_VERSION,
    AdditivityCheck,
    ContextSummary,
    CountRow,
    CountTable,
    ParseErrorKind,
    ReportDocument,
    Reproducibility,
    WaveSummary,
    additivity_check,
    context_probabilities,
    parse_counts,
    parse_report,
    write_bytes_atomic,
    write_counts,
    write_report,
)
from ctxprob.errors import DegenerateVariance, ParseError
from ctxprob.simulation import GENERATOR_NAME, report_from_counts, report_from_triple

GOOD = "context,successes,trials\nS,9,10\nS1p,1,10\nS2p,1,10\n"

# Frozen from an independent arithmetic oracle:
# z = 0.7 / sqrt(3 * 0.9*0.1/1000) = 42.60064336151292
GOLDEN_Z = 42.60064336151292


def _table(*rows):
    return CountTable(tuple(CountRow(*r) for r in rows))


class TestParseCounts:
    def test_basic_file(self):
        cf = parse_counts(GOOD, source="good.csv")
        assert cf.source == "good.csv"
        assert cf.table.proportion("S") == 0.9
        assert cf.table.proportion("S1p") == 0.1
        assert cf.line_numbers == {"S": 2, "S1p": 3, "S2p": 4}

    def test_accepts_bytes_crlf_comments_and_blanks(self):
        text = "# experiment 7\r\ncontext,successes,trials\r\n\r\nS,9,10\r\nS1p,1,10\r\nS2p,1,10\r\n"
        cf = parse_counts(text.encode("utf-8"))
        assert cf.table.labels == ("S", "S1p", "S2p")
        assert cf.line_numbers["S"] == 4

    def test_rows_in_any_order(self):
        cf = parse_counts("context,successes,trials\nS2p,1,10\nS,9,10\nS1p,1,10\n")
        assert cf.table.labels == ("S", "S1p", "S2p")

    def test_all_zero_successes_is_valid(self):
        cf = parse_counts("context,successes,trials\nS,0,10\nS1p,0,10\nS2p,0,10\n")
        assert cf.table.proportion("S1p") == 0.0

    @pytest.mark.parametrize(
        "text,line,kind",
        [
            ("context;successes;trials\nS,9,10", 1, ParseErrorKind.BAD_HEADER),
            ("context,successes,trials\nS,11,10", 2, ParseErrorKind.SUCCESSES_EXCEED_TRIALS),
            ("context,successes,trials\nS,9", 2, ParseErrorKind.MALFORMED_ROW),
            ("context,successes,trials\nS,9,10,extra", 2, ParseErrorKind.MALFORMED_ROW),
            ("context,successes,trials\nQ,9,10", 2, ParseErrorKind.UNKNOWN_LABEL),
            ("context,successes,trials\nS,nine,10", 2, ParseErrorKind.BAD_INTEGER),
            ("context,successes,trials\nS,-1,10", 2, ParseErrorKind.BAD_INTEGER),
            ("context,successes,trials\nS,9,0", 2, ParseErrorKind.ZERO_TRIALS),
            (
                "context,successes,trials\nS,9,10\nS,8,10",
                3,
                ParseErrorKind.DUPLICATE_LABEL,
            ),
            # missing labels are discovered at end of input (line 4 is EOF here)
            ("context,successes,trials\nS,9,10\nS1p,1,10\n", 4, ParseErrorKind.MISSING_LABELS),
            ("", 1, ParseErrorKind.BAD_HEADER),
        ],
    )
    def test_errors_carry_line_and_kind(self, text, line, kind):
        with pytest.raises(ParseError) as excinfo:
            parse_counts(text)
        assert excinfo.value.kind is kind
        assert excinfo.value.line == line

    def test_invalid_utf8(self):
        with pytest.raises(ParseError) as excinfo:
            parse_counts(b"context,successes,trials\nS,9,\xff10")
        assert excinfo.value.kind is ParseErrorKind.ENCODING
        assert excinfo.value.line == 2


class TestWriteCounts:
    def test_canonical_form(self):
        table = _table(("S2p", 1, 10), ("S", 9, 10), ("S1p", 1, 10))
        assert write_counts(table) == b"context,successes,trials\nS,9,10\nS1p,1,10\nS2p,1,10\n"

    @given(
        labels=st.sampled_from([("S", "S1p", "S2p"), ("S", "S1", "S2", "S1p", "S2p")]),
        seeds=st.lists(st.tuples(st.integers(0, 100), st.integers(1, 100)), min_size=5, max_size=5),
    )
    def test_round_trip(self, labels, seeds):
        rows = []
        for label, (successes, trials) in zip(labels, seeds):
            rows.append(CountRow(label, min(successes, trials), trials))
        table = CountTable(tuple(rows))
        assert parse_counts(write_counts(table)).table == table


class TestAdditivityCheck:
    def test_exactly_additive(self):
        table = _table(("S", 900, 1000), ("S1", 400, 1000), ("S2", 500, 1000), ("S1p", 1, 10), ("S2p", 1, 10))
        result = additivity_check(table)
        assert result.z_statistic == 0.0
        assert result.consistent

    def test_golden_inconsistent_case(self):
        table = _table(("S", 900, 1000), ("S1", 100, 1000), ("S2", 100, 1000), ("S1p", 1, 10), ("S2p", 1, 10))
        result = additivity_check(table)
        assert result.z_statistic == pytest.approx(GOLDEN_Z, abs=1e-9)
        assert abs(result.z_statistic) > 3
        assert not result.consistent

    def test_absent_without_subcontext_rows(self):
        assert additivity_check(_table(("S", 9, 10), ("S1p", 1, 10), ("S2p", 1, 10))) is None

    def test_symmetric_in_row_order(self):
        a = parse_counts(
            "context,successes,trials\nS,900,1000\nS1,100,1000\nS2,150,1000\nS1p,1,10\nS2p,1,10\n"
        )
        b = parse_counts(
            "context,successes,trials\nS2,150,1000\nS1,100,1000\nS,900,1000\nS1p,1,10\nS2p,1,10\n"
        )
        assert additivity_check(a.table) == additivity_check(b.table)

    def test_degenerate_variance(self):
        table = _table(("S", 10, 10), ("S1", 10, 10), ("S2", 10, 10), ("S1p", 1, 10), ("S2p", 1, 10))
        with pytest.raises(DegenerateVariance):
            additivity_check(table)

    def test_zero_variance_but_consistent(self):
        table = _table(("S", 10, 10), ("S1", 10, 10), ("S2", 0, 10), ("S1p", 1, 10), ("S2p", 1, 10))
        result = additivity_check(table)
        assert result.z_statistic == 0.0
        assert result.consistent


def _minimal_doc(**overrides):
    base = dict(
        schema_version=SCHEMA_VERSION,
        inputs={
            "S": ContextSummary(p_hat=0.9, successes=9, trials=10, interval=(0.6, 1.0)),
            "S1p": ContextSummary(p_hat=0.1, successes=1, trials=10, interval=(0.0, 0.3)),
            "S2p": ContextSummary(p_hat=0.1, successes=1, trials=10, interval=(0.0, 0.3)),
        },
        delta=0.7,
        lam=3.5,
        regime=Hyperbolic(sign=1, theta=math.acosh(3.5)),
        lambda_interval=(2.0, 5.0),
        regime_stability=0.99,
        additivity=None,
        wave=WaveSummary(kind="split-complex", components=(1.42, 1.06)),
        reproducibility=Reproducibility(seed=42, replicates=1000, generator_name="philox4x64-seedseq-v1"),
    )
    base.update(overrides)
    return ReportDocument(**base)


class TestReportDocument:
    def test_degenerate_serializes_null_lambda(self):
        doc = _minimal_doc(
            lam=None,
            regime=Degenerate(reason=DegenerateReason.P1_PRIME_ZERO),
            lambda_interval=None,
            wave=None,
        )
        text = write_report(doc).decode()
        assert '"lambda": null' in text
        assert '"kind": "degenerate"' in text
        assert '"reason": "p1-prime-zero"' in text

    def test_hyperbolic_tags(self):
        text = write_report(_minimal_doc()).decode()
        assert '"kind": "hyperbolic"' in text
        assert '"sign": 1' in text
        assert "1.9248473002384139" in text

    def test_seventeen_digit_reals(self):
        text = write_report(_minimal_doc()).decode()
        assert "0.10000000000000001" in text  # 0.1 at 17 significant digits
        assert text.endswith("\n")

    def test_subclasses_render_as_their_base_type(self):
        class Name(str):
            pass

        class Real(float):
            pass

        plain = _minimal_doc()
        subclassed = _minimal_doc(
            schema_version=Name(SCHEMA_VERSION),
            inputs={**plain.inputs, "S": ContextSummary(0.9, Real(9.0), Real(10.0), (0.6, 1.0))},
            reproducibility=Reproducibility(42.0, Real(1000.0), Name("philox4x64-seedseq-v1")),
        )
        assert write_report(subclassed) == write_report(plain)
        # whole counts are kept as the int they check as, like CountRow's
        summary, repro = subclassed.inputs["S"], subclassed.reproducibility
        assert [type(n) for n in (summary.successes, summary.trials)] == [int, int]
        assert [type(n) for n in (repro.seed, repro.replicates)] == [int, int]
        assert [type(s) for s in (subclassed.schema_version, repro.generator_name)] == [str, str]
        # real fields are kept as the float they check as, consistent as a bool
        ints = _minimal_doc(
            inputs={**plain.inputs, "S2p": ContextSummary(True, interval=(True, True))},
            delta=True, lam=3, regime=Hyperbolic(1, math.acosh(3)), lambda_interval=(2, 4),
            regime_stability=True, additivity=AdditivityCheck(0, 1),
        )
        reals = (ints.inputs["S2p"].p_hat, *ints.inputs["S2p"].interval, ints.delta, ints.lam,
                 *ints.lambda_interval, ints.regime_stability, ints.additivity.z_statistic)
        assert [type(x) for x in reals] == [float] * 9
        assert type(ints.additivity.consistent) is bool
        assert parse_report(write_report(ints)) == ints
        # a generator name the writer could not write is refused when the record is built
        with pytest.raises(ValueError, match="generator_name must be a string"):
            Reproducibility(42, 1000, object())

    def test_inputs_kept_in_canonical_order(self):
        doc = _minimal_doc(
            inputs={
                "S2p": ContextSummary(p_hat=0.1),
                "S": ContextSummary(p_hat=0.9),
                "S1p": ContextSummary(p_hat=0.1),
            }
        )
        assert list(doc.inputs) == ["S", "S1p", "S2p"]

    def test_missing_required_inputs_rejected(self):
        with pytest.raises(ValueError):
            _minimal_doc(inputs={"S": ContextSummary(p_hat=0.9)})

    def test_round_trip_exact(self):
        doc = _minimal_doc()
        assert parse_report(write_report(doc)) == doc

    def test_round_trip_with_additivity(self):
        doc = _minimal_doc(additivity=AdditivityCheck(z_statistic=GOLDEN_Z, consistent=False))
        blob = write_report(doc)
        assert '"present": true' in blob.decode()
        assert parse_report(blob) == doc

    def test_parse_rejects_malformed_documents(self):
        with pytest.raises(ParseError):
            parse_report(b"not json")
        with pytest.raises(ParseError):
            parse_report(b"{}")
        good = write_report(_minimal_doc()).decode()
        with pytest.raises(ParseError):
            parse_report(good.replace('"hyperbolic"', '"elliptic"'))

    @pytest.mark.parametrize(
        "token",
        ["NaN", "Infinity", "-Infinity", "1e999", "-1e999",
         pytest.param("1" + "0" * 400, id="overflowing-integer")],
    )
    @pytest.mark.parametrize(
        "path",
        [("delta",), ("lambda_interval", 0), ("inputs", "S", "p_hat"), ("wave", "components", 1)],
        ids=lambda path: ".".join(map(str, path)),
    )
    def test_parse_rejects_non_finite_numbers(self, path, token):
        # json.loads accepts these tokens, but write_report cannot write them back
        tree = json.loads(write_report(_minimal_doc()))
        node = tree
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = "<token>"
        with pytest.raises(ParseError, match=path[0]) as info:
            parse_report(json.dumps(tree).replace('"<token>"', token))
        assert info.value.kind is ParseErrorKind.BAD_DOCUMENT


_DELETE = object()


def _edited_report(path, value) -> str:
    """The minimal document's JSON with the node at ``path`` replaced (or deleted)."""
    tree = json.loads(write_report(_minimal_doc()))
    if not path:
        return json.dumps(value)
    node = tree
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(tree)


def _assert_bad_document(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_report(text)
    message = str(info.value)
    assert info.value.kind is ParseErrorKind.BAD_DOCUMENT
    assert message.startswith("line 1: ") and message.count("line 1: ") == 1, message
    assert fragment in message, message


# One case per raise on parse_report's path, in the parser or in a document type.
PARSE_REPORT_RAISES = [
    ("root", (), [], "report root must be an object"),
    ("missing-key", ("delta",), _DELETE, "report keys ['delta'] missing"),
    ("unexpected-key", ("extra",), 1, "report keys ['extra'] missing or unexpected"),
    ("schema", ("schema_version",), "2", "unsupported schema version '2'"),
    ("inputs", ("inputs",), [], "inputs must be an object"),
    ("input-entry", ("inputs", "S"), 1, "inputs.S must be an object"),
    ("input-label", ("inputs", "Q"), {"p_hat": 0.5}, "unknown context labels ['Q']"),
    ("input-missing", ("inputs", "S"), _DELETE, "missing required context summaries ['S']"),
    ("p_hat", ("inputs", "S", "p_hat"), "x", "inputs.S.p_hat must be a number, got 'x'"),
    ("p_hat-null", ("inputs", "S", "p_hat"), None, "inputs.S.p_hat must be a number, got None"),
    ("successes", ("inputs", "S", "successes"), 1.5, "inputs.S.successes must be an integer or null"),
    ("trials", ("inputs", "S", "trials"), "x", "inputs.S.trials must be an integer or null"),
    ("interval", ("inputs", "S", "interval"), [0.1], "inputs.S.interval must be a two-element array or null"),
    ("interval-item", ("inputs", "S", "interval", 1), "x", "inputs.S.interval must be a number, got 'x'"),
    ("delta", ("delta",), "x", "delta must be a number, got 'x'"),
    ("delta-infinite", ("delta",), math.inf, "delta must be finite, got inf"),
    ("lambda", ("lambda",), "x", "lambda must be a number or null, got 'x'"),
    ("regime", ("regime",), 5, "regime must be an object with a kind"),
    ("regime-kind", ("regime", "kind"), "zz", "unknown regime kind 'zz'"),
    ("regime-theta", ("regime", "theta"), "x", "regime.theta must be a number, got 'x'"),
    ("regime-sign", ("regime", "sign"), 2, "hyperbolic sign must be +1 or -1, got 2"),
    ("regime-phase", ("regime",), {"kind": "trigonometric", "theta": 4.0}, "trigonometric phase"),
    ("regime-reason", ("regime",), {"kind": "degenerate", "reason": "zz"}, "unknown degeneracy reason 'zz'"),
    ("lambda_interval", ("lambda_interval",), [1.0], "lambda_interval must be a two-element array or null"),
    ("regime_stability", ("regime_stability",), "x", "regime_stability must be a number or null"),
    ("additivity", ("additivity_check",), {"present": 1}, "additivity_check must carry a boolean 'present'"),
    ("consistent", ("additivity_check",), {"present": True, "z_statistic": 1.0, "consistent": 1},
     "additivity_check.consistent must be a boolean"),
    ("z_statistic", ("additivity_check",), {"present": True, "z_statistic": "x", "consistent": True},
     "additivity_check.z_statistic must be a number"),
    ("wave", ("wave",), 5, "wave must be an object or null"),
    ("wave-components", ("wave", "components"), [1.0], "wave.components must be a two-element array, got"),
    ("wave-kind", ("wave", "kind"), "zz", "wave kind must be 'complex' or 'split-complex', got 'zz'"),
    ("reproducibility", ("reproducibility",), [], "reproducibility must be an object"),
    ("generator_name", ("reproducibility", "generator_name"), 5, "generator_name must be a string"),
    ("seed", ("reproducibility", "seed"), "x", "reproducibility.seed must be an integer, got 'x'"),
    ("replicates", ("reproducibility", "replicates"), None, "reproducibility.replicates must be an integer"),
    # nested objects carry exactly the keys write_report writes
    ("input-key", ("inputs", "S", "bogus"), 1, "inputs.S keys ['bogus'] missing or unexpected"),
    ("input-key-missing", ("inputs", "S", "interval"), _DELETE, "inputs.S keys ['interval'] missing"),
    ("regime-key", ("regime", "bogus"), 1, "regime keys ['bogus'] missing or unexpected"),
    ("additivity-key", ("additivity_check",), {"present": False, "z_statistic": 1.0},
     "additivity_check keys ['z_statistic'] missing or unexpected"),
    ("wave-key", ("wave", "bogus"), 1, "wave keys ['bogus'] missing or unexpected"),
    ("reproducibility-key", ("reproducibility", "bogus"), 1,
     "reproducibility keys ['bogus'] missing or unexpected"),
]


@pytest.mark.parametrize(
    "path,value,fragment", [case[1:] for case in PARSE_REPORT_RAISES],
    ids=[case[0] for case in PARSE_REPORT_RAISES],
)
def test_parse_report_raises_once_per_defect(path, value, fragment):
    _assert_bad_document(_edited_report(path, value), fragment)


@pytest.mark.parametrize(
    "text",
    ["not json", "1" * 5000, "[" * 100000, '{"a":' * 100000],
    ids=["not-json", "integer-past-digit-limit", "deep-arrays", "deep-objects"],
)
def test_parse_report_rejects_unreadable_json(text):
    _assert_bad_document(text, "invalid report JSON")


def _padded(blob: bytes, size: int, filler: bytes) -> bytes:
    """``blob`` followed by ``filler`` bytes up to ``size`` bytes in all."""
    return blob + filler * (size - len(blob))


# A count file ends in a comment line and a report in whitespace, so either parses
# at any length: only the cap can refuse it.
_AT_CAP = {
    "counts": (parse_counts, lambda size: _padded(GOOD.encode() + b"#", size, b"x")),
    "report": (parse_report, lambda size: _padded(write_report(_minimal_doc()), size, b" ")),
}


@pytest.mark.parametrize("decode", [False, True], ids=["bytes", "str"])
@pytest.mark.parametrize("name", list(_AT_CAP))
def test_parsers_take_input_up_to_the_cap(name, decode):
    parse, padded = _AT_CAP[name]
    at_cap = padded(MAX_INPUT_BYTES)
    assert len(at_cap) == MAX_INPUT_BYTES
    parse(at_cap.decode() if decode else at_cap)
    over = padded(MAX_INPUT_BYTES + 1)
    with pytest.raises(ParseError) as info:
        parse(over.decode() if decode else over)
    assert info.value.kind is ParseErrorKind.INPUT_TOO_LARGE
    assert str(info.value).endswith(f"input is longer than {MAX_INPUT_BYTES} bytes")


def test_oversized_input_is_refused_before_it_is_decoded():
    # invalid UTF-8 and no header: only the size is looked at
    with pytest.raises(ParseError) as info:
        parse_counts(b"\xff" * (MAX_INPUT_BYTES + 1), source="big.csv")
    assert str(info.value) == f"line 1: big.csv: input is longer than {MAX_INPUT_BYTES} bytes"
    with pytest.raises(ParseError) as info:
        parse_report(b"\xff" * (MAX_INPUT_BYTES + 1))
    assert info.value.kind is ParseErrorKind.INPUT_TOO_LARGE


def test_parse_report_rejects_invalid_utf8():
    with pytest.raises(ParseError) as info:
        parse_report(write_report(_minimal_doc()) + b"\xff")
    assert info.value.kind is ParseErrorKind.ENCODING
    assert str(info.value) == "line 1: report is not valid UTF-8"


def _degenerate_tree_with_wave():
    tree = json.loads(write_report(_minimal_doc()))
    tree.update(lambda_interval=None, regime={"kind": "degenerate", "reason": "p1-prime-zero"})
    tree["lambda"] = None
    return tree


# Values analyze can never write: each type refuses them, so parsing does too.
OUT_OF_RANGE = [
    ("seed", ("reproducibility", "seed"), 10**30, "seed must lie in [0, 2**64)"),
    ("replicates", ("reproducibility", "replicates"), -5, "replicates must lie in [0, inf)"),
    ("trials-zero", ("inputs", "S", "trials"), 0, "trials must lie in [1, 2**63)"),
    ("trials-bound", ("inputs", "S", "trials"), 2**63, "trials must lie in [1, 2**63)"),
    ("successes", ("inputs", "S", "successes"), 10**30, "successes must lie in [0, 11)"),
    ("p_hat", ("inputs", "S", "p_hat"), 7.0, "p_hat must lie in [0, 1]"),
    ("regime_stability", ("regime_stability",), -3.0, "regime_stability must lie in [0, 1]"),
    ("successes-alone", ("inputs", "S", "trials"), None, "successes and trials must be both"),
    ("lambda-regime", ("regime",), {"kind": "trigonometric", "theta": 0.5}, "trigonometric phase"),
    ("theta-overflow", ("regime", "theta"), 1000.0, "hyperbolic phase must lie in (0, 710.47"),
    ("lambda-degenerate", ("regime",), {"kind": "degenerate", "reason": "p1-prime-zero"},
     "lam must be None exactly for a degenerate regime"),
    ("interval-reversed", ("inputs", "S", "interval"), [5.0, -3.0], "interval must satisfy 0 <= lo"),
    ("interval-above-one", ("inputs", "S", "interval"), [0.5, 1.5], "interval must satisfy 0 <= lo"),
    ("lambda_interval-reversed", ("lambda_interval",), [9.0, 1.0],
     "lambda_interval must satisfy lo <= hi"),
    ("p_hat-counts", ("inputs", "S", "p_hat"), 0.5, "p_hat must equal successes / trials"),
    ("additivity-consistent", ("additivity_check",),
     {"present": True, "z_statistic": 50.0, "consistent": True},
     "consistent must equal |z_statistic| <= 3"),
    ("wave-kind-regime", ("wave", "kind"), "complex",
     "wave must be null or a 'split-complex' wave for a hyperbolic regime"),
    ("wave-degenerate", (), _degenerate_tree_with_wave(), "wave must be null for a degenerate regime"),
    ("wave-kind-list", ("wave", "kind"), ["complex"],
     "wave kind must be 'complex' or 'split-complex', got ['complex']"),
    ("sign-true", ("regime", "sign"), True, "regime.sign must be an integer, got True"),
    ("sign-float", ("regime", "sign"), 1.0, "regime.sign must be an integer, got 1.0"),
]


@pytest.mark.parametrize(
    "path,value,fragment", [case[1:] for case in OUT_OF_RANGE],
    ids=[case[0] for case in OUT_OF_RANGE],
)
def test_parse_report_refuses_out_of_range_values(path, value, fragment):
    _assert_bad_document(_edited_report(path, value), fragment)


@pytest.mark.parametrize(
    "build,fragment",
    [
        pytest.param(lambda: Reproducibility(2**64, 0, "g"), "seed", id="seed-2**64"),
        pytest.param(lambda: Reproducibility(-1, 0, "g"), "seed", id="seed-negative"),
        pytest.param(lambda: Reproducibility(0, -5, "g"), "replicates", id="replicates"),
        pytest.param(lambda: ContextSummary(7.0), "p_hat", id="p_hat"),
        pytest.param(lambda: ContextSummary(math.nan), "p_hat", id="p_hat-nan"),
        pytest.param(lambda: ContextSummary(0.5, 1), "successes and trials", id="successes-alone"),
        pytest.param(lambda: ContextSummary(0.5, None, 10), "successes and trials", id="trials-alone"),
        pytest.param(lambda: ContextSummary(0.5, 0, 0), "trials", id="trials-zero"),
        pytest.param(lambda: ContextSummary(0.5, 11, 10), "successes", id="successes-above"),
        pytest.param(lambda: ContextSummary(0.5, -1, 10), "successes", id="successes-negative"),
        pytest.param(lambda: _minimal_doc(regime_stability=-3.0), "regime_stability", id="stability-low"),
        pytest.param(lambda: _minimal_doc(regime_stability=1.5), "regime_stability", id="stability-high"),
        pytest.param(lambda: ContextSummary(0.5, interval=(0.6, 0.4)), "interval", id="interval-reversed"),
        pytest.param(lambda: ContextSummary(0.5, interval=(-0.1, 0.4)), "interval", id="interval-low"),
        pytest.param(lambda: ContextSummary(0.5, interval=(0.5, math.nan)), "interval", id="interval-nan"),
        pytest.param(lambda: _minimal_doc(lambda_interval=(9.0, 1.0)), "lambda_interval",
                     id="lambda_interval-reversed"),
        pytest.param(lambda: _minimal_doc(regime=Trigonometric(0.5)), "trigonometric phase",
                     id="regime-contradicts-lam"),
        pytest.param(lambda: _minimal_doc(lam=None), "lam must be None", id="lam-missing"),
        pytest.param(lambda: ContextSummary(0.9, 1, 10), "p_hat must equal", id="p_hat-counts"),
        pytest.param(lambda: AdditivityCheck(50.0, True), "consistent", id="inconsistent-z"),
        pytest.param(lambda: AdditivityCheck(-1.0, False), "consistent", id="consistent-z"),
        pytest.param(lambda: _minimal_doc(wave=WaveSummary("complex", (1.0, 0.0))),
                     "null or a 'split-complex' wave for a hyperbolic", id="complex-wave-hyperbolic"),
        pytest.param(lambda: _minimal_doc(lam=0.5, regime=classify(0.5)),
                     "null or a 'complex' wave for a trigonometric",
                     id="split-complex-wave-trigonometric"),
        pytest.param(lambda: _minimal_doc(lam=None, regime=Degenerate(DegenerateReason.P1_PRIME_ZERO)),
                     "wave must be null", id="wave-degenerate"),
        # each of these used to build, then write badly or read back unequal
        pytest.param(lambda: Reproducibility(1.5, 0, "g"), "seed", id="seed-fraction"),
        pytest.param(lambda: Reproducibility(0, 2.5, "g"), "replicates", id="replicates-fraction"),
        pytest.param(lambda: Reproducibility(math.nan, 0, "g"), "seed", id="seed-nan"),
        pytest.param(lambda: ContextSummary(0.15, 1.5, 10), "successes", id="successes-fraction"),
        pytest.param(lambda: ContextSummary(0.4, 1, 2.5), "trials", id="trials-fraction"),
        pytest.param(lambda: _minimal_doc(regime="bogus", wave=None), "unknown regime type",
                     id="regime-foreign"),
        pytest.param(lambda: _minimal_doc(lam=None, wave=None, regime=Degenerate("bogus")),
                     "degenerate reason must be a DegenerateReason", id="degenerate-reason-foreign"),
        pytest.param(lambda: _minimal_doc(delta=math.nan, lam=None, lambda_interval=None, wave=None,
                                          regime=Degenerate(DegenerateReason.P1_PRIME_ZERO)),
                     "delta and lam must be finite", id="delta-nan-degenerate"),
        pytest.param(lambda: _minimal_doc(lam=math.inf,
                                          regime=Hyperbolic(1, math.acosh(sys.float_info.max))),
                     "delta and lam must be finite", id="lam-inf"),
        pytest.param(lambda: AdditivityCheck(math.nan, False), "finite z_statistic", id="z-nan"),
        pytest.param(lambda: _minimal_doc(lambda_interval=(0.0, math.inf)), "lambda_interval",
                     id="lambda_interval-inf"),
        pytest.param(lambda: _minimal_doc(wave=WaveSummary("split-complex", (math.inf, 1.06))),
                     "wave components must be finite", id="wave-component-inf"),
        # each of these used to build, then fail in write_report
        pytest.param(lambda: Reproducibility(42, 1000, None), "generator_name", id="generator-foreign"),
        pytest.param(lambda: _minimal_doc(inputs={"S": 0.9, "S1p": ContextSummary(0.1),
                                                  "S2p": ContextSummary(0.1)}),
                     "unknown inputs.S type", id="summary-foreign"),
        pytest.param(lambda: _minimal_doc(additivity=1.5), "unknown additivity type",
                     id="additivity-foreign"),
        pytest.param(lambda: _minimal_doc(wave=(1.42, 1.06)),
                     r"wave must be null or a 'split-complex' wave .*, got \(1.42, 1.06\)",
                     id="wave-foreign"),
        pytest.param(lambda: _minimal_doc(reproducibility={"seed": 42}), "unknown reproducibility type",
                     id="reproducibility-foreign"),
    ],
)
def test_document_types_refuse_out_of_range_values(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()


def test_document_types_accept_their_bounds():
    doc = _minimal_doc(
        inputs={
            "S": ContextSummary(p_hat=1.0, successes=2**63 - 1, trials=2**63 - 1),
            "S1p": ContextSummary(p_hat=0.0, successes=0, trials=1),
            "S2p": ContextSummary(p_hat=0.0),
        },
        regime_stability=0.0,
        reproducibility=Reproducibility(seed=2**64 - 1, replicates=0, generator_name="g"),
    )
    assert parse_report(write_report(doc)) == doc


def test_document_types_accept_closed_intervals():
    doc = _minimal_doc(
        inputs={
            "S": ContextSummary(p_hat=1.0, interval=(1.0, 1.0)),
            "S1p": ContextSummary(p_hat=0.0, interval=(0.0, 0.0)),
            "S2p": ContextSummary(p_hat=0.5, interval=(0.0, 1.0)),
        },
        lambda_interval=(3.5, 3.5),
    )
    assert parse_report(write_report(doc)) == doc


# -- randomized round-trip -----------------------------------------------

finite_reals = st.floats(allow_nan=False, allow_infinity=False, width=64)
unit_reals = st.floats(min_value=0.0, max_value=1.0)


def _ordered_pairs(values):
    return st.tuples(values, values).map(lambda pair: tuple(sorted(pair)))


def _summary():
    # successes and trials come as a pair, both null or 0 <= successes <= trials,
    # and with counts p_hat is successes / trials
    fields = st.one_of(
        unit_reals.map(lambda p_hat: (p_hat, None, None)),
        st.integers(1, 10**9).flatmap(
            lambda n: st.integers(0, n).map(lambda successes: (successes / n, successes, n))
        ),
    )
    return st.builds(
        lambda fields, interval: ContextSummary(*fields, interval),
        fields,
        st.one_of(st.none(), _ordered_pairs(unit_reals)),
    )


def _points():
    # (lam, regime) as analyze pairs them: the regime of a drawn lam, or degenerate with no lam
    return st.one_of(
        st.floats(min_value=-100.0, max_value=100.0).map(lambda lam: (lam, classify(lam))),
        st.sampled_from(list(DegenerateReason)).map(lambda reason: (None, Degenerate(reason))),
    )


def _wave(regime, components):
    # none for a degenerate regime, else the kind of wave its regime carries
    if components is None or isinstance(regime, Degenerate):
        return None
    kind = "complex" if isinstance(regime, Trigonometric) else "split-complex"
    return WaveSummary(kind, components)


def _documents():
    labels = st.sampled_from([("S", "S1p", "S2p"), ("S", "S1", "S2", "S1p", "S2p")])
    return labels.flatmap(
        lambda ls: st.builds(
            lambda point, components, **fields: ReportDocument(
                lam=point[0], regime=point[1], wave=_wave(point[1], components), **fields
            ),
            _points(),
            st.one_of(st.none(), st.tuples(finite_reals, finite_reals)),
            schema_version=st.just(SCHEMA_VERSION),
            inputs=st.tuples(*[_summary() for _ in ls]).map(
                lambda summaries: dict(zip(ls, summaries))
            ),
            delta=st.floats(min_value=-2.0, max_value=2.0),
            lambda_interval=st.one_of(st.none(), _ordered_pairs(finite_reals)),
            regime_stability=st.one_of(st.none(), unit_reals),
            additivity=st.one_of(
                st.none(),
                st.one_of(finite_reals, st.floats(-4.0, 4.0)).map(
                    lambda z: AdditivityCheck(z, abs(z) <= 3.0)
                ),
            ),
            reproducibility=st.builds(
                Reproducibility,
                seed=st.integers(0, 2**64 - 1),
                replicates=st.integers(0, 10**6),
                generator_name=st.text(
                    alphabet=st.characters(codec="ascii", exclude_characters='"\\\x00'),
                    max_size=30,
                ),
            ),
        )
    )


@settings(max_examples=200)
@given(doc=_documents())
def test_report_round_trip_property(doc):
    assert parse_report(write_report(doc)) == doc


# Wide values: NaN, +-inf, fractions and bools where numbers go, foreign objects for a regime.
_WIDE_REALS = st.one_of(st.floats(), st.booleans())
_WIDE_PAIRS = st.tuples(_WIDE_REALS, _WIDE_REALS)
_WIDE_COUNTS = st.one_of(st.floats(), st.booleans(), st.integers(-2, 2**65))
_FOREIGN = st.one_of(st.none(), st.text(max_size=5), st.integers(), st.floats(), st.builds(object))
# Fields that hold a whole record (an input summary, the additivity check, the wave, the
# reproducibility block): drawn wide, each is a foreign value in place of the record.
_RECORD_FIELDS = ("summary", "additivity", "wave", "reproducibility")
_WIDE_FIELDS = (
    "delta", "lam", "regime", "lambda_interval", "regime_stability", "z_statistic", "components",
    "seed", "replicates", "generator_name", "p_hat", "successes", "trials", "interval",
    *_RECORD_FIELDS,
)


@st.composite
def _wide_document_fields(draw):
    """Fields of a report, valid but for up to three drawn wide."""
    wide = draw(st.sets(st.sampled_from(_WIDE_FIELDS), max_size=3))

    def pick(name, valid, wider=_WIDE_REALS):
        return draw(wider if name in wide else valid)

    lam, regime = draw(_points())
    trials = draw(st.one_of(st.none(), st.integers(1, 10**9)))
    successes = None if trials is None else draw(st.integers(0, trials))
    return dict(
        delta=pick("delta", st.floats(-2.0, 2.0)),
        lam=pick("lam", st.just(lam)),
        regime=pick("regime", st.just(regime), _FOREIGN),
        wave_regime=regime,
        lambda_interval=pick("lambda_interval", st.one_of(st.none(), _ordered_pairs(finite_reals)),
                             _WIDE_PAIRS),
        regime_stability=pick("regime_stability", st.one_of(st.none(), unit_reals)),
        z_statistic=pick("z_statistic", st.one_of(st.none(), st.floats(-4.0, 4.0))),
        components=pick("components", st.one_of(st.none(), st.tuples(finite_reals, finite_reals)),
                        _WIDE_PAIRS),
        seed=pick("seed", st.integers(0, 2**64 - 1), _WIDE_COUNTS),
        replicates=pick("replicates", st.integers(0, 10**6), _WIDE_COUNTS),
        generator_name=pick("generator_name", st.text(max_size=30), _FOREIGN),
        p_hat=pick("p_hat", unit_reals if trials is None else st.just(successes / trials)),
        successes=pick("successes", st.just(successes), _WIDE_COUNTS),
        trials=pick("trials", st.just(trials), _WIDE_COUNTS),
        interval=pick("interval", st.one_of(st.none(), _ordered_pairs(unit_reals)), _WIDE_PAIRS),
        foreign={name: draw(_FOREIGN) for name in _RECORD_FIELDS if name in wide},
    )


def _wide_document(f):
    def record(name, build):
        return f["foreign"][name] if name in f["foreign"] else build()

    return ReportDocument(
        schema_version=SCHEMA_VERSION,
        inputs={
            "S": ContextSummary(f["p_hat"], f["successes"], f["trials"], f["interval"]),
            "S1p": record("summary", lambda: ContextSummary(0.25)),
            "S2p": ContextSummary(0.5, 1, 2),
        },
        delta=f["delta"],
        lam=f["lam"],
        regime=f["regime"],
        lambda_interval=f["lambda_interval"],
        regime_stability=f["regime_stability"],
        additivity=record("additivity", lambda: None if f["z_statistic"] is None else AdditivityCheck(
            f["z_statistic"], abs(f["z_statistic"]) <= 3.0
        )),
        wave=record("wave", lambda: _wave(f["wave_regime"], f["components"])),
        reproducibility=record(
            "reproducibility", lambda: Reproducibility(f["seed"], f["replicates"], f["generator_name"])
        ),
    )


@settings(max_examples=300)
@given(fields=_wide_document_fields())
def test_documents_refuse_or_round_trip(fields):
    try:
        doc = _wide_document(fields)
    except (ValueError, TypeError):
        return
    assert parse_report(write_report(doc)) == doc


# -- byte-level fuzz of the report reader ---------------------------------

_REPORT_MUTATIONS = ("digit", "truncate", "nest", "huge-integer", "invalid-utf8", "flip")
_INSERTS = {
    "nest": (b"[" * 1000, b"[" * 100000, b'{"a": ' * 1000, b'{"a": ' * 100000),
    "huge-integer": (b"9" * 20, b"9" * 309, b"9" * 4300, b"9" * 5000),
    "invalid-utf8": (b"\xff", b"\xc3", b"\xed\xa0\x80"),
}


def _mutated(blob: bytes, mutation: str, edits) -> bytes:
    """``blob`` with ``mutation`` made at each ``(spot, choice)`` of ``edits``, in turn.

    ``spot`` picks the position among the mutation's candidates, ``choice`` what
    goes there.  A digit is swapped for another digit, which often leaves a
    report that parses.  Deep nesting and huge integers go where a JSON value
    starts (the start of the text or after a key's colon), so that the decoder
    reaches them.
    """
    for spot, choice in edits:
        if mutation == "digit":
            spots = [m.start() for m in re.finditer(rb"[0-9]", blob)]
        elif mutation in ("nest", "huge-integer"):
            spots = [0] + [m.end() for m in re.finditer(b": ", blob)]
        else:
            spots = range(len(blob) + (mutation != "flip"))
        if not spots:
            continue
        at = spots[spot % len(spots)]
        if mutation == "digit":
            blob = blob[:at] + str(choice % 10).encode() + blob[at + 1:]
        elif mutation == "truncate":
            blob = blob[:at]
        elif mutation == "flip":
            blob = blob[:at] + bytes([blob[at] ^ (choice % 255 + 1)]) + blob[at + 1:]
        else:
            inserts = _INSERTS[mutation]
            blob = blob[:at] + inserts[choice % len(inserts)] + blob[at:]
    return blob


@settings(max_examples=100)
@given(
    doc=_documents(),
    mutation=st.sampled_from(_REPORT_MUTATIONS),
    edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=3),
)
def test_mutated_reports_refuse_or_round_trip(doc, mutation, edits):
    """parse_report raises ParseError for every defect; what it accepts it can write back."""
    try:
        parsed = parse_report(_mutated(write_report(doc), mutation, edits))
    except ParseError:
        return
    assert parse_report(write_report(parsed)) == parsed


def test_context_probabilities_in_canonical_order():
    five = context_probabilities(ContextTriple(0.9, 0.1, 0.1, 0.4, 0.5))
    assert list(five.items()) == [("S", 0.9), ("S1", 0.4), ("S2", 0.5), ("S1p", 0.1), ("S2p", 0.1)]
    three = context_probabilities(ContextTriple(0.5, 0.3, 0.15))
    assert list(three.items()) == [("S", 0.5), ("S1p", 0.3), ("S2p", 0.15)]


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "report.json"
        write_bytes_atomic(target, (b"first\n",))
        assert target.read_bytes() == b"first\n"
        write_bytes_atomic(target, (b"second\n",))
        assert target.read_bytes() == b"second\n"
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".ctxprob-")]
        assert leftovers == []

    def test_mode_follows_umask(self, tmp_path):
        target = tmp_path / "counts.csv"
        previous = os.umask(0o022)
        try:
            write_bytes_atomic(target, (b"data\n",))
        finally:
            os.umask(previous)
        assert stat.S_IMODE(target.stat().st_mode) == 0o644


# -- byte-identity gates for the report and count codecs ------------------

# SHA-256 of write_report over the documents that estimate (count tables) and
# analyze (direct probabilities) give on a seeded grid, built the way the
# analyze subcommand builds them: 3 and 5 contexts, trials from 1 to 2**62
# with zero and full proportions, R in {0, 1, 2, 17, 1000}, every regime and
# both wave kinds; 400 documents.  The bootstrap draws come from
# Generator.binomial, so, like the byte goldens, the digest is fixed for a
# given numpy version and the GENERATOR_NAME it was taken with.  Recapture
# both with ``python tests/test_data.py``.
REPORT_DIGEST_GENERATOR = "philox4x64-counterblock-v3"
REPORT_DIGEST = "ac6d60933c31f6e93e821d58963ee7f12114efad17ff56b7f2f6e9ae07a81ea1"
_REPORT_REPLICATES = (0, 1, 2, 17, 1000)


def _edge_probability(rng):
    edge = rng.random()
    return 0.0 if edge < 0.1 else 1.0 if edge < 0.2 else rng.random()


def _report_document(rng, labels):
    seed = rng.randrange(2**64)
    if rng.random() < 0.25:  # analyze --p-s ... : direct probabilities, no bootstrap
        p_s, p1_prime, p2_prime = (_edge_probability(rng) for _ in range(3))
        split = () if len(labels) == 3 else (p_s * rng.random(),)
        triple = ContextTriple(p_s, p1_prime, p2_prime, *split, *(p_s - p for p in split))
        return report_from_triple(triple, seed)
    # analyze --counts FILE: estimate with its bootstrap
    rows = []
    for label in labels:
        trials = int(2.0 ** rng.uniform(0.0, 62.0))
        trials = rng.choice((1, 2**62)) if rng.random() < 0.1 else trials
        edge = rng.random()
        successes = 0 if edge < 0.1 else trials if edge < 0.2 else rng.randint(0, trials)
        rows.append(CountRow(label, successes, trials))
    counts = CountTable(tuple(rows))
    replicates = rng.choice(_REPORT_REPLICATES)
    return report_from_counts(counts, replicates, rng.choice((0.5, 0.9, 0.95, 0.99)), seed)


def _report_grid():
    rng = random.Random(20261018)
    for _ in range(400):
        labels = CONTEXT_LABELS if rng.random() < 0.5 else ("S", "S1p", "S2p")
        yield _report_document(rng, labels)


def report_digest(docs) -> str:
    """SHA-256 of write_report over ``docs``; each must read back as itself."""
    h = hashlib.sha256()
    for doc in docs:
        blob = write_report(doc)
        assert parse_report(blob) == doc
        h.update(blob)
    return h.hexdigest()


def test_report_bytes_digest():
    docs = list(_report_grid())
    digest = report_digest(docs)
    # the grid covers what the gate claims to cover
    assert {len(doc.inputs) for doc in docs} == {3, 5}
    assert {doc.reproducibility.replicates for doc in docs} == set(_REPORT_REPLICATES)
    assert {doc.regime.kind for doc in docs} == {"trigonometric", "hyperbolic", "degenerate"}
    assert {doc.wave.kind for doc in docs if doc.wave} == {"complex", "split-complex"}
    summaries = [s for doc in docs for s in doc.inputs.values() if s.trials is not None]
    assert min(s.trials for s in summaries) == 1
    assert max(s.trials for s in summaries) == 2**62
    assert {0.0, 1.0} <= {s.p_hat for s in summaries}
    assert digest == REPORT_DIGEST


def test_report_digest_was_taken_with_the_current_generator():
    assert REPORT_DIGEST_GENERATOR == GENERATOR_NAME


# SHA-256 of what parse_counts makes of a seeded corpus of count files: the
# CountFile repr when a file parses, else the error's (kind, line, message).
# The corpus is valid files in shuffled row order, each with one mutation:
# CRLF endings, comments and blank lines, 19- and 20-digit integers, integers
# at 2**63 - 1 and 2**63, duplicate, unknown and missing labels, bad headers,
# wrong field counts, non-digit values, zero trials, successes above trials
# and invalid UTF-8.  No random stream is involved.
COUNTS_DIGEST = "7c85f852c9488f0a95f1fe5dd8538a5c155d06027d005421f380969d4e31a541"
_COUNT_VALUES = (
    "9" * 19, "1" * 19, "1" + "0" * 19, "0" * 20, str(2**63 - 1), str(2**63), "0", "01",
    "-1", "+1", " 1", "1.0", "1e3", "", "x", "١",
)


def _count_file(rng):
    labels = list(CONTEXT_LABELS if rng.random() < 0.5 else ("S", "S1p", "S2p"))
    rng.shuffle(labels)
    lines = [COUNTS_HEADER]
    for label in labels:
        trials = rng.choice((1, rng.randint(1, 10**6), 2**63 - 1))
        lines.append(f"{label},{rng.randint(0, trials)},{trials}")
    mutation = rng.randrange(12)
    at = rng.randrange(1, len(lines))
    if mutation == 1:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(("# note", "", "  ", "#", "\t")))
    elif mutation == 2:
        fields = lines[at].split(",")
        fields[rng.randrange(1, 3)] = rng.choice(_COUNT_VALUES)
        lines[at] = ",".join(fields)
    elif mutation == 3:
        lines.insert(rng.randrange(1, len(lines) + 1), lines[at])
    elif mutation == 4:
        del lines[at]
    elif mutation == 5:
        lines[at] = rng.choice(("Q", "s", "S1P", "")) + lines[at][lines[at].index(","):]
    elif mutation == 6:
        lines[0] = rng.choice(("", "context,successes", "Context,successes,trials",
                               COUNTS_HEADER + ",", "﻿" + COUNTS_HEADER))
    elif mutation == 7:
        lines[at] = rng.choice((lines[at] + ",1", lines[at].rsplit(",", 1)[0], lines[at] + " "))
    elif mutation == 8:
        label = lines[at].split(",")[0]
        lines[at] = rng.choice((f"{label},0,0", f"{label},5,4"))
    elif mutation == 9:
        lines = lines[:rng.randrange(len(lines))]
    text = "\n".join(lines) + rng.choice(("\n", "", "\n\n"))
    if mutation == 10 or rng.random() < 0.2:
        text = text.replace("\n", "\r\n")
    data = text.encode("utf-8")
    if mutation == 11:
        cut = rng.randrange(len(data) + 1)
        data = data[:cut] + rng.choice((b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xc3\xa9")) + data[cut:]
    return data


def test_parse_counts_digest():
    rng = random.Random(20261019)
    h = hashlib.sha256()
    outcomes = set()
    for _ in range(2000):
        data = _count_file(rng)
        try:
            record = repr(parse_counts(data if rng.random() < 0.5 else data.decode("utf-8", "replace"),
                                       source="corpus.csv"))
            outcomes.add("ok")
        except ParseError as e:
            record = f"{e.kind.value} {e.line} {e}"
            outcomes.add(e.kind.value)
        h.update(record.encode())
        h.update(b"\n")
    # the corpus holds no report and nothing near the input cap
    assert outcomes == {"ok"} | {kind.value for kind in ParseErrorKind} - {
        "bad-document", "input-too-large"
    }
    assert h.hexdigest() == COUNTS_DIGEST


if __name__ == "__main__":
    print(f"REPORT_DIGEST_GENERATOR = {GENERATOR_NAME!r}")
    print(f"REPORT_DIGEST = {report_digest(_report_grid())!r}")
