"""Count model, count-file ingestion and canonical report serialization.

:class:`CountRow` and :class:`CountTable` (the per-context counts that
sampling produces and estimation consumes) live here with their file format.

Count files are CSV with the exact header ``context,successes,trials``.
Context labels are S, S1, S2, S1p, S2p; values are non-negative integers
below 2**63 (at most 19 digits) with successes <= trials and trials >= 1;
rows may appear in any order but labels must be unique and S, S1p, S2p
must be present.  UTF-8 with LF or CRLF line endings; blank lines and lines
starting with ``#`` are ignored.  A count file or report longer than
``MAX_INPUT_BYTES`` (1 MiB) is refused before it is decoded.

Reports serialize to a canonical JSON document: fixed key order, real
numbers rendered with 17 significant digits (enough to round-trip doubles
exactly), newline-terminated.  ``parse_report(write_report(doc))`` always
returns a document equal to ``doc``: the document types refuse every value
the writer could not write back, such as NaN, infinities, fractional counts,
a ``generator_name`` that is not a string and a record of a foreign type.  A
hyperbolic ``sign`` is kept as the int +1 or -1, and the reader takes only a
JSON integer for it.  The rules for ``delta``, ``lam`` and the regime are
:class:`~ctxprob.calculus.TransitionAnalysis`'s, which a document builds.  A
report's wave is the :class:`~ctxprob.amplitudes.ComplexAmplitude` or
:class:`~ctxprob.amplitudes.SplitComplexAmplitude` that
:func:`~ctxprob.amplitudes.wave_from_analysis` returns, so its type follows
the regime's (``_WAVES``); a degenerate regime has none, and any wave may be null.

The nested records' schema is written once, in ``_FIELDS`` below: the JSON
reader of each field the record types declare, and whether it may be null.
The writer writes a record as its fields in declaration order, and the reader
checks each object's keys against the same fields.  A record checks its fields
in its own ``__init__`` and stores each once, in that order; it stays frozen.
"""

from __future__ import annotations

import dataclasses
import enum
import errno
import json
import math
import os
from dataclasses import dataclass
from typing import Iterable

from .amplitudes import ComplexAmplitude, SplitComplexAmplitude
from .calculus import (
    ContextTriple, Degenerate, DegenerateReason, Hyperbolic, Regime, TransitionAnalysis,
    Trigonometric,
)
from .errors import DegenerateVariance, ParseError

CONTEXT_LABELS = ("S", "S1", "S2", "S1p", "S2p")
_REQUIRED_LABELS = ("S", "S1p", "S2p")


def context_probabilities(triple: ContextTriple) -> dict[str, float]:
    """Each context's probability in a triple, keyed by label in canonical order."""
    values = (triple.p_s, triple.p1, triple.p2, triple.p1_prime, triple.p2_prime)
    return {label: float(p) for label, p in zip(CONTEXT_LABELS, values) if p is not None}


SCHEMA_VERSION = "1"
COUNTS_HEADER = "context,successes,trials"
# Counts feed numpy's 64-bit samplers; 2**63 - 1 has 19 digits, and capping
# the length first keeps int() clear of its digit limit.
_MAX_DIGITS = 19
_INTEGER_BOUND = 2**63
# The longest count file or report the parsers take: 1 MiB, in bytes (characters
# for a str), far past any real one.  Longer input is refused before it is decoded.
MAX_INPUT_BYTES = 2**20


def _whole(value, name: str, lo: int, hi: float) -> int:
    """``value`` as an int if it is a whole number in [lo, hi); NaN, infinities and text are not."""
    if isinstance(value, (str, bytes)) or not (value % 1 == 0 and lo <= value < hi):
        bound = {2**63: "2**63", 2**64: "2**64"}.get(hi, hi)
        raise ValueError(f"{name} must lie in [{lo}, {bound}) and be whole, got {value!r}")
    return int(value)


def _pair(value) -> tuple[float, float] | None:
    """``value`` as a pair of floats, or None."""
    return None if value is None else (float(value[0]), float(value[1]))


def _by_label(items: dict, noun: str) -> dict:
    """``items`` keyed by context label, in CONTEXT_LABELS order; S, S1p and S2p are required."""
    unknown = items.keys() - CONTEXT_LABELS
    if unknown:
        raise ValueError(f"unknown context labels {sorted(unknown)!r}")
    missing = [label for label in _REQUIRED_LABELS if label not in items]
    if missing:
        raise ValueError(f"missing required context {noun} {missing!r}")
    return {label: items[label] for label in CONTEXT_LABELS if label in items}


@dataclass(frozen=True, init=False)
class CountRow:
    """Outcome counts of one context's run: whole successes in [0, trials], trials in [1, 2**63)."""

    label: str
    successes: int
    trials: int

    def __init__(self, label: str, successes: int, trials: int) -> None:
        if label not in CONTEXT_LABELS:
            raise ValueError(f"unknown context label {label!r}")
        trials = _whole(trials, f"{label}: trials", 1, _INTEGER_BOUND)
        successes = _whole(successes, f"{label}: successes", 0, trials + 1)
        fields = self.__dict__
        fields["label"], fields["successes"], fields["trials"] = label, successes, trials

    @property
    def proportion(self) -> float:
        return self.successes / self.trials


@dataclass(frozen=True, init=False)
class CountTable:
    """Per-context counts of one experiment; rows are kept in canonical order.

    Labels must be unique and include at least S, S1p and S2p.
    """

    rows: tuple[CountRow, ...]

    def __init__(self, rows: Iterable[CountRow]) -> None:
        rows = tuple(rows)
        by_label = {r.label: r for r in rows}
        if len(by_label) != len(rows):
            raise ValueError(f"duplicate context labels in {[r.label for r in rows]!r}")
        self.__dict__["rows"] = tuple(_by_label(by_label, "rows").values())

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.rows)

    def row(self, label: str) -> CountRow | None:
        for r in self.rows:
            if r.label == label:
                return r
        return None

    def proportion(self, label: str) -> float:
        r = self.row(label)
        if r is None:
            raise KeyError(label)
        return r.proportion


class ParseErrorKind(enum.Enum):
    """Machine-readable cause attached to every :class:`ParseError`."""

    ENCODING = "encoding"
    BAD_HEADER = "bad-header"
    MALFORMED_ROW = "malformed-row"
    BAD_INTEGER = "bad-integer"
    INTEGER_OUT_OF_RANGE = "integer-out-of-range"
    UNKNOWN_LABEL = "unknown-label"
    DUPLICATE_LABEL = "duplicate-label"
    SUCCESSES_EXCEED_TRIALS = "successes-exceed-trials"
    ZERO_TRIALS = "zero-trials"
    MISSING_LABELS = "missing-labels"
    BAD_DOCUMENT = "bad-document"
    INPUT_TOO_LARGE = "input-too-large"


def _check_size(data: bytes | str, source: str) -> None:
    if len(data) > MAX_INPUT_BYTES:
        raise ParseError(f"{source}: input is longer than {MAX_INPUT_BYTES} bytes", line=1,
                         kind=ParseErrorKind.INPUT_TOO_LARGE)


@dataclass(frozen=True)
class CountFile:
    """A parsed count table plus where each row came from."""

    table: CountTable
    source: str
    line_numbers: dict[str, int]


# |z| at or below which additivity_check calls the decomposition consistent.
_CONSISTENT_Z = 3.0


@dataclass(frozen=True, init=False)
class AdditivityCheck:
    """z-statistic for the pre-transition additive decomposition; consistent when |z| <= 3."""

    z_statistic: float
    consistent: bool

    def __init__(self, z_statistic: float, consistent: bool) -> None:
        if not math.isfinite(z_statistic) or consistent != (abs(z_statistic) <= _CONSISTENT_Z):
            raise ValueError(
                f"consistent must equal |z_statistic| <= 3 for a finite z_statistic, "
                f"got {consistent!r} for z_statistic {z_statistic!r}"
            )
        fields = self.__dict__
        fields["z_statistic"], fields["consistent"] = float(z_statistic), bool(consistent)


class _CountError(Exception):
    """A count-file defect as (kind, message); parse_counts adds the source and line."""


def _read_count(text: str, name: str) -> int:
    """One count field: ASCII digits only, below 2**63 with at most 19 of them."""
    if not (text.isascii() and text.isdigit()):
        raise _CountError(
            ParseErrorKind.BAD_INTEGER, f"{name} must be a non-negative integer, got {text!r}"
        )
    if len(text) > _MAX_DIGITS or (value := int(text)) >= _INTEGER_BOUND:
        raise _CountError(
            ParseErrorKind.INTEGER_OUT_OF_RANGE,
            f"{name} must be below 2**63 with at most {_MAX_DIGITS} digits",
        )
    return value


def parse_counts(text: bytes | str, source: str = "<memory>") -> CountFile:
    """Parse and validate a count CSV; errors carry line number and kind."""
    _check_size(text, source)
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            line = text.count(b"\n", 0, e.start) + 1
            raise ParseError(
                f"{source}: invalid UTF-8 at byte {e.start}",
                line=line,
                kind=ParseErrorKind.ENCODING,
            ) from None
    lines = text.split("\n")
    rows: list[CountRow] = []
    line_numbers: dict[str, int] = {}
    header_seen = False
    try:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.rstrip("\r")
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if not header_seen:
                if line != COUNTS_HEADER:
                    raise _CountError(
                        ParseErrorKind.BAD_HEADER,
                        f"expected header {COUNTS_HEADER!r}, got {line!r}",
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise _CountError(
                    ParseErrorKind.MALFORMED_ROW,
                    f"expected 3 comma-separated fields, got {len(parts)}",
                )
            label, successes_text, trials_text = parts
            if label not in CONTEXT_LABELS:
                raise _CountError(ParseErrorKind.UNKNOWN_LABEL, f"unknown context label {label!r}")
            if label in line_numbers:
                raise _CountError(
                    ParseErrorKind.DUPLICATE_LABEL,
                    f"duplicate context label {label!r} (first seen at line {line_numbers[label]})",
                )
            successes = _read_count(successes_text, "successes")
            trials = _read_count(trials_text, "trials")
            if trials == 0:
                raise _CountError(ParseErrorKind.ZERO_TRIALS, "trials must be positive")
            if successes > trials:
                raise _CountError(
                    ParseErrorKind.SUCCESSES_EXCEED_TRIALS,
                    f"successes {successes} exceed trials {trials}",
                )
            line_numbers[label] = lineno
            rows.append(CountRow(label, successes, trials))
        # split gives at least one line, so lineno is now the last: whole-file errors point there
        if not header_seen:
            raise _CountError(
                ParseErrorKind.BAD_HEADER, f"empty input, expected header {COUNTS_HEADER!r}"
            )
        missing = [label for label in _REQUIRED_LABELS if label not in line_numbers]
        if missing:
            raise _CountError(
                ParseErrorKind.MISSING_LABELS, f"missing required context rows {missing!r}"
            )
    except _CountError as e:
        kind, message = e.args
        raise ParseError(f"{source}: {message}", line=lineno, kind=kind) from None
    return CountFile(table=CountTable(tuple(rows)), source=source, line_numbers=line_numbers)


def additivity_check(counts: CountTable) -> AdditivityCheck | None:
    """Test whether the S1/S2 counts additively decompose the S counts.

    Returns None when either subcontext row is absent.  Otherwise computes
    ``z = (p_S - p_S1 - p_S2) / sqrt(v_S + v_S1 + v_S2)`` with the usual
    binomial variances ``v = p*(1-p)/trials`` and flags the decomposition
    consistent when ``|z| <= 3``.  An exactly zero variance sum with
    a nonzero difference raises :class:`DegenerateVariance`.
    """
    r_s = counts.row("S")
    r_1 = counts.row("S1")
    r_2 = counts.row("S2")
    if r_1 is None or r_2 is None:
        return None
    diff = r_s.proportion - r_1.proportion - r_2.proportion
    variance = sum(
        r.proportion * (1.0 - r.proportion) / r.trials for r in (r_s, r_1, r_2)
    )
    if variance == 0.0:
        if diff == 0.0:
            return AdditivityCheck(z_statistic=0.0, consistent=True)
        raise DegenerateVariance(
            f"all variances vanish but the difference is {diff!r}: "
            "the decomposition is deterministically violated"
        )
    z = diff / math.sqrt(variance)
    return AdditivityCheck(z_statistic=z, consistent=abs(z) <= _CONSISTENT_Z)


@dataclass(frozen=True, init=False)
class ContextSummary:
    """One context's empirical summary inside a report."""

    p_hat: float
    successes: int | None = None
    trials: int | None = None
    interval: tuple[float, float] | None = None

    def __init__(self, p_hat, successes=None, trials=None, interval=None) -> None:
        if not 0.0 <= p_hat <= 1.0:
            raise ValueError(f"p_hat must lie in [0, 1], got {p_hat!r}")
        if (successes is None) != (trials is None):
            raise ValueError("successes and trials must be both present or both null")
        if trials is not None:
            trials = _whole(trials, "trials", 1, _INTEGER_BOUND)
            successes = _whole(successes, "successes", 0, trials + 1)
            if p_hat != successes / trials:
                raise ValueError(
                    f"p_hat must equal successes / trials = {successes / trials!r}, "
                    f"got {p_hat!r}"
                )
        if interval is not None and not 0.0 <= interval[0] <= interval[1] <= 1.0:
            raise ValueError(f"interval must satisfy 0 <= lo <= hi <= 1, got {interval!r}")
        fields = self.__dict__
        fields["p_hat"], fields["successes"] = float(p_hat), successes
        fields["trials"], fields["interval"] = trials, _pair(interval)


def WaveSummary(kind, components) -> ComplexAmplitude | SplitComplexAmplitude:
    """The wave a report carries: the amplitude of ``kind`` with these two float components."""
    # == rather than a dict lookup: a parsed kind may be any JSON value, lists included
    for wave_type in (ComplexAmplitude, SplitComplexAmplitude):
        if kind == wave_type.kind:
            return wave_type(float(components[0]), float(components[1]))
    raise ValueError(
        f"wave kind must be {ComplexAmplitude.kind!r} or {SplitComplexAmplitude.kind!r}, "
        f"got {kind!r}"
    )


@dataclass(frozen=True, init=False)
class Reproducibility:
    """Seed, replicate count and generator behind the randomized parts of a report.

    Regenerating a counts-file report also needs the ``--confidence`` it was
    made with, which schema version 1 does not record.
    """

    seed: int
    replicates: int
    generator_name: str

    def __init__(self, seed: int, replicates: int, generator_name: str) -> None:
        if not isinstance(generator_name, str):
            raise ValueError(f"generator_name must be a string, got {generator_name!r}")
        fields = self.__dict__
        fields["seed"] = _whole(seed, "seed", 0, 2**64)
        fields["replicates"] = _whole(replicates, "replicates", 0, math.inf)
        fields["generator_name"] = str(generator_name)


# The wave type each regime type takes; TransitionAnalysis checks the regime.
_WAVES = {Trigonometric: ComplexAmplitude, Hyperbolic: SplitComplexAmplitude, Degenerate: None}


@dataclass(frozen=True, init=False)
class ReportDocument:
    """Complete analysis report; serializes canonically via :func:`write_report`."""

    schema_version: str
    inputs: dict[str, ContextSummary]
    delta: float
    lam: float | None
    regime: Regime
    lambda_interval: tuple[float, float] | None
    regime_stability: float | None
    additivity: AdditivityCheck | None
    wave: ComplexAmplitude | SplitComplexAmplitude | None
    reproducibility: Reproducibility

    def __init__(self, schema_version, inputs, delta, lam, regime, lambda_interval,
                 regime_stability, additivity, wave, reproducibility) -> None:
        if schema_version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {schema_version!r}")
        inputs = _by_label(inputs, "summaries")
        for label, summary in inputs.items():
            if type(summary) is not ContextSummary:
                raise ValueError(f"unknown inputs.{label} type {summary!r}")
        # The record types each field takes, exactly: those write_report can write.
        if type(additivity) is not AdditivityCheck and additivity is not None:
            raise ValueError(f"unknown additivity type {additivity!r}")
        if type(reproducibility) is not Reproducibility:
            raise ValueError(f"unknown reproducibility type {reproducibility!r}")
        if regime_stability is not None and not 0.0 <= regime_stability <= 1.0:
            raise ValueError(f"regime_stability must lie in [0, 1], got {regime_stability!r}")
        interval = lambda_interval
        if interval is not None and not -math.inf < interval[0] <= interval[1] < math.inf:
            raise ValueError(f"lambda_interval must satisfy lo <= hi, finite, got {interval!r}")
        TransitionAnalysis(delta, lam, regime)  # the regime, delta and lam rules
        if wave is not None:
            wave_type = _WAVES[type(regime)]
            if type(wave) is not wave_type:
                allowed = "null" if wave_type is None else f"null or a {wave_type.kind!r} wave"
                raise ValueError(f"wave must be {allowed} for a {regime.kind} regime, "
                                 f"got {wave!r}")
            if not all(map(math.isfinite, wave.components)):
                raise ValueError(f"wave components must be finite, got {wave.components!r}")
        fields = self.__dict__
        fields["schema_version"], fields["inputs"] = SCHEMA_VERSION, inputs
        fields["delta"], fields["lam"] = float(delta), None if lam is None else float(lam)
        fields["regime"], fields["lambda_interval"] = regime, _pair(interval)
        fields["regime_stability"] = None if regime_stability is None else float(regime_stability)
        fields["additivity"], fields["wave"] = additivity, wave
        fields["reproducibility"] = reproducibility


# What json.dumps returns for a string under its default settings.
_quote = json.encoder.encode_basestring_ascii


def _render(node, pad: str) -> str:
    kind = type(node)  # the document types keep each value as its exact type
    if kind is float:
        if not math.isfinite(node):
            raise ValueError(f"cannot serialize non-finite number {node!r}")
        return f"{node:.17g}"
    if kind is dict:
        inner = pad + "  "
        members = [f"{inner}{_quote(k)}: {_render(v, inner)}" for k, v in node.items()]
        return "{\n" + ",\n".join(members) + "\n" + pad + "}"
    if kind is int:
        return str(node)
    if kind is str:
        return _quote(node)
    if kind is tuple:
        return "[" + ", ".join([_render(v, pad) for v in node]) + "]"
    if node is None:
        return "null"
    if kind is bool:
        return "true" if node else "false"
    if kind is DegenerateReason:
        return _quote(node.value)
    raise TypeError(f"cannot serialize {kind.__name__}")


def write_report(doc: ReportDocument) -> bytes:
    """Serialize a report canonically: fixed key order, 17-digit reals."""
    # A record's vars() are its fields in declaration order, as _RECORDS reads them back.
    additivity = {"present": False}
    if doc.additivity is not None:
        additivity = {"present": True, **vars(doc.additivity)}
    wave = None
    if doc.wave is not None:
        wave = {"kind": doc.wave.kind, "components": _pair(doc.wave.components)}
    tree = {
        "schema_version": doc.schema_version,
        "inputs": {label: vars(summary) for label, summary in doc.inputs.items()},
        "delta": doc.delta,
        "lambda": doc.lam,
        "regime": {"kind": doc.regime.kind, **vars(doc.regime)},
        "lambda_interval": doc.lambda_interval,
        "regime_stability": doc.regime_stability,
        "additivity_check": additivity,
        "wave": wave,
        "reproducibility": vars(doc.reproducibility),
    }
    return (_render(tree, "") + "\n").encode("utf-8")


# Readers of the parsed JSON tree: each defect raises ValueError, which
# parse_report turns into one BAD_DOCUMENT error.


def _read_real(value, name: str, or_null: str = "") -> float:
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number{or_null}, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def _exactly(kind: type, noun: str):
    """The reader of a JSON value of type ``kind`` itself, so that no bool passes for an int."""
    def read(value, name: str, or_null: str = ""):
        if type(value) is not kind:
            raise ValueError(f"{name} must be {noun}{or_null}, got {value!r}")
        return value
    return read


_read_int, _read_bool, _read_str = (
    _exactly(int, "an integer"), _exactly(bool, "a boolean"), _exactly(str, "a string")
)


def _read_pair(value, name: str, or_null: str = "") -> tuple[float, float]:
    if type(value) is not list or len(value) != 2:
        raise ValueError(f"{name} must be a two-element array{or_null}, got {value!r}")
    return (_read_real(value[0], name), _read_real(value[1], name))


def _read_reason(value, name: str, or_null: str = "") -> DegenerateReason:
    try:
        return DegenerateReason(value)
    except ValueError:
        raise ValueError(f"unknown degeneracy reason {value!r}") from None


def _or_null(read, value, name: str):
    return None if value is None else read(value, name, " or null")


# The report schema (see the module docstring).  A regime's object leads with
# its "kind", additivity_check's with "present".
_FIELDS = {
    "p_hat": (_read_real, False), "successes": (_read_int, True),  # ContextSummary
    "trials": (_read_int, True), "interval": (_read_pair, True),
    "z_statistic": (_read_real, False), "consistent": (_read_bool, False),  # AdditivityCheck
    "seed": (_read_int, False), "replicates": (_read_int, False),  # Reproducibility
    "generator_name": (_read_str, False),
    "sign": (_read_int, False), "theta": (_read_real, False),  # Hyperbolic, Trigonometric
    "reason": (_read_reason, False),  # Degenerate
}


def _layout(cls, *tag: str) -> tuple[tuple, frozenset]:
    """``cls``'s fields as (name, reader, nullable), in order, and the keys of its object."""
    names = tuple(f.name for f in dataclasses.fields(cls))
    return tuple((name, *_FIELDS[name]) for name in names), frozenset(tag + names)


_RECORDS = {cls: _layout(cls) for cls in (ContextSummary, Reproducibility)}
_RECORDS |= {cls: _layout(cls, "kind") for cls in (Trigonometric, Hyperbolic, Degenerate)}
_RECORDS[AdditivityCheck] = _layout(AdditivityCheck, "present")


def _check_keys(node: dict, keys, name: str) -> None:
    if node.keys() != keys:
        raise ValueError(f"{name} keys {sorted(node.keys() ^ keys)!r} missing or unexpected")


def _read_record(cls, node, name: str):
    """The ``cls`` that JSON object ``node`` holds, read field by field."""
    if not isinstance(node, dict):
        raise ValueError(f"{name} must be an object, got {node!r}")
    fields, keys = _RECORDS[cls]
    _check_keys(node, keys, name)
    values = []
    for field, read, nullable in fields:
        value = node[field]
        if nullable and value is None:
            values.append(None)
        else:
            values.append(read(value, f"{name}.{field}", " or null" if nullable else ""))
    return cls(*values)


def _read_document(obj) -> ReportDocument:
    if not isinstance(obj, dict):
        raise ValueError("report root must be an object")
    _check_keys(obj, {"schema_version", "inputs", "delta", "lambda", "regime", "lambda_interval",
                      "regime_stability", "additivity_check", "wave", "reproducibility"}, "report")
    if not isinstance(obj["inputs"], dict):
        raise ValueError("inputs must be an object")
    inputs = {
        label: _read_record(ContextSummary, node, f"inputs.{label}")
        for label, node in _by_label(obj["inputs"], "summaries").items()
    }
    regime = obj["regime"]
    if not isinstance(regime, dict) or "kind" not in regime:
        raise ValueError(f"regime must be an object with a kind, got {regime!r}")
    for regime_type in (Trigonometric, Hyperbolic, Degenerate):
        if regime["kind"] == regime_type.kind:
            break
    else:
        raise ValueError(f"unknown regime kind {regime['kind']!r}")
    additivity = obj["additivity_check"]
    if not isinstance(additivity, dict) or not isinstance(additivity.get("present"), bool):
        raise ValueError("additivity_check must carry a boolean 'present'")
    if not additivity["present"]:
        _check_keys(additivity, {"present"}, "additivity_check")
    wave = obj["wave"]
    if wave is not None:
        if not isinstance(wave, dict):
            raise ValueError(f"wave must be an object or null, got {wave!r}")
        _check_keys(wave, {"kind", "components"}, "wave")
        wave = WaveSummary(wave["kind"], _read_pair(wave["components"], "wave.components"))
    return ReportDocument(
        schema_version=obj["schema_version"],
        inputs=inputs,
        delta=_read_real(obj["delta"], "delta"),
        lam=_or_null(_read_real, obj["lambda"], "lambda"),
        regime=_read_record(regime_type, regime, "regime"),
        lambda_interval=_or_null(_read_pair, obj["lambda_interval"], "lambda_interval"),
        regime_stability=_or_null(_read_real, obj["regime_stability"], "regime_stability"),
        additivity=(_read_record(AdditivityCheck, additivity, "additivity_check")
                    if additivity["present"] else None),
        wave=wave,
        reproducibility=_read_record(Reproducibility, obj["reproducibility"], "reproducibility"),
    )


def parse_report(data: bytes | str) -> ReportDocument:
    """Parse a serialized report back into an equal :class:`ReportDocument`.

    Every defect raises :class:`ParseError`: ``INPUT_TOO_LARGE`` past
    ``MAX_INPUT_BYTES``, ``ENCODING`` for bytes that are not UTF-8,
    ``BAD_DOCUMENT`` for the rest.  The document types check their own
    fields, so a report that parses is one that :func:`write_report` can write.
    """
    _check_size(data, "report")
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(
                "report is not valid UTF-8", line=1, kind=ParseErrorKind.ENCODING
            ) from None
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as e:  # bad JSON, an int past the digit limit, deep nesting
        raise ParseError(
            f"invalid report JSON: {getattr(e, 'msg', e)}",
            line=getattr(e, "lineno", 1),
            kind=ParseErrorKind.BAD_DOCUMENT,
        ) from None
    try:
        return _read_document(obj)
    except ValueError as e:
        raise ParseError(str(e), line=1, kind=ParseErrorKind.BAD_DOCUMENT) from None


def write_counts(table: CountTable) -> bytes:
    """Serialize a count table as canonical CSV (rows in canonical order)."""
    lines = [COUNTS_HEADER]
    lines.extend(f"{r.label},{r.successes},{r.trials}" for r in table.rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_bytes_atomic(path, chunks: Iterable[bytes]) -> None:
    """Write byte chunks to a file atomically and durably, with the mode a plain ``open`` gives.

    A temp file in the same directory is fsynced, renamed, then the directory
    fsynced.  A directory target, or a parent that cannot hold the temp file,
    fails before any temp file exists, with an error that names ``path``.
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".ctxprob-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
