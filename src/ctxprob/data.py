"""Count model, count-file ingestion and canonical report serialization.

:class:`CountRow` and :class:`CountTable` (the per-context counts that
sampling produces and estimation consumes) live here with their file format.

Count files are CSV with the exact header ``context,successes,trials``.
Context labels are S, S1, S2, S1p, S2p; values are non-negative integers
below 2**63 (at most 19 digits) with successes <= trials and trials >= 1;
rows may appear in any order but labels must be unique and S, S1p, S2p
must be present.  UTF-8 with LF or CRLF line endings; blank lines and lines
starting with ``#`` are ignored.

Reports serialize to a canonical JSON document: fixed key order, real
numbers rendered with 17 significant digits (enough to round-trip doubles
exactly), newline-terminated.  ``parse_report(write_report(doc))`` always
returns a document equal to ``doc``.
"""

from __future__ import annotations

import enum
import errno
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass
from typing import Iterable

from .amplitudes import ComplexAmplitude, SplitComplexAmplitude
from .calculus import (
    ContextTriple, Degenerate, DegenerateReason, Hyperbolic, Regime, TransitionAnalysis,
    Trigonometric,
)
from .errors import DegenerateVariance, ParseError, ZeroTrials

CONTEXT_LABELS = ("S", "S1", "S2", "S1p", "S2p")
_REQUIRED_LABELS = ("S", "S1p", "S2p")


def context_probabilities(triple: ContextTriple) -> dict[str, float]:
    """Each context's probability in a triple, keyed by label in canonical order."""
    values = (triple.p_s, triple.p1, triple.p2, triple.p1_prime, triple.p2_prime)
    return {label: float(p) for label, p in zip(CONTEXT_LABELS, values) if p is not None}


SCHEMA_VERSION = "1"
COUNTS_HEADER = "context,successes,trials"
_INTEGER = re.compile(r"[0-9]+")
# Counts feed numpy's 64-bit samplers; 2**63 - 1 has 19 digits, and capping
# the length first keeps int() clear of its digit limit.
_MAX_DIGITS = 19
_INTEGER_BOUND = 2**63


@dataclass(frozen=True)
class CountRow:
    """Outcome counts of one context's run: successes out of trials below 2**63."""

    label: str
    successes: int
    trials: int

    def __post_init__(self) -> None:
        if self.label not in CONTEXT_LABELS:
            raise ValueError(f"unknown context label {self.label!r}")
        if int(self.trials) != self.trials or self.trials < 1:
            raise ZeroTrials(f"{self.label}: trials must be a positive integer, got {self.trials!r}")
        if self.trials >= _INTEGER_BOUND:
            raise ValueError(f"{self.label}: trials must be below 2**63, got {self.trials!r}")
        if int(self.successes) != self.successes or not (0 <= self.successes <= self.trials):
            raise ValueError(
                f"{self.label}: successes must lie in [0, trials], got {self.successes!r}"
            )
        object.__setattr__(self, "successes", int(self.successes))
        object.__setattr__(self, "trials", int(self.trials))

    @property
    def proportion(self) -> float:
        return self.successes / self.trials


@dataclass(frozen=True)
class CountTable:
    """Per-context counts of one experiment; rows are kept in canonical order.

    Labels must be unique and include at least S, S1p and S2p.
    """

    rows: tuple[CountRow, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        labels = [r.label for r in rows]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate context labels in {labels!r}")
        missing = [label for label in _REQUIRED_LABELS if label not in labels]
        if missing:
            raise ValueError(f"missing required context rows: {missing!r}")
        object.__setattr__(
            self, "rows", tuple(sorted(rows, key=lambda r: CONTEXT_LABELS.index(r.label)))
        )

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


@dataclass(frozen=True)
class CountFile:
    """A parsed count table plus where each row came from."""

    table: CountTable
    source: str
    line_numbers: dict[str, int]


@dataclass(frozen=True)
class AdditivityCheck:
    """z-statistic for the pre-transition additive decomposition."""

    z_statistic: float
    consistent: bool


def parse_counts(text: bytes | str, source: str = "<memory>") -> CountFile:
    """Parse and validate a count CSV; errors carry line number and kind."""
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
    last_line = max(len(lines), 1)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not header_seen:
            if line != COUNTS_HEADER:
                raise ParseError(
                    f"{source}: expected header {COUNTS_HEADER!r}, got {line!r}",
                    line=lineno,
                    kind=ParseErrorKind.BAD_HEADER,
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(
                f"{source}: expected 3 comma-separated fields, got {len(parts)}",
                line=lineno,
                kind=ParseErrorKind.MALFORMED_ROW,
            )
        label, successes_text, trials_text = parts
        if label not in CONTEXT_LABELS:
            raise ParseError(
                f"{source}: unknown context label {label!r}",
                line=lineno,
                kind=ParseErrorKind.UNKNOWN_LABEL,
            )
        if label in line_numbers:
            raise ParseError(
                f"{source}: duplicate context label {label!r} "
                f"(first seen at line {line_numbers[label]})",
                line=lineno,
                kind=ParseErrorKind.DUPLICATE_LABEL,
            )
        for name, value in (("successes", successes_text), ("trials", trials_text)):
            if not _INTEGER.fullmatch(value):
                raise ParseError(
                    f"{source}: {name} must be a non-negative integer, got {value!r}",
                    line=lineno,
                    kind=ParseErrorKind.BAD_INTEGER,
                )
            if len(value) > _MAX_DIGITS or int(value) >= _INTEGER_BOUND:
                raise ParseError(
                    f"{source}: {name} must be below 2**63 with at most {_MAX_DIGITS} digits",
                    line=lineno,
                    kind=ParseErrorKind.INTEGER_OUT_OF_RANGE,
                )
        successes = int(successes_text)
        trials = int(trials_text)
        if trials == 0:
            raise ParseError(
                f"{source}: trials must be positive",
                line=lineno,
                kind=ParseErrorKind.ZERO_TRIALS,
            )
        if successes > trials:
            raise ParseError(
                f"{source}: successes {successes} exceed trials {trials}",
                line=lineno,
                kind=ParseErrorKind.SUCCESSES_EXCEED_TRIALS,
            )
        line_numbers[label] = lineno
        rows.append(CountRow(label, successes, trials))
    if not header_seen:
        raise ParseError(
            f"{source}: empty input, expected header {COUNTS_HEADER!r}",
            line=last_line,
            kind=ParseErrorKind.BAD_HEADER,
        )
    missing = [label for label in _REQUIRED_LABELS if label not in line_numbers]
    if missing:
        raise ParseError(
            f"{source}: missing required context rows {missing!r}",
            line=last_line,
            kind=ParseErrorKind.MISSING_LABELS,
        )
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
    return AdditivityCheck(z_statistic=z, consistent=abs(z) <= 3.0)


@dataclass(frozen=True)
class ContextSummary:
    """One context's empirical summary inside a report."""

    p_hat: float
    successes: int | None = None
    trials: int | None = None
    interval: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_hat <= 1.0:
            raise ValueError(f"p_hat must lie in [0, 1], got {self.p_hat!r}")
        if (self.successes is None) != (self.trials is None):
            raise ValueError("successes and trials must be both present or both null")
        if self.trials is not None and not 1 <= self.trials < _INTEGER_BOUND:
            raise ValueError(f"trials must lie in [1, 2**63), got {self.trials!r}")
        if self.trials is not None and not 0 <= self.successes <= self.trials:
            raise ValueError(f"successes must lie in [0, trials], got {self.successes!r}")
        if self.interval is not None and not 0.0 <= self.interval[0] <= self.interval[1] <= 1.0:
            raise ValueError(f"interval must satisfy 0 <= lo <= hi <= 1, got {self.interval!r}")


@dataclass(frozen=True)
class WaveSummary:
    """Wave components attached to a report: complex or split-complex."""

    kind: str
    components: tuple[float, float]

    def __post_init__(self) -> None:
        kinds = (ComplexAmplitude.kind, SplitComplexAmplitude.kind)
        if self.kind not in kinds:
            raise ValueError(f"wave kind must be {kinds[0]!r} or {kinds[1]!r}, got {self.kind!r}")
        object.__setattr__(
            self, "components", (float(self.components[0]), float(self.components[1]))
        )


@dataclass(frozen=True)
class Reproducibility:
    """Everything needed to regenerate the randomized parts of a report."""

    seed: int
    replicates: int
    generator_name: str

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed!r}")
        if self.replicates < 0:
            raise ValueError(f"replicates must be >= 0, got {self.replicates!r}")


@dataclass(frozen=True)
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
    wave: WaveSummary | None
    reproducibility: Reproducibility

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {self.schema_version!r}")
        unknown = set(self.inputs) - set(CONTEXT_LABELS)
        if unknown:
            raise ValueError(f"unknown context labels {sorted(unknown)!r}")
        missing = [label for label in _REQUIRED_LABELS if label not in self.inputs]
        if missing:
            raise ValueError(f"missing required context summaries {missing!r}")
        if self.regime_stability is not None and not 0.0 <= self.regime_stability <= 1.0:
            raise ValueError(f"regime_stability must lie in [0, 1], got {self.regime_stability!r}")
        interval = self.lambda_interval
        if interval is not None and not interval[0] <= interval[1]:
            raise ValueError(f"lambda_interval must satisfy lo <= hi, got {interval!r}")
        TransitionAnalysis(self.delta, self.lam, self.regime)  # ties regime to lam
        ordered = {
            label: self.inputs[label] for label in CONTEXT_LABELS if label in self.inputs
        }
        object.__setattr__(self, "inputs", ordered)


def _format_real(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return f"{x:.17g}"


def _render(node, indent: int) -> str:
    pad = "  " * indent
    if node is None:
        return "null"
    if node is True:
        return "true"
    if node is False:
        return "false"
    if isinstance(node, int):
        return str(node)
    if isinstance(node, float):
        return _format_real(node)
    if isinstance(node, str):
        return json.dumps(node)
    if isinstance(node, (list, tuple)):
        return "[" + ", ".join(_render(v, indent) for v in node) + "]"
    if isinstance(node, dict):
        if not node:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_render(v, indent + 1)}" for k, v in node.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(node).__name__}")


def _regime_tree(regime: Regime) -> dict:
    if isinstance(regime, Trigonometric):
        return {"kind": regime.kind, "theta": float(regime.theta)}
    if isinstance(regime, Hyperbolic):
        return {"kind": regime.kind, "sign": int(regime.sign), "theta": float(regime.theta)}
    if isinstance(regime, Degenerate):
        return {"kind": regime.kind, "reason": regime.reason.value}
    raise TypeError(f"unknown regime type: {regime!r}")


def _pair(value: tuple[float, float] | None) -> list[float] | None:
    if value is None:
        return None
    return [float(value[0]), float(value[1])]


def _document_tree(doc: ReportDocument) -> dict:
    inputs = {}
    for label, summary in doc.inputs.items():
        inputs[label] = {
            "p_hat": float(summary.p_hat),
            "successes": summary.successes,
            "trials": summary.trials,
            "interval": _pair(summary.interval),
        }
    if doc.additivity is None:
        additivity = {"present": False}
    else:
        additivity = {
            "present": True,
            "z_statistic": float(doc.additivity.z_statistic),
            "consistent": bool(doc.additivity.consistent),
        }
    wave = None
    if doc.wave is not None:
        wave = {"kind": doc.wave.kind, "components": list(doc.wave.components)}
    return {
        "schema_version": doc.schema_version,
        "inputs": inputs,
        "delta": float(doc.delta),
        "lambda": None if doc.lam is None else float(doc.lam),
        "regime": _regime_tree(doc.regime),
        "lambda_interval": _pair(doc.lambda_interval),
        "regime_stability": None if doc.regime_stability is None else float(doc.regime_stability),
        "additivity_check": additivity,
        "wave": wave,
        "reproducibility": {
            "seed": int(doc.reproducibility.seed),
            "replicates": int(doc.reproducibility.replicates),
            "generator_name": doc.reproducibility.generator_name,
        },
    }


def write_report(doc: ReportDocument) -> bytes:
    """Serialize a report canonically: fixed key order, 17-digit reals."""
    return (_render(_document_tree(doc), 0) + "\n").encode("utf-8")


# Readers of the parsed JSON tree: each defect raises ValueError, which
# parse_report turns into one BAD_DOCUMENT error.


def _read_real(value, name: str, or_null: str = "") -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number{or_null}, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def _read_int(value, name: str, or_null: str = "") -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer{or_null}, got {value!r}")
    return value


def _read_pair(value, name: str, or_null: str = "") -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{name} must be a two-element array{or_null}, got {value!r}")
    return (_read_real(value[0], name), _read_real(value[1], name))


def _or_null(read, value, name: str):
    return None if value is None else read(value, name, " or null")


def _read_regime(node) -> Regime:
    if not isinstance(node, dict) or "kind" not in node:
        raise ValueError(f"regime must be an object with a kind, got {node!r}")
    kind = node["kind"]
    if kind == Trigonometric.kind:
        return Trigonometric(theta=_read_real(node.get("theta"), "regime.theta"))
    if kind == Hyperbolic.kind:
        return Hyperbolic(node.get("sign"), _read_real(node.get("theta"), "regime.theta"))
    if kind == Degenerate.kind:
        try:
            return Degenerate(reason=DegenerateReason(node.get("reason")))
        except ValueError:
            raise ValueError(f"unknown degeneracy reason {node.get('reason')!r}") from None
    raise ValueError(f"unknown regime kind {kind!r}")


def _read_document(obj) -> ReportDocument:
    if not isinstance(obj, dict):
        raise ValueError("report root must be an object")
    expected = {
        "schema_version", "inputs", "delta", "lambda", "regime", "lambda_interval",
        "regime_stability", "additivity_check", "wave", "reproducibility",
    }
    if set(obj) != expected:
        raise ValueError(f"report keys {sorted(set(obj) ^ expected)!r} missing or unexpected")
    if not isinstance(obj["inputs"], dict):
        raise ValueError("inputs must be an object")
    inputs = {}
    for label, node in obj["inputs"].items():
        if not isinstance(node, dict):
            raise ValueError(f"inputs.{label} must be an object, got {node!r}")
        inputs[label] = ContextSummary(
            p_hat=_read_real(node.get("p_hat"), f"inputs.{label}.p_hat"),
            successes=_or_null(_read_int, node.get("successes"), f"inputs.{label}.successes"),
            trials=_or_null(_read_int, node.get("trials"), f"inputs.{label}.trials"),
            interval=_or_null(_read_pair, node.get("interval"), f"inputs.{label}.interval"),
        )
    add_node = obj["additivity_check"]
    if not isinstance(add_node, dict) or not isinstance(add_node.get("present"), bool):
        raise ValueError("additivity_check must carry a boolean 'present'")
    additivity = None
    if add_node["present"]:
        consistent = add_node.get("consistent")
        if not isinstance(consistent, bool):
            raise ValueError("additivity_check.consistent must be a boolean")
        additivity = AdditivityCheck(
            z_statistic=_read_real(add_node.get("z_statistic"), "additivity_check.z_statistic"),
            consistent=consistent,
        )
    wave = obj["wave"]
    if wave is not None:
        if not isinstance(wave, dict):
            raise ValueError(f"wave must be an object or null, got {wave!r}")
        wave = WaveSummary(wave.get("kind"), _read_pair(wave.get("components"), "wave.components"))
    repro = obj["reproducibility"]
    if not isinstance(repro, dict) or not isinstance(repro.get("generator_name"), str):
        raise ValueError("reproducibility must be an object with a string generator_name")
    doc = ReportDocument(
        schema_version=obj["schema_version"],
        inputs=inputs,
        delta=_read_real(obj["delta"], "delta"),
        lam=_or_null(_read_real, obj["lambda"], "lambda"),
        regime=_read_regime(obj["regime"]),
        lambda_interval=_or_null(_read_pair, obj["lambda_interval"], "lambda_interval"),
        regime_stability=_or_null(_read_real, obj["regime_stability"], "regime_stability"),
        additivity=additivity,
        wave=wave,
        reproducibility=Reproducibility(
            seed=_read_int(repro.get("seed"), "reproducibility.seed"),
            replicates=_read_int(repro.get("replicates"), "reproducibility.replicates"),
            generator_name=repro["generator_name"],
        ),
    )
    tree = _document_tree(doc)  # the writer's tree is the schema of the nested objects too
    nested = [(f"inputs.{label}", obj["inputs"][label], tree["inputs"][label]) for label in inputs]
    for key in ("regime", "additivity_check", "wave", "reproducibility"):
        nested.append((key, obj[key], tree[key]))
    for name, node, written in nested:
        if written is not None and node.keys() != written.keys():
            keys = sorted(node.keys() ^ written.keys())
            raise ValueError(f"{name} keys {keys!r} missing or unexpected")
    return doc


def parse_report(data: bytes | str) -> ReportDocument:
    """Parse a serialized report back into an equal :class:`ReportDocument`.

    Every defect raises :class:`ParseError`: ``ENCODING`` for bytes that are
    not UTF-8, ``BAD_DOCUMENT`` for the rest.  The document types check their
    own fields, so a report that parses is one that :func:`write_report` can write.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(
                "report is not valid UTF-8", line=1, kind=ParseErrorKind.ENCODING
            ) from None
    try:
        obj = json.loads(data)
    except ValueError as e:  # a JSONDecodeError, or an integer past int()'s digit limit
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
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ctxprob-")
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
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
