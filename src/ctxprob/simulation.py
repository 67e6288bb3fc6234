"""Synthetic context-transition experiments, their estimation, and the report ``analyze`` writes.

A scenario is its ground truth: each of the three families returns the
:class:`~ctxprob.calculus.ContextTriple` of its context probabilities.

* :data:`DirectScenario` — explicit probabilities for every context; it is
  :class:`~ctxprob.calculus.ContextTriple` itself, validated once;
* :func:`TwoSlitScenario` — two-path interference with amplitudes ``m1`` and
  ``m2 * e^{i*phase}``: per-path probabilities ``m1**2`` and ``m2**2``,
  combined probability ``|m1 + m2*e^{i*phase}|**2``;
* :func:`HyperbolicUrnScenario` — a pre-transition pair that stays additive
  while the post-transition pair deviates strongly (``|lambda| > 1``).

Each context is an independent experimental run.  Its successes are one
``Binomial(trials, p)`` draw, O(1) in ``trials``, on the context's own
stream.  Stream ``j`` of a seed ``s`` is
``Generator(Philox(SeedSequence(s), counter=[0, 0, 0, j]))``: one Philox
(4x64) key per seed, and a block of 2**192 counter values per stream, so
adding a context never shifts another context's draws.  Stream ids 0-4 are
the context sampling streams in :data:`CONTEXT_LABELS` order; bootstrap
resampling uses ids 16-20 so that reusing one seed across the pipeline
never aliases streams.  ``Generator.binomial`` is outside numpy's
stream-compatibility policy (NEP 19), so a seed's counts are fixed for a
given numpy version.  numpy is imported only by the code that draws (the
stream constructor and the bootstrap), so scenarios and the constants load
without it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import amplitudes
from .calculus import (
    ROUND_OFF,
    ContextTriple,
    Hyperbolic,
    Probability,
    TransitionAnalysis,
    _Record,
    _delta_and_normalizer,
    _phase,
    _same_regime,
    analyze,
)
from .data import _INTEGER_BOUND, CONTEXT_LABELS, CountRow, CountTable, _whole, context_probabilities
from .data import SCHEMA_VERSION, ContextSummary, ReportDocument, Reproducibility, additivity_check
from .errors import InvalidScenario

if TYPE_CHECKING:
    from collections.abc import Callable

    import numpy as np

_STREAM_ID = {label: i for i, label in enumerate(CONTEXT_LABELS)}
_BOOTSTRAP_STREAM_BASE = 16

GENERATOR_NAME = "philox4x64-counterblock-v3"

MAX_REPLICATES = 10**6
"""Upper bound on bootstrap replicates: at the cap each replicate array holds 8 MB."""


def _seed_streams(seed: int) -> Callable[[int], np.random.Generator]:
    """``stream(j)`` draws like ``Generator(Philox(SeedSequence(seed), counter=[0, 0, 0, j]))``.

    The seed is keyed once; each call rewinds the one generator to block
    ``j``, so a stream is used up before the next one is taken.
    """
    import numpy as np

    bit_generator = np.random.Philox(np.random.SeedSequence(seed))
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state  # fresh: streams differ only in the counter

    def stream(j: int) -> np.random.Generator:
        state["state"]["counter"] = (0, 0, 0, j)
        bit_generator.state = state
        return rng

    return stream


DirectScenario = ContextTriple

# Phase slack of the two-slit family: decimal-rounded endpoints such as 3.1415927 pass.
_PHASE_SLACK = 1e-6


def TwoSlitScenario(a1_modulus: float, a2_modulus: float, phase: float) -> ContextTriple:
    """Two-path interference with amplitudes m1 and m2*e^{i*phase}, as its truth.

    Returns ``ContextTriple(|m1 + m2*e^{i*phase}|**2, m1**2, m2**2)``.  Every
    one of these probabilities must lie in [0, 1]; the combined one peaks at
    (m1+m2)**2 when the phase vanishes.  The phase must lie in [0, pi] up to
    a slack of 1e-6, tolerating decimal-rounded endpoint inputs such as 3.1415927.
    """
    m1 = float(a1_modulus)
    m2 = float(a2_modulus)
    t = float(phase)
    if not (math.isfinite(m1) and m1 >= 0.0 and math.isfinite(m2) and m2 >= 0.0):
        raise InvalidScenario(f"amplitude moduli must be finite and >= 0, got {m1!r}, {m2!r}")
    if not (-_PHASE_SLACK <= t <= math.pi + _PHASE_SLACK):
        raise InvalidScenario(f"phase must lie in [0, pi], got {phase!r}")
    p_s = m1 * m1 + m2 * m2 + 2.0 * m1 * m2 * math.cos(t)
    for name, p in (("m1**2", m1 * m1), ("m2**2", m2 * m2), ("combined probability", p_s)):
        if p > 1.0 + ROUND_OFF:
            raise InvalidScenario(f"{name} = {p!r} exceeds 1")
    return ContextTriple(p_s, m1 * m1, m2 * m2)


def HyperbolicUrnScenario(p1: float, p2: float, p1_prime: float, p2_prime: float) -> ContextTriple:
    """Additive pre-transition pair with a strongly deviating post pair, as its truth.

    Returns ``ContextTriple(p1 + p2, p1_prime, p2_prime, p1, p2)``.  The
    combined probability p1 + p2 must not exceed 1, and the parameters must
    actually produce a hyperbolic transition: the coefficient
    :func:`~ctxprob.calculus.analyze` computes from them must satisfy |lambda| > 1.
    """
    p1, p2, p1_prime, p2_prime = (Probability(p) for p in (p1, p2, p1_prime, p2_prime))
    p_s = float(p1) + float(p2)
    if p_s > 1.0 + ROUND_OFF:
        raise InvalidScenario(f"p1 + p2 = {p_s!r} exceeds 1")
    truth = ContextTriple(p_s, p1_prime, p2_prime, p1, p2)
    point = analyze(truth)
    if point.lam is None:
        raise InvalidScenario("post-transition probabilities must be positive")
    if type(point.regime) is not Hyperbolic:
        raise InvalidScenario(
            f"parameters give |lambda| = {abs(point.lam)!r} <= 1: not a hyperbolic transition"
        )
    return truth


class EstimationReport(_Record):
    """Point analysis plus bootstrap uncertainty for one count table.

    ``lambda_interval`` and the per-context ``context_intervals`` are
    percentile intervals at level ``confidence``, read from the sorted
    replicates by Hyndman-Fan type 7 (numpy's default ``linear`` quantile);
    ``regime_stability`` is the fraction of replicates classified like the
    point estimate; ``theta_std`` is the bootstrap standard deviation of the
    phase among regime-matching replicates.  All of these are None when
    ``replicates`` is 0 or the quantity is unavailable.
    """

    point: TransitionAnalysis
    lambda_interval: tuple[float, float] | None
    context_intervals: dict[str, tuple[float, float] | None]
    regime_stability: float | None
    theta_std: float | None
    seed: int
    replicates: int
    confidence: float

    def __init__(self, point, lambda_interval, context_intervals, regime_stability, theta_std,
                 seed, replicates, confidence) -> None:
        fields = self.__dict__
        fields["point"], fields["lambda_interval"] = point, lambda_interval
        fields["context_intervals"], fields["regime_stability"] = context_intervals, regime_stability
        fields["theta_std"], fields["seed"] = theta_std, seed
        fields["replicates"], fields["confidence"] = replicates, confidence


def scenario_truth(scenario: ContextTriple) -> ContextTriple:
    """Exact context probabilities implied by a scenario: every scenario is its own triple."""
    return scenario


def sample_counts(scenario: ContextTriple, trials_per_context: int, seed: int = 0) -> CountTable:
    """Draw finite counts for every context whose probability a scenario's triple carries.

    Each context's successes are one Binomial(trials_per_context, p) draw on its
    own stream; ``trials_per_context`` is whole and lies in [1, 2**63) like a count file.
    """
    n = _whole(trials_per_context, "trials_per_context", 1, _INTEGER_BOUND)
    stream = _seed_streams(_whole(seed, "seed", 0, 2**64))
    rows = [
        CountRow(label, int(stream(_STREAM_ID[label]).binomial(n, p)), n)
        for label, p in context_probabilities(scenario).items()
    ]
    return CountTable(tuple(rows))


def _linear_quantiles(sorted_values: np.ndarray, levels: tuple[float, ...]) -> list:
    """Hyndman-Fan type 7 quantiles along the last axis of sorted, NaN-free data.

    numpy's default ``linear`` method step for step, so bit-identical to it:
    ``v = (n - 1) * q`` lies between order statistics ``floor(v)`` and
    ``floor(v) + 1``; once ``v >= n - 1`` both are the last element and the
    weight ``g`` is measured from index -1, as numpy does.
    """
    n = sorted_values.shape[-1]
    values = []
    for q in levels:
        v = (n - 1) * q
        lo, hi = (-1, -1) if v >= n - 1 else (math.floor(v), math.floor(v) + 1)
        a, b, g = sorted_values[..., lo], sorted_values[..., hi], v - lo
        values.append(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)
    return values


def estimate(
    counts: CountTable,
    replicates: int = 1000,
    confidence: float = 0.95,
    seed: int = 0,
) -> EstimationReport:
    """Estimate the transition analysis from counts, with bootstrap uncertainty.

    The point estimate plugs the per-context success proportions into the
    calculus.  Uncertainty comes from a parametric bootstrap: each context's
    successes are redrawn from Binomial(trials, p_hat) on its own bootstrap
    stream of ``seed``, id 16 plus its sampling stream id, so its replicates
    depend on its own row alone.  The coefficient is recomputed per
    replicate by the transition kernel that :func:`~ctxprob.calculus.analyze`
    runs, and intervals are Hyndman-Fan type 7 percentiles (numpy's
    default ``linear``) of the sorted replicates.  A zero post-transition
    proportion is flagged as a degenerate point regime, never raised;
    replicates with a degenerate denominator carry no coefficient and are
    classified degenerate for stability purposes.  ``replicates`` is a whole
    number in [0, :data:`MAX_REPLICATES`] and ``seed`` one in [0, 2**64).
    """
    r = _whole(replicates, "replicates", 0, MAX_REPLICATES + 1)
    c = float(confidence)
    if not (0.0 < c < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    s = _whole(seed, "seed", 0, 2**64)

    p_hat = {row.label: row.proportion for row in counts.rows}
    point = analyze(ContextTriple(p_hat["S"], p_hat["S1p"], p_hat["S2p"]))
    labels = counts.labels
    context_intervals = dict.fromkeys(labels)
    lambda_interval = regime_stability = theta_std = None
    if r:
        import numpy as np

        q_lo = (1.0 - c) / 2.0
        levels = (q_lo, 1.0 - q_lo)
        replicate_matrix = np.empty((len(labels), r))
        stream = _seed_streams(s)
        for row, proportions in zip(counts.rows, replicate_matrix):
            rng = stream(_BOOTSTRAP_STREAM_BASE + _STREAM_ID[row.label])
            np.divide(rng.binomial(row.trials, p_hat[row.label], size=r), row.trials, out=proportions)
        boot = dict(zip(labels, replicate_matrix))
        delta_b, denom = _delta_and_normalizer(boot["S"], boot["S1p"], boot["S2p"], np.sqrt)
        ok = denom > 0.0
        lam_b = np.divide(delta_b, denom, out=np.full(r, np.nan), where=ok)

        replicate_matrix.sort(axis=1)  # in place: the replicates are not read in draw order again
        lows, highs = _linear_quantiles(replicate_matrix, levels)
        context_intervals = {
            label: (lo, hi) for label, lo, hi in zip(labels, lows.tolist(), highs.tolist())
        }

        same_regime = _same_regime(point.regime, lam_b)
        regime_stability = float(np.count_nonzero(same_regime)) / r

        if point.lam is not None and bool(ok.any()):
            defined = lam_b[ok]
            defined.sort()
            lo, hi = _linear_quantiles(defined, levels)
            lambda_interval = (float(lo), float(hi))

        if point.lam is not None:
            match = lam_b[same_regime]
            if match.size >= 2:
                # The mask keeps each value in its phase's domain.  numpy's phases, not
                # math's: theta_std is hashed, and nothing makes the two agree bit for bit.
                theta_std = float(np.std(_phase(point.regime, match, np.arccos, np.arccosh), ddof=1))

    return EstimationReport(
        point=point,
        lambda_interval=lambda_interval,
        context_intervals=context_intervals,
        regime_stability=regime_stability,
        theta_std=theta_std,
        seed=s,
        replicates=r,
        confidence=c,
    )


def report_from_counts(
    counts: CountTable, replicates: int = 1000, confidence: float = 0.95, seed: int = 0
) -> ReportDocument:
    """The report ``analyze FILE`` writes: :func:`estimate` plus the additivity check and wave."""
    report = estimate(counts, replicates, confidence, seed)
    intervals = report.context_intervals
    inputs = {
        row.label: ContextSummary(row.proportion, row.successes, row.trials, intervals[row.label])
        for row in counts.rows
    }
    return _report(inputs, report.point, report.lambda_interval, report.regime_stability,
                   additivity_check(counts), report.seed, report.replicates)


def report_from_triple(triple: ContextTriple, seed: int = 0) -> ReportDocument:
    """The report direct ``analyze`` writes: the triple's analysis and wave, with no draws."""
    inputs = {label: ContextSummary(p) for label, p in context_probabilities(triple).items()}
    return _report(inputs, analyze(triple), None, None, None, seed, 0)


def _report(inputs, point, lambda_interval, regime_stability, additivity, seed, replicates):
    wave = None
    if point.lam is not None:  # None exactly for a degenerate regime, which has no wave
        wave = amplitudes.wave_from_analysis(inputs["S1p"].p_hat, inputs["S2p"].p_hat, point)
    # ReportDocument's fields in their declared order
    return ReportDocument(SCHEMA_VERSION, inputs, point.delta, point.lam, point.regime,
                          lambda_interval, regime_stability, additivity, wave,
                          Reproducibility(seed, replicates, GENERATOR_NAME))
