"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Every tolerance is pinned here, not derived at run time.
"""

import cmath
import math
import time

import numpy as np
import pytest

from ctxprob.amplitudes import SplitComplexAmplitude, trig_wave
from ctxprob.calculus import (
    ContextTriple,
    Hyperbolic,
    Trigonometric,
    analyze,
    correspondence_scan,
    lambda_range,
    reconstruct_probability,
)
from ctxprob.cli import main
from ctxprob.data import CountRow, CountTable, additivity_check
from ctxprob.errors import InadmissibleLambda
from ctxprob.simulation import (
    HyperbolicUrnScenario,
    TwoSlitScenario,
    estimate,
    sample_counts,
)

# Frozen from an independent arithmetic oracle:
# z = 0.7 / sqrt(3 * 0.9*0.1/1000)
GOLDEN_Z = 42.60064336151292

GRID = [round(0.05 * k, 2) for k in range(1, 21)]  # 0.05, 0.10, ..., 1.00


def _gate(number: int, label: str, ok: bool, elapsed: float | None = None) -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({elapsed:.3f} s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} {label}: {verdict}{suffix}", flush=True)
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_round_trip_identity():
    rng = np.random.default_rng(20240801)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        # floor keeps the normalizing denominator well away from round-off
        a = rng.uniform(1e-3, 1.0)
        b = rng.uniform(1e-3, 1.0)
        lo, hi = lambda_range(a, b)
        lam = rng.uniform(lo, hi)
        p_s = reconstruct_probability(a, b, lam)
        recovered = analyze(ContextTriple(p_s, a, b)).lam
        worst = max(worst, abs(recovered - lam))
    elapsed = time.perf_counter() - start
    _gate(1, f"round-trip lambda identity (worst |err| = {worst:.2e})",
          worst <= 1e-12 and elapsed < 1.0, elapsed)


def test_criterion_2_complex_wave_oracle():
    thetas = [math.pi * k / 180 for k in range(181)]
    start = time.perf_counter()
    worst = 0.0
    for a in GRID:
        for b in GRID:
            ra, rb = math.sqrt(a), math.sqrt(b)
            for theta in thetas:
                produced = trig_wave(a, b, theta).squared_modulus
                oracle = abs(ra + rb * cmath.exp(1j * theta)) ** 2
                closed = a + b + 2.0 * ra * rb * math.cos(theta)
                worst = max(worst, abs(produced - closed), abs(oracle - closed))
    elapsed = time.perf_counter() - start
    _gate(2, f"complex-wave modulus identity (worst |err| = {worst:.2e})",
          worst <= 1e-12 and elapsed < 1.0, elapsed)


def test_criterion_3_split_complex_oracle():
    thetas = [3.0 * k / 180 for k in range(181)]
    start = time.perf_counter()
    worst = 0.0
    for a in GRID:
        for b in GRID:
            ra, rb = math.sqrt(a), math.sqrt(b)
            for theta in thetas:
                ch, sh = math.cosh(theta), math.sinh(theta)
                amp = SplitComplexAmplitude(re=ra + rb * ch, hy=rb * sh)
                closed = a + b + 2.0 * ra * rb * ch
                worst = max(worst, abs(amp.hyperbolic_modulus - closed) / closed)
    elapsed = time.perf_counter() - start
    _gate(3, f"split-complex modulus identity (worst rel err = {worst:.2e})",
          worst <= 1e-12 and elapsed < 1.0, elapsed)


def test_criterion_4_trigonometric_recovery():
    scenario = TwoSlitScenario(math.sqrt(0.3), math.sqrt(0.2), math.pi / 3)
    start = time.perf_counter()
    counts = sample_counts(scenario, 10**6, seed=42)
    report = estimate(counts, replicates=1000, confidence=0.95, seed=42)
    elapsed = time.perf_counter() - start
    regime = report.point.regime
    ok = isinstance(regime, Trigonometric)
    theta_err = abs(regime.theta - math.pi / 3) if ok else math.inf
    ok = ok and report.theta_std is not None and theta_err <= 3.0 * report.theta_std
    lo, hi = report.lambda_interval
    ok = ok and lo <= 0.5 <= hi
    ok = ok and elapsed < 10.0
    _gate(4, f"trigonometric recovery (|theta err| = {theta_err:.2e}, "
             f"3*sd = {3 * (report.theta_std or 0):.2e}, interval = [{lo:.4f}, {hi:.4f}])",
          ok, elapsed)


def test_criterion_5_hyperbolic_recovery():
    scenario = HyperbolicUrnScenario(0.4, 0.5, 0.1, 0.1)
    start = time.perf_counter()
    counts = sample_counts(scenario, 10**6, seed=7)
    report = estimate(counts, replicates=1000, confidence=0.95, seed=7)
    elapsed = time.perf_counter() - start
    regime = report.point.regime
    ok = isinstance(regime, Hyperbolic) and regime.sign == 1
    lo, hi = report.lambda_interval
    ok = ok and lo <= 3.5 <= hi
    ok = ok and report.regime_stability >= 0.99
    ok = ok and elapsed < 10.0
    _gate(5, f"hyperbolic recovery (interval = [{lo:.4f}, {hi:.4f}], "
             f"stability = {report.regime_stability:.3f})", ok, elapsed)


def test_criterion_6_correspondence_principle():
    base = ContextTriple(0.5, 0.3, 0.2, p1=0.3, p2=0.2)
    points = correspondence_scan(base, (0.1, 0.1), [0.4, 0.2, 0.1, 0.05, 0.0])
    ok = all(abs(p.delta - (-0.2 * p.epsilon)) <= 1e-9 for p in points)
    magnitudes = [abs(p.lam) for p in points]
    ok = ok and all(x > y for x, y in zip(magnitudes, magnitudes[1:]))
    ok = ok and points[-1].lam == 0.0
    _gate(6, "correspondence principle (delta linear, |lambda| strictly decreasing, "
             "lambda(0) = 0 exactly)", ok)


def test_criterion_7_end_to_end_determinism(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        counts_path = tmp_path / f"counts-{tag}.csv"
        report_path = tmp_path / f"report-{tag}.json"
        assert main([
            "simulate", "two-slit", "--p1", "0.3", "--p2", "0.2",
            "--theta", "1.0471975511965976", "--trials", "100000",
            "--seed", "42", "--output", str(counts_path),
        ]) == 0
        assert main([
            "analyze", str(counts_path), "--seed", "11", "--output", str(report_path),
        ]) == 0
        outputs.append((counts_path.read_bytes(), report_path.read_bytes()))
    ok = outputs[0] == outputs[1]
    _gate(7, "end-to-end pipeline determinism (byte-identical counts and reports)", ok)


def test_criterion_8_admissibility_soundness():
    rng = np.random.default_rng(20240802)
    start = time.perf_counter()
    ok = True
    for _ in range(10_000):
        # floor keeps the +/-1e-6 probes outside the 1e-12 admissibility slack
        a = rng.uniform(1e-3, 1.0)
        b = rng.uniform(1e-3, 1.0)
        lo, hi = lambda_range(a, b)
        reconstruct_probability(a, b, lo)
        reconstruct_probability(a, b, hi)
        for probe in (lo - 1e-6, hi + 1e-6):
            try:
                reconstruct_probability(a, b, probe)
            except InadmissibleLambda:
                continue
            ok = False
            break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    _gate(8, "admissibility endpoints accepted, outside probes rejected",
          ok and elapsed < 1.0, elapsed)


def test_criterion_9_additivity_diagnostic():
    exact = CountTable((
        CountRow("S", 900, 1000), CountRow("S1", 400, 1000), CountRow("S2", 500, 1000),
        CountRow("S1p", 100, 1000), CountRow("S2p", 100, 1000),
    ))
    exact_result = additivity_check(exact)
    broken = CountTable((
        CountRow("S", 900, 1000), CountRow("S1", 100, 1000), CountRow("S2", 100, 1000),
        CountRow("S1p", 100, 1000), CountRow("S2p", 100, 1000),
    ))
    broken_result = additivity_check(broken)
    ok = exact_result.z_statistic == 0.0 and exact_result.consistent
    ok = ok and abs(broken_result.z_statistic - GOLDEN_Z) <= 1e-9
    ok = ok and abs(broken_result.z_statistic) > 3.0 and not broken_result.consistent
    _gate(9, f"additivity diagnostic (z = {broken_result.z_statistic:.6f} "
             f"vs golden {GOLDEN_Z:.6f})", ok)
