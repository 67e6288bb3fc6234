"""
Two-slit simulation and estimation
==================================

A two-path experiment with per-path probabilities 0.3 and 0.2 and relative
phase pi/3 has true coefficient lambda = cos(pi/3) = 0.5.  This script
samples finite counts for the three contexts (both paths open, each path
alone), estimates the analysis back from the counts, and shows how the
bootstrap interval tightens with more data.
"""

import math

from ctxprob import TwoSlitScenario, estimate, sample_counts, scenario_truth

scenario = TwoSlitScenario(
    a1_modulus=math.sqrt(0.3), a2_modulus=math.sqrt(0.2), phase=math.pi / 3
)
truth = scenario_truth(scenario)
print("ground truth")
print(f"  p_s = {float(truth.p_s):.10f}, p1' = {float(truth.p1_prime):.4f}, "
      f"p2' = {float(truth.p2_prime):.4f}, lambda = 0.5, theta = pi/3")
print()

print(f"{'trials':>9}  {'lambda_hat':>10}  {'95% interval':>22}  {'theta err':>10}")
for trials in (10**3, 10**4, 10**5, 10**6):
    counts = sample_counts(scenario, trials, seed=42)
    report = estimate(counts, replicates=1000, confidence=0.95, seed=42)
    lo, hi = report.lambda_interval
    err = abs(report.point.regime.theta - math.pi / 3)
    print(f"{trials:>9}  {report.point.lam:>10.5f}  [{lo:>9.5f}, {hi:>9.5f}]  {err:>10.2e}")
print()

counts = sample_counts(scenario, 10**6, seed=42)
report = estimate(counts, replicates=1000, confidence=0.95, seed=42)
print("at one million trials per context")
print(f"  point regime      = {report.point.regime}")
print(f"  regime stability  = {report.regime_stability:.3f}")
print(f"  phase dispersion  = {report.theta_std:.2e} (bootstrap sd)")
for label, interval in report.context_intervals.items():
    print(f"  p_hat[{label:>3}] in [{interval[0]:.5f}, {interval[1]:.5f}]")
