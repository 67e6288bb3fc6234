"""
Interference calculus basics
============================

Probabilities always belong to an experimental arrangement (a context).
When the arrangement changes, the additive composition of two alternatives
picks up a perturbation.  This script walks through the core quantities:
the perturbation delta, the normalized coefficient lambda, and the
trigonometric / hyperbolic / degenerate classification.
"""

from ctxprob import (
    ContextTriple,
    analyze,
    lambda_range,
    reconstruct_probability,
)

# A transition with a large deviation: the combined-context probability is
# 0.9 while the two new subcontexts only carry 0.1 each.
triple = ContextTriple(p_s=0.9, p1_prime=0.1, p2_prime=0.1, p1=0.4, p2=0.5)
result = analyze(triple)

print("large-deviation transition")
print(f"  delta  = {result.delta:+.6f}")
print(f"  lambda = {result.lam:+.6f}")
print(f"  regime = {result.regime}")
print(f"  naive identification error = {result.delta:+.6f}")
print()

# An additive triple sits exactly at lambda = 0 (phase pi/2): the classical
# rule holds and nothing interferes.
additive = analyze(ContextTriple(p_s=0.5, p1_prime=0.3, p2_prime=0.2))
print("additive transition")
print(f"  delta  = {additive.delta:+.6f}")
print(f"  lambda = {additive.lam:+.6f}")
print(f"  regime = {additive.regime}")
print()

# The admissible coefficient range depends only on the reference pair.
# Small references leave room for strongly hyperbolic transitions.
print("admissible lambda ranges")
for a, b in [(0.25, 0.25), (0.1, 0.1), (0.5, 0.5)]:
    lo, hi = lambda_range(a, b)
    print(f"  p1' = {a:4.2f}, p2' = {b:4.2f}  ->  [{lo:+.3f}, {hi:+.3f}]")
print()

# Reconstruction runs the transformation forward.  Walking lambda across
# its admissible range sweeps the combined probability across [0, 1].
print("forward reconstruction at p1' = p2' = 0.1")
for lam in (-1.0, 0.0, 1.0, 2.5, 4.0):
    p = reconstruct_probability(0.1, 0.1, lam)
    print(f"  lambda = {lam:+.2f}  ->  p_s = {float(p):.4f}")
