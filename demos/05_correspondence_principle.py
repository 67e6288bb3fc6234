"""
Correspondence with the classical rule
======================================

As the new arrangement approaches the old one, the perturbation vanishes
and the interference rule collapses back to plain probability addition.
Here the old subcontext probabilities are p_1 = 0.3 and p_2 = 0.2 and the new
ones are p_j + eps * 0.1; delta shrinks linearly in eps and lambda goes to
zero with it.
"""

from ctxprob import ContextTriple, analyze

print(f"{'eps':>6}  {'delta':>12}  {'lambda':>12}")
for eps in [0.4, 0.2, 0.1, 0.05, 0.0]:
    point = analyze(ContextTriple(0.5, 0.3 + eps * 0.1, 0.2 + eps * 0.1))
    print(f"{eps:>6.2f}  {point.delta:>+12.6f}  {point.lam:>+12.6f}")

print()
print("delta(eps) = -eps * (c1 + c2) holds to round-off; at eps = 0 the")
print("transition is context-stable and the classical addition rule is exact.")
