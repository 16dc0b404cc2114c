"""Deciding hidden-variable representability by polytope membership.

A correlation matrix is reproducible by bounded responses exactly when it
lies in the convex hull of sign outer products.  A violated CHSH facet on a
2x2 sub-grid decides a target outside it; otherwise the LP decides
membership.  Either way the answer is an explicit mixture or a separating
Bell inequality, whose classical bound is derived from its coefficients,
never taken from the solver.
"""

import math

import numpy as np

from bellspace import (
    canonical_cosine_target,
    chsh_certificate,
    local_polytope_membership,
    max_feasible_scale,
    verify_certificate,
)

print("=== The canonical 2x2 cosine target ===")
target = canonical_cosine_target(1.0)
print("  P =")
print(np.array2string(target.matrix, precision=6, suppress_small=True))

result = local_polytope_membership(target)
print(f"\n  membership at full strength: {result.status}")
cert = result.certificate
print("  separating inequality (the most violated CHSH facet, checked before any LP):")
print(np.array2string(cert.coefficients, precision=6))
print(f"  classical bound {cert.bound:.6f}, value at target {cert.value_at(target):.6f}")
print(f"  margin = {cert.value_at(target) - cert.bound:.6f}  (= 1 - 1/sqrt(2); scaled so C.P = 1)")
print(f"  independent re-verification: {verify_certificate(cert, target)}")

print()
print("=== Scaled versions ===")
for g in (0.5, 0.7070, 0.7072, 0.75):
    scaled = target.scaled(g)
    verdict = local_polytope_membership(scaled)
    print(f"  g = {g:.4f}: {verdict.status}")
    if verdict.is_feasible:
        mixture = sorted(verdict.weights, key=lambda w: -w.weight)
        print(f"    representing mixture over {len(mixture)} sign strategies, e.g.")
        for w in mixture[:3]:
            print(f"      weight {w.weight:.4f} on s={w.s}, t={w.t}")

print()
print("=== Locating the threshold ===")
g_star = max_feasible_scale(target, tol=1e-5)
print(f"  gauge LP: largest feasible scale g* = {g_star:.6f}")
print(f"  analytic threshold 1/sqrt(2) = {1 / math.sqrt(2):.6f}")

print()
print("=== The CHSH certificate by hand ===")
hand = chsh_certificate()
print(f"  c = {hand.coefficients.tolist()}, bound {hand.bound}")
print(f"  separates the full-strength target: {verify_certificate(hand, target)}")
print(f"  fails on the half-strength target:  "
      f"{verify_certificate(hand, target.scaled(0.5))}")
