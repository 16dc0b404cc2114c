"""Singlet correlations and the CHSH statistic.

Walks from the basic correlation law E(a, b) = -(a . b) to the maximal CHSH
value 2*sqrt(2), then shows how a localization factor g < 1 scales the whole
statistic and where the classical bound 2 gets crossed.
"""

import math

import numpy as np

from bellspace import (
    CHSH_CLASSICAL_BOUND,
    CHSH_QUANTUM_BOUND,
    QuantumLocalizedChannel,
    alice_direction,
    bob_direction,
    canonical_chsh_settings,
    quantum_chsh,
    singlet_correlation,
)

print("=== Singlet correlations ===")
for alpha, beta in [(0.0, 0.0), (0.0, math.pi / 4), (math.pi / 2, math.pi / 4)]:
    corr = singlet_correlation(alice_direction(alpha), bob_direction(beta))
    print(f"  E(alpha={alpha:.4f}, beta={beta:.4f}) = {corr:+.6f} "
          f"(= cos(alpha - beta) in the planar convention)")

print()
print("With both wings using the same direction map, equal settings")
print("anticorrelate perfectly:")
z = alice_direction(1.1)
print(f"  E(a, a) = {singlet_correlation(z, z):+.6f}")

print()
print("=== CHSH at the canonical settings ===")
settings = canonical_chsh_settings()
s_value = quantum_chsh(settings, 1.0)
print(f"  S = {s_value:.12f}  (2*sqrt(2) = {CHSH_QUANTUM_BOUND:.12f})")
print(f"  classical bound: {CHSH_CLASSICAL_BOUND}")

print()
print("=== Scaling by the localization factor ===")
print("  g        S = g * 2*sqrt(2)   violates the classical bound?")
for g in (1.0, 0.9, 0.8, 1 / math.sqrt(2), 0.6, 0.5, 0.25):
    s = quantum_chsh(settings, g)
    marker = "yes" if s > CHSH_CLASSICAL_BOUND else "no"
    print(f"  {g:.4f}   {s: .6f}            {marker}")
print("  the crossing sits exactly at g = 1/sqrt(2).")

print()
print("=== Sampling outcomes ===")
print("  the QKD singlet channel measures both wings along alice_direction,")
print("  so its outcomes follow E(a, b) = -cos(alpha - beta)")
rng_channel, rng_alice, rng_bob = map(np.random.default_rng, np.random.SeedSequence(2).spawn(3))
n = 200_000
alpha, beta = 0.0, math.pi / 4
# one setting pair, every round in its cell
s_a, s_b = QuantumLocalizedChannel(g=1.0).sample(
    np.array([[alpha, beta]]), np.zeros(n, dtype=np.intp), rng_channel, rng_alice, rng_bob
)
empirical = float(np.mean(s_a * s_b))
analytic = singlet_correlation(alice_direction(alpha), alice_direction(beta))
print(f"  empirical E over {n} draws: {empirical:+.5f}")
print(f"  analytic value:             {analytic:+.5f}")
print(f"  difference: {abs(empirical - analytic):.2e} "
      f"(standard error {math.sqrt((1 - analytic**2) / n):.2e})")
