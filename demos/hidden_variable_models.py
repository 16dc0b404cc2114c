"""Hidden-variable models: the cosine family and the CHSH bound.

Shows that the cosine model reproduces g*cos(alpha - beta) exactly for
g <= 1/2, that its responses saturate the unit bound at g = 1/2, and that no
bounded model, however exotic, pushes CHSH past 2.
"""

import math

import numpy as np

from bellspace import (
    canonical_chsh_settings,
    cosine_model,
    model_chsh,
    model_expectation_exact,
    model_expectation_mc,
    random_bounded_model,
)
from bellspace.spin import ChshSettings

TWO_PI = 2 * math.pi

print("=== The cosine model ===")
g = 0.4
model = cosine_model(g)
print(f"  responses: sqrt(2g) cos(angle - lambda) with amplitude {math.sqrt(2 * g):.4f}")
print("  alpha-beta     exact expectation    g*cos(alpha-beta)")
for delta in (0.0, math.pi / 6, math.pi / 3, math.pi / 2, math.pi):
    exact = model_expectation_exact(model, delta, 0.0)
    print(f"  {delta:8.4f}      {exact:+.10f}       {g * math.cos(delta):+.10f}")

print()
print("  at g = 1/2 the responses exactly reach the unit bound:")
half = cosine_model(0.5)
lam = np.linspace(0, TWO_PI, 1_000_001)
print(f"    max |xi| = {np.max(np.abs(half.xi(0.3, lam))):.9f}")
print("  beyond 1/2 the construction would break the bound:")
try:
    cosine_model(0.55)
except ValueError as exc:
    print(f"    cosine_model(0.55) -> ValueError: {exc}")

print()
print("=== Monte Carlo agrees with the exact integral ===")
rng = np.random.default_rng(12)
est = model_expectation_mc(model, 0.9, 0.2, 1_000_000, rng)
exact = model_expectation_exact(model, 0.9, 0.2)
print(f"  MC mean {est.mean:+.6f} +- {est.std_error:.6f} vs exact {exact:+.6f}")

print()
print("=== CHSH stays below 2 for every bounded model ===")
settings = canonical_chsh_settings()
print(f"  cosine(0.5) at the canonical settings: S = "
      f"{model_chsh(half, settings, mode='exact'):.6f}  (= sqrt(2))")

model_rng = np.random.default_rng(17)
setting_rng = np.random.default_rng(19)
worst = 0.0
for _ in range(10):
    candidate = random_bounded_model(model_rng)
    for _ in range(200):
        s = model_chsh(
            candidate, ChshSettings(*setting_rng.uniform(0, TWO_PI, 4)), mode="exact"
        )
        worst = max(worst, s)
print(f"  10 random bounded models x 200 random setting quadruples:")
print(f"  largest S found = {worst:.6f} <= 2 (the classical bound)")
