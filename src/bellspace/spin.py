"""Exact spin correlations of the two-qubit singlet state.

Measurement settings live either on the unit sphere (:class:`UnitVector3`)
or, for planar configurations, on the circle as plain radians, wrapped into
[0, 2*pi) by :func:`as_angle`.  The planar convention used throughout the
package is

    alice_direction(alpha) = ( cos(alpha), 0,  sin(alpha))
    bob_direction(beta)    = (-cos(beta),  0, -sin(beta))

so that ``singlet_correlation(alice_direction(a), bob_direction(b))`` equals
``cos(a - b)``.  When both wings use ``alice_direction`` the correlation is
``-cos(a - b)`` instead, i.e. perfect anticorrelation at equal angles; the
QKD simulation relies on that form.

All functions here are pure and deterministic; outcome sampling lives with
the channels in :mod:`bellspace.qkd`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

#: Classical (local hidden-variable) CHSH bound.
CHSH_CLASSICAL_BOUND = 2.0
#: Quantum (Tsirelson) CHSH bound, attained by the singlet state.
CHSH_QUANTUM_BOUND = 2.0 * math.sqrt(2.0)

_UNIT_NORM_TOL = 1e-12
_CORRELATION_SLACK = 1e-9


def as_angle(value: float) -> float:
    """A finite angle in radians, wrapped into [0, 2*pi).

    A tiny negative angle wraps to 2*pi in floating point
    (-1e-17 % (2*pi) == 2*pi); it is mapped to 0.0.
    """
    theta = float(value)
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    theta %= TWO_PI
    return 0.0 if theta == TWO_PI else theta


@dataclass(frozen=True)
class UnitVector3:
    """A measurement direction on the unit sphere (norm 1 within 1e-12)."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        norm_sq = self.x * self.x + self.y * self.y + self.z * self.z
        if abs(norm_sq - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(
                f"direction ({self.x}, {self.y}, {self.z}) is not unit length: "
                f"|v|^2 = {norm_sq!r}"
            )

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "UnitVector3":
        norm = math.sqrt(x * x + y * y + z * z)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(x / norm, y / norm, z / norm)

    def dot(self, other: "UnitVector3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


@dataclass(frozen=True)
class OutcomePair:
    """A pair of +-1 measurement outcomes (Alice's s_a, Bob's s_b)."""

    s_a: int
    s_b: int

    def __post_init__(self) -> None:
        if self.s_a not in (1, -1) or self.s_b not in (1, -1):
            raise ValueError(f"outcomes must be +-1, got ({self.s_a}, {self.s_b})")

    @property
    def product(self) -> int:
        return self.s_a * self.s_b


@dataclass(frozen=True)
class ChshSettings:
    """Two settings per wing for a CHSH test, in radians wrapped into [0, 2*pi)."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            object.__setattr__(self, name, as_angle(getattr(self, name)))


def canonical_chsh_settings() -> ChshSettings:
    """The standard maximal-violation quadruple: alphas (pi/2, 0), betas (pi/4, -pi/4)."""
    return ChshSettings(
        alpha1=math.pi / 2, alpha2=0.0, beta1=math.pi / 4, beta2=-math.pi / 4
    )


def unit_from_planar_angle(theta: float) -> UnitVector3:
    """Planar direction (cos theta, 0, sin theta) in the x-z plane."""
    t = as_angle(theta)
    return UnitVector3(math.cos(t), 0.0, math.sin(t))


#: Alice's planar direction constructor (alias; see module docstring).
alice_direction = unit_from_planar_angle


def bob_direction(theta: float) -> UnitVector3:
    """Bob's sign-flipped planar direction (-cos theta, 0, -sin theta).

    With this convention the singlet correlation of the pair
    (alice_direction(a), bob_direction(b)) is cos(a - b).
    """
    t = as_angle(theta)
    return UnitVector3(-math.cos(t), 0.0, -math.sin(t))


def singlet_correlation(a: UnitVector3, b: UnitVector3) -> float:
    """Expectation of the outcome product for the singlet state: -(a . b)."""
    return -a.dot(b)


def joint_outcome_probability(a: UnitVector3, b: UnitVector3, s: OutcomePair) -> float:
    """Probability of the outcome pair s at settings (a, b) on the singlet.

    Returns (1 - s_a * s_b * (a . b)) / 4, the unique joint distribution with
    unbiased +-1 marginals whose outcome-product expectation is -(a . b).
    """
    return (1.0 - s.product * a.dot(b)) / 4.0


def chsh_statistic(p11: float, p12: float, p21: float, p22: float) -> float:
    """CHSH combination |p11 - p12| + |p21 + p22| of four correlations.

    Rejects inputs with |p| > 1 + 1e-9, which signal corrupted correlation
    values rather than a legitimate statistic.
    """
    for name, value in (("p11", p11), ("p12", p12), ("p21", p21), ("p22", p22)):
        if not math.isfinite(value) or abs(value) > 1.0 + _CORRELATION_SLACK:
            raise ValueError(f"correlation {name}={value!r} outside [-1, 1]")
    return abs(p11 - p12) + abs(p21 + p22)


def quantum_chsh(settings: ChshSettings, g: float) -> float:
    """CHSH statistic of the localized singlet correlations g*cos(alpha_i - beta_j).

    The localization factor g scales every correlation, so the result is g
    times the unscaled statistic; g=1 at the canonical settings gives 2*sqrt(2).
    """
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"localization factor g={g!r} outside [0, 1]")
    alphas = (settings.alpha1, settings.alpha2)
    betas = (settings.beta1, settings.beta2)
    p = [[g * math.cos(alpha - beta) for beta in betas] for alpha in alphas]
    return chsh_statistic(p[0][0], p[0][1], p[1][0], p[1][1])
