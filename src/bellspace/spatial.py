"""Spatial part of the two-particle wave function.

Gaussian packets, axis-aligned detector regions, and the localization factor
g: the probability of finding particle 1 inside region A and particle 2
inside region B.  For a product state this factorizes into two box
probabilities with a closed form in the normal CDF; for a general joint
density a tensor-product Gauss-Legendre quadrature over the 6-dimensional
box A x B is provided.

Free evolution is modeled as pure spreading: packet centers stay put (zero
mean momentum) and the per-axis width grows as

    sigma_t = epsilon * sqrt(1 + hbar^2 t^2 / (M^2 epsilon^4)),

which tends to (hbar / (M epsilon)) * t for large t.  Since a free Gaussian
stays Gaussian, applying this width law to the modulus is exact for the
packets handled here.  Defaults hbar = M = 1 keep the arithmetic
dimensionless.

Note: in this nonrelativistic model g can approach 1 arbitrarily closely for
generous regions; field-theoretic corrections that keep g strictly below 1
are outside the scope of this package.

The normal CDF is Phi(x) = erfc(-x / sqrt 2) / 2 with ``math.erfc``, which
keeps full relative accuracy in the lower tail; no lookup tables are
involved, and the module imports no scipy, so ``import bellspace`` stays
cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .config import param, reject_unknown

Vector3 = tuple[float, float, float]

#: A joint position density on R^3 x R^3.  Called as ``density(r1, r2)`` with
#: arrays of shape (..., 3); must return the (...)-shaped nonnegative values,
#: vectorized over the leading axes.
JointDensity = Callable[[np.ndarray, np.ndarray], np.ndarray]


class QuadratureError(RuntimeError):
    """Raised when the 6-d quadrature fails to reach the requested tolerance.

    Carries the best available estimate and the last refinement delta as an
    error bound so callers can decide whether to accept it anyway.
    """

    def __init__(self, message: str, best_estimate: float, error_bound: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


def _as_vector3(value: Sequence[float], name: str) -> Vector3:
    vec = tuple(float(v) for v in value)
    if len(vec) != 3 or not all(math.isfinite(v) for v in vec):
        raise ValueError(f"{name} must be a finite 3-vector, got {value!r}")
    return vec  # type: ignore[return-value]


def expanded_width(epsilon: float, mass: float, t: float, hbar: float) -> float:
    """Free-evolution width law: epsilon * sqrt(1 + hbar^2 t^2 / (M^2 epsilon^4)).

    Computed as hypot(epsilon, hbar t / M / epsilon): nothing is squared,
    so no intermediate overflows while the width is finite, and no divisor
    (epsilon^2 or M epsilon) can underflow to zero.
    """
    if epsilon <= 0 or mass <= 0 or hbar <= 0:
        raise ValueError("epsilon, mass and hbar must be positive")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    return math.hypot(epsilon, hbar * t / mass / epsilon)


@dataclass(frozen=True)
class GaussianPacket:
    """Normalized Gaussian spatial state with per-axis standard deviation 1/m.

    ``width_param`` is the inverse-length parameter m: the position density is
    the product of three normal densities with sigma = 1/m, centered on
    ``center``.  ``mass`` and ``hbar`` feed the spreading law (defaults 1).
    """

    center: Vector3
    width_param: float
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _as_vector3(self.center, "center"))
        if self.width_param <= 0 or self.mass <= 0 or self.hbar <= 0:
            raise ValueError("width_param, mass and hbar must be positive")

    def sigma_at(self, t: float) -> float:
        """Per-axis standard deviation after free evolution for time t."""
        return expanded_width(1.0 / self.width_param, self.mass, t, self.hbar)

    def density(self, points: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Position density at ``points`` (shape (..., 3)) after time t."""
        pts = np.asarray(points, dtype=float)
        sigma = self.sigma_at(t)
        diff = (pts - np.asarray(self.center)) / sigma
        norm = (2.0 * math.pi * sigma * sigma) ** -1.5
        return norm * np.exp(-0.5 * np.sum(diff * diff, axis=-1))


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned detector region: the product of three open intervals."""

    lo: Vector3
    hi: Vector3

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", _as_vector3(self.lo, "lo"))
        object.__setattr__(self, "hi", _as_vector3(self.hi, "hi"))
        for axis in range(3):
            if not self.lo[axis] < self.hi[axis]:
                raise ValueError(
                    f"region axis {axis} is empty: lo={self.lo[axis]!r} "
                    f"hi={self.hi[axis]!r}"
                )

    @classmethod
    def centered_cube(cls, center: Sequence[float], half_width: float) -> "BoxRegion":
        c = _as_vector3(center, "center")
        if half_width <= 0:
            raise ValueError("half_width must be positive")
        return cls(
            tuple(ci - half_width for ci in c),  # type: ignore[arg-type]
            tuple(ci + half_width for ci in c),  # type: ignore[arg-type]
        )

    def translate(self, offset: Sequence[float]) -> "BoxRegion":
        o = _as_vector3(offset, "offset")
        return BoxRegion(
            tuple(l + d for l, d in zip(self.lo, o)),  # type: ignore[arg-type]
            tuple(h + d for h, d in zip(self.hi, o)),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class LocalizationFactor:
    """The probability g of a joint detection in region A x region B."""

    g: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.g <= 1.0:
            raise ValueError(f"localization factor must lie in [0, 1], got {self.g!r}")

    def __float__(self) -> float:
        return self.g


def _normal_cdf(x: float) -> float:
    """Standard normal CDF; full relative accuracy in the lower tail (x < 0)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def packet_probability_in_box(
    packet: GaussianPacket, region: BoxRegion, t: float = 0.0
) -> float:
    """Probability that a single packet is found inside the region at time t.

    Product over axes of Phi((hi - c)/sigma_t) - Phi((lo - c)/sigma_t), where
    Phi is the standard normal CDF and sigma_t the expanded width.  An
    interval wholly on the + side is taken as the difference of upper tails,
    Phi(-lo') - Phi(-hi'), so far-tail boxes do not cancel to 0 near 1 - 1.
    """
    sigma = packet.sigma_at(t)
    prob = 1.0
    for axis in range(3):
        c = packet.center[axis]
        lo = (region.lo[axis] - c) / sigma
        hi = (region.hi[axis] - c) / sigma
        if lo > 0.0:
            prob *= _normal_cdf(-lo) - _normal_cdf(-hi)
        else:
            prob *= _normal_cdf(hi) - _normal_cdf(lo)
    return min(max(prob, 0.0), 1.0)


def g_factor_product(
    packet_a: GaussianPacket,
    packet_b: GaussianPacket,
    region_a: BoxRegion,
    region_b: BoxRegion,
    t: float = 0.0,
) -> LocalizationFactor:
    """Localization factor for a product state: the two box probabilities multiplied."""
    g = packet_probability_in_box(packet_a, region_a, t) * packet_probability_in_box(
        packet_b, region_b, t
    )
    return LocalizationFactor(min(max(g, 0.0), 1.0))


def product_density(
    packet_a: GaussianPacket, packet_b: GaussianPacket, t: float = 0.0
) -> JointDensity:
    """Joint density |psi_a(r1)|^2 |psi_b(r2)|^2 as a quadrature-ready callable."""

    def density(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        return packet_a.density(r1, t) * packet_b.density(r2, t)

    return density


# Per-axis Gauss-Legendre orders tried in turn; successive estimates must
# agree within tol.  The 6-d tensor grids are evaluated in chunks over the
# first two axes, keeping memory at O(order^4) points.
_GL_ORDERS = (6, 10, 16, 24)


def _mapped_gl(order: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _tensor_gl_6d(
    density: JointDensity, region_a: BoxRegion, region_b: BoxRegion, order: int
) -> float:
    bounds = [(region_a.lo[i], region_a.hi[i]) for i in range(3)]
    bounds += [(region_b.lo[i], region_b.hi[i]) for i in range(3)]
    nodes, weights = zip(*(_mapped_gl(order, lo, hi) for lo, hi in bounds))

    # Inner 4-d grid over axes 2..5, built once; axes 0 and 1 are looped over
    # in a fixed order so the summation is deterministic.
    inner_axes = np.meshgrid(*nodes[2:6], indexing="ij")
    inner_pts = np.stack([axis.ravel() for axis in inner_axes], axis=-1)
    wg = np.meshgrid(*weights[2:6], indexing="ij")
    inner_w = (wg[0] * wg[1] * wg[2] * wg[3]).ravel()

    npts = inner_pts.shape[0]
    r1 = np.empty((npts, 3))
    r2 = np.empty((npts, 3))
    r1[:, 2] = inner_pts[:, 0]
    r2[:, 0] = inner_pts[:, 1]
    r2[:, 1] = inner_pts[:, 2]
    r2[:, 2] = inner_pts[:, 3]

    total = 0.0
    for i0 in range(order):
        r1[:, 0] = nodes[0][i0]
        for i1 in range(order):
            r1[:, 1] = nodes[1][i1]
            vals = np.asarray(density(r1, r2), dtype=float)
            total += weights[0][i0] * weights[1][i1] * float(np.dot(vals, inner_w))
    return total


def g_factor_quadrature(
    density: JointDensity,
    region_a: BoxRegion,
    region_b: BoxRegion,
    tol: float = 1e-8,
    orders: Sequence[int] = _GL_ORDERS,
) -> LocalizationFactor:
    """Localization factor of a general joint density by 6-d quadrature.

    Tensor-product Gauss-Legendre with escalating per-axis ``orders``;
    converged when two successive estimates differ by less than ``tol``.
    Raises :class:`QuadratureError` (carrying the best estimate and the last
    delta) if the order ladder is exhausted without convergence.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if len(orders) < 2:
        raise ValueError("need at least two quadrature orders to compare")
    previous: float | None = None
    delta = math.inf
    for order in orders:
        estimate = _tensor_gl_6d(density, region_a, region_b, order)
        if previous is not None:
            delta = abs(estimate - previous)
            if delta < tol:
                return LocalizationFactor(min(max(estimate, 0.0), 1.0))
        previous = estimate
    raise QuadratureError(
        f"quadrature did not converge to tol={tol!r}: last delta {delta!r}",
        best_estimate=previous if previous is not None else math.nan,
        error_bound=delta,
    )


@dataclass(frozen=True)
class SpatialSetup:
    """Two packets plus their detector regions, the input to g-decay scans."""

    packet_a: GaussianPacket
    packet_b: GaussianPacket
    region_a: BoxRegion
    region_b: BoxRegion


def separated_gaussian_setup(
    width_param: float,
    separation: Sequence[float],
    mass: float = 1.0,
    hbar: float = 1.0,
) -> SpatialSetup:
    """Benchmark geometry: twin Gaussians a distance l apart, 1-sigma cubes.

    Packet A sits at the origin, packet B at ``separation``; each detector
    region is the cube |r_i - c_i| < 1/m around its packet.  Requires the
    separation length to be at least 10/m so the regions are well separated.
    """
    if width_param <= 0:
        raise ValueError("width_param must be positive")
    sep = _as_vector3(separation, "separation")
    length = math.sqrt(sum(s * s for s in sep))
    half = 1.0 / width_param
    if length < 10.0 * half:
        raise ValueError(
            f"separation length {length!r} too small: need at least 10/m = {10.0 * half!r}"
        )
    packet_a = GaussianPacket((0.0, 0.0, 0.0), width_param, mass, hbar)
    packet_b = GaussianPacket(sep, width_param, mass, hbar)
    region_a = BoxRegion.centered_cube((0.0, 0.0, 0.0), half)
    region_b = region_a.translate(sep)
    return SpatialSetup(packet_a, packet_b, region_a, region_b)


def setup_from_dict(spec: dict) -> SpatialSetup:
    """:func:`separated_gaussian_setup` from its JSON block.

    Keys: ``width_param`` and ``separation`` (required), ``mass`` and
    ``hbar`` (default 1).  Any malformed block raises ValueError.
    """
    reject_unknown(spec, {"width_param", "separation", "mass", "hbar"}, "setup")
    return separated_gaussian_setup(
        param(spec, "width_param", None),
        param(spec, "separation", []),
        mass=param(spec, "mass", 1.0),
        hbar=param(spec, "hbar", 1.0),
    )


def packet_from_dict(spec: dict, where: str) -> GaussianPacket:
    """:class:`GaussianPacket` from the JSON block ``where``: ``width_param``
    (required), ``center`` (default origin), ``mass`` and ``hbar`` (default 1)."""
    reject_unknown(spec, {"center", "width_param", "mass", "hbar"}, where)
    return GaussianPacket(
        center=param(spec, "center", [0.0, 0.0, 0.0]),
        width_param=param(spec, "width_param", None),
        mass=param(spec, "mass", 1.0),
        hbar=param(spec, "hbar", 1.0),
    )


def region_from_dict(spec: dict, where: str) -> BoxRegion:
    """:class:`BoxRegion` from the JSON block ``where``: corners ``lo`` and ``hi``."""
    reject_unknown(spec, {"lo", "hi"}, where)
    return BoxRegion(param(spec, "lo", []), param(spec, "hi", []))


def setup_g_factor(setup: SpatialSetup, t: float = 0.0) -> LocalizationFactor:
    """Product-state localization factor of a :class:`SpatialSetup` at time t."""
    return g_factor_product(
        setup.packet_a, setup.packet_b, setup.region_a, setup.region_b, t
    )


def g_decay_curve(
    setup: SpatialSetup, t_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """Localization factor along an ascending time grid.

    For fixed regions the spreading width drives g to 0 as t grows, so for
    packets centered in their regions the curve is nonincreasing.
    """
    times = [float(t) for t in t_grid]
    if any(t < 0 for t in times):
        raise ValueError("t_grid must be nonnegative")
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("t_grid must be ascending")
    return [(t, setup_g_factor(setup, t).g) for t in times]
