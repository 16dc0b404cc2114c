"""Spatial part of the two-particle wave function.

Gaussian packets, axis-aligned detector regions, and the localization factor
g: the probability of finding particle 1 inside region A and particle 2
inside region B.  For a product state this factorizes into two box
probabilities with a closed form in the normal CDF; for a general joint
density a tensor-product Gauss-Legendre quadrature over the 6-dimensional
box A x B is provided.  The quadrature walks the grid in slabs of fixed
(x1, y1) and splits them between the caller and the process's worker
thread (:func:`bellspace.config.on_worker`); numpy releases the
interpreter lock in the density's array calls, so two cores share it, and
the slab terms are added in serial order, so the result is that of a
serial run whatever the thread timing.

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
involved, and the module imports no scipy.  numpy is imported only by the
functions that need arrays (:meth:`GaussianPacket.density` and the
quadrature), so the closed forms run on ``math`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Callable, Sequence

from .config import NumericalFailure, on_worker

if TYPE_CHECKING:
    import numpy as np

Vector3 = tuple[float, float, float]

#: A joint position density on R^3 x R^3.  Called as ``density(r1, r2)`` with
#: arrays of shape (..., 3); must return the (...)-shaped nonnegative values,
#: vectorized over the leading axes.  The quadrature calls it from two threads
#: at once, so it must not write to its inputs and must share no mutable state
#: between calls.
JointDensity = Callable[["np.ndarray", "np.ndarray"], "np.ndarray"]


class QuadratureError(NumericalFailure):
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
    and no divisor (epsilon^2 or M epsilon) can underflow to zero.  The
    ratio is formed from the four mantissas (frexp), in that order, and
    scaled by the summed exponents (ldexp), so no intermediate overflows
    while the width is finite.  Scaling by a power of two is exact: when
    every intermediate of hbar * t / M / epsilon is a normal float, the
    result is bit-identical to that expression.
    """
    if not (epsilon > 0 and mass > 0 and hbar > 0):
        raise ValueError("epsilon, mass and hbar must be positive")
    if not t >= 0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    (h, eh), (u, et), (m, em), (e, ee) = map(math.frexp, (hbar, t, mass, epsilon))
    try:
        ratio = math.ldexp(h * u / m / e, eh + et - em - ee)
    except OverflowError:
        ratio = math.inf
    return math.hypot(epsilon, ratio)


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
        if not (self.width_param > 0 and self.mass > 0 and self.hbar > 0):
            raise ValueError("width_param, mass and hbar must be positive")

    def sigma_at(self, t: float) -> float:
        """Per-axis standard deviation after free evolution for time t."""
        return expanded_width(1.0 / self.width_param, self.mass, t, self.hbar)

    def density(self, points: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Position density at ``points`` (shape (..., 3)) after time t."""
        import numpy as np

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
        if not half_width > 0:
            raise ValueError("half_width must be positive")
        return cls(
            tuple(ci - half_width for ci in c),  # type: ignore[arg-type]
            tuple(ci + half_width for ci in c),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class LocalizationFactor:
    """The probability g of a joint detection in region A x region B."""

    g: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.g <= 1.0:
            raise ValueError(f"localization factor must lie in [0, 1], got {self.g!r}")


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


def product_density(
    packet_a: GaussianPacket, packet_b: GaussianPacket, t: float = 0.0
) -> JointDensity:
    """Joint density |psi_a(r1)|^2 |psi_b(r2)|^2 as a quadrature-ready callable."""

    def density(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        return packet_a.density(r1, t) * packet_b.density(r2, t)

    return density


# Per-axis Gauss-Legendre orders tried in turn; successive estimates must
# agree within tol.  The 6-d tensor grids are evaluated in slabs over the
# first two axes, keeping memory at O(order^4) points per thread.
_GL_ORDERS = (6, 10, 16, 24)


def _mapped_gl(order: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _tensor_gl_6d(
    density: JointDensity, region_a: BoxRegion, region_b: BoxRegion, order: int
) -> float:
    import numpy as np

    bounds = [(region_a.lo[i], region_a.hi[i]) for i in range(3)]
    bounds += [(region_b.lo[i], region_b.hi[i]) for i in range(3)]
    nodes, weights = zip(*(_mapped_gl(order, lo, hi) for lo, hi in bounds))

    # Inner 4-d grid over axes 2..5 (axis 5 fastest), each column written
    # through a view of the points as an order^4 block; axes 0 and 1 pick
    # the (i0, i1) slab.  r2 is the same for every slab, so both threads read it.
    inner = (order,) * 4
    r2 = np.empty(inner + (3,))
    r2[..., 0] = nodes[3][:, None, None]
    r2[..., 1] = nodes[4][:, None]
    r2[..., 2] = nodes[5]
    r2 = r2.reshape(-1, 3)
    inner_w = reduce(np.multiply.outer, weights[2:]).ravel()

    def slab_terms(rows: range) -> list[float]:
        r1 = np.empty(inner + (3,))
        r1[..., 2] = nodes[2][:, None, None, None]
        r1 = r1.reshape(-1, 3)
        terms = []
        for i0 in rows:
            r1[:, 0] = nodes[0][i0]
            for i1 in range(order):
                r1[:, 1] = nodes[1][i1]
                vals = np.asarray(density(r1, r2), dtype=float)
                # einsum's own loop, not BLAS: a threaded ddot would oversubscribe the cores
                slab = float(np.einsum("i,i->", vals, inner_w))
                terms.append(weights[0][i0] * weights[1][i1] * slab)
        return terms

    # The worker thread takes the upper half of the i0 slabs while this one
    # takes the lower; the terms are then added in serial (i0, i1) order.
    half = (order + 1) // 2
    upper = on_worker(slab_terms, range(half, order))
    try:
        terms = slab_terms(range(half))
    except BaseException:
        upper.exception()  # awaited, but a lower slab's error is the one a serial loop meets first
        raise
    total = 0.0
    for term in terms + upper.result():
        total += term
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
    if not width_param > 0:
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
    region_b = BoxRegion.centered_cube(sep, half)
    return SpatialSetup(packet_a, packet_b, region_a, region_b)


def setup_g_factor(setup: SpatialSetup, t: float = 0.0) -> LocalizationFactor:
    """Product-state localization factor of a :class:`SpatialSetup` at time t:
    the two box probabilities multiplied."""
    return LocalizationFactor(
        packet_probability_in_box(setup.packet_a, setup.region_a, t)
        * packet_probability_in_box(setup.packet_b, setup.region_b, t)
    )


def g_decay_curve(
    setup: SpatialSetup, t_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """Localization factor along an ascending grid of nonnegative times.

    For fixed regions the spreading width drives g to 0 as t grows, so for
    packets centered in their regions the curve is nonincreasing.
    """
    times = [float(t) for t in t_grid]
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("t_grid must be ascending")
    return [(t, setup_g_factor(setup, t).g) for t in times]
