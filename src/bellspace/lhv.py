"""Local-hidden-variable models with bounded response functions.

A model is a hidden variable lambda, uniform on the circle [0, 2*pi),
together with two response functions xi(alpha, lambda) and eta(beta,
lambda), each bounded by 1 in absolute value.  One law for lambda loses
nothing: any other law on the circle is the uniform one pushed through its
inverse CDF F^-1, so it goes into the responses as xi(alpha, F^-1(lambda)).
The predicted correlation at settings (alpha, beta) is the expectation of
xi * eta over lambda.  Any such model obeys the CHSH bound

    |P11 - P12| + |P21 + P22| <= 2,

so a computed statistic beyond 2 (past numerical tolerance) means the
response functions violate their bounds.

The cosine family

    xi(alpha, lambda) = sqrt(2 g) cos(alpha - lambda),
    eta(beta, lambda) = sqrt(2 g) cos(beta - lambda),   lambda uniform,

reproduces g*cos(alpha - beta) exactly and stays bounded by 1 precisely when
g <= 1/2; no bounded model of any kind can reproduce g*cos(alpha - beta) for
g > 1/sqrt(2) (that would break the CHSH bound at the canonical settings).
The window (1/2, 1/sqrt(2)] is not covered by any construction here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .spin import TWO_PI, UNIT_SLACK, ChshSettings, as_angle, chsh_statistic

#: Response function: (setting angle, lambdas) -> values in [-1, 1], one per
#: lambda or broadcasting to that.  The eavesdropper channel passes one angle
#: per lambda, so a response used there must also accept an angle array, and
#: it calls xi on a worker thread while eta runs, so the two must not share
#: mutable state.
ResponseFn = Callable[[float | np.ndarray, np.ndarray], np.ndarray]

#: Trapezoid nodes of :func:`model_expectation_exact`, read at each call.
_EXACT_NODES = 4096
#: Lambda draws per chunk of :func:`model_expectation_mc`; up to one chunk its
#: result is bit-identical to the whole-array mean and standard deviation.
_MC_CHUNK = 1 << 19
#: Largest ``n`` for :func:`model_expectation_mc`.  Its draws come in chunks, so
#: peak RSS grows ~20 MB at any n (measured at 10^6, 10^7 and 4*10^7 draws; a
#: ``bellspace lhv`` run peaks at 56 MB at 10^7 and at the cap), and the cap
#: bounds run time instead: ~2 s for one estimate at the cap.
MAX_MC_SAMPLES = 40_000_000


@dataclass(frozen=True)
class CorrelationEstimate:
    """Monte Carlo estimate of a correlation: mean, standard error, sample count."""

    mean: float
    std_error: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")


@dataclass(frozen=True)
class HiddenVariableModel:
    """Response functions of a hidden variable lambda uniform on [0, 2*pi).

    Every expectation and every draw takes lambda uniform; a model with
    another law F on the circle composes its responses with F^-1.  Building
    a model evaluates nothing: :func:`response_values` checks the unit bound
    on every value an expectation or a draw uses.
    """

    xi: ResponseFn
    eta: ResponseFn
    label: str = field(default="", compare=False)


def response_values(
    model: HiddenVariableModel, wing: str, angle: float | np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """The response ``wing`` ("xi" or "eta") at ``angle``, broadcast to ``lam.shape`` and checked.

    Raises ValueError naming the response if its values do not broadcast to
    one per lambda, or if any is NaN or outside [-1, 1] past 1e-9.
    """
    try:
        values = np.broadcast_to(getattr(model, wing)(angle, lam), lam.shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"response {wing} must give one value per lambda: {exc}") from exc
    low, high = values.min(), values.max()
    if not -1.0 - UNIT_SLACK <= low <= high <= 1.0 + UNIT_SLACK:
        raise ValueError(f"response {wing} breaks the unit bound: values span [{low}, {high}]")
    return values


def cosine_model(g: float) -> HiddenVariableModel:
    """The cosine model reproducing g*cos(alpha - beta), valid for 0 <= g <= 1/2.

    Responses sqrt(2 g) cos(angle - lambda) with lambda uniform; their bound
    sqrt(2 g) reaches 1 exactly at g = 1/2, so larger g is rejected.
    """
    if not 0.0 <= g <= 0.5:
        raise ValueError(
            f"cosine model requires 0 <= g <= 1/2 (bounded responses), got {g!r}"
        )
    amplitude = math.sqrt(2.0 * g)

    def xi(alpha: float, lam: np.ndarray) -> np.ndarray:
        return amplitude * np.cos(alpha - lam)

    def eta(beta: float, lam: np.ndarray) -> np.ndarray:
        return amplitude * np.cos(beta - lam)

    return HiddenVariableModel(xi=xi, eta=eta, label=f"cosine(g={g!r})")


def random_bounded_model(rng: np.random.Generator) -> HiddenVariableModel:
    """A random two-term trigonometric model, exactly bounded by 1.

    Each response is (a1 cos(j1 x - k1 lam + phi1) + a2 cos(j2 x - k2 lam +
    phi2)) / (a1 + a2) with small integer frequencies, so products are low
    degree trigonometric polynomials in lambda and the 4096-node exact
    expectation is exact to rounding.  The triangle inequality gives the
    bound 1.  Intended for property tests and demos.
    """

    def make_response() -> ResponseFn:
        a = rng.uniform(0.3, 1.0, 2)
        freq = rng.integers(1, 5, 2)
        angle_freq = rng.integers(0, 4, 2)
        phase = rng.uniform(0.0, TWO_PI, 2)
        denom = float(a.sum())

        def response(x: float, lam: np.ndarray) -> np.ndarray:
            return (
                a[0] * np.cos(angle_freq[0] * x - freq[0] * lam + phase[0])
                + a[1] * np.cos(angle_freq[1] * x - freq[1] * lam + phase[1])
            ) / denom

        return response

    return HiddenVariableModel(xi=make_response(), eta=make_response(), label="random-trig")


def model_expectation_exact(model: HiddenVariableModel, alpha: float, beta: float) -> float:
    """Expectation of xi*eta by the periodic trapezoid rule on [0, 2*pi).

    The N = 4096 equal-weight nodes are exact to rounding for
    trigonometric-polynomial responses like the cosine family (for the cosine
    model the result is g*cos(alpha - beta)) and converge fast for smooth
    ones.  Discontinuous responses get only O(1/N): for xi = sign(cos(alpha -
    lambda)), eta = sign(cos(beta - lambda)) the error is up to ~4/N, ~1e-3.
    """
    xi, eta = node_responses(model, as_angle(alpha), as_angle(beta))
    return float(np.mean(xi * eta))


def node_responses(model: HiddenVariableModel, alpha: float,
                   beta: float) -> tuple[np.ndarray, np.ndarray]:
    """xi at alpha and eta at beta, checked, on the exact expectations' trapezoid nodes."""
    lam = np.arange(_EXACT_NODES) * (TWO_PI / _EXACT_NODES)
    return response_values(model, "xi", alpha, lam), response_values(model, "eta", beta, lam)


def model_expectation_mc(
    model: HiddenVariableModel,
    alpha: float,
    beta: float,
    n: int,
    rng: np.random.Generator,
) -> CorrelationEstimate:
    """Monte Carlo estimate of the xi*eta expectation over n uniform lambda draws.

    The draws come ``_MC_CHUNK`` at a time, the same numbers as one call for
    all n, and the chunks' means and sums of squared deviations are combined
    pairwise, so memory stays flat in n.  Up to one chunk the mean and the
    standard error equal ``np.mean`` and ``np.std(ddof=1) / sqrt(n)`` of all
    the products bit for bit.
    """
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    if n > MAX_MC_SAMPLES:
        raise ValueError(f"at most {MAX_MC_SAMPLES} samples per estimate, got {n}")
    a, b = as_angle(alpha), as_angle(beta)
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, n, _MC_CHUNK):
        lam = rng.uniform(0.0, TWO_PI, min(_MC_CHUNK, n - start))
        products = response_values(model, "xi", a, lam) * response_values(model, "eta", b, lam)
        k, chunk_mean = lam.size, float(np.mean(products))
        products -= chunk_mean
        # Chan et al.'s update of the count, mean and sum of squared deviations;
        # the first chunk's k / count is 1, so one chunk gives np.mean and np.std exactly
        delta, count = chunk_mean - mean, count + k
        mean += delta * (k / count)
        m2 += float(np.sum(products * products)) + delta * delta * ((count - k) * k / count)
    std_error = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return CorrelationEstimate(mean=mean, std_error=std_error, n_samples=n)


def model_chsh(
    model: HiddenVariableModel,
    settings: ChshSettings,
    mode: str = "exact",
    n: int = 1_000_000,
    rng: np.random.Generator | None = None,
) -> float:
    """CHSH statistic of the four model correlations at the given settings.

    ``mode="exact"`` uses the periodic quadrature; ``mode="mc"`` estimates
    each correlation from ``n`` lambda draws (requires ``rng``).  A result
    beyond 2 past tolerance (1e-9 exact, 3 combined standard errors in MC
    mode) is rejected: it signals response functions outside their bounds.
    """
    alphas, betas = (settings.alpha1, settings.alpha2), (settings.beta1, settings.beta2)
    pairs = [(a, b) for a in alphas for b in betas]
    if mode == "exact":
        p = [model_expectation_exact(model, a, b) for a, b in pairs]
        tolerance = 1e-9
    elif mode == "mc":
        if rng is None:
            raise ValueError("mc mode requires an explicit rng")
        estimates = [model_expectation_mc(model, a, b, n, rng) for a, b in pairs]
        p = [e.mean for e in estimates]
        tolerance = 3.0 * math.sqrt(sum(e.std_error**2 for e in estimates))
    else:
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    value = chsh_statistic(p[0], p[1], p[2], p[3])
    if value > 2.0 + tolerance:
        raise ValueError(
            f"model CHSH {value!r} exceeds the classical bound 2 beyond "
            f"tolerance {tolerance!r}; response functions are out of bounds"
        )
    return value
