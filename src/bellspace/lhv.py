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

from .spin import TWO_PI, ChshSettings, as_angle, chsh_statistic

#: Response function: (setting angles, lambdas) -> values.  It must broadcast:
#: an angle array and a lambda array give one value per broadcast element.
ResponseFn = Callable[[float | np.ndarray, np.ndarray], np.ndarray]

_BOUND_SLACK = 1e-9
_PROBE_SEED = 971**3  # fixed so construction-time bound checks are reproducible
_PROBE_DRAWS = 100_000
_PROBE_ANGLES = 16
_EXACT_NODES = 4096
#: Largest ``n`` for :func:`model_expectation_mc`: peak RSS grows ~30 MB per
#: 10^6 draws (343 MB at 10^7 through the CLI), so a call stays under ~1.3 GB.
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
    """Bounded response functions of a hidden variable lambda uniform on [0, 2*pi).

    Every expectation and every draw takes lambda uniform; a model with
    another law F on the circle composes its responses with F^-1.
    ``bound`` is a proven sup of |xi| and |eta| (at most 1), or None.  Only
    without it are the responses probed at construction: 10^5 uniform
    lambdas against a probe set of angles, with a fixed probe seed.
    """

    xi: ResponseFn
    eta: ResponseFn
    label: str = field(default="", compare=False)
    bound: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.bound is not None:
            if not 0.0 <= self.bound <= 1.0 + _BOUND_SLACK:
                raise ValueError(f"bound must lie in [0, 1], got {self.bound!r}")
            return
        rng = np.random.default_rng(_PROBE_SEED)
        lam = rng.uniform(0.0, TWO_PI, _PROBE_DRAWS)
        angles, grid = rng.uniform(0.0, TWO_PI, (_PROBE_ANGLES, 1)), (_PROBE_ANGLES, _PROBE_DRAWS)
        for name, fn in (("xi", self.xi), ("eta", self.eta)):
            try:
                values = np.asarray(fn(angles, lam))
                if values.ndim == 0 or np.broadcast_shapes(values.shape, grid) != grid:
                    raise ValueError(f"got shape {values.shape} for an angle x lambda grid")
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"response function {name} must broadcast over an array of angles: {exc}"
                ) from exc
            worst = float(np.max(np.abs(values)))
            if worst > 1.0 + _BOUND_SLACK:
                raise ValueError(
                    f"response function {name} exceeds the unit bound: "
                    f"max |{name}| = {worst!r} over {_PROBE_DRAWS} sampled lambdas"
                )


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

    return HiddenVariableModel(xi=xi, eta=eta, label=f"cosine(g={g!r})", bound=amplitude)


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

    return HiddenVariableModel(
        xi=make_response(), eta=make_response(), label="random-trig", bound=1.0
    )


def model_expectation_exact(
    model: HiddenVariableModel,
    alpha: float,
    beta: float,
    nodes: int = _EXACT_NODES,
) -> float:
    """Expectation of xi*eta by the periodic trapezoid rule on [0, 2*pi).

    Equal-weight nodes are exact to rounding for trigonometric-polynomial
    responses like the cosine family (for the cosine model the result is
    g*cos(alpha - beta)) and converge fast for smooth ones.  Discontinuous
    responses get only O(1/N) in the node count N: for xi = sign(cos(alpha -
    lambda)), eta = sign(cos(beta - lambda)) the error is up to ~4/N
    (~1e-3 at the default N = 4096).
    """
    a, b = as_angle(alpha), as_angle(beta)
    lam = np.arange(nodes) * (TWO_PI / nodes)
    return float(np.mean(np.asarray(model.xi(a, lam)) * np.asarray(model.eta(b, lam))))


def model_expectation_mc(
    model: HiddenVariableModel,
    alpha: float,
    beta: float,
    n: int,
    rng: np.random.Generator,
) -> CorrelationEstimate:
    """Monte Carlo estimate of the xi*eta expectation over n uniform lambda draws."""
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    if n > MAX_MC_SAMPLES:
        raise ValueError(f"at most {MAX_MC_SAMPLES} samples per estimate, got {n}")
    a, b = as_angle(alpha), as_angle(beta)
    lam = rng.uniform(0.0, TWO_PI, n)
    products = np.asarray(model.xi(a, lam)) * np.asarray(model.eta(b, lam))
    mean = float(np.mean(products))
    std_error = float(np.std(products, ddof=1) / math.sqrt(n))
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
