"""Local-correlation-polytope membership with Bell-inequality certificates.

A target m x n matrix P of correlations on finite setting grids is
reproducible by bounded hidden-variable responses (|xi_i| <= 1, |eta_j| <= 1
with P_ij = E[xi_i eta_j]) exactly when P lies in the local correlation
polytope

    L = conv{ s t^T : s in {-1,+1}^m, t in {-1,+1}^n }.

Why the bounded-response problem reduces to the polytope: for each lambda
the rank-one matrix xi(lambda) eta(lambda)^T has its factors inside the unit
cubes, and every point of a cube is a convex combination of the cube's sign
vertices; bilinearity then writes xi eta^T as a convex combination of sign
outer products, so the lambda-average P stays in L.  Conversely any weight
vector on sign pairs *is* a discrete hidden-variable model.

One linear program decides everything: the gauge LP max g s.t. g*P in L.
Its optimum g* >= 1 means P is in L (the LP's vertex weights are the
mixture), g* < 1 is the largest feasible scaling, and its dual is a
separating Bell-type inequality.  The LP is solved by column generation
(Gilmore & Gomory, Oper. Res. 9, 849 (1961)) instead of over all
2^(m+n-1) vertices: a vertex's dual value is priced exactly by
max_{s,t} s^T C t = max_s ||C^T s||_1 (Brunner et al., Rev. Mod. Phys. 86,
419 (2014), Sec. II), which enumerates only the smaller wing's
2^(min(m,n)-1) strategies.  Verification never trusts the solver:
:func:`verify_certificate` recomputes the classical bound the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import NumericalFailure, param, reject_unknown
from .spin import as_angle

#: Hard cap on m + n; pricing enumerates 2^(min(m,n)-1) strategies.
MAX_GRID_SIZE = 24
#: Tolerance on the gauge optimum (feasible iff g* >= 1 - tol), on the
#: pricing step and on certificate margins.
FEASIBILITY_TOL = 1e-9

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


class FeasibilitySolverError(NumericalFailure):
    """The LP backend failed or returned an inconsistent dual certificate."""


@dataclass(frozen=True)
class CorrelationTarget:
    """Target correlations P_ij on finite Alice/Bob angle grids.

    Angles are wrapped into [0, 2*pi); the matrix has shape (len(alphas),
    len(betas)) with entries in [-1, 1], and m + n is capped at
    :data:`MAX_GRID_SIZE` to keep the pricing enumeration tractable.
    """

    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        alphas = tuple(as_angle(a) for a in self.alphas)
        betas = tuple(as_angle(b) for b in self.betas)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)
        m, n = len(alphas), len(betas)
        if m < 1 or n < 1:
            raise ValueError("need at least one setting per wing")
        if m + n > MAX_GRID_SIZE:
            raise ValueError(
                f"grid too large: m + n = {m + n} exceeds the cap {MAX_GRID_SIZE}"
            )
        matrix = np.array(self.matrix, dtype=float)
        if matrix.shape != (m, n):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match grids ({m}, {n})"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(matrix)) > 1.0 + 1e-9:
            raise ValueError("correlation entries must lie in [-1, 1]")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorrelationTarget):
            return NotImplemented
        return (
            self.alphas == other.alphas
            and self.betas == other.betas
            and np.array_equal(self.matrix, other.matrix)
        )

    def scaled(self, factor: float) -> "CorrelationTarget":
        return CorrelationTarget(self.alphas, self.betas, factor * self.matrix)


def cosine_target(
    alphas: Sequence[float], betas: Sequence[float], g: float = 1.0
) -> CorrelationTarget:
    """The singlet-type target g*cos(alpha_i - beta_j) on the given grids."""
    a = np.array([as_angle(x) for x in alphas])
    b = np.array([as_angle(x) for x in betas])
    return CorrelationTarget(tuple(a), tuple(b), g * np.cos(a[:, None] - b[None, :]))


def canonical_cosine_target(g: float = 1.0) -> CorrelationTarget:
    """2x2 cosine target at the maximal-violation angles (pi/2, 0) x (pi/4, -pi/4)."""
    return cosine_target((math.pi / 2, 0.0), (math.pi / 4, -math.pi / 4), g)


@dataclass(frozen=True)
class BellCertificate:
    """A separating inequality: sum c_ij P_ij <= bound for every local P."""

    coefficients: np.ndarray
    bound: float

    def __post_init__(self) -> None:
        coeff = np.array(self.coefficients, dtype=float)
        if coeff.ndim != 2 or not np.all(np.isfinite(coeff)):
            raise ValueError("coefficients must be a finite 2-d matrix")
        coeff.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BellCertificate):
            return NotImplemented
        return self.bound == other.bound and np.array_equal(
            self.coefficients, other.coefficients
        )

    def value_at(self, target: CorrelationTarget) -> float:
        return float(np.sum(self.coefficients * target.matrix))


def chsh_certificate() -> BellCertificate:
    """The CHSH inequality as a 2x2 certificate: c = [[1,-1],[1,1]], bound 2."""
    return BellCertificate(np.array([[1.0, -1.0], [1.0, 1.0]]), 2.0)


@dataclass(frozen=True)
class StrategyWeight:
    """One mixture component: sign vectors for both wings plus its weight."""

    s: tuple[int, ...]
    t: tuple[int, ...]
    weight: float


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a membership test: a representing mixture or a certificate.

    ``residual`` is the largest reconstruction error of the mixture when
    feasible, and the certificate margin C.P - bound (with C scaled so that
    C.P = 1) when infeasible.
    """

    status: str
    residual: float
    weights: tuple[StrategyWeight, ...] | None = None
    certificate: BellCertificate | None = None

    @property
    def is_feasible(self) -> bool:
        return self.status == FEASIBLE


def _half_sign_matrix(k: int) -> np.ndarray:
    """All of {-1,+1}^k (k >= 1) as rows, with the first coordinate pinned to +1.

    The outer products s t^T and (-s)(-t)^T coincide, so pinning one wing's
    first sign enumerates every polytope vertex exactly once.
    """
    bits = (np.arange(2 ** (k - 1))[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return 1.0 - 2.0 * bits


def _best_responses(coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every strategy of the smaller wing, its best reply and the pair's value.

    Against a fixed s the best t is sign(C^T s), worth s^T C t = ||C^T s||_1,
    so max over all 2^(m+n) sign pairs of s^T C t is the largest of the
    2^(min(m,n)-1) returned values.  Returns the stacked rows (s, t, value).
    """
    flip = coeff.shape[0] > coeff.shape[1]
    own = _half_sign_matrix(min(coeff.shape))
    scores = own @ (coeff.T if flip else coeff)
    reply = np.where(scores < 0.0, -1.0, 1.0)
    values = np.abs(scores).sum(axis=1)
    return (reply, own, values) if flip else (own, reply, values)


def _gauge_lp(
    target: CorrelationTarget, tol: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve max g s.t. g*P in L by column generation over polytope vertices.

    The master LP has weights w >= 0 on a subset of vertices s t^T and
    0 <= g <= 1, with sum_k w_k s_k t_k^T - g P = 0 and sum w = 1.  Its
    equality duals (C, z) bound every master column by s^T C t <= z; each
    round adds all best responses to C that beat z by more than ``tol``,
    until none does (or g reaches 1).  The master starts from every
    strategy's best and worst response to P, so g = 0 is always feasible.

    Returns (g, w, s, t, C) with w over the master columns (s_k, t_k).
    """
    # imported here, not at module level: scipy.optimize costs ~0.5 s of startup
    from scipy.optimize import linprog

    m, n = target.matrix.shape
    p = target.matrix.ravel()
    s, t, _ = _best_responses(target.matrix)
    s, t = np.vstack([s, s]), np.vstack([t, -t])
    while True:
        k = s.shape[0]
        columns = np.einsum("ki,kj->ijk", s, t).reshape(m * n, k)
        a_eq = np.vstack([np.hstack([columns, -p[:, None]]), np.append(np.ones(k), 0.0)])
        result = linprog(
            np.append(np.zeros(k), -1.0), A_eq=a_eq, b_eq=np.append(np.zeros(m * n), 1.0),
            bounds=[(0.0, None)] * k + [(0.0, 1.0)], method="highs",
        )
        if result.status != 0:
            raise FeasibilitySolverError(
                f"LP solver failed (status {result.status}): {result.message}"
            )
        g, dual = -float(result.fun), result.eqlin.marginals
        coeff, level = dual[:-1].reshape(m, n), -float(dual[-1])
        if g >= 1.0 - tol:
            break
        s_new, t_new, values = _best_responses(coeff)
        # within HiGHS's dual tolerance a master column may still beat z + tol
        seen = {row.tobytes() for row in np.hstack([s, t])}
        fresh = [
            i for i in np.flatnonzero(values > level + tol)
            if np.append(s_new[i], t_new[i]).tobytes() not in seen
        ]
        if not fresh:
            break
        s, t = np.vstack([s, s_new[fresh]]), np.vstack([t, t_new[fresh]])
    return g, result.x[:-1], s, t, coeff


def local_polytope_membership(target: CorrelationTarget) -> FeasibilityResult:
    """Decide membership of the target in the local correlation polytope.

    Feasible verdicts (gauge g* >= 1 - FEASIBILITY_TOL) return a sparse
    representing mixture over sign-strategy pairs; infeasible verdicts return
    a separating Bell certificate read off the gauge LP's dual, scaled to
    C.P = 1, with its classical bound recomputed exactly.  Solver breakdowns
    raise :class:`FeasibilitySolverError` with the solver's message.
    """
    g, w, s, t, coeff = _gauge_lp(target, FEASIBILITY_TOL)
    if g >= 1.0 - FEASIBILITY_TOL:
        keep = np.flatnonzero(w > 1e-12)
        rebuilt = np.einsum("k,ki,kj->ij", w[keep], s[keep], t[keep])
        weights = tuple(
            StrategyWeight(tuple(map(int, s[k])), tuple(map(int, t[k])), float(w[k]))
            for k in keep
        )
        residual = float(np.max(np.abs(rebuilt - target.matrix)))
        return FeasibilityResult(FEASIBLE, residual=residual, weights=weights)

    value = float(np.sum(coeff * target.matrix))
    if not value > 0.0:
        raise FeasibilitySolverError(f"dual certificate has value {value!r} at the target")
    coefficients = coeff / value
    bound = float(np.max(_best_responses(coefficients)[2]))
    margin = 1.0 - bound
    if margin <= FEASIBILITY_TOL:
        raise FeasibilitySolverError(
            f"dual certificate margin {margin!r} inconsistent with gauge {g!r}"
        )
    return FeasibilityResult(
        INFEASIBLE, residual=margin, certificate=BellCertificate(coefficients, bound)
    )


def verify_certificate(
    certificate: BellCertificate,
    target: CorrelationTarget,
    margin_tol: float = FEASIBILITY_TOL,
) -> bool:
    """Independently confirm that a certificate separates the target.

    Recomputes the classical bound max over all sign pairs of sum c_ij s_i t_j
    as the largest best-response value (ignoring the stored ``bound``) and
    checks that the separation margin exceeds ``margin_tol``.
    """
    coeff = certificate.coefficients
    if target.matrix.shape != coeff.shape:
        raise ValueError("certificate shape does not match the target")
    best = float(np.max(_best_responses(coeff)[2]))
    return certificate.value_at(target) - best > margin_tol


def max_feasible_scale(target: CorrelationTarget, tol: float) -> float:
    """Largest scaling g in [0, 1] keeping g*P inside the local polytope.

    One gauge LP gives the threshold g*; the answer is 1 when g* reaches 1,
    and otherwise g* - tol/2, so that it lies inside the polytope, within
    ``tol`` below the threshold.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    g = _gauge_lp(target, FEASIBILITY_TOL)[0]
    return 1.0 if g >= 1.0 - FEASIBILITY_TOL else max(0.0, g - tol / 2)


# --- JSON config reading ----------------------------------------------------


def target_from_dict(data: dict) -> CorrelationTarget:
    """Correlation target from its JSON block: ``alphas``, ``betas`` and ``matrix``."""
    reject_unknown(data, {"alphas", "betas", "matrix"}, "correlation-target")
    return CorrelationTarget(
        param(data, "alphas", []), param(data, "betas", []), param(data, "matrix", [[]])
    )
