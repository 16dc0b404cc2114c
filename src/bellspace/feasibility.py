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

A cheap screen comes first: the most violated CHSH functional on any 2x2 sub-grid
decides P infeasible when it proves so.  Every other target goes to one linear
program, the gauge LP max g s.t. g*P in L.  Its optimum g* >= 1 means P is in L (the
LP's vertex weights are the mixture), g* < 1 is the largest feasible scaling, and
its dual is a separating Bell-type inequality.  On a small grid (m + n <=
:data:`FULL_SEED_MAX_GRID`) the LP holds every vertex and one cold solve decides it;
a larger one is solved by column generation (Gilmore & Gomory, Oper. Res. 9, 849
(1961)) instead of over all 2^(m+n-1) vertices, each round priced by
:func:`~.lhv.best_responses`, its cold first round by the dual simplex and every hot
round by the primal.  HiGHS runs without presolve, on one instance per thread whose
model each solve clears.  The LP's equalities are taken in first differences, which
makes vertex columns sparse, and a round whose verdict is unproven is repaired once
in the original coordinates, on a fresh instance.  Screen and LP hand their
candidates to :func:`_prove`, the one place that builds and judges verdicts, and
:func:`verify_certificate` reads the bound that a :class:`~.lhv.BellCertificate`
derives by that same pricing rule, never the solver's.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import NumericalFailure
from .lhv import BellCertificate, best_responses, check_grid, every_vertex
from .spin import UNIT_SLACK, as_angle, canonical_chsh_settings

log = logging.getLogger(__name__)

#: Tolerance on the gauge optimum (feasible iff g* >= 1 - tol), on the
#: pricing step and on certificate margins.
FEASIBILITY_TOL = 1e-9

#: Largest m + n whose master starts from every vertex (2^(m+n-1) <= 128 columns), so
#: that its first round is the whole LP.  Measured in process on 690 solves of the
#: polytope_lp ladder (2 vCPUs), where such grids took 2.8-6.7 master rounds: this
#: seed cut the time by 17%, and by 27% with presolve off; a bound of 10 was no faster.
FULL_SEED_MAX_GRID = 8

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


class FeasibilitySolverError(NumericalFailure):
    """The LP backend failed or returned an inconsistent dual certificate."""


@dataclass(frozen=True)
class CorrelationTarget:
    """Target correlations P_ij on finite Alice/Bob angle grids.

    Angles are wrapped into [0, 2*pi); the matrix has shape (len(alphas),
    len(betas)) with entries in [-1, 1], and m + n is capped at
    :data:`~.lhv.MAX_GRID_SIZE`, as for a certificate.
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
        check_grid(m, n)
        matrix = np.array(self.matrix, dtype=float)
        if matrix.shape != (m, n):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match grids ({m}, {n})"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(matrix)) > 1.0 + UNIT_SLACK:
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
    """2x2 cosine target at the maximal-violation angles of :func:`canonical_chsh_settings`."""
    s = canonical_chsh_settings()
    return cosine_target((s.alpha1, s.alpha2), (s.beta1, s.beta2), g)


@dataclass(frozen=True)
class StrategyWeight:
    """One mixture component: sign vectors for both wings plus its weight."""

    s: tuple[int, ...]
    t: tuple[int, ...]
    weight: float


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a membership test, built by :func:`_prove`: a representing mixture or
    a certificate, and as ``residual`` the mixture's error or the certificate's margin."""

    status: str
    residual: float
    weights: tuple[StrategyWeight, ...] | None = None
    certificate: BellCertificate | None = None

    @property
    def is_feasible(self) -> bool:
        return self.status == FEASIBLE


def _vertex_keys(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Each vertex s_k t_k^T as one integer: the m + n <= MAX_GRID_SIZE sign bits
    of its pair flipped to s_k[0] = +1, since (s, t) and (-s, -t) are one vertex."""
    pairs = np.hstack([s, t]) * s[:, :1]
    return (pairs < 0.0) @ (1 << np.arange(pairs.shape[1]))


def _vertex_columns(s: np.ndarray, t: np.ndarray, dm: np.ndarray,
                    dn: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A weight column w_k >= 0 per vertex s_k t_k^T in compressed-column form (starts,
    row index, values): the nonzeros of (D_m s_k)(D_n t_k)^T, then a 1."""
    k = s.shape[0]
    outer = np.einsum("ki,kj->kij", s @ dm.T, t @ dn.T).reshape(k, -1)
    values = np.hstack([outer, np.ones((k, 1))])
    column, row = np.nonzero(values)
    return (np.searchsorted(column, np.arange(k)).astype(np.int32), row.astype(np.int32),
            values[column, row])


def _add_columns(highs, columns: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    starts, index, values = columns
    k = starts.size
    highs.addCols(k, np.zeros(k), np.zeros(k), np.full(k, np.inf), index.size, starts, index,
                  values)


@functools.lru_cache(maxsize=None)
def _difference(k: int) -> np.ndarray:
    """D_k, with rows e_0 and e_i - e_(i-1); built once per k and read-only."""
    d = np.eye(k) - np.eye(k, k=-1)
    d.setflags(write=False)
    return d


@functools.lru_cache(maxsize=None)
def _full_seed(m: int, n: int):
    """The small-grid master's seed: every vertex as rows (s, t), their sorted keys and
    their columns in first differences.  Every solve of one shape starts from the same
    seed, so it is built once and read-only."""
    s, t = every_vertex(m, n)
    keys = np.sort(_vertex_keys(s, t))
    columns = _vertex_columns(s, t, _difference(m), _difference(n))
    for array in (s, t, keys, *columns):
        array.setflags(write=False)
    return s, t, keys, columns


_HIGHS_CORE = "scipy.optimize._highspy._core"
# HiGHS simplex_strategy values
_DUAL_SIMPLEX, _PRIMAL_SIMPLEX = 1, 4


def _highs_core():
    """scipy's bundled HiGHS binding (the one ``linprog`` drives), loaded from its file.

    Importing it by name would first run the ``scipy.optimize`` package init,
    ~570 modules and ~0.5 s that the LP never uses; the extension alone loads
    in ~8 ms.  It is registered under its own name, so an earlier or later
    ``import scipy.optimize`` shares the same module.
    """
    if _HIGHS_CORE in sys.modules:
        return sys.modules[_HIGHS_CORE]
    scipy = importlib.util.find_spec("scipy")  # locates scipy without running its init
    paths = [Path(folder, "optimize", "_highspy", "_core" + suffix)
             for folder in (scipy.submodule_search_locations if scipy else ())
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"{paths[0] if paths else 'scipy'} not found, under any extension "
                          "suffix: the gauge LP needs the HiGHS binding that scipy >= 1.15 ships")
    spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
    core = sys.modules[_HIGHS_CORE] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(core)
    return core


def _set_option(highs, core, name: str, value) -> None:
    """Set a HiGHS option; the binding reports a bad name or value only by its status."""
    if highs.setOptionValue(name, value) != core.HighsStatus.kOk:
        from importlib.metadata import version

        raise FeasibilitySolverError(f"HiGHS rejected option {name} = {value!r} "
                                     f"(scipy {version('scipy')})")


def _new_highs(core):
    """A new HiGHS instance, silent and without presolve, at HiGHS's default tolerances."""
    highs = core._Highs()
    _set_option(highs, core, "output_flag", False)
    # HiGHS skips presolve on hot re-solves anyway, and on the cold solves of the
    # polytope_lp benchmark's ladder it cost more than it saved
    _set_option(highs, core, "presolve", "off")
    return highs


_THREAD = threading.local()


def _thread_highs(core):
    """This thread's HiGHS instance, emptied, at the primal tolerance FEASIBILITY_TOL.

    Creating an instance costs 60-100 us and its first solve's allocations more, so each
    thread keeps one and clears its model.  It is reused only while its class is
    ``core._Highs``, so a patched class gets a fresh instance, and its options are never
    reset, so options such a class sets in ``__init__`` hold.
    """
    highs = getattr(_THREAD, "highs", None)
    if type(highs) is core._Highs:
        highs.clearModel()
        return highs
    highs = _new_highs(core)
    _set_option(highs, core, "primal_feasibility_tolerance", FEASIBILITY_TOL)
    _THREAD.highs = highs
    return highs


def _master(highs, target: CorrelationTarget, columns, dm: np.ndarray, dn: np.ndarray):
    """Fill the empty model ``highs`` with the master: the g column, then the vertex
    ``columns``, under D_m (sum_k w_k s_k t_k^T - g P) D_n^T = 0 and sum w = 1."""
    rhs = np.append(np.zeros(dm.shape[0] * dn.shape[0]), 1.0)
    highs.addRows(rhs.size, rhs, rhs, 0, np.zeros(0, np.int32), np.zeros(0, np.int32),
                  np.zeros(0))
    # the g column: cost -1, 0 <= g <= 1, entries -D_m P D_n^T
    p = (dm @ target.matrix @ dn.T).ravel()
    nonzero = np.flatnonzero(p).astype(np.int32)
    highs.addCol(-1.0, 0.0, 1.0, nonzero.size, nonzero, -p[nonzero])
    _add_columns(highs, columns)
    return highs


@functools.lru_cache(maxsize=None)
def _sub_grids(m: int, n: int) -> np.ndarray:
    """Every 2x2 sub-grid of an m x n matrix (rows i < k, columns j < l) as a column of
    flat indices (ij, il, kj, kl).  Every screen of one shape reads the same array, so it
    is built once and read-only."""
    (i, k), (j, l) = np.triu_indices(m, 1), np.triu_indices(n, 1)
    i, k, j, l = np.repeat(i, j.size), np.repeat(k, j.size), np.tile(j, i.size), np.tile(l, i.size)
    corners = np.stack([i * n + j, i * n + l, k * n + j, k * n + l])
    corners.setflags(write=False)
    return corners


# the two CHSH forms on corners (a, b, c, d), each as its two halves:
# |a + b| + |c - d| and |a - b| + |c + d|; their signs give all eight CHSH functionals
_CHSH_HALVES = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0],
                         [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])


def _prove(target: CorrelationTarget, *, functional: np.ndarray | None = None,
           mixture: tuple | None = None) -> tuple[FeasibilityResult | None, bool]:
    """The verdict a candidate gives on the target, and whether it proves it.

    The module's one proof rule: nothing else builds a :class:`FeasibilityResult`.  A
    ``functional`` C (m x n) is scaled to C.P = 1, giving the infeasible verdict with
    certificate C / C.P and as residual its margin 1 - bound, proven if above
    FEASIBILITY_TOL; with C.P <= 0 it gives nothing, (None, False).  A ``mixture``
    (w, s, t), weights w on the vertices s_k t_k^T of the rows of s and t, gives the
    feasible verdict on the support w > 1e-12 and as residual its largest error
    against P, proven if at most FEASIBILITY_TOL.
    """
    certificate, weights = None, None
    if functional is not None:
        value = float(np.sum(functional * target.matrix))
        if not value > 0.0:
            return None, False
        certificate = BellCertificate(functional / value)
        status, residual = INFEASIBLE, 1.0 - certificate.bound
    else:
        w, s, t = mixture
        keep = np.flatnonzero(w > 1e-12)
        rebuilt = np.einsum("k,ki,kj->ij", w[keep], s[keep], t[keep])
        status, residual = FEASIBLE, float(np.max(np.abs(rebuilt - target.matrix)))
        weights = tuple(StrategyWeight(tuple(a), tuple(b), weight) for a, b, weight in zip(
            s[keep].astype(int).tolist(), t[keep].astype(int).tolist(), w[keep].tolist()))
    return (FeasibilityResult(status, residual, weights, certificate),
            residual <= FEASIBILITY_TOL if status == FEASIBLE else residual > FEASIBILITY_TOL)


def _chsh_screen(target: CorrelationTarget) -> FeasibilityResult | None:
    """The infeasible verdict of the most violated CHSH functional on a 2x2 sub-grid, if
    :func:`_prove` finds it proven; otherwise None."""
    m, n = target.matrix.shape
    corners = _sub_grids(m, n)
    if not corners.shape[1]:
        return None
    halves = _CHSH_HALVES @ target.matrix.ravel()[corners]
    forms = np.abs(halves).reshape(2, 2, -1).sum(axis=1)
    form, index = divmod(int(np.argmax(forms)), forms.shape[1])
    if not forms[form, index] > 2.0:
        return None
    signs = np.where(halves[2 * form:2 * form + 2, index] < 0.0, -1.0, 1.0)
    coeff = np.zeros((m, n))
    coeff.flat[corners[:, index]] = signs @ _CHSH_HALVES[2 * form:2 * form + 2]
    result, proven = _prove(target, functional=coeff)
    if not proven:
        return None
    (i, j), (k, l) = divmod(int(corners[0, index]), n), divmod(int(corners[3, index]), n)
    log.debug("CHSH screen %dx%d: rows (%d, %d), columns (%d, %d), S = %r, margin %.3g",
              m, n, i, k, j, l, float(np.sum(coeff * target.matrix)), result.residual)
    return result


def local_polytope_membership(target: CorrelationTarget) -> FeasibilityResult:
    """Decide membership of the target in the local correlation polytope.

    First every 2x2 sub-grid's CHSH functionals are evaluated at P.  The most violated
    one decides the target infeasible if it proves so (:func:`_prove`); such a verdict
    logs one DEBUG record (the sub-grid, S = C.P before scaling and the margin).  On a
    2x2 grid CHSH and the trivial bounds are all the facets (Fine, PRL 48, 291 (1982)),
    so there only targets within the tolerance of the polytope go on.  Every other
    target is decided by :func:`_gauge_lp`.
    """
    screened = _chsh_screen(target)
    return screened if screened is not None else _gauge_lp(target)


def _gauge_lp(target: CorrelationTarget) -> FeasibilityResult:
    """Decide membership by the gauge LP max g s.t. g*P in L.

    Solves it by column generation over polytope vertices.  The master LP has weights
    w >= 0 on a subset of vertices s t^T and 0 <= g <= 1, with sum_k w_k s_k t_k^T - g P
    = 0 and sum w = 1.  Its equality duals (C, z) bound every master column by s^T C t
    <= z; each round adds all best responses to C that beat z by more than
    FEASIBILITY_TOL, until none does (or g reaches 1).  With m + n <=
    FULL_SEED_MAX_GRID the master starts from every vertex, so the first round is the
    whole LP, solved cold, and its pricing finds nothing; its seed (columns and keys)
    is cached per shape.  A larger grid's master starts from every strategy's best and
    worst response to P.  Either way g = 0 is feasible.

    The equalities are taken in first differences, D_m (.) D_n^T, where D_k has rows
    e_0 and e_i - e_(i-1): the same LP, but a column (D_m s)(D_n t)^T has (1 + sign
    changes of s)(1 + sign changes of t) nonzeros, not m*n, and the duals map back as
    C = D_m^T Y D_n.  A difference row sums entries of P, so HiGHS's primal tolerance
    there is FEASIBILITY_TOL.  The master lives on this thread's HiGHS instance
    (:func:`_thread_highs`), cleared of the last solve's model.  A small grid's one
    round runs the primal simplex.  Column generation solves its cold first round by
    the dual simplex; each later round appends its new columns to the model and
    resumes the primal simplex from the last basis.

    A round at g >= 1 - FEASIBILITY_TOL hands its weights to :func:`_prove`, a round
    whose pricing finds no new column its dual C; the last round's verdict is returned.
    Once per solve, a round that is not optimal or ends unproven is repaired: the
    master is rebuilt in the original coordinates on a fresh instance at HiGHS's
    default tolerance, solved cold by the dual simplex and continued hot.  After that,
    a failed round or an unproven infeasible verdict raises
    :class:`FeasibilitySolverError`, and an unproven feasible verdict is returned with
    its residual.  Each solve logs one DEBUG record (status, rounds, columns, the
    master's nonzeros, whether it was repaired, simplex iterations, g, the last round's
    pricing violation max s^T C t - z, or 0 when that round stopped at g = 1 unpriced,
    and time) on the ``bellspace.feasibility`` logger.
    """
    # read off the module at each call, so a patched core._Highs takes effect
    core = _highs_core()
    start = time.perf_counter()
    m, n = target.matrix.shape
    dm, dn = _difference(m), _difference(n)
    highs = _thread_highs(core)
    if m + n <= FULL_SEED_MAX_GRID:
        s, t, keys, columns = _full_seed(m, n)
        _set_option(highs, core, "simplex_strategy", _PRIMAL_SIMPLEX)
    else:
        s, t, _ = best_responses(target.matrix)
        s, t = np.vstack([s, s]), np.vstack([t, -t])
        # keys: the master's columns, sorted for searchsorted
        keys, columns = np.sort(_vertex_keys(s, t)), _vertex_columns(s, t, dm, dn)
        _set_option(highs, core, "simplex_strategy", _DUAL_SIMPLEX)
    _master(highs, target, columns, dm, dn)
    rounds, iterations, repaired = 0, 0, False
    while True:
        highs.run()
        _set_option(highs, core, "simplex_strategy", _PRIMAL_SIMPLEX)
        rounds += 1
        info, status = highs.getInfo(), highs.getModelStatus()
        iterations += info.simplex_iteration_count
        result, proven, fresh, violation = None, False, (), 0.0
        if optimal := status == core.HighsModelStatus.kOptimal:
            g, solution = -info.objective_function_value, highs.getSolution()
        if optimal and g >= 1.0 - FEASIBILITY_TOL:
            result, proven = _prove(target, mixture=(np.array(solution.col_value[1:]), s, t))
        elif optimal:
            dual = np.array(solution.row_dual)
            coeff, level = dm.T @ dual[:-1].reshape(m, n) @ dn, -float(dual[-1])
            s_new, t_new, values = best_responses(coeff)
            violation = float(values.max()) - level
            # within HiGHS's dual tolerance a master column may still beat z + FEASIBILITY_TOL
            fresh = np.flatnonzero(values > level + FEASIBILITY_TOL)
            fresh_keys = _vertex_keys(s_new[fresh], t_new[fresh])
            new = keys[np.minimum(np.searchsorted(keys, fresh_keys), keys.size - 1)] != fresh_keys
            fresh = fresh[new]
            if not fresh.size:
                result, proven = _prove(target, functional=coeff)
        if not repaired and not (len(fresh) or proven):
            repaired, dm, dn = True, np.eye(m), np.eye(n)
            highs = _master(_new_highs(core), target, _vertex_columns(s, t, dm, dn), dm, dn)
            _set_option(highs, core, "simplex_strategy", _DUAL_SIMPLEX)
            continue
        if not optimal:
            raise FeasibilitySolverError(
                f"LP solver failed: HiGHS model status {highs.modelStatusToString(status)!r}"
            )
        if not len(fresh):
            break
        _add_columns(highs, _vertex_columns(s_new[fresh], t_new[fresh], dm, dn))
        s, t = np.vstack([s, s_new[fresh]]), np.vstack([t, t_new[fresh]])
        keys = np.sort(np.append(keys, fresh_keys[new]))
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "gauge LP %dx%d: status %s, %d master rounds, %d columns, %d nonzeros, repaired %s, "
            "%d simplex iterations, g = %r, pricing violation %.3g, %.6f s", m, n,
            highs.modelStatusToString(status), rounds, s.shape[0], highs.getNumNz(), repaired,
            iterations, g, violation, time.perf_counter() - start,
        )
    if not (proven or result and result.is_feasible):
        raise FeasibilitySolverError(
            f"dual certificate with value {float(np.sum(coeff * target.matrix))!r} at the "
            f"target and margin {result and result.residual!r} is inconsistent with gauge {g!r}"
        )
    return result


def verify_certificate(certificate: BellCertificate, target: CorrelationTarget) -> bool:
    """Confirm that a certificate separates the target by more than FEASIBILITY_TOL."""
    if target.matrix.shape != certificate.coefficients.shape:
        raise ValueError("certificate shape does not match the target")
    return certificate.value_at(target) - certificate.bound > FEASIBILITY_TOL


def max_feasible_scale(target: CorrelationTarget, tol: float) -> float:
    """Largest scaling g in [0, 1] keeping g*P inside the local polytope, from one gauge LP.

    1 when P itself is feasible.  Otherwise the LP's certificate, scaled to
    C.P = 1, bounds every feasible g by its classical bound, which duality makes
    the threshold g*; the answer bound - tol/2 lies within ``tol`` below it, and
    the certificate separates (answer + tol)*P by tol/2.  It always runs
    :func:`_gauge_lp`, never the CHSH screen, whose facet bounds g* only from above.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    result = _gauge_lp(target)
    return 1.0 if result.is_feasible else max(0.0, result.certificate.bound - tol / 2)
