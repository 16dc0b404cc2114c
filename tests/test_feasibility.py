"""Local-polytope membership, dual certificates, and the scaling threshold.

Every solver verdict is cross-checked by an independent witness: feasible
mixtures are reconstructed by hand, infeasible certificates go through
exhaustive sign-pair enumeration (:func:`classical_bound`, the oracle).
"""

import ast
import contextlib
import importlib.machinery
import importlib.util
import itertools
import logging
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import bellspace.feasibility as feasibility
import bellspace.lhv as lhv
from bellspace.cli import target_from_dict
from bellspace.feasibility import (
    FEASIBILITY_TOL,
    FEASIBLE,
    INFEASIBLE,
    CorrelationTarget,
    FeasibilitySolverError,
    canonical_cosine_target,
    cosine_target,
    local_polytope_membership,
    max_feasible_scale,
    verify_certificate,
)
from bellspace.lhv import (
    BellCertificate,
    best_responses,
    chsh_certificate,
    cosine_model,
    model_expectation_exact,
)

SQRT2 = math.sqrt(2.0)


def classical_bound(coeff: np.ndarray) -> float:
    """max of s^T C t over all 2^(m+n) sign pairs, by exhaustive enumeration."""
    s, t = (np.array(list(itertools.product((-1.0, 1.0), repeat=k))) for k in coeff.shape)
    return float(np.max(s @ coeff @ t.T))


def dense_gauge(matrix: np.ndarray, tol: float | None = None) -> float:
    """g* of the gauge LP over all 2^(m+n-1) vertices, one cold linprog solve (the oracle).

    ``tol`` tightens HiGHS's primal and dual feasibility tolerances (default 1e-7).
    """
    from scipy.optimize import linprog

    m, n = matrix.shape
    s = np.array([(1.0, *rest) for rest in itertools.product((-1.0, 1.0), repeat=m - 1)])
    t = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    columns = np.einsum("ai,bj->ijab", s, t).reshape(m * n, -1)
    k = columns.shape[1]
    a_eq = np.vstack([np.hstack([columns, -matrix.reshape(-1, 1)]), np.append(np.ones(k), 0.0)])
    result = linprog(np.append(np.zeros(k), -1.0), A_eq=a_eq,
                     b_eq=np.append(np.zeros(m * n), 1.0),
                     bounds=[(0.0, None)] * k + [(0.0, 1.0)], method="highs",
                     options={} if tol is None else {"primal_feasibility_tolerance": tol,
                                                     "dual_feasibility_tolerance": tol})
    assert result.status == 0, result.message
    return -float(result.fun)


@contextlib.contextmanager
def debug_records():
    """The records ``bellspace.feasibility`` logs at DEBUG inside the block, without caplog
    (a function-scoped fixture, which hypothesis tests cannot take)."""
    records, logger = [], logging.getLogger("bellspace.feasibility")
    handler, level = logging.Handler(logging.DEBUG), logger.level
    handler.emit = records.append
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def jittered_cosine_target(seed: int, k: int, g: float) -> CorrelationTarget:
    """The polytope_lp benchmark's grid rule: a k x k cosine target on regular angles with
    seeded jitter."""
    rng = np.random.default_rng(seed)
    alphas = (np.arange(k) + rng.uniform(-0.25, 0.25, k)) * math.pi / k
    betas = (np.arange(k) + 0.5 + rng.uniform(-0.25, 0.25, k)) * math.pi / k
    return cosine_target(alphas, betas, g)


# a 2x3 target whose one cold solve leaves its mixture 1.02e-9 off P, above FEASIBILITY_TOL,
# so the master is rebuilt in the original coordinates, where the mixture is exact
REPAIRED_TARGET = CorrelationTarget((0.0, 1.0), (0.5, 1.5, 2.5), np.array(
    [[1.937845554408063e-09, 1.0155496127462719e-09, -1.0],
     [0.6147433864420502, 0.11132680752389246, 6.215483484517826e-07]]))


def reconstruct(result) -> np.ndarray:
    total = None
    for w in result.weights:
        outer = w.weight * np.outer(w.s, w.t)
        total = outer if total is None else total + outer
    return total


class TestCanonicalTarget:
    def test_full_strength_infeasible_with_chsh_certificate(self):
        target = canonical_cosine_target(1.0)
        result = local_polytope_membership(target)
        assert result.status == INFEASIBLE
        assert result.weights is None
        assert verify_certificate(result.certificate, target)
        # the separating inequality is the CHSH facet (up to scale)
        coeff = result.certificate.coefficients
        scale = np.max(np.abs(coeff))
        assert scale > 0
        normalized = coeff / scale
        assert np.allclose(normalized, [[1.0, -1.0], [1.0, 1.0]], atol=1e-6)

    def test_half_strength_feasible(self):
        target = canonical_cosine_target(0.5)
        result = local_polytope_membership(target)
        assert result.status == FEASIBLE
        assert result.certificate is None
        weights = [w.weight for w in result.weights]
        assert all(w >= 0 for w in weights)
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(reconstruct(result) - target.matrix)) < 1e-9

    def test_full_strength_certificate_is_the_scaled_chsh_facet(self):
        # a CHSH facet decides it: C = CHSH / (2 sqrt 2), four equal magnitudes
        result = local_polytope_membership(canonical_cosine_target(1.0))
        magnitudes = np.abs(result.certificate.coefficients)
        assert len(set(magnitudes.flat)) == 1
        assert magnitudes[0, 0] == pytest.approx(1 / (2 * SQRT2), rel=1e-15)
        assert result.certificate.bound == pytest.approx(1 / SQRT2, rel=1e-15)

    def test_three_quarters_infeasible(self):
        result = local_polytope_membership(canonical_cosine_target(0.75))
        assert result.status == INFEASIBLE

    def test_threshold_bracket(self):
        assert local_polytope_membership(canonical_cosine_target(0.7070)).is_feasible
        assert not local_polytope_membership(canonical_cosine_target(0.7072)).is_feasible


class TestMaxFeasibleScale:
    def test_canonical_threshold(self):
        target = canonical_cosine_target(1.0)
        g_star = max_feasible_scale(target, tol=1e-4)
        assert abs(g_star - 1 / SQRT2) <= 1e-4
        # returned value is itself feasible (conservative, from inside)
        assert local_polytope_membership(target.scaled(g_star)).is_feasible

    def test_zero_target(self):
        target = CorrelationTarget((0.0, 1.0), (0.5,), np.zeros((2, 1)))
        assert max_feasible_scale(target, tol=1e-4) == 1.0

    def test_deterministic_one_by_one(self):
        target = CorrelationTarget((0.0,), (0.0,), np.array([[1.0]]))
        assert max_feasible_scale(target, tol=1e-4) == 1.0

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            max_feasible_scale(canonical_cosine_target(1.0), tol=0.0)
        for g in (0.5, 1.0):  # a feasible and an infeasible target
            for tol in (0.0, -1e-4, math.nan):
                with pytest.raises(ValueError, match="tol must be positive"):
                    max_feasible_scale(canonical_cosine_target(g), tol)


class TestVerifyCertificate:
    def test_chsh_certificate_margin(self):
        target = canonical_cosine_target(1.0)
        cert = chsh_certificate()
        assert verify_certificate(cert, target)
        assert cert.value_at(target) == pytest.approx(2 * SQRT2, abs=1e-12)
        # margin over the enumerated strategy maximum is 2*sqrt(2) - 2
        margin = cert.value_at(target) - cert.bound
        assert margin == pytest.approx(2 * SQRT2 - 2.0, abs=1e-12)

    def test_certificate_fails_on_feasible_target(self):
        assert not verify_certificate(chsh_certificate(), canonical_cosine_target(0.5))

    def test_zero_certificate_separates_nothing(self):
        cert = BellCertificate(np.zeros((2, 2)))
        assert not verify_certificate(cert, canonical_cosine_target(1.0))

    def test_bound_is_not_an_argument(self):
        # the bound is derived from the coefficients, so none can be passed in
        with pytest.raises(TypeError):
            BellCertificate(np.array([[1.0, -1.0], [1.0, 1.0]]), 2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            verify_certificate(
                chsh_certificate(),
                CorrelationTarget((0.0,), (0.0,), np.array([[0.5]])),
            )


class TestWitnessConsistency:
    def test_random_targets_both_ways(self):
        # whatever the verdict, its witness must check out independently
        rng = np.random.default_rng(211)
        for _ in range(30):
            matrix = rng.uniform(-1, 1, (3, 3))
            target = CorrelationTarget(tuple(rng.uniform(0, 2 * math.pi, 3)),
                                       tuple(rng.uniform(0, 2 * math.pi, 3)),
                                       matrix)
            result = local_polytope_membership(target)
            if result.is_feasible:
                assert np.max(np.abs(reconstruct(result) - matrix)) < 1e-9
                assert sum(w.weight for w in result.weights) == pytest.approx(
                    1.0, abs=1e-9
                )
            else:
                assert verify_certificate(result.certificate, target)

    def test_extreme_random_targets_infeasible_witnessed(self):
        # push random matrices toward the cube corners: mostly outside
        rng = np.random.default_rng(223)
        seen_infeasible = 0
        for _ in range(20):
            matrix = np.sign(rng.uniform(-1, 1, (2, 3))) * rng.uniform(0.9, 1.0, (2, 3))
            target = CorrelationTarget((0.0, 1.0), (0.0, 1.0, 2.0), matrix)
            result = local_polytope_membership(target)
            if not result.is_feasible:
                seen_infeasible += 1
                assert verify_certificate(result.certificate, target)
        assert seen_infeasible > 0

    def test_vertex_targets_one_point_mixture(self):
        rng = np.random.default_rng(227)
        for _ in range(20):
            s = rng.choice([-1.0, 1.0], 3)
            t = rng.choice([-1.0, 1.0], 2)
            matrix = np.outer(s, t)
            target = CorrelationTarget((0.0, 1.0, 2.0), (0.0, 1.0), matrix)
            result = local_polytope_membership(target)
            assert result.is_feasible
            # every weighted strategy reproduces the vertex exactly
            for w in result.weights:
                assert np.array_equal(np.outer(w.s, w.t), matrix)

    def test_no_feasible_verdict_beyond_the_tolerance(self):
        # row 2 = (1, 1) forces row 1 to be constant, so P lies outside L; at
        # HiGHS's default primal tolerance (1e-7) the master came back feasible
        target = CorrelationTarget((0.0, 1.0), (0.0, 1.0), np.array([[6e-8, 0.0], [1.0, 1.0]]))
        result = local_polytope_membership(target)
        assert not (result.is_feasible and result.residual > FEASIBILITY_TOL)

    def test_membership_at_the_max_scale_solves(self):
        # the max scale 0.79995 is feasible by construction; a master solved in the
        # original coordinates ended 2e-9 off its equalities, then at 'Not Set'
        matrix = np.array([[0.0, 0.5], [0.0, 1.0], [0.5, 1.0], [1e-8, 0.5]])
        target = CorrelationTarget((0.0, 1.0, 2.0, 3.0), (0.0, 1.0), matrix)
        scale = max_feasible_scale(target, 1e-4)
        assert scale == pytest.approx(0.79995, abs=1e-12)
        assert local_polytope_membership(target.scaled(scale)).is_feasible

    def test_membership_next_to_a_vertex_solves(self):
        # a point of the 1x3 polytope, the cube [-1, 1]^3; a master solved in the
        # original coordinates ended round 2 at g = -4e-8, then at 'Not Set'
        target = CorrelationTarget((0.0,), (0.0, 1.0, 2.0), np.array([[0.0, 1.0, -1.3e-9]]))
        assert local_polytope_membership(target).is_feasible

    def test_feasible_verdict_within_the_tolerance_next_to_a_facet(self):
        # once came back feasible with residual 1.16e-8, above FEASIBILITY_TOL
        target = CorrelationTarget((0.0, 1.0), (0.0, 1.0, 2.0),
                                   np.array([[0.0, 0.0, 1.0], [2.32e-8] * 3]))
        result = local_polytope_membership(target)
        assert result.is_feasible and result.residual <= FEASIBILITY_TOL

    def test_boundary_target_gets_a_verified_infeasible_verdict(self):
        # once exited 3 ("dual certificate margin -5.8e-09"); the integer CHSH
        # functional below separates it from L by 1.17e-8 in exact arithmetic
        matrix = np.array([
            [-1.0, 0.0],
            [1.1655996159131177e-08, 1.0],
            [0.3937524987663972, 1.0073873961340148e-09],
        ])
        target = CorrelationTarget((0.0, 1.0, 2.0), (0.0, 1.0), matrix)
        result = local_polytope_membership(target)
        assert result.status == INFEASIBLE
        assert result.residual == pytest.approx(5.83e-9, rel=0.01)
        assert verify_certificate(result.certificate, target)
        chsh = np.array([[-1, 1], [1, 1], [0, 0]])
        assert classical_bound(chsh) == 2
        excess = sum(int(c) * Fraction(p) for c, p in zip(chsh.flat, matrix.flat)) - 2
        assert excess == Fraction(1.1655996159131177e-08) > 0


class TestInvariances:
    def test_permutations_preserve_membership(self):
        rng = np.random.default_rng(229)
        for _ in range(10):
            matrix = rng.uniform(-1, 1, (3, 3))
            target = CorrelationTarget((0.0, 1.0, 2.0), (0.0, 1.0, 2.0), matrix)
            base = local_polytope_membership(target).status
            perm_rows = rng.permutation(3)
            perm_cols = rng.permutation(3)
            permuted = CorrelationTarget(
                (0.0, 1.0, 2.0), (0.0, 1.0, 2.0), matrix[perm_rows][:, perm_cols]
            )
            assert local_polytope_membership(permuted).status == base

    def test_row_sign_flip_preserves_membership(self):
        rng = np.random.default_rng(233)
        for _ in range(10):
            matrix = rng.uniform(-1, 1, (3, 3))
            target = CorrelationTarget((0.0, 1.0, 2.0), (0.0, 1.0, 2.0), matrix)
            base = local_polytope_membership(target).status
            flipped = matrix.copy()
            flipped[rng.integers(0, 3)] *= -1.0
            flipped_target = CorrelationTarget((0.0, 1.0, 2.0), (0.0, 1.0, 2.0), flipped)
            assert local_polytope_membership(flipped_target).status == base

    def test_cosine_model_grid_targets_feasible(self):
        # expectations produced by an actual hidden-variable model must be local
        alphas = (0.0, math.pi / 3, math.pi / 2)
        betas = (math.pi / 6, 1.1)
        for g in (0.1, 0.35, 0.5):
            model = cosine_model(g)
            matrix = np.array(
                [[model_expectation_exact(model, a, b) for b in betas] for a in alphas]
            )
            target = CorrelationTarget(alphas, betas, matrix)
            assert local_polytope_membership(target).is_feasible


class TestTargetValidation:
    def test_size_cap(self):
        with pytest.raises(ValueError, match="cap"):
            CorrelationTarget(
                tuple(range(20)), tuple(range(5)), np.zeros((20, 5))
            )

    def test_entry_range(self):
        with pytest.raises(ValueError):
            CorrelationTarget((0.0,), (0.0,), np.array([[1.5]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            CorrelationTarget((0.0, 1.0), (0.0,), np.zeros((1, 1)))

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            CorrelationTarget((), (0.0,), np.zeros((0, 1)))

    def test_largest_square_grid_feasible(self):
        # 12x12 sits at the m + n cap; its 2^23 vertices are never built
        rng = np.random.default_rng(239)
        angles = rng.uniform(0, 2 * math.pi, (2, 12))
        target = cosine_target(angles[0], angles[1], 0.4)
        result = local_polytope_membership(target)
        assert result.is_feasible
        assert result.residual < 1e-9
        assert np.max(np.abs(reconstruct(result) - target.matrix)) < 1e-9


def canonical_target_dict(g: float) -> dict:
    """The canonical cosine target's JSON block, g*cos(alpha_i - beta_j) written out."""
    h = g / SQRT2
    return {
        "alphas": [math.pi / 2, 0.0],
        "betas": [math.pi / 4, -math.pi / 4],
        "matrix": [[h, -h], [h, h]],
    }


class TestJsonRoundTrip:
    def test_target_round_trip(self):
        data = canonical_target_dict(0.8)
        again = target_from_dict(data)
        assert again == CorrelationTarget(
            (math.pi / 2, 0.0), (math.pi / 4, -math.pi / 4), np.array(data["matrix"])
        )
        canonical = canonical_cosine_target(0.8)
        assert again.alphas == canonical.alphas and again.betas == canonical.betas
        assert np.allclose(again.matrix, canonical.matrix, rtol=0.0, atol=1e-15)

    def test_target_unknown_keys_rejected(self):
        data = canonical_target_dict(0.5)
        data["extra"] = 1
        with pytest.raises(ValueError, match="unknown"):
            target_from_dict(data)


correlation_matrices = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))
)
# shapes past FULL_SEED_MAX_GRID, whose master grows by column generation
priced_matrices = st.sampled_from([(4, 5), (5, 4), (5, 5)]).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))
)
# entries at the polytope's edges: vertices, zeros and magnitudes near HiGHS's tolerances
edge_entries = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0]),
    st.floats(-1.0, 1.0),
    st.builds(lambda sign, exponent: sign * 10.0**exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(-9.0, -6.0)),
)


class TestGaugeLpProperties:
    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                  elements=st.floats(-10.0, 10.0)))
    @settings(max_examples=200, deadline=None)
    def test_pricing_bound_matches_enumeration(self, coeff):
        s, t, values = best_responses(coeff)
        assert np.max(values) == pytest.approx(classical_bound(coeff), rel=1e-12, abs=1e-12)
        # each value is what its (s, t) pair actually scores
        assert np.allclose(np.einsum("ki,ij,kj->k", s, coeff, t), values, atol=1e-12)
        # a certificate derives that same bound, and verify_certificate separates by it
        cert = BellCertificate(coeff)
        assert cert.bound == pytest.approx(classical_bound(coeff), rel=1e-12, abs=1e-12)
        target = CorrelationTarget(tuple(range(coeff.shape[0])), tuple(range(coeff.shape[1])),
                                   np.clip(coeff, -1.0, 1.0))
        margin = cert.value_at(target) - classical_bound(coeff)
        assume(abs(margin - FEASIBILITY_TOL) > 1e-9)
        assert verify_certificate(cert, target) == (margin > FEASIBILITY_TOL)

    @given(correlation_matrices)
    @settings(max_examples=60, deadline=None)
    def test_max_scale_brackets_the_threshold(self, matrix):
        m, n = matrix.shape
        target = CorrelationTarget(tuple(range(m)), tuple(range(n)), matrix)
        scale = max_feasible_scale(target, 1e-4)
        membership = feasibility._gauge_lp(target)
        assert 0.0 <= scale <= 1.0
        inside = local_polytope_membership(target.scaled(scale))
        assert inside.is_feasible
        assert all(w.weight >= 0 for w in inside.weights)
        # HiGHS meets the LP's equalities to its primal tolerance (1e-7) on
        # targets at the polytope's boundary; elsewhere the error is ~1e-15
        assert sum(w.weight for w in inside.weights) == pytest.approx(1.0, abs=1e-6)
        residual = np.max(np.abs(reconstruct(inside) - scale * matrix))
        assert residual == pytest.approx(inside.residual, abs=1e-12)
        assert residual < 1e-6
        if scale + 1e-4 <= 1.0:
            outside = target.scaled(scale + 1e-4)
            result = local_polytope_membership(outside)
            assert not result.is_feasible
            coeff = result.certificate.coefficients
            margin = np.sum(coeff * outside.matrix) - classical_bound(coeff)
            assert margin > 1e-9
            assert margin == pytest.approx(result.residual, abs=1e-9)
            # the certificate the scale came from separates (scale + tol)*P too
            assert verify_certificate(membership.certificate, outside)

    @given(st.one_of(correlation_matrices, priced_matrices))
    @example(np.array([[0.0, 0.0, 1.0], [2.32001641e-08] * 3]))  # a hot start stops at g > 1
    @example(np.array([[2.0**-24, 1.0, 0.0], [1.0, 1.0, 1.0]]))  # the cold LP is 1.3e-8 off
    @settings(max_examples=100, deadline=None)
    def test_column_generation_matches_the_dense_lp(self, matrix):
        # the engine's master (every vertex up to m + n = FULL_SEED_MAX_GRID, grown by
        # column generation past it) against a cold LP that holds every vertex
        m, n = matrix.shape
        target = CorrelationTarget(tuple(range(m)), tuple(range(n)), matrix)
        with debug_records() as records:
            result = feasibility._gauge_lp(target)
        (record,) = records
        g, dense = record.args[8], dense_gauge(matrix)
        if abs(g - dense) > 1e-9:
            # entries near HiGHS's primal tolerance can leave the cold LP's g off
            # by ~1e-8 (2^-24 in [[2^-24, 1, 0], [1, 1, 1]] gives 2/3 + 1.3e-8,
            # above the bound the engine's verified certificate proves): re-solve
            # the oracle at tight tolerances
            dense = dense_gauge(matrix, tol=1e-10)
        assert g == pytest.approx(dense, abs=1e-9)
        # within 1e-9 of the threshold either verdict is within solver tolerance
        if abs(dense - (1.0 - FEASIBILITY_TOL)) > 1e-9:
            assert result.is_feasible == (dense >= 1.0 - FEASIBILITY_TOL)

    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                  elements=edge_entries))
    @example(np.array([[0.0, 1.0], [0.21875, 1e-7]]))  # a master column prices above z + tol
    # m > n: pricing offers (-s, t), the same vertex as the seed column (s, -t)
    @example(np.array([[0.0, -3.924189758484536e-07], [0.0, 0.0012499495207810233],
                       [0.0012499495207810233, -5.72829641445747e-07], [1.0, -1.0],
                       [0.0, 2.053525026457146e-07]]))
    @settings(max_examples=100, deadline=None)
    def test_no_vertex_enters_the_master_twice(self, matrix):
        # every column handed to HiGHS, read back from its compressed-column arrays
        # as one tuple of (row, entry) pairs
        core, columns = feasibility._highs_core(), []

        class Recording(core._Highs):
            def addCols(self, count, *args):
                starts, index, values = args[-3:]
                ends = np.append(starts[1:], index.size)
                columns.extend(tuple(zip(index[a:b].tolist(), values[a:b].tolist()))
                               for a, b in zip(starts, ends))
                return super().addCols(count, *args)

        m, n = matrix.shape
        target = CorrelationTarget(tuple(range(m)), tuple(range(n)), matrix)
        with mock.patch.object(core, "_Highs", Recording):
            try:
                feasibility._gauge_lp(target)
            except FeasibilitySolverError:
                pass  # 'Not Set' at the boundary, pinned below; its columns count all the same
        assert len(columns) >= 2 and len(set(columns)) == len(columns)

    def test_sub_grids_are_a_cached_read_only_enumeration(self):
        for m, n in itertools.product(range(1, 6), repeat=2):
            corners = feasibility._sub_grids(m, n)
            assert corners.T.tolist() == [
                [i * n + j, i * n + l, k * n + j, k * n + l]
                for (i, k), (j, l) in itertools.product(itertools.combinations(range(m), 2),
                                                        itertools.combinations(range(n), 2))]
            assert feasibility._sub_grids(m, n) is corners
            if corners.size:
                with pytest.raises(ValueError, match="read-only"):
                    corners[0, 0] = 1

    def test_half_sign_matrix_is_a_cached_read_only_enumeration(self):
        for k in range(1, 9):
            signs = lhv._half_sign_matrix(k)
            assert signs.tolist() == [[1.0, *rest]
                                      for rest in itertools.product((1.0, -1.0), repeat=k - 1)]
            assert lhv._half_sign_matrix(k) is signs
            with pytest.raises(ValueError, match="read-only"):
                signs[0, 0] = -1.0


class TestChshScreen:
    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                  elements=edge_entries))
    # the gauge LP proved it feasible (residual <= FEASIBILITY_TOL), yet CHSH exceeds 2 by 3.9e-9
    @example(np.array([[1.0, 0.0], [-1.0, 3.911648569516641e-09], [1.0, 0.0]]))
    @settings(max_examples=200, deadline=None)
    def test_a_screened_verdict_is_a_violated_chsh_functional(self, matrix):
        m, n = matrix.shape
        target = CorrelationTarget(tuple(range(m)), tuple(np.arange(n) + 0.5), matrix)
        screened = feasibility._chsh_screen(target)
        if screened is None:
            return
        assert local_polytope_membership(target) == screened
        assert screened.status == INFEASIBLE and screened.weights is None
        coeff = screened.certificate.coefficients
        assert np.count_nonzero(coeff) == 4
        rows, columns = (sorted(set(axis)) for axis in np.nonzero(coeff))
        assert len(rows) == len(columns) == 2
        corners = np.ix_(rows, columns)
        signs = np.sign(coeff[corners]).astype(int)
        # a scaled sign pattern on one 2x2 sub-grid with one sign against the other three
        assert len(set(np.abs(coeff[corners]).flat)) == 1 and np.prod(signs) == -1
        exact = sum(int(c) * Fraction(p) for c, p in zip(signs.flat, matrix[corners].flat))
        assert exact > 2
        assert verify_certificate(screened.certificate, target)
        dense = dense_gauge(matrix)
        if dense >= 1.0:
            # HiGHS's default primal tolerance (1e-7) hides a violation this small
            dense = dense_gauge(matrix, tol=1e-10)
        assert dense < 1.0

    @given(arrays(np.float64, (2, 2), elements=edge_entries))
    @settings(max_examples=200, deadline=None)
    def test_every_2x2_target_outside_the_polytope_is_screened(self, matrix):
        # Fine's theorem: on 2x2, CHSH and the trivial bounds are all the facets
        target = CorrelationTarget((0.0, 1.0), (0.5, 1.5), matrix)
        if dense_gauge(matrix) < 1.0 - 1e-6:
            screened = feasibility._chsh_screen(target)
            assert screened is not None
            with mock.patch.object(feasibility, "_gauge_lp", side_effect=AssertionError):
                assert local_polytope_membership(target) == screened

    def test_a_screened_verdict_is_logged(self, caplog):
        target = CorrelationTarget((0.0, 1.0, 2.0), (0.5, 1.5, 2.5),
                                   np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 1.0, -1.0]]))
        with caplog.at_level(logging.DEBUG, logger="bellspace.feasibility"):
            result = local_polytope_membership(target)
        (record,) = [r for r in caplog.records if r.name == "bellspace.feasibility"]
        # CHSH 1 + 1 + 1 - (-1) = 4 on rows (0, 2), columns (1, 2): margin 1 - 2/4
        assert record.getMessage() == ("CHSH screen 3x3: rows (0, 2), columns (1, 2), S = 4.0, "
                                       "margin 0.5")
        assert result.residual == 0.5 and result.certificate.bound == 0.5

    def test_a_target_within_the_tolerance_goes_to_the_gauge_lp(self):
        # CHSH exceeds 2 by 1e-9, so its margin 1 - 2/S, ~5e-10, is not a proof
        target = CorrelationTarget((0.0, 1.0), (0.5, 1.5), np.array([[1.0, 1.0], [1e-9, 0.0]]))
        assert feasibility._chsh_screen(target) is None
        assert local_polytope_membership(target) == feasibility._gauge_lp(target)


class TestSimplexStrategy:
    @staticmethod
    def recorded_runs(monkeypatch, target):
        """The gauge LP's HiGHS models, each as the simplex_strategy at each of its runs."""
        core, models = feasibility._highs_core(), []

        class Recording(core._Highs):
            def __init__(self):
                super().__init__()
                models.append([])

            def run(self):
                models[-1].append(self.getOptionValue("simplex_strategy")[1])
                return super().run()

        monkeypatch.setattr(core, "_Highs", Recording)
        feasibility._gauge_lp(target)
        return models

    def test_primal_simplex_on_every_hot_round(self, monkeypatch):
        # m + n = 10 > FULL_SEED_MAX_GRID: the master grows over hot rounds
        (runs,) = self.recorded_runs(monkeypatch, jittered_cosine_target(5, 5, 0.95))
        assert len(runs) >= 2 and set(runs) == {feasibility._PRIMAL_SIMPLEX}

    def test_dual_simplex_on_the_cold_re_solve(self, monkeypatch):
        # the mixture of the first solve is unproven: the master is rebuilt and solved cold
        hot, repair = self.recorded_runs(monkeypatch, REPAIRED_TARGET)
        assert repair[0] == feasibility._DUAL_SIMPLEX
        assert set(hot + repair[1:]) == {feasibility._PRIMAL_SIMPLEX}


class TestGaugeLpTelemetry:
    def test_one_debug_record_per_solve(self, monkeypatch, caplog):
        # every vertex column handed to HiGHS, as its dense (row, entry) vector
        core, added = feasibility._highs_core(), []

        class Recording(core._Highs):
            def addCols(self, count, *args):
                starts, index, values = args[-3:]
                dense = np.zeros((count, 2 * 2 + 1))
                dense[np.searchsorted(starts, np.arange(index.size), side="right") - 1,
                      index] = values
                added.extend(dense)
                return super().addCols(count, *args)

        monkeypatch.setattr(core, "_Highs", Recording)
        target = canonical_cosine_target(1.0)
        with caplog.at_level(logging.DEBUG, logger="bellspace.feasibility"):
            result = feasibility._gauge_lp(target)
        (record,) = [r for r in caplog.records if r.name == "bellspace.feasibility"]
        assert record.levelno == logging.DEBUG
        (m, n, status, rounds, columns, nonzeros, repaired, iterations, logged_g, violation,
         seconds) = record.args
        assert (m, n) == (2, 2) and status == "Optimal"
        assert rounds >= 1 and columns == len(added)
        assert iterations > 0 and seconds > 0.0
        # duality: the certificate scaled to C.P = 1 has the gauge optimum as its bound
        assert logged_g == pytest.approx(result.certificate.bound, abs=1e-12)
        assert logged_g == pytest.approx(1 / SQRT2, abs=1e-9)
        # the loop stopped because no best response beats the level z
        assert isinstance(violation, float) and violation <= FEASIBILITY_TOL
        # no repair: every column is (D s)(D t)^T in first differences, plus its 1
        assert repaired is False
        d = np.eye(2) - np.eye(2, k=-1)
        expected = np.count_nonzero(d @ target.matrix @ d.T)
        for column in added:
            # D^-1 is a running sum, so summing both axes gives back s t^T
            vertex = np.cumsum(np.cumsum(column[:-1].reshape(2, 2), axis=0), axis=1)
            s, t = vertex[:, 0] * vertex[0, 0], vertex[0]
            assert column[-1] == 1.0 and np.array_equal(vertex, np.outer(s, t))
            assert set(np.abs(vertex).flat) == {1.0}
            expected += np.count_nonzero(np.outer(d @ s, d @ t)) + 1
        assert nonzeros == expected

    def test_repair_is_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="bellspace.feasibility"):
            local_polytope_membership(REPAIRED_TARGET)
        (record,) = [r for r in caplog.records if r.name == "bellspace.feasibility"]
        columns, nonzeros, repaired = record.args[4:7]
        # the repaired master holds its columns in the original coordinates: all dense
        assert repaired is True and nonzeros >= columns * (2 * 3 + 1)

    @pytest.mark.parametrize("target", [canonical_cosine_target(1.0), canonical_cosine_target(0.5),
                                        jittered_cosine_target(4, 4, 0.95)],
                             ids=["canonical-infeasible", "canonical-feasible", "jittered-4x4"])
    def test_a_small_grid_is_one_cold_solve(self, target, caplog):
        with caplog.at_level(logging.DEBUG, logger="bellspace.feasibility"):
            feasibility._gauge_lp(target)
        (record,) = [r for r in caplog.records if r.name == "bellspace.feasibility"]
        m, n, _, rounds, columns, _, repaired = record.args[:7]
        # m + n <= FULL_SEED_MAX_GRID: the master holds every vertex, so pricing finds nothing
        assert m + n <= feasibility.FULL_SEED_MAX_GRID
        assert rounds == 1 and columns == 2 ** (m + n - 1) and repaired is False

    def test_nothing_is_counted_with_debug_off(self, monkeypatch, caplog):
        core, counted = feasibility._highs_core(), []

        class Recording(core._Highs):
            def getNumNz(self):
                counted.append(True)
                return super().getNumNz()

        monkeypatch.setattr(core, "_Highs", Recording)
        with caplog.at_level(logging.INFO, logger="bellspace.feasibility"):
            feasibility._gauge_lp(canonical_cosine_target(1.0))
        assert not counted and not caplog.records

    def test_sparse_columns_on_a_jittered_8x8_grid(self, caplog):
        k = 8
        with caplog.at_level(logging.DEBUG, logger="bellspace.feasibility"):
            feasibility._gauge_lp(jittered_cosine_target(8, k, 0.95))
        (record,) = [r for r in caplog.records if r.name == "bellspace.feasibility"]
        columns, nonzeros, repaired = record.args[4:7]
        # a dense master column has m*n + 1 nonzeros
        assert not repaired and nonzeros / (columns + 1) < (k * k + 1) / 2

    @given(arrays(np.float64, st.tuples(st.integers(2, 3), st.integers(2, 3)),
                  elements=edge_entries))
    # within FEASIBILITY_TOL of g*P over every column, negative HiGHS weights included,
    # yet its reported mixture, over the weights > 1e-12, is 1.47e-9 off P
    @example(np.array([[1.0, 0.0], [-1.0, 3.911648569516641e-09], [1.0, 0.0]]))
    @settings(max_examples=200, deadline=None)
    def test_an_unproven_verdict_has_been_repaired(self, matrix):
        m, n = matrix.shape
        target = CorrelationTarget(tuple(range(m)), tuple(np.arange(n) + 0.5), matrix)
        with debug_records() as records:
            result = feasibility._gauge_lp(target)
        (record,) = records
        if result.is_feasible and result.residual > FEASIBILITY_TOL:
            assert record.args[6] is True

    def test_pricing_violation_on_a_feasible_target(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="bellspace.feasibility"):
            assert local_polytope_membership(jittered_cosine_target(5, 5, 0.4)).is_feasible
        (record,) = [r for r in caplog.records if r.name == "bellspace.feasibility"]
        rounds, violation = record.args[3], record.args[9]
        # an earlier round priced and added columns; the last one reached g = 1 unpriced
        assert rounds >= 2 and violation == 0.0


class TestHighsBinding:
    """The engine drives scipy's private HiGHS binding, so pin what it uses."""

    OWNERS = {"highs": "_Highs", "info": "HighsInfo", "solution": "HighsSolution"}

    def owner(self, node):
        """The binding name an expression stands for: a local in ``OWNERS`` or ``core.X``."""
        if isinstance(node, ast.Name):
            return self.OWNERS.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.attr if node.value.id == "core" else None
        return None

    def test_binding_has_every_name_the_engine_uses(self):
        tree = ast.parse(Path(feasibility.__file__).read_text())
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "core"}
        used = {(owner, node.attr) for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and (owner := self.owner(node.value))}
        assert {"_Highs", "HighsModelStatus"} <= read
        assert {("_Highs", "addCols"), ("_Highs", "run"), ("HighsSolution", "row_dual"),
                ("HighsModelStatus", "kOptimal")} <= used
        core = feasibility._highs_core()
        missing = sorted(name for name in read if not hasattr(core, name))
        missing += sorted(f"{owner}.{attr}" for owner, attr in used
                          if not hasattr(getattr(core, owner, None), attr))
        assert not missing, (f"scipy {scipy.__version__}'s HiGHS binding lacks {missing}, "
                             "which the gauge LP calls")

    def test_binding_accepts_every_option_the_engine_sets(self):
        # every (name, value) pair the engine sets, read from the last two arguments of each
        # call; a value is a literal or a module constant
        tree = ast.parse(Path(feasibility.__file__).read_text())
        pairs = {(name.value, getattr(feasibility, value.id) if isinstance(value, ast.Name)
                  else ast.literal_eval(value))
                 for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None))
                 in ("_set_option", "setOptionValue")
                 for name, value in [node.args[-2:]] if isinstance(name, ast.Constant)}
        names = {name for name, _ in pairs}
        assert {"output_flag", "presolve", "simplex_strategy"} <= names
        assert {("presolve", "off"), ("simplex_strategy", feasibility._DUAL_SIMPLEX),
                ("simplex_strategy", feasibility._PRIMAL_SIMPLEX)} <= pairs
        core = feasibility._highs_core()
        highs = core._Highs()
        rejected = sorted(name for name in names
                          if highs.getOptionValue(name)[0] != core.HighsStatus.kOk)
        assert not rejected, (f"scipy {scipy.__version__}'s HiGHS binding lacks the options "
                              f"{rejected}, which the gauge LP sets")
        rejected = sorted(pair for pair in pairs
                          if highs.setOptionValue(*pair) != core.HighsStatus.kOk)
        assert not rejected, (f"scipy {scipy.__version__}'s HiGHS binding rejects {rejected}, "
                              "which the gauge LP sets")

    def test_rejected_option_is_a_solver_error(self, monkeypatch):
        core = feasibility._highs_core()
        with pytest.raises(FeasibilitySolverError) as excinfo:
            feasibility._set_option(core._Highs(), core, "simplex_strategy", 99)
        assert str(excinfo.value) == (
            f"HiGHS rejected option simplex_strategy = 99 (scipy {scipy.__version__})")

        class Misspelled(core._Highs):
            def setOptionValue(self, name, value):
                return super().setOptionValue(name.replace("strategy", "strategyy"), value)

        monkeypatch.setattr(core, "_Highs", Misspelled)
        with pytest.raises(FeasibilitySolverError, match="rejected option simplex_strategy = 4"):
            feasibility._gauge_lp(canonical_cosine_target(1.0))

    def test_missing_binding_is_a_clear_import_error(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, feasibility._HIGHS_CORE, raising=False)
        (tmp_path / "optimize" / "_highspy").mkdir(parents=True)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        expected = tmp_path / "optimize" / "_highspy" / f"_core{suffix}"
        with pytest.raises(ImportError) as excinfo:
            feasibility._highs_core()
        assert str(expected) in str(excinfo.value)
        assert "needs the HiGHS binding that scipy >= 1.15 ships" in str(excinfo.value)
        assert feasibility._HIGHS_CORE not in sys.modules

    # a fresh interpreter, so neither scipy.optimize nor the binding is loaded yet
    LOAD_ORDER = """
import pickle, sys
from bellspace.feasibility import _highs_core, canonical_cosine_target, local_polytope_membership

def solve():
    return local_polytope_membership(canonical_cosine_target(1.0))

if sys.argv[1] == "binding-first":
    result = solve()
    core = _highs_core()
    assert "scipy" not in sys.modules and "scipy.optimize" not in sys.modules
    from scipy.optimize import linprog
    lp = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
    assert lp.status == 0 and abs(lp.fun - 1.0) < 1e-12, lp
    assert sys.modules["scipy.optimize._highspy._core"] is core
else:
    import scipy.optimize
    core = sys.modules["scipy.optimize._highspy._core"]
    result = solve()
    assert _highs_core() is core
sys.stdout.write(pickle.dumps(result).hex())
"""

    @pytest.mark.parametrize("order", ["binding-first", "scipy-optimize-first"])
    def test_load_order_shares_one_module(self, order):
        src = str(Path(feasibility.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        child = subprocess.run([sys.executable, "-c", self.LOAD_ORDER, order],
                               capture_output=True, text=True, env=env)
        assert child.returncode == 0, child.stderr
        result = pickle.loads(bytes.fromhex(child.stdout))
        assert result == local_polytope_membership(canonical_cosine_target(1.0))
        assert not result.is_feasible
