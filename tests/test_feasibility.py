"""Local-polytope membership, dual certificates, and the scaling threshold.

Every solver verdict is cross-checked by an independent witness: feasible
mixtures are reconstructed by hand, infeasible certificates go through
exhaustive sign-pair enumeration (:func:`classical_bound`, the oracle).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bellspace.feasibility import (
    FEASIBILITY_TOL,
    FEASIBLE,
    INFEASIBLE,
    BellCertificate,
    CorrelationTarget,
    _best_responses,
    canonical_cosine_target,
    chsh_certificate,
    cosine_target,
    local_polytope_membership,
    max_feasible_scale,
    target_from_dict,
    verify_certificate,
)
from bellspace.lhv import cosine_model, model_expectation_exact
from bellspace.rng import make_generator

SQRT2 = math.sqrt(2.0)


def classical_bound(coeff: np.ndarray) -> float:
    """max of s^T C t over all 2^(m+n) sign pairs, by exhaustive enumeration."""
    s, t = (np.array(list(itertools.product((-1.0, 1.0), repeat=k))) for k in coeff.shape)
    return float(np.max(s @ coeff @ t.T))


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
        cert = BellCertificate(np.zeros((2, 2)), 0.0)
        assert not verify_certificate(cert, canonical_cosine_target(1.0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            verify_certificate(
                chsh_certificate(),
                CorrelationTarget((0.0,), (0.0,), np.array([[0.5]])),
            )


class TestWitnessConsistency:
    def test_random_targets_both_ways(self):
        # whatever the verdict, its witness must check out independently
        rng = make_generator(211)
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
        rng = make_generator(223)
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
        rng = make_generator(227)
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

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
    def test_no_feasible_verdict_beyond_the_tolerance(self):
        # row 2 = (1, 1) forces row 1 to be constant, so P lies outside L; the
        # master LP meets its equalities only to HiGHS's primal tolerance (1e-7)
        target = CorrelationTarget((0.0, 1.0), (0.0, 1.0), np.array([[6e-8, 0.0], [1.0, 1.0]]))
        result = local_polytope_membership(target)
        assert not (result.is_feasible and result.residual > FEASIBILITY_TOL)


class TestInvariances:
    def test_permutations_preserve_membership(self):
        rng = make_generator(229)
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
        rng = make_generator(233)
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
        rng = make_generator(239)
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


class TestGaugeLpProperties:
    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                  elements=st.floats(-10.0, 10.0)))
    @settings(max_examples=200, deadline=None)
    def test_pricing_bound_matches_enumeration(self, coeff):
        s, t, values = _best_responses(coeff)
        assert np.max(values) == pytest.approx(classical_bound(coeff), rel=1e-12, abs=1e-12)
        # each value is what its (s, t) pair actually scores
        assert np.allclose(np.einsum("ki,ij,kj->k", s, coeff, t), values, atol=1e-12)
        # verify_certificate separates by that same bound, whatever the stored one
        cert = BellCertificate(coeff, 0.0)
        target = CorrelationTarget(tuple(range(coeff.shape[0])), tuple(range(coeff.shape[1])),
                                   np.clip(coeff, -1.0, 1.0))
        margin = cert.value_at(target) - classical_bound(coeff)
        assert verify_certificate(cert, target, margin_tol=margin - 1e-7)
        assert not verify_certificate(cert, target, margin_tol=margin + 1e-7)

    @given(correlation_matrices)
    @settings(max_examples=60, deadline=None)
    def test_max_scale_brackets_the_threshold(self, matrix):
        m, n = matrix.shape
        target = CorrelationTarget(tuple(range(m)), tuple(range(n)), matrix)
        scale = max_feasible_scale(target, 1e-4)
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
