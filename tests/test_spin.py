"""Singlet correlation and CHSH statistic tests.

The joint-outcome formula is validated against an independent oracle: the
explicit 4x4 matrix element <psi| (I + s_a sigma.a)/2 (x) (I + s_b sigma.b)/2
|psi> computed with the Pauli matrices and the singlet vector.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellspace.qkd import QuantumLocalizedChannel
from bellspace.spin import (
    CHSH_QUANTUM_BOUND,
    ChshSettings,
    TWO_PI,
    OutcomePair,
    UnitVector3,
    alice_direction,
    as_angle,
    bob_direction,
    canonical_chsh_settings,
    chsh_statistic,
    joint_outcome_probability,
    quantum_chsh,
    singlet_correlation,
)

SQRT2 = math.sqrt(2.0)

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_UP = np.array([1.0, 0.0], dtype=complex)
_DOWN = np.array([0.0, 1.0], dtype=complex)
_SINGLET = (np.kron(_DOWN, _UP) - np.kron(_UP, _DOWN)) / math.sqrt(2.0)


def _pauli_dot(v: UnitVector3) -> np.ndarray:
    return v.x * _SX + v.y * _SY + v.z * _SZ


def matrix_oracle(a: UnitVector3, b: UnitVector3, s: OutcomePair) -> float:
    """Joint probability via explicit 4x4 projector arithmetic on the singlet."""
    proj_a = (np.eye(2) + s.s_a * _pauli_dot(a)) / 2.0
    proj_b = (np.eye(2) + s.s_b * _pauli_dot(b)) / 2.0
    value = _SINGLET.conj() @ np.kron(proj_a, proj_b) @ _SINGLET
    assert abs(value.imag) < 1e-14
    return float(value.real)


def random_direction(rng) -> UnitVector3:
    v = rng.normal(size=3)
    return UnitVector3.normalized(*v)


ALL_OUTCOMES = [OutcomePair(sa, sb) for sa in (1, -1) for sb in (1, -1)]


class TestDirections:
    def test_axis_cases(self):
        v = alice_direction(0.0)
        assert (v.x, v.y, v.z) == (1.0, 0.0, 0.0)
        v = alice_direction(math.pi / 2)
        assert abs(v.x) < 1e-15 and v.z == 1.0
        v = alice_direction(math.pi / 4)
        assert v.x == pytest.approx(SQRT2 / 2, abs=1e-15)
        assert v.z == pytest.approx(SQRT2 / 2, abs=1e-15)

    def test_planar_convention_gives_cosine(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            alpha, beta = rng.uniform(0, 2 * math.pi, 2)
            corr = singlet_correlation(alice_direction(alpha), bob_direction(beta))
            assert corr == pytest.approx(math.cos(alpha - beta), abs=1e-14)

    def test_angle_wrapping(self):
        assert as_angle(-math.pi / 4) == pytest.approx(7 * math.pi / 4)
        assert as_angle(2 * math.pi) == 0.0
        # -1e-17 % (2*pi) rounds up to 2*pi itself, outside [0, 2*pi)
        assert as_angle(-1e-17) == 0.0
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                as_angle(bad)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_wrapped_angle_lies_in_the_circle(self, x):
        assert 0.0 <= as_angle(x) < TWO_PI
        settings = ChshSettings(x, -x, x / 3, -x / 7)
        for value in (settings.alpha1, settings.alpha2, settings.beta1, settings.beta2):
            assert type(value) is float and 0.0 <= value < TWO_PI

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            UnitVector3(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            UnitVector3.normalized(0.0, 0.0, 0.0)


class TestSingletCorrelation:
    def test_parallel_settings_anticorrelate(self):
        z = UnitVector3(0.0, 0.0, 1.0)
        assert singlet_correlation(z, z) == -1.0

    def test_orthogonal_settings(self):
        assert singlet_correlation(UnitVector3(1, 0, 0), UnitVector3(0, 0, 1)) == 0.0

    def test_planar_example(self):
        corr = singlet_correlation(
            alice_direction(math.pi / 2), bob_direction(math.pi / 4)
        )
        assert corr == pytest.approx(math.cos(math.pi / 4), abs=1e-15)

    def test_perfect_anticorrelation_random_directions(self):
        # "exactly" up to one ulp of the squared norm of a float direction
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = random_direction(rng)
            assert abs(singlet_correlation(a, a) + 1.0) <= 5e-16
        for axis in (UnitVector3(1, 0, 0), UnitVector3(0, 1, 0), UnitVector3(0, 0, 1)):
            assert singlet_correlation(axis, axis) == -1.0


class TestJointProbability:
    def test_equal_settings_never_equal_outcomes(self):
        z = UnitVector3(0.0, 0.0, 1.0)
        assert joint_outcome_probability(z, z, OutcomePair(1, 1)) == 0.0
        assert joint_outcome_probability(z, z, OutcomePair(-1, -1)) == 0.0

    def test_orthogonal_settings_uniform(self):
        a, b = UnitVector3(1, 0, 0), UnitVector3(0, 0, 1)
        for s in ALL_OUTCOMES:
            assert joint_outcome_probability(a, b, s) == 0.25

    def test_planar_example_value(self):
        # the anticorrelated convention: both wings along (cos, 0, sin)
        a = alice_direction(0.0)
        b = alice_direction(math.pi / 4)
        s = OutcomePair(1, -1)
        expected = (1 + math.cos(math.pi / 4)) / 4
        assert joint_outcome_probability(a, b, s) == pytest.approx(
            0.4267766953, abs=1e-9
        )
        assert joint_outcome_probability(a, b, s) == pytest.approx(expected, abs=1e-15)
        assert matrix_oracle(a, b, s) == pytest.approx(expected, abs=1e-14)

    def test_against_matrix_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a = random_direction(rng)
            b = random_direction(rng)
            for s in ALL_OUTCOMES:
                assert joint_outcome_probability(a, b, s) == pytest.approx(
                    matrix_oracle(a, b, s), abs=1e-13
                )

    def test_oracle_with_planar_constructors(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            alpha, beta = rng.uniform(0, 2 * math.pi, 2)
            a, b = alice_direction(alpha), bob_direction(beta)
            for s in ALL_OUTCOMES:
                assert joint_outcome_probability(a, b, s) == pytest.approx(
                    matrix_oracle(a, b, s), abs=1e-13
                )

    def test_normalization_and_marginals(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = random_direction(rng)
            b = random_direction(rng)
            probs = {
                (s.s_a, s.s_b): joint_outcome_probability(a, b, s)
                for s in ALL_OUTCOMES
            }
            assert all(p >= 0 for p in probs.values())
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
            for s_a in (1, -1):
                marginal = probs[(s_a, 1)] + probs[(s_a, -1)]
                assert marginal == pytest.approx(0.5, abs=1e-12)

    def test_expectation_consistency(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            a = random_direction(rng)
            b = random_direction(rng)
            expectation = sum(
                s.product * joint_outcome_probability(a, b, s) for s in ALL_OUTCOMES
            )
            assert expectation == pytest.approx(
                singlet_correlation(a, b), abs=1e-12
            )


def sample_channel(alpha, beta, seed):
    """Singlet outcomes from the QKD channel at g = 1 (per-round planar angles).

    Round i gets its own setting pair: row i of the pair table.
    """
    pairs = np.column_stack((alpha, beta)).astype(float)
    streams = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(3))
    return QuantumLocalizedChannel(g=1.0).sample(pairs, np.arange(len(pairs)), *streams)


class TestSampling:
    def test_equal_settings_always_anti_equal(self):
        theta = np.random.default_rng(41).uniform(0.0, 2 * math.pi, 1000)
        s_a, s_b = sample_channel(theta, theta, 41)
        assert np.all(s_b == -s_a)

    def test_monte_carlo_matches_analytic(self):
        alpha, beta = 0.0, math.pi / 4
        # the channel measures both wings along alice_direction
        expected = singlet_correlation(
            alice_direction(alpha), alice_direction(beta)
        )  # -cos(pi/4)
        n = 1_000_000
        s_a, s_b = sample_channel(np.full(n, alpha), np.full(n, beta), 43)
        mean = float(np.mean(s_a * s_b))
        std_err = math.sqrt((1 - expected**2) / n)
        assert abs(mean - expected) < 4 * std_err

    def test_fixed_seed_reproducible(self):
        alpha = np.random.default_rng(0).uniform(0.0, 2 * math.pi, 200)
        beta = np.random.default_rng(1).uniform(0.0, 2 * math.pi, 200)
        first = sample_channel(alpha, beta, 99)
        second = sample_channel(alpha, beta, 99)
        for x, y in zip(first, second):
            assert np.array_equal(x, y)
        assert not np.array_equal(first[0], sample_channel(alpha, beta, 98)[0])


class TestChshStatistic:
    def test_zero(self):
        assert chsh_statistic(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_algebraic_maximum(self):
        assert chsh_statistic(1.0, -1.0, 1.0, 1.0) == 4.0

    def test_canonical_cosines(self):
        c = math.cos
        value = chsh_statistic(
            c(math.pi / 2 - math.pi / 4),
            c(math.pi / 2 + math.pi / 4),
            c(-math.pi / 4),
            c(math.pi / 4),
        )
        assert value == pytest.approx(CHSH_QUANTUM_BOUND, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            chsh_statistic(1.1, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            chsh_statistic(0.0, 0.0, math.nan, 0.0)


class TestQuantumChsh:
    def test_canonical_maximum(self):
        value = quantum_chsh(canonical_chsh_settings(), 1.0)
        assert abs(value - CHSH_QUANTUM_BOUND) < 1e-12

    def test_linear_in_g(self):
        assert quantum_chsh(canonical_chsh_settings(), 0.5) == pytest.approx(
            SQRT2, abs=1e-12
        )
        settings = ChshSettings(0.3, 1.1, 2.0, 4.0)
        assert quantum_chsh(settings, 0.0) == 0.0

    def test_g_out_of_range(self):
        with pytest.raises(ValueError):
            quantum_chsh(canonical_chsh_settings(), 1.5)
        with pytest.raises(ValueError):
            quantum_chsh(canonical_chsh_settings(), -0.1)

    def test_quantum_bound_over_random_settings(self):
        rng = np.random.default_rng(53)
        best = 0.0
        for _ in range(10_000):
            settings = ChshSettings(*rng.uniform(0, 2 * math.pi, 4))
            value = quantum_chsh(settings, 1.0)
            best = max(best, value)
            assert value <= CHSH_QUANTUM_BOUND + 1e-9
        # the canonical settings should not be beaten
        assert best <= CHSH_QUANTUM_BOUND + 1e-9


class TestOutcomePair:
    def test_validation(self):
        with pytest.raises(ValueError):
            OutcomePair(0, 1)
        with pytest.raises(ValueError):
            OutcomePair(1, 2)
        assert OutcomePair(1, -1).product == -1
