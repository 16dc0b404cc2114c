"""Hidden-variable model tests: the cosine family, expectations, sampling,
and the CHSH bound as a property over random bounded models."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellspace.lhv import (
    MAX_MC_SAMPLES,
    CorrelationEstimate,
    HiddenVariableModel,
    cosine_model,
    model_chsh,
    model_expectation_exact,
    model_expectation_mc,
    random_bounded_model,
)
from bellspace.qkd import LhvEveChannel, QkdConfig, run_session
from bellspace.rng import make_generator, split_generators
from bellspace.spin import ChshSettings, canonical_chsh_settings

TWO_PI = 2 * math.pi


def constant_model(xi_value: float, eta_value: float) -> HiddenVariableModel:
    return HiddenVariableModel(
        xi=lambda a, lam: np.full_like(lam, xi_value),
        eta=lambda b, lam: np.full_like(lam, eta_value),
    )


class TestCosineModel:
    def test_half_is_bounded_by_one_exactly(self):
        model = cosine_model(0.5)
        lam = np.linspace(0, TWO_PI, 100_001)
        worst = max(
            float(np.max(np.abs(model.xi(0.7, lam)))),
            float(np.max(np.abs(model.eta(2.1, lam)))),
        )
        assert worst <= 1.0 + 1e-12
        assert worst > 1.0 - 1e-8  # the bound is attained at lambda = angle

    def test_zero_gives_null_responses(self):
        model = cosine_model(0.0)
        lam = np.linspace(0, TWO_PI, 1000)
        assert np.all(model.xi(1.0, lam) == 0.0)
        assert np.all(model.eta(0.3, lam) == 0.0)

    def test_beyond_half_rejected(self):
        with pytest.raises(ValueError):
            cosine_model(0.55)
        with pytest.raises(ValueError):
            cosine_model(-0.1)

    def test_boundedness_amplitude(self):
        rng = make_generator(61)
        for g in (0.1, 0.3, 0.5):
            model = cosine_model(g)
            lam = rng.uniform(0, TWO_PI, 100_000)
            bound = math.sqrt(2 * g)
            assert float(np.max(np.abs(model.xi(0.9, lam)))) <= bound + 1e-12
            assert float(np.max(np.abs(model.eta(4.2, lam)))) <= bound + 1e-12


class TestExactExpectation:
    def test_matched_angles_at_half(self):
        model = cosine_model(0.5)
        assert model_expectation_exact(model, 1.234, 1.234) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_orthogonal_phase(self):
        model = cosine_model(0.4)
        value = model_expectation_exact(model, 1.0, 1.0 + math.pi / 2)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_sixty_degrees(self):
        model = cosine_model(0.3)
        value = model_expectation_exact(model, 0.8, 0.8 - math.pi / 3)
        assert value == pytest.approx(0.15, abs=1e-12)

    def test_sixty_degrees_mc_cross_check(self):
        model = cosine_model(0.3)
        est = model_expectation_mc(
            model, 0.8, 0.8 - math.pi / 3, 10_000_000, make_generator(67)
        )
        assert abs(est.mean - 0.15) < 4 * est.std_error

    def test_identity_over_random_parameters(self):
        rng = make_generator(71)
        for _ in range(100):
            g = rng.uniform(0, 0.5)
            alpha, beta = rng.uniform(0, TWO_PI, 2)
            model = cosine_model(g)
            assert model_expectation_exact(model, alpha, beta) == pytest.approx(
                g * math.cos(alpha - beta), abs=1e-10
            )

    @pytest.mark.parametrize("nodes", [256, 1024, 4096, 16384])
    def test_discontinuous_responses_converge_as_one_over_n(self, nodes):
        # sign responses: E = 1 - 2|delta|/pi exactly, the trapezoid rule only O(1/N)
        def square(angle, lam):
            return np.sign(np.cos(angle - lam))

        model = HiddenVariableModel(xi=square, eta=square, label="square")
        rng = make_generator(89)
        for _ in range(200):
            alpha, beta = rng.uniform(0, TWO_PI, 2)
            delta = math.remainder(alpha - beta, TWO_PI)
            exact = 1.0 - 2.0 * abs(delta) / math.pi
            got = model_expectation_exact(model, alpha, beta, nodes=nodes)
            assert abs(got - exact) <= 8.0 / nodes

    def test_other_lambda_law_through_inverse_cdf(self):
        # lambda' uniform on [0, pi/2) is lambda / 4: the law lives in the responses,
        # and E[cos(a - l') cos(b - l')] = cos(a - b)/2 + sin(a + b)/pi
        model = HiddenVariableModel(
            xi=lambda a, lam: np.cos(a - lam / 4), eta=lambda b, lam: np.cos(b - lam / 4)
        )
        exact = 0.5 * math.cos(0.4 - 1.9) + math.sin(0.4 + 1.9) / math.pi
        # the responses jump at the wrap, so the trapezoid rule is only O(1/N)
        assert model_expectation_exact(model, 0.4, 1.9) == pytest.approx(exact, abs=1e-3)
        est = model_expectation_mc(model, 0.4, 1.9, 400_000, make_generator(73))
        assert abs(est.mean - exact) < 4 * est.std_error


class TestMonteCarlo:
    def test_matches_analytic_over_random_pairs(self):
        model = cosine_model(0.4)
        rng = make_generator(79)
        for _ in range(20):
            alpha, beta = rng.uniform(0, TWO_PI, 2)
            est = model_expectation_mc(model, alpha, beta, 1_000_000, rng)
            assert abs(est.mean - 0.4 * math.cos(alpha - beta)) < 4 * est.std_error

    def test_zero_model_exact_zero(self):
        est = model_expectation_mc(cosine_model(0.0), 0.1, 0.2, 100, make_generator(3))
        assert est.mean == 0.0

    def test_deterministic_given_seed(self):
        model = cosine_model(0.25)
        est1 = model_expectation_mc(model, 0.3, 1.1, 10_000, make_generator(83))
        est2 = model_expectation_mc(model, 0.3, 1.1, 10_000, make_generator(83))
        assert est1 == est2

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            model_expectation_mc(cosine_model(0.2), 0.0, 0.0, 99, make_generator(1))

    def test_maximum_samples(self):
        with pytest.raises(ValueError, match="at most"):
            model_expectation_mc(
                cosine_model(0.2), 0.0, 0.0, MAX_MC_SAMPLES + 1, make_generator(1)
            )

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            CorrelationEstimate(mean=0.0, std_error=-1.0, n_samples=10)
        with pytest.raises(ValueError):
            CorrelationEstimate(mean=0.0, std_error=0.0, n_samples=0)


def sample_eve(model, alpha, beta, n, seed):
    """(s_a, s_b) from the eavesdropper channel at per-round or fixed angles."""
    rng_channel, rng_signs = split_generators(seed, 2)
    detected, s_a, s_b = LhvEveChannel(model=model).sample(
        np.broadcast_to(np.asarray(alpha, dtype=float), (n,)),
        np.broadcast_to(np.asarray(beta, dtype=float), (n,)),
        rng_channel,
        rng_signs,
    )
    assert detected.all()
    return s_a, s_b


class TestSignSampling:
    def test_saturated_response_is_deterministic(self):
        s_a, s_b = sample_eve(constant_model(1.0, -1.0), 0.0, 0.0, 100, 89)
        assert np.all(s_a == 1)
        # Bob's outcome is the negated eta sign (the singlet's convention)
        assert np.all(s_b == 1)

    def test_null_response_is_fair_coin(self):
        n = 4000
        s_a, s_b = sample_eve(constant_model(0.0, 0.0), 0.0, 0.0, n, 97)
        assert abs(float(np.mean(s_a))) < 4 / math.sqrt(n)
        assert abs(float(np.mean(s_b))) < 4 / math.sqrt(n)

    def test_out_of_bounds_lambda_rejected(self):
        model = types.SimpleNamespace(
            xi=lambda a, lam: 1.5 * np.ones_like(lam),
            eta=lambda b, lam: np.zeros_like(lam),
        )
        with pytest.raises(ValueError, match="xi"):
            sample_eve(model, 0.0, 0.0, 100, 1)
        with pytest.raises(ValueError, match="xi"):
            run_session(QkdConfig(channel=LhvEveChannel(model=model), n_rounds=1000, seed=1))

    def test_correlation_preserved(self):
        # empirical sign correlation reproduces -E[xi*eta] at the 1/sqrt(n) rate
        model = cosine_model(0.4)
        alpha, beta = 0.9, 0.9 - math.pi / 5
        exact = 0.4 * math.cos(math.pi / 5)
        for n in (10_000, 100_000, 1_000_000):
            s_a, s_b = sample_eve(model, alpha, beta, n, 101 + n)
            mean = -float(np.mean(s_a * s_b))
            std_error = math.sqrt((1 - exact**2) / n)
            assert abs(mean - exact) < 4 * std_error

    def test_sampler_matches_exact_expectation(self):
        # per-round angles: each distinct setting pair gets its own responses
        model = cosine_model(0.5)
        n = 200_000
        alphas = np.where(np.arange(n) % 2 == 0, 0.2, 2.9)
        s_a, s_b = sample_eve(model, alphas, 1.7, n, 103)
        for alpha in (0.2, 2.9):
            mask = alphas == alpha
            mean = -float(np.mean(s_a[mask] * s_b[mask]))
            exact = model_expectation_exact(model, alpha, 1.7)
            assert abs(mean - exact) < 4 / math.sqrt(int(mask.sum()))


class TestModelChsh:
    def test_cosine_half_canonical(self):
        value = model_chsh(cosine_model(0.5), canonical_chsh_settings(), mode="exact")
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_zero_model(self):
        value = model_chsh(cosine_model(0.0), canonical_chsh_settings(), mode="exact")
        assert value == 0.0

    def test_classical_bound_over_random_settings(self):
        model = random_bounded_model(make_generator(107))
        rng = make_generator(109)
        for _ in range(1000):
            settings = ChshSettings(*rng.uniform(0, TWO_PI, 4))
            assert model_chsh(model, settings, mode="exact") <= 2.0 + 1e-9

    def test_mc_mode(self):
        value = model_chsh(
            cosine_model(0.5),
            canonical_chsh_settings(),
            mode="mc",
            n=200_000,
            rng=make_generator(113),
        )
        assert value == pytest.approx(math.sqrt(2.0), abs=0.02)

    def test_mc_mode_needs_rng(self):
        with pytest.raises(ValueError):
            model_chsh(cosine_model(0.3), canonical_chsh_settings(), mode="mc")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            model_chsh(cosine_model(0.3), canonical_chsh_settings(), mode="fast")

    def test_out_of_bounds_model_flagged(self):
        # duck-typed broken model: responses scaled beyond the unit bound
        broken = types.SimpleNamespace(
            xi=lambda a, lam: 1.6 * np.cos(a - lam),
            eta=lambda b, lam: 1.6 * np.cos(b - lam),
        )
        with pytest.raises(ValueError, match="classical bound"):
            model_chsh(broken, canonical_chsh_settings(), mode="exact")


class TestModelConstruction:
    def test_bound_check_rejects_oversized_responses(self):
        with pytest.raises(ValueError, match="unit bound"):
            HiddenVariableModel(
                xi=lambda a, lam: 1.2 * np.cos(a - lam),
                eta=lambda b, lam: np.cos(b - lam),
            )

    def test_random_models_are_bounded(self):
        rng = make_generator(127)
        probe = make_generator(131)
        for _ in range(10):
            model = random_bounded_model(rng)
            lam = probe.uniform(0, TWO_PI, 50_000)
            for angle in probe.uniform(0, TWO_PI, 4):
                assert float(np.max(np.abs(model.xi(angle, lam)))) <= 1.0 + 1e-12
                assert float(np.max(np.abs(model.eta(angle, lam)))) <= 1.0 + 1e-12


class CountingResponse:
    """A unit cosine response that counts the lambda points it is evaluated on."""

    def __init__(self):
        self.evals = 0

    def __call__(self, angle, lam):
        values = np.cos(angle - lam)
        self.evals += values.size
        return values


class TestProvenBound:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1))
    def test_random_model_stays_within_its_bound(self, seed):
        model = random_bounded_model(make_generator(seed))
        assert model.bound == 1.0
        probe = make_generator(seed ^ 0x5EED)
        angles, lam = probe.uniform(0, TWO_PI, (8, 1)), probe.uniform(0, TWO_PI, 20_000)
        assert float(np.max(np.abs(model.xi(angles, lam)))) <= model.bound
        assert float(np.max(np.abs(model.eta(angles, lam)))) <= model.bound

    @settings(max_examples=50, deadline=None)
    @given(g=st.floats(0.0, 0.5), angle=st.floats(0.0, TWO_PI, exclude_max=True))
    def test_cosine_model_attains_its_bound(self, g, angle):
        model = cosine_model(g)
        assert model.bound == math.sqrt(2.0 * g)
        lam = np.array([angle, (angle + math.pi) % TWO_PI])
        assert float(np.max(np.abs(model.xi(angle, lam)))) == model.bound
        assert float(np.max(np.abs(model.eta(angle, lam)))) == model.bound

    @pytest.mark.parametrize("bound", [1.2, -0.1, math.nan])
    def test_bound_outside_unit_interval_rejected(self, bound):
        with pytest.raises(ValueError, match="bound"):
            HiddenVariableModel(
                xi=lambda a, lam: np.cos(a - lam), eta=lambda b, lam: np.cos(b - lam), bound=bound
            )

    def test_proven_bound_skips_the_probe(self):
        xi, eta = CountingResponse(), CountingResponse()
        HiddenVariableModel(xi=xi, eta=eta, bound=1.0)
        assert xi.evals == eta.evals == 0
        HiddenVariableModel(xi=xi, eta=eta)
        assert xi.evals == eta.evals == 16 * 100_000


class TestBroadcastResponses:
    @pytest.mark.parametrize(
        "xi",
        [
            lambda a, lam: math.cos(a) * np.cos(lam),  # math.cos needs a scalar angle
            lambda a, lam: 0.5,  # one value, not one per lambda
            lambda a, lam: np.cos(lam[: lam.size // 2]),  # wrong length
        ],
        ids=["math-cos", "scalar", "short"],
    )
    def test_non_broadcasting_response_rejected_at_construction(self, xi):
        with pytest.raises(ValueError, match="xi must broadcast"):
            HiddenVariableModel(xi=xi, eta=lambda b, lam: np.cos(b - lam))

    def test_angle_or_lambda_only_responses_accepted(self):
        model = HiddenVariableModel(
            xi=lambda a, lam: 0.5 * np.cos(a),
            eta=lambda b, lam: 0.5 * np.sin(lam),
        )
        assert model_expectation_exact(model, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_wrong_shape_caught_in_session(self):
        # duck-typed model, never probed: the session's own shape check fires
        model = types.SimpleNamespace(
            xi=lambda a, lam: np.zeros(1),
            eta=lambda b, lam: np.zeros_like(lam),
        )
        with pytest.raises(ValueError, match="response xi gave shape"):
            sample_eve(model, 0.0, 0.0, 100, 1)


class TestChshBoundProperty:
    def test_random_models_respect_chsh(self):
        rng = make_generator(137)
        settings_rng = make_generator(139)
        for _ in range(20):
            model = random_bounded_model(rng)
            for _ in range(50):
                settings = ChshSettings(*settings_rng.uniform(0, TWO_PI, 4))
                value = model_chsh(model, settings, mode="exact")
                assert value <= 2.0 + 1e-9
