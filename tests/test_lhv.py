"""Hidden-variable model tests: the cosine family, expectations, sampling,
and the CHSH bound as a property over random bounded models."""

import math
import sys
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellspace import lhv
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
        rng = np.random.default_rng(61)
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
            model, 0.8, 0.8 - math.pi / 3, 10_000_000, np.random.default_rng(67)
        )
        assert abs(est.mean - 0.15) < 4 * est.std_error

    def test_identity_over_random_parameters(self):
        rng = np.random.default_rng(71)
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
        rng = np.random.default_rng(89)
        for _ in range(200):
            alpha, beta = rng.uniform(0, TWO_PI, 2)
            delta = math.remainder(alpha - beta, TWO_PI)
            exact = 1.0 - 2.0 * abs(delta) / math.pi
            with mock.patch.object(lhv, "_EXACT_NODES", nodes):
                got = model_expectation_exact(model, alpha, beta)
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
        est = model_expectation_mc(model, 0.4, 1.9, 400_000, np.random.default_rng(73))
        assert abs(est.mean - exact) < 4 * est.std_error


class TestMonteCarlo:
    def test_matches_analytic_over_random_pairs(self):
        model = cosine_model(0.4)
        rng = np.random.default_rng(79)
        for _ in range(20):
            alpha, beta = rng.uniform(0, TWO_PI, 2)
            est = model_expectation_mc(model, alpha, beta, 1_000_000, rng)
            assert abs(est.mean - 0.4 * math.cos(alpha - beta)) < 4 * est.std_error

    def test_zero_model_exact_zero(self):
        est = model_expectation_mc(cosine_model(0.0), 0.1, 0.2, 100, np.random.default_rng(3))
        assert est.mean == 0.0

    def test_deterministic_given_seed(self):
        model = cosine_model(0.25)
        est1 = model_expectation_mc(model, 0.3, 1.1, 10_000, np.random.default_rng(83))
        est2 = model_expectation_mc(model, 0.3, 1.1, 10_000, np.random.default_rng(83))
        assert est1 == est2

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            model_expectation_mc(cosine_model(0.2), 0.0, 0.0, 99, np.random.default_rng(1))

    def test_maximum_samples(self):
        with pytest.raises(ValueError, match="at most"):
            model_expectation_mc(
                cosine_model(0.2), 0.0, 0.0, MAX_MC_SAMPLES + 1, np.random.default_rng(1)
            )

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            CorrelationEstimate(mean=0.0, std_error=-1.0, n_samples=10)
        with pytest.raises(ValueError):
            CorrelationEstimate(mean=0.0, std_error=0.0, n_samples=0)


class TestChunkedMonteCarlo:
    """model_expectation_mc draws lambda in chunks of _MC_CHUNK and combines the
    chunks' means and sums of squared deviations."""

    @staticmethod
    def numpy_estimate(model, alpha, beta, n, seed):
        """Mean and standard error of all n products at once, on the same draws."""
        lam = np.random.default_rng(seed).uniform(0.0, TWO_PI, n)
        products = model.xi(alpha, lam) * model.eta(beta, lam)
        return float(np.mean(products)), float(np.std(products, ddof=1) / math.sqrt(n))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(100, lhv._MC_CHUNK), st.integers(0, 2**32 - 1))
    @example(100, 5)
    @example(lhv._MC_CHUNK, 5)
    def test_one_chunk_is_bit_identical_to_numpy(self, n, seed):
        model = random_bounded_model(np.random.default_rng(seed))
        est = model_expectation_mc(model, 0.3, 1.1, n, np.random.default_rng(seed + 1))
        assert (est.mean, est.std_error) == self.numpy_estimate(model, 0.3, 1.1, n, seed + 1)

    @pytest.mark.parametrize(
        "n, chunk", [(lhv._MC_CHUNK + 1, lhv._MC_CHUNK), (3 * lhv._MC_CHUNK + 7, lhv._MC_CHUNK),
                     (100_000, 1000), (100_001, 333)],
    )
    def test_many_chunks_agree_with_numpy(self, n, chunk):
        # matched angles keep the mean at g, far from 0, so a relative bound means something
        model = cosine_model(0.4)
        with mock.patch.object(lhv, "_MC_CHUNK", chunk):
            est = model_expectation_mc(model, 0.7, 0.7, n, np.random.default_rng(6))
        mean, std_error = self.numpy_estimate(model, 0.7, 0.7, n, 6)
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0.0)

    def test_chunks_draw_the_numbers_of_one_call(self):
        seen = []

        def xi(alpha, lam):
            seen.append(lam.copy())
            return np.cos(alpha - lam)

        model = HiddenVariableModel(xi=xi, eta=lambda beta, lam: np.cos(beta - lam))
        with mock.patch.object(lhv, "_MC_CHUNK", 1000):
            model_expectation_mc(model, 0.0, 0.0, 4321, np.random.default_rng(8))
        assert [part.size for part in seen] == [1000, 1000, 1000, 1000, 321]
        expected = np.random.default_rng(8).uniform(0.0, TWO_PI, 4321)
        assert np.array_equal(np.concatenate(seen), expected)

    MEMORY_PROBE = (
        "import resource\n"
        "import numpy as np\n"
        "from bellspace.lhv import cosine_model, model_expectation_mc\n"
        "model = cosine_model(0.4)\n"
        "model_expectation_mc(model, 0.1, 0.7, 1000, np.random.default_rng(0))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "est = model_expectation_mc(model, 0.1, 0.7, 10**7, np.random.default_rng(1))\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(est.n_samples, (after - before) / 1024)\n"
    )

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
    def test_large_estimate_memory(self, fresh_interpreter):
        # in a fresh interpreter, so that no earlier test has already raised the
        # peak; ~20 MB measured, where one array per quantity took ~300 MB
        n_samples, growth_mb = fresh_interpreter(self.MEMORY_PROBE)
        assert int(n_samples) == 10**7
        assert float(growth_mb) < 40.0


def sample_eve(model, alpha, beta, n, seed):
    """(s_a, s_b) from the eavesdropper channel at per-round or fixed angles.

    Round i gets its own setting pair: row i of the pair table.
    """
    pairs = np.empty((n, 2))
    pairs[:, 0], pairs[:, 1] = alpha, beta
    s_a, s_b = LhvEveChannel(model=model).sample(
        pairs, np.arange(n), *map(np.random.default_rng, np.random.SeedSequence(seed).spawn(3))
    )
    # both wings click on every round: no sign is 0
    assert np.all(s_a != 0) and np.all(s_b != 0)
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
        model = random_bounded_model(np.random.default_rng(107))
        rng = np.random.default_rng(109)
        for _ in range(1000):
            settings = ChshSettings(*rng.uniform(0, TWO_PI, 4))
            assert model_chsh(model, settings, mode="exact") <= 2.0 + 1e-9

    def test_mc_mode(self):
        value = model_chsh(
            cosine_model(0.5),
            canonical_chsh_settings(),
            mode="mc",
            n=200_000,
            rng=np.random.default_rng(113),
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
        with pytest.raises(ValueError, match="response xi .*unit bound"):
            model_chsh(broken, canonical_chsh_settings(), mode="exact")

    def test_classical_bound_guard_past_the_unit_check(self):
        # constants within the unit check's 1e-9 slack: p = (c^2, -c^2, c^2, -c^2)
        c = 1.0 + 5e-10
        model = HiddenVariableModel(
            xi=lambda a, lam: np.full_like(lam, c),
            eta=lambda b, lam: np.full_like(lam, c if b < math.pi else -c),
        )
        settings = canonical_chsh_settings()
        assert model_expectation_exact(model, settings.alpha1, settings.beta2) == -c * c
        with pytest.raises(ValueError, match="classical bound"):
            model_chsh(model, settings, mode="exact")


def unit_cosine(angle, lam):
    return np.cos(angle - lam)


def oversized_cosine(angle, lam):
    return 1.2 * np.cos(angle - lam)


def short_response(angle, lam):
    return np.cos(lam[: lam.size // 2])


def assert_rejected_where_used(model, match, uses=("exact", "mc", "chsh", "eve")):
    """Each named use of the model's responses raises ValueError matching ``match``."""
    eve = QkdConfig(channel=LhvEveChannel(model=model), n_rounds=1000, seed=1)
    sites = {
        "exact": lambda: model_expectation_exact(model, 0.3, 1.1),
        "mc": lambda: model_expectation_mc(model, 0.3, 1.1, 1000, np.random.default_rng(5)),
        "chsh": lambda: model_chsh(model, canonical_chsh_settings()),
        "eve": lambda: run_session(eve),
    }
    for use in uses:
        with pytest.raises(ValueError, match=match):
            sites[use]()


class CountingResponse:
    """A unit cosine response that counts the lambda points it is evaluated on."""

    def __init__(self):
        self.evals = 0

    def __call__(self, angle, lam):
        values = np.cos(angle - lam)
        self.evals += values.size
        return values


class TestModelConstruction:
    def test_bound_check_rejects_oversized_responses(self):
        # building is free; the unit bound is checked where the responses are used,
        # and a bound the model declares is not trusted
        false_bound = types.SimpleNamespace(xi=oversized_cosine, eta=unit_cosine, bound=1.0)
        for model, name in [
            (HiddenVariableModel(xi=oversized_cosine, eta=unit_cosine), "xi"),
            (HiddenVariableModel(xi=unit_cosine, eta=oversized_cosine), "eta"),
            (false_bound, "xi"),
        ]:
            assert_rejected_where_used(model, f"response {name} .*unit bound")

    def test_construction_evaluates_no_response(self):
        xi, eta = CountingResponse(), CountingResponse()
        model = HiddenVariableModel(xi=xi, eta=eta)
        assert xi.evals == eta.evals == 0
        model_expectation_exact(model, 0.2, 0.9)
        assert xi.evals == eta.evals == 4096

    def test_random_models_are_bounded(self):
        rng = np.random.default_rng(127)
        probe = np.random.default_rng(131)
        for _ in range(10):
            model = random_bounded_model(rng)
            lam = probe.uniform(0, TWO_PI, 50_000)
            for angle in probe.uniform(0, TWO_PI, 4):
                assert float(np.max(np.abs(model.xi(angle, lam)))) <= 1.0 + 1e-12
                assert float(np.max(np.abs(model.eta(angle, lam)))) <= 1.0 + 1e-12


class TestProvenBound:
    """The bounds the constructions prove, and the unit bound every use checks."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1))
    def test_random_model_stays_within_its_bound(self, seed):
        model = random_bounded_model(np.random.default_rng(seed))
        probe = np.random.default_rng(seed ^ 0x5EED)
        angles, lam = probe.uniform(0, TWO_PI, (8, 1)), probe.uniform(0, TWO_PI, 20_000)
        assert float(np.max(np.abs(model.xi(angles, lam)))) <= 1.0
        assert float(np.max(np.abs(model.eta(angles, lam)))) <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(g=st.floats(0.0, 0.5), angle=st.floats(0.0, TWO_PI, exclude_max=True))
    def test_cosine_model_attains_its_bound(self, g, angle):
        model = cosine_model(g)
        lam = np.array([angle, (angle + math.pi) % TWO_PI])
        assert float(np.max(np.abs(model.xi(angle, lam)))) == math.sqrt(2.0 * g)
        assert float(np.max(np.abs(model.eta(angle, lam)))) == math.sqrt(2.0 * g)

    @pytest.mark.parametrize("bound", [1.2, -1.2, math.nan])
    def test_bound_outside_unit_interval_rejected(self, bound):
        assert_rejected_where_used(constant_model(bound, 0.0), "response xi .*unit bound")


class TestBroadcastResponses:
    def test_non_broadcasting_response_rejected_where_used(self):
        model = HiddenVariableModel(xi=short_response, eta=unit_cosine)
        assert_rejected_where_used(model, "response xi must give one value per lambda")

    def test_math_cos_response_needs_scalar_angles(self):
        # math.cos takes one angle: fine for expectations, not for the Eve channel,
        # which passes one angle per round
        model = HiddenVariableModel(
            xi=lambda a, lam: math.cos(a) * np.cos(lam) + math.sin(a) * np.sin(lam),
            eta=unit_cosine,
        )
        assert model_expectation_exact(model, 0.3, 1.1) == pytest.approx(
            0.5 * math.cos(0.3 - 1.1), abs=1e-12
        )
        model_expectation_mc(model, 0.3, 1.1, 1000, np.random.default_rng(5))
        assert model_chsh(model, canonical_chsh_settings()) == pytest.approx(math.sqrt(2.0))
        assert_rejected_where_used(model, "response xi must give one value per lambda", ["eve"])

    def test_constant_response_accepted(self):
        # one value for every lambda is a valid bounded response
        model = HiddenVariableModel(xi=lambda a, lam: 0.5, eta=lambda b, lam: -1.0)
        assert model_expectation_exact(model, 0.3, 1.1) == -0.5
        assert model_expectation_mc(model, 0.3, 1.1, 1000, np.random.default_rng(5)).mean == -0.5
        assert model_chsh(model, canonical_chsh_settings()) == 1.0
        run_session(QkdConfig(channel=LhvEveChannel(model=model), n_rounds=1000, seed=1))

    def test_angle_or_lambda_only_responses_accepted(self):
        model = HiddenVariableModel(
            xi=lambda a, lam: 0.5 * np.cos(a),
            eta=lambda b, lam: 0.5 * np.sin(lam),
        )
        assert model_expectation_exact(model, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_wrong_shape_caught_in_session(self):
        # duck-typed model: the session's per-round responses are checked too
        model = types.SimpleNamespace(xi=short_response, eta=lambda b, lam: np.zeros_like(lam))
        with pytest.raises(ValueError, match="response xi must give one value per lambda"):
            sample_eve(model, 0.0, 0.0, 100, 1)


class TestChshBoundProperty:
    def test_random_models_respect_chsh(self):
        rng = np.random.default_rng(137)
        settings_rng = np.random.default_rng(139)
        for _ in range(20):
            model = random_bounded_model(rng)
            for _ in range(50):
                settings = ChshSettings(*settings_rng.uniform(0, TWO_PI, 4))
                value = model_chsh(model, settings, mode="exact")
                assert value <= 2.0 + 1e-9
