"""Key-distribution session tests: channels, sifting, CHSH audit, verdicts."""

import hashlib
import json
import math

import numpy as np
import pytest

from bellspace.cli import main, report_to_dict

from bellspace.lhv import cosine_model, random_bounded_model
from bellspace.qkd import (
    EVE_DETECTED,
    INCONCLUSIVE,
    SECURE,
    ChshPair,
    LhvEveChannel,
    QkdConfig,
    QuantumLocalizedChannel,
    RoundRecord,
    config_from_dict,
    decide_verdict,
    detectability_threshold_report,
    rounds_to_csv,
    run_session,
)
from bellspace.rng import make_generator, split_generators
from bellspace.spatial import separated_gaussian_setup
from bellspace.spin import CHSH_QUANTUM_BOUND, OutcomePair

SQRT2 = math.sqrt(2.0)


def quantum_config(g: float, n: int = 100_000, seed: int = 2024) -> QkdConfig:
    return QkdConfig(channel=QuantumLocalizedChannel(g=g), n_rounds=n, seed=seed)


def lhv_config(g: float, n: int = 100_000, seed: int = 2024) -> QkdConfig:
    return QkdConfig(channel=LhvEveChannel(model=cosine_model(g)), n_rounds=n, seed=seed)


def sample_rounds(channel, alpha, beta, n, seed):
    """(detected, s_a, s_b) from a channel at fixed angles on both wings."""
    rng_channel, rng_signs = split_generators(seed, 2)
    return channel.sample(np.full(n, alpha), np.full(n, beta), rng_channel, rng_signs)


class TestQuantumChannelRounds:
    def test_g_one_always_detected(self):
        detected, s_a, s_b = sample_rounds(QuantumLocalizedChannel(1.0), 0.3, 1.1, 500, 301)
        assert detected.all()
        assert set(np.unique(s_a)) <= {-1, 1} and set(np.unique(s_b)) <= {-1, 1}

    def test_coincidence_rate(self):
        n = 100_000
        detected, _, _ = sample_rounds(QuantumLocalizedChannel(0.5), 0.0, 0.5, n, 307)
        assert abs(float(detected.mean()) - 0.5) < 4 * math.sqrt(0.25 / n)

    def test_conditional_anticorrelation_at_matched_settings(self):
        detected, s_a, s_b = sample_rounds(QuantumLocalizedChannel(0.9), 0.9, 0.9, 20_000, 311)
        # matched directions: singlet outcomes are exactly anti-equal
        assert detected.any()
        assert np.all((s_a * s_b)[detected] == -1)

    def test_conditional_correlation_generic_settings(self):
        detected, s_a, s_b = sample_rounds(QuantumLocalizedChannel(0.7), 0.0, 1.0, 60_000, 313)
        expected = -math.cos(1.0)
        products = (s_a * s_b)[detected]
        mean = float(np.mean(products))
        assert abs(mean - expected) < 4 * math.sqrt((1 - expected**2) / products.size)

    def test_g_validation(self):
        with pytest.raises(ValueError):
            QuantumLocalizedChannel(1.5)


class TestLhvChannelRounds:
    def test_matched_settings_correlation(self):
        n = 60_000
        detected, s_a, s_b = sample_rounds(LhvEveChannel(cosine_model(0.5)), 0.7, 0.7, n, 317)
        assert detected.all()
        # singlet convention: raw outcomes anticorrelate where the model correlates
        assert abs(float(np.mean(s_a * s_b)) + 0.5) < 4 * math.sqrt((1 - 0.25) / n)

    def test_null_model_fair_coins(self):
        n = 20_000
        _, s_a, s_b = sample_rounds(LhvEveChannel(cosine_model(0.0)), 0.1, 0.9, n, 331)
        assert abs(float(np.mean(s_a * s_b))) < 4 / math.sqrt(n)


class TestDecideVerdict:
    def test_secure(self):
        assert decide_verdict(2.8, 0.01, 3.0) == SECURE

    def test_eve_detected(self):
        assert decide_verdict(1.9, 0.01, 3.0) == EVE_DETECTED

    def test_straddling_inconclusive(self):
        assert decide_verdict(2.01, 0.05, 3.0) == INCONCLUSIVE

    def test_negative_std_error_rejected(self):
        with pytest.raises(ValueError):
            decide_verdict(2.5, -0.1, 3.0)


class TestThresholdReport:
    def test_undetectable_regime(self):
        row = detectability_threshold_report([0.4])[0]
        assert row["regime"] == "undetectable"
        assert row["chsh_max"] == pytest.approx(0.4 * CHSH_QUANTUM_BOUND)

    def test_violation_possible_regime(self):
        row = detectability_threshold_report([0.8])[0]
        assert row["regime"] == "violation possible"
        assert row["chsh_max"] == pytest.approx(2.263, abs=1e-3)

    def test_open_gap(self):
        assert detectability_threshold_report([0.6])[0]["regime"] == "open gap"

    def test_boundaries(self):
        assert detectability_threshold_report([0.5])[0]["regime"] == "undetectable"
        just_above = math.nextafter(1 / SQRT2, 1.0)
        assert detectability_threshold_report([just_above])[0]["regime"] == (
            "violation possible"
        )
        assert detectability_threshold_report([1 / SQRT2])[0]["regime"] == "open gap"

    def test_range_validation(self):
        with pytest.raises(ValueError):
            detectability_threshold_report([1.2])


class TestRunSessionQuantum:
    def test_high_g_session_secure(self):
        report = run_session(quantum_config(0.9))
        assert report.verdict == SECURE
        est = report.chsh_estimate
        assert abs(est.s_value - CHSH_QUANTUM_BOUND) < 3 * est.std_error
        assert report.qber == 0.0
        assert abs(report.coincidence_rate - 0.9) < 0.01

    def test_unconditioned_statistic_scales_with_g(self):
        g = 0.9
        report = run_session(quantum_config(g))
        est = report.chsh_unconditioned
        assert abs(est.s_value - g * CHSH_QUANTUM_BOUND) < 4 * est.std_error

    def test_key_bits_agree_after_flip(self):
        # matched-setting anticorrelation holds down to small g
        for g, n in ((0.5, 20_000), (0.05, 60_000)):
            report = run_session(quantum_config(g, n=n))
            assert report.sifted_key_alice == report.sifted_key_bob
            assert report.qber == 0.0
            assert len(report.sifted_key_alice) == report.n_key_rounds
            assert report.n_key_rounds > 0

    def test_unconditioned_correlations_follow_scaled_cosine(self):
        g = 0.6
        config = quantum_config(g, n=90_000, seed=5)
        report, rounds = run_session(config, return_rounds=True)
        a_idx = np.array([r.alice_setting for r in rounds])
        b_idx = np.array([r.bob_setting for r in rounds])
        prod = np.array(
            [r.outcomes.product if r.outcomes else 0 for r in rounds], dtype=float
        )
        # Bob's flip negates the raw product
        prod = -prod
        for i in range(3):
            for j in range(3):
                mask = (a_idx == i) & (b_idx == j)
                n = int(mask.sum())
                expected = g * math.cos(
                    config.alice_angles[i] - config.bob_angles[j]
                )
                std_error = math.sqrt(max(1 - expected**2, 1e-12) / n)
                assert abs(float(prod[mask].mean()) - expected) < 4 * std_error

    def test_channel_from_spatial_setup(self):
        setup = separated_gaussian_setup(1.0, (100.0, 0.0, 0.0))
        channel = QuantumLocalizedChannel.from_setup(setup, t=0.0)
        assert channel.g == pytest.approx(0.10123700997061108, abs=1e-9)


class TestRunSessionLhv:
    def test_cosine_eve_detected(self):
        report = run_session(lhv_config(0.5))
        est = report.chsh_estimate
        assert est.s_value <= 2.0 + 3 * est.std_error
        assert report.verdict == EVE_DETECTED
        assert report.coincidence_rate == 1.0

    @pytest.mark.parametrize("g", [0.25, 0.5])
    def test_cosine_eve_qber(self, g):
        # Eve's key bits agree on (1 + g)/2 of matched rounds after Bob's flip
        report = run_session(lhv_config(g))
        want = (1 - g) / 2
        sigma = math.sqrt(want * (1 - want) / report.n_key_rounds)
        assert abs(report.qber - want) < 5 * sigma
        assert report.sifted_key_alice != report.sifted_key_bob

    def test_any_bounded_model_respects_chsh(self):
        rng = make_generator(347)
        for trial in range(20):
            model = random_bounded_model(rng)
            config = QkdConfig(
                channel=LhvEveChannel(model=model), n_rounds=20_000, seed=400 + trial
            )
            report = run_session(config)
            est = report.chsh_estimate
            assert est.s_value <= 2.0 + 3 * est.std_error


class TestSifting:
    def test_partition_of_detected_rounds(self):
        config = quantum_config(0.7, n=30_000, seed=11)
        report, rounds = run_session(config, return_rounds=True)
        matched_pairs = {
            (i, j)
            for i in range(3)
            for j in range(3)
            if abs(config.alice_angles[i] - config.bob_angles[j]) < 1e-12
        }
        chsh_pairs = {(p.alice_idx, p.bob_idx) for p in config.chsh_pairs}
        assert not (matched_pairs & chsh_pairs)
        n_key = n_test = n_discard = 0
        for r in rounds:
            if not r.detected:
                continue
            combo = (r.alice_setting, r.bob_setting)
            if combo in matched_pairs:
                n_key += 1
            elif combo in chsh_pairs:
                n_test += 1
            else:
                n_discard += 1
        assert n_key == report.n_key_rounds
        assert n_test == sum(report.n_test_rounds)
        assert n_key + n_test + n_discard == report.n_detected

    def test_low_statistics_inconclusive(self):
        report = run_session(quantum_config(0.02, n=1000, seed=3))
        assert report.verdict == INCONCLUSIVE

    def test_determinism(self):
        r1 = run_session(quantum_config(0.8, n=20_000, seed=99))
        r2 = run_session(quantum_config(0.8, n=20_000, seed=99))
        assert r1 == r2
        r3 = run_session(quantum_config(0.8, n=20_000, seed=98))
        assert r3 != r1


class TestConfigValidation:
    def test_minimum_rounds(self):
        with pytest.raises(ValueError):
            quantum_config(0.5, n=999)

    def test_chsh_pairs_must_not_match_angles(self):
        with pytest.raises(ValueError, match="matched"):
            QkdConfig(
                channel=QuantumLocalizedChannel(g=0.5),
                chsh_pairs=(
                    ChshPair(1, 0, 1),  # pi/4 on both wings
                    ChshPair(2, 2, -1),
                    ChshPair(0, 0, 1),
                    ChshPair(0, 2, -1),
                ),
            )

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            ChshPair(3, 0)
        with pytest.raises(ValueError):
            ChshPair(0, 0, sign=2)

    def test_alarm_sigma(self):
        with pytest.raises(ValueError):
            QkdConfig(channel=QuantumLocalizedChannel(g=0.5), alarm_sigma=0.0)

    def test_round_record_consistency(self):
        with pytest.raises(ValueError):
            RoundRecord(0, 0, True, None)
        with pytest.raises(ValueError):
            RoundRecord(0, 0, False, OutcomePair(1, 1))


def config_dict(channel: dict, n: int = 5_000, seed: int = 21) -> dict:
    """A full session config as JSON would give it, every key spelled out."""
    return {
        "n_rounds": n,
        "alice_angles": [0.0, math.pi / 4, math.pi / 2],
        "bob_angles": [math.pi / 4, math.pi / 2, 3 * math.pi / 4],
        "chsh_pairs": [[2, 0, 1], [2, 2, -1], [0, 0, 1], [0, 2, -1]],
        "alarm_sigma": 3.0,
        "channel": channel,
        "seed": seed,
    }


class TestSerialization:
    def test_config_round_trip_quantum(self):
        again = config_from_dict(config_dict({"variant": "quantum_localized", "g": 0.37}))
        assert again == quantum_config(0.37, n=5_000, seed=21)

    def test_config_round_trip_lhv(self):
        config = lhv_config(0.25, n=5_000, seed=21)
        again = config_from_dict(config_dict({"variant": "lhv_eve", "model": "cosine", "g": 0.25}))
        assert isinstance(again.channel, LhvEveChannel)
        assert again.channel.model.label == config.channel.model.label == "cosine(g=0.25)"
        assert run_session(again) == run_session(config)

    def test_config_unknown_keys(self):
        data = config_dict({"variant": "quantum_localized", "g": 0.5})
        data["typo"] = True
        with pytest.raises(ValueError, match="unknown"):
            config_from_dict(data)

    def test_channel_setup_spec(self):
        config = config_from_dict(
            {
                "channel": {
                    "variant": "quantum_localized",
                    "setup": {"width_param": 1.0, "separation": [100.0, 0.0, 0.0]},
                    "t": 0.0,
                },
                "seed": 5,
            }
        )
        assert config.channel.g == pytest.approx(0.101237, abs=1e-5)

    def test_rounds_csv(self):
        _, rounds = run_session(
            quantum_config(0.5, n=1_000, seed=17), return_rounds=True
        )
        text = rounds_to_csv(rounds)
        lines = text.strip().split("\n")
        assert lines[0] == "round,a_idx,b_idx,detected,s_a,s_b"
        assert len(lines) == 1_001
        undetected = [l for l in lines[1:] if l.endswith(",,")]
        detected = [l for l in lines[1:] if not l.endswith(",,")]
        assert undetected and detected
        for line in detected[:10]:
            fields = line.split(",")
            assert fields[4] in ("1", "-1") and fields[5] in ("1", "-1")

    def test_rounds_csv_matches_row_loop(self):
        # reference: one formatted line per RoundRecord row
        _, rounds = run_session(quantum_config(0.6, n=12_345, seed=23), return_rounds=True)
        lines = ["round,a_idx,b_idx,detected,s_a,s_b\n"]
        for i, r in enumerate(rounds):
            s_a, s_b = (r.outcomes.s_a, r.outcomes.s_b) if r.outcomes else ("", "")
            lines.append(f"{i},{r.alice_setting},{r.bob_setting},{int(r.detected)},{s_a},{s_b}\n")
        assert rounds_to_csv(rounds) == "".join(lines)

    def test_round_log_columns_and_rows(self):
        report, rounds = run_session(quantum_config(0.5, n=2_000, seed=19), return_rounds=True)
        assert len(rounds) == 2_000
        assert int(rounds.detected.sum()) == report.n_detected
        assert np.all((rounds.s_a == 0) == ~rounds.detected)
        rows = list(rounds)
        assert len(rows) == 2_000
        for i in (0, 1, 777, 1_999):
            assert rows[i] == rounds[i]
            assert rows[i].alice_setting == rounds.a_idx[i]
            assert rows[i].detected == rounds.detected[i]
            if rows[i].detected:
                assert rows[i].outcomes == OutcomePair(int(rounds.s_a[i]), int(rounds.s_b[i]))


class TestGoldenOutputs:
    """Outputs for a fixed config and seed, pinned by sha256.

    Quantum channel: CLI stdout and the round log, so the sampling rule, its
    draw order and the CSV layout cannot drift.  Eve channel: the audit
    fields of one session, and the full report (key bits and QBER included)
    for cosine models and one random trigonometric model.
    """

    PARAMS = {"n_rounds": 5000, "channel": {"variant": "quantum_localized", "g": 0.7}, "seed": 2718}

    @staticmethod
    def sha256(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "8d25e44af8752f9010639dd798babaafa507a56ea549d7d04414bff2680b08d3"),
            ("csv", "f36013d50ed42e765500d8b3de78f541bebb737c399ada753b4223c171281284"),
        ],
    )
    def test_cli_stdout(self, fmt, digest, tmp_path, capsys):
        cfg = tmp_path / "q.json"
        cfg.write_text(json.dumps(self.PARAMS))
        assert main(["qkd", "--config", str(cfg), "--format", fmt]) == 0
        assert self.sha256(capsys.readouterr().out) == digest

    def test_round_log_csv(self):
        config = QkdConfig(channel=QuantumLocalizedChannel(0.7), n_rounds=5000, seed=2718)
        _, rounds = run_session(config, return_rounds=True)
        assert self.sha256(rounds_to_csv(rounds)) == (
            "f861306f6b79ca094c8dea1b2f1f6b55208c5c65438f198cdcc8f87a99bf8291"
        )

    def test_eve_audit_fields(self):
        payload = report_to_dict(run_session(lhv_config(0.5, seed=8008)))
        kept = (
            "chsh_estimate", "chsh_unconditioned", "verdict", "n_detected",
            "n_test_rounds", "n_key_rounds", "coincidence_rate",
        )
        text = json.dumps({k: payload[k] for k in kept}, sort_keys=True)
        assert self.sha256(text) == (
            "54edede2e4475846161de58d4b0bde254d8eb9502c62549af26783a18969c66a"
        )

    @pytest.mark.parametrize(
        "model, digest",
        [
            (lambda: cosine_model(0.0), "0f4ef151911565108b01860cbdf4edc8889722fa6a8d708d98d5f851be793652"),
            (lambda: cosine_model(0.2), "0b10bfb0f6a8581615aba5ec0f783575081e2c1e374373658c77590b3ab4c155"),
            (lambda: cosine_model(0.5), "9a4dc8622cf52555733f32c63d7a912d8d9149f371800601e3dab23905f8884f"),
            (
                lambda: random_bounded_model(make_generator(4242)),
                "225e37d2eef029fa3575ce9f2ded8c197dbc4ed53618c2a2c7d19194b62d1c39",
            ),
        ],
        ids=["cosine-0", "cosine-0.2", "cosine-0.5", "random-trig"],
    )
    def test_eve_full_report(self, model, digest):
        config = QkdConfig(channel=LhvEveChannel(model=model()), n_rounds=20_000, seed=8008)
        text = json.dumps(report_to_dict(run_session(config)), sort_keys=True)
        assert self.sha256(text) == digest
