"""Key-distribution session tests: channels, sifting, CHSH audit, verdicts."""

import hashlib
import json
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellspace import qkd
from bellspace.cli import config_from_dict, main, report_to_dict

from bellspace.lhv import cosine_model, random_bounded_model
from bellspace.qkd import (
    EVE_DETECTED,
    INCONCLUSIVE,
    SECURE,
    ChshPair,
    LhvEveChannel,
    QkdConfig,
    QuantumLocalizedChannel,
    RoundLog,
    RoundRecord,
    decide_verdict,
    rounds_to_csv,
    run_session,
)
from bellspace.rng import make_generator, split_generators
from bellspace.spatial import separated_gaussian_setup
from bellspace.spin import (
    CHSH_QUANTUM_BOUND,
    OutcomePair,
    chsh_statistic,
    detectability_threshold_report,
)

SQRT2 = math.sqrt(2.0)


def quantum_config(g: float, n: int = 100_000, seed: int = 2024) -> QkdConfig:
    return QkdConfig(channel=QuantumLocalizedChannel(g=g), n_rounds=n, seed=seed)


def lhv_config(g: float, n: int = 100_000, seed: int = 2024) -> QkdConfig:
    return QkdConfig(channel=LhvEveChannel(model=cosine_model(g)), n_rounds=n, seed=seed)


def sample_rounds(channel, alpha, beta, n, seed):
    """(detected, s_a, s_b) from a channel at fixed angles: one pair, n rounds in its cell."""
    pairs = np.array([[alpha, beta]])
    return channel.sample(pairs, np.zeros(n, dtype=np.intp), *split_generators(seed, 3))


def assert_same_csv(text, expected):
    """Equal CSV texts; a mismatch names its first differing line, since pytest's
    own diff of two long strings takes minutes."""
    if text != expected:
        got, want = text.splitlines(), expected.splitlines()
        i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        pytest.fail(f"{len(got)} vs {len(want)} lines, first difference at line {i}: "
                    f"{got[i:i + 1]} vs {want[i:i + 1]}")


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


#: Angles for setting-pair tables: negative, beyond 2*pi and exact multiples of pi.
PAIR_ANGLES = st.one_of(
    st.floats(-50.0, 50.0),
    st.sampled_from([0.0, math.pi / 4, -math.pi / 4, math.pi, 3 * math.pi / 2, 2 * math.pi, -6 * math.pi]),
)


@st.composite
def pair_tables(draw):
    """A (k, 2) table of (alpha, beta) pairs, 1 <= k <= 12, with equal and 2*pi-wrapped pairs."""
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        alpha = draw(PAIR_ANGLES)
        kind = draw(st.sampled_from(["free", "equal", "wrapped"]))
        if kind == "free":
            beta = draw(PAIR_ANGLES)
        else:
            beta = alpha + (2 * math.pi * draw(st.integers(-3, 3)) if kind == "wrapped" else 0.0)
        rows.append((alpha, beta))
    return np.array(rows)


CELL_CHANNELS = {
    "quantum": lambda: QuantumLocalizedChannel(0.8),
    "cosine-eve": lambda: LhvEveChannel(cosine_model(0.5)),
    "random-eve": lambda: LhvEveChannel(random_bounded_model(make_generator(4242))),
}


class TestCellSampling:
    """A channel given a pair table and cells draws as if each round had its own pair."""

    @settings(max_examples=80, deadline=None)
    @given(
        pair_tables(), st.integers(1, 400), st.sampled_from(sorted(CELL_CHANNELS)),
        st.integers(0, 2**64 - 1),
    )
    def test_cells_match_per_round_pairs(self, pairs, n, channel, seed):
        cell = make_generator(seed).integers(0, len(pairs), n)
        sampler = CELL_CHANNELS[channel]()
        by_cell = sampler.sample(pairs, cell, *split_generators(seed, 3))
        per_round = sampler.sample(pairs[cell], np.arange(n), *split_generators(seed, 3))
        for drawn, expected in zip(by_cell, per_round):
            assert drawn.dtype == expected.dtype
            assert drawn.tobytes() == expected.tobytes()


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


def masked_chsh(config, rounds, conditioned):
    """The audit by masked float passes: (S, exact variance of S or None, pair sizes).

    Each pair's mean is ``np.mean`` over its rounds (its detected rounds if
    ``conditioned``); its variance comes from the exact squared deviations of
    the -1, 0 and +1 products, so no shortcut formula is shared with the code.
    """
    products = (rounds.s_a.astype(np.int32) * -rounds.s_b.astype(np.int32)).astype(float)
    p, variance, sizes = [], Fraction(0), []
    for pair in config.chsh_pairs:
        combo = (rounds.a_idx == pair.alice_idx) & (rounds.b_idx == pair.bob_idx)
        x = products[combo & rounds.detected] if conditioned else products[combo]
        n = x.size
        sizes.append(n)
        p.append(pair.sign * (float(np.mean(x)) if n else 0.0))
        if n > 1:
            mean = Fraction(int(x.sum()), n)
            squares = sum(int(np.sum(x == v)) * (v - mean) ** 2 for v in (-1, 0, 1))
            variance += squares / (n - 1) / n
    return chsh_statistic(*p), (variance if min(sizes) > 1 else None), sizes


class TestChshAuditProperties:
    @given(
        seed=st.integers(0, 2**32),
        channel=st.one_of(
            # g up to 0.02 leaves some pairs with 0 or 1 clicks at 1000 rounds
            st.builds(QuantumLocalizedChannel, st.floats(0.0, 0.02) | st.floats(0.0, 1.0)),
            st.builds(lambda g: LhvEveChannel(cosine_model(g)), st.floats(0.0, 0.5)),
            st.builds(lambda s: LhvEveChannel(random_bounded_model(make_generator(s))),
                      st.integers(0, 2**32)),
        ),
        n_rounds=st.integers(1000, 6000),
    )
    @example(seed=3, channel=QuantumLocalizedChannel(0.0), n_rounds=1000)  # no clicks
    @example(seed=0, channel=QuantumLocalizedChannel(0.01), n_rounds=1000)  # 1, 1, 0, 1 clicks
    @settings(max_examples=60, deadline=None)
    def test_counts_match_the_masked_passes(self, seed, channel, n_rounds):
        config = QkdConfig(channel=channel, n_rounds=n_rounds, seed=seed)
        report, rounds = run_session(config, return_rounds=True)
        payload = report_to_dict(report)
        for key, conditioned in (("chsh_estimate", True), ("chsh_unconditioned", False)):
            estimate = getattr(report, key)
            s_value, variance, sizes = masked_chsh(config, rounds, conditioned)
            assert estimate.s_value == s_value
            if conditioned:
                assert list(report.n_test_rounds) == sizes
            if variance is None:
                assert estimate.std_error == math.inf and payload[key]["std_error"] is None
                continue
            # correctly rounded: within half an ulp of the exact root
            with localcontext() as ctx:
                ctx.prec = 60
                exact = (Decimal(variance.numerator) / Decimal(variance.denominator)).sqrt()
                error = abs(Decimal(estimate.std_error) - exact)
                assert error <= Decimal(math.ulp(estimate.std_error)) * Decimal("0.5000001")


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

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8])
    def test_rounds_csv_narrow_index_columns(self, dtype):
        # the row code reaches 161, which an int8 or uint8 column cannot hold
        _, rounds = run_session(quantum_config(0.7, n=1_000, seed=29), return_rounds=True)
        narrow = RoundLog(
            rounds.a_idx.astype(dtype), rounds.b_idx.astype(dtype),
            rounds.detected, rounds.s_a, rounds.s_b,
        )
        assert rounds_to_csv(narrow) == rounds_to_csv(rounds)

    @pytest.mark.parametrize(
        "n",
        [
            1, 9, 10, 11, 99_999, 100_000, 100_001,
            qkd._CSV_BLOCK - 1, qkd._CSV_BLOCK, qkd._CSV_BLOCK + 1,
        ],
    )
    def test_rounds_csv_matches_plain_formatter(self, n):
        # row numbers that gain a digit and logs that end at a block edge
        rng = make_generator(n)
        detected = rng.random(n) < 0.7
        signs = (2 * rng.integers(0, 2, (2, n)) - 1).astype(np.int8) * detected
        rounds = RoundLog(
            rng.integers(0, 3, n), rng.integers(0, 3, n), detected, signs[0], signs[1]
        )
        lines = ["round,a_idx,b_idx,detected,s_a,s_b\n"]
        for i, (a, b, d, s_a, s_b) in enumerate(
            zip(*(getattr(rounds, name).tolist() for name in LOG_COLUMNS))
        ):
            outcomes = f"{s_a},{s_b}" if d else ","
            lines.append(f"{i},{a},{b},{int(d)},{outcomes}\n")
        assert_same_csv(rounds_to_csv(rounds), "".join(lines))

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
            ("json", "1e118c7fd98811a42df5e864c7342a62bd2a3083d46f2c4cb7a1edb3ad36deeb"),
            ("csv", "eee9ccca5f28f5d43db1f7cb7208fd3a5123e8b5e6e3a604d54ba5ddc220952e"),
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
            "058c6b07a744c51031ae39981ca199174d1ce548018bfad923213a92c6dc834c"
        )

    def test_eve_audit_fields(self):
        payload = report_to_dict(run_session(lhv_config(0.5, seed=8008)))
        kept = (
            "chsh_estimate", "chsh_unconditioned", "verdict", "n_detected",
            "n_test_rounds", "n_key_rounds", "coincidence_rate",
        )
        text = json.dumps({k: payload[k] for k in kept}, sort_keys=True)
        assert self.sha256(text) == (
            "30e119d447e12603fd2285c27110a79d11bc34bb4ce84af48f5dc637c2804fd8"
        )

    @pytest.mark.parametrize(
        "model, digest",
        [
            (lambda: cosine_model(0.0), "df6906a364a392309e0aaa9ac946119797375c219db87d132e8b749687ab7e26"),
            (lambda: cosine_model(0.2), "6746ad2dc13cfccd4d916e1157c2c12ba4cafabefa9e1e15423c89e72a99e5d5"),
            (lambda: cosine_model(0.5), "16567bcd625db120c6a9f948988840f69a434c239f6734b2b7a029fa6ae6b33d"),
            (
                lambda: random_bounded_model(make_generator(4242)),
                "7d7d3221053c2115a604e55b4fab8f446f09b2df6e0e22f600c14b32d086da29",
            ),
        ],
        ids=["cosine-0", "cosine-0.2", "cosine-0.5", "random-trig"],
    )
    def test_eve_full_report(self, model, digest):
        config = QkdConfig(channel=LhvEveChannel(model=model()), n_rounds=20_000, seed=8008)
        text = json.dumps(report_to_dict(run_session(config)), sort_keys=True)
        assert self.sha256(text) == digest


LOG_COLUMNS = ("a_idx", "b_idx", "detected", "s_a", "s_b")


@st.composite
def rounds_and_chunk(draw):
    """A session length in [1000, 5000], then a session chunk size and a CSV block
    size, each in [1, n + 1] and often a divisor of n."""
    n = draw(st.integers(1000, 5000))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    sizes = st.one_of(st.integers(1, n + 1), st.sampled_from(divisors))
    return n, draw(sizes), draw(sizes)


class TestChunkedSessions:
    """run_session walks the rounds in chunks and rounds_to_csv the log in blocks;
    neither size may show."""

    @settings(max_examples=25, deadline=None)
    @given(rounds_and_chunk(), st.sampled_from(["quantum", "eve"]), st.integers(0, 2**64 - 1))
    @example((1000, 1, 1000), "quantum", 0)
    @example((4096, 1024, 1), "eve", 1)
    @example((5000, 4999, 5001), "quantum", 2)
    @example((5000, 5000, 4999), "eve", 3)
    def test_chunk_size_changes_nothing(self, n_and_chunk, channel, seed):
        n, chunk, block = n_and_chunk
        config = quantum_config(0.7, n, seed) if channel == "quantum" else lhv_config(0.5, n, seed)
        with mock.patch.object(qkd, "_CHUNK", n):
            whole, whole_log = run_session(config, return_rounds=True)
        with mock.patch.object(qkd, "_CHUNK", chunk):
            report, log = run_session(config, return_rounds=True)
        assert report == whole
        # numpy.float64 would compare equal but change the report's repr
        assert type(report.qber) is float and type(report.coincidence_rate) is float
        for name in LOG_COLUMNS:
            column, expected = getattr(log, name), getattr(whole_log, name)
            assert column.dtype == expected.dtype
            assert np.array_equal(column, expected)
        with mock.patch.object(qkd, "_CSV_BLOCK", n):
            whole_csv = rounds_to_csv(whole_log)
        with mock.patch.object(qkd, "_CSV_BLOCK", block):
            assert_same_csv(rounds_to_csv(log), whole_csv)

    @staticmethod
    def fresh_interpreter(code: str) -> list[str]:
        """Run ``code`` in a new Python process on this checkout; its stdout fields."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
        )
        return result.stdout.split()

    MEMORY_PROBE = (
        "import resource\n"
        "from bellspace.qkd import MAX_ROUNDS, QkdConfig, QuantumLocalizedChannel, run_session\n"
        "config = QkdConfig(channel=QuantumLocalizedChannel(0.9), n_rounds=MAX_ROUNDS, seed=5)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "report = run_session(config)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(report.n_rounds, (after - before) / 1024)\n"
    )

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
    def test_longest_session_memory(self):
        # one session at the round cap, in a fresh interpreter so that no earlier
        # test has already raised the peak; materializing it would take ~640 MB
        n_rounds, growth_mb = self.fresh_interpreter(self.MEMORY_PROBE)
        assert int(n_rounds) == qkd.MAX_ROUNDS
        assert float(growth_mb) <= 64.0

    LOG_MEMORY_PROBE = (
        "import resource\n"
        "from bellspace.qkd import QkdConfig, QuantumLocalizedChannel, rounds_to_csv, run_session\n"
        "config = QkdConfig(channel=QuantumLocalizedChannel(0.9), n_rounds=10**6, seed=5)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "_, rounds = run_session(config, return_rounds=True)\n"
        "text = rounds_to_csv(rounds)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(text.count('\\n'), (after - before) / 1024)\n"
    )

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
    def test_logged_session_memory(self):
        # the five log columns take 19 MB, the CSV text ~20 MB and the copy that
        # joins its blocks as much again; the matrix of one block is small
        n_lines, growth_mb = self.fresh_interpreter(self.LOG_MEMORY_PROBE)
        assert int(n_lines) == 10**6 + 1
        assert float(growth_mb) <= 80.0


class SpyChannel:
    """Detects every round and records what it draws from each stream; the
    Alice stream gives two uniforms a round, as a per-wing click would need."""

    def __init__(self):
        self.drawn = {"channel": [], "alice": [], "bob": []}

    def sample(self, pairs, cell, rng_channel, rng_alice, rng_bob):
        n = cell.size
        self.drawn["channel"].append(rng_channel.random(n))
        self.drawn["alice"].append(rng_alice.random((n, 2)).ravel())
        self.drawn["bob"].append(rng_bob.random(n))
        ones = np.ones(n, dtype=np.int8)
        return np.ones(n, dtype=bool), ones, -ones


class TestSessionStreams:
    """run_session gives the setting cells, the channel and each wing its own stream."""

    def test_streams_share_no_draws(self):
        spy = SpyChannel()
        run_session(QkdConfig(channel=spy, n_rounds=1000, seed=1))
        drawn = {name: np.concatenate(parts) for name, parts in spy.drawn.items()}
        assert drawn["alice"].size == 2000
        for first, second in (("channel", "alice"), ("channel", "bob"), ("alice", "bob")):
            assert np.intersect1d(drawn[first], drawn[second]).size == 0, (first, second)

    def test_setting_cells_equally_likely(self):
        n = 100_000
        _, rounds = run_session(quantum_config(0.7, n), return_rounds=True)
        counts = np.zeros((3, 3), dtype=np.int64)
        np.add.at(counts, (rounds.a_idx, rounds.b_idx), 1)
        sigma = math.sqrt(n * (1 / 9) * (8 / 9))
        assert np.all(np.abs(counts - n / 9) <= 5 * sigma), counts
