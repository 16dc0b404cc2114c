"""Key-distribution session tests: channels, sifting, CHSH audit, verdicts."""

import hashlib
import itertools
import json
import math
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellspace import qkd
from bellspace.cli import config_from_dict, main, report_to_dict

from bellspace.lhv import HiddenVariableModel, cosine_model, random_bounded_model
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
    as_angle,
    chsh_statistic,
    detectability_threshold_report,
)

SQRT2 = math.sqrt(2.0)


def quantum_config(g: float, n: int = 100_000, seed: int = 2024) -> QkdConfig:
    return QkdConfig(channel=QuantumLocalizedChannel(g=g), n_rounds=n, seed=seed)


def lhv_config(g: float, n: int = 100_000, seed: int = 2024) -> QkdConfig:
    return QkdConfig(channel=LhvEveChannel(model=cosine_model(g)), n_rounds=n, seed=seed)


def sample_rounds(channel, alpha, beta, n, seed):
    """(detected, s_a, s_b) from a channel at fixed angles: one pair, n rounds in its cell;
    detected means both wings clicked."""
    pairs = np.array([[alpha, beta]])
    s_a, s_b = channel.sample(pairs, np.zeros(n, dtype=np.intp), *split_generators(seed, 3))
    return (s_a != 0) & (s_b != 0), s_a, s_b


def log_of(a_idx, b_idx, s_a, s_b):
    """A RoundLog of the given columns: each round's row code 9 * (3 * a_idx + b_idx)
    + 3 * s_a + s_b + 4."""
    a_idx, b_idx, s_a, s_b = (np.asarray(v, dtype=np.int64) for v in (a_idx, b_idx, s_a, s_b))
    return RoundLog((9 * (3 * a_idx + b_idx) + 3 * s_a + s_b + 4).astype(np.uint8))


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

    def test_conditional_correlation_generic_settings(self):
        detected, s_a, s_b = sample_rounds(QuantumLocalizedChannel(0.7), 0.0, 1.0, 60_000, 313)
        expected = -math.cos(1.0)
        products = (s_a * s_b)[detected]
        mean = float(np.mean(products))
        assert abs(mean - expected) < 4 * math.sqrt((1 - expected**2) / products.size)

    def test_g_validation(self):
        with pytest.raises(ValueError):
            QuantumLocalizedChannel(1.5)


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


class WingClickChannel:
    """Test-only singlet channel whose wings click independently: Alice with
    probability p_a and Bob with p_b, each from a second uniform on its own stream."""

    def __init__(self, p_a=0.9, p_b=0.6):
        self.p_a, self.p_b = p_a, p_b

    def sample(self, pairs, cell, rng_channel, rng_alice, rng_bob):
        n = cell.size
        p_same = (1.0 - np.cos(pairs[:, 0] - pairs[:, 1])) / 2.0
        alice, bob = rng_alice.random((n, 2)), rng_bob.random((n, 2))
        s_a = np.where(alice[:, 0] < 0.5, 1, -1).astype(np.int8)
        s_b = s_a * np.where(bob[:, 0] < p_same[cell], 1, -1).astype(np.int8)
        return s_a * (alice[:, 1] < self.p_a), s_b * (bob[:, 1] < self.p_b)

    def behaviour(self, pairs):
        """The singlet's coincidence law, each wing's sign then kept with its click
        probability p and turned into 0 (no click) with 1 - p."""
        keep = [p * np.eye(3) + np.outer(np.ones(3), [0, 1 - p, 0]) for p in (self.p_a, self.p_b)]
        return np.einsum("cxy,xu,yv->cuv", QuantumLocalizedChannel(1.0).behaviour(pairs), *keep)


#: One channel of each kind, each declaring its exact law ``behaviour(pairs)``.
CHANNELS = {
    **{f"quantum-{g}": (lambda g=g: QuantumLocalizedChannel(g)) for g in (0.0, 0.3, 0.8, 1.0)},
    "cosine-eve-0": lambda: LhvEveChannel(cosine_model(0.0)),
    "cosine-eve-0.5": lambda: LhvEveChannel(cosine_model(0.5)),
    "random-eve": lambda: LhvEveChannel(random_bounded_model(make_generator(4242))),
    # responses with nonzero means, which cosine and random-trig models never have
    "biased-eve": lambda: LhvEveChannel(HiddenVariableModel(
        xi=lambda a, lam: 0.5 + 0.4 * np.cos(a - lam),
        eta=lambda b, lam: 0.6 * np.cos(b - 2 * lam) - 0.3,
    )),
    "single-clicks": WingClickChannel,
}


class TestCellSampling:
    """A channel given a pair table and cells draws as if each round had its own pair."""

    @settings(max_examples=80, deadline=None)
    @given(
        pair_tables(), st.integers(1, 400), st.sampled_from(sorted(CHANNELS)),
        st.integers(0, 2**64 - 1),
    )
    def test_cells_match_per_round_pairs(self, pairs, n, channel, seed):
        cell = make_generator(seed).integers(0, len(pairs), n)
        sampler = CHANNELS[channel]()
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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(PAIR_ANGLES, min_size=6, max_size=6),
           st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from([1, -1])),
                    min_size=4, max_size=4))
    @example([0.0, math.pi / 4, math.pi / 2, math.pi / 4, math.pi / 2, 3 * math.pi / 4],
             [(2, 0, 1), (2, 2, -1), (0, 0, 1), (0, 2, -1)])  # the default: accepted
    @example([0.0, math.pi / 4, math.pi / 2, math.pi / 4, math.pi / 2, 3 * math.pi / 4],
             [(2, 0, 1), (2, 2, 1), (0, 0, 1), (0, 2, 1)])  # the textbook pairs, no signs
    def test_accepted_configs_can_certify(self, angles, pairs):
        # the ideal singlet's flipped correlations are sign * cos(alpha - beta)
        chsh = tuple(ChshPair(*p) for p in pairs)
        alice, bob = [as_angle(a) for a in angles[:3]], [as_angle(b) for b in angles[3:]]
        ideal = chsh_statistic(
            *(p.sign * math.cos(alice[p.alice_idx] - bob[p.bob_idx]) for p in chsh))
        try:
            QkdConfig(channel=QuantumLocalizedChannel(0.5), alice_angles=alice,
                      bob_angles=bob, chsh_pairs=chsh)
        except ValueError as exc:
            assert "matched angles" in str(exc) or ideal <= 2.0 + 1e-12, exc
        else:
            assert ideal > 2.0

    def test_round_record_consistency(self):
        # detected is derived: true exactly when outcomes are present
        assert RoundRecord(0, 0, OutcomePair(1, -1)).detected is True
        assert RoundRecord(2, 1, None).detected is False


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

    @pytest.mark.parametrize(
        "n",
        [
            1, 9, 10, 11, 81, 99_999, 100_000, 100_001,
            qkd._CSV_BLOCK - 1, qkd._CSV_BLOCK, qkd._CSV_BLOCK + 1,
        ],
    )
    def test_rounds_csv_matches_plain_formatter(self, n):
        # row numbers that gain a digit and logs that end at a block edge; one log
        # loses both wings at once, one has single clicks (one sign blank), and one
        # runs through all 81 row codes in turn (each once at n = 81)
        rng = make_generator(n)
        detected = rng.random(n) < 0.7
        signs = (2 * rng.integers(0, 2, (2, n)) - 1).astype(np.int8) * detected
        a_idx, b_idx = rng.integers(0, 3, n), rng.integers(0, 3, n)
        single_clicks = signs * (rng.random((2, n)) < 0.7)
        every_code = np.resize(list(itertools.product(
            range(3), range(3), (-1, 0, 1), (-1, 0, 1))), (n, 4)).T
        for columns in ((a_idx, b_idx, *signs), (a_idx, b_idx, *single_clicks), every_code):
            lines = ["round,a_idx,b_idx,detected,s_a,s_b\n"]
            for i, (a, b, x, y) in enumerate(zip(*(v.tolist() for v in columns))):
                lines.append(f"{i},{a},{b},{int(x != 0 and y != 0)},{x or ''},{y or ''}\n")
            log = log_of(*columns)
            assert_same_csv(rounds_to_csv(log), "".join(lines))
            for name, column in zip(("a_idx", "b_idx", "s_a", "s_b"), columns):
                assert np.array_equal(getattr(log, name), column), name

    def test_single_click_rows(self):
        # a wing that did not click leaves its sign blank, and the row is not detected
        rounds = log_of([0, 1, 2, 2], [2, 0, 1, 1], [1, 0, -1, 0], [0, -1, 1, 0])
        assert rounds_to_csv(rounds) == (
            "round,a_idx,b_idx,detected,s_a,s_b\n0,0,2,0,1,\n1,1,0,0,,-1\n2,2,1,1,-1,1\n3,2,1,0,,\n"
        )
        assert rounds.detected.tolist() == [False, False, True, False]
        assert [r.outcomes for r in rounds] == [None, None, OutcomePair(-1, 1), None]
        assert not any(r.detected for r in (rounds[0], rounds[1], rounds[3]))

    def test_round_log_columns_and_rows(self):
        report, rounds = run_session(quantum_config(0.5, n=2_000, seed=19), return_rounds=True)
        assert len(rounds) == 2_000
        assert rounds.code.dtype == np.uint8 and rounds.code.nbytes == 2_000
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
            # explicit ids, so that re-pinning a digest does not rename the test
            pytest.param(
                "json", "1e118c7fd98811a42df5e864c7342a62bd2a3083d46f2c4cb7a1edb3ad36deeb", id="json"
            ),
            pytest.param(
                "csv", "eee9ccca5f28f5d43db1f7cb7208fd3a5123e8b5e6e3a604d54ba5ddc220952e", id="csv"
            ),
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


LOG_COLUMNS = ("code", "a_idx", "b_idx", "detected", "s_a", "s_b")


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
    def test_longest_session_memory(self, fresh_interpreter):
        # one session at the round cap, in a fresh interpreter so that no earlier
        # test has already raised the peak; materializing it would take ~640 MB
        n_rounds, growth_mb = fresh_interpreter(self.MEMORY_PROBE)
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
    def test_logged_session_memory(self, fresh_interpreter):
        # the log's row codes take 1 MB, the CSV text ~20 MB and the copy that
        # joins its blocks as much again; the matrix of one block is small
        n_lines, growth_mb = fresh_interpreter(self.LOG_MEMORY_PROBE)
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
        return ones, -ones


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


class TestPerWingOutcomes:
    """A sign of 0 means that wing did not click; a coincidence has both signs."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(CHANNELS)), st.integers(1, 3001), st.integers(0, 2**64 - 1))
    @example("single-clicks", 1, 0)
    def test_81_cells_project_onto_the_report(self, channel, chunk, seed):
        config = QkdConfig(channel=CHANNELS[channel](), n_rounds=3000, seed=seed)
        with mock.patch.object(qkd, "_CHUNK", chunk):
            report, log = run_session(config, return_rounds=True)
        # every number but the keys and the verdict projects the tally of the log's codes,
        # whatever the chunks; masked_chsh is the projection's independent reference
        tally = np.bincount(log.code, minlength=81).reshape(9, 3, 3)
        pairs = np.array([(a, b) for a in config.alice_angles for b in config.bob_angles])
        for name, value in qkd.Behaviour(pairs, tally).project(config.chsh_pairs).items():
            assert getattr(report, name) == value, name
        # coincidences: both signs nonzero
        assert report.n_detected == int(log.detected.sum())

    def test_independent_wing_clicks(self):
        n, p_a, p_b = 200_000, 0.9, 0.6
        config = QkdConfig(channel=WingClickChannel(p_a, p_b), n_rounds=n, seed=31)
        report, log = run_session(config, return_rounds=True)
        clicked_a, clicked_b = log.s_a != 0, log.s_b != 0
        both = clicked_a & clicked_b
        single = clicked_a ^ clicked_b
        # n_detected counts coincidences only, not single clicks
        assert report.n_detected == int(both.sum())
        assert np.array_equal(log.detected, both)
        # key bits come from coincidences at matched angles, never from single clicks
        matched = np.array([abs(a - b) < 1e-12 for a in config.alice_angles
                            for b in config.bob_angles])
        in_key_cell = matched[3 * log.a_idx + log.b_idx]
        assert np.any(in_key_cell & single)
        key = in_key_cell & both
        assert report.n_key_rounds == int(key.sum())
        assert report.sifted_key_alice == "".join("1" if s > 0 else "0" for s in log.s_a[key])
        assert report.sifted_key_bob == "".join("1" if s < 0 else "0" for s in log.s_b[key])
        # the unconditioned CHSH counts a single click as product 0
        for key_name, conditioned in (("chsh_estimate", True), ("chsh_unconditioned", False)):
            assert getattr(report, key_name).s_value == masked_chsh(config, log, conditioned)[0]
        uncond = report.chsh_unconditioned
        assert abs(uncond.s_value - p_a * p_b * 2 * SQRT2) <= 5 * uncond.std_error
        # criterion 7's rows: a single-click row is not detected and has no outcomes
        row = log[int(np.flatnonzero(single)[0])]
        assert row.detected is False and row.outcomes is None


class TestChannelLaws:
    """Each channel's ``behaviour`` is a no-signalling law, and its sessions follow it."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(CHANNELS)), st.lists(PAIR_ANGLES, min_size=6, max_size=6))
    def test_law_is_a_no_signalling_distribution(self, name, angles):
        pairs = np.array([(a, b) for a in angles[:3] for b in angles[3:]])
        law = CHANNELS[name]().behaviour(pairs)
        assert law.shape == (9, 3, 3) and law.min() >= 0.0
        assert np.abs(law.sum(axis=(1, 2)) - 1.0).max() <= 1e-12
        # [a_idx, b_idx, s_a + 1, s_b + 1]: each wing's marginal ignores the other's setting
        alice, bob = law.reshape(3, 3, 3, 3).sum(axis=3), law.reshape(3, 3, 3, 3).sum(axis=2)
        assert np.abs(alice - alice[:, :1]).max() <= 1e-12
        assert np.abs(bob - bob[:1]).max() <= 1e-12

    @pytest.mark.parametrize("name", sorted(CHANNELS))
    def test_seeded_tally_follows_the_law(self, name):
        # generic angle differences (0.8, 1.6, 2.4) besides two matched cells
        n = 200_000
        config = QkdConfig(channel=CHANNELS[name](), n_rounds=n, seed=1607,
                           alice_angles=(0.0, 0.8, 1.6), bob_angles=(0.8, 1.6, 2.4))
        _, log = run_session(config, return_rounds=True)
        tally = np.bincount(log.code, minlength=81)
        pairs = np.array([(a, b) for a in config.alice_angles for b in config.bob_angles])
        p = config.channel.behaviour(pairs).ravel() / 9  # the nine cells are equally likely
        assert not tally[p == 0].any()
        assert np.all(np.abs(tally - n * p) <= 5 * np.sqrt(n * p * (1 - p)))


class TestWorkerThread:
    """Each chunk's fold but the last and the Eve channel's Alice wing run on the
    worker thread; neither may change what a session outputs or which error it
    raises."""

    def test_model_bad_on_both_wings_raises_the_xi_error(self, fast_thread_switching):
        # xi does more work than eta, so a wrong order of the two errors would show
        model = HiddenVariableModel(
            xi=lambda alpha, lam: 2.0 + np.cos(alpha - lam) ** 2,
            eta=lambda beta, lam: np.full_like(lam, 3.0),
        )
        config = QkdConfig(channel=LhvEveChannel(model), n_rounds=1000, seed=6)
        for _ in range(20):
            with pytest.raises(ValueError, match="response xi breaks the unit bound"):
                run_session(config)

    def test_repeated_sessions_give_identical_bytes(self, fast_thread_switching):
        configs = (quantum_config(0.7, 5000, seed=61), lhv_config(0.5, 5000, seed=62))
        outputs = []
        with mock.patch.object(qkd, "_CHUNK", 777):
            for _ in range(5):
                runs = [run_session(config, return_rounds=True) for config in configs]
                outputs.append([
                    (repr(report), [getattr(log, name).tobytes() for name in LOG_COLUMNS],
                     rounds_to_csv(log))
                    for report, log in runs
                ])
        assert all(output == outputs[0] for output in outputs[1:])

    @pytest.mark.parametrize("n_chunks", [1, 2, 3])
    def test_last_chunk_folds_on_the_caller(self, n_chunks):
        # a quantum session hands the worker every fold but the last one
        with mock.patch.object(qkd, "_CHUNK", 1000), \
                mock.patch.object(qkd, "on_worker", wraps=qkd.on_worker) as on_worker:
            report = run_session(quantum_config(0.7, 1000 * n_chunks, seed=63))
        assert on_worker.call_count == n_chunks - 1
        assert report == run_session(quantum_config(0.7, 1000 * n_chunks, seed=63))

    FORK_PROBE = (
        "import multiprocessing\n"
        "from bellspace.lhv import cosine_model\n"
        "from bellspace.qkd import LhvEveChannel, QkdConfig, run_session\n"
        "config = QkdConfig(channel=LhvEveChannel(cosine_model(0.5)), n_rounds=1000, seed=9)\n"
        "def child(queue):\n"
        "    queue.put(run_session(config))\n"
        "report = run_session(config)\n"
        "context = multiprocessing.get_context('fork')\n"
        "queue = context.Queue()\n"
        "# a daemon, so that a child that hangs is ended when this process exits\n"
        "process = context.Process(target=child, args=(queue,), daemon=True)\n"
        "process.start()\n"
        "forked = queue.get(timeout=60)\n"
        "process.join(60)\n"
        "print(forked == report, process.is_alive(), process.exitcode)\n"
    )

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_runs_a_session(self, fresh_interpreter):
        # the child inherits the parent's worker pool but not its thread
        equal, alive, exitcode = fresh_interpreter(self.FORK_PROBE)
        assert (equal, alive, exitcode) == ("True", "False", "0")
