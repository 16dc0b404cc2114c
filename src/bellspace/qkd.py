"""Two-particle entanglement-based key distribution with localized detectors.

Each round the source emits a singlet pair; Alice and Bob draw independent
uniform settings from three directions each and measure.  :func:`run_session`
draws all settings, then the channel's ``sample`` method, its one vectorized
rule, produces every round's detection and outcomes.  The quantum channel
registers a coincidence with probability g (the localization factor of the
detector regions) and, conditioned on detection, produces full singlet
statistics.  The eavesdropper channel replaces the pair by a local
hidden-variable model: lambda plays the role of Eve, every round is detected,
and outcomes come from the model's bounded responses, Bob's sign negated so
that, like the singlet's, her raw correlations are -E[xi * eta].

After the public announcement of settings, rounds split into key rounds
(equal angles on both wings), test rounds (the four configured CHSH setting
pairs) and discarded rounds.  Bob flips all of his announced outcomes: the
physical singlet anticorrelates at equal angles (E = -cos(alpha - beta) with
both wings measuring along (cos, 0, sin)), so the flip makes matched-round
key bits agree and turns the test-round correlations into +cos(alpha -
beta).  A cosine-model Eve therefore errs on (1 - g)/2 of the key bits.
Each CHSH pair additionally carries an explicit sign with which its
correlation enters the statistic; the default grids need signs (+,-,+,-) to
map Bob's 3*pi/4 setting onto the canonical -pi/4 slot (cos(x - 3*pi/4) =
-cos(x + pi/4)).

The session report carries the conditioned CHSH estimate (post-selected on
coincidences, which restores full singlet statistics and drives the verdict)
and the unconditioned one (non-coincidences counted as outcome product 0),
whose expectation is g*cos(alpha - beta): the g-scaled correlation law made
empirical.  Whether post-selected statistics legitimately certify security
when g <= 1/2 is exactly the fair-sampling question; the report shows both
numbers and takes no side.

``return_rounds=True`` adds the per-round log as numpy columns
(:class:`RoundLog`), which builds :class:`RoundRecord` rows only on access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from .config import ConfigError, param, reject_unknown
from .lhv import _BOUND_SLACK, HiddenVariableModel, ResponseFn, cosine_model
from .rng import split_generators
from .spatial import SpatialSetup, setup_from_dict, setup_g_factor
from .spin import TWO_PI, OutcomePair, as_angle
from .spin import detectability_threshold_report  # re-exported: the QKD regimes of g

SECURE = "secure"
EVE_DETECTED = "eve_detected"
INCONCLUSIVE = "inconclusive"

#: Minimum detected test rounds per CHSH pair for a statistically usable S.
MIN_TEST_ROUNDS_PER_PAIR = 50
#: Largest session: peak RSS grows ~63 MB per 10^6 rounds (~110 MB with the
#: round log), so a 10^7-round session stays under ~1.2 GB either way.
MAX_ROUNDS = 10_000_000

_ANGLE_MATCH_TOL = 1e-12


Rng = np.random.Generator
#: A channel's per-round output: (detected, s_a, s_b).
Draws = tuple[np.ndarray, np.ndarray, np.ndarray]


@runtime_checkable
class ChannelModel(Protocol):
    """A channel: one vectorized sampling rule.

    ``sample`` gets every round's setting angles and returns (detected, s_a,
    s_b): physical (unflipped) +-1 outcomes on every round, lost or not.
    ``rng_channel`` drives detection or the hidden variable; ``rng_signs``
    gives two uniforms per round, all of Alice's, then all of Bob's.
    """

    def sample(
        self, alice_theta: np.ndarray, bob_theta: np.ndarray, rng_channel: Rng, rng_signs: Rng
    ) -> Draws: ...


@dataclass(frozen=True)
class QuantumLocalizedChannel:
    """Singlet channel with joint-detection probability g."""

    g: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.g <= 1.0:
            raise ValueError(f"detection probability g={self.g!r} outside [0, 1]")

    @classmethod
    def from_setup(cls, setup: SpatialSetup, t: float = 0.0) -> "QuantumLocalizedChannel":
        """Derive g from a spatial packet/region setup at time t."""
        return cls(g=setup_g_factor(setup, t).g)

    def sample(
        self, alice_theta: np.ndarray, bob_theta: np.ndarray, rng_channel: Rng, rng_signs: Rng
    ) -> Draws:
        """Coincidences with probability g, singlet outcomes on every round.

        Both wings measure along (cos t, 0, sin t), so a . b = cos(alpha -
        beta): s_a is a fair coin and s_b equals s_a with probability
        (1 - a . b)/2, giving E[s_a * s_b] = -cos(alpha - beta) and exact
        anticorrelation at equal angles.
        """
        n = alice_theta.size
        detected = rng_channel.random(n) < self.g
        dot = np.cos(alice_theta - bob_theta)
        s_a = np.where(rng_signs.random(n) < 0.5, 1, -1)
        s_b = np.where(rng_signs.random(n) < (1.0 - dot) / 2.0, s_a, -s_a)
        return detected, s_a, s_b

    @classmethod
    def from_dict(cls, data: dict) -> "QuantumLocalizedChannel":
        """Channel from ``g``, or from a separated-Gaussian ``setup`` block and time ``t``."""
        reject_unknown(data, {"variant", "g", "setup", "t"}, "channel")
        if ("g" in data) == ("setup" in data):
            raise ConfigError("quantum_localized channel needs either g or setup")
        t = param(data, "t", 0.0)
        if "g" in data:
            return cls(g=param(data, "g", None))
        return cls.from_setup(setup_from_dict(data["setup"]), t)


def _responses(fn: ResponseFn, theta: np.ndarray, lam: np.ndarray, name: str) -> np.ndarray:
    """fn at every round's angle in one broadcast call, bound-checked."""
    values = np.asarray(fn(theta, lam))
    if values.shape != lam.shape:
        raise ValueError(f"response {name} gave shape {values.shape} for {lam.shape} rounds")
    if not np.all(np.abs(values) <= 1.0 + _BOUND_SLACK):
        worst = float(np.max(np.abs(values)))
        raise ValueError(f"response {name} exceeds the unit bound: max |{name}| = {worst!r}")
    return values


@dataclass(frozen=True)
class LhvEveChannel:
    """Channel controlled by a hidden-variable model (Eve = lambda)."""

    model: HiddenVariableModel

    def sample(
        self, alice_theta: np.ndarray, bob_theta: np.ndarray, rng_channel: Rng, rng_signs: Rng
    ) -> Draws:
        """One lambda per round, every round detected.

        s_a is +1 with probability (1 + xi)/2; independently Bob's sign is -1
        with probability (1 + eta)/2.  Negating Bob's sign gives the singlet's
        convention, E[s_a * s_b] = -E[xi * eta], so after Bob's public flip the
        key bits agree exactly as often as the model correlates.  Raises
        ValueError if any response value leaves [-1, 1].
        """
        n = alice_theta.size
        lam = rng_channel.uniform(0.0, TWO_PI, n)
        xi = _responses(self.model.xi, alice_theta, lam, "xi")
        eta = _responses(self.model.eta, bob_theta, lam, "eta")
        s_a = np.where(rng_signs.random(n) < (1.0 + xi) / 2.0, 1, -1)
        s_b = np.where(rng_signs.random(n) < (1.0 + eta) / 2.0, -1, 1)
        return np.ones(n, dtype=bool), s_a, s_b

    @classmethod
    def from_dict(cls, data: dict) -> "LhvEveChannel":
        reject_unknown(data, {"variant", "model", "g"}, "channel")
        if data.get("model") != "cosine":
            raise ConfigError("only the 'cosine' hidden-variable model is supported in JSON")
        return cls(model=cosine_model(param(data, "g", None)))


_CHANNEL_VARIANTS = {"quantum_localized": QuantumLocalizedChannel, "lhv_eve": LhvEveChannel}


@dataclass(frozen=True)
class ChshPair:
    """One test-round setting combination and the sign of its correlation.

    ``sign`` multiplies the measured (Bob-flipped) correlation before it
    enters the CHSH statistic; -1 realizes angle relabelings like
    3*pi/4 -> -pi/4 that flip the cosine.
    """

    alice_idx: int
    bob_idx: int
    sign: int = 1

    def __post_init__(self) -> None:
        if self.alice_idx not in (0, 1, 2) or self.bob_idx not in (0, 1, 2):
            raise ValueError("setting indices must be 0, 1 or 2")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


def _angles_match(a: float, b: float) -> bool:
    diff = (a - b) % TWO_PI
    return min(diff, TWO_PI - diff) < _ANGLE_MATCH_TOL


@dataclass(frozen=True)
class QkdConfig:
    """Full session specification; deterministic given the seed.

    The default ``chsh_pairs`` are the canonical quadruple (pi/2, 0) x
    (pi/4, -pi/4) inside the default grids; Bob's -pi/4 is his 3*pi/4
    setting with sign -1.
    """

    channel: ChannelModel
    n_rounds: int = 100_000
    alice_angles: tuple[float, float, float] = (0.0, math.pi / 4, math.pi / 2)
    bob_angles: tuple[float, float, float] = (math.pi / 4, math.pi / 2, 3 * math.pi / 4)
    chsh_pairs: tuple[ChshPair, ...] = (
        ChshPair(2, 0, 1), ChshPair(2, 2, -1), ChshPair(0, 0, 1), ChshPair(0, 2, -1)
    )
    alarm_sigma: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alice_angles", tuple(map(as_angle, self.alice_angles)))
        object.__setattr__(self, "bob_angles", tuple(map(as_angle, self.bob_angles)))
        if len(self.alice_angles) != 3 or len(self.bob_angles) != 3:
            raise ValueError("each wing needs exactly three setting angles")
        if not isinstance(self.n_rounds, int) or not 1000 <= self.n_rounds <= MAX_ROUNDS:
            raise ValueError(
                f"n_rounds must be an integer in [1000, {MAX_ROUNDS}], got {self.n_rounds!r}"
            )
        if not self.alarm_sigma > 0:
            raise ValueError("alarm_sigma must be positive")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an integer in [0, 2^64)")
        pairs = tuple(self.chsh_pairs)
        if len(pairs) != 4 or not all(isinstance(p, ChshPair) for p in pairs):
            raise ValueError("chsh_pairs must be exactly four ChshPair entries")
        for pair in pairs:
            if _angles_match(
                self.alice_angles[pair.alice_idx], self.bob_angles[pair.bob_idx]
            ):
                raise ValueError(
                    f"CHSH pair {pair} uses matched angles; those rounds are key rounds"
                )
        object.__setattr__(self, "chsh_pairs", pairs)
        if not isinstance(self.channel, ChannelModel):
            raise ValueError(f"unsupported channel {self.channel!r}")


@dataclass(frozen=True)
class RoundRecord:
    """A single protocol round; outcomes are present exactly when detected."""

    alice_setting: int
    bob_setting: int
    detected: bool
    outcomes: OutcomePair | None

    def __post_init__(self) -> None:
        if self.detected != (self.outcomes is not None):
            raise ValueError("outcomes must be present exactly when detected")


@dataclass(frozen=True, eq=False)
class RoundLog:
    """Per-round session log as numpy columns.

    ``s_a`` and ``s_b`` are the physical (unflipped) int8 outcomes, 0 where the
    round was lost.  ``len()``, indexing and iteration yield
    :class:`RoundRecord` rows, built on demand.
    """

    a_idx: np.ndarray
    b_idx: np.ndarray
    detected: np.ndarray
    s_a: np.ndarray
    s_b: np.ndarray

    def __len__(self) -> int:
        return self.a_idx.size

    def __getitem__(self, i: int) -> RoundRecord:
        detected = bool(self.detected[i])
        outcomes = OutcomePair(int(self.s_a[i]), int(self.s_b[i])) if detected else None
        return RoundRecord(int(self.a_idx[i]), int(self.b_idx[i]), detected, outcomes)

    def __iter__(self) -> Iterator[RoundRecord]:
        return (self[i] for i in range(len(self)))


@dataclass(frozen=True)
class ChshEstimate:
    """A CHSH statistic with its standard error."""

    s_value: float
    std_error: float


@dataclass(frozen=True)
class QkdSessionReport:
    """Everything the parties learn from one session."""

    sifted_key_alice: str
    sifted_key_bob: str
    qber: float | None
    chsh_estimate: ChshEstimate
    chsh_unconditioned: ChshEstimate
    verdict: str
    coincidence_rate: float
    n_rounds: int
    n_detected: int
    n_key_rounds: int
    n_test_rounds: tuple[int, int, int, int]


def decide_verdict(s_value: float, std_error: float, k: float) -> str:
    """Classify a CHSH estimate against the classical bound 2.

    Secure when the k-sigma interval lies entirely above 2; Eve detected when
    it lies entirely below 2; inconclusive when it straddles the bound.
    """
    if std_error < 0:
        raise ValueError("std_error must be nonnegative")
    if s_value - k * std_error > 2.0:
        return SECURE
    if s_value + k * std_error < 2.0:
        return EVE_DETECTED
    return INCONCLUSIVE


def _pair_estimate(products: np.ndarray) -> tuple[float, float, int]:
    n = products.size
    if n == 0:
        return 0.0, math.inf, 0
    mean = float(np.mean(products))
    std_error = float(np.std(products, ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return mean, std_error, n


def _chsh_from_pairs(
    estimates: list[tuple[float, float]], signs: Sequence[int]
) -> ChshEstimate:
    p = [sign * mean for (mean, _), sign in zip(estimates, signs)]
    s_value = abs(p[0] - p[1]) + abs(p[2] + p[3])
    std_error = math.sqrt(sum(se * se for _, se in estimates))
    return ChshEstimate(s_value=s_value, std_error=std_error)


def run_session(
    config: QkdConfig, return_rounds: bool = False
) -> QkdSessionReport | tuple[QkdSessionReport, RoundLog]:
    """Simulate a full session: rounds, sifting, CHSH audit, verdict.

    Three independent generator streams (settings, channel, outcome signs)
    are split from the seed.  All settings are drawn first, then the channel
    samples every round at once, so reports are bit-reproducible for a fixed
    config.  ``return_rounds=True`` adds the per-round :class:`RoundLog`.
    """
    n = config.n_rounds
    rng_settings, rng_channel, rng_signs = split_generators(config.seed, 3)

    a_idx = rng_settings.integers(0, 3, n)
    b_idx = rng_settings.integers(0, 3, n)
    alice_theta = np.asarray(config.alice_angles)[a_idx]
    bob_theta = np.asarray(config.bob_angles)[b_idx]

    detected, s_a, s_b = config.channel.sample(alice_theta, bob_theta, rng_channel, rng_signs)
    s_a = np.where(detected, s_a, 0).astype(np.int8)
    s_b = np.where(detected, s_b, 0).astype(np.int8)
    # Bob's public flip: physical singlet outcomes anticorrelate at matched
    # angles, so flipped bits agree and test correlations become +cos.
    s_b_flipped = -s_b

    angle_matched = np.array(
        [[_angles_match(a, b) for b in config.bob_angles] for a in config.alice_angles]
    )
    key_mask = detected & angle_matched[a_idx, b_idx]

    alice_bits = (1 + s_a[key_mask]) // 2
    bob_bits = (1 + s_b_flipped[key_mask]) // 2
    n_key = int(key_mask.sum())
    qber = float(np.mean(alice_bits != bob_bits)) if n_key > 0 else None

    products = (s_a.astype(np.int32) * s_b_flipped.astype(np.int32)).astype(float)
    conditioned: list[tuple[float, float]] = []
    unconditioned: list[tuple[float, float]] = []
    n_test: list[int] = []
    for pair in config.chsh_pairs:
        combo = (a_idx == pair.alice_idx) & (b_idx == pair.bob_idx)
        mean, se, count = _pair_estimate(products[combo & detected])
        conditioned.append((mean, se))
        n_test.append(count)
        mean_u, se_u, _ = _pair_estimate(products[combo])
        unconditioned.append((mean_u, se_u))

    signs = [pair.sign for pair in config.chsh_pairs]
    chsh_cond = _chsh_from_pairs(conditioned, signs)
    chsh_uncond = _chsh_from_pairs(unconditioned, signs)

    if min(n_test) < MIN_TEST_ROUNDS_PER_PAIR:
        verdict = INCONCLUSIVE
    else:
        verdict = decide_verdict(
            chsh_cond.s_value, chsh_cond.std_error, config.alarm_sigma
        )

    report = QkdSessionReport(
        sifted_key_alice=_bit_string(alice_bits),
        sifted_key_bob=_bit_string(bob_bits),
        qber=qber,
        chsh_estimate=chsh_cond,
        chsh_unconditioned=chsh_uncond,
        verdict=verdict,
        coincidence_rate=float(np.mean(detected)),
        n_rounds=n,
        n_detected=int(detected.sum()),
        n_key_rounds=n_key,
        n_test_rounds=tuple(n_test),  # type: ignore[arg-type]
    )
    if not return_rounds:
        return report
    return report, RoundLog(a_idx, b_idx, detected, s_a, s_b)


def _bit_string(bits: np.ndarray) -> str:
    """0/1 array as a string of '0'/'1' characters."""
    return (bits + ord("0")).astype(np.uint8).tobytes().decode("ascii")


def rounds_to_csv(rounds: RoundLog) -> str:
    """Per-round log: round, a_idx, b_idx, detected, s_a, s_b (blank if lost).

    Built without a per-row loop: each row is the round number's digits
    followed by one of the few possible ``,a,b,d,s_a,s_b`` tails, laid out in
    a NUL-padded byte matrix whose padding is then dropped.
    """
    n = len(rounds)
    tails = [
        f",{a},{b},{d},{s_a or ''},{s_b or ''}\n"
        for a in range(3)
        for b in range(3)
        for d in range(2)
        for s_a in (-1, 0, 1)
        for s_b in (-1, 0, 1)
    ]
    tail_bytes = np.array(tails, dtype="S").view(np.uint8).reshape(len(tails), -1)
    code = (
        ((rounds.a_idx * 3 + rounds.b_idx) * 2 + rounds.detected) * 3 + rounds.s_a + 1
    ) * 3 + rounds.s_b + 1
    width = len(str(n - 1))
    cells = np.zeros((n, width + tail_bytes.shape[1]), dtype=np.uint8)
    number = np.arange(n)
    for p in range(width):
        # rows from 10**p on have a digit at place p; row 0 still needs its "0"
        first = 10**p if p else 0
        cells[first:, width - 1 - p] = ord("0") + number[first:] // 10**p % 10
    cells[:, width:] = tail_bytes[code]
    body = cells[cells != 0].tobytes().decode("ascii")
    return "round,a_idx,b_idx,detected,s_a,s_b\n" + body


# --- JSON config reading ----------------------------------------------------


def _channel_from_dict(data: dict) -> ChannelModel:
    variant = param(data, "variant", None, str)
    if variant not in _CHANNEL_VARIANTS:
        raise ConfigError(f"unknown channel variant {variant!r}")
    return _CHANNEL_VARIANTS[variant].from_dict(data)


def config_from_dict(data: dict) -> QkdConfig:
    """Session config from its JSON form; any malformed input raises ValueError.

    ``n_rounds``, ``seed`` and the ``chsh_pairs`` entries ([alice_idx, bob_idx]
    or [alice_idx, bob_idx, sign]) are JSON integers; omitted keys take the
    :class:`QkdConfig` defaults.
    """
    reject_unknown(data, {f.name for f in fields(QkdConfig)}, "QKD config")
    kwargs = {
        key: param(data, key, like, kind)
        for key, like, kind in (
            ("n_rounds", 0, int),
            ("seed", 0, int),
            ("alarm_sigma", 0.0, float),
            ("alice_angles", [], float),
            ("bob_angles", [], float),
            ("chsh_pairs", [[]], int),
        )
        if key in data
    }
    if "chsh_pairs" in kwargs:
        if not all(2 <= len(p) <= 3 for p in kwargs["chsh_pairs"]):
            raise ConfigError("each chsh_pairs entry is [alice_idx, bob_idx(, sign)]")
        kwargs["chsh_pairs"] = [ChshPair(*p) for p in kwargs["chsh_pairs"]]
    return QkdConfig(channel=_channel_from_dict(param(data, "channel", None, dict)), **kwargs)
