"""Two-particle entanglement-based key distribution with localized detectors.

Each round the source emits a singlet pair; Alice and Bob draw independent
uniform settings from three directions each and measure.  :func:`run_session`
walks the rounds in fixed chunks: it draws each chunk's setting cells, then
the channel's ``sample`` method, its one vectorized rule, produces that
chunk's detection and outcomes from the table of the nine setting pairs and
each round's cell (row) in it, and only the chunk's tally and key bits are
kept.  Cells, channel and each wing's signs have their own spawned stream,
read in round order, so a session draws the same numbers as if it were
sampled in one piece and the chunk size never shows in the output.
The quantum channel registers a coincidence with probability g (the
localization factor of the detector regions) and, conditioned on detection,
produces full singlet statistics.  The eavesdropper channel replaces the
pair by a local hidden-variable model: lambda plays the role of Eve, every
round is detected, and outcomes come from the model's bounded responses,
Bob's sign negated so that, like the singlet's, her raw correlations are
-E[xi * eta].

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
empirical.  Both come from per-pair integer counts of the products -1, 0 and
+1, so their standard errors are exact to rounding.  Whether post-selected
statistics certify security when g <= 1/2 is the fair-sampling question; the
report shows both numbers and takes no side.

``return_rounds=True`` adds the per-round log as numpy columns
(:class:`RoundLog`), which builds :class:`RoundRecord` rows only on access;
only this log grows with the session.  :func:`rounds_to_csv` writes it in
blocks of rows, so besides the columns only the CSV text itself grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from .lhv import HiddenVariableModel, response_values
from .rng import split_generators
from .spatial import SpatialSetup, setup_g_factor
from .spin import TWO_PI, OutcomePair, as_angle, chsh_statistic

SECURE = "secure"
EVE_DETECTED = "eve_detected"
INCONCLUSIVE = "inconclusive"

#: Minimum detected test rounds per CHSH pair for a statistically usable S.
MIN_TEST_ROUNDS_PER_PAIR = 50
#: Largest session.  Without the round log, peak RSS grows ~5 MB at 10^6
#: rounds and ~19 MB at 10^7 (chunk buffers, then the key bits); the log and
#: its CSV take ~55 MB per 10^6 rounds (19 MB of columns, the CSV text and its
#: joined copy), so this cap keeps a logged session under ~0.6 GB (544 MB
#: measured at 10^7).
MAX_ROUNDS = 10_000_000

_ANGLE_MATCH_TOL = 1e-12
#: Rounds simulated per chunk of a session; the output does not depend on it.
_CHUNK = 1 << 16
#: Rows per block of :func:`rounds_to_csv`; the output does not depend on it.
_CSV_BLOCK = 1 << 14
#: Every ``,a,b,d,s_a,s_b`` row tail of the round-log CSV as NUL-padded bytes,
#: indexed by the row code ((((a * 3 + b) * 2 + d) * 3 + s_a + 1) * 3 + s_b + 1).
_CSV_TAILS = np.array(
    [
        f",{a},{b},{d},{s_a or ''},{s_b or ''}\n"
        for a in range(3)
        for b in range(3)
        for d in range(2)
        for s_a in (-1, 0, 1)
        for s_b in (-1, 0, 1)
    ],
    dtype="S",
)


Rng = np.random.Generator
#: A channel's per-round output: (detected, s_a, s_b).
Draws = tuple[np.ndarray, np.ndarray, np.ndarray]


@runtime_checkable
class ChannelModel(Protocol):
    """A channel: one vectorized sampling rule.

    ``sample`` gets a (k, 2) table ``pairs`` of (alpha, beta) setting angles
    and one row index per round, ``cell``, and returns (detected, s_a, s_b):
    physical (unflipped) +-1 int8 outcomes on every round, lost or not.  A
    channel may work per table row (a session has only nine pairs) and gather
    by ``cell``.  ``rng_channel`` drives detection or the hidden variable;
    ``rng_alice`` and ``rng_bob`` drive that wing's sign.  Each stream must be
    read in round order with a fixed number of draws per round (say one
    ``(n, k)`` array), which is what lets :func:`run_session` sample a session
    chunk by chunk with the draws of a single call.
    """

    def sample(
        self, pairs: np.ndarray, cell: np.ndarray,
        rng_channel: Rng, rng_alice: Rng, rng_bob: Rng,
    ) -> Draws: ...


def _signs(positive: np.ndarray) -> np.ndarray:
    """+1 where ``positive`` holds, -1 elsewhere, as int8."""
    return (positive.view(np.int8) << 1) - 1


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
        self, pairs: np.ndarray, cell: np.ndarray,
        rng_channel: Rng, rng_alice: Rng, rng_bob: Rng,
    ) -> Draws:
        """Coincidences with probability g, singlet outcomes on every round.

        Both wings measure along (cos t, 0, sin t), so a . b = cos(alpha -
        beta): s_a is a fair coin and s_b equals s_a with probability
        (1 - a . b)/2, computed once per pair, giving E[s_a * s_b] =
        -cos(alpha - beta) and exact anticorrelation at equal angles.
        """
        n = cell.size
        detected = rng_channel.random(n) < self.g
        p_same = (1.0 - np.cos(pairs[:, 0] - pairs[:, 1])) / 2.0
        s_a = _signs(rng_alice.random(n) < 0.5)
        return detected, s_a, s_a * _signs(rng_bob.random(n) < p_same[cell])


@dataclass(frozen=True)
class LhvEveChannel:
    """Channel controlled by a hidden-variable model (Eve = lambda)."""

    model: HiddenVariableModel

    def sample(
        self, pairs: np.ndarray, cell: np.ndarray,
        rng_channel: Rng, rng_alice: Rng, rng_bob: Rng,
    ) -> Draws:
        """One lambda per round, every round detected.

        s_a is +1 with probability (1 + xi)/2; independently Bob's sign is -1
        with probability (1 + eta)/2.  Negating Bob's sign gives the singlet's
        convention, E[s_a * s_b] = -E[xi * eta], so after Bob's public flip the
        key bits agree exactly as often as the model correlates.  Raises
        ValueError if any response value leaves [-1, 1].
        """
        n = cell.size
        lam = rng_channel.uniform(0.0, TWO_PI, n)
        xi, eta = response_values(self.model, pairs[cell, 0], pairs[cell, 1], lam)
        s_a = _signs(rng_alice.random(n) < (1.0 + xi) / 2.0)
        s_b = -_signs(rng_bob.random(n) < (1.0 + eta) / 2.0)
        return np.ones(n, dtype=bool), s_a, s_b


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


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) for 0 <= num / den < 2**100, correctly rounded: an integer
    root of 55+ bits, last bit set when inexact (round to odd), rounded once."""
    shift = (110 + den.bit_length() - num.bit_length()) // 2
    root = math.isqrt((num << 2 * shift) // den)
    return (root | (root * root * den != num << 2 * shift)) / (1 << shift)


def _chsh_estimate(
    pairs: tuple[ChshPair, ...], minus: list[int], plus: list[int], lost: list[int]
) -> ChshEstimate:
    """CHSH statistic from each pair's count of products -1, +1 and 0 (lost rounds).

    A product squares to 1 on a click, so with n rounds, c clicks and product sum
    s a pair's mean is s/n and its variance (n*c - s^2) / (n^2 (n - 1)), summed exactly.
    """
    stats = [(pos - neg, pos + neg, pos + neg + zero) for neg, pos, zero in zip(minus, plus, lost)]
    p = [pair.sign * (s / n if n else 0.0) for pair, (s, _, n) in zip(pairs, stats)]
    if min(n for *_, n in stats) < 2:
        return ChshEstimate(chsh_statistic(*p), math.inf)
    var = sum(Fraction(n * c - s * s, n * n * (n - 1)) for s, c, n in stats)
    return ChshEstimate(chsh_statistic(*p), _sqrt_ratio(var.numerator, var.denominator))


def run_session(
    config: QkdConfig, return_rounds: bool = False
) -> QkdSessionReport | tuple[QkdSessionReport, RoundLog]:
    """Simulate a full session: rounds, sifting, CHSH audit, verdict.

    Four independent generator streams are spawned from the seed: setting
    cells, channel, Alice's signs and Bob's signs.  Each round's cell
    ``3 * a_idx + b_idx`` is uniform on the nine (alpha, beta) setting pairs,
    which makes both wings' settings independent and uniform on three.
    Rounds are simulated in chunks of ``_CHUNK``, every stream read in round
    order, so reports are bit-reproducible for a fixed config and independent
    of the chunk size.  The channel samples a chunk from the table of the
    nine setting pairs and each round's cell in it.  A chunk leaves behind
    only its integer tally and its key bits, so only the key grows with
    ``n_rounds``.  ``return_rounds=True`` adds the per-round
    :class:`RoundLog`, whose columns grow too.
    """
    n = config.n_rounds
    rng_cells, rng_channel, rng_alice, rng_bob = split_generators(config.seed, 4)
    pairs = np.array([(a, b) for a in config.alice_angles for b in config.bob_angles])
    angle_matched = np.array(
        [_angles_match(a, b) for a in config.alice_angles for b in config.bob_angles]
    )
    log = None
    if return_rounds:
        dtypes = (np.int64, np.int64, bool, np.int8, np.int8)
        log = RoundLog(*(np.empty(n, dtype) for dtype in dtypes))
    tally = np.zeros(27, dtype=np.int64)
    n_detected = 0
    alice_bits, bob_bits = [], []
    for start in range(0, n, _CHUNK):
        size = min(_CHUNK, n - start)
        cell = rng_cells.integers(0, 9, size)
        detected, s_a, s_b = config.channel.sample(pairs, cell, rng_channel, rng_alice, rng_bob)
        s_a = s_a * detected
        s_b = s_b * detected
        key = np.flatnonzero(detected & angle_matched[cell])
        # Bob's public flip: physical singlet outcomes anticorrelate at matched
        # angles, so flipped bits agree and test correlations become +cos.
        alice_bits.append(s_a[key] > 0)
        bob_bits.append(s_b[key] < 0)
        # Rounds whose flipped product is -1, 0 (lost) or +1, per setting cell.
        tally += np.bincount(3 * cell - s_a * s_b + 1, minlength=27)
        n_detected += int(np.count_nonzero(detected))
        if log is not None:
            columns = (log.a_idx, log.b_idx, log.detected, log.s_a, log.s_b)
            for column, values in zip(columns, (*divmod(cell, 3), detected, s_a, s_b)):
                column[start:start + size] = values

    alice_key, bob_key = np.concatenate(alice_bits), np.concatenate(bob_bits)
    n_key = alice_key.size
    qber = int(np.count_nonzero(alice_key != bob_key)) / n_key if n_key > 0 else None

    minus, lost, plus = tally.reshape(9, 3)[
        [3 * p.alice_idx + p.bob_idx for p in config.chsh_pairs]
    ].T.tolist()
    chsh_cond = _chsh_estimate(config.chsh_pairs, minus, plus, [0] * 4)
    chsh_uncond = _chsh_estimate(config.chsh_pairs, minus, plus, lost)
    n_test = tuple(m + q for m, q in zip(minus, plus))

    if min(n_test) < MIN_TEST_ROUNDS_PER_PAIR:
        verdict = INCONCLUSIVE
    else:
        verdict = decide_verdict(chsh_cond.s_value, chsh_cond.std_error, config.alarm_sigma)

    report = QkdSessionReport(
        sifted_key_alice=_bit_string(alice_key),
        sifted_key_bob=_bit_string(bob_key),
        qber=qber,
        chsh_estimate=chsh_cond,
        chsh_unconditioned=chsh_uncond,
        verdict=verdict,
        coincidence_rate=n_detected / n,
        n_rounds=n,
        n_detected=n_detected,
        n_key_rounds=n_key,
        n_test_rounds=n_test,  # type: ignore[arg-type]
    )
    if log is None:
        return report
    return report, log


def _bit_string(bits: np.ndarray) -> str:
    """Boolean array as a string of '0'/'1' characters."""
    return (bits.view(np.uint8) + ord("0")).tobytes().decode("ascii")


def rounds_to_csv(rounds: RoundLog) -> str:
    """Per-round log: round, a_idx, b_idx, detected, s_a, s_b (blank if lost).

    Built without a per-row loop, ``_CSV_BLOCK`` rows at a time: each row is
    the round number's digits followed by one of the few possible
    ``,a,b,d,s_a,s_b`` tails, laid out in NUL-padded fixed-width byte rows
    whose padding is then dropped.  Only one block's rows exist at a time.
    """
    n = len(rounds)
    width = len(str(n - 1))
    row = np.dtype([("digits", np.uint8, (width,)), ("tail", _CSV_TAILS.dtype)])
    parts = ["round,a_idx,b_idx,detected,s_a,s_b\n"]
    for start in range(0, n, _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, n)
        a_idx, b_idx, detected, s_a, s_b = (
            column[start:stop]
            for column in (rounds.a_idx, rounds.b_idx, rounds.detected, rounds.s_a, rounds.s_b)
        )
        # in intp: the code reaches 161, past what narrow index columns can hold
        code = (((a_idx.astype(np.intp) * 3 + b_idx) * 2 + detected) * 3 + s_a + 1) * 3 + s_b + 1
        cells = np.zeros(stop - start, row)
        # unsigned and no wider than n needs: the divisions by 10 cost the most
        number = np.arange(start, stop, dtype=np.min_scalar_type(n))
        for p in range(width):
            tens = number // 10
            # rows from 10**p on have a digit at place p; row 0 still needs its "0"
            first = max((10**p if p else 0) - start, 0)
            cells["digits"][first:, width - 1 - p] = (number - tens * 10)[first:] + ord("0")
            number = tens
        cells["tail"] = _CSV_TAILS[code]
        parts.append(cells.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)
