"""Two-particle entanglement-based key distribution with localized detectors.

Each round the source emits a singlet pair; Alice and Bob draw independent
uniform settings from three directions each.  A channel's one vectorized
rule, ``sample``, gives each round's two physical signs, 0 where that wing
did not click, from the table of the nine setting pairs and each round's
cell (row) in it; ``behaviour(pairs)`` gives their exact law.  The quantum
channel clicks on both wings with probability g (the localization factor of
the detector regions), else on neither: p(s_a, s_b) = g (1 - s_a s_b
cos(alpha - beta)) / 4 on a coincidence.  The eavesdropper channel replaces
the pair by a local hidden-variable model (lambda is Eve): both wings always
click and Bob's sign is the negated eta sign, so p(s_a, s_b) = (1 + s_a E[xi]
- s_b E[eta] - s_a s_b E[xi eta]) / 4 and, as for the singlet, the raw
correlation is -E[xi * eta].

:func:`run_session` walks the rounds in chunks and keeps only the key bits
and the tally of row codes 9 * cell + 3 * s_a + s_b + 4 (81 cells); the
chunk size never shows in the output.  The process's worker thread
(:func:`bellspace.config.on_worker`) folds each chunk but the last while the
next is sampled, and runs the eavesdropper's Alice wing; numpy releases the
interpreter lock in the heavy calls, so two cores share a session that draws
what a serial run draws.

A :class:`Behaviour` is the pair table with a (k, 3, 3) array indexed
[cell, s_a + 1, s_b + 1]: counts for the session's tally, probabilities for
a channel's law.  Every report number but the key strings and the standard
errors is its projection (:meth:`Behaviour.project`).  Key rounds have
equal angles on both wings; test rounds are the four configured CHSH pairs.
Bob flips his outcomes, so matched-round key bits agree where the singlet
anticorrelates (an error is a coincidence with s_a == s_b; a cosine-model
Eve errs on (1 - g)/2 of them) and test correlations become +cos(alpha -
beta).  Each CHSH pair's sign multiplies its correlation: the default grids
need (+, -, +, -) to map Bob's 3*pi/4 onto the canonical -pi/4, and
:class:`QkdConfig` rejects signs whose S cannot certify.  The conditioned
CHSH (post-selected on coincidences) drives the verdict; the unconditioned
one (no coincidence: product 0) has expectation g*cos(alpha - beta).  Their
standard errors come from integer counts, exact to rounding.  Whether
post-selected statistics certify security when g <= 1/2 is the
fair-sampling question; the report takes no side.

``return_rounds=True`` adds the :class:`RoundLog` of row codes, one byte a
round, decoded to columns and :class:`RoundRecord` rows on access;
:func:`rounds_to_csv` writes it in blocks of rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from .config import on_worker
from .lhv import BellCertificate, HiddenVariableModel, node_responses, response_values
from .spatial import SpatialSetup, setup_g_factor
from .spin import TWO_PI, OutcomePair, as_angle, chsh_statistic

SECURE = "secure"
EVE_DETECTED = "eve_detected"
INCONCLUSIVE = "inconclusive"

#: Minimum detected test rounds per CHSH pair for a statistically usable S.
MIN_TEST_ROUNDS_PER_PAIR = 50
#: Largest session.  Without the round log, peak RSS grows ~5 MB at 10^6
#: rounds and ~19 MB at 10^7 (chunk buffers, then the key bits); the log and
#: its CSV take ~40 MB per 10^6 rounds (1 MB of row codes, the CSV text and
#: its joined copy), so this cap keeps a logged session under ~0.4 GB (377 MB
#: measured at 10^7).
MAX_ROUNDS = 10_000_000

_ANGLE_MATCH_TOL = 1e-12
#: Rounds simulated per chunk of a session; the output does not depend on it.
_CHUNK = 1 << 16
#: Rows per block of :func:`rounds_to_csv`; the output does not depend on it.
_CSV_BLOCK = 1 << 14
#: Each round's (a_idx, b_idx, s_a, s_b) by its row code 9 * cell + 3 * s_a +
#: s_b + 4, where cell = 3 * a_idx + b_idx and a sign of 0 means no click.
_ROWS = np.array(
    [(a, b, x, y) for a in range(3) for b in range(3) for x in (-1, 0, 1) for y in (-1, 0, 1)],
    dtype=np.int8,
)
#: Each row code's ``,a,b,d,s_a,s_b`` tail in the round-log CSV, NUL-padded.
_CSV_TAILS = np.array(
    [f",{a},{b},{int(bool(x and y))},{x or ''},{y or ''}\n" for a, b, x, y in _ROWS.tolist()],
    dtype="S",
)


Rng = np.random.Generator
#: A channel's per-round output: (s_a, s_b), 0 where that wing did not click.
Draws = tuple[np.ndarray, np.ndarray]

@runtime_checkable
class ChannelModel(Protocol):
    """A channel: one vectorized sampling rule.

    ``sample`` gets a (k, 2) table ``pairs`` of (alpha, beta) setting angles
    and one row index per round, ``cell``, and returns (s_a, s_b): physical
    (unflipped) int8 outcomes, +-1 where that wing clicked and 0 where it did
    not, so a coincidence has both signs nonzero.  A channel may work per
    table row (a session has only nine pairs) and gather by ``cell``.
    ``rng_channel`` drives a joint click or the hidden variable; ``rng_alice``
    and ``rng_bob`` drive that wing's sign, and may drive its own click.  Each
    stream must be read in round order with a fixed number of draws per round
    (say one ``(n, k)`` array), which is what lets :func:`run_session` sample
    a session chunk by chunk with the draws of a single call.  The returned
    arrays must be new ones that ``sample`` does not reuse or change later: a
    session folds chunk i on another thread while it samples chunk i + 1.
    """

    def sample(
        self, pairs: np.ndarray, cell: np.ndarray,
        rng_channel: Rng, rng_alice: Rng, rng_bob: Rng,
    ) -> Draws: ...


def _signs(positive: np.ndarray) -> np.ndarray:
    """+1 where ``positive`` holds, -1 elsewhere, as int8."""
    return (positive.view(np.int8) << 1) - 1


#: Each sign pair's product s_a * s_b by [s_a + 1, s_b + 1], 0 where a wing did not click.
_PRODUCT = np.outer((-1, 0, 1), (-1, 0, 1))


def _click_law(g: float, mean_a, mean_b, product) -> np.ndarray:
    """(k, 3, 3) law: both wings click with probability g, else neither; on a coincidence
    p(x, y) = g (1 + x mean_a + y mean_b + x y product) / 4, each term (k, 1, 1) or 0."""
    signs = np.array([-1, 0, 1])
    law = g / 4 * (1 + mean_a * signs[:, None] + mean_b * signs + product * _PRODUCT)
    law *= _PRODUCT != 0
    law[:, 1, 1] = 1 - g
    return law


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
        """Both wings click with probability g (one draw for the pair), else neither.

        Both wings measure along (cos t, 0, sin t), so a . b = cos(alpha -
        beta): s_a is a fair coin and s_b equals s_a with probability
        (1 - a . b)/2, computed once per pair, giving E[s_a * s_b] =
        -cos(alpha - beta) on coincidences and exact anticorrelation at equal
        angles.
        """
        n = cell.size
        clicked = (rng_channel.random(n) < self.g).view(np.int8)
        p_same = (1.0 - np.cos(pairs[:, 0] - pairs[:, 1])) / 2.0
        s_a = _signs(rng_alice.random(n) < 0.5) * clicked
        return s_a, s_a * _signs(rng_bob.random(n) < p_same[cell])

    def behaviour(self, pairs: np.ndarray) -> np.ndarray:
        """The law of ``sample``, (k, 3, 3) by [cell, s_a + 1, s_b + 1]: g (1 - s_a s_b
        cos(alpha - beta)) / 4 on a coincidence and 1 - g for no click on either wing."""
        return _click_law(self.g, 0.0, 0.0, -np.cos(pairs[:, 0] - pairs[:, 1])[:, None, None])


@dataclass(frozen=True)
class LhvEveChannel:
    """Channel controlled by a hidden-variable model (Eve = lambda)."""

    model: HiddenVariableModel

    def sample(
        self, pairs: np.ndarray, cell: np.ndarray,
        rng_channel: Rng, rng_alice: Rng, rng_bob: Rng,
    ) -> Draws:
        """One lambda per round, both wings clicking on every round.

        s_a is +1 with probability (1 + xi)/2; independently Bob's sign is -1
        with probability (1 + eta)/2.  Negating Bob's sign gives the singlet's
        convention, E[s_a * s_b] = -E[xi * eta], so after Bob's public flip the
        key bits agree exactly as often as the model correlates.  Lambda is
        drawn here; Alice's wing (xi, its check and her signs) runs on the
        process's worker thread while Bob's runs on this one.  Raises
        ValueError if any response value leaves [-1, 1], xi's error first.
        """
        lam = rng_channel.uniform(0.0, TWO_PI, cell.size)
        alice = on_worker(_wing, self.model, "xi", pairs[:, 0], cell, lam, rng_alice)
        try:
            s_b = -_wing(self.model, "eta", pairs[:, 1], cell, lam, rng_bob)
        finally:
            # awaited first, so a model bad on both wings raises xi's error, as serially
            s_a = alice.result()
        return s_a, s_b

    def behaviour(self, pairs: np.ndarray) -> np.ndarray:
        """The law of ``sample``, (k, 3, 3) by [cell, s_a + 1, s_b + 1]: (1 + s_a E[xi] - s_b
        E[eta] - s_a s_b E[xi eta]) / 4, on the nodes of :func:`~.lhv.model_expectation_exact`."""
        nodes = [node_responses(self.model, alpha, beta) for alpha, beta in pairs]
        moments = [(np.mean(xi), -np.mean(eta), -np.mean(xi * eta)) for xi, eta in nodes]
        return _click_law(1.0, *np.array(moments).T[..., None, None])


def _wing(
    model: HiddenVariableModel, wing: str, angles: np.ndarray, cell: np.ndarray,
    lam: np.ndarray, rng: Rng,
) -> np.ndarray:
    """One wing of the Eve channel: +1 with probability (1 + response)/2, checked."""
    response = response_values(model, wing, angles[cell], lam)
    return _signs(rng.random(lam.size) < (1.0 + response) / 2.0)


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
        if not all(type(i) is int and i in (0, 1, 2) for i in (self.alice_idx, self.bob_idx)):
            raise ValueError(f"setting indices must be the integers 0, 1 or 2, got {self}")
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError(f"sign must be the integer +1 or -1, got {self}")


def _angles_match(a: float, b: float) -> bool:
    diff = (a - b) % TWO_PI
    return min(diff, TWO_PI - diff) < _ANGLE_MATCH_TOL


@dataclass(frozen=True)
class QkdConfig:
    """Full session specification; deterministic given the seed.

    The default ``chsh_pairs`` are the canonical quadruple (pi/2, 0) x
    (pi/4, -pi/4) inside the default grids; Bob's -pi/4 is his 3*pi/4
    setting with sign -1.  Pairs and signs are rejected when the ideal
    singlet's S is at most 2 or a local model's exceeds 2: with S = |a - b| +
    |c + d|, the larger :class:`~.lhv.BellCertificate` bound of (a - b) +-
    (c + d) on the 3x3 grid, each pair adding sign * weight to its cell.
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
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an integer in [0, 2^64)")
        pairs = tuple(self.chsh_pairs)
        if len(pairs) != 4 or not all(isinstance(p, ChshPair) for p in pairs):
            raise ValueError("chsh_pairs must be exactly four ChshPair entries")
        for pair in pairs:
            if _angles_match(self.alice_angles[pair.alice_idx], self.bob_angles[pair.bob_idx]):
                raise ValueError(f"CHSH pair {pair} uses matched angles; those are key rounds")
        object.__setattr__(self, "chsh_pairs", pairs)
        grid = np.array([(a, b) for a in self.alice_angles for b in self.bob_angles])
        singlet = Behaviour(grid, QuantumLocalizedChannel(1.0).behaviour(grid))

        def ideal(signs: tuple[int, ...]) -> float:  # the ideal singlet's S under these signs
            test = tuple(ChshPair(p.alice_idx, p.bob_idx, s) for p, s in zip(pairs, signs))
            return singlet.project(test)["chsh_estimate"].s_value

        def local(signs: tuple[int, ...]) -> int:  # the best deterministic local model's S
            forms = np.zeros((2, 3, 3))
            for p, s, w in zip(pairs, signs, ((1, 1), (-1, -1), (1, -1), (1, -1))):
                forms[:, p.alice_idx, p.bob_idx] += np.multiply(s, w)
            return int(max(BellCertificate(form).bound for form in forms))
        signs = tuple(p.sign for p in pairs)
        if local(signs) > 2 or not ideal(signs) > 2.0:
            best = max((s for s in itertools.product((1, -1), repeat=4)
                        if local(s) <= 2 < ideal(s)), key=ideal, default=None)
            fault = (f"a local model S = {local(signs)} > 2" if local(signs) > 2 else
                     f"the ideal singlet S = {ideal(signs):.6g} <= 2")
            hint = f"the best signs {best} give S = {ideal(best):.6g}" if best else "no signs do"
            raise ValueError(f"chsh_pairs signs {signs} give {fault}, so S cannot certify; {hint}")
        if not isinstance(self.channel, ChannelModel):
            raise ValueError(f"unsupported channel {self.channel!r}")


@dataclass(frozen=True)
class RoundRecord:
    """A single protocol round; outcomes are present exactly when both wings clicked."""

    alice_setting: int
    bob_setting: int
    outcomes: OutcomePair | None

    @property
    def detected(self) -> bool:
        return self.outcomes is not None


@dataclass(frozen=True, eq=False)
class RoundLog:
    """Per-round session log: the uint8 row code ``9 * (3 * a_idx + b_idx) +
    3 * s_a + s_b + 4`` of each round, the session tally's index.

    The int8 columns ``a_idx``, ``b_idx`` and the physical (unflipped)
    outcomes ``s_a`` and ``s_b``, 0 where that wing did not click, are
    decoded from it on access; ``detected`` (both clicked) comes from the
    signs.  ``len()``, indexing and iteration yield :class:`RoundRecord`
    rows; a single-click row is not detected and has no outcomes.
    """

    code: np.ndarray

    def __post_init__(self) -> None:
        if getattr(self.code, "dtype", None) != np.uint8 or self.code.ndim != 1:
            raise ValueError(f"RoundLog code must be a 1-d uint8 array, got {self.code!r:.60}")
        if self.code.size and self.code.max() >= 81:
            raise ValueError(f"RoundLog row code {self.code.max()} out of range: codes run 0..80")

    a_idx = property(lambda self: _ROWS[self.code, 0])
    b_idx = property(lambda self: _ROWS[self.code, 1])
    s_a = property(lambda self: _ROWS[self.code, 2])
    s_b = property(lambda self: _ROWS[self.code, 3])

    @property
    def detected(self) -> np.ndarray:
        return (self.s_a != 0) & (self.s_b != 0)

    def __len__(self) -> int:
        return self.code.size

    def __getitem__(self, i: int) -> RoundRecord:
        a_idx, b_idx, s_a, s_b = _ROWS[self.code[i]].tolist()
        return RoundRecord(a_idx, b_idx, OutcomePair(s_a, s_b) if s_a and s_b else None)

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
    if not std_error >= 0:
        raise ValueError("std_error must be nonnegative")
    if math.isnan(s_value):
        raise ValueError("s_value must be a number, got nan")
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
    if isinstance(stats[0][2], float):  # a law's probabilities: exact, no sampling error
        return ChshEstimate(chsh_statistic(*p), 0.0)
    if min(n for *_, n in stats) < 2:
        return ChshEstimate(chsh_statistic(*p), math.inf)
    var = sum(Fraction(n * c - s * s, n * n * (n - 1)) for s, c, n in stats)
    return ChshEstimate(chsh_statistic(*p), _sqrt_ratio(var.numerator, var.denominator))


@dataclass(frozen=True, eq=False)
class Behaviour:
    """``table[cell, s_a + 1, s_b + 1]``: each wing's physical sign (-1, 0 for no click,
    +1) at row ``cell`` of ``pairs``, the (k, 2) (alpha, beta) table ``sample`` gets.  It
    holds a session's counts or a channel's law; :meth:`project` reads the report off either.
    """

    pairs: np.ndarray
    table: np.ndarray

    def project(self, chsh_pairs: tuple[ChshPair, ...]) -> dict:
        """The report's numbers by :class:`QkdSessionReport` field (masses, for a law).  Key
        rounds are the coincidences at matched angles, in error where s_a == s_b (unequal
        bits after Bob's flip); CHSH pair (i, j) reads row 3 * i + j."""
        t = self.table
        key = t[np.array([_angles_match(a, b) for a, b in self.pairs.tolist()], bool)]
        test = t[[3 * p.alice_idx + p.bob_idx for p in chsh_pairs]]
        # each pair's mass of Bob-flipped products -1, 0 and +1
        minus, lost, plus = (test[:, _PRODUCT == -v].sum(axis=1).tolist() for v in (-1, 0, 1))
        n_detected, n_key = t[:, ::2, ::2].sum().item(), key[:, ::2, ::2].sum().item()
        return dict(
            n_detected=n_detected,
            coincidence_rate=n_detected / t.sum().item(),
            n_key_rounds=n_key,
            qber=(key[:, 0, 0] + key[:, 2, 2]).sum().item() / n_key if n_key > 0 else None,
            n_test_rounds=tuple(m + q for m, q in zip(minus, plus)),
            chsh_estimate=_chsh_estimate(chsh_pairs, minus, plus, [0] * 4),
            chsh_unconditioned=_chsh_estimate(chsh_pairs, minus, plus, lost),
        )


def run_session(
    config: QkdConfig, return_rounds: bool = False
) -> QkdSessionReport | tuple[QkdSessionReport, RoundLog]:
    """Simulate a full session: rounds, sifting, CHSH audit, verdict.

    ``SeedSequence(config.seed).spawn(4)`` seeds the four ``default_rng``
    streams: setting cells, channel, Alice's signs and Bob's signs.  Each
    round's cell ``3 * a_idx + b_idx`` is uniform on the nine setting pairs, so
    both wings' settings are independent and uniform.  Rounds go in chunks of
    ``_CHUNK``, every stream read in round order, so the output does not depend
    on the chunk size.  A chunk leaves behind only its tally and key bits
    (coincidences at matched angles); the report is the tally's
    :meth:`Behaviour.project` with the key strings and the verdict.
    ``return_rounds=True`` adds the :class:`RoundLog`.  The worker thread folds
    each chunk but the last while this thread samples the next, one fold at a
    time and in chunk order.
    """
    n = config.n_rounds
    streams = np.random.SeedSequence(config.seed).spawn(4)
    rng_cells, rng_channel, rng_alice, rng_bob = map(np.random.default_rng, streams)
    pairs = np.array([(a, b) for a in config.alice_angles for b in config.bob_angles])
    angle_matched = np.array([_angles_match(a, b) for a, b in pairs.tolist()])
    codes = np.empty(n, np.uint8) if return_rounds else None
    tally = np.zeros(81, dtype=np.int64)
    alice_bits, bob_bits = [], []

    def fold(start: int, cell: np.ndarray, s_a: np.ndarray, s_b: np.ndarray) -> None:
        nonlocal tally
        key = np.flatnonzero(angle_matched[cell] & (s_a * s_b != 0))
        # Bob's public flip: physical singlet outcomes anticorrelate at matched
        # angles, so flipped bits agree and test correlations become +cos.
        alice_bits.append(s_a[key] > 0)
        bob_bits.append(s_b[key] < 0)
        # Row codes: setting cell and sign pair (-1, 0 for no click, +1) of each round.
        code = 9 * cell + 3 * s_a + s_b + 4
        tally += np.bincount(code, minlength=81)
        if codes is not None:
            codes[start:start + cell.size] = code

    # The worker folds chunk i while this thread samples chunk i + 1; one fold
    # at a time, in chunk order, so the tally, key and log are as if serial.
    folding = None
    for start in range(0, n, _CHUNK):
        cell = rng_cells.integers(0, 9, min(_CHUNK, n - start))
        draws = config.channel.sample(pairs, cell, rng_channel, rng_alice, rng_bob)
        if folding is not None:
            folding.result()
        if start + _CHUNK < n:
            folding = on_worker(fold, start, cell, *draws)
        else:
            fold(start, cell, *draws)  # the last chunk: nothing is left to sample meanwhile

    numbers = Behaviour(pairs, tally.reshape(9, 3, 3)).project(config.chsh_pairs)
    chsh = numbers["chsh_estimate"]
    if min(numbers["n_test_rounds"]) < MIN_TEST_ROUNDS_PER_PAIR:
        verdict = INCONCLUSIVE
    else:
        verdict = decide_verdict(chsh.s_value, chsh.std_error, config.alarm_sigma)
    report = QkdSessionReport(
        sifted_key_alice=_bit_string(np.concatenate(alice_bits)),
        sifted_key_bob=_bit_string(np.concatenate(bob_bits)),
        verdict=verdict, n_rounds=n, **numbers,
    )
    return report if codes is None else (report, RoundLog(codes))


def _bit_string(bits: np.ndarray) -> str:
    """Boolean array as a string of '0'/'1' characters."""
    return (bits.view(np.uint8) + ord("0")).tobytes().decode("ascii")


def rounds_to_csv(rounds: RoundLog) -> str:
    """Per-round log: round, a_idx, b_idx, detected, s_a, s_b (blank if no click).

    Built without a per-row loop, ``_CSV_BLOCK`` rows at a time: each row is
    the round number's digits followed by its row code's ``,a,b,d,s_a,s_b``
    tail, laid out in NUL-padded fixed-width byte rows whose padding is then
    dropped.  Only one block's rows exist at a time.
    """
    n = len(rounds)
    width = len(str(n - 1))
    row = np.dtype([("digits", np.uint8, (width,)), ("tail", _CSV_TAILS.dtype)])
    parts = ["round,a_idx,b_idx,detected,s_a,s_b\n"]
    for start in range(0, n, _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, n)
        cells = np.zeros(stop - start, row)
        # unsigned and no wider than n needs: the divisions by 10 cost the most
        number = np.arange(start, stop, dtype=np.min_scalar_type(n))
        for p in range(width):
            tens = number // 10
            # rows from 10**p on have a digit at place p; row 0 still needs its "0"
            first = max((10**p if p else 0) - start, 0)
            cells["digits"][first:, width - 1 - p] = (number - tens * 10)[first:] + ord("0")
            number = tens
        cells["tail"] = _CSV_TAILS[rounds.code[start:stop]]
        parts.append(cells.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)
