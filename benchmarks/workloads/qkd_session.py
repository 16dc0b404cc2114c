"""qkd_session: in-process key-distribution sessions.

Per batch: a 10^6-round session on a localized singlet channel (g = 0.9),
one on a cosine-model eavesdropper (g = 1/2, model built inside the op), and
a 2x10^5-round session with the per-round log (``return_rounds=True`` plus
``rounds_to_csv``).  Sampling, sifting and key building do most of the work;
the round log shares that layer but produces per-round output, so a change
that trades one against the other shows.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import checks
from harness import Ops, Tracer, max_rss_mb, median

from bellspace import LhvEveChannel, QkdConfig, QuantumLocalizedChannel, cosine_model, run_session
from bellspace.qkd import rounds_to_csv

G_QUANTUM = 0.9
G_EVE = 0.5


class QkdSession:
    name = "qkd_session"
    why = ("in-process run_session on a quantum and an Eve channel plus a per-round log: "
           "qkd sampling, sifting and key building dominate")

    def __init__(self, seed: int, tiny: bool, tracer: Tracer, root: Path):
        self.tracer = tracer
        self.n_plain = 20_000 if tiny else 1_000_000
        self.n_log = 5_000 if tiny else 200_000
        self.seeds = np.random.SeedSequence(seed)
        self.ratios: dict[str, float] = {}
        self.csv_bytes = 0
        self.rss_per_mround = 0.0
        # warm-up: every call the batch times, at the smallest legal size
        quantum = QkdConfig(channel=QuantumLocalizedChannel(G_QUANTUM), n_rounds=1000, seed=1)
        run_session(quantum)
        run_session(QkdConfig(channel=LhvEveChannel(cosine_model(G_EVE)), n_rounds=1000, seed=1))
        rounds_to_csv(run_session(quantum, return_rounds=True)[1])

    def _seeds(self, index: int) -> list[int]:
        child = np.random.SeedSequence(self.seeds.entropy, spawn_key=(index,))
        return [int(s) for s in child.generate_state(3, dtype=np.uint32)]

    def batch(self, ops: Ops, index: int) -> None:
        s_quantum, s_eve, s_log = self._seeds(index)
        rss_before = max_rss_mb()

        self.tracer.next_op()
        quantum = QkdConfig(channel=QuantumLocalizedChannel(G_QUANTUM), n_rounds=self.n_plain,
                            seed=s_quantum)
        ok, report = ops.call("qkd.run_session_s.quantum", run_session, quantum)
        if ok:
            ops.later("qkd quantum", lambda r=report: checks.check_quantum_report(r, G_QUANTUM))
            if index == 0:
                n = report.n_rounds
                self.ratios = {
                    "qkd.detect_ratio": report.n_detected / n,
                    "qkd.sift_ratio": report.n_key_rounds / n,
                    "qkd.test_ratio": sum(report.n_test_rounds) / n,
                }

        self.tracer.next_op()
        ok, report = ops.call("qkd.eve_session", self._eve_session, ops, s_eve)
        if ok:
            ops.later("qkd eve", lambda r=report: checks.check_eve_report(r, G_EVE))
            ops.later("qkd eve qber", lambda r=report: checks.check_eve_qber(r, G_EVE), probe=True)

        self.tracer.next_op()
        log_config = QkdConfig(channel=QuantumLocalizedChannel(G_QUANTUM), n_rounds=self.n_log,
                               seed=s_log)
        ok, pair = ops.call("qkd.run_session_s.rounds", run_session, log_config, return_rounds=True)
        if ok:
            report, rounds = pair
            del pair
            ok, text = ops.call("qkd.rounds_to_csv_s", rounds_to_csv, rounds)
            del rounds
            if ok:
                self.csv_bytes = len(text)
                ops.later("qkd round log", lambda t=text, r=report: checks.check_round_log(t, r)
                          + checks.check_quantum_report(r, G_QUANTUM))
        if index == 0:
            self.rss_per_mround = (max_rss_mb() - rss_before) / (self.n_plain / 1e6)

    def _eve_session(self, ops: Ops, seed: int):
        model = ops.timed("lhv.cosine_model_s", cosine_model, G_EVE)
        config = QkdConfig(channel=LhvEveChannel(model), n_rounds=self.n_plain, seed=seed)
        return ops.timed("qkd.run_session_s.eve", run_session, config)

    def finish(self, ops: Ops) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return max_rss_mb()

    def metrics(self, ops: Ops) -> dict[str, float]:
        times = ops.times
        plain = [q + e for q, e in zip(times["qkd.run_session_s.quantum"], times["qkd.eve_session"])]
        log = [s + c for s, c in zip(times["qkd.run_session_s.rounds"], times["qkd.rounds_to_csv_s"])]
        values = {
            "session_rounds_per_s": 2 * self.n_plain / median(plain),
            "round_log_rows_per_s": self.n_log / median(log),
            "qkd.csv_bytes": float(self.csv_bytes),
            "qkd.rss_mb_per_mround": self.rss_per_mround,
            **self.ratios,
        }
        for kind in ("qkd.run_session_s.quantum", "qkd.run_session_s.eve", "qkd.run_session_s.rounds",
                     "qkd.rounds_to_csv_s", "lhv.cosine_model_s"):
            values[kind] = median(times[kind])
        return values
