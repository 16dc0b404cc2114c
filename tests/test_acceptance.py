"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Timed criteria measure the operation after a warmup call.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest
from scipy import integrate

from bellspace.cli import main as cli_main
from bellspace.feasibility import (
    canonical_cosine_target,
    local_polytope_membership,
    max_feasible_scale,
    verify_certificate,
)
from bellspace.lhv import (
    cosine_model,
    model_chsh,
    model_expectation_exact,
    model_expectation_mc,
    random_bounded_model,
)
from bellspace.qkd import (
    EVE_DETECTED,
    SECURE,
    LhvEveChannel,
    QkdConfig,
    QuantumLocalizedChannel,
    run_session,
)
from bellspace.spatial import (
    expanded_width,
    g_decay_curve,
    separated_gaussian_setup,
    setup_g_factor,
)
from bellspace.spin import CHSH_QUANTUM_BOUND, ChshSettings, canonical_chsh_settings, quantum_chsh

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi


@contextlib.contextmanager
def criterion(number: int, description: str):
    detail: dict = {}
    try:
        yield detail
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}", flush=True)
        raise
    extra = f" ({detail['note']})" if "note" in detail else ""
    print(f"ACCEPTANCE {number} PASS: {description}{extra}", flush=True)


def timed_min(fn, repeats: int = 5) -> float:
    fn()  # warmup
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_maximal_chsh_violation():
    with criterion(1, "maximal CHSH violation 2*sqrt(2) at the canonical settings") as d:
        settings = canonical_chsh_settings()
        value = quantum_chsh(settings, 1.0)
        assert abs(value - 2.0 * SQRT2) <= 1e-12
        elapsed = timed_min(lambda: quantum_chsh(settings, 1.0))
        assert elapsed < 1e-3  # stated bound: < 1 ms
        d["note"] = f"S={value!r}, {elapsed * 1e6:.1f} us"


def test_criterion_2_chsh_bound_over_random_models():
    with criterion(2, "20 random bounded models x 1000 quadruples: CHSH <= 2 + 1e-9") as d:
        model_rng = np.random.default_rng(8001)
        setting_rng = np.random.default_rng(8002)
        lam = np.arange(4096) * (TWO_PI / 4096)
        worst = 0.0
        for index in range(20):
            model = random_bounded_model(model_rng)
            quads = setting_rng.uniform(0.0, TWO_PI, (1000, 4))
            alphas = np.concatenate([quads[:, 0], quads[:, 1]])
            betas = np.concatenate([quads[:, 2], quads[:, 3]])
            xi = np.asarray(model.xi(alphas[:, None], lam[None, :]))
            eta = np.asarray(model.eta(betas[:, None], lam[None, :]))
            p11 = np.mean(xi[:1000] * eta[:1000], axis=1)
            p12 = np.mean(xi[:1000] * eta[1000:], axis=1)
            p21 = np.mean(xi[1000:] * eta[:1000], axis=1)
            p22 = np.mean(xi[1000:] * eta[1000:], axis=1)
            s_values = np.abs(p11 - p12) + np.abs(p21 + p22)
            worst = max(worst, float(np.max(s_values)))
            assert float(np.max(s_values)) <= 2.0 + 1e-9
            if index == 0:
                # batch path agrees with the scalar exact-mode operation
                for row in range(3):
                    settings = ChshSettings(*quads[row])
                    assert model_chsh(model, settings, mode="exact") == pytest.approx(
                        float(s_values[row]), abs=1e-12
                    )
        d["note"] = f"max S over 20000 quadruples = {worst:.6f}"


def test_criterion_3_cosine_identity_exact_and_mc():
    with criterion(3, "cosine-model expectation equals g*cos(alpha-beta); MC agrees") as d:
        rng = np.random.default_rng(8003)
        worst = 0.0
        triples = [
            (rng.uniform(0.0, 0.5), rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))
            for _ in range(100)
        ]
        for g, alpha, beta in triples:
            model = cosine_model(g)
            exact = model_expectation_exact(model, alpha, beta)
            error = abs(exact - g * math.cos(alpha - beta))
            worst = max(worst, error)
            assert error <= 1e-10
        mc_rng = np.random.default_rng(8004)
        for g, alpha, beta in triples[:20]:
            model = cosine_model(g)
            estimate = model_expectation_mc(model, alpha, beta, 1_000_000, mc_rng)
            assert abs(estimate.mean - g * math.cos(alpha - beta)) < 4 * estimate.std_error
        d["note"] = f"worst exact error {worst:.2e}; 20 MC runs at n=1e6 within 4 SE"


def test_criterion_4_polytope_thresholds():
    with criterion(4, "LP thresholds: feasible at g=0.5, infeasible at 0.75, g* = 0.70711 +- 1e-4") as d:
        start = time.perf_counter()
        target = canonical_cosine_target(1.0)
        assert local_polytope_membership(target.scaled(0.5)).is_feasible
        infeasible = local_polytope_membership(target.scaled(0.75))
        assert not infeasible.is_feasible
        assert verify_certificate(infeasible.certificate, target.scaled(0.75))
        # bracket oracle around the threshold
        assert local_polytope_membership(target.scaled(0.7070)).is_feasible
        bracket_high = local_polytope_membership(target.scaled(0.7072))
        assert not bracket_high.is_feasible
        assert verify_certificate(bracket_high.certificate, target.scaled(0.7072))
        g_star = max_feasible_scale(target, tol=1e-4)
        assert abs(g_star - 1.0 / SQRT2) <= 1e-4
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0  # stated bound: < 1 s
        d["note"] = f"g* = {g_star:.6f}, {elapsed * 1e3:.0f} ms"


def test_criterion_5_gaussian_localization_estimate():
    with criterion(5, "benchmark Gaussian g matches quadrature oracle, below (2/pi)^3 and 1/2") as d:
        start = time.perf_counter()
        setup = separated_gaussian_setup(1.0, (100.0, 0.0, 0.0))
        g = setup_g_factor(setup, 0.0).g

        def one_axis(x):
            return math.sqrt(1.0 / (2 * math.pi)) * math.exp(-(x**2) / 2)

        oracle_axis, err = integrate.quad(one_axis, -1.0, 1.0, epsabs=1e-14)
        assert err < 1e-12
        oracle = oracle_axis**6
        assert abs(g - oracle) <= 1e-6
        assert g == pytest.approx(0.10123700997061108, abs=1e-9)
        assert g < (2.0 / math.pi) ** 3
        assert g < 0.5
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0  # stated bound: < 1 s
        d["note"] = f"g = {g:.9f}, oracle gap {abs(g - oracle):.1e}"


def test_criterion_6_packet_expansion():
    with criterion(6, "width law exact at t=0, ballistic at large t; g decay monotone, < 1/2") as d:
        start = time.perf_counter()
        assert expanded_width(1.0, 1.0, 0.0, 1.0) == 1.0
        t = 1e6
        ratio = expanded_width(1.0, 1.0, t, 1.0) / t
        assert abs(ratio - 1.0) <= 1e-6
        setup = separated_gaussian_setup(1.0, (100.0, 0.0, 0.0))
        times = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0, 1e3, 1e5]
        curve = g_decay_curve(setup, times)
        values = [g for _, g in curve]
        assert all(g2 <= g1 + 1e-15 for g1, g2 in zip(values, values[1:]))
        assert all(g < 0.5 for g in values)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0  # stated bound: < 1 s
        d["note"] = f"ratio-1 = {ratio - 1:.1e}; g(0) = {values[0]:.4f} -> g(1e5) = {values[-1]:.1e}"


def test_criterion_7_qkd_end_to_end():
    with criterion(7, "QKD: quantum g=0.9 secure with S near 2*sqrt(2); cosine Eve detected") as d:
        start = time.perf_counter()
        quantum = QkdConfig(
            channel=QuantumLocalizedChannel(g=0.9), n_rounds=100_000, seed=8007
        )
        report, rounds = run_session(quantum, return_rounds=True)
        est = report.chsh_estimate
        assert abs(est.s_value - CHSH_QUANTUM_BOUND) <= 3 * est.std_error
        assert report.verdict == SECURE
        qber_sigma = math.sqrt(0.5 * 0.5 / max(report.n_key_rounds, 1))
        assert report.qber is not None and abs(report.qber) <= 3 * qber_sigma
        # unconditioned correlations reproduce g*cos(alpha - beta)
        a_idx = np.array([r.alice_setting for r in rounds])
        b_idx = np.array([r.bob_setting for r in rounds])
        flipped = -np.array(
            [r.outcomes.product if r.outcomes else 0 for r in rounds], dtype=float
        )
        for i in range(3):
            for j in range(3):
                mask = (a_idx == i) & (b_idx == j)
                expected = 0.9 * math.cos(
                    quantum.alice_angles[i] - quantum.bob_angles[j]
                )
                sigma = math.sqrt(max(1.0 - expected**2, 1e-9) / mask.sum())
                assert abs(float(flipped[mask].mean()) - expected) <= 4 * sigma

        eve = QkdConfig(
            channel=LhvEveChannel(model=cosine_model(0.5)), n_rounds=100_000, seed=8008
        )
        eve_report = run_session(eve)
        eve_est = eve_report.chsh_estimate
        assert eve_est.s_value <= 2.0 + 3 * eve_est.std_error
        assert eve_report.verdict == EVE_DETECTED
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0  # stated bound: < 1 min
        d["note"] = (
            f"secure S = {est.s_value:.4f} +- {est.std_error:.4f}, qber {report.qber}; "
            f"eve S = {eve_est.s_value:.4f}, {elapsed:.1f} s"
        )


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "CLI commands are byte-identical across reruns with one seed") as d:
        qkd_cfg = tmp_path / "qkd.json"
        qkd_cfg.write_text(
            json.dumps(
                {
                    "n_rounds": 5000,
                    "channel": {"variant": "quantum_localized", "g": 0.85},
                    "seed": 99,
                }
            )
        )
        feas_cfg = tmp_path / "feas.json"
        feas_cfg.write_text(
            json.dumps(
                {
                    "target": {
                        "alphas": [math.pi / 2, 0.0],
                        "betas": [math.pi / 4, -math.pi / 4],
                        "matrix": [[0.9, -0.9], [0.9, 0.9]],
                    }
                }
            )
        )
        lhv_cfg = tmp_path / "lhv.json"
        lhv_cfg.write_text(json.dumps({"g": 0.4, "mode": "mc", "n": 2000}))
        invocations = [
            ["chsh", "--format", "json"],
            ["thresholds", "--format", "csv"],
            ["qkd", "--config", str(qkd_cfg), "--format", "json"],
            ["feasibility", "--config", str(feas_cfg), "--format", "json"],
            ["lhv", "--config", str(lhv_cfg), "--seed", "4", "--format", "csv"],
        ]
        for index, argv in enumerate(invocations):
            first = tmp_path / f"run_{index}_a.txt"
            second = tmp_path / f"run_{index}_b.txt"
            assert cli_main(argv + ["--out", str(first)]) == cli_main(
                argv + ["--out", str(second)]
            )
            assert first.read_bytes() == second.read_bytes()
        d["note"] = f"{len(invocations)} commands x 2 runs"
