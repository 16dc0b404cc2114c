"""Command-line interface tests: output formats, determinism, exit codes."""

import ast
import contextlib
import copy
import dataclasses
import hashlib
import importlib
import io
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellspace.cli import (
    EXIT_CONFIG,
    EXIT_INCONCLUSIVE,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
    target_from_dict,
)
from bellspace.config import NumericalFailure
from bellspace.feasibility import (
    FeasibilitySolverError,
    _gauge_lp,
    _highs_core,
    canonical_cosine_target,
)
from bellspace.qkd import QkdSessionReport
from bellspace.spatial import QuadratureError


def child_env():
    """The environment for a child interpreter, with the package source on its path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestChshCommand:
    def test_canonical_default(self, capsys):
        code, out, _ = run_cli(["chsh"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["s_value"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert payload["correlations"]["p11"] == pytest.approx(
            math.cos(math.pi / 4), abs=1e-12
        )

    def test_scaled(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"g": 0.5})
        code, out, _ = run_cli(["chsh", "--config", cfg], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["s_value"] == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_zero_g(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"g": 0.0})
        code, out, _ = run_cli(["chsh", "--config", cfg], capsys)
        assert json.loads(out)["s_value"] == 0.0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(["chsh", "--format", "csv"], capsys)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "quantity,alpha,beta,value"
        assert lines[-1].startswith("s_value")
        assert "2.828427125" in lines[-1]  # 10 significant digits

    def test_bad_g_is_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"g": 1.5})
        code, _, err = run_cli(["chsh", "--config", cfg], capsys)
        assert code == EXIT_CONFIG
        assert "error" in err


class TestGfactorCommand:
    def test_benchmark_setup(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "g.json",
            {"setup": {"width_param": 1.0, "separation": [100.0, 0.0, 0.0]}, "t": 0.0},
        )
        code, out, _ = run_cli(["gfactor", "--config", cfg], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["g"] == pytest.approx(0.10123700997, abs=1e-9)
        assert payload["regime"] == "undetectable"

    def test_huge_regions_reach_violation_regime(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "g.json",
            {
                "packet_a": {"center": [0, 0, 0], "width_param": 1.0},
                "packet_b": {"center": [100, 0, 0], "width_param": 1.0},
                "region_a": {"lo": [-40, -40, -40], "hi": [40, 40, 40]},
                "region_b": {"lo": [60, -40, -40], "hi": [140, 40, 40]},
            },
        )
        code, out, _ = run_cli(["gfactor", "--config", cfg], capsys)
        payload = json.loads(out)
        assert payload["g"] > 0.999
        assert payload["regime"] == "violation possible"

    def test_time_sweep_monotone(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "g.json",
            {
                "setup": {"width_param": 1.0, "separation": [100.0, 0.0, 0.0]},
                "times": [0.0, 1.0, 2.0, 5.0],
            },
        )
        code, out, _ = run_cli(["gfactor", "--config", cfg, "--format", "csv"], capsys)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "t,g"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("key", ["packet_a", "packet_b", "region_a", "region_b"])
    def test_setup_with_explicit_block_is_config_error(self, key, tmp_path, capsys):
        # the explicit block used to be ignored, malformed or not
        cfg = write_json(
            tmp_path / "g.json",
            {"setup": {"width_param": 1.0, "separation": [100.0, 0.0, 0.0]}, key: 5},
        )
        code, out, err = run_cli(["gfactor", "--config", cfg], capsys)
        assert code == EXIT_CONFIG
        assert out == "" and "exactly one of" in err

    def test_negative_time_in_sweep_is_config_error(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "g.json",
            {"setup": {"width_param": 1.0, "separation": [100.0, 0.0, 0.0]}, "times": [-1.0, 0.0]},
        )
        code, out, err = run_cli(["gfactor", "--config", cfg], capsys)
        assert code == EXIT_CONFIG
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ") and "must be nonnegative" in err

    def test_invalid_geometry(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "g.json",
            {"setup": {"width_param": 1.0, "separation": [1.0, 0.0, 0.0]}},
        )
        code, _, _ = run_cli(["gfactor", "--config", cfg], capsys)
        assert code == EXIT_CONFIG


class TestPacketCommand:
    def test_width_and_probability_table(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "p.json",
            {"packet": {"width_param": 1.0}, "times": [0.0, 1.0]},
        )
        code, out, _ = run_cli(["packet", "--config", cfg], capsys)
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert rows[0]["width"] == 1.0
        assert rows[1]["width"] == pytest.approx(math.sqrt(2), abs=1e-12)
        assert rows[0]["prob_in_region"] == pytest.approx(0.31817763901, abs=1e-9)

    def test_huge_time_gives_one_exit_code_in_both_formats(self, tmp_path, capsys):
        # the width law used to overflow to inf: JSON exited 2, CSV printed inf
        cfg = write_json(tmp_path / "p.json", {"times": [1e300]})
        codes = {}
        for fmt in ("json", "csv"):
            codes[fmt], out, _ = run_cli(["packet", "--config", cfg, "--format", fmt], capsys)
            assert "inf" not in out
        assert codes["json"] == codes["csv"] == EXIT_OK
        assert json.loads(run_cli(["packet", "--config", cfg], capsys)[1])["rows"][0] == {
            "t": 1e300, "width": 1e300, "prob_in_region": 0.0
        }

    def test_width_past_the_squared_ratio_range(self, tmp_path, capsys):
        # hbar t / (M eps^2) = 1e310 overflows, the width 1e305 does not
        cfg = write_json(tmp_path / "p.json", {"packet": {"width_param": 1e5}, "times": [1e300]})
        code, out, _ = run_cli(["packet", "--config", cfg], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["rows"][0]["width"] == pytest.approx(1e305, rel=1e-15)
        code, out, _ = run_cli(["packet", "--config", cfg, "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[1] == "1e+300,1e+305,0"

    def test_width_past_the_float_range_in_the_first_division(self, tmp_path, capsys):
        # hbar t / M = 1e310 overflows, the width 1e300 does not
        cfg = write_json(
            tmp_path / "p.json",
            {"packet": {"width_param": 1e-10, "mass": 1e-10}, "times": [1e300]},
        )
        code, out, _ = run_cli(["packet", "--config", cfg], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["rows"][0]["width"] == pytest.approx(1e300, rel=1e-15)
        code, out, _ = run_cli(["packet", "--config", cfg, "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[1] == "1e+300,1e+300,0"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_infinite_width_is_config_error_in_both_formats(self, fmt, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", {"packet": {"width_param": 1e5}, "times": [1e306]})
        code, out, err = run_cli(["packet", "--config", cfg, "--format", fmt], capsys)
        assert code == EXIT_CONFIG
        assert out == "" and err.startswith("error:")


    def test_negative_time_is_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", {"times": [-1.0]})
        code, out, err = run_cli(["packet", "--config", cfg], capsys)
        assert code == EXIT_CONFIG
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ") and "must be nonnegative" in err


class TestLhvCommand:
    def test_exact_expectations(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "l.json",
            {"g": 0.5, "alphas": [0.0], "betas": [0.0, math.pi / 3]},
        )
        code, out, _ = run_cli(["lhv", "--config", cfg], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["expectations"][0]["expectation"] == pytest.approx(0.5, abs=1e-12)
        assert payload["expectations"][1]["expectation"] == pytest.approx(0.25, abs=1e-12)
        assert payload["chsh_canonical"] == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_mc_mode_seeded(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "l.json",
            {"g": 0.4, "mode": "mc", "n": 10_000, "alphas": [0.1], "betas": [0.7]},
        )
        code1, out1, _ = run_cli(["lhv", "--config", cfg, "--seed", "5"], capsys)
        code2, out2, _ = run_cli(["lhv", "--config", cfg, "--seed", "5"], capsys)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        est = json.loads(out1)["expectations"][0]
        assert abs(est["mean"] - 0.4 * math.cos(0.1 - 0.7)) < 5 * est["std_error"]

    def test_g_above_half_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "l.json", {"g": 0.6})
        code, _, _ = run_cli(["lhv", "--config", cfg], capsys)
        assert code == EXIT_CONFIG


class TestFeasibilityCommand:
    def canonical_target(self, g):
        s = 1 / math.sqrt(2)
        return {
            "alphas": [math.pi / 2, 0.0],
            "betas": [math.pi / 4, -math.pi / 4],
            "matrix": [[g * s, -g * s], [g * s, g * s]],
        }

    def test_infeasible_with_certificate(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "t.json", {"target": self.canonical_target(1.0)})
        code, out, _ = run_cli(["feasibility", "--config", cfg], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["status"] == "infeasible"
        assert "certificate" in payload

    def test_feasible_with_weights(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "t.json", {"target": self.canonical_target(0.5)})
        code, out, _ = run_cli(["feasibility", "--config", cfg], capsys)
        payload = json.loads(out)
        assert payload["status"] == "feasible"
        assert sum(w["weight"] for w in payload["weights"]) == pytest.approx(1.0, abs=1e-9)

    def test_max_scale_of_full_strength_target(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "t.json",
            {"target": self.canonical_target(1.0), "max_scale": True, "tol": 1e-4},
        )
        code, out, _ = run_cli(["feasibility", "--config", cfg], capsys)
        payload = json.loads(out)
        assert payload["max_scale"] == pytest.approx(1 / math.sqrt(2), abs=1e-4)

    def test_max_scale_is_the_gauge_lps(self, tmp_path, capsys, caplog):
        tol = 1e-4
        block = self.canonical_target(1.0)
        cfg = write_json(tmp_path / "t.json", {"target": block, "max_scale": True, "tol": tol})
        with caplog.at_level(logging.DEBUG, logger="bellspace.feasibility"):
            code, out, _ = run_cli(["feasibility", "--config", cfg], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        # a CHSH facet decides the membership test, and one gauge LP gives the scale
        logged = [r.getMessage().split(" ")[:2] for r in caplog.records
                  if r.name == "bellspace.feasibility"]
        assert logged == [["CHSH", "screen"], ["gauge", "LP"]]
        lp = _gauge_lp(target_from_dict(block))
        assert payload["max_scale"] == max(0.0, lp.certificate.bound - tol / 2)

    def test_debug_log_leaves_stdout_unchanged(self, tmp_path):
        cfg = write_json(tmp_path / "t.json",
                         {"target": self.canonical_target(1.0), "max_scale": True})
        env = {k: v for k, v in child_env().items() if k != "BELLSPACE_LOG"}
        argv = [sys.executable, "-m", "bellspace.cli", "feasibility", "--config", cfg]
        quiet = subprocess.run(argv, capture_output=True, env=env)
        debug = subprocess.run(argv, capture_output=True, env={**env, "BELLSPACE_LOG": "DEBUG"})
        assert quiet.returncode == debug.returncode == EXIT_OK
        assert debug.stdout == quiet.stdout
        assert json.loads(quiet.stdout)["status"] == "infeasible"
        # one gauge LP, for the max scale: a CHSH facet decides the membership test
        assert b"gauge LP" not in quiet.stderr
        assert debug.stderr.count(b"DEBUG:bellspace.feasibility:gauge LP 2x2: status Optimal") == 1
        assert debug.stderr.count(b"pricing violation ") == 1

    def test_empty_matrix_rejected(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "t.json", {"target": {"alphas": [], "betas": [], "matrix": []}}
        )
        code, _, _ = run_cli(["feasibility", "--config", cfg], capsys)
        assert code == EXIT_CONFIG

    def test_largest_grid_zero_target_feasible(self, tmp_path, capsys):
        # 12x12 is the largest square grid under the m + n cap
        target = {
            "alphas": list(range(12)),
            "betas": list(range(12)),
            "matrix": [[0.0] * 12 for _ in range(12)],
        }
        cfg = write_json(tmp_path / "t.json", {"target": target})
        code, out, _ = run_cli(["feasibility", "--config", cfg], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "feasible"


class TestQkdCommand:
    def qkd_params(self, **overrides):
        params = {
            "n_rounds": 20_000,
            "channel": {"variant": "quantum_localized", "g": 0.9},
            "seed": 31,
        }
        params.update(overrides)
        return params

    def test_secure_session(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "q.json", self.qkd_params())
        code, out, _ = run_cli(["qkd", "--config", cfg], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "secure"
        assert list(payload) == [f.name for f in dataclasses.fields(QkdSessionReport)]

    def test_eve_session(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "q.json",
            self.qkd_params(channel={"variant": "lhv_eve", "model": "cosine", "g": 0.5}),
        )
        code, out, _ = run_cli(["qkd", "--config", cfg], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "eve_detected"

    def test_inconclusive_exit_code(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "q.json",
            self.qkd_params(n_rounds=1000, channel={"variant": "quantum_localized", "g": 0.02}),
        )
        code, out, _ = run_cli(["qkd", "--config", cfg], capsys)
        assert code == EXIT_INCONCLUSIVE
        assert json.loads(out)["verdict"] == "inconclusive"

    def test_round_log(self, tmp_path, capsys):
        log_path = tmp_path / "rounds.csv"
        cfg = write_json(
            tmp_path / "q.json",
            self.qkd_params(n_rounds=1500, round_log=str(log_path)),
        )
        code, _, _ = run_cli(["qkd", "--config", cfg], capsys)
        assert code == EXIT_OK
        lines = log_path.read_text().strip().split("\n")
        assert lines[0] == "round,a_idx,b_idx,detected,s_a,s_b"
        assert len(lines) == 1501

    def test_seed_flag_beats_config_seed(self, tmp_path, capsys):
        params = self.qkd_params(n_rounds=2000)
        with_seed = write_json(tmp_path / "with.json", {**params, "seed": 4})
        del params["seed"]
        without_seed = write_json(tmp_path / "without.json", params)
        flagged = run_cli(["qkd", "--config", with_seed, "--seed", "11"], capsys)[1]
        assert flagged == run_cli(["qkd", "--config", without_seed, "--seed", "11"], capsys)[1]
        assert flagged != run_cli(["qkd", "--config", with_seed], capsys)[1]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "q.json", self.qkd_params(rounds=10))
        code, _, _ = run_cli(["qkd", "--config", cfg], capsys)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "overrides",
        [
            {"chsh_pairs": [[1]]},
            {"chsh_pairs": [[2, 0, 1, 5], [2, 2, -1], [0, 0, 1], [0, 2, -1]]},
            {"channel": {"variant": "lhv_eve", "model": "cosine"}},
            {"channel": {"variant": "quantum_localized", "setup": {"separation": [100, 0, 0]}}},
            {"channel": "quantum"},
            {"n_rounds": 1500.5},
            {"seed": 3.5},
        ],
    )
    def test_malformed_config_is_config_error(self, overrides, tmp_path, capsys):
        cfg = write_json(tmp_path / "q.json", self.qkd_params(**overrides))
        code, out, err = run_cli(["qkd", "--config", cfg], capsys)
        assert code == EXIT_CONFIG
        assert out == "" and "error" in err


class TestThresholdsCommand:
    def test_regimes(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "t.json", {"g_values": [0.4, 0.6, 0.8]})
        code, out, _ = run_cli(["thresholds", "--config", cfg], capsys)
        assert code == EXIT_OK
        rows = json.loads(out)["thresholds"]
        assert [r["regime"] for r in rows] == [
            "undetectable",
            "open gap",
            "violation possible",
        ]

    def test_csv(self, capsys):
        code, out, _ = run_cli(["thresholds", "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert out.startswith("g,regime,chsh_max\n")


class TestDeterminism:
    CASES = [
        (["chsh"], {}),
        (["thresholds"], {}),
        (["lhv", "--seed", "7"], {"g": 0.3, "mode": "mc", "n": 5000}),
        (
            ["gfactor"],
            {"setup": {"width_param": 1.0, "separation": [50.0, 0.0, 0.0]}, "times": [0.0, 1.0]},
        ),
        (["packet"], {"packet": {"width_param": 2.0}, "times": [0.0, 0.5]}),
        (
            ["qkd", "--seed", "11"],
            {"n_rounds": 5000, "channel": {"variant": "quantum_localized", "g": 0.8}},
        ),
        (
            ["feasibility"],
            {
                "target": {
                    "alphas": [math.pi / 2, 0.0],
                    "betas": [math.pi / 4, -math.pi / 4],
                    "matrix": [[0.5, -0.5], [0.5, 0.5]],
                }
            },
        ),
    ]

    @pytest.mark.parametrize("argv,params", CASES)
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_byte_identical_reruns(self, argv, params, fmt, tmp_path, capsys):
        args = list(argv) + ["--format", fmt]
        if params:
            args += ["--config", write_json(tmp_path / "cfg.json", params)]
        out1 = tmp_path / "a.out"
        out2 = tmp_path / "b.out"
        code1 = main(args + ["--out", str(out1)])
        code2 = main(args + ["--out", str(out2)])
        capsys.readouterr()
        assert code1 == code2
        assert out1.read_bytes() == out2.read_bytes()


_SQRT_HALF = 1 / math.sqrt(2)


class TestGoldenOutputs:
    """CLI stdout for fixed configs, pinned by sha256 in both formats.

    The seeded MC draws and the Eve round log are covered too, so a change
    to how lambda or the settings are drawn cannot slip through.
    """

    CASES = {
        "chsh": (["chsh"], {}),
        "thresholds": (["thresholds"], {}),
        "lhv_exact": (["lhv"], {"g": 0.3, "alphas": [0.0, 0.7, -2.0], "betas": [0.2, 2.5]}),
        "lhv_mc": (["lhv", "--seed", "5"], {"g": 0.4, "mode": "mc", "n": 10000,
                                            "alphas": [0.1, 1.0], "betas": [0.7, -0.3]}),
        "feasibility": (["feasibility"], {"max_scale": True, "target": {
            "alphas": [math.pi / 2, 0.0], "betas": [math.pi / 4, -math.pi / 4],
            "matrix": [[_SQRT_HALF, -_SQRT_HALF], [_SQRT_HALF, _SQRT_HALF]]}}),
        "qkd": (["qkd"], {"n_rounds": 3000, "seed": 77,
                          "channel": {"variant": "lhv_eve", "model": "cosine", "g": 0.4}}),
        "packet": (["packet"], {"packet": {"width_param": 2.0, "mass": 3.0},
                                "times": [0.0, 0.5, 7.0, 1e3]}),
        "gfactor": (["gfactor"], {"setup": {"width_param": 1.5, "separation": [8.0, 0.5, 0.0]},
                                  "times": [0.0, 0.3, 2.0]}),
        "feasible": (["feasibility"], {"target": {
            "alphas": [math.pi / 2, 0.0], "betas": [math.pi / 4, -math.pi / 4],
            "matrix": [[0.3 * _SQRT_HALF, -0.3 * _SQRT_HALF],
                       [0.3 * _SQRT_HALF, 0.3 * _SQRT_HALF]]}}),
        "gfactor_single_t": (["gfactor"], {
            "setup": {"width_param": 1.5, "separation": [8.0, 0.5, 0.0]}, "t": 0.4}),
        "gfactor_blocks": (["gfactor"], {
            "packet_a": {"width_param": 1.0}, "packet_b": {"width_param": 1.0, "center": [20, 0, 0]},
            "region_a": {"lo": [-1, -1, -1], "hi": [1, 1, 1]},
            "region_b": {"lo": [19, -1, -1], "hi": [21, 1, 1]}}),
        "qkd_inconclusive": (["qkd"], {"n_rounds": 1000, "seed": 3,
                                       "channel": {"variant": "quantum_localized", "g": 0.01}}),
    }
    EXIT_CODES = {"qkd_inconclusive": EXIT_INCONCLUSIVE}
    QKD_ROUND_LOG = "ca93491b4dbc6ea5ae60244d41b3dc3edcc5d8a6a11a688e46d923cf17fddfa1"

    @staticmethod
    def sha256(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize(
        "case, fmt, digest",
        [
            ("chsh", "json", "3e3217c233ac2f69cdfbc8217953c31ee953586db24b8317725d80398ec86b3b"),
            ("chsh", "csv", "8ee571aecb091e8620a058d3a6c766f34aa0b4b18fb66fc664aa64b20bff1230"),
            ("thresholds", "json",
             "b97d13b250d007b8d91db5c0f77466642655ba59218f508f3f91c3c7a93ee124"),
            ("thresholds", "csv",
             "e3b8cb6aa382a19d1992c49ce02f087202c1a91b8b33dbad312a9476282567c7"),
            ("lhv_exact", "json",
             "f1082e41782dbefedb8d02227f80ded84f6c106d332a20b36c965d5027df319e"),
            ("lhv_exact", "csv",
             "df219b04f70e5368294c10e9c6d1231d9fad9f64ccb09bb91219d1077102fa02"),
            ("lhv_mc", "json", "a3debc5e610f2b26563ef23d8fe32cab02f34ab8b7de8a9a20bf51b74e12f1e9"),
            ("lhv_mc", "csv", "db9bd4b98c7d5f6111cddb8c29828ef452cb5a7c3b5b25c530d8006cebcf91cc"),
            pytest.param("feasibility", "json",
                         "7df535b10dad5582746f2e5e4f2d5a9155703945abfc84254f251dbb2208cbcf",
                         id="feasibility-json"),
            ("feasibility", "csv",
             "0998a025f2c95d2f64ccd6811e9f0115024e6f7b40e21d6b353134081d1a005a"),
            ("qkd", "json", "5819009a51136c7665d4124a75b9544dad216cdc3c2b4c2a8de328c3c1391dca"),
            ("qkd", "csv", "d8c017a8715e268c65a83cc55ea79f949d8d646d21fa9329ebd6f5f4b1293156"),
            ("packet", "json", "9855a06e0c6455d124596149568a33d4f72bf9ffc1ccb2159a69857160dd7609"),
            ("packet", "csv", "0238030a07e8e17a2680f7171ae2559a51c9dac882ab8e89eff013e20cf1386a"),
            ("gfactor", "json",
             "cb2b247d7ecc506a53209168080e12a6574642e788c308cd0d33bd806699d688"),
            ("gfactor", "csv", "ebd24d2061c29e1dd7130623d97a7cf33168985c72f31dc39cde575c67abede7"),
            pytest.param("feasible", "json",
                         "385a7e8f5487082778dad92f309871bf72be44b7a64b2dfb9660be4e457159d1",
                         id="feasible-json"),
            pytest.param("feasible", "csv",
                         "733ed11a5418d3d5d62acbe1ae9999ca0b618ab2d48cc67d98f520972d88f4d5",
                         id="feasible-csv"),
            ("gfactor_single_t", "json",
             "479a23a91952c993a6db60c67f813b2d6e8d3cf00189c181abfdfd392cccaf8c"),
            ("gfactor_single_t", "csv",
             "d1567f31bd5635aeda109b5064dbea9928dcd1c50ab984c1f4080cf989f222fa"),
            ("gfactor_blocks", "json",
             "9c102bb941ea5cd49d39bd31c4b83be5e6724923f2f97b311147d16e1053a5fe"),
            ("gfactor_blocks", "csv",
             "59cfb31a8e86bdba1cb2e3aa77f10c540d96d1e34059325bf1a78c70f1beb89b"),
            ("qkd_inconclusive", "json",
             "09aac7041f74440780df29fd5382e9b91962dd6501f1a3ad6649b49b27311291"),
            ("qkd_inconclusive", "csv",
             "e3547d15a4705589e86ed68b64b43a141a2c710fca809186159291696e6e3a45"),
        ],
    )
    def test_cli_stdout(self, case, fmt, digest, tmp_path, capsys):
        argv, params = self.CASES[case]
        args = [*argv, "--format", fmt]
        if case == "qkd":
            params = {**params, "round_log": str(tmp_path / "rounds.csv")}
        if params:
            args += ["--config", write_json(tmp_path / "c.json", params)]
        code, out, _ = run_cli(args, capsys)
        assert code == self.EXIT_CODES.get(case, EXIT_OK)
        assert self.sha256(out.encode("utf-8")) == digest
        if case == "qkd":
            assert self.sha256((tmp_path / "rounds.csv").read_bytes()) == self.QKD_ROUND_LOG


class TestEntryPoint:
    def test_console_script_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "bellspace.cli", "chsh"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["s_value"] == pytest.approx(
            2 * math.sqrt(2), abs=1e-12
        )

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(["qkd", "--config", "/nonexistent.json"], capsys)
        assert code == EXIT_CONFIG


class TestColdStart:
    """The closed forms load no numpy, and only the LP loads scipy's HiGHS binding."""

    SCRIPT = """
import contextlib, io, json, os, sys
import bellspace
from bellspace.cli import main

def modules(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

assert modules("numpy") == modules("scipy") == [], modules("numpy")
with contextlib.redirect_stdout(io.StringIO()) as version:
    try:
        main(["--version"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
assert version.getvalue().startswith("bellspace "), version.getvalue()
assert modules("numpy") == [], ("--version", modules("numpy"))
workdir = sys.argv[4]
out = os.path.join(workdir, "out.json")

def run(command, params):
    path = os.path.join(workdir, command + ".json")
    with open(path, "w") as handle:
        json.dump(params, handle)
    assert main([command, "--out", out, "--config", path]) == 0, command

for command, params in json.loads(sys.argv[1]):
    run(command, params)
    assert modules("numpy") == modules("scipy") == [], (command, modules("numpy"))
for command, params in json.loads(sys.argv[2]):
    run(command, params)
    assert modules("scipy") == [], (command, modules("scipy"))
    # the QKD config's local bound comes from lhv: feasibility (logging, pathlib) stays unloaded
    assert "bellspace.feasibility" not in sys.modules, command
# max_scale runs the gauge LP, which a target that the CHSH screen decides would skip
run("feasibility", {"target": json.loads(sys.argv[3]), "max_scale": True})
with open(out) as handle:
    status = json.load(handle)["status"]
print(json.dumps({"status": status, "numpy": modules("numpy"), "scipy": modules("scipy")}))
"""

    SETUP = {"width_param": 1.0, "separation": [50.0, 0.0, 0.0]}
    CLOSED_FORMS = [
        ("chsh", {}),
        ("thresholds", {}),
        ("packet", {"packet": {"width_param": 2.0}, "times": [0.0, 0.5]}),
        ("gfactor", {"setup": SETUP, "times": [0.0, 1.0]}),
        ("gfactor", {"setup": SETUP, "t": 0.5}),
    ]
    ARRAY_COMMANDS = [
        ("lhv", {"g": 0.3, "mode": "mc", "n": 5000}),
        ("qkd", {"n_rounds": 5000, "channel": {"variant": "quantum_localized", "g": 0.8}}),
    ]

    def test_only_feasibility_imports_scipy(self, tmp_path):
        target = TestFeasibilityCommand().canonical_target(1.0)
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(self.CLOSED_FORMS),
             json.dumps(self.ARRAY_COMMANDS), json.dumps(target), str(tmp_path)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["status"] == "infeasible"
        # the binding alone, loaded from its file: neither scipy nor scipy.optimize runs its init
        binding = "scipy.optimize._highspy._core"
        assert payload["scipy"] == [binding, f"{binding}.cb", f"{binding}.simplex_constants"]
        assert "numpy.random" in payload["numpy"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        import bellspace

        assert [name for name in bellspace.__all__ if not hasattr(bellspace, name)] == []
        namespace: dict = {}
        exec("from bellspace import *", namespace)
        assert set(bellspace.__all__) <= set(namespace)

    def test_lazy_exports(self):
        import bellspace

        assert set(dir(bellspace)) >= set(bellspace.__all__)
        for name in ("cli", "config", "feasibility", "lhv", "qkd", "spatial", "spin"):
            module = getattr(bellspace, name)
            assert module.__name__ == f"bellspace.{name}" and name in dir(bellspace)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(bellspace, "no_such_name")
        for name, module in bellspace._EXPORTS.items():
            value = getattr(bellspace, name)
            assert value is getattr(sys.modules[f"bellspace.{module}"], name), name
            # functions and classes are exported from the module that defines them
            assert getattr(value, "__module__", f"bellspace.{module}") == f"bellspace.{module}"

    def test_benchmark_and_demo_imports_resolve(self):
        """Every bellspace module and name the benchmark and the demos import
        exists; the files are only parsed, never run."""
        root = Path(__file__).resolve().parents[1]
        imports = []
        for path in sorted([*root.glob("benchmarks/**/*.py"), *root.glob("demos/*.py")]):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    imports += [(path, alias.name, None) for alias in node.names
                                if alias.name.split(".")[0] == "bellspace"]
                elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                        node.module.split(".")[0] == "bellspace"):
                    imports += [(path, node.module, alias.name) for alias in node.names]
        assert {path.parent.name for path, _, _ in imports} == {"benchmarks", "workloads", "demos"}
        missing = []
        for path, module, name in imports:
            try:
                found = importlib.import_module(module)
            except ImportError:
                found = None
            if found is None or (name is not None and not hasattr(found, name)):
                missing.append(f"{path.relative_to(root)}: {module} {name or ''}".rstrip())
        assert missing == []

    def test_no_two_exported_names_are_one_object(self):
        import bellspace

        names_by_object: dict[int, list[str]] = {}
        for name in bellspace.__all__:
            names_by_object.setdefault(id(getattr(bellspace, name)), []).append(name)
        assert [names for names in names_by_object.values() if len(names) > 1] == []

    def test_no_module_imports_another_modules_private_name(self):
        """Each underscore name has one owner module in ``src/bellspace``;
        dunder names such as ``__version__`` are public."""
        import bellspace

        borrowed = []
        for path in sorted(Path(bellspace.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and (
                        node.level or (node.module or "").split(".")[0] == "bellspace"):
                    borrowed += [f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
                                 for alias in node.names if alias.name.startswith("_")
                                 and not (alias.name.startswith("__") and alias.name.endswith("__"))]
        assert borrowed == []

    def test_only_the_cli_reads_config_blocks(self):
        """JSON blocks are read in ``cli`` through ``config``; the library
        modules and the exported classes take Python values only."""
        import bellspace

        readers = []
        for path in sorted(Path(bellspace.__file__).parent.glob("*.py")):
            if path.name in ("cli.py", "config.py"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in ("param", "reject_unknown"):
                        readers.append(f"{path.name}: {name}")
        readers += [f"{name}.from_dict" for name in bellspace.__all__
                    if isinstance(getattr(bellspace, name), type)
                    and hasattr(getattr(bellspace, name), "from_dict")]
        assert readers == []


QKD_CHANNEL = {"variant": "quantum_localized", "g": 0.9}
CANONICAL_TARGET = TestFeasibilityCommand().canonical_target(1.0)


class TestNumericalFailure:
    @pytest.mark.parametrize(
        "command, params, module, attribute, error",
        [
            ("gfactor", {"setup": {"width_param": 1.0, "separation": [20.0, 0.0, 0.0]}},
             "bellspace.cli", "setup_g_factor", QuadratureError("no convergence", 0.5, 1e-3)),
            ("feasibility", {"target": CANONICAL_TARGET}, "bellspace.feasibility",
             "local_polytope_membership", FeasibilitySolverError("backend failed")),
        ],
        ids=["quadrature", "feasibility-solver"],
    )
    def test_solver_error_exits_3(self, tmp_path, capsys, monkeypatch, command, params,
                                  module, attribute, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(f"{module}.{attribute}", fail)
        cfg = write_json(tmp_path / "c.json", params)
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert code == EXIT_NUMERICAL
        assert out == "" and f"numerical failure: {error}" in err.splitlines()
        assert isinstance(error, NumericalFailure) and isinstance(error, RuntimeError)

    def test_non_optimal_highs_model_exits_3(self, tmp_path, capsys, monkeypatch):
        # a real HiGHS run that stops at its iteration limit inside the gauge LP
        _core = _highs_core()

        class NoIterations(_core._Highs):
            def __init__(self):
                super().__init__()
                self.setOptionValue("simplex_iteration_limit", 0)

        monkeypatch.setattr(_core, "_Highs", NoIterations)
        message = "LP solver failed: HiGHS model status 'Iteration limit reached'"
        with pytest.raises(FeasibilitySolverError) as excinfo:
            _gauge_lp(canonical_cosine_target(1.0))
        assert str(excinfo.value) == message
        cfg = write_json(tmp_path / "c.json", {"target": CANONICAL_TARGET, "max_scale": True})
        code, out, err = run_cli(["feasibility", "--config", cfg], capsys)
        assert code == EXIT_NUMERICAL
        assert out == "" and f"numerical failure: {message}" in err.splitlines()


class TestErrorStream:
    """Each error is one stderr line; ``BELLSPACE_LOG=debug`` adds its traceback."""

    # exit 3 needs a solver failure, so the child patches one in before main runs
    SCRIPT = (
        "import sys\n"
        "import bellspace.feasibility as feasibility\n"
        "from bellspace.cli import main\n"
        "def fail(target):\n"
        "    raise feasibility.FeasibilitySolverError('backend failed')\n"
        "feasibility.local_polytope_membership = fail\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    @pytest.mark.parametrize(
        "command, params, exit_code, line",
        [
            ("chsh", {"g": 2}, EXIT_CONFIG, "error: localization factor g=2.0 outside [0, 1]"),
            ("feasibility", {"target": CANONICAL_TARGET}, EXIT_NUMERICAL,
             "numerical failure: backend failed"),
        ],
        ids=["config", "numerical"],
    )
    def test_one_line_per_error(self, tmp_path, command, params, exit_code, line):
        env = {k: v for k, v in child_env().items() if k != "BELLSPACE_LOG"}
        argv = [sys.executable, "-c", self.SCRIPT, command,
                "--config", write_json(tmp_path / "c.json", params)]
        quiet = subprocess.run(argv, capture_output=True, text=True, env=env)
        debug = subprocess.run(argv, capture_output=True, text=True,
                               env={**env, "BELLSPACE_LOG": "debug"})
        assert quiet.returncode == debug.returncode == exit_code
        assert quiet.stdout == debug.stdout == ""
        assert quiet.stderr.splitlines() == [line]
        assert "Traceback (most recent call last)" in debug.stderr
        assert debug.stderr.splitlines()[-1] == line


class TestConfigValues:
    @pytest.mark.parametrize("seed", ["abc", 3.5, True, -1, 2**64])
    def test_bad_seed_is_config_error(self, tmp_path, capsys, seed):
        cfg = write_json(tmp_path / "c.json", {"seed": seed})
        code, out, err = run_cli(["chsh", "--config", cfg], capsys)
        assert code == EXIT_CONFIG
        assert out == "" and "seed" in err

    def test_integral_seed_accepted(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"seed": 3})
        assert run_cli(["chsh", "--config", cfg], capsys)[0] == EXIT_OK

    @pytest.mark.parametrize(
        "command, params",
        [
            ("packet", {"packet": {"width_param": 1e200}, "times": [0.0]}),
            ("packet", {"packet": {"width_param": 2.0, "mass": 5e-324}, "times": [0.0]}),
            ("gfactor", {"setup": {"width_param": 1e162, "separation": [1e-160, 0, 0]}}),
        ],
        ids=["eps-squared-underflows", "mass-eps-underflows", "setup-eps-squared-underflows"],
    )
    def test_extreme_width_scale_is_computed(self, tmp_path, capsys, command, params):
        # epsilon^2 (or M epsilon) underflows to zero here, so the width must not divide by it
        cfg = write_json(tmp_path / "c.json", params)
        for fmt in ("json", "csv"):
            code, out, err = run_cli([command, "--config", cfg, "--format", fmt], capsys)
            assert code == EXIT_OK and err == ""
        payload = json.loads(run_cli([command, "--config", cfg], capsys)[1])
        if command == "gfactor":
            # g at t = 0 does not depend on the length scale
            assert payload["g"] == pytest.approx(0.10123700997061108, abs=1e-12)
        else:
            width_param = params["packet"]["width_param"]
            assert payload["rows"][0]["width"] == 1.0 / width_param

    @pytest.mark.parametrize(
        "command, params",
        [
            ("feasibility", {"max_scale": True, "tol": "abc"}),
            ("feasibility", {"max_scale": True, "tol": 0}),
            ("lhv", {"alphas": ["x"]}),
            ("lhv", {"mode": "mc", "n": 5}),
            ("lhv", {"mode": "mc", "n": 500.5}),
            ("packet", {"times": ["a"]}),
            ("packet", {"times": 1.0}),
            ("chsh", {"g": True}),
            ("gfactor", {"packet_a": 5, "packet_b": {}, "region_a": {}, "region_b": {}}),
            ("thresholds", {"g_values": [0.5, None]}),
            ("chsh", {"g": 10**400}),
            ("feasibility", {"target": 5}),
            ("lhv", {"mode": "mc", "n": 10**12}),
            ("qkd", {"n_rounds": 10**12, "channel": {"variant": "quantum_localized", "g": 0.9}}),
            ("feasibility", {"max_scale": "no"}),
            ("qkd", {"channel": QKD_CHANNEL,
                     "chsh_pairs": [[2, 0, 1], [2, 2, -1], [0, 0, 1], [0, True, -1]]}),
            ("qkd", {"channel": QKD_CHANNEL,
                     "chsh_pairs": [[2, 0, True], [2, 2, -1], [0, 0, 1], [0, 2, -1]]}),
            ("qkd", {"channel": QKD_CHANNEL, "chsh_pairs": [[2, 0], [2, 2], [0, 0], [0, 2]]}),
            ("qkd", {"channel": QKD_CHANNEL, "alice_angles": [0.0, 0.01, 1.0],
                     "bob_angles": [0.02, 0.03, 1.0],
                     "chsh_pairs": [[0, 0, 1], [0, 1, -1], [1, 0, 1], [1, 1, 1]]}),
            ("qkd", {"channel": QKD_CHANNEL,
                     "chsh_pairs": [[2, 0, 1], [2, 0, -1], [2, 0, 1], [2, 0, 1]]}),
            ("gfactor", {"setup": {"width_param": "2", "separation": [100, 0, 0]}}),
            ("gfactor", {"setup": {"width_param": True, "separation": [100, 0, 0]}}),
            ("qkd", {"channel": {"variant": "quantum_localized", "g": "0.9"}}),
            ("qkd", {"channel": QKD_CHANNEL, "alarm_sigma": "3"}),
            ("feasibility", {"target": {"alphas": [0, 1], "betas": [0, 1],
                                        "matrix": [["0.5", 0], [0, True]]}}),
            ("qkd", {"channel": QKD_CHANNEL, "round_log": 5}),
            ("gfactor", {"setup": {"width_param": 1, "separation": [100, 0, 0]},
                         "t": 5.0, "times": [0.0, 1.0]}),
        ],
        ids=["tol-string", "tol-zero", "alphas-string", "mc-n-too-small", "mc-n-float",
             "times-string", "times-scalar", "g-bool", "packet-not-object", "g-values-null",
             "g-overflows-float", "target-not-object", "mc-n-too-large",
             "n-rounds-too-large", "max-scale-string", "chsh-pair-index-bool",
             "chsh-pair-sign-bool", "chsh-signs-cannot-certify",
             "chsh-rectangle-local-model-passes", "chsh-one-cell-local-model-passes",
             "setup-width-string",
             "setup-width-bool", "channel-g-string", "alarm-sigma-string",
             "target-matrix-string-bool", "round-log-not-string", "t-with-times"],
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, command, params):
        if command == "feasibility":
            params = {"target": TestFeasibilityCommand().canonical_target(1.0), **params}
        cfg = write_json(tmp_path / "c.json", params)
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert code == EXIT_CONFIG
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, key, text",
        [
            ("packet", "times", '{"times": [NaN]}'),
            ("packet", "times", '{"times": [1e400]}'),
            ("feasibility", "tol", '{"target": %s, "max_scale": true, "tol": 1e400}'
             % json.dumps(CANONICAL_TARGET)),
            ("qkd", "alarm_sigma", '{"channel": %s, "alarm_sigma": 1e400}'
             % json.dumps(QKD_CHANNEL)),
        ],
        ids=["times-nan", "times-overflow", "tol-overflow", "alarm-sigma-overflow"],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, command, key, text):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG
        assert out == "" and err.startswith(f"error: parameter {key!r} must be")

    @pytest.mark.parametrize(
        "text",
        ["[" * 200_000 + "]" * 200_000, '{"g": ' + "[" * 5000 + "]" * 5000 + "}"],
        ids=["bare-array", "nested-value"],
    )
    def test_config_nested_too_deeply_is_config_error(self, tmp_path, capsys, text):
        # deeper than the JSON decoder's recursion limit
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        code, out, err = run_cli(["chsh", "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_undefined_std_error_is_strict_json(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "q.json", {
            "n_rounds": 1000, "channel": {"variant": "quantum_localized", "g": 0.0}})
        code, out, _ = run_cli(["qkd", "--config", cfg], capsys)
        assert code == EXIT_INCONCLUSIVE
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["chsh_estimate"]["std_error"] is None


class TestOutputPaths:
    def test_out_in_missing_directory(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(["chsh", "--out", str(out_path)], capsys)
        assert code == EXIT_CONFIG
        assert out == "" and err.startswith("error:")

    def test_round_log_in_missing_directory(self, tmp_path, capsys):
        log_path = tmp_path / "missing" / "rounds.csv"
        cfg = write_json(tmp_path / "q.json", {
            "n_rounds": 1000, "channel": QKD_CHANNEL, "round_log": str(log_path)})
        code, out, err = run_cli(["qkd", "--config", cfg], capsys)
        assert code == EXIT_CONFIG
        assert out == "" and err.startswith("error:")


# One valid config per command (two for gfactor and qkd); the fuzz test
# replaces one value inside it.  Sizes are small so each run takes milliseconds.
FUZZ_CONFIGS = [
    ("chsh", {"alpha1": 0.1, "alpha2": 0.7, "beta1": 0.3, "beta2": -0.4, "g": 0.8, "seed": 3}),
    ("gfactor", {"setup": {"width_param": 1.0, "separation": [20.0, 0.0, 0.0], "mass": 1.0,
                           "hbar": 1.0}, "t": 0.5, "times": [0.0, 1.0]}),
    ("gfactor", {"packet_a": {"center": [0.0, 0.0, 0.0], "width_param": 1.0},
                 "packet_b": {"center": [20.0, 0.0, 0.0], "width_param": 1.0},
                 "region_a": {"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
                 "region_b": {"lo": [19.0, -1.0, -1.0], "hi": [21.0, 1.0, 1.0]}, "t": 0.0}),
    ("packet", {"packet": {"center": [0.0, 0.0, 0.0], "width_param": 2.0, "mass": 1.0,
                           "hbar": 1.0},
                "region": {"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
                "times": [0.0, 0.5]}),
    ("lhv", {"g": 0.4, "alphas": [0.1], "betas": [0.7], "mode": "mc", "n": 1000, "seed": 2}),
    ("feasibility", {"target": CANONICAL_TARGET, "max_scale": True, "tol": 1e-3}),
    ("qkd", {"n_rounds": 1000, "channel": {"variant": "quantum_localized", "g": 0.9},
             "alice_angles": [0.0, 0.8, 1.6], "bob_angles": [0.8, 1.6, 2.4],
             "chsh_pairs": [[2, 0, 1], [2, 2, -1], [0, 0, 1], [0, 2, -1]],
             "alarm_sigma": 3.0, "seed": 5}),
    ("qkd", {"n_rounds": 1000, "channel": {"variant": "quantum_localized", "t": 0.0,
                                           "setup": {"width_param": 1.0,
                                                     "separation": [20.0, 0.0, 0.0]}}}),
    ("qkd", {"n_rounds": 1000, "channel": {"variant": "lhv_eve", "model": "cosine", "g": 0.5}}),
    ("thresholds", {"g_values": [0.2, 0.6], "seed": 1}),
]

_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.integers(-10**4, 10**4),
    st.sampled_from([10**400, -10**400, 2**63, 2**64]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3)


_json_values = st.recursive(_json_scalars, _json_containers, max_leaves=8)
# hypothesis checks that `extend` uses its argument by reading its source from
# disk on first validation, so a file edited since import fails every fuzz case:
# validate now, while the file matches the code
_json_values.validate()


def _value_paths(value, prefix=()):
    """Paths to every value inside a config, nested ones included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, sub in items:
        yield prefix + (key,)
        if isinstance(sub, (dict, list)):
            yield from _value_paths(sub, prefix + (key,))


def _replaced(config, path, new):
    config = copy.deepcopy(config)
    holder = config
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = new
    return config


class TestConfigFuzz:
    @pytest.mark.parametrize("command, config", FUZZ_CONFIGS,
                             ids=[f"{c}-{i}" for i, (c, _) in enumerate(FUZZ_CONFIGS)])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_replaced_value_keeps_the_exit_contract(self, tmp_path_factory, command,
                                                        config, data):
        path = data.draw(st.sampled_from(list(_value_paths(config))), label="path")
        params = _replaced(config, path, data.draw(_json_values, label="value"))
        cfg = tmp_path_factory.mktemp("fuzz") / "c.json"
        cfg.write_text(json.dumps(params))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_INCONCLUSIVE)
        if code in (EXIT_OK, EXIT_INCONCLUSIVE):
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        else:
            assert out.getvalue() == "" and err.getvalue()
