"""Command-line front end.

Seven subcommands cover the package's capabilities:

    chsh         quantum CHSH value and per-pair correlations at a scale g
    gfactor      localization factor of a spatial setup (+ optional t sweep)
    packet       single-packet spreading width and box probability over time
    lhv          cosine hidden-variable model expectations and CHSH check
    feasibility  local-polytope membership of a correlation-target JSON file
    qkd          full key-distribution session from a config JSON file
    thresholds   detectability regime classification for a list of g values

Common flags: ``--config PATH`` (JSON parameters), ``--seed U64`` (default
42; the flag beats a config ``seed``), ``--format csv|json`` and ``--out PATH``
(default stdout).  CSV floats carry 10 significant digits; JSON output is
strict (no NaN or Infinity).  Identical invocations give identical bytes.

Configs are read by :mod:`bellspace.config`: unknown keys are rejected;
numbers are finite JSON numbers, never strings or bools; ``n``,
``n_rounds``, ``seed`` and the ``chsh_pairs`` entries are integers;
``max_scale`` is a boolean and ``round_log`` a path string.

Exit codes: 0 success; 2 configuration error (malformed config, a value the
library rejects with ValueError, or an unreadable config or unwritable
output path); 3 numerical failure (:class:`bellspace.config.NumericalFailure`);
4 QKD session ended inconclusive for lack of data.

``lhv``, ``feasibility`` and ``qkd`` import their modules (and with them
numpy) when they run; ``--version``, ``chsh``, ``thresholds``, ``packet`` and
``gfactor`` are closed forms on ``math`` and load neither numpy nor scipy.

The environment variable ``BELLSPACE_LOG`` (debug/info/warning/error) sets
log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from typing import Any, Callable, Sequence

from . import __version__
from .config import ConfigError, NumericalFailure, param, reject_unknown
from .rng import DEFAULT_SEED
from .spatial import (
    BoxRegion,
    SpatialSetup,
    g_decay_curve,
    packet_from_dict,
    packet_probability_in_box,
    region_from_dict,
    setup_from_dict,
    setup_g_factor,
)
from .spin import (
    ChshSettings,
    canonical_chsh_settings,
    detectability_threshold_report,
    quantum_chsh,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INCONCLUSIVE = 4

log = logging.getLogger("bellspace")


def _fmt(value: float) -> str:
    """CSV float format: 10 significant digits; like JSON output, non-finite values raise."""
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} in the output")
    return f"{value:.10g}"


def _csv_table(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)
        )
    return "\n".join(lines) + "\n"


def _flatten(prefix: str, value: Any, rows: list[tuple[str, Any]]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else key, sub, rows)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            _flatten(f"{prefix}[{i}]", sub, rows)
    else:
        rows.append((prefix, value))


def _csv_from_payload(payload: dict) -> str:
    """Generic key,value CSV for nested report payloads."""
    rows: list[tuple[str, Any]] = []
    _flatten("", payload, rows)
    return _csv_table(("key", "value"), rows)


def _load_parameters(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object")
    return data


# --- subcommand implementations ----------------------------------------------


def _cmd_chsh(params: dict) -> tuple[dict, str, int]:
    reject_unknown(params, {"alpha1", "alpha2", "beta1", "beta2", "g", "seed"}, "chsh")
    default = canonical_chsh_settings()
    settings = ChshSettings(
        alpha1=param(params, "alpha1", default.alpha1),
        alpha2=param(params, "alpha2", default.alpha2),
        beta1=param(params, "beta1", default.beta1),
        beta2=param(params, "beta2", default.beta2),
    )
    g = param(params, "g", 1.0)
    s_value = quantum_chsh(settings, g)
    alphas = (settings.alpha1, settings.alpha2)
    betas = (settings.beta1, settings.beta2)
    correlations = {
        f"p{i + 1}{j + 1}": g * math.cos(alphas[i] - betas[j])
        for i in range(2)
        for j in range(2)
    }
    payload = {
        "g": g,
        "settings": {
            "alpha1": alphas[0],
            "alpha2": alphas[1],
            "beta1": betas[0],
            "beta2": betas[1],
        },
        "correlations": correlations,
        "s_value": s_value,
    }
    rows = [
        ["p11", alphas[0], betas[0], correlations["p11"]],
        ["p12", alphas[0], betas[1], correlations["p12"]],
        ["p21", alphas[1], betas[0], correlations["p21"]],
        ["p22", alphas[1], betas[1], correlations["p22"]],
        ["s_value", "", "", s_value],
    ]
    return payload, _csv_table(("quantity", "alpha", "beta", "value"), rows), EXIT_OK


def _parse_setup(params: dict) -> SpatialSetup:
    needed = {"packet_a", "packet_b", "region_a", "region_b"}
    if "setup" in params and not needed & set(params):
        return setup_from_dict(params["setup"])
    if "setup" in params or not needed <= set(params):
        raise ConfigError(
            "gfactor needs exactly one of a 'setup' block and explicit "
            "packet_a/packet_b/region_a/region_b"
        )
    return SpatialSetup(
        packet_a=packet_from_dict(params["packet_a"], "packet_a"),
        packet_b=packet_from_dict(params["packet_b"], "packet_b"),
        region_a=region_from_dict(params["region_a"], "region_a"),
        region_b=region_from_dict(params["region_b"], "region_b"),
    )


def _cmd_gfactor(params: dict) -> tuple[dict, str, int]:
    reject_unknown(
        params,
        {"setup", "packet_a", "packet_b", "region_a", "region_b", "t", "times", "seed"},
        "gfactor",
    )
    setup = _parse_setup(params)
    t = param(params, "t", 0.0)
    if "times" in params:
        curve = g_decay_curve(setup, param(params, "times", []))
        payload = {"curve": [{"t": t, "g": g} for t, g in curve]}
        return payload, _csv_table(("t", "g"), curve), EXIT_OK
    g = setup_g_factor(setup, t).g
    row = detectability_threshold_report([g])[0]
    payload = {"t": t, "g": g, "regime": row["regime"], "chsh_max": row["chsh_max"]}
    csv_text = _csv_table(
        ("t", "g", "regime", "chsh_max"), [[t, g, row["regime"], row["chsh_max"]]]
    )
    return payload, csv_text, EXIT_OK


def _cmd_packet(params: dict) -> tuple[dict, str, int]:
    reject_unknown(params, {"packet", "region", "times", "seed"}, "packet")
    packet = packet_from_dict(params.get("packet", {"width_param": 1.0}), "packet")
    region = (
        region_from_dict(params["region"], "region")
        if "region" in params
        else BoxRegion.centered_cube(packet.center, 1.0 / packet.width_param)
    )
    times = param(params, "times", [0.0])
    if any(t < 0 for t in times):
        raise ConfigError("times must be nonnegative")
    rows = [
        [t, packet.sigma_at(t), packet_probability_in_box(packet, region, t)]
        for t in times
    ]
    payload = {
        "rows": [{"t": t, "width": w, "prob_in_region": p} for t, w, p in rows]
    }
    return payload, _csv_table(("t", "width", "prob_in_region"), rows), EXIT_OK


def _cmd_lhv(params: dict) -> tuple[dict, str, int]:
    from .lhv import cosine_model, model_chsh, model_expectation_exact, model_expectation_mc
    from .rng import make_generator

    reject_unknown(params, {"g", "alphas", "betas", "mode", "n", "seed"}, "lhv")
    g = param(params, "g", 0.5)
    model = cosine_model(g)
    alphas = param(params, "alphas", [0.0, math.pi / 4, math.pi / 2])
    betas = param(params, "betas", [math.pi / 4, math.pi / 2])
    n = param(params, "n", 100_000, int)
    mode = param(params, "mode", "exact", str)
    if mode not in ("exact", "mc"):
        raise ConfigError(f"mode must be 'exact' or 'mc', got {mode!r}")
    rows = []
    if mode == "exact":
        for a in alphas:
            for b in betas:
                rows.append([a, b, model_expectation_exact(model, a, b)])
        header = ("alpha", "beta", "expectation")
        table = [{"alpha": a, "beta": b, "expectation": e} for a, b, e in rows]
    else:
        rng = make_generator(params["seed"])
        for a in alphas:
            for b in betas:
                est = model_expectation_mc(model, a, b, n, rng)
                rows.append([a, b, est.mean, est.std_error])
        header = ("alpha", "beta", "mean", "std_error")
        table = [
            {"alpha": a, "beta": b, "mean": m, "std_error": s} for a, b, m, s in rows
        ]
    chsh_value = model_chsh(model, canonical_chsh_settings(), mode="exact")
    payload = {"g": g, "mode": mode, "expectations": table, "chsh_canonical": chsh_value}
    return payload, _csv_table(header, rows), EXIT_OK


def _cmd_feasibility(params: dict) -> tuple[dict, str, int]:
    from .feasibility import (
        local_polytope_membership,
        max_feasible_scale,
        result_to_dict,
        target_from_dict,
    )

    reject_unknown(params, {"target", "max_scale", "tol", "seed"}, "feasibility")
    if "target" not in params:
        raise ConfigError("feasibility needs a 'target' block (alphas, betas, matrix)")
    target = target_from_dict(params["target"])
    max_scale, tol = param(params, "max_scale", False, bool), param(params, "tol", 1e-4)
    payload = result_to_dict(local_polytope_membership(target))
    if max_scale:
        payload["max_scale"] = max_feasible_scale(target, tol)
    return payload, _csv_from_payload(payload), EXIT_OK


def _cmd_qkd(params: dict) -> tuple[dict, str, int]:
    from .qkd import INCONCLUSIVE, config_from_dict, report_to_dict, rounds_to_csv, run_session

    round_log = param(params, "round_log", None, str) if "round_log" in params else None
    params.pop("round_log", None)
    config = config_from_dict(params)
    if round_log is None:
        report = run_session(config)
    else:
        report, rounds = run_session(config, return_rounds=True)
        with open(round_log, "w", encoding="utf-8") as handle:
            handle.write(rounds_to_csv(rounds))
    payload = report_to_dict(report)
    exit_code = EXIT_INCONCLUSIVE if report.verdict == INCONCLUSIVE else EXIT_OK
    return payload, _csv_from_payload(payload), exit_code


def _cmd_thresholds(params: dict) -> tuple[dict, str, int]:
    reject_unknown(params, {"g_values", "seed"}, "thresholds")
    g_values = param(
        params, "g_values", [0.1, 0.25, 0.5, 0.6, 1 / math.sqrt(2), 0.75, 0.9, 1.0]
    )
    rows = detectability_threshold_report(g_values)
    csv_rows = [[r["g"], r["regime"], r["chsh_max"]] for r in rows]
    return (
        {"thresholds": rows},
        _csv_table(("g", "regime", "chsh_max"), csv_rows),
        EXIT_OK,
    )


_COMMANDS: dict[str, Callable[[dict], tuple[dict, str, int]]] = {
    "chsh": _cmd_chsh,
    "gfactor": _cmd_gfactor,
    "packet": _cmd_packet,
    "lhv": _cmd_lhv,
    "feasibility": _cmd_feasibility,
    "qkd": _cmd_qkd,
    "thresholds": _cmd_thresholds,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellspace",
        description="Singlet correlations in space and time: CHSH, localization, "
        "hidden-variable models, polytope feasibility and QKD simulation.",
    )
    parser.add_argument("--version", action="version", version=f"bellspace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("chsh", "quantum CHSH statistic at settings scaled by g"),
        ("gfactor", "localization factor of a spatial setup"),
        ("packet", "packet spreading width and box probability over time"),
        ("lhv", "cosine hidden-variable model expectations"),
        ("feasibility", "local-polytope membership of a correlation target"),
        ("qkd", "simulate a key-distribution session"),
        ("thresholds", "detectability regimes for localization factors"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON parameter file (strict keys)")
        cmd.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED})")
        cmd.add_argument(
            "--format", choices=("csv", "json"), default="json", help="output format"
        )
        cmd.add_argument("--out", help="output path (default stdout)")
    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("BELLSPACE_LOG", "WARNING").upper(), logging.WARNING)
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        parameters = _load_parameters(args.config)
        seed = param(parameters, "seed", DEFAULT_SEED, int) if args.seed is None else args.seed
        if not 0 <= seed < 2**64:
            raise ConfigError("seed must be an integer in [0, 2^64)")
        payload, csv_text, exit_code = _COMMANDS[args.command]({**parameters, "seed": seed})
        if args.format == "json":
            _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.out)
        else:
            _emit(csv_text, args.out)
    except (ValueError, OSError) as exc:  # OSError: an unwritable output path
        log.error("configuration error: %s", exc, exc_info=log.isEnabledFor(logging.DEBUG))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        log.error("numerical failure: %s", exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
