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

Every config block is read here, through :mod:`bellspace.config`: unknown
keys are rejected; numbers are finite JSON numbers, never strings or bools;
``n``, ``n_rounds``, ``seed`` and the ``chsh_pairs`` entries are integers;
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
import dataclasses
import json
import logging
import math
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, Sequence

from . import __version__
from .config import ConfigError, NumericalFailure, param, reject_unknown
from .spatial import (
    BoxRegion,
    GaussianPacket,
    SpatialSetup,
    g_decay_curve,
    packet_probability_in_box,
    separated_gaussian_setup,
    setup_g_factor,
)
from .spin import (
    ChshSettings,
    canonical_chsh_settings,
    detectability_threshold_report,
    quantum_chsh,
)

if TYPE_CHECKING:
    from .feasibility import CorrelationTarget, FeasibilityResult
    from .qkd import ChannelModel, QkdConfig, QkdSessionReport

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INCONCLUSIVE = 4
DEFAULT_SEED = 42

log = logging.getLogger("bellspace")


def _fmt(value: float) -> str:
    """CSV float format: 10 significant digits; like JSON output, non-finite values raise."""
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} in the output")
    return f"{value:.10g}"


def _csv_table(header: Sequence[str], records: Sequence[dict]) -> str:
    """One CSV row per record, its columns picked from the record by name."""
    lines = [",".join(header)]
    for record in records:
        cells = (record[key] for key in header)
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in cells))
    return "\n".join(lines) + "\n"


def _flatten(prefix: str, value: Any, rows: list[dict]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else key, sub, rows)
    elif isinstance(value, (list, tuple)):
        for i, sub in enumerate(value):
            _flatten(f"{prefix}[{i}]", sub, rows)
    else:
        rows.append({"key": prefix, "value": value})


def _csv_from_payload(payload: dict) -> str:
    """Generic key,value CSV for nested report payloads."""
    rows: list[dict] = []
    _flatten("", payload, rows)
    return _csv_table(("key", "value"), rows)


def report_to_dict(report: QkdSessionReport) -> dict:
    """JSON form of a session report, keys in field order; an undefined
    (infinite) standard error is written as None, so the payload is strict JSON."""
    payload = dataclasses.asdict(report)
    for key in ("chsh_estimate", "chsh_unconditioned"):
        if math.isinf(payload[key]["std_error"]):
            payload[key]["std_error"] = None
    return payload


def result_to_dict(result: FeasibilityResult) -> dict:
    """JSON form of a membership result; ``weights`` or ``certificate`` is left
    out when it is None."""
    payload = {k: v for k, v in dataclasses.asdict(result).items() if v is not None}
    if "certificate" in payload:
        payload["certificate"]["coefficients"] = result.certificate.coefficients.tolist()
    return payload


def _load_parameters(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object")
    return data


# --- config-block readers ----------------------------------------------------


def setup_from_dict(spec: dict) -> SpatialSetup:
    """:func:`~bellspace.spatial.separated_gaussian_setup` from its JSON block:
    ``width_param`` and ``separation`` (required), ``mass`` and ``hbar`` (default 1)."""
    reject_unknown(spec, {"width_param", "separation", "mass", "hbar"}, "setup")
    return separated_gaussian_setup(
        param(spec, "width_param", None),
        param(spec, "separation", []),
        mass=param(spec, "mass", 1.0),
        hbar=param(spec, "hbar", 1.0),
    )


def _packet(spec: dict, where: str) -> GaussianPacket:
    """Packet from the JSON block ``where``: ``width_param`` (required),
    ``center`` (default origin), ``mass`` and ``hbar`` (default 1)."""
    reject_unknown(spec, {"center", "width_param", "mass", "hbar"}, where)
    return GaussianPacket(
        center=param(spec, "center", [0.0, 0.0, 0.0]),
        width_param=param(spec, "width_param", None),
        mass=param(spec, "mass", 1.0),
        hbar=param(spec, "hbar", 1.0),
    )


def _region(spec: dict, where: str) -> BoxRegion:
    """Box region from the JSON block ``where``: corners ``lo`` and ``hi``."""
    reject_unknown(spec, {"lo", "hi"}, where)
    return BoxRegion(param(spec, "lo", []), param(spec, "hi", []))


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
        packet_a=_packet(params["packet_a"], "packet_a"),
        packet_b=_packet(params["packet_b"], "packet_b"),
        region_a=_region(params["region_a"], "region_a"),
        region_b=_region(params["region_b"], "region_b"),
    )


def target_from_dict(data: dict) -> CorrelationTarget:
    """Correlation target from its JSON block: ``alphas``, ``betas`` and ``matrix``."""
    from .feasibility import CorrelationTarget

    reject_unknown(data, {"alphas", "betas", "matrix"}, "correlation-target")
    return CorrelationTarget(
        param(data, "alphas", []), param(data, "betas", []), param(data, "matrix", [[]])
    )


def _channel(data: dict) -> ChannelModel:
    """QKD channel from its JSON block: ``variant`` ``quantum_localized`` with ``g``
    or a ``setup`` block and time ``t``, or ``lhv_eve`` with ``model`` ``"cosine"`` and ``g``."""
    from .lhv import cosine_model
    from .qkd import LhvEveChannel, QuantumLocalizedChannel

    variant = param(data, "variant", None, str)
    if variant == "quantum_localized":
        reject_unknown(data, {"variant", "g", "setup", "t"}, "channel")
        if ("g" in data) == ("setup" in data):
            raise ConfigError("quantum_localized channel needs either g or setup")
        if "g" in data and "t" in data:
            raise ConfigError("quantum_localized channel takes t only with a setup")
        t = param(data, "t", 0.0)
        if "g" in data:
            return QuantumLocalizedChannel(g=param(data, "g", None))
        return QuantumLocalizedChannel.from_setup(setup_from_dict(data["setup"]), t)
    if variant == "lhv_eve":
        reject_unknown(data, {"variant", "model", "g"}, "channel")
        if data.get("model") != "cosine":
            raise ConfigError("only the 'cosine' hidden-variable model is supported in JSON")
        return LhvEveChannel(model=cosine_model(param(data, "g", None)))
    raise ConfigError(f"unknown channel variant {variant!r}")


def config_from_dict(data: dict) -> QkdConfig:
    """Session config from its JSON form; any malformed input raises ValueError.

    ``n_rounds``, ``seed`` and the ``chsh_pairs`` entries ([alice_idx, bob_idx]
    or [alice_idx, bob_idx, sign]) are JSON integers; omitted keys take the
    :class:`~bellspace.qkd.QkdConfig` defaults.
    """
    from .qkd import ChshPair, QkdConfig

    reject_unknown(data, {f.name for f in dataclasses.fields(QkdConfig)}, "QKD config")
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
    return QkdConfig(channel=_channel(param(data, "channel", None, dict)), **kwargs)


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
    records = [
        {"quantity": f"p{i}{j}", "alpha": a, "beta": b, "value": g * math.cos(a - b)}
        for i, a in ((1, settings.alpha1), (2, settings.alpha2))
        for j, b in ((1, settings.beta1), (2, settings.beta2))
    ]
    payload = {
        "g": g,
        "settings": dataclasses.asdict(settings),
        "correlations": {r["quantity"]: r["value"] for r in records},
        "s_value": s_value,
    }
    records.append({"quantity": "s_value", "alpha": "", "beta": "", "value": s_value})
    return payload, _csv_table(("quantity", "alpha", "beta", "value"), records), EXIT_OK


def _cmd_gfactor(params: dict) -> tuple[dict, str, int]:
    reject_unknown(
        params,
        {"setup", "packet_a", "packet_b", "region_a", "region_b", "t", "times", "seed"},
        "gfactor",
    )
    setup = _parse_setup(params)
    if "t" in params and "times" in params:
        raise ConfigError("gfactor takes either t or times, not both")
    t = param(params, "t", 0.0)
    if "times" in params:
        curve = g_decay_curve(setup, param(params, "times", []))
        records = [{"t": t, "g": g} for t, g in curve]
        return {"curve": records}, _csv_table(("t", "g"), records), EXIT_OK
    row = detectability_threshold_report([setup_g_factor(setup, t).g])[0]
    record = {"t": t, "g": row["g"], "regime": row["regime"], "chsh_max": row["chsh_max"]}
    return record, _csv_table(tuple(record), [record]), EXIT_OK


def _cmd_packet(params: dict) -> tuple[dict, str, int]:
    reject_unknown(params, {"packet", "region", "times", "seed"}, "packet")
    packet = _packet(params.get("packet", {"width_param": 1.0}), "packet")
    region = (
        _region(params["region"], "region")
        if "region" in params
        else BoxRegion.centered_cube(packet.center, 1.0 / packet.width_param)
    )
    times = param(params, "times", [0.0])
    records = [
        {
            "t": t,
            "width": packet.sigma_at(t),
            "prob_in_region": packet_probability_in_box(packet, region, t),
        }
        for t in times
    ]
    return {"rows": records}, _csv_table(("t", "width", "prob_in_region"), records), EXIT_OK


def _cmd_lhv(params: dict) -> tuple[dict, str, int]:
    from .lhv import cosine_model, model_chsh, model_expectation_exact, model_expectation_mc
    # after .lhv, which loads numpy: importing numpy first cost ~0.3 MB peak RSS (CPython 3.11)
    import numpy as np

    reject_unknown(params, {"g", "alphas", "betas", "mode", "n", "seed"}, "lhv")
    g = param(params, "g", 0.5)
    model = cosine_model(g)
    alphas = param(params, "alphas", [0.0, math.pi / 4, math.pi / 2])
    betas = param(params, "betas", [math.pi / 4, math.pi / 2])
    n = param(params, "n", 100_000, int)
    mode = param(params, "mode", "exact", str)
    if mode not in ("exact", "mc"):
        raise ConfigError(f"mode must be 'exact' or 'mc', got {mode!r}")
    if mode == "exact":
        header = ("alpha", "beta", "expectation")
        records = [
            {"alpha": a, "beta": b, "expectation": model_expectation_exact(model, a, b)}
            for a in alphas
            for b in betas
        ]
    else:
        header = ("alpha", "beta", "mean", "std_error")
        rng = np.random.default_rng(params["seed"])
        records = []
        for a in alphas:
            for b in betas:
                est = model_expectation_mc(model, a, b, n, rng)
                records.append(
                    {"alpha": a, "beta": b, "mean": est.mean, "std_error": est.std_error}
                )
    chsh_value = model_chsh(model, canonical_chsh_settings(), mode="exact")
    payload = {"g": g, "mode": mode, "expectations": records, "chsh_canonical": chsh_value}
    return payload, _csv_table(header, records), EXIT_OK


def _cmd_feasibility(params: dict) -> tuple[dict, str, int]:
    from .feasibility import local_polytope_membership, max_feasible_scale

    reject_unknown(params, {"target", "max_scale", "tol", "seed"}, "feasibility")
    if "target" not in params:
        raise ConfigError("feasibility needs a 'target' block (alphas, betas, matrix)")
    target = target_from_dict(params["target"])
    max_scale, tol = param(params, "max_scale", False, bool), param(params, "tol", 1e-4)
    result = local_polytope_membership(target)
    payload = result_to_dict(result)
    if max_scale:
        payload["max_scale"] = max_feasible_scale(target, tol)
    return payload, _csv_from_payload(payload), EXIT_OK


def _cmd_qkd(params: dict) -> tuple[dict, str, int]:
    from .qkd import INCONCLUSIVE, rounds_to_csv, run_session

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
    return {"thresholds": rows}, _csv_table(("g", "regime", "chsh_max"), rows), EXIT_OK


#: Subcommand name -> (implementation, help text), in ``--help`` order.
_COMMANDS: dict[str, tuple[Callable[[dict], tuple[dict, str, int]], str]] = {
    "chsh": (_cmd_chsh, "quantum CHSH statistic at settings scaled by g"),
    "gfactor": (_cmd_gfactor, "localization factor of a spatial setup"),
    "packet": (_cmd_packet, "packet spreading width and box probability over time"),
    "lhv": (_cmd_lhv, "cosine hidden-variable model expectations"),
    "feasibility": (_cmd_feasibility, "local-polytope membership of a correlation target"),
    "qkd": (_cmd_qkd, "simulate a key-distribution session"),
    "thresholds": (_cmd_thresholds, "detectability regimes for localization factors"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellspace",
        description="Singlet correlations in space and time: CHSH, localization, "
        "hidden-variable models, polytope feasibility and QKD simulation.",
    )
    parser.add_argument("--version", action="version", version=f"bellspace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
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
        payload, csv_text, exit_code = _COMMANDS[args.command][0]({**parameters, "seed": seed})
        if args.format == "json":
            _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.out)
        else:
            _emit(csv_text, args.out)
    except (ValueError, OSError) as exc:  # OSError: an unwritable output path
        log.debug("configuration error", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        log.debug("numerical failure", exc_info=True)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
