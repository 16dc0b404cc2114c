"""Names, units and meaning of every number the benchmark reports.

``BENCHMARK.json`` at the repository root mirrors this module (the smoke
mode checks that the two agree).  Three groups:

* ``END_TO_END``: the gated metrics.  Every workload reports all of them in
  an untraced run, so they are the ones that make sense on every workload.
* ``WORKLOAD``: end-to-end metrics that belong to one workload.  Untraced
  runs print them as ``metric`` lines; the traced run also reports them in
  its result line, so they are listed with the per-layer metrics in
  ``BENCHMARK.json``.
* ``LAYER``: per-layer metrics from the traced run.  Each row names the
  workload that exercises the layer and the end-to-end metric it should move.
  On a workload that never calls a layer, the layer's metric reads 0.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    workload: str  # "all" or the workload that measures it
    moves: str  # end-to-end metric(s) this one should move, or why it is kept
    bound: float | None = None  # END_TO_END only


END_TO_END = (
    Metric("wall_s", "s", "lower", "all",
           "median time to finish one timed batch of the workload", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "all",
           "peak RSS of the benchmark process; for cli_batch the largest child's", 0.15),
    Metric("setup_s", "s", "lower", "all",
           "process start to imported, inputs built and every layer warmed; "
           "median of three set-ups", 0.25),
)

WORKLOAD = (
    Metric("fail_frac", "ratio", "lower", "all",
           "failed ops over attempted ops, known-defect probes included"),
    Metric("cli_cold_start_s", "s", "lower", "cli_batch",
           "median wall time of `bellspace chsh`"),
    Metric("cli_p50_s", "s", "lower", "cli_batch",
           "median wall time per invocation, all commands"),
    Metric("session_rounds_per_s", "1/s", "higher", "qkd_session",
           "rounds per second over the plain sessions, both channels"),
    Metric("round_log_rows_per_s", "1/s", "higher", "qkd_session",
           "rows per second through run_session(return_rounds=True) + rounds_to_csv"),
    Metric("lp_small_p50_ms", "ms", "lower", "polytope_lp",
           "median time to a verdict at k <= 4, certificate check included"),
    Metric("lp_large_s", "s", "lower", "polytope_lp",
           "median time to a verdict at k = 8"),
    Metric("max_scale_s", "s", "lower", "polytope_lp",
           "median time of a max_feasible_scale call"),
    Metric("g_quadrature_s", "s", "lower", "correlation_integrals",
           "time to converge every quadrature case"),
    Metric("lhv_chsh_s", "s", "lower", "correlation_integrals",
           "median time to build a model and compute its exact CHSH"),
    Metric("lhv_mc_draws_per_s", "1/s", "higher", "correlation_integrals",
           "lambda draws per second in model_expectation_mc"),
)

_CLI_COMMANDS = ("chsh", "thresholds", "packet", "gfactor", "lhv", "feasibility", "qkd")


def _layer() -> tuple[Metric, ...]:
    rows = [
        ("cli.import_s", "s", "lower", "cli_batch", "cli_cold_start_s, cli_p50_s; elsewhere setup_s"),
        ("cli.import_scipy_s", "s", "lower", "cli_batch", "cli_cold_start_s, cli_p50_s"),
        ("cli.import_modules", "count", "lower", "cli_batch", "cli_cold_start_s, cli_p50_s"),
        ("cli.version_wall_s", "s", "lower", "cli_batch", "cli_cold_start_s"),
    ]
    rows += [
        (f"cli.main_s.{cmd}", "s", "lower", "cli_batch", "cli_p50_s (non-startup part)")
        for cmd in _CLI_COMMANDS
    ]
    rows += [
        ("cli.stdout_bytes", "count", "lower", "cli_batch", "none: guards output identity"),
        ("qkd.run_session_s.quantum", "s", "lower", "qkd_session", "session_rounds_per_s"),
        ("qkd.run_session_s.eve", "s", "lower", "qkd_session", "session_rounds_per_s"),
        ("qkd.run_session_s.rounds", "s", "lower", "qkd_session", "round_log_rows_per_s"),
        ("qkd.rounds_to_csv_s", "s", "lower", "qkd_session", "round_log_rows_per_s"),
        ("qkd.csv_bytes", "count", "lower", "qkd_session", "round_log_rows_per_s"),
        ("qkd.rss_mb_per_mround", "MB", "lower", "qkd_session", "peak_rss_mb"),
        ("qkd.detect_ratio", "ratio", "higher", "qkd_session", "none: exact for a seed"),
        ("qkd.sift_ratio", "ratio", "higher", "qkd_session", "none: exact for a seed"),
        ("qkd.test_ratio", "ratio", "higher", "qkd_session", "none: exact for a seed"),
        ("lhv.cosine_model_s", "s", "lower", "correlation_integrals",
         "lhv_chsh_s; session_rounds_per_s (Eve) on qkd_session"),
        ("lhv.random_bounded_model_s", "s", "lower", "correlation_integrals", "lhv_chsh_s"),
        ("lhv.probe_evals", "count", "lower", "correlation_integrals", "lhv_chsh_s"),
        ("lhv.model_expectation_exact_s", "s", "lower", "correlation_integrals", "lhv_chsh_s"),
        ("lhv.model_chsh_s.exact", "s", "lower", "correlation_integrals", "lhv_chsh_s"),
        ("lhv.model_expectation_mc_s", "s", "lower", "correlation_integrals", "lhv_mc_draws_per_s"),
        ("lhv.model_chsh_s.mc", "s", "lower", "correlation_integrals", "lhv_mc_draws_per_s"),
        ("spatial.g_factor_quadrature_s.product", "s", "lower", "correlation_integrals", "g_quadrature_s"),
        ("spatial.g_factor_quadrature_s.mixture", "s", "lower", "correlation_integrals", "g_quadrature_s"),
        ("spatial.quadrature_points.product", "count", "lower", "correlation_integrals",
         "g_quadrature_s; repeats exactly"),
        ("spatial.quadrature_points.mixture", "count", "lower", "correlation_integrals",
         "g_quadrature_s; repeats exactly"),
        ("spatial.quadrature_orders.mixture", "count", "lower", "correlation_integrals",
         "g_quadrature_s; repeats exactly"),
        ("spatial.quadrature_density_s", "s", "lower", "correlation_integrals", "g_quadrature_s"),
        ("spatial.quadrature_self_s", "s", "lower", "correlation_integrals", "g_quadrature_s"),
        ("spatial.g_decay_curve_s", "s", "lower", "correlation_integrals", "wall_s"),
        ("spatial.packet_probability_in_box_us", "us", "lower", "correlation_integrals", "wall_s"),
    ]
    rows += [
        (f"feasibility.membership_s.k{k}", "s", "lower", "polytope_lp",
         "lp_small_p50_ms" if k <= 4 else ("lp_large_s" if k == 8 else "wall_s"))
        for k in range(2, 9)
    ]
    rows += [
        (f"feasibility.membership_rss_mb.k{k}", "MB", "lower", "polytope_lp", "peak_rss_mb")
        for k in (6, 7, 8)
    ]
    rows += [
        ("feasibility.verify_certificate_s", "s", "lower", "polytope_lp", "lp_small_p50_ms, lp_large_s"),
        ("feasibility.max_feasible_scale_s", "s", "lower", "polytope_lp", "max_scale_s"),
        ("feasibility.solves_per_scale", "count", "lower", "polytope_lp", "max_scale_s"),
        ("feasibility.mixture_support", "count", "lower", "polytope_lp", "none: guard"),
        ("feasibility.capacity_probe_s", "s", "lower", "polytope_lp", "fail_frac"),
        ("feasibility.capacity_probe_ok", "count", "higher", "polytope_lp", "fail_frac"),
        ("spin.quantum_chsh_us", "us", "lower", "correlation_integrals", "none predicted: guard"),
        ("spin.chsh_statistic_us", "us", "lower", "correlation_integrals", "none predicted: guard"),
        ("known_defects", "count", "lower", "all", "fail_frac: known-defect probes that failed"),
        ("traced_wall_s", "s", "lower", "all", "wall_s with tracing on; minus wall_s = tracing overhead"),
    ]
    return tuple(Metric(*row) for row in rows)


LAYER = _layer()
TRACED = WORKLOAD + LAYER  # every metric of a traced run's result line
UNITS = {m.name: m.unit for m in END_TO_END + TRACED}


def manifest() -> dict:
    """The ``BENCHMARK.json`` content this module describes."""
    from workloads import WORKLOADS

    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in TRACED],
    }


RUN_SECONDS = 16
