"""Self-test of the benchmark: ``python3 benchmarks/run.py --smoke``.

Checks that
* ``BENCHMARK.json`` matches ``metrics.py``;
* every workload, untraced and traced at tiny sizes, prints every metric it
  owns by name with its unit, an ``env`` record, and a result line with
  exactly the metrics the manifest lists;
* corrupted outputs (a perturbed mixture weight, flipped verdicts) are
  counted as failed ops;
* without the library sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
from harness import Ops, Tracer
from metrics import END_TO_END, LAYER, TRACED, UNITS, WORKLOAD, manifest
from workloads.polytope_lp import TINY_LADDER

# grid sizes the tiny ladder does not reach
_BEYOND_TINY = {f"feasibility.membership_s.k{k}" for k in range(2, 9) if k not in TINY_LADDER} | {
    f"feasibility.membership_rss_mb.k{k}" for k in (6, 7, 8) if k not in TINY_LADDER}
ENV_KEYS = {"nproc", "python", "numpy", "scipy", "blas_threads", "mem_total_mb"}


def _run(root: Path, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=170)


def _check_report(name: str, trace: int, proc, problems: list[str]) -> None:
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{where}: {result['failed']} failed ops")
    want = [m.name for m in (TRACED if trace else END_TO_END)]
    if sorted(result["metrics"]) != sorted(want):
        problems.append(f"{where}: result metrics differ from the manifest")
    for metric, body in result["metrics"].items():
        if body.get("unit") != UNITS.get(metric):
            problems.append(f"{where}: {metric} unit {body.get('unit')!r}")
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _tag, metric, _value, *unit = line.split(" ")
            printed[metric] = unit[0] if unit else ""
        elif line.startswith("env "):
            missing = ENV_KEYS - set(json.loads(line[4:]))
            if missing:
                problems.append(f"{where}: env record lacks {sorted(missing)}")
    owned = [m for m in END_TO_END + WORKLOAD if m.workload in ("all", name)]
    if trace:
        owned += [m for m in LAYER if m.workload in ("all", name)]
    for metric in owned:
        if metric.name in _BEYOND_TINY:
            continue
        if printed.get(metric.name) != metric.unit:
            problems.append(f"{where}: metric {metric.name} [{metric.unit}] not printed")


def _corruption(root: Path, problems: list[str]) -> None:
    """Corrupted outputs must be counted as failed ops."""
    from bellspace import QkdConfig, QuantumLocalizedChannel, canonical_cosine_target, run_session
    from bellspace.feasibility import local_polytope_membership
    from workloads.correlation_integrals import CorrelationIntegrals

    cases = []
    report = run_session(QkdConfig(channel=QuantumLocalizedChannel(0.9), n_rounds=20_000, seed=5))
    cases.append(("qkd verdict", lambda: checks.check_quantum_report(report, 0.9),
                  lambda: checks.check_quantum_report(
                      dataclasses.replace(report, verdict="eve_detected"), 0.9)))
    target = canonical_cosine_target(0.5)
    result = local_polytope_membership(target)
    cases.append(("lp verdict", lambda: checks.check_verdict(result, target.matrix, True),
                  lambda: checks.check_verdict(
                      dataclasses.replace(result, status="infeasible"), target.matrix, True)))
    wl = CorrelationIntegrals(3, True, Tracer(False), root)
    perturbed = list(wl.mix_weights)
    perturbed[0] += 1e-3
    g_true = checks.mixture_g(wl.mix_weights, wl.mix_means, wl.mix_sigma, wl.lo, wl.hi)
    g_bad = checks.mixture_g(perturbed, wl.mix_means, wl.mix_sigma, wl.lo, wl.hi)
    cases.append(("mixture weight", lambda: wl.check_mixture(g_true, [6, 10, 16]),
                  lambda: wl.check_mixture(g_bad, [6, 10, 16])))
    for name, good, bad in cases:
        ops = Ops()
        ops.later(name, good)
        ops.later(name, bad)
        ops.settle()
        if (ops.attempted, ops.failed) != (2, 1):
            problems.append(f"corrupted {name}: {ops.failed} of {ops.attempted} ops failed, "
                            f"expected exactly the corrupted one")


def main(root: Path) -> int:
    from workloads import WORKLOADS

    problems: list[str] = []
    on_disk = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if on_disk != manifest():
        problems.append("BENCHMARK.json differs from metrics.manifest()")
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(root, ["--workload", workload.name, "--seed", "11", "--seconds", "0",
                               "--trace", str(trace), "--tiny"], root)
            _check_report(workload.name, trace, proc, problems)
            print(f"smoke {workload.name} trace={trace} exit={proc.returncode}", flush=True)
    _corruption(root, problems)

    bare = root / ".bench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(root / "benchmarks", bare / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run(bare, ["--workload", "qkd_session", "--seed", "1", "--seconds", "1", "--trace", "0"],
                bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("without src/ the benchmark still printed a result")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"smoke FAIL {problem}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 0 if not problems else 1
