"""Benchmark for bellspace: end-to-end time to verified results, plus per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload polytope_lp --seed 7 --seconds 12 --trace 0
    python3 benchmarks/run.py --smoke

Workloads: cli_batch, qkd_session, polytope_lp, correlation_integrals (see
``benchmarks/workloads``).  A run builds its inputs from ``--seed``, sets up
three times (this process plus two set-up-only children; ``setup_s`` is the
median), then repeats the workload's timed batch until ``--seconds`` have
passed and at least two batches ran.  Every op's output is checked after its
batch's timer stops.  Known-defect probes run after the batches.

Output: ``env``, ``metric`` and ``problem`` lines, then one JSON result line.
With ``--trace 0`` the result carries the gated end-to-end metrics; with
``--trace 1`` it carries every per-layer metric (see ``metrics.py``), and
the spans are written to ``.bench_out/``.  Nothing runs concurrently: one
child process at a time, numpy's default BLAS threads.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
MIN_BATCHES = 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke mode")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check the report itself")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--capacity-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.smoke or args.capacity_probe or args.workload):
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def _child_setup_s(args) -> float:
    """Set up once more in a fresh process; return its process age when ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "bellspace" / "__init__.py").is_file():
        print(f"error: no bellspace sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]

    if args.smoke:
        import smoke

        return smoke.main(ROOT)
    if args.capacity_probe:
        from workloads.polytope_lp import capacity_probe_child

        return capacity_probe_child(args.seed, args.tiny)

    import bellspace  # set-up starts paying here

    if Path(bellspace.__file__).resolve().parent != (src / "bellspace").resolve():
        print(f"error: imported bellspace from {bellspace.__file__}, not {src}", file=sys.stderr)
        return 2
    from harness import Ops, Tracer, emit_result, environment, median, perf, process_age_s
    from metrics import END_TO_END, RUN_SECONDS, TRACED, UNITS
    from workloads import BY_NAME

    if args.workload not in BY_NAME:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(BY_NAME)}",
              file=sys.stderr)
        return 2
    tracer = Tracer(bool(args.trace))
    workload = BY_NAME[args.workload](args.seed, args.tiny, tracer, ROOT)
    own_setup = process_age_s()
    if args.setup_only:
        print(f"ready {own_setup!r}", flush=True)
        return 0
    setups = [own_setup] + [_child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]

    seconds = RUN_SECONDS if args.seconds is None else args.seconds
    ops = Ops(tracer)
    walls: list[float] = []
    start = perf()
    while len(walls) < MIN_BATCHES or perf() - start < seconds:
        gc.collect()  # garbage left by the previous batch's checks is not the next batch's cost
        begin = perf()
        workload.batch(ops, len(walls))
        walls.append(perf() - begin)
        ops.settle()  # checks run outside the timed batch
    peak = workload.peak_rss_mb()
    workload.finish(ops)
    ops.settle()

    values = {"setup_s": median(setups), "wall_s": median(walls), "peak_rss_mb": peak,
              "fail_frac": ops.fail_frac(), "known_defects": float(len(ops.defects))}
    values.update(workload.metrics(ops))
    if args.trace:
        values["traced_wall_s"] = values["wall_s"]
        trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(str(trace_path))

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"run workload={args.workload} seed={args.seed} batches={len(walls)} "
          f"ops={ops.attempted} failed={ops.failed} probes={ops.probes} "
          f"probes_failed={ops.probes_failed}")
    for problem in ops.problems:
        print(f"problem {problem}")
    for name in sorted(values):
        print(f"metric {name} {values[name]!r} {UNITS.get(name, '')}")
    names = [m.name for m in (TRACED if args.trace else END_TO_END)]
    emit_result(ops, {name: (float(values.get(name, 0.0)), UNITS[name]) for name in names})
    return 0


if __name__ == "__main__":
    sys.exit(main())
