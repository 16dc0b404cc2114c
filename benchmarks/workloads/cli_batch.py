"""cli_batch: sequential ``bellspace`` subprocesses, closed loop, one client.

One batch is ``--version`` plus all seven commands at small sizes.  About
0.85 s of each ~1 s call is ``import bellspace``, so startup and import
changes show here; the command bodies are <= 0.2 s, so kernel changes
barely move this workload.
"""

from __future__ import annotations

import atexit
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
from harness import Ops, Tracer, median, perf

_REPLAYS = 3
_IMPORTTIME_RUNS = 3


def parse_importtime(text: str) -> dict:
    """Cumulative ``import bellspace`` time, its scipy share and module count.

    ``-X importtime`` prints one line per module in post-order: a module's
    imports come before it, one indent level (two spaces) deeper.
    """
    rows = []  # (depth, name, self_us, cumulative_us)
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|", 2)
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        rows.append((depth, raw.strip(), int(self_us), int(cum_us)))
    top = max(i for i, r in enumerate(rows) if r[0] == 0 and r[1] == "bellspace")
    first = max((i for i, r in enumerate(rows[:top]) if r[0] == 0), default=-1) + 1
    block = rows[first : top + 1]

    parents: list[int | None] = [None] * len(block)
    waiting: dict[int, list[int]] = defaultdict(list)
    for i, (depth, *_rest) in enumerate(block):
        for child in waiting.pop(depth + 1, []):
            parents[child] = i
        waiting[depth].append(i)

    def is_scipy(name: str) -> bool:
        return name == "scipy" or name.startswith("scipy.")

    scipy_us = sum(
        row[3]
        for i, row in enumerate(block)
        if is_scipy(row[1]) and (parents[i] is None or not is_scipy(block[parents[i]][1]))
    )
    return {
        "import_s": block[-1][3] / 1e6,
        "scipy_s": scipy_us / 1e6,
        "modules": len(block),
        "rows": block,
        "parents": parents,
    }


def _import_spans(tracer: Tracer, parsed: dict, start: float) -> None:
    """Lay the parsed import tree out as spans: children back to back from the parent's start."""
    rows, parents = parsed["rows"], parsed["parents"]
    children: dict[int, list[int]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent is not None:
            children[parent].append(i)
    stack = [(len(rows) - 1, start, None)]
    while stack:
        i, begin, parent_span = stack.pop()
        span = tracer.add(f"import.{rows[i][1]}", begin, begin + rows[i][3] / 1e6, parent_span)
        offset = begin
        for child in children[i]:
            stack.append((child, offset, span))
            offset += rows[child][3] / 1e6


class CliBatch:
    name = "cli_batch"
    why = ("sequential bellspace subprocesses, one at a time: import is ~0.85 s of each "
           "~1 s call, so startup and import changes show here")

    def __init__(self, seed: int, tiny: bool, tracer: Tracer, root: Path):
        self.tracer = tracer
        (root / ".bench_tmp").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=root / ".bench_tmp"))
        atexit.register(shutil.rmtree, self.tmp, True)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src") + (os.pathsep + path if path else ""))
        self.calls = self._build_calls(np.random.default_rng(seed), tiny)
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.reference: dict[str, bytes] = {}
        self.child_rss: list[float] = []
        self.batch_bytes: list[int] = []
        self.replay_s: dict[str, list[float]] = defaultdict(list)
        self.importtime: list[dict] = []
        out, code, _, _ = self._spawn(["--version"])  # warm-up: page cache, bytecode
        if code != 0 or not out.startswith(b"bellspace "):
            raise RuntimeError(f"warm-up `bellspace --version` failed with exit code {code}")

    # -- inputs ---------------------------------------------------------------

    def _config(self, label: str, params: dict) -> list[str]:
        path = self.tmp / f"{label}.json"
        path.write_text(json.dumps(params), encoding="utf-8")
        return ["--config", str(path)]

    def _build_calls(self, rng: np.random.Generator, tiny: bool) -> list[tuple[str, list[str], object]]:
        n_mc = 10_000 if tiny else 100_000
        n_rounds = 10_000 if tiny else 100_000
        m_packet = float(rng.uniform(0.5, 2.0))
        center = [float(c) for c in rng.uniform(-5.0, 5.0, 3)]
        packet_times = [0.0] + sorted(float(t) for t in rng.uniform(0.0, 5.0, 5))
        m_setup = float(rng.uniform(0.5, 2.0))
        separation = [float(12.0 / m_setup + rng.uniform(0.0, 20.0 / m_setup)), 0.0, 0.0]
        g_times = [0.0] + sorted(float(t) for t in rng.uniform(0.0, 10.0, 5))
        g_lhv = float(rng.uniform(0.1, 0.5))
        alphas = [float(a) for a in rng.uniform(0.0, 2 * math.pi, 3)]
        betas = [float(b) for b in rng.uniform(0.0, 2 * math.pi, 2)]
        mc_seed = int(rng.integers(0, 2**32))
        g_qkd = float(rng.uniform(0.85, 0.95))
        qkd_seed = int(rng.integers(0, 2**32))
        canonical = {
            "alphas": [math.pi / 2, 0.0],
            "betas": [math.pi / 4, -math.pi / 4],
            "matrix": [[math.cos(a - b) for b in (math.pi / 4, -math.pi / 4)]
                       for a in (math.pi / 2, 0.0)],
        }
        tol = 1e-4
        return [
            ("version", ["--version"], _check_version),
            ("chsh", ["chsh"], _check_chsh),
            ("thresholds", ["thresholds"], _check_thresholds),
            ("packet", ["packet", *self._config("packet", {
                "packet": {"width_param": m_packet, "center": center}, "times": packet_times})],
             lambda d: _check_packet(d, m_packet, center, packet_times)),
            ("gfactor", ["gfactor", *self._config("gfactor", {
                "setup": {"width_param": m_setup, "separation": separation}, "times": g_times})],
             lambda d: _check_gfactor(d, m_setup, separation, g_times)),
            ("lhv_exact", ["lhv", *self._config("lhv_exact", {
                "g": g_lhv, "alphas": alphas, "betas": betas, "mode": "exact"})],
             lambda d: _check_lhv(d, g_lhv, "exact")),
            ("lhv_mc", ["lhv", "--seed", str(mc_seed), *self._config("lhv_mc", {
                "g": g_lhv, "alphas": alphas, "betas": betas, "mode": "mc", "n": n_mc})],
             lambda d: _check_lhv(d, g_lhv, "mc")),
            ("feasibility", ["feasibility", *self._config("feasibility", {
                "target": canonical, "max_scale": True, "tol": tol})],
             lambda d: _check_feasibility(d, canonical, tol)),
            ("qkd", ["qkd", *self._config("qkd", {
                "n_rounds": n_rounds, "channel": {"variant": "quantum_localized", "g": g_qkd},
                "seed": qkd_seed})],
             lambda d: _check_qkd(d, g_qkd, n_rounds)),
        ]

    # -- timed batch ----------------------------------------------------------

    def _spawn(self, argv: list[str]) -> tuple[bytes, int, float, float]:
        """Run one ``bellspace`` process to completion: stdout, exit code, wall, peak RSS."""
        start = perf()
        with open(self.tmp / "stderr.txt", "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "bellspace.cli", *argv],
                                    stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.tmp)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return out, proc.returncode, perf() - start, usage.ru_maxrss / 1024.0

    def batch(self, ops: Ops, index: int) -> None:
        total = 0
        for label, argv, check in self.calls:
            self.tracer.next_op()
            start = perf()
            out, code, wall, rss = self._spawn(argv)
            if self.tracer.enabled:
                self.tracer.add(f"cli.subprocess.{label}", start, start + wall)
            self.walls[label].append(wall)
            self.child_rss.append(rss)
            total += len(out)
            reference = self.reference.setdefault(label, out)
            ops.later(f"cli {label}", lambda o=out, c=code, r=reference, f=check: _check_call(o, c, r, f))
        self.batch_bytes.append(total)

    # -- traced-only measurements ---------------------------------------------

    def finish(self, ops: Ops) -> None:
        if not self.tracer.enabled:
            return
        for _ in range(_IMPORTTIME_RUNS):
            start = perf()
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bellspace"],
                                  capture_output=True, text=True, env=self.env, cwd=self.tmp, check=True)
            parsed = parse_importtime(proc.stderr)
            self.importtime.append(parsed)
            _import_spans(self.tracer, parsed, start)
        from bellspace import cli

        for _ in range(_REPLAYS):
            per_command: dict[str, float] = defaultdict(float)
            for label, argv, _check in self.calls[1:]:
                self.tracer.next_op()
                buffer = io.StringIO()
                with self.tracer.span(f"cli.main.{label}"), contextlib.redirect_stdout(buffer):
                    start = perf()
                    code = cli.main(argv)
                    per_command[argv[0]] += perf() - start
                same = buffer.getvalue().encode("utf-8") == self.reference[label]
                ops.record(f"cli replay {label}", [] if code == 0 and same else
                           [f"in-process main exit {code}, stdout identical: {same}"])
            for command, seconds in per_command.items():
                self.replay_s[command].append(seconds)

    # -- metrics --------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        return max(self.child_rss)

    def metrics(self, ops: Ops) -> dict[str, float]:
        every = [w for walls in self.walls.values() for w in walls]
        values = {
            "cli_cold_start_s": median(self.walls["chsh"]),
            "cli_p50_s": median(every),
            "cli.version_wall_s": median(self.walls["version"]),
            "cli.stdout_bytes": float(self.batch_bytes[0]),
        }
        if self.importtime:
            values["cli.import_s"] = median(p["import_s"] for p in self.importtime)
            values["cli.import_scipy_s"] = median(p["scipy_s"] for p in self.importtime)
            values["cli.import_modules"] = float(self.importtime[0]["modules"])
        for command, seconds in self.replay_s.items():
            values[f"cli.main_s.{command}"] = median(seconds)
        return values


# -- checks on parsed CLI output ------------------------------------------------


def _check_call(out: bytes, code: int, reference: bytes, check) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    problems = [] if out == reference else ["stdout differs from the first run with the same seed"]
    return problems + check(out)


def _check_version(out: bytes) -> list[str]:
    return [] if out.startswith(b"bellspace ") else [f"unexpected version output {out[:40]!r}"]


def _check_chsh(out: bytes) -> list[str]:
    return checks.close("chsh s_value", json.loads(out)["s_value"], checks.TWO_SQRT2, 1e-12)


def _check_thresholds(out: bytes) -> list[str]:
    problems = []
    for row in json.loads(out)["thresholds"]:
        if row["regime"] != checks.regime(row["g"]):
            problems.append(f"g={row['g']!r}: regime {row['regime']!r}")
        problems += checks.close("chsh_max", row["chsh_max"], checks.TWO_SQRT2 * row["g"], 1e-12)
    return problems


def _check_packet(out: bytes, m: float, center: list[float], times: list[float]) -> list[str]:
    rows = json.loads(out)["rows"]
    problems = [] if len(rows) == len(times) else ["wrong number of packet rows"]
    half = 1.0 / m
    lo = [c - half for c in center]
    hi = [c + half for c in center]
    for row, t in zip(rows, times):
        sigma = checks.width_at(m, t)
        problems += checks.rel_close(f"width(t={t:.3g})", row["width"], sigma, 1e-12)
        problems += checks.rel_close(f"prob(t={t:.3g})", row["prob_in_region"],
                                     checks.box_probability(center, sigma, lo, hi), 1e-9)
    return problems


def _check_gfactor(out: bytes, m: float, separation: list[float], times: list[float]) -> list[str]:
    curve = json.loads(out)["curve"]
    problems = [] if len(curve) == len(times) else ["wrong number of g(t) rows"]
    half = 1.0 / m
    for point, t in zip(curve, times):
        sigma = checks.width_at(m, t)
        one = checks.box_probability((0.0, 0.0, 0.0), sigma, (-half,) * 3, (half,) * 3)
        problems += checks.rel_close(f"g(t={t:.3g})", point["g"], one * one, 1e-9)
    gs = [p["g"] for p in curve]
    if any(b > a for a, b in zip(gs, gs[1:])):
        problems.append("g(t) increases along the time grid")
    return problems


def _check_lhv(out: bytes, g: float, mode: str) -> list[str]:
    data = json.loads(out)
    problems = checks.close("chsh_canonical", data["chsh_canonical"], checks.TWO_SQRT2 * g, 1e-12)
    for row in data["expectations"]:
        want = g * math.cos(row["alpha"] - row["beta"])
        if mode == "exact":
            problems += checks.close("expectation", row["expectation"], want, 1e-12)
        else:
            problems += checks.within_sigma("mc mean", row["mean"], want, row["std_error"])
    return problems


def _check_feasibility(out: bytes, target: dict, tol: float) -> list[str]:
    data = json.loads(out)
    if data["status"] != "infeasible":
        return [f"canonical 2x2 target reported {data['status']!r}"]
    coeff = np.array(data["certificate"]["coefficients"])
    matrix = np.array(target["matrix"])
    problems = []
    if not float(np.sum(coeff * matrix)) - checks.classical_bound(coeff) > 1e-9:
        problems.append("certificate does not separate the canonical target")
    threshold = 1.0 / math.sqrt(2.0)
    scale = data["max_scale"]
    if not threshold - tol <= scale <= threshold:
        problems.append(f"max_scale {scale!r} not within tol below 1/sqrt(2)")
    return problems


def _check_qkd(out: bytes, g: float, n_rounds: int) -> list[str]:
    data = json.loads(out)
    problems = [] if data["n_rounds"] == n_rounds else ["n_rounds changed"]
    if data["verdict"] != "secure":
        problems.append(f"verdict {data['verdict']!r}")
    if data["qber"] != 0.0:
        problems.append(f"qber {data['qber']!r}")
    est, unc = data["chsh_estimate"], data["chsh_unconditioned"]
    problems += checks.within_sigma("S", est["s_value"], checks.TWO_SQRT2, est["std_error"])
    problems += checks.within_sigma("unconditioned S", unc["s_value"], checks.TWO_SQRT2 * g,
                                    unc["std_error"])
    return problems
