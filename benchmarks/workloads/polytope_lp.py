"""polytope_lp: local-polytope membership on an ascending ladder of grids.

Seeded planar cosine targets g*cos(alpha_i - beta_j) on k x k grids, k = 2..8,
each k at one g <= 1/2 (which must be feasible) and one g near 1.  Many
instances at small k measure per-call overhead; k = 8 measures the dense
2^(m+n-1)-column matrix (9x9 takes ~34 s, so the ladder stops at 8).  The
angles are a regular grid with seeded jitter rather than fully random, so
instance hardness, and with it LP time, does not swing with the seed.
``max_feasible_scale`` runs on the canonical 2x2 target and on random 3-5
grids, which separates the bisection loop from single solves.

After the timed batches a 10x10 instance (m + n = 20, under MAX_GRID_SIZE)
runs in a child process capped at 3 GiB of address space: a known-defect
probe for the dense-matrix memory guard.
"""

from __future__ import annotations

import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
from harness import Ops, Tracer, max_rss_mb, median, perf

import bellspace.feasibility as feasibility
from bellspace.feasibility import (
    FeasibilitySolverError,
    canonical_cosine_target,
    cosine_target,
    local_polytope_membership,
    max_feasible_scale,
    verify_certificate,
)

# instances per g at each grid size k
LADDER = {2: 8, 3: 6, 4: 4, 5: 2, 6: 1, 7: 1, 8: 1}
TINY_LADDER = {2: 2, 3: 2, 4: 1}
SCALE_TOL = 1e-4
PROBE_K = 10
PROBE_ADDRESS_SPACE = 3 << 30
PROBE_TIMEOUT_S = 60


def jittered_grid(rng: np.random.Generator, k: int, g: float):
    spacing = math.pi / k
    alphas = (np.arange(k) + rng.uniform(-0.25, 0.25, k)) * spacing
    betas = (np.arange(k) + 0.5 + rng.uniform(-0.25, 0.25, k)) * spacing
    return cosine_target(alphas, betas, g)


class PolytopeLp:
    name = "polytope_lp"
    why = ("local-polytope LP on a k = 2..8 grid ladder plus max_feasible_scale: small k "
           "measures per-call overhead, k = 8 the dense 2^(m+n) matrix")

    def __init__(self, seed: int, tiny: bool, tracer: Tracer, root: Path):
        self.tracer, self.root, self.seed, self.tiny = tracer, root, seed, tiny
        self.ladder = TINY_LADDER if tiny else LADDER
        self.seeds = np.random.SeedSequence(seed)
        self.rss_after: dict[int, float] = {}
        self.support = 0
        self.scale_calls = 0
        self.scale_solves = 0
        self.probe: dict = {}
        # warm-up: both verdicts, the certificate check and the bisection
        feasible = local_polytope_membership(canonical_cosine_target(0.5))
        infeasible = local_polytope_membership(canonical_cosine_target(1.0))
        verify_certificate(infeasible.certificate, canonical_cosine_target(1.0))
        max_feasible_scale(canonical_cosine_target(1.0), 0.1)
        if not feasible.is_feasible or infeasible.is_feasible:
            raise RuntimeError("warm-up verdicts on the canonical target are wrong")

    def _targets(self, index: int):
        rng = np.random.default_rng(np.random.SeedSequence(self.seeds.entropy, spawn_key=(index,)))
        ladder = []
        for k, count in self.ladder.items():
            for _ in range(count):
                ladder.append((k, jittered_grid(rng, k, float(rng.uniform(0.3, 0.5))), True))
                ladder.append((k, jittered_grid(rng, k, float(rng.uniform(0.9, 1.0))), False))
        scale_targets = [canonical_cosine_target(1.0)] + [
            cosine_target(rng.uniform(0.0, 2 * math.pi, k), rng.uniform(0.0, 2 * math.pi, k))
            for k in ((3, 4) if self.tiny else (3, 4, 5))
        ]
        return ladder, scale_targets

    @staticmethod
    def _verdict(ops: Ops, k: int, target):
        """Membership, plus the library's own certificate check when infeasible."""
        result = ops.timed(f"feasibility.membership_s.k{k}", local_polytope_membership, target)
        if result.is_feasible:
            return result, True
        return result, ops.timed("feasibility.verify_certificate_s", verify_certificate,
                                 result.certificate, target)

    def batch(self, ops: Ops, index: int) -> None:
        ladder, scale_targets = self._targets(index)
        for k, target, low_g in ladder:
            self.tracer.next_op()
            ok, out = ops.call(f"verdict.k{k}", self._verdict, ops, k, target)
            if ok:
                result, verified = out
                if index == 0 and result.is_feasible:
                    self.support += len(result.weights)
                ops.later(f"lp k={k}", lambda r=result, t=target, v=verified, f=low_g:
                          checks.check_verdict(r, t.matrix, must_be_feasible=f)
                          + ([] if v else ["verify_certificate rejected the certificate"]))
            if index == 0 and k >= 6:
                self.rss_after[k] = max_rss_mb()  # the last write per k follows its last instance
        for target in scale_targets:
            self.tracer.next_op()
            ok, scale = ops.call("feasibility.max_feasible_scale", max_feasible_scale, target,
                                 SCALE_TOL)
            if ok:
                canonical = target.matrix.shape == (2, 2)
                ops.later("max_feasible_scale", lambda s=scale, t=target, c=canonical:
                          _check_scale(s, t, c))

    def finish(self, ops: Ops) -> None:
        if self.tracer.enabled:
            self._count_solves()
        self.probe = self._capacity_probe()
        ops.record(f"capacity probe {PROBE_K}x{PROBE_K}", self.probe["problems"], probe=True)

    def _count_solves(self) -> None:
        """Count membership solves inside max_feasible_scale (traced run only)."""
        original = feasibility.local_polytope_membership

        def counting(*args, **kwargs):
            self.scale_solves += 1
            with self.tracer.span("feasibility.local_polytope_membership"):
                return original(*args, **kwargs)

        _ladder, scale_targets = self._targets(0)
        feasibility.local_polytope_membership = counting
        try:
            for target in scale_targets:
                max_feasible_scale(target, SCALE_TOL)
                self.scale_calls += 1
        finally:
            feasibility.local_polytope_membership = original

    def _capacity_probe(self) -> dict:
        start = perf()
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve().parent.parent / "run.py"),
                 "--capacity-probe", "--seed", str(self.seed)] + (["--tiny"] if self.tiny else []),
                capture_output=True, text=True, cwd=self.root, timeout=PROBE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"seconds": perf() - start, "problems": [f"no answer within {PROBE_TIMEOUT_S} s"]}
        wall = perf() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"seconds": wall, "problems": [
                f"child exited with code {proc.returncode}: {proc.stderr.strip()[-300:]}"]}
        report = json.loads(lines[-1])
        return {"seconds": report["seconds"], "problems": report["problems"]}

    def peak_rss_mb(self) -> float:
        return max_rss_mb()

    def metrics(self, ops: Ops) -> dict[str, float]:
        small = [t for k in (2, 3, 4) for t in ops.times.get(f"verdict.k{k}", [])]
        largest = max(self.ladder)
        scale_s = median(ops.times["feasibility.max_feasible_scale"])
        values = {
            "lp_small_p50_ms": 1000.0 * median(small),
            "lp_large_s": median(ops.times[f"verdict.k{largest}"]),
            "max_scale_s": scale_s,
            "feasibility.max_feasible_scale_s": scale_s,
            "feasibility.verify_certificate_s": median(ops.times.get("feasibility.verify_certificate_s", [])),
            "feasibility.mixture_support": float(self.support),
            "feasibility.capacity_probe_s": self.probe["seconds"],
            "feasibility.capacity_probe_ok": float(not self.probe["problems"]),
        }
        for k in self.ladder:
            values[f"feasibility.membership_s.k{k}"] = median(ops.times[f"feasibility.membership_s.k{k}"])
        for k, rss in self.rss_after.items():
            values[f"feasibility.membership_rss_mb.k{k}"] = rss
        if self.scale_calls:
            values["feasibility.solves_per_scale"] = self.scale_solves / self.scale_calls
        return values


def _check_scale(scale: float, target, canonical: bool) -> list[str]:
    """scale*P must be feasible and (scale + tol)*P infeasible, both verified."""
    problems = []
    if not 0.0 <= scale <= 1.0:
        return [f"scale {scale!r} outside [0, 1]"]
    inside = target.scaled(scale)
    problems += checks.check_verdict(local_polytope_membership(inside), inside.matrix,
                                     must_be_feasible=True)
    if scale + SCALE_TOL <= 1.0:
        outside = target.scaled(scale + SCALE_TOL)
        result = local_polytope_membership(outside)
        if result.is_feasible:
            problems.append(f"(scale + tol) * P = {scale + SCALE_TOL!r} * P is still feasible")
        else:
            problems += checks.check_certificate(result, outside.matrix)
    if canonical and not 1.0 / math.sqrt(2.0) - SCALE_TOL <= scale <= 1.0 / math.sqrt(2.0):
        problems.append(f"canonical max scale {scale!r} not within tol below 1/sqrt(2)")
    return problems


def capacity_probe_child(seed: int, tiny: bool) -> int:
    """Child side of the capacity probe: one large instance under an address-space cap.

    A right answer is a verified verdict or a clean FeasibilitySolverError
    refusal; running out of memory is the known defect.
    """
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_ADDRESS_SPACE, PROBE_ADDRESS_SPACE))
    k = 4 if tiny else PROBE_K
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2**31,)))
    target = cosine_target(rng.uniform(0.0, 2 * math.pi, k), rng.uniform(0.0, 2 * math.pi, k), 0.95)
    start = perf()
    problems: list[str] = []
    try:
        result = local_polytope_membership(target)
        problems = checks.check_verdict(result, target.matrix)
    except FeasibilitySolverError:
        pass
    except MemoryError as exc:
        problems = [f"{k}x{k} grid passed the memory guard, then raised MemoryError {exc}"]
    seconds = perf() - start
    sys.stdout.write(json.dumps({"seconds": seconds, "problems": problems,
                                 "max_rss_mb": max_rss_mb()}) + "\n")
    return 0
