"""Membership verdicts on 3400 seeded targets at the local polytope's edges.

It prints how many verdicts are proven, how many are not, how many solves
raised, how many ran the repair and how many a 2x2 CHSH facet decided before
the gauge LP, so a change to membership can be read against ROADMAP items 6
and 22.  It also counts the feasible verdicts that an integer 2x2 CHSH
functional contradicts: ``verify_certificate`` accepts it against the target.
pytest does not collect this file; ``TestEdgeSweep`` in test_feasibility.py
gates its counts: 0 unproven and 0 unverified verdicts, 0 solver errors, 3400
verified, 2547 decided by a CHSH facet and at most 27 contradicted feasible
verdicts.  The repairs, and the exact number of contradicted verdicts, are
report only.

Each target is 2..3 x 2..3 on the grids alphas ``range(m)`` and betas
``arange(n) + 0.5``.  Each entry, row-major, is picked by ``rng.integers(5)``:
0, +1, -1, +-10^U(-9,-6) with a random sign, or U(-1, 1).  The targets come
from ``default_rng(3)``, then ``default_rng(4)``, 1700 each.

Run it as ``PYTHONPATH=src python tests/edge_sweep.py``.
"""

from __future__ import annotations

import functools
import itertools
import logging
from collections import Counter

import numpy as np

from bellspace.feasibility import (
    FEASIBILITY_TOL,
    CorrelationTarget,
    FeasibilitySolverError,
    local_polytope_membership,
    verify_certificate,
)
from bellspace.lhv import BellCertificate

SEEDS = (3, 4)
TARGETS_PER_SEED = 1700


def edge_targets(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = rng.integers(2, 4), rng.integers(2, 4)
        entries = []
        for _ in range(m * n):
            kind = rng.integers(5)
            if kind < 3:
                entries.append((0.0, 1.0, -1.0)[kind])
            elif kind == 3:
                entries.append(rng.choice((-1, 1)) * 10 ** rng.uniform(-9, -6))
            else:
                entries.append(rng.uniform(-1, 1))
        yield CorrelationTarget(tuple(range(m)), tuple(np.arange(n) + 0.5),
                                np.reshape(entries, (m, n)))


@functools.lru_cache(maxsize=None)
def chsh_functionals(m: int, n: int) -> tuple[BellCertificate, ...]:
    """The eight integer CHSH functionals (one -1 among four +1 corners, times +-1) on
    every 2x2 sub-grid of an m x n grid."""
    functionals = []
    for (i, k), (j, l) in itertools.product(itertools.combinations(range(m), 2),
                                            itertools.combinations(range(n), 2)):
        for minus, sign in itertools.product(range(4), (1, -1)):
            corners = np.full(4, sign)
            corners[minus] = -sign
            coeff = np.zeros((m, n))
            coeff[[i, i, k, k], [j, l, j, l]] = corners
            functionals.append(BellCertificate(coeff))
    return tuple(functionals)


def sweep() -> Counter:
    """The counts of every verdict kind over the sweep, and of the repairs."""
    records, logger = [], logging.getLogger("bellspace.feasibility")
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    counts = Counter()
    try:
        for seed in SEEDS:
            for target in edge_targets(seed, TARGETS_PER_SEED):
                records.clear()
                try:
                    result = local_polytope_membership(target)
                except FeasibilitySolverError:
                    counts["solver errors"] += 1
                    continue
                # a screened verdict logs a "CHSH screen" record and runs no LP; an LP
                # record's seventh argument says whether the repair ran
                screened = any(r.msg.startswith("CHSH screen") for r in records)
                repaired = any(r.args[6] for r in records if r.msg.startswith("gauge LP"))
                counts["decided by a CHSH facet"] += screened
                counts["repairs"] += repaired
                if result.is_feasible:
                    counts["feasible, contradicted by a CHSH functional"] += any(
                        verify_certificate(functional, target)
                        for functional in chsh_functionals(*target.matrix.shape))
                if result.is_feasible and result.residual <= FEASIBILITY_TOL:
                    counts["verified feasible"] += 1
                elif result.is_feasible:
                    counts["unproven feasible"] += 1
                    counts["unproven feasible, not repaired"] += not repaired
                elif verify_certificate(result.certificate, target):
                    counts["verified infeasible"] += 1
                else:
                    counts["unverified infeasible"] += 1
    finally:
        logger.removeHandler(handler)
    return counts


if __name__ == "__main__":
    counts = sweep()
    for key in ("verified feasible", "unproven feasible", "unproven feasible, not repaired",
                "verified infeasible", "unverified infeasible", "solver errors", "repairs",
                "decided by a CHSH facet", "feasible, contradicted by a CHSH functional"):
        print(f"{key}: {counts[key]}")
