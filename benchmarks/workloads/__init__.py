"""The benchmark's workloads.

Each workload class builds its inputs from the seed and warms every layer it
times in ``__init__`` (that is set-up), runs one timed batch per ``batch``
call, and reports its own metrics from ``metrics``.  ``finish`` runs after
the timed batches: known-defect probes and the traced-only measurements.
"""

from __future__ import annotations

from .cli_batch import CliBatch
from .correlation_integrals import CorrelationIntegrals
from .polytope_lp import PolytopeLp
from .qkd_session import QkdSession

WORKLOADS = (CliBatch, QkdSession, PolytopeLp, CorrelationIntegrals)
BY_NAME = {w.name: w for w in WORKLOADS}
