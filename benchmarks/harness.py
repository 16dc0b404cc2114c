"""Timing, tracing, op accounting and the environment record."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from typing import Any, Callable

perf = time.perf_counter


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def max_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def process_age_s() -> float:
    """Seconds since this process started (kernel clock, 10 ms resolution)."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22 of stat(5); fields[0] is field 3
    with open("/proc/uptime", encoding="ascii") as handle:
        uptime = float(handle.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, op id).

    Disabled tracers hand out a shared null context, so untraced runs pay one
    attribute check per call into a layer.
    """

    _NULL = nullcontext()

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.op_id = 0

    def span(self, name: str):
        return self._Span(self, name) if self.enabled else self._NULL

    class _Span:
        __slots__ = ("tracer", "name", "index")

        def __init__(self, tracer: "Tracer", name: str):
            self.tracer, self.name = tracer, name

        def __enter__(self):
            tr = self.tracer
            parent = tr._stack[-1] if tr._stack else None
            self.index = len(tr.spans)
            tr.spans.append([self.name, perf(), None, parent, tr.op_id])
            tr._stack.append(self.index)

        def __exit__(self, *exc):
            tr = self.tracer
            tr.spans[self.index][2] = perf()
            tr._stack.pop()
            return False

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        """Record a span measured elsewhere (a child process, a parsed log)."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append([name, start, end, parent, self.op_id])
        return len(self.spans) - 1

    def next_op(self) -> None:
        self.op_id += 1

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]

    def self_time(self, name: str) -> float:
        """Total duration of spans named ``name`` minus what their children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None and s[2] is not None:
                child_time[s[3]] += s[2] - s[1]
        return sum(
            (s[2] - s[1]) - child_time[i]
            for i, s in enumerate(self.spans)
            if s[0] == name and s[2] is not None
        )

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = sorted({s[0] for s in self.spans})
        summary = {
            name: {"count": len(self.durations(name)), "total_s": sum(self.durations(name)),
                   "self_s": self.self_time(name)}
            for name in names
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "summary": summary}, handle)


class Ops:
    """Attempted and failed ops, split into regular ops and known-defect probes.

    A timed call that raises counts as a failed op at once; otherwise its
    check runs after the batch's timer has stopped (see ``settle``).
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer or Tracer(False)
        self.attempted = 0
        self.failed = 0
        self.probes = 0
        self.probes_failed = 0
        self.defects: set[str] = set()  # names of the probes that failed
        self.problems: list[str] = []
        self.times: dict[str, list[float]] = {}
        self.pending: list[tuple[str, bool, Callable[[], list[str]]]] = []

    def call(self, kind: str, fn: Callable, *args, **kwargs):
        """Time ``fn(*args)`` under ``kind`` (a span when tracing); return (ok, value)."""
        with self.tracer.span(kind):
            start = perf()
            try:
                value = fn(*args, **kwargs)
            except Exception as exc:  # a raising op is a failed op, not a crash
                self.times.setdefault(kind, []).append(perf() - start)
                self.record(kind, [f"raised {type(exc).__name__}: {exc}"])
                return False, None
            self.times.setdefault(kind, []).append(perf() - start)
        return True, value

    def timed(self, kind: str, fn: Callable, *args, **kwargs):
        """Time a step inside an op under ``kind``; exceptions propagate to the op."""
        with self.tracer.span(kind):
            start = perf()
            value = fn(*args, **kwargs)
            self.times.setdefault(kind, []).append(perf() - start)
        return value

    def later(self, name: str, check: Callable[[], list[str]], probe: bool = False) -> None:
        self.pending.append((name, probe, check))

    def settle(self) -> None:
        pending, self.pending = self.pending, []
        for name, probe, check in pending:
            try:
                problems = check()
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            self.record(name, problems, probe)

    def record(self, name: str, problems: list[str], probe: bool = False) -> None:
        if probe:
            self.probes += 1
            self.probes_failed += bool(problems)
            if problems:
                self.defects.add(name)
        else:
            self.attempted += 1
            self.failed += bool(problems)
        for problem in problems:
            self.problems.append(f"{'probe ' if probe else ''}{name}: {problem}")

    def fail_frac(self) -> float:
        total = self.attempted + self.probes
        return (self.failed + self.probes_failed) / total if total else 0.0


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    mem_kb = None
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "mem_total_mb": None if mem_kb is None else round(mem_kb / 1024),
        "machine": platform.machine(),
    }


def emit_result(ops: Ops, metrics: dict[str, tuple[float, str]]) -> None:
    line = {
        "correct": ops.failed == 0,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    sys.stdout.write(json.dumps(line) + "\n")
    sys.stdout.flush()
