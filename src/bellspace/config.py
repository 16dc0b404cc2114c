"""Strict reader for JSON config blocks: the one definition of a valid value.

Every parser of a config block (the commands of :mod:`bellspace.cli` and its
setup, packet, region, QKD session, channel and correlation-target readers)
reads its keys through :func:`param` after :func:`reject_unknown`.
A number is a finite JSON number, never a string or a bool; an integer is a
JSON integer (``3``, not ``3.0``); booleans, strings and objects are their
JSON kinds.  Violations raise :class:`ConfigError`, a ValueError.

Solver errors on valid input derive from :class:`NumericalFailure`, declared
here so that the CLI maps them to their exit code without importing the
solvers.

:func:`on_worker` runs a job on the process's one worker thread, which the
QKD session and the 6-d quadrature share.
"""

from __future__ import annotations

import math
import os
import threading
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from concurrent.futures import Future

#: Accepted Python types of each kind, as :func:`json.load` produces them.
_JSON_TYPES = {float: (int, float), int: int, bool: bool, str: str, dict: dict}
_NAMES = {
    float: ("a finite number", "finite numbers"),
    int: ("an integer", "integers"),
    bool: ("a boolean", "booleans"),
    str: ("a string", "strings"),
    dict: ("an object", "objects"),
}


class ConfigError(ValueError):
    """Malformed configuration (bad JSON, unknown keys, invalid values)."""


class NumericalFailure(RuntimeError):
    """A valid input on which a numerical method failed (no convergence, solver error)."""


def reject_unknown(params: dict, known: set[str], where: str) -> None:
    """Require ``params`` to be a JSON object whose keys all lie in ``known``."""
    if not isinstance(params, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(params) - known
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _typed(value: Any, depth: int, kind: type) -> Any:
    if depth:
        if not isinstance(value, list):
            raise TypeError(value)
        return [_typed(v, depth - 1, kind) for v in value]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise TypeError(value)
    value = kind(value)  # float() of a huge int raises OverflowError
    if kind is float and not math.isfinite(value):
        raise ValueError(value)
    return value


def param(params: dict, key: str, default: Any, kind: type = float) -> Any:
    """Parameter ``key`` of ``params`` as a ``kind`` (float, int, bool, str or dict).

    If ``default`` is a list, the value is a list of them; if a list of
    lists, a list of lists.  A missing key gives ``default``, and is an
    error when ``default`` is None.
    """
    if key not in params and default is None:
        raise ConfigError(f"missing parameter {key!r}")
    depth, like = 0, default
    while isinstance(like, list):
        depth, like = depth + 1, like[0] if like else None
    try:
        return _typed(params.get(key, default), depth, kind)
    except (TypeError, ValueError, OverflowError) as exc:
        one, many = _NAMES[kind]
        what = "a list of " + "lists of " * (depth - 1) + many if depth else one
        raise ConfigError(f"parameter {key!r} must be {what}") from exc


#: The process's single-thread executor under "pool", and its thread's ident under
#: "thread" once that thread has started.
_POOL: dict = {}
if hasattr(os, "register_at_fork"):
    # a forked child inherits the pool but not its thread: work sent there would never run
    os.register_at_fork(after_in_child=_POOL.clear)


def on_worker(fn: Callable[..., Any], /, *args: Any) -> Future:
    """Run ``fn(*args)`` on the process's one worker thread; a Future of its result.

    Jobs run one at a time, in the order they were sent, and the thread
    starts with the first job (an executor that loses a race to
    ``setdefault`` never starts one).  A job sent from the worker thread
    itself, say by a density or a response function that calls a routine
    using the worker, runs at once on that thread: queued behind the job
    that waits for it, it would never run.
    """
    from concurrent.futures import Future, ThreadPoolExecutor

    if _POOL.get("thread") == threading.get_ident():
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future
    pool = _POOL.get("pool")
    if pool is None:
        pool = _POOL.setdefault("pool", ThreadPoolExecutor(
            1, thread_name_prefix="bellspace", initializer=_mark_worker_thread))
    return pool.submit(fn, *args)


def _mark_worker_thread() -> None:
    _POOL["thread"] = threading.get_ident()
