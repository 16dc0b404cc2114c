"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def fresh_interpreter():
    """A runner of code in a new Python process on this checkout, which returns
    the process's stdout fields; the process is killed after 120 s, so that a
    deadlock fails the test instead of hanging the suite."""

    def run(code: str) -> list[str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
            timeout=120,
        )
        return result.stdout.split()

    return run


@pytest.fixture
def fast_thread_switching():
    """Make the interpreter switch threads every microsecond during the test."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)
