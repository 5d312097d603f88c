"""Time limits and child processes for the benchmark.

Children are waited for with a blocking wait under a SIGALRM deadline, not
with ``subprocess``'s ``timeout=``: that polls with sleeps of up to 50 ms,
which rounds every measured child time to the polling step.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_work"


class OpTimeout(BaseException):
    """Raised by ``deadline``; a BaseException, so that no ``except
    Exception`` in the program or the benchmark can swallow it."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise OpTimeout in the main thread if the block runs too long."""
    def expire(_signum, _frame):
        raise OpTimeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Child(NamedTuple):
    code: int
    out: bytes
    err: bytes
    seconds: float     # wall time
    rss_mb: float      # the child's own peak resident memory


def run_child(argv: list[str], seconds: float) -> Child:
    """Run one child in the checkout with ``src/`` importable.  A child
    still running after ``seconds`` is killed and reaped, and OpTimeout
    raised.  Output goes to files, not pipes, so that the child can be
    reaped with ``os.wait4``, which gives its own resource use, before its
    output is read."""
    with tempfile.TemporaryFile(dir=SCRATCH) as out, \
            tempfile.TemporaryFile(dir=SCRATCH) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            with deadline(seconds):
                _pid, status, usage = os.wait4(proc.pid, 0)
        except OpTimeout:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss / 1024)
