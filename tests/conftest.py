"""Shared test tooling: a wall-clock cap, so that a blow-up fails its test
quickly instead of hanging the suite.  Import it with
``from conftest import time_cap``."""

import signal
from contextlib import contextmanager

import pytest


@contextmanager
def time_cap(seconds: float):
    """Fail the test when the block runs longer than ``seconds``.

    Arms SIGALRM through ``signal.setitimer`` (POSIX, main thread only) and
    restores the previous handler and disarms the timer on exit.
    """

    def expire(signum, frame):
        pytest.fail(f"over the {seconds:g} s time cap", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
