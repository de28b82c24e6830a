"""Shared test tooling: a wall-clock cap, so that a blow-up fails its test
quickly instead of hanging the suite, and the table of S3.  Import them with
``from conftest import s3_spec, time_cap``."""

import itertools
import signal
from contextlib import contextmanager

import pytest

from soficlab.groups import GroupSpec


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


def s3_spec(generator_indices=None) -> GroupSpec:
    """S3 as permutations of three points, composed right to left; indices 1,
    2 and 5 are the transpositions, 3 and 4 the 3-cycles."""
    perms = list(itertools.permutations(range(3)))
    table = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    return GroupSpec.from_table([str(p) for p in perms], table, generator_indices=generator_indices)
