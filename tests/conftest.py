"""Shared test tooling: a wall-clock cap and a traced-memory cap, so that a
blow-up fails its test quickly instead of hanging the suite or filling the
machine, and the table of S3.  Import them with
``from conftest import alloc_cap, s3_spec, time_cap``."""

import itertools
import signal
import tracemalloc
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


@contextmanager
def alloc_cap(nbytes: int):
    """Fail the test when the traced peak of the block exceeds ``nbytes``.

    Counts the bytes ``tracemalloc`` sees allocated above what was live when
    the block started (numpy reports its buffers to it).  Starts tracing if
    it was off and stops it again on exit.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base, _ = tracemalloc.get_traced_memory()
    try:
        yield
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    if peak - base > nbytes:
        pytest.fail(f"traced peak {peak - base:,} bytes over the {nbytes:,}-byte cap", pytrace=False)


def s3_spec(generator_indices=None) -> GroupSpec:
    """S3 as permutations of three points, composed right to left; indices 1,
    2 and 5 are the transpositions, 3 and 4 the 3-cycles."""
    perms = list(itertools.permutations(range(3)))
    table = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    return GroupSpec.from_table([str(p) for p in perms], table, generator_indices=generator_indices)
