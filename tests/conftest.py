import signal
from contextlib import contextmanager

import pytest


class WallBoundExceeded(BaseException):
    """A block ran past its wall bound.  Not an Exception, so Hypothesis does
    not catch it: shrinking a hang would run each smaller example to the
    bound again, for up to 300 s, where this ends the test at once."""


@contextmanager
def _wall_bound(seconds: float):
    """Raise WallBoundExceeded in the block once `seconds` of wall time pass,
    so a search that regresses to hanging fails instead."""

    def expire(signum, frame):
        raise WallBoundExceeded(f"over the {seconds} s wall bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def wall_bound():
    """The factory _wall_bound, which holds no state between blocks, so a
    @given test may take it with HealthCheck.function_scoped_fixture
    suppressed and bound each example on its own."""
    return _wall_bound
