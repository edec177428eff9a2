import signal
from contextlib import contextmanager

import pytest


@contextmanager
def _wall_bound(seconds: float):
    """Raise TimeoutError in the block once `seconds` of wall time pass, so a
    search that regresses to hanging fails instead."""

    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s wall bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def wall_bound():
    return _wall_bound
