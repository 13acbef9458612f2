"""Shared fixtures: the derived algebra is built once per session."""

import signal
from contextlib import contextmanager

import pytest

from jforge.rtt import DerivedAlgebra


@pytest.fixture(scope="session")
def alg():
    return DerivedAlgebra()


@pytest.fixture(scope="session")
def quotient(alg):
    return alg.quotient()


@contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the block once `seconds` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def time_limit():
    """Wall-clock bound for code that would stall, not fail, if it regressed.

    Session-scoped so hypothesis tests can take it and bound each example.
    """
    return _time_limit
