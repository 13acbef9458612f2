"""Shared fixtures: the derived algebra is built once per session.

usable_cpus and no_children_left are plain helpers for the tests of the
forked workers of jforge.cli; test modules import them from here.
"""

import os
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


def usable_cpus(monkeypatch, count: int) -> list:
    """Make count CPUs usable to cli; the list collects each os.fork's pid."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    forks = []
    fork = os.fork
    parent = os.getpid()

    def recorded():
        assert os.getpid() == parent, "a worker forked"
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return forks


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
