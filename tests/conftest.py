"""Fixtures shared by more than one test module."""

import signal

import pytest


@pytest.fixture()
def within_seconds():
    """Fails the test by SIGALRM if it runs past 5 s: an input past a bound
    must be refused before any work on its size (POSIX only).  The failure is
    pytest's own BaseException, so no `except OSError` in the code under test
    (TimeoutError is one) can take it for an input error."""
    def expire(signum, frame):
        pytest.fail("input not refused within 5 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)
