import contextlib
import signal

import pytest


class TimeLimitExceeded(Exception):
    """Raised in the test when a time-limited block overruns (deliberately not
    an OSError, which the CLI's writer would turn into an exit code)."""


@pytest.fixture
def time_limit():
    """Context manager factory: ``with time_limit(10): ...`` fails the test
    instead of hanging when the block runs for more than 10 seconds."""

    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeLimitExceeded(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
