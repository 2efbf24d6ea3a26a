"""Bounded retry with exponential backoff and jitter.

Only *transient* failures are worth retrying: a file that momentarily
fails to read (NFS hiccup, anti-virus lock) may succeed a few
milliseconds later, while a missing file or a fingerprint mismatch will
fail identically forever.  :func:`is_transient_io_error` encodes that
split for the artifact-I/O paths, the only callers.

Jitter is multiplicative and drawn from an injectable RNG so tests can
pin the schedule exactly.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule: ``base_delay * multiplier**attempt``, capped.

    ``attempts`` counts total tries including the first; jitter scales
    each delay by ``1 + jitter * rand()`` to de-synchronize concurrent
    retriers.
    """

    attempts: int = 3
    base_delay: float = 0.005
    max_delay: float = 0.1
    multiplier: float = 2.0
    jitter: float = 0.5


DEFAULT_RETRY_POLICY = RetryPolicy()


def is_transient_io_error(error: BaseException) -> bool:
    """Worth retrying?  Transient OS-level I/O failures only.

    ``FileNotFoundError`` is a *definitive* answer (cache miss), not a
    glitch — retrying it would just triple the latency of every cold
    start.
    """
    return isinstance(error, OSError) and not isinstance(
        error, FileNotFoundError
    )


def retry_call(
    fn: Callable,
    policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    sleep: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
    on_retry: Callable[[int, BaseException], None] | None = None,
):
    """Call ``fn`` with up to ``policy.attempts`` tries.

    Only errors :func:`is_transient_io_error` accepts are retried;
    other errors and the final attempt's error propagate
    unchanged.  ``on_retry(attempt, error)`` fires before each re-try,
    letting callers count retries in metrics.
    """
    if policy.attempts < 1:
        raise ValueError("RetryPolicy.attempts must be >= 1")
    rng = rng if rng is not None else random
    attempt = 0
    while True:
        try:
            return fn()
        except BaseException as error:
            attempt += 1
            if attempt >= policy.attempts or not is_transient_io_error(error):
                raise
            delay = min(
                policy.max_delay,
                policy.base_delay * policy.multiplier ** (attempt - 1),
            )
            delay *= 1.0 + policy.jitter * rng.random()
            if on_retry is not None:
                on_retry(attempt, error)
            sleep(delay)
