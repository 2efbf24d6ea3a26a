"""Seeded inputs for every workload, generated before any timing starts.

The seed is a benchmark argument; the program under test only ever sees
the generated texts.  Shares that shape the service's behaviour (dialect
mix, invalid share, repeat share) are fixed counts shuffled by the seed,
so seeds differ in order and query text but not in mix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from repro.workloads import generate_workload

#: The five preset dialects, smallest to largest.
DIALECTS = ("scql", "tinysql", "core", "analytics", "full")

#: serve-mixed: share of requests made invalid with an unmatched ``)``.
INVALID_SHARE = 0.10

#: serve-mixed: share of requests that exactly repeat the one before,
#: sent 0.2-1 ms behind it so the async front end can coalesce them.
REPEAT_SHARE = 0.15

#: Distinct generated queries per dialect in a serve-mixed pool.
SERVE_POOL = 400

#: batch-*: queries per ``parse_many`` call and distinct batches cycled.
BATCH_SIZE = 64
BATCH_COUNT = 32

#: translate-pairs: the three directions and the queries per direction.
TRANSLATE_PAIRS = (("core", "full"), ("analytics", "full"), ("full", "core"))
TRANSLATE_POOL = 300


@dataclass(frozen=True)
class Request:
    """One query to parse: its dialect, text and expected verdict."""

    dialect: str
    text: str
    valid: bool
    repeat: bool = False


def mutate(text: str) -> str:
    """The invalid variant: an unmatched trailing ``)``, rejected by every preset."""
    return text + ")"


def serve_requests(seed: int, count: int, stream: str) -> list[Request]:
    """``count`` requests with exact dialect, invalid and repeat shares."""
    rng = random.Random(f"serve-mixed|{seed}|{stream}")
    pools = {
        d: generate_workload(d, SERVE_POOL, seed=rng.randrange(2**31))
        for d in DIALECTS
    }
    n_repeat = round(count * REPEAT_SHARE)
    n_fresh = count - n_repeat
    dialects = [DIALECTS[i % len(DIALECTS)] for i in range(n_fresh)]
    rng.shuffle(dialects)
    invalid = set(rng.sample(range(n_fresh), round(n_fresh * INVALID_SHARE)))
    repeated = set(rng.sample(range(n_fresh), n_repeat))
    requests: list[Request] = []
    for i, dialect in enumerate(dialects):
        text = rng.choice(pools[dialect])
        request = (
            Request(dialect, mutate(text), valid=False) if i in invalid
            else Request(dialect, text, valid=True)
        )
        requests.append(request)
        if i in repeated:
            requests.append(replace(request, repeat=True))
    return requests


def arrival_times(requests: list[Request], rate: float, stream: str) -> list[float]:
    """Poisson send offsets (seconds) for ``requests``, ``rate`` per second.

    Fresh requests get exponential gaps drawn by stratified sampling (the
    evenly spaced quantiles of the exponential, shuffled); a repeat follows
    its original by 0.2-1 ms.  ``rate`` counts repeats too.  The schedule
    depends on the stream and rate, not on the seed: which requests arrive
    is the seed's, when they arrive is the workload's.  The tail latency
    hangs on where the bursts fall, and would otherwise move with the seed.
    """
    rng = random.Random(f"arrivals|{stream}|{rate}")
    fresh = sum(1 for r in requests if not r.repeat)
    fresh_rate = rate * fresh / len(requests)
    gaps = [-math.log(1.0 - (k + 0.5) / fresh) / fresh_rate for k in range(fresh)]
    rng.shuffle(gaps)
    times: list[float] = []
    clock = 0.0
    for request in requests:
        if request.repeat:
            times.append(clock + rng.uniform(0.0002, 0.001))
        else:
            clock += gaps.pop()
            times.append(clock)
    return times


def batches(seed: int) -> list[list[str]]:
    """``BATCH_COUNT`` fixed batches of distinct full-dialect queries."""
    rng = random.Random(f"batch|{seed}")
    pool = generate_workload(
        "full", BATCH_SIZE * BATCH_COUNT, seed=rng.randrange(2**31)
    )
    rng.shuffle(pool)
    return [
        pool[i * BATCH_SIZE:(i + 1) * BATCH_SIZE] for i in range(BATCH_COUNT)
    ]


def translate_calls(seed: int) -> list[tuple[str, str, str]]:
    """``(source, target, sql)`` calls, every direction interleaved."""
    rng = random.Random(f"translate|{seed}")
    calls = [
        (source, target, text)
        for source, target in TRANSLATE_PAIRS
        for text in generate_workload(
            source, TRANSLATE_POOL, seed=rng.randrange(2**31)
        )
    ]
    rng.shuffle(calls)
    return calls
