"""Deterministic fault injection for the serving layer.

A :class:`FaultPlan` decides — reproducibly, from a seed — whether a
named *fault site* fails when the serving code reaches it.  The registry
and service call :meth:`FaultPlan.check` at every site listed in
:data:`SITES`; a firing check sleeps (injected latency), raises (injected
failure), or both.  Because every decision comes from a per-site
deterministic stream, a chaos run that found a bug can be replayed
exactly by pinning the seed, and the :meth:`FaultPlan.transcript` of
decisions can be shipped as a CI artifact.

Nothing in this module knows about grammars or parsers: a plan is just
"site name -> (probability, error, latency)" plus bookkeeping.  The
production path pays a single ``is None`` check when no plan is
installed.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass

#: Every fault site the serving layer guards.  Rules must name one of
#: these — a typo in a chaos plan should fail loudly, not silently test
#: nothing.
SITES = (
    "artifact.read.ir",       # parse-program IR artifact read (registry)
    "artifact.write.ir",      # parse-program IR artifact publish
    "compose",                # grammar composition (registry build lock)
    "program.compile",        # ParseProgram compilation (registry entry)
    "closure.compile",        # closure-backend compilation (registry entry)
    "hints.build",            # feature-hint provider construction (entry)
    "backend.parse",          # the primary backend parse (service)
    "worker.execute",         # the whole per-request worker body (service)
    "worker.spawn",           # process-pool creation/health (service)
)

#: Error types a randomized chaos plan draws from.  ``OSError`` exercises
#: the transient-I/O retry path at artifact sites; the others exercise
#: the degradation ladder and the never-crash guard.
CHAOS_ERRORS = (None, OSError, RuntimeError, ValueError)


class FaultInjected(Exception):
    """Default exception raised by a firing fault.

    Deliberately *not* a :class:`~repro.errors.ReproError`: injected
    faults model unexpected infrastructure failures, so they must travel
    the same handling paths a genuine bug would.
    """


@dataclass(frozen=True)
class FaultRule:
    """Failure behavior for one site.

    Attributes:
        site: One of :data:`SITES`.
        probability: Chance in ``[0, 1]`` that a check fires.
        error: Exception type raised on fire; ``None`` injects latency
            only (the check returns normally after sleeping).
        latency: Seconds slept on fire, before raising.
        times: Maximum number of fires (``None`` = unlimited) — lets a
            test storm a site and then watch the service recover.
        after: Number of initial checks at the site that never fire.
    """

    site: str
    probability: float = 1.0
    error: type[BaseException] | None = FaultInjected
    latency: float = 0.0
    times: int | None = None
    after: int = 0


class FaultPlan:
    """A seeded, thread-safe schedule of failures at named sites.

    Args:
        rules: At most one :class:`FaultRule` per site; sites without a
            rule never fire.
        seed: Seeds one independent deterministic stream *per site*, so
            adding a rule for one site never perturbs the decisions made
            at another — a shrunk reproduction stays a reproduction.
    """

    def __init__(self, rules: tuple | list = (), seed: int | str = 0) -> None:
        self.seed = seed
        self._rules: dict[str, FaultRule] = {}
        for rule in rules:
            if rule.site not in SITES:
                raise ValueError(
                    f"unknown fault site {rule.site!r} "
                    f"(known: {', '.join(SITES)})"
                )
            if rule.site in self._rules:
                raise ValueError(f"duplicate fault rule for site {rule.site!r}")
            self._rules[rule.site] = rule
        self._lock = threading.Lock()
        # string seeds: random.Random hashes str/bytes deterministically
        # (unlike tuples, whose hash() is salted per process)
        self._streams = {
            site: random.Random(f"{seed}|{site}") for site in self._rules
        }
        self._checks: dict[str, int] = dict.fromkeys(self._rules, 0)
        self._fires: dict[str, int] = dict.fromkeys(self._rules, 0)
        self._transcript: list[dict] = []

    @classmethod
    def chaos(
        cls,
        seed: int | str,
        sites: tuple[str, ...] = SITES,
        probability: tuple[float, float] = (0.1, 0.4),
        max_latency: float = 0.002,
    ) -> "FaultPlan":
        """A randomized-but-reproducible plan covering every site.

        Probabilities, error types, and (tiny) latencies are drawn from
        ``seed``; the same seed always builds the same plan.
        """
        rng = random.Random(f"chaos|{seed}")
        rules = []
        for site in sites:
            error = rng.choice(CHAOS_ERRORS)
            rules.append(
                FaultRule(
                    site=site,
                    probability=rng.uniform(*probability),
                    error=error if error is not None else FaultInjected,
                    latency=(
                        rng.uniform(0.0, max_latency)
                        if rng.random() < 0.3 else 0.0
                    ),
                )
            )
        return cls(rules, seed=seed)

    # -- the hot call -------------------------------------------------------

    def check(self, site: str) -> None:
        """Record one arrival at ``site``; sleep and/or raise if it fires."""
        rule = self._rules.get(site)
        if rule is None:
            return
        with self._lock:
            n = self._checks[site]
            self._checks[site] = n + 1
            fire = (
                n >= rule.after
                and (rule.times is None or self._fires[site] < rule.times)
                and self._streams[site].random() < rule.probability
            )
            if fire:
                self._fires[site] += 1
            self._transcript.append(
                {
                    "seq": len(self._transcript),
                    "site": site,
                    "check": n,
                    "fired": fire,
                    "error": rule.error.__name__ if fire and rule.error else None,
                    "latency": rule.latency if fire else 0.0,
                }
            )
        if not fire:
            return
        if rule.latency:
            time.sleep(rule.latency)
        if rule.error is not None:
            raise rule.error(
                f"injected fault at {site!r} (check #{n}, seed {self.seed!r})"
            )

    # -- introspection ------------------------------------------------------

    def fired(self, site: str | None = None) -> int:
        """Fires at one site, or across the whole plan."""
        with self._lock:
            if site is not None:
                return self._fires.get(site, 0)
            return sum(self._fires.values())

    def checked(self, site: str) -> int:
        with self._lock:
            return self._checks.get(site, 0)

    def transcript(self) -> list[dict]:
        """Every decision taken so far, in order (a copy)."""
        with self._lock:
            return [dict(entry) for entry in self._transcript]

    def to_json(self, indent: int | None = 2) -> str:
        """Transcript + plan parameters, for the CI failure artifact."""
        with self._lock:
            payload = {
                "kind": "repro-fault-transcript",
                "seed": self.seed,
                "rules": [
                    {
                        "site": rule.site,
                        "probability": rule.probability,
                        "error": rule.error.__name__ if rule.error else None,
                        "latency": rule.latency,
                        "times": rule.times,
                        "after": rule.after,
                    }
                    for rule in self._rules.values()
                ],
                "checks": dict(self._checks),
                "fires": dict(self._fires),
                "transcript": [dict(entry) for entry in self._transcript],
            }
        return json.dumps(payload, indent=indent)

    def __repr__(self) -> str:
        return (
            f"<FaultPlan seed={self.seed!r} sites={sorted(self._rules)} "
            f"fired={self.fired()}>"
        )
