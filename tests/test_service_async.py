"""AsyncParseService: coalescing, backpressure, deadlines, lifecycle.

The asyncio front-end adds exactly three behaviors over the wrapped
:class:`~repro.service.service.ParseService` — request coalescing,
bounded-pending admission, and admission-time deadlines — and this
suite pins each one down, plus the result-ordering and ownership
contracts.  Tests drive the event loop with ``asyncio.run`` so the
tier-1 suite needs no asyncio plugin.
"""

import asyncio

import pytest

from repro.core import GrammarProductLine
from repro.diagnostics.model import PARSE_TIMEOUT, SERVICE_OVERLOADED
from repro.service import AsyncParseService, ParseService

from tests.test_core_product_line import mini_model, mini_units

FULL = ["Query", "SetQuantifier", "MultiColumn", "Where", "GroupBy"]


def make_line():
    return GrammarProductLine(mini_model(), mini_units(), name="mini-sql")


def run(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_identical_requests_share_one_parse(self):
        async def scenario():
            async with AsyncParseService(line=make_line()) as service:
                results = await asyncio.gather(
                    *(
                        service.parse("SELECT a FROM t WHERE x = y", FULL)
                        for _ in range(8)
                    )
                )
                return results, service.metrics.snapshot()["counters"]

        results, counters = run(scenario())
        assert all(r.ok for r in results)
        assert counters["async_parses"] == 8
        assert counters["coalesced"] == 7  # one parse, seven piggybacks
        assert counters["parses"] == 1
        trees = {r.tree.to_sexpr() for r in results}
        assert len(trees) == 1  # everyone got the shared result

    def test_selection_order_coalesces_via_fingerprint(self):
        async def scenario():
            async with AsyncParseService(line=make_line()) as service:
                results = await asyncio.gather(
                    service.parse("SELECT a FROM t", ["Query", "Where"]),
                    service.parse("SELECT a FROM t", ["Where", "Query"]),
                )
                return results, service.metrics.counter("coalesced")

        results, coalesced = run(scenario())
        assert all(r.ok for r in results)
        assert coalesced == 1  # canonicalized selection, same key

    def test_distinct_texts_do_not_coalesce(self):
        async def scenario():
            async with AsyncParseService(line=make_line()) as service:
                results = await service.parse_many(
                    ["SELECT a FROM t", "SELECT DISTINCT a FROM t"], FULL
                )
                return results, service.metrics.counter("coalesced")

        results, coalesced = run(scenario())
        assert all(r.ok for r in results)
        assert coalesced == 0

    def test_invalid_selection_is_uncoalesced_diagnostic(self):
        async def scenario():
            async with AsyncParseService(line=make_line()) as service:
                return await service.parse(
                    "SELECT a FROM t", ["Query", "NoSuchFeature"]
                )

        result = run(scenario())
        assert not result.ok
        assert result.diagnostics.has_errors


class TestBackpressure:
    def test_excess_requests_shed_with_e0204(self):
        async def scenario():
            async with AsyncParseService(
                line=make_line(), max_pending=1
            ) as service:
                return await asyncio.gather(
                    *(
                        service.parse(f"SELECT a FROM t{i}", FULL)
                        for i in range(6)
                    )
                )

        results = run(scenario())
        shed = [
            r for r in results
            if any(d.code == SERVICE_OVERLOADED for d in r.diagnostics)
        ]
        served = [r for r in results if r.ok]
        assert len(shed) == 5  # one slot, five rejections
        assert len(served) == 1
        # shed results are results, not exceptions — nothing raised above

    def test_max_pending_must_be_positive(self):
        with pytest.raises(ValueError, match="max_pending"):
            AsyncParseService(line=make_line(), max_pending=0)


class TestDeadlines:
    def test_expired_while_queued_returns_e0203_without_parsing(self):
        async def scenario():
            async with AsyncParseService(line=make_line()) as service:
                service.service.warm(FULL)
                before = service.metrics.counter("parses")
                result = await service.parse(
                    "SELECT a FROM t", FULL, timeout=-1.0
                )
                parses = service.metrics.counter("parses") - before
                return result, parses, service.service.health()["timeouts"]

        result, parses, timeouts = run(scenario())
        assert result.timed_out
        assert any(d.code == PARSE_TIMEOUT for d in result.diagnostics)
        assert parses == 0  # the expired request never reached a parser
        # counted and timed alike, the negative budget clamped to zero
        assert timeouts["count"] == timeouts["latency"]["count"] == 1
        assert timeouts["latency"]["min_ms"] == 0.0

    def test_generous_deadline_parses_normally(self):
        async def scenario():
            async with AsyncParseService(line=make_line()) as service:
                return await service.parse(
                    "SELECT a FROM t WHERE x = y", FULL, timeout=30.0
                )

        result = run(scenario())
        assert result.ok
        assert not result.timed_out


class TestOrderingAndLifecycle:
    def test_parse_many_preserves_input_order(self):
        texts = [
            "SELECT a FROM t",
            "SELECT DISTINCT a FROM t",
            "SELECT a, b, c FROM t",
            "SELECT a FROM t WHERE x = y",
            "SELECT FROM WHERE",
        ]

        async def scenario():
            async with AsyncParseService(line=make_line()) as service:
                return await service.parse_many(texts, FULL)

        results = run(scenario())
        assert [r.text for r in results] == texts
        assert [r.ok for r in results] == [True, True, True, True, False]

    def test_close_rejects_new_requests(self):
        async def scenario():
            service = AsyncParseService(line=make_line())
            await service.parse("SELECT a FROM t", FULL)
            await service.close()
            await service.close()  # idempotent
            with pytest.raises(RuntimeError, match="closed"):
                await service.parse("SELECT a FROM t", FULL)
            return service

        service = run(scenario())
        assert service.pending == 0

    def test_wrapped_service_outlives_the_front_end(self):
        async def scenario(sync_service):
            async with AsyncParseService(sync_service) as front:
                result = await front.parse("SELECT a FROM t", FULL)
                assert result.ok

        with ParseService(line=make_line(), max_workers=2) as sync_service:
            run(scenario(sync_service))
            # the front-end did not own it: still serving after aexit
            results = sync_service.parse_many(
                ["SELECT a FROM t", "SELECT a FROM t WHERE x = y"], FULL
            )
            assert all(r.ok for r in results)

    def test_pending_gauge_settles_to_zero(self):
        async def scenario():
            async with AsyncParseService(line=make_line()) as service:
                await service.parse_many(
                    ["SELECT a FROM t", "SELECT a, b, c FROM t"], FULL
                )
                return service.pending, service.metrics.snapshot()

        pending, snapshot = run(scenario())
        assert pending == 0
        assert snapshot["queue_depth"]["async"]["max"] >= 1
