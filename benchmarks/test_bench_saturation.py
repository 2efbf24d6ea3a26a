"""E15 — service saturation: QPS vs latency across executors and widths.

The scaling claim of ISSUE 10: a thread pool is GIL-bound, so batch
throughput flatlines near one core no matter the worker count, while the
process pool — workers bootstrapping from on-disk artifacts, nothing
recomposed — scales with cores.  Measured here on the full-dialect
workload:

* ``parse_many`` throughput (QPS) and per-request p50/p99 latency at
  pool widths 1 / 4 / 16, thread vs process, cold vs warm,
* the headline ratio CI gates on: warm process-pool throughput at 4
  workers >= 1.8x the thread pool's (enforced only on >= 4 CPUs; the
  sweep itself runs everywhere),
* a versioned ``BENCH_service.json`` artifact — the input to the CI
  benchmark-trajectory diff — written to ``$REPRO_BENCH_OUT`` (default:
  ``BENCH_service.json`` in the working directory).
"""

import json
import os
import pickle
import statistics
import sys
import time

import pytest

from repro.service import ParseService, ParserRegistry
from repro.sql import build_sql_product_line, dialect_features
from repro.workloads import generate_workload

#: Schema version of the BENCH_service.json artifact.
BENCH_SERVICE_VERSION = 1

#: Pinned by CI (REPRO_BENCH_SEED) so the trajectory diff compares the
#: same workload run to run.
SEED = int(os.environ.get("REPRO_BENCH_SEED", "20260807"))

#: Queries per measured batch — large enough that per-batch fan-out
#: overhead (chunk dispatch, pipe round-trips) is noise against parse
#: work, small enough to keep the 16-worker sweep quick.
WORKLOAD_COUNT = 192

#: Interleaved rounds of the ungated unpickling-ceiling reading.
CEILING_ROUNDS = 15

SWEEP_WORKERS = (1, 4, 16)
SWEEP_EXECUTORS = ("thread", "process")

#: The CI saturation gate (warm process QPS / warm thread QPS at 4
#: workers must reach this).
PROCESS_SPEEDUP_FLOOR = 1.8
GATE_WORKERS = 4


def _percentile(samples, q):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _measure(executor, workers, texts, features):
    """One sweep cell: cold batch (build + spawn + bootstrap) then warm."""
    service = ParseService(
        registry=ParserRegistry(build_sql_product_line(), capacity=8),
        executor=executor,
        max_workers=workers,
    )
    try:
        cells = []
        for phase in ("cold", "warm"):
            t0 = time.perf_counter()
            results = service.parse_many(texts, features)
            wall = time.perf_counter() - t0
            assert all(r.ok for r in results), (
                f"{executor}/{workers} {phase}: "
                f"{sum(not r.ok for r in results)} failed parses"
            )
            latencies = [r.seconds * 1000.0 for r in results]
            cells.append(
                {
                    "executor": executor,
                    "workers": workers,
                    "phase": phase,
                    "requests": len(results),
                    "seconds": round(wall, 4),
                    "qps": round(len(results) / wall, 1),
                    "p50_ms": round(_percentile(latencies, 0.50), 3),
                    "p99_ms": round(_percentile(latencies, 0.99), 3),
                    "mean_ms": round(statistics.fmean(latencies), 3),
                    "degraded": sum(1 for r in results if r.degraded),
                }
            )
        snapshot = service.stats()
        cells[-1]["effective_executor"] = snapshot["executor"]["effective"]
        return cells
    finally:
        service.close()


@pytest.fixture(scope="module")
def sweep():
    """Run the full sweep once and publish the versioned artifact."""
    features = dialect_features("full")
    texts = list(generate_workload("full", count=WORKLOAD_COUNT, seed=SEED))
    runs = []
    for executor in SWEEP_EXECUTORS:
        for workers in SWEEP_WORKERS:
            runs.extend(_measure(executor, workers, texts, features))

    def cell(executor, workers, phase):
        return next(
            r for r in runs
            if r["executor"] == executor
            and r["workers"] == workers
            and r["phase"] == phase
        )

    thread_warm = cell("thread", GATE_WORKERS, "warm")
    process_warm = cell("process", GATE_WORKERS, "warm")
    payload = {
        "kind": "repro-bench-service",
        "version": BENCH_SERVICE_VERSION,
        "seed": SEED,
        "workload": {"dialect": "full", "count": WORKLOAD_COUNT},
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "headline": {
            "warm_thread_qps": thread_warm["qps"],
            "warm_process_qps": process_warm["qps"],
            "process_speedup": round(
                process_warm["qps"] / thread_warm["qps"], 2
            ),
            "warm_process_p99_ms": process_warm["p99_ms"],
            "gate_workers": GATE_WORKERS,
            "gate_floor": PROCESS_SPEEDUP_FLOOR,
        },
        "runs": runs,
    }
    out = os.environ.get("REPRO_BENCH_OUT", "BENCH_service.json")
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"\n[E15] wrote {out}")
    for run in runs:
        print(
            f"[E15] {run['executor']:7}x{run['workers']:<2} {run['phase']:4} "
            f"qps={run['qps']:>7} p50={run['p50_ms']:.2f}ms "
            f"p99={run['p99_ms']:.2f}ms"
        )
    return payload


def test_sweep_covers_the_grid(sweep):
    """Every (executor, workers, phase) cell measured, artifact versioned."""
    assert sweep["version"] == BENCH_SERVICE_VERSION
    seen = {
        (r["executor"], r["workers"], r["phase"]) for r in sweep["runs"]
    }
    expected = {
        (executor, workers, phase)
        for executor in SWEEP_EXECUTORS
        for workers in SWEEP_WORKERS
        for phase in ("cold", "warm")
    }
    assert seen == expected
    assert all(r["qps"] > 0 for r in sweep["runs"])


def test_warm_beats_cold_per_executor(sweep):
    """Warm batches must not be slower than cold (pool + cache warmed)."""
    for executor in SWEEP_EXECUTORS:
        for workers in SWEEP_WORKERS:
            cold = next(
                r for r in sweep["runs"]
                if (r["executor"], r["workers"], r["phase"])
                == (executor, workers, "cold")
            )
            warm = next(
                r for r in sweep["runs"]
                if (r["executor"], r["workers"], r["phase"])
                == (executor, workers, "warm")
            )
            assert warm["qps"] >= cold["qps"] * 0.8, (
                f"{executor}x{workers}: warm ({warm['qps']} qps) slower "
                f"than cold ({cold['qps']} qps)"
            )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < GATE_WORKERS,
    reason=f"saturation gate needs >= {GATE_WORKERS} CPUs "
           f"(have {os.cpu_count()}); the GIL comparison is meaningless "
           "on fewer cores",
)
def test_process_pool_saturation_gate(sweep):
    """Acceptance criterion: warm process QPS >= 1.8x thread at 4 workers.

    This is the CI ``saturation`` job's teeth — the entire point of the
    process executor, enforced against the emitted artifact so the gate
    and the trajectory diff can never disagree about the numbers.
    """
    headline = sweep["headline"]
    process_warm = next(
        r for r in sweep["runs"]
        if (r["executor"], r["workers"], r["phase"])
        == ("process", GATE_WORKERS, "warm")
    )
    assert process_warm.get("effective_executor", "process") == "process", (
        "process pool degraded to threads during the sweep: "
        f"{process_warm}"
    )
    assert headline["process_speedup"] >= PROCESS_SPEEDUP_FLOOR, (
        f"warm process-pool throughput at {GATE_WORKERS} workers is only "
        f"{headline['process_speedup']}x the thread pool's "
        f"({headline['warm_process_qps']} vs "
        f"{headline['warm_thread_qps']} qps); the floor is "
        f"{PROCESS_SPEEDUP_FLOOR}x"
    )


def test_unpickling_ceiling():
    """Ungated: how far a process batch can outrun the serial loop.

    A worker pickles every tree it parsed, and the parent unpickles each
    reply on one thread under the GIL.  However many workers parse, a
    process batch takes at least that unpickling time, so with parsing,
    pipes and pickling in the workers all free it runs at most (serial
    parse) / (``pickle.loads``) times the caller-thread loop.  The gate
    asks for 1.8x.  Printed only: it reads the ceiling on any host, 2
    CPUs included, where the gate itself skips.
    """
    features = dialect_features("full")
    texts = list(generate_workload("full", count=WORKLOAD_COUNT, seed=SEED))
    parser = (
        ParserRegistry(build_sql_product_line(), capacity=2)
        .get(features)
        .compiled_parser()
    )
    best = {"parse": float("inf"), "dumps": float("inf"), "loads": float("inf")}
    for _ in range(CEILING_ROUNDS):
        # one pass of each step per round, as a worker and the parent run them
        t0 = time.perf_counter()
        trees = [parser.parse_with_diagnostics(text).tree for text in texts]
        t1 = time.perf_counter()
        blobs = [pickle.dumps(tree) for tree in trees]
        t2 = time.perf_counter()
        for blob in blobs:
            pickle.loads(blob)
        t3 = time.perf_counter()
        for step, seconds in (("parse", t1 - t0), ("dumps", t2 - t1), ("loads", t3 - t2)):
            best[step] = min(best[step], seconds)
    size = sum(map(len, blobs)) / len(texts)
    parse = best["parse"]
    print(
        f"\n[E15] ceiling: {size:.0f} pickled bytes per tree; per "
        f"{len(texts)} texts a serial compiled parse takes "
        f"{parse * 1000:.1f} ms, pickle.dumps {best['dumps'] / parse:.2f}x "
        f"and pickle.loads {best['loads'] / parse:.2f}x of it "
        f"({best['loads'] * 1000:.1f} ms): a process batch runs at most "
        f"{parse / best['loads']:.1f}x the serial loop "
        f"(gate {PROCESS_SPEEDUP_FLOOR}x)"
    )
    assert all(seconds > 0 for seconds in best.values())

