"""Run one workload of the parse-service benchmark and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload batch-full --seed 7 --seconds 20 --trace 0

``--trace 0`` sets the service up several times (all but the last in a
fresh interpreter), measures the workload untraced and prints the
end-to-end metrics.  ``--trace 1`` measures the workload's loop untraced
and then traced, calls every layer directly (``layers.py``) and prints
the per-layer metrics; its spans go to ``.perfbench/``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Artifact directories, reports and span files, inside the checkout.
WORKDIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("serve-mixed", "batch-full", "batch-process", "translate-pairs")

#: Set-ups per end-to-end run; ``setup_s`` is their median.  All but the
#: last run in fresh interpreters, so none of them starts warm.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

#: Unit of every end-to-end metric.
END_TO_END_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "qps": "1/s",
    "rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(bench) -> dict:
    """One set-up: raw seconds, host factor around it and ``setup_s``."""
    from hostspeed import WINDOW, HostSpeed

    host = HostSpeed(window=2 * WINDOW)
    host.sample(WINDOW)
    raw = bench.setup()
    host.sample(WINDOW)
    return {"setup_s": raw * host.factor, "raw_s": raw, "host_factor": host.factor}


def setup_in_fresh_interpreter(args) -> dict:
    """One :func:`timed_setup` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run_untraced(bench, args) -> tuple[dict, dict]:
    from stats import median, peak_rss_mb

    setups = [setup_in_fresh_interpreter(args) for _ in range(SETUP_REPEATS - 1)]
    setups.append(timed_setup(bench))
    measured = bench.measure(args.seconds)
    measured["rss_mb"] = peak_rss_mb()
    measured["setup_s"] = median([setup["setup_s"] for setup in setups])
    measured["setup_samples"] = setups
    metrics = {name: measured[name] for name in END_TO_END_UNITS}
    return metrics, measured


def run_traced(bench, args, tracer) -> tuple[dict, dict]:
    import layers

    bench.setup()
    after_setup = bench.registry.metrics.snapshot()["counters"]
    untraced = bench.measure(args.seconds / 2)
    traced = bench.measure(args.seconds / 2, tracer)
    metrics = layers.probe(bench, tracer, traced["layers"], after_setup)
    # the traced-minus-untraced cost of the spans on the workload's own loop
    metrics["trace.overhead_pct"] = (
        100.0 * (traced["p50_ms"] - untraced["p50_ms"]) / untraced["p50_ms"]
    )
    return {name: metrics[name] for name in layers.UNITS}, {
        "untraced": untraced, "traced": traced,
    }


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if a pool started it.

    A spawned process pool starts the tracker as a helper process.  Left
    alone, it notices only after this interpreter has exited and then
    takes a while to clean up, so it outlives the run.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)
    from oracle import Reference
    from spans import Tracer
    from workloads import WORKERS, WORKLOADS

    bench = WORKLOADS[args.workload](args.seed, WORKDIR)
    tracer = Tracer() if args.trace else None
    try:
        if args.setup_only:
            print(json.dumps(timed_setup(bench)))
            return 0
        if tracer is None:
            metrics, details = run_untraced(bench, args)
        else:
            metrics, details = run_traced(bench, args, tracer)
    finally:
        try:
            bench.close()
        finally:
            stop_resource_tracker()

    reference = Reference(bench.dialects)
    bench.verify(reference)
    if tracer is None:
        units = END_TO_END_UNITS
    else:
        import layers

        units = layers.UNITS
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": WORKERS,
        "metrics": metrics,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": dict(bench.failures),
        "properties": bench.properties(reference),
        "details": details,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORKDIR / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    if tracer is not None:
        tracer.write(WORKDIR / f"spans-{stem}.json", summary=metrics)

    for name, value in metrics.items():
        print(f"{name:>26} {value:14.4f} {units[name]}")
    if "max_qps" in details:
        print(f"{'max_qps (not gated)':>26} {details['max_qps']:14.4f} 1/s")
    print("properties", json.dumps(report["properties"]))
    if bench.failures:
        print("failures", json.dumps(report["failures"]))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
