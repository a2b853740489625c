"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet_default --seed 1 \\
        --seconds 40 --trace 0

The program is imported from ``src/`` of the same checkout.  With
``--trace 0`` the run repeats whole units of the workload for about
``--seconds`` seconds and reports the end-to-end metrics; with
``--trace 1`` it runs each unit once plain and once with every layer
spanned, checks that both produced the same payloads, and reports the
per-layer metrics.  Before its result the run prints a host record,
each unit's seconds and the first unit's exact counts; the last line
of standard output is the result object.  Exit status: 0 on success,
1 when an output check fails, 2 when the program cannot be found or
run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("fig14_packet", "fleet_default", "sweep_cache")
SETUP_REPEATS = 5
# Rounds of the reference loop timed before each unit (about 0.3 s).
REFERENCE_ROUNDS = 12

# Times the benchmark's imports in a fresh interpreter; the search
# path comes in as arguments.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "start = time.perf_counter()\n"
    "import checks, layers, tracing, workloads\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END = {
    "setup_s": "s",
    "sim_mbit_per_ref": "Mbit/ref",
    "cache_kb_per_cell": "KB",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "packet.simulate_s": "s",
    "packet.events": "count",
    "packet.events_per_s": "1/s",
    "packet.simulator_s": "s",
    "packet.paths_s": "s",
    "packet.sender_s": "s",
    "packet.receiver_s": "s",
    "packet.scheduler_s": "s",
    "packet.fec_s": "s",
    "packet.cc_s": "s",
    "packet.video_s": "s",
    "packet.scheduler_assign_s": "s",
    "packet.gcc_feedback_s": "s",
    "packet.fec_converge_s": "s",
    "flow.simulate_s": "s",
    "flow.calls": "count",
    "flow.frames": "count",
    "flow.tput_err": "ratio",
    "flow.stall_err_s": "s",
    "batch.plan_s": "s",
    "batch.execute_s": "s",
    "batch.groups": "count",
    "batch.lanes": "count",
    "batch.steps": "count",
    "batch.ms_per_step": "ms",
    "batch.us_per_lane_step": "us",
    "batch.scalar_fallback_cells": "count",
    "paths.build_s": "s",
    "paths.builds": "count",
    "config.build_s": "s",
    "cells.key_s": "s",
    "cells.keys": "count",
    "export.result_to_dict_s": "s",
    "export.payload_kb": "KB",
    "runner.normalize_s": "s",
    "runner.self_s": "s",
    "cache.put_s": "s",
    "cache.get_s": "s",
    "cache.puts": "count",
    "cache.hits": "count",
    "cache.entry_kb": "KB",
    "fleet.statistics_s": "s",
    "fleet.groups": "count",
    "setup.import_s": "s",
    "setup.warmup_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def host_record() -> Dict[str, Any]:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def import_seconds() -> float:
    """Median time to import the benchmark and the program afresh."""
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def emit(key: str, value: Any) -> None:
    print(json.dumps({key: value}, sort_keys=True), flush=True)


def reference_seconds() -> float:
    """Host seconds one reference loop takes now.

    The loop is fixed pure-Python integer work that lives in the
    benchmark, so no change to the program moves it; what moves it is
    the speed the host gives this process at the moment.
    """
    start = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        total = 0
        for i in range(300_000):
            total += i * i % 7
    return time.perf_counter() - start


def repeat(run_one: Any, seconds: float) -> None:
    """Run ``run_one`` once, then again while the next is expected to fit."""
    done = 0
    start = time.perf_counter()
    while True:
        run_one()
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import checks
        import layers
        from tracing import Counters, Patches
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    emit("host", host_record())
    # Interpreter start-up is not counted, only the imports.
    import_s = import_seconds()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    patches = Patches()
    counters = Counters()
    counters.install(patches)
    try:
        workload = WORKLOADS[args.workload](args.seed, counters, str(workdir))
        warmups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.expand()
            workload.warmup()
            warmups.append(time.perf_counter() - start)
        warmup_s = statistics.median(warmups)
        setup = {"setup.import_s": import_s, "setup.warmup_s": warmup_s}

        def plain_unit() -> Any:
            counters.reset()
            unit = workload.run_unit() if args.trace else workload.cold_unit()
            unit.extra["counters"] = counters.snapshot()
            return unit

        units: List[Any] = []
        references: List[float] = []
        layer_runs: List[Dict[str, float]] = []

        def measured_unit() -> None:
            if args.trace:
                unit, tracer, layer = layers.traced_pair(
                    workload, counters, plain_unit
                )
                layer_runs.append(dict(layer, **setup))
                out_dir = ROOT / ".perfbench_out"
                out_dir.mkdir(exist_ok=True)
                tracer.write(
                    str(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
                )
            else:
                references.append(reference_seconds())
                unit = plain_unit()
                emit("unit", {"seconds": unit.seconds, "ref_s": references[-1]})
            workload.finish(unit, units[0] if units else None)
            units.append(unit)

        metrics: Dict[str, float] = {}
        counts: Dict[str, float] = {}
        units_of = PER_LAYER if args.trace else END_TO_END
        try:
            repeat(measured_unit, args.seconds)
            if args.trace:
                metrics = layers.median_metrics(layer_runs)
            else:
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                metrics = workload.end_to_end(units, references)
                # The same pooled rate per host second, for reading only.
                emit("sim_mbit_per_s", sum(u.mbit for u in units)
                     / sum(u.seconds for u in units))
                metrics["setup_s"] = import_s + warmup_s
                metrics["peak_rss_mb"] = rss / 1024.0
                # One untimed read-back of the cache the first unit left.
                warm = workload.warm_pass(workload.cache_root)
                workload.check_warm(units[0], warm)
                units[0].attempted += warm.attempted
            counts = units[0].counts
            correct = True
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        emit("counts", counts)
        result = {
            "correct": correct,
            "attempted": sum(u.attempted for u in units),
            "failed": sum(u.failed for u in units),
            "metrics": {
                name: {"value": value, "unit": units_of[name]}
                for name, value in sorted(metrics.items())
            },
        }
        print(json.dumps(result), flush=True)
        return 0 if correct else 1
    finally:
        patches.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
