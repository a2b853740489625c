"""The traced run: one unit plain, the same unit spanned, layer metrics.

The traced unit goes through the same public entry points as the plain
one (``run_cells``, ``run_fleet``, ``ResultCache``) with every layer
boundary wrapped by :class:`tracing.Tracer`.  Its payloads must be
byte-identical to the plain unit's before its split is reported, so
the split describes the same work.  Times are self times: a span's
duration less that of the spans it encloses.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, List, Tuple

import checks
from tracing import Counters, Patches, Tracer, packet_profile


def traced_pair(
    workload: Any, counters: Counters, plain_unit: Callable[[], Any]
) -> Tuple[Any, Tracer, Dict[str, float]]:
    plain = plain_unit()
    tracer = Tracer()
    patches = Patches()
    counters.reset()
    tracer.install(patches)
    try:
        traced = workload.run_unit(tracer)
    finally:
        patches.close()
    traced.extra["counters"] = counters.snapshot()
    checks.check_identical(plain.payloads, traced.payloads, "traced unit")
    checks.check_identical(
        plain.extra["warm"].payloads, traced.extra["warm"].payloads,
        "traced warm pass",
    )
    checks.check_identical(
        plain.extra.get("flow_payloads", []),
        traced.extra.get("flow_payloads", []),
        "traced flow pass",
    )
    return plain, tracer, layer_metrics(workload, tracer, plain, traced)


def layer_metrics(
    workload: Any, tracer: Tracer, plain: Any, traced: Any
) -> Dict[str, float]:
    spans = tracer.self_times()

    def seconds(name: str) -> float:
        return spans.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return spans.get(name, (0.0, 0))[1]

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    counts = traced.extra["counters"]
    out: Dict[str, float] = packet_profile(tracer.profiles)
    simulate = seconds("packet.simulate")
    out["packet.simulate_s"] = simulate
    out["packet.events"] = counts["packet.events"]
    out["packet.events_per_s"] = ratio(counts["packet.events"], simulate)

    out["flow.simulate_s"] = seconds("flow.simulate")
    out["flow.calls"] = calls("flow.simulate")
    out["flow.frames"] = tracer.counts.get("flow.frames", 0)
    out["flow.tput_err"] = 0.0
    out["flow.stall_err_s"] = 0.0
    if "flow_payloads" in traced.extra:
        out.update(workload.flow_errors(traced))

    steps = sum(group_steps for group_steps, _lanes in tracer.batch_runs)
    lane_steps = sum(
        group_steps * lanes for group_steps, lanes in tracer.batch_runs
    )
    execute = seconds("batch.execute")
    out["batch.plan_s"] = seconds("batch.plan")
    out["batch.execute_s"] = execute
    out["batch.groups"] = calls("batch.execute")
    out["batch.lanes"] = counts["batch.lanes"]
    out["batch.steps"] = steps
    out["batch.ms_per_step"] = ratio(execute, steps, 1e3)
    out["batch.us_per_lane_step"] = ratio(execute, lane_steps, 1e6)
    out["batch.scalar_fallback_cells"] = counts["batch.scalar_fallback_cells"]

    out["paths.build_s"] = seconds("paths.build")
    out["paths.builds"] = calls("paths.build")
    out["config.build_s"] = seconds("config.build")
    out["cells.key_s"] = seconds("cells.key")
    out["cells.keys"] = calls("cells.key")
    out["export.result_to_dict_s"] = seconds("export.result_to_dict")
    out["export.payload_kb"] = checks.payload_kb(traced.payloads)
    out["runner.normalize_s"] = seconds("runner.normalize")
    out["runner.self_s"] = seconds("runner")
    out["cache.put_s"] = seconds("cache.put")
    out["cache.get_s"] = seconds("cache.get")
    out["cache.puts"] = calls("cache.put")
    out["cache.hits"] = tracer.counts.get("cache.hits", 0)
    out["cache.entry_kb"] = traced.cache[2]
    out["fleet.statistics_s"] = seconds("fleet.statistics")
    out["fleet.groups"] = len(traced.extra.get("groups", []))
    out["trace.overhead_s"] = (
        traced.seconds + traced.extra["warm"].seconds
        - plain.seconds - plain.extra["warm"].seconds
    )
    return out


def median_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    return {
        name: statistics.median(run[name] for run in runs)
        for name in runs[0]
    }
