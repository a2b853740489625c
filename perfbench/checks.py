"""Output checks: properties every result of the method must have.

Nothing here compares against a stored copy of an earlier result.
Each check follows from what a call is (a bounded number of frames,
stalls inside the call, bytes bounded by the links' capacity), from
the engines' contract (batch payloads byte-identical to the scalar
engine's, cache hits identical to fresh results), or from statistics
(a sample mean lies inside its own bootstrap interval).
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Sequence

from repro.core.api import build_call_config
from repro.experiments.cells import (
    Cell,
    Fidelity,
    ScenarioPaths,
    canonical_json,
)
from repro.experiments.fleet import FLEET_METRICS, FleetGroup, FleetSpec
from repro.experiments.runner import execute_cell
from repro.faults.plan import ChurnAction
from repro.faults.scenarios import build_chaos_plan
from repro.net.trace import BandwidthTrace
from repro.simulation.random import RandomStreams
from repro.traces.scenarios import make_scenario_trace, scenario_networks


class CheckFailed(AssertionError):
    """An output of the program broke a property it must have."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def frame_rate_of(cell: Cell) -> float:
    config = build_call_config(
        cell.system,
        duration=cell.duration,
        num_streams=cell.num_streams,
        seed=cell.seed,
        single_path_id=cell.single_path_id,
        label=cell.label,
        **cell.override_kwargs(),
    )
    return float(config.frame_rate)


def trace_bits(trace: BandwidthTrace, duration: float) -> float:
    """Integral of a trace's capacity over ``[0, duration]``, in bits."""
    samples = list(trace.samples())
    times = [t for t, _ in samples]
    values = [v for _, v in samples]

    def integral_to(x: float) -> float:
        total = 0.0
        for i, start in enumerate(times):
            if start >= x:
                break
            end = times[i + 1] if i + 1 < len(times) else math.inf
            total += values[i] * (min(end, x) - start)
        return total

    if trace.loop and trace.duration > 0:
        laps, rest = divmod(duration, trace.duration)
        return laps * integral_to(trace.duration) + integral_to(rest)
    return integral_to(duration)


def capacity_bits(cell: Cell) -> float:
    """Bits all of a cell's paths could carry over the whole call.

    Paths born mid-call by a churn plan are rebuilt the way the call
    builds them and counted over the whole call too, so the sum is an
    upper bound on what any path set of the call could deliver.
    """
    paths = cell.paths.build(cell.duration, cell.seed)
    total = sum(trace_bits(p.trace, cell.duration) for p in paths)
    if cell.chaos is None:
        return total
    require(
        isinstance(cell.paths, ScenarioPaths),
        "churn cells must run on a trace scenario",
    )
    scenario = cell.paths.scenario  # type: ignore[union-attr]
    plan = build_chaos_plan(
        cell.chaos, cell.duration, seed=cell.seed, num_paths=len(paths)
    )
    networks = scenario_networks(scenario)
    streams = RandomStreams(cell.seed)
    for event in plan.churn:
        if event.action is not ChurnAction.BIRTH:
            continue
        network = event.network or ""
        if network not in networks:
            network = sorted(networks)[event.path_id % len(networks)]
        trace = make_scenario_trace(
            scenario,
            network,
            cell.duration,
            streams.fork(f"churn-path-{event.path_id}-{network}"),
        )
        total += trace_bits(trace, cell.duration)
    return total


def check_cell(cell: Cell, payload: Dict[str, Any], frame_rate: float) -> None:
    """The per-call properties every payload must have."""
    name = f"{cell.effective_label} seed={cell.seed} {cell.fidelity.value}"
    summary = payload["summary"]
    duration = cell.duration
    limit = duration * frame_rate * cell.num_streams
    if cell.fidelity is Fidelity.PACKET:
        # The packet receiver counts a frame it drops as too late a
        # second time when the frame is then declared lost, so on some
        # seeds rendered + dropped passes the limit.  Each is bounded
        # alone there.
        for key in ("frames_rendered", "frame_drops"):
            require(
                summary[key] <= limit,
                f"{name}: {summary[key]} {key} > {limit:g}",
            )
    else:
        frames = summary["frames_rendered"] + summary["frame_drops"]
        require(
            frames <= limit,
            f"{name}: {frames} rendered+dropped frames > {limit:g}",
        )
    require(
        0.0 <= summary["freeze_total"] <= duration,
        f"{name}: stall {summary['freeze_total']} outside [0, {duration}]",
    )
    require(
        0.0 <= summary["fec_overhead"] < 1.0,
        f"{name}: fec_overhead {summary['fec_overhead']} outside [0, 1)",
    )
    require(
        summary["throughput_bps"] > 0.0,
        f"{name}: throughput {summary['throughput_bps']} is not positive",
    )
    delivered = summary["throughput_bps"] * duration
    bound = capacity_bits(cell)
    require(
        delivered <= bound,
        f"{name}: delivered {delivered:.0f} bits > capacity {bound:.0f}",
    )


def check_cells(
    cells: Sequence[Cell], payloads: Sequence[Dict[str, Any]]
) -> None:
    require(len(cells) == len(payloads), "one payload per cell")
    rates: Dict[Any, float] = {}
    for cell, payload in zip(cells, payloads):
        key = (cell.system, cell.duration)
        if key not in rates:
            rates[key] = frame_rate_of(cell)
        check_cell(cell, payload, rates[key])


def check_identical(
    first: Sequence[Dict[str, Any]],
    second: Sequence[Dict[str, Any]],
    what: str,
) -> None:
    require(len(first) == len(second), f"{what}: payload counts differ")
    for index, (a, b) in enumerate(zip(first, second)):
        require(
            canonical_json(a) == canonical_json(b),
            f"{what}: payload {index} differs",
        )


def check_scalar_equivalence(
    cells: Sequence[Cell],
    payloads: Sequence[Dict[str, Any]],
    sample: Sequence[int],
) -> None:
    """Batch payloads equal the scalar engine's, byte for byte."""
    for index in sample:
        scalar = json.loads(canonical_json(execute_cell(cells[index])))
        require(
            canonical_json(scalar) == canonical_json(payloads[index]),
            f"batch payload of cell {index} differs from the scalar engine",
        )


def check_fleet(
    spec: FleetSpec,
    payloads: Sequence[Dict[str, Any]],
    groups: Sequence[FleetGroup],
) -> None:
    """Group means recomputed from the cells lie inside their CIs."""
    per_point = len(spec.seeds)
    require(len(payloads) == spec.cell_count, "one payload per fleet cell")
    require(
        len(groups) == len(spec.scenarios) * len(spec.systems),
        "one group per matrix point",
    )
    for index, group in enumerate(groups):
        chunk = payloads[index * per_point:(index + 1) * per_point]
        require(group.n == per_point and group.failed == 0,
                f"group {group.system}: {group.failed} failed cells")
        for metric in FLEET_METRICS:
            values = [float(p["summary"][metric]) for p in chunk]
            mean = sum(values) / len(values)
            row = group.metrics[metric]
            tolerance = 1e-9 * max(1.0, abs(mean))
            require(
                abs(row["mean"] - mean) <= tolerance,
                f"group {group.system} {metric}: mean {row['mean']} "
                f"!= recomputed {mean}",
            )
            require(
                row["ci_lo"] - tolerance <= mean <= row["ci_hi"] + tolerance,
                f"group {group.system} {metric}: mean {mean} outside "
                f"[{row['ci_lo']}, {row['ci_hi']}]",
            )


def mean_kb(texts: Sequence[str]) -> float:
    """Mean encoded size of canonical-JSON texts, in KB."""
    return sum(len(t.encode()) for t in texts) / len(texts) / 1024.0


def payload_kb(payloads: Sequence[Dict[str, Any]]) -> float:
    """Mean canonical-JSON payload size, in KB (exact for a seed)."""
    return mean_kb([canonical_json(p) for p in payloads])


def entry_kb(paths: List[str]) -> float:
    """Mean cache entry size in KB, less its two wall-clock fields.

    An entry stores its creation time and the cell's wall time; their
    digits vary run to run, the rest of the entry is exact.
    """
    total = 0
    for path in paths:
        with open(path) as handle:
            entry = json.load(handle)
        entry.pop("created", None)
        entry.pop("wall_seconds", None)
        total += len(canonical_json(entry).encode())
    return total / len(paths) / 1024.0


def digest(texts: Sequence[str]) -> str:
    """SHA-256 over canonical-JSON payload texts, in order."""
    hasher = hashlib.sha256()
    for text in texts:
        hasher.update(text.encode())
    return hasher.hexdigest()
