"""Spans and layer probes, recorded from outside the program.

The benchmark never edits ``src/``.  It measures a layer by wrapping
that layer's public function for the duration of one unit of work and
restoring it afterwards:

- :class:`Counters` are always installed.  They cost one call per
  simulated call or batch group and give the exact work counts every
  run prints (packet events, batch lanes, scalar fallbacks).
- :class:`Tracer` spans are installed only in the traced run.  Each
  span records ``(name, start, end, parent)``; spans stay in memory and
  are written out when the run ends.  A layer's self time is the sum
  of its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import json
import time
import types
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

# The SimProfiler event buckets and the sections it wraps inside
# sender callbacks, as reported under ``packet.*``.
PACKET_BUCKETS = (
    "simulator", "paths", "sender", "receiver",
    "scheduler", "fec", "cc", "video",
)
PACKET_SECTIONS = {
    "scheduler.assign": "packet.scheduler_assign_s",
    "cc.gcc": "packet.gcc_feedback_s",
    "fec.converge": "packet.fec_converge_s",
}


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Counters:
    """Exact work counts taken at layer boundaries.

    Scalar fallbacks of the batch runner are counted by route: cells
    ``plan_batches`` leaves in its rest, cells ``execute_batch`` screens
    out and runs one by one, and whole groups whose exception the runner
    swallows before re-running their cells on the scalar path.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.packet_events = 0
        self.packet_calls = 0
        self.scalar_cells = 0
        self.batch_groups = 0
        self.batch_cells = 0
        self.plan_rest = 0
        self.screened_out = 0
        self.failed_group_cells = 0
        self.reports: List[Any] = []

    def snapshot(self) -> Dict[str, int]:
        """The counts since the last :meth:`reset`."""
        fallback = self.plan_rest + self.screened_out + self.failed_group_cells
        return {
            "packet.events": self.packet_events,
            "packet.calls": self.packet_calls,
            "scalar.cells": self.scalar_cells,
            "batch.groups": self.batch_groups,
            "batch.lanes": (
                self.batch_cells - self.screened_out - self.failed_group_cells
            ),
            "batch.scalar_fallback_cells": fallback,
        }

    def install(self, patches: Patches) -> None:
        from repro.experiments import fleet, runner
        from repro.flow import batch
        from repro.simulation.simulator import Simulator

        def count_events(run: Callable[..., float]) -> Callable[..., float]:
            def wrapper(sim: Any, *args: Any, **kwargs: Any) -> float:
                before = sim.events_dispatched
                try:
                    return run(sim, *args, **kwargs)
                finally:
                    self.packet_events += sim.events_dispatched - before
                    self.packet_calls += 1
            return wrapper

        def count_scalar(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                self.scalar_cells += 1
                return fn(*args, **kwargs)
            return wrapper

        def count_plan(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(cells: Any) -> Any:
                groups, rest = fn(cells)
                self.plan_rest += len(rest)
                return groups, rest
            return wrapper

        def count_group(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(cells: Any) -> Any:
                self.batch_groups += 1
                self.batch_cells += len(cells)
                try:
                    return fn(cells)
                except Exception:
                    self.failed_group_cells += len(cells)
                    raise
            return wrapper

        def count_screened(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(cell: Any) -> Any:
                self.screened_out += 1
                return fn(cell)
            return wrapper

        def keep_report(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                report = fn(*args, **kwargs)
                self.reports.append(report)
                return report
            return wrapper

        patches.wrap(Simulator, "run", count_events)
        patches.wrap(runner, "execute_cell", count_scalar)
        patches.wrap(batch, "plan_batches", count_plan)
        patches.wrap(batch, "execute_batch", count_group)
        patches.wrap(batch, "_scalar_payload", count_screened)
        patches.wrap(fleet, "run_cells", keep_report)


class Tracer:
    """In-memory spans plus the per-layer counts taken beside them."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self.counts: Dict[str, int] = {}
        self.profiles: List[Dict[str, Any]] = []
        # (steps, lanes) of every array program the batch engine ran.
        self.batch_runs: List[Tuple[int, int]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """Per span name: (sum of self time, number of spans)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, Tuple[float, int]] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            seconds, calls = totals.get(name, (0.0, 0))
            totals[name] = (seconds + end - start - covered[index], calls + 1)
        return totals

    def write(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
            }
            for name, start, end, parent in self.spans
        ]
        layers = {
            name: {"self_s": seconds, "spans": calls}
            for name, (seconds, calls) in sorted(self.self_times().items())
        }
        with open(path, "w") as handle:
            json.dump(
                {"spans": rows, "counts": self.counts, "layers": layers},
                handle,
            )

    # -- probes ----------------------------------------------------------

    def timed(self, name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(name):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    def install(self, patches: Patches) -> None:
        """Span every layer boundary the benchmark reports."""
        from repro.analysis import export
        from repro.core import api
        from repro.experiments import fleet, runner
        from repro.experiments.cache import ResultCache
        from repro.experiments.cells import ScenarioPaths
        from repro.flow import batch, session
        from repro.simulation.profiling import SimProfiler

        def profiled(run_call: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                profiler = kwargs.get("profiler") or SimProfiler()
                kwargs["profiler"] = profiler
                with self.span("packet.simulate"):
                    result = run_call(*args, **kwargs)
                self.profiles.append(profiler.report())
                return result
            return wrapper

        def flow_call(run_flow_call: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span("flow.simulate"):
                    result = run_flow_call(*args, **kwargs)
                summary = result.summary
                self.count(
                    "flow.frames", summary.frames_rendered + summary.frame_drops
                )
                return result
            return wrapper

        def batch_run(run: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(program: Any) -> Any:
                self.batch_runs.append((program.steps, program.batch_size))
                return run(program)
            return wrapper

        def cache_get(get: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span("cache.get"):
                    entry = get(*args, **kwargs)
                if entry is not None:
                    self.count("cache.hits")
                return entry
            return wrapper

        # ``runner`` normalizes a fresh payload with
        # ``json.loads(canonical_json(payload))``; both halves are
        # reached through the runner module's own names.
        loads = self.timed("runner.normalize")(json.loads)
        json_view = types.SimpleNamespace(
            **{name: getattr(json, name) for name in dir(json)
               if not name.startswith("__")}
        )
        json_view.loads = loads

        patches.wrap(runner, "cell_key", self.timed("cells.key"))
        patches.wrap(runner, "canonical_json", self.timed("runner.normalize"))
        patches.wrap(runner, "json", lambda _module: json_view)
        patches.wrap(ResultCache, "get", cache_get)
        patches.wrap(ResultCache, "put", self.timed("cache.put"))
        patches.wrap(ScenarioPaths, "build", self.timed("paths.build"))
        patches.wrap(api, "build_call_config", self.timed("config.build"))
        patches.wrap(api, "run_call", profiled)
        patches.wrap(session, "run_flow_call", flow_call)
        patches.wrap(export, "result_to_dict", self.timed("export.result_to_dict"))
        patches.wrap(batch, "plan_batches", self.timed("batch.plan"))
        patches.wrap(batch, "execute_batch", self.timed("batch.execute"))
        patches.wrap(batch._BatchFlowRun, "run", batch_run)
        patches.wrap(fleet, "fleet_statistics", self.timed("fleet.statistics"))
        patches.wrap(fleet, "run_cells", self.timed("runner"))


def packet_profile(profiles: List[Dict[str, Any]]) -> Dict[str, float]:
    """Sum SimProfiler reports into the ``packet.*`` bucket metrics."""
    out = {f"packet.{bucket}_s": 0.0 for bucket in PACKET_BUCKETS}
    out.update({name: 0.0 for name in PACKET_SECTIONS.values()})
    for report in profiles:
        for bucket, row in report["subsystems"].items():
            key = f"packet.{bucket}_s"
            if key in out:
                out[key] += row["seconds"]
        for section, row in report["sections"].items():
            key = PACKET_SECTIONS.get(section)
            if key is not None:
                out[key] += row["seconds"]
    return out
