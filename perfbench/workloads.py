"""The workloads: cells from a seed, timed cold units, checks.

Every workload draws its cells from ``--seed`` alone, through
:func:`base_seed`: seed ``n`` owns the cell seeds ``1000 n + 1`` to
``1000 n + 1000``, so different benchmark seeds never share a cell,
and seed 0 is the repository's own default (``repro fig14`` runs
seed 1, ``repro fleet`` seeds 1..32).

A *cold unit* is the end-to-end work a user starts with an empty
cache: the Fig. 14/15 packet pass, one whole ``run_fleet``, one sweep
into an empty cache.  Every cold unit attempts the same cells.  A
*warm pass* makes the same call again, reading every cell back from
the cache a cold unit left; it is checked, and timed only in the
traced run.
"""

from __future__ import annotations

import dataclasses
import gc
import glob
import itertools
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, List, Optional, Tuple

from repro.core.config import SystemKind
from repro.experiments import fig14_15_comparison
from repro.experiments.cache import ResultCache
from repro.experiments.cells import (
    Cell,
    Fidelity,
    ScenarioPaths,
    canonical_json,
    cell_key,
    make_cell,
)
from repro.experiments.fleet import FleetSpec, expand_fleet, run_fleet
from repro.experiments.runner import RunReport, run_cells

import checks
from tracing import Counters, Tracer

SWEEP_SCENARIOS = ("stationary", "walking", "driving", "migration")
# The sweep's ``migration`` cells run the path-churn plan: a drain, two
# births and two deaths per call.
SWEEP_CHURN = {"migration": "path-churn"}


def base_seed(seed: int) -> int:
    return 1000 * seed + 1


@dataclass
class Unit:
    """One cold unit and what it produced."""

    seconds: float
    cells: List[Cell]
    payloads: List[Dict[str, Any]]
    attempted: int
    failed: int
    # The cache this unit's cells can be read back from, and its
    # (entry files, bytes, exact KB per entry).
    cache_root: str
    cache: Tuple[List[str], int, float]
    extra: Dict[str, Any] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    # Media the calls delivered, in Mbit, from their payloads.
    mbit: float = 0.0


@dataclass
class WarmPass:
    """One warm pass: every cell read back from the cache."""

    seconds: float
    payloads: List[Dict[str, Any]]
    hits: int
    attempted: int
    failed: int


def payloads_of(report: RunReport) -> List[Dict[str, Any]]:
    return [o.summary.data for o in report.outcomes if o.summary is not None]


def _span(
    tracer: Optional[Tracer], name: Optional[str]
) -> ContextManager[None]:
    if tracer is None or name is None:
        return nullcontext()
    return tracer.span(name)


class Workload:
    """What every workload provides to the measuring loop in ``run.py``.

    A subclass builds its cells in :meth:`make_cells` and runs them in
    :meth:`cold` and :meth:`warm`; the passes around them, the metrics
    and the common checks live here.
    """

    name = ""
    # Whether the cold pass writes the cache itself; otherwise the
    # benchmark stores the cold payloads, untimed, as the runner would.
    cold_writes_cache = False
    # The span around each pass in a traced unit; run_fleet's own call
    # into the runner is spanned by the tracer instead.
    entry_span: Optional[str] = "runner"

    def __init__(self, seed: int, counters: Counters, workdir: str) -> None:
        self.seed = seed
        self.base = base_seed(seed)
        self.counters = counters
        self.workdir = workdir
        self._dirs = itertools.count()
        # The cache the warm passes of the timed run read.
        self.cache_root = ""
        self._cache: Tuple[List[str], int, float] = ([], 0, 0.0)

    # -- what a workload defines --------------------------------------------

    def make_cells(self, small: bool = False) -> List[Cell]:
        raise NotImplementedError

    def cold(
        self, cells: List[Cell], cache: Optional[str], small: bool
    ) -> Tuple[RunReport, Dict[str, Any]]:
        """The end-to-end entry point; returns its report and extras."""
        return run_cells(cells, jobs=1, cache=cache), {}

    def warm(self, cells: List[Cell], cache: str, small: bool) -> RunReport:
        return self.cold(cells, cache, small)[0]

    def after_cold(
        self, unit: Unit, tracer: Optional[Tracer], small: bool
    ) -> None:
        """Untimed work a unit does after its cold pass."""

    def unit_checks(self, unit: Unit) -> None:
        """Cheap checks this workload makes on every unit."""

    def first_unit_checks(self, unit: Unit) -> None:
        """Checks this workload makes once, on the first unit."""

    def workload_counts(self, unit: Unit) -> Dict[str, float]:
        return {}

    # -- the passes ------------------------------------------------------------

    def expand(self) -> None:
        """Expand the workload's cells, the first step of set-up."""
        self.cells = self.make_cells()

    def warmup(self) -> None:
        """One small untimed unit, so lazy set-up is done before timing."""
        self.run_unit(small=True)

    def cold_unit(
        self, small: bool = False, tracer: Optional[Tracer] = None
    ) -> Unit:
        """One timed cold pass.

        The first plain unit leaves the cache the warm pass reads;
        later plain units produce identical payloads (checked), so they
        skip the untimed fill.  The sweep's cold pass writes its cache
        itself, so each of its units starts from an empty one.
        """
        plain = tracer is None and not small
        fills = self.cold_writes_cache or not plain or not self.cache_root
        root = os.path.join(self.workdir, f"cache-{next(self._dirs)}")
        cells = self.make_cells(small)
        gc.collect()
        start = time.perf_counter()
        with _span(tracer, self.entry_span):
            report, extra = self.cold(
                cells, root if self.cold_writes_cache else None, small
            )
        seconds = time.perf_counter() - start
        if fills:
            if not self.cold_writes_cache:
                store = ResultCache(root)
                for outcome in report.outcomes:
                    if outcome.summary is not None:
                        store.put(
                            cell_key(outcome.cell), outcome.cell.resolved(),
                            outcome.summary.data, outcome.wall_seconds,
                        )
            files = sorted(glob.glob(os.path.join(root, "*", "*.json")))
            cache = (
                files,
                sum(os.path.getsize(f) for f in files),
                checks.entry_kb(files) if files else 0.0,
            )
            if plain:
                if self.cache_root:
                    shutil.rmtree(self.cache_root, ignore_errors=True)
                self.cache_root, self._cache = root, cache
        else:
            root, cache = self.cache_root, self._cache
        unit = Unit(
            seconds=seconds,
            cells=[o.cell for o in report.outcomes],
            payloads=payloads_of(report),
            attempted=len(cells),
            failed=report.stats.errors,
            cache_root=root,
            cache=cache,
            extra=extra,
        )
        self.after_cold(unit, tracer, small)
        return unit

    def warm_pass(
        self, root: str, small: bool = False, tracer: Optional[Tracer] = None
    ) -> WarmPass:
        cells = self.make_cells(small)
        start = time.perf_counter()
        with _span(tracer, self.entry_span):
            report = self.warm(cells, root, small)
        return WarmPass(
            seconds=time.perf_counter() - start,
            payloads=payloads_of(report),
            hits=report.stats.cache_hits,
            attempted=len(cells),
            failed=report.stats.errors,
        )

    def run_unit(
        self, tracer: Optional[Tracer] = None, small: bool = False
    ) -> Unit:
        """A cold unit and one warm pass from its cache."""
        unit = self.cold_unit(small, tracer)
        unit.extra["warm"] = self.warm_pass(unit.cache_root, small, tracer)
        if unit.cache_root != self.cache_root:
            shutil.rmtree(unit.cache_root, ignore_errors=True)
        return unit

    # -- metrics and checks ----------------------------------------------------

    def end_to_end(
        self, units: List[Unit], references: List[float]
    ) -> Dict[str, float]:
        """One pooled throughput over all of the run's units, and the
        cache's size.

        Every unit does the same work (``finish`` checks it), so the
        pooled rate weighs every measured second alike.  The rate is
        counted per reference loop rather than per second: a reference
        loop was timed before every unit, and their mean is the run's
        measure of how fast the host was while the units ran.
        """
        files, size, _entry_kb = units[0].cache
        reference = sum(references) / len(references)
        return {
            "sim_mbit_per_ref": sum(u.mbit for u in units) * reference
            / sum(u.seconds for u in units),
            "cache_kb_per_cell": size / len(files) / 1024.0,
        }

    def finish(self, unit: Unit, first: Optional[Unit]) -> None:
        """Check a unit, take its exact counts, then drop its payloads.

        ``first`` is the run's first unit, or None for the first unit
        itself; only the first is checked cell by cell, later units
        must reproduce its payload digest and counts.  Dropping the
        payloads keeps a run's memory peak independent of how many
        units it ran.
        """
        checks.require(unit.failed == 0, f"{unit.failed} cells failed")
        checks.require(
            len(unit.cache[0]) == len(unit.cells),
            f"{len(unit.cache[0])} cache entries for {len(unit.cells)} cells",
        )
        self.unit_checks(unit)
        if first is None:
            checks.check_cells(unit.cells, unit.payloads)
            self.first_unit_checks(unit)
        texts = [canonical_json(p) for p in unit.payloads]
        unit.digest = checks.digest(texts)
        unit.mbit = delivered_mbit(unit.cells, unit.payloads)
        unit.counts = {
            "export.payload_kb": checks.mean_kb(texts),
            "cache.entry_kb": unit.cache[2],
        }
        unit.counts.update(self.workload_counts(unit))
        if "warm" in unit.extra:
            self.check_warm(unit, unit.extra.pop("warm"))
        if first is not None:
            checks.require(
                unit.digest == first.digest, "a rerun changed the payloads"
            )
            checks.require(
                unit.counts == first.counts,
                "exact counts differ between units of one run",
            )
        unit.payloads = []
        unit.extra.pop("flow_payloads", None)

    def check_warm(self, unit: Unit, warm: WarmPass) -> None:
        """A warm pass hit the cache for every cell and changed nothing."""
        checks.require(warm.failed == 0, f"{warm.failed} warm cells failed")
        checks.require(
            warm.hits == len(unit.cells), "the warm pass missed the cache"
        )
        checks.require(
            checks.digest([canonical_json(p) for p in warm.payloads])
            == unit.digest,
            "warm-pass payloads differ from the cold pass",
        )


def delivered_mbit(
    cells: List[Cell], payloads: List[Dict[str, Any]]
) -> float:
    """Media the calls delivered, in Mbit: throughput times duration."""
    return sum(
        p["summary"]["throughput_bps"] * cell.duration
        for cell, p in zip(cells, payloads)
    ) / 1e6


def frames_of(payloads: List[Dict[str, Any]]) -> int:
    """Frames the calls rendered or dropped, as their payloads report."""
    return sum(
        p["summary"]["frames_rendered"] + p["summary"]["frame_drops"]
        for p in payloads
    )


# ---------------------------------------------------------------------------


class Fig14Packet(Workload):
    """Fig. 14/15: seven systems, driving, 60 s, packet; then flow."""

    name = "fig14_packet"
    duration = 60.0

    def make_cells(self, small: bool = False) -> List[Cell]:
        if small:
            return [
                make_cell(
                    ScenarioPaths("driving"), SystemKind.CONVERGE,
                    seed=self.base, duration=5.0,
                )
            ]
        return fig14_15_comparison.cells(duration=self.duration, seed=self.base)

    def after_cold(
        self, unit: Unit, tracer: Optional[Tracer], small: bool
    ) -> None:
        flow = [
            dataclasses.replace(cell, fidelity=Fidelity.FLOW)
            for cell in self.make_cells(small)
        ]
        with _span(tracer, "runner"):
            report = run_cells(flow, jobs=1)
        unit.attempted += len(flow)
        unit.failed += report.stats.errors
        unit.extra["flow_cells"] = flow
        unit.extra["flow_payloads"] = payloads_of(report)

    def flow_errors(self, unit: Unit) -> Dict[str, float]:
        """Mean over systems of the flow engine's error against packet."""
        pairs = list(zip(unit.payloads, unit.extra["flow_payloads"]))
        tput = [
            abs(f["summary"]["throughput_bps"] - p["summary"]["throughput_bps"])
            / p["summary"]["throughput_bps"]
            for p, f in pairs
        ]
        stall = [
            abs(f["summary"]["freeze_total"] - p["summary"]["freeze_total"])
            for p, f in pairs
        ]
        return {
            "flow.tput_err": sum(tput) / len(tput),
            "flow.stall_err_s": sum(stall) / len(stall),
        }

    def first_unit_checks(self, unit: Unit) -> None:
        checks.check_cells(unit.extra["flow_cells"], unit.extra["flow_payloads"])

    def workload_counts(self, unit: Unit) -> Dict[str, float]:
        out: Dict[str, float] = dict(self.flow_errors(unit))
        out["packet.events"] = unit.extra["counters"]["packet.events"]
        out["flow.frames"] = frames_of(unit.extra["flow_payloads"])
        return out


# ---------------------------------------------------------------------------


class FleetDefault(Workload):
    """One ``run_fleet`` with the ``repro fleet`` defaults per cold pass."""

    name = "fleet_default"
    entry_span = None
    seeds_per_point = 32
    duration = 30.0
    resamples = 1000

    def spec(self, small: bool) -> FleetSpec:
        systems = list(SystemKind)
        if small:
            return FleetSpec.from_ranges(
                ["driving"], systems[:2], self.base, 2, 5.0
            )
        return FleetSpec.from_ranges(
            ["driving"], systems, self.base,
            self.seeds_per_point, self.duration,
        )

    def make_cells(self, small: bool = False) -> List[Cell]:
        # run_fleet expands its own cells; these stand for them.
        return expand_fleet(self.spec(small))

    def cold(
        self, cells: List[Cell], cache: Optional[str], small: bool
    ) -> Tuple[RunReport, Dict[str, Any]]:
        self.counters.reports.clear()
        fleet = run_fleet(
            self.spec(small), jobs=1, mode="batch", cache=cache,
            resamples=100 if small else self.resamples,
        )
        checks.require(
            len(self.counters.reports) == 1, "one runner report per fleet"
        )
        return self.counters.reports[0], {"groups": fleet.groups}

    def unit_checks(self, unit: Unit) -> None:
        fallback = unit.extra["counters"]["batch.scalar_fallback_cells"]
        checks.require(
            fallback == 0,
            f"{fallback} fleet cells fell back to the scalar engine",
        )

    def first_unit_checks(self, unit: Unit) -> None:
        checks.check_fleet(self.spec(False), unit.payloads, unit.extra["groups"])
        count = len(unit.cells)
        checks.check_scalar_equivalence(
            unit.cells, unit.payloads, sorted({0, count // 2, count - 1})
        )

    def workload_counts(self, unit: Unit) -> Dict[str, float]:
        return {
            name: unit.extra["counters"][name]
            for name in (
                "batch.lanes", "batch.groups", "batch.scalar_fallback_cells"
            )
        }


# ---------------------------------------------------------------------------


class SweepCache(Workload):
    """A scalar flow sweep into an empty cache, then again from it."""

    name = "sweep_cache"
    duration = 60.0
    seeds_per_point = 4
    cold_writes_cache = True

    def make_cells(self, small: bool = False) -> List[Cell]:
        seeds = 1 if small else self.seeds_per_point
        return [
            make_cell(
                ScenarioPaths(scenario),
                system,
                seed=seed,
                duration=5.0 if small else self.duration,
                fidelity=Fidelity.FLOW,
                chaos=SWEEP_CHURN.get(scenario),
            )
            for scenario in SWEEP_SCENARIOS
            for system in SystemKind
            for seed in range(self.base, self.base + seeds)
        ]

    def workload_counts(self, unit: Unit) -> Dict[str, float]:
        return {"flow.frames": frames_of(unit.payloads)}


WORKLOADS = {
    cls.name: cls
    for cls in (Fig14Packet, FleetDefault, SweepCache)
}
