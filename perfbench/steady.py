"""Steadiness check: two sets of runs of every workload, compared.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads fleet_default

Each set runs the benchmark command of ``BENCHMARK.json`` once per seed
(seeds 1..N) on every workload, as separate processes.  The two sets
run interleaved, A B B A A B ..., so a slow drift of the host lands on
both.  For every end-to-end metric and workload the command reports
each set's median, quartiles and spread (interquartile distance over
the median) and the change of the second median against the first.
It requires both spreads and the change, in either direction, to stay
within the metric's ``bound``; ``setup_s`` is held to this too.  It also
checks that a seed's exact counts are equal in both sets and that the
share of failed operations is the same.  The bounds in
``BENCHMARK.json`` are set from this output.  The summary is written
to ``.perfbench_out/steady.json``.  Exit status 0 means every check
held.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def run_once(
    command: List[str], workload: str, seed: int, seconds: int
) -> Dict[str, Any]:
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    wall = time.perf_counter() - start
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-500:]}"
        )
    records = [json.loads(line) for line in lines]
    result = records[-1]
    counts = next((r["counts"] for r in records if "counts" in r), {})
    host = next((r["host"] for r in records if "host" in r), {})
    return {"result": result, "counts": counts, "host": host, "wall": wall}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workloads", nargs="*", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"]
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    seeds = list(range(1, args.runs + 1))

    runs: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        name: {"A": [], "B": []} for name in names
    }
    for index, seed in enumerate(seeds):
        order = ("A", "B") if index % 2 == 0 else ("B", "A")
        for name in names:
            for which in order:
                record = run_once(command, name, seed, seconds)
                runs[name][which].append(dict(record, seed=seed))
                print(
                    f"{name} set {which} seed {seed}: "
                    f"{record['wall']:.1f} s wall",
                    file=sys.stderr, flush=True,
                )

    ok = True
    summary: Dict[str, Any] = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        rows: Dict[str, Any] = {}
        sets = runs[name]
        for metric in metrics:
            key, bound = metric["name"], metric["bound"]
            per_set = {}
            for which in ("A", "B"):
                values = [
                    r["result"]["metrics"][key]["value"] for r in sets[which]
                ]
                q1, med, q3 = quartiles(values)
                per_set[which] = {
                    "median": med, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / med,
                    "values": values,
                }
            change = worse_by(
                per_set["A"]["median"], per_set["B"]["median"], metric["better"]
            )
            steady = all(per_set[w]["spread"] <= bound for w in ("A", "B"))
            agree = abs(change) <= bound
            ok = ok and steady and agree
            rows[key] = {
                "sets": per_set, "worse_by": change, "bound": bound,
                "steady": steady, "agree": agree,
            }
            print(
                f"{name:14} {key:18} A {per_set['A']['median']:.5g} "
                f"[{per_set['A']['q1']:.5g}, {per_set['A']['q3']:.5g}] "
                f"B {per_set['B']['median']:.5g} "
                f"[{per_set['B']['q1']:.5g}, {per_set['B']['q3']:.5g}] "
                f"spread A {per_set['A']['spread']:.3f} "
                f"B {per_set['B']['spread']:.3f} "
                f"worse {change:+.3f} bound {bound} "
                f"{'ok' if steady and agree else 'FAIL'}"
            )
        counts_equal = all(
            a["counts"] == b["counts"] and a["counts"]
            for a, b in zip(sets["A"], sets["B"])
        )
        shares = {
            which: sum(r["result"]["failed"] for r in sets[which])
            / sum(r["result"]["attempted"] for r in sets[which])
            for which in ("A", "B")
        }
        correct = all(
            r["result"]["correct"] for which in ("A", "B") for r in sets[which]
        )
        ok = ok and counts_equal and shares["A"] == shares["B"] and correct
        walls = [r["wall"] for which in ("A", "B") for r in sets[which]]
        print(
            f"{name:14} exact counts equal: {counts_equal}; failed share "
            f"A {shares['A']} B {shares['B']}; all correct: {correct}; "
            f"wall per run median {statistics.median(walls):.1f} s, "
            f"max {max(walls):.1f} s"
        )
        summary["workloads"][name] = {
            "metrics": rows, "counts_equal": counts_equal,
            "failed_share": shares, "correct": correct,
            "wall_median_s": statistics.median(walls),
            "wall_max_s": max(walls),
            "hosts": [r["host"] for which in ("A", "B") for r in sets[which]],
        }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steady.json").write_text(json.dumps(summary, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
