"""Repeat benchmark runs and record how steady each end-to-end metric is.

    python3 bench/steady.py --set seeds_1_10 --seeds 1 2 3 4 5 6 7 8 9 10
    python3 bench/steady.py --set seed_1_x5 --seeds 1 1 1 1 1
    python3 bench/steady.py --set trace --seeds 1 --trace 1

Run from the repository root.  Runs are made one at a time with
``bench/run.py`` and the run length from ``BENCHMARK.json``.  For every
workload and end-to-end metric the set records the values, their median,
quartiles (``statistics.quantiles(n=4)``) and the spread: the distance
between the quartiles as a share of the median, next to the metric's
bound, and the set records each run's wall time.  Results are merged into ``--out`` under the set's name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int
             ) -> tuple[dict, list[str], float]:
    """One run of ``run.py``: its result, summary lines and wall seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-400:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1], wall


def spread_table(runs: list[dict], bounds: dict) -> dict:
    table = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if not values:
            continue
        med = statistics.median(values)
        row = {"values": values, "median": med, "bound": bound}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
        table[name] = row
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--set", required=True, help="name of this set of runs")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end" if not args.trace
                                                       else "per_layer"]}
    record = {"seeds": args.seeds, "trace": args.trace, "seconds": spec["run_seconds"],
              "workloads": {}}
    for workload in names:
        runs, notes, walls = [], [], []
        for seed in args.seeds:
            result, lines, wall = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(result)
            notes.append(lines)
            walls.append(wall)
            print(f"{workload} seed {seed} ({wall:.1f} s): " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if not args.trace), flush=True)
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": [r["correct"] for r in runs],
            "run_wall_s": walls,
            "metrics": spread_table(runs, bounds),
            "metadata": next(json.loads(ln.split(" ", 1)[1]) for ln in notes[0]
                             if ln.startswith("metadata ")),
            "summary": [ln for ln in notes[0] if not ln.startswith("metadata ")
                        and ln.split(" ", 1)[0] not in bounds],
        }
        record["workloads"][workload] = entry
        for name, row in entry["metrics"].items():
            if row.get("spread") is not None and row["bound"] is not None:
                flag = "ok" if row["spread"] < row["bound"] / 3 else "WIDE"
                print(f"  {name}: median {row['median']:.5g} spread {row['spread']:.4f} "
                      f"bound {row['bound']} {flag}", flush=True)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("sets", {})[args.set] = record
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
