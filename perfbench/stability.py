"""A/A stability report: is the benchmark steady enough for its bounds?

    python3 perfbench/stability.py --runs 10 --sets 2 \
        --json perfbench/results/aa.json --report perfbench/results/AA.md

Runs ``perfbench/run.py`` (untraced) *runs* times per workload and set,
each time with another seed (1..runs, the same seeds in every set), and
alternates the order of the sets from one seed to the next so host
drift falls on both.  For every workload and end-to-end metric of
``BENCHMARK.json`` it reports each set's median and quartiles, the
spread (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) against the
metric's bound, and how far the second set's median moved from the
first's.  The host-speed probe taken at the start and end of every run
and the ungated daemon percentiles are reported beside them.

``--sets 1 --runs 5`` is the cheap form used while tuning.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DIAGNOSTICS = ["wall_s", "host_unit_s", "events_per_s", "ack_p50_ms", "ack_p99_ms", "fill_p50_ms",
               "fill_p99_ms", "host_probe_start_s", "host_probe_end_s"]


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({proc.returncode}): {proc.stderr[-800:]}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2][len("detail "):])
    return {"workload": workload, "seed": seed, "result": result,
            "detail": detail, "elapsed_s": time.perf_counter() - started}


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values)}


def value_of(record: Dict[str, Any], name: str) -> float:
    metrics = record["result"]["metrics"]
    if name in metrics:
        return metrics[name]["value"]
    return record["detail"][name]


def report(records: List[Dict[str, Any]], bench: Dict[str, Any],
           sets: int) -> Dict[str, Any]:
    rows = []
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in [w["name"] for w in bench["workloads"]]:
        mine = [r for r in records if r["workload"] == workload]
        if not mine:
            continue
        for name in list(bounds) + DIAGNOSTICS:
            per_set = []
            for index in range(sets):
                values = [value_of(r, name) for r in mine
                          if r["set"] == index and
                          (name in r["result"]["metrics"] or
                           name in r["detail"])]
                if len(values) >= 2:
                    per_set.append(summarize(values))
            if not per_set:
                continue
            row = {"workload": workload, "metric": name,
                   "bound": bounds.get(name), "sets": per_set}
            if len(per_set) == 2:
                first, second = per_set[0]["median"], per_set[1]["median"]
                row["between_sets"] = (second - first) / first
            rows.append(row)
    return {"rows": rows,
            "elapsed_s": {w["name"]: statistics.median(
                r["elapsed_s"] for r in records
                if r["workload"] == w["name"])
                for w in bench["workloads"]
                if any(r["workload"] == w["name"] for r in records)}}


def markdown(summary: Dict[str, Any]) -> str:
    lines = ["| workload | metric | bound | set | median | q1 | q3 | "
             "spread | between sets |",
             "|---|---|---|---|---|---|---|---|---|"]
    for row in summary["rows"]:
        bound = "ungated" if row["bound"] is None else f"{row['bound']:.2f}"
        for index, stats in enumerate(row["sets"]):
            moved = ""
            if index == 1 and "between_sets" in row:
                moved = f"{row['between_sets'] * 100:+.1f}%"
            lines.append(
                f"| {row['workload']} | {row['metric']} | {bound} | "
                f"{'AB'[index]} (n={stats['n']}) | {stats['median']:.4g} | "
                f"{stats['q1']:.4g} | {stats['q3']:.4g} | "
                f"{stats['spread'] * 100:.1f}% | {moved} |")
    lines.append("")
    lines.append("Median seconds per run: " + ", ".join(
        f"{name} {value:.1f}" for name, value in
        summary["elapsed_s"].items()))
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--json", help="write every run's record here")
    parser.add_argument("--report", help="write the markdown table here")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    records: List[Dict[str, Any]] = []
    for run in range(args.runs):
        order = list(range(args.sets))
        if run % 2:
            order.reverse()
        for index in order:
            for workload in workloads:
                record = run_once(workload, run + 1, bench["run_seconds"])
                record["set"] = index
                records.append(record)
                print(f"set {'AB'[index]} {workload} seed {run + 1}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in
                                  record["result"]["metrics"].items()),
                      flush=True)
    summary = report(records, bench, args.sets)
    text = markdown(summary)
    print(text)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump({"records": records, "summary": summary}, stream,
                      indent=1)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as stream:
            stream.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
