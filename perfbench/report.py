#!/usr/bin/env python3
"""Print every benchmark metric by name, with unit and direction, per workload.

Run from the root of a checkout:

    python3 perfbench/report.py [--seed 0] [--workload stock-100k ...] [--no-trace]

Each workload runs once untraced (end-to-end metrics) and once traced
(per-layer metrics). A final table gives the wall time of one CLI
``gen``, ``learn``, ``predict`` and ``eval`` per workload, the columns of
the ROADMAP Baseline table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(Path(__file__).with_name("run.py")),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line)["detail"] for line in lines
                  if line.startswith('{"detail"'))
    return json.loads(lines[-1]), detail


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args()

    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    baseline = {}
    for workload in args.workload or names:
        for trace in (0,) if args.no_trace else (0, 1):
            result, detail = run(workload, args.seed, bench["run_seconds"], trace)
            print(f"== {workload} (seed {args.seed}, trace {trace}): "
                  f"correct={result['correct']} "
                  f"error_rate={result['failed']}/{result['attempted']}")
            for name, m in result["metrics"].items():
                better = declared.get(name, {}).get("better", "?")
                print(f"{workload:<14} {name:<36} {m['value']:>14.6g} "
                      f"{m['unit']:<6} {better}")
            if trace == 0:
                walls = {c: detail["walls_s"][c][0] for c in ("learn", "predict", "eval")}
                baseline[workload] = {"gen": detail["gen_s"], **walls}
    if baseline:
        print("\n| workload | gen | learn | predict | eval |")
        print("|---|---|---|---|---|")
        for workload, walls in baseline.items():
            print(f"| {workload} | " + " | ".join(f"{walls[c]:.1f} s" for c in
                                                  ("gen", "learn", "predict", "eval")) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
