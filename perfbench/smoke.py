#!/usr/bin/env python3
"""Tiny-size smoke run of the benchmark (about 5k hours, one run per workload).

Run from the root of a checkout:

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs ``run.py --size tiny`` once
untraced and once traced, and fails unless each run is correct with no
failed operation (error rate 0) and emits exactly the metrics that
BENCHMARK.json names, each with its declared unit. It also checks that
every declared metric has a better direction.

It then reruns a known defect as an expected failure: at ``--bins 4``,
``learn`` fails to orient the graph on some training seeds (seed 13 at
100k hours is one). The benchmark's training seed was picked where learn
succeeds, so this record is where the defect shows. It prints XFAIL
while the defect reproduces and XPASS once it no longer does; neither
fails the smoke run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
DEFECT_SEED, DEFECT_HOURS = 13, 100_000
DEFECT_SIGNS = ("cannot orient", "contains a cycle")


def check_declarations(bench: dict) -> list[str]:
    problems = []
    for group in ("end_to_end", "per_layer"):
        for m in bench[group]:
            if m.get("better") not in ("lower", "higher"):
                problems.append(f"{m['name']}: no better direction")
            if not m.get("unit"):
                problems.append(f"{m['name']}: no unit")
    return problems


def check_run(workload: str, trace: int, declared: list[dict]) -> list[str]:
    argv = [sys.executable, str(Path(__file__).with_name("run.py")),
            "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct"):
        problems.append(f"{where}: not correct")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: error rate {result.get('failed')}/{result.get('attempted')}")
    emitted = result.get("metrics", {})
    for m in declared:
        got = emitted.get(m["name"])
        if got is None:
            problems.append(f"{where}: {m['name']} not emitted")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')} != {m['unit']}")
    extra = set(emitted) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")
    print(f"{where}: {len(emitted)} metrics, {result.get('failed')}/"
          f"{result.get('attempted')} failed", flush=True)
    return problems


def known_defect() -> str:
    """XFAIL if learn still fails on the defect's seed, else XPASS."""
    work = Path(".perfbench-work") / f"smoke-defect-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH="src")
    cli = [sys.executable, "-m", "outagebn.cli"]
    seed = str(DEFECT_SEED)
    try:
        subprocess.run(cli + ["gen", "--seed", seed, "--hours", str(DEFECT_HOURS),
                              "--bins", "4", "--out-weather", str(work / "w.csv"),
                              "--out-outages", str(work / "o.csv")],
                       env=env, check=True, capture_output=True, timeout=600)
        learn = subprocess.run(cli + ["learn", "--seed", seed, "--bins", "4",
                                      "--weather", str(work / "w.csv"),
                                      "--outages", str(work / "o.csv"),
                                      "--model", str(work / "m.json")],
                               env=env, capture_output=True, text=True, timeout=600)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    output = learn.stdout + learn.stderr
    sign = next((line for line in output.splitlines()
                 if any(s in line for s in DEFECT_SIGNS)), "")
    where = f"learn --bins 4 --seed {seed} on {DEFECT_HOURS} hours"
    if learn.returncode != 0 and sign:
        return f"XFAIL {where}: exit {learn.returncode}, {sign.strip()}"
    return f"XPASS {where}: exit {learn.returncode}, the known orientation defect " \
           "no longer shows here"


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    problems = check_declarations(bench)
    for w in bench["workloads"]:
        problems += check_run(w["name"], 0, bench["end_to_end"])
        problems += check_run(w["name"], 1, bench["per_layer"])
    print(known_defect())
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
