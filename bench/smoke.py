"""Smoke test of the benchmark at tiny sizes.

    python3 bench/smoke.py

For every workload it checks that:
  * an untraced run prints every end-to-end metric of BENCHMARK.json, and
    a traced run every per-layer metric, each with its unit;
  * span self times are >= 0 and no thread's self time exceeds the pass
    wall time;
  * count metrics repeat exactly across two traced runs with one seed.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
EXACT_UNITS = ("count", "B")


def run(workload: str, trace: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        traced = []
        for trace, seconds in ((0, 1), (1, 2), (1, 2)):
            report, result = run(workload, trace, seconds)
            where = f"{workload} trace={trace}"
            if set(result) != RESULT_KEYS or result["attempted"] < 1 or not result["correct"]:
                problems.append(f"{where}: bad result line {sorted(result)} correct={result.get('correct')}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{where}: metrics/units {got} differ from BENCHMARK.json")
            if trace:
                span = report["trace"]
                if span["min_self_s"] < 0.0:
                    problems.append(f"{where}: negative self time {span['min_self_s']}")
                if span["max_thread_self_share"] > 1.0:
                    problems.append(f"{where}: one thread's self time is {span['max_thread_self_share']} of the pass")
                traced.append({n: m["value"] for n, m in result["metrics"].items() if m["unit"] in EXACT_UNITS})
        if traced[0] != traced[1]:
            diff = {n: (traced[0][n], traced[1][n]) for n in traced[0] if traced[0][n] != traced[1][n]}
            problems.append(f"{workload}: counts differ between two traced runs: {diff}")
        print(f"{workload}: {'ok' if not problems else 'FAILED'}", flush=True)
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
