"""Run one cvqkd benchmark workload and print its metrics.

    python3 bench/run.py --workload finite_v_sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports cvqkd from ``src/``. Every
run starts fresh interpreters: ``SETUP_RUNS`` that stop once the inputs
are ready, then one workload process that measures (see worker.py). The
load is closed-loop, one call at a time from that one process, with
``CVQKD_THREADS`` removed from its environment.

stdout ends with three parts: one line per metric with its unit, the full
report as one JSON line (metrics, checks, provenance) and, last, the
result line ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics. The exit
code is 0 when the run completed, whatever its checks found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("finite_v_sweep", "region_sweep", "simulate_export")
SETUP_RUNS = 9  # setup-only processes
# setup_s is a set-up time rescaled to a host on which the reference loop takes this long
NOMINAL_REF_S = 0.025
SETUP_TIMEOUT_S = 30
MEASURE_MARGIN_S = 140  # keeps a slow traced simulate_export run inside 180 s overall

END_TO_END = {
    "setup_s": "s",
    "pass_ref": "ref",
    "item_p50_ref": "ref",
    "item_tail_ref": "ref",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "gaussian.cm_init.count": "count",
    "gaussian.cm_init.self_s": "s",
    "gaussian.spectrum.count": "count",
    "gaussian.spectrum.self_s": "s",
    "gaussian.spectrum.per_item": "count",
    "gaussian.spectrum.count_gt2": "count",
    "gaussian.transform.self_s": "s",
    "gaussian.condition.self_s": "s",
    "gaussian.entropy.self_s": "s",
    "bounds.ur.self_s": "s",
    "bounds.dw.self_s": "s",
    "bounds.key_rate.count": "count",
    "bounds.key_rate.self_s": "s",
    "security.key_rate_at.self_s": "s",
    "security.solve.evals_per_solve": "count",
    "security.protocol_state.self_s": "s",
    "security.region.child_to_wall": "ratio",
    "montecarlo.export.self_s": "s",
    "montecarlo.export.bytes": "B",
    "montecarlo.export.mb_per_s": "MB/s",
    "montecarlo.sample.useful_ratio": "ratio",
    "montecarlo.sample.self_s": "s",
    "montecarlo.estimate.self_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead": "ratio",
}
# printed and reported, not gated: raw seconds follow the host's speed drift
REPORT_ONLY = {
    "setup_wall_s": "s",
    "pass_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "reference_ms": "ms",
    "fail_frac": "ratio",
}


class ChildFailed(Exception):
    pass


def spawn(role: str, args) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--role", role, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--tiny"] if args.tiny else [])
    env = dict(os.environ)
    env.pop("CVQKD_THREADS", None)
    timeout = SETUP_TIMEOUT_S if role == "setup" else args.seconds + MEASURE_MARGIN_S
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{role} process timed out after {timeout} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{role} process exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child on Linux
    result["setup_s"] = result["ready"] - started
    return result


def git_commit() -> str | None:
    """HEAD of the checkout's own .git; None where there is none."""
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    try:
        setups = [spawn("setup", args) for _ in range(SETUP_RUNS)]
        run = spawn("measure", args)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    metrics = dict(
        run["metrics"],
        setup_s=statistics.median(NOMINAL_REF_S * s["setup_s"] / s["ref_s"] for s in setups),
        setup_wall_s=statistics.median(s["setup_s"] for s in setups),
    )
    layers = run.get("layers", {})
    if layers:
        layers["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
    units = {**END_TO_END, **REPORT_ONLY, **(PER_LAYER if layers else {})}
    shown = {**metrics, **layers}
    for name, unit in units.items():
        print(f"{args.workload:16s} {name:32s} {shown[name]:>16.6g} {unit}")
    defect = run["detail"]["known_defect"]
    if defect:
        print(f"{args.workload:16s} known defect: {defect['failed']} of {defect['states']} {defect['what']}")

    report = {
        "workload": args.workload,
        "metrics": {name: {"value": shown[name], "unit": unit} for name, unit in units.items()},
        "detail": dict(
            run["detail"],
            setup_wall_s=[s["setup_s"] for s in setups],
            setup_reference_s=[s["ref_s"] for s in setups],
        ),
        "checks": {
            "attempted": run["attempted"],
            "failed": run["failed"],
            "typed_errors": run["typed_errors"],
            "correct": run["correct"],
            "messages": run["messages"],
        },
        "provenance": dict(
            run["provenance"],
            nproc=os.cpu_count(),
            python=platform.python_version(),
            git_commit=git_commit(),
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            tiny=args.tiny,
        ),
    }
    if "trace" in run:
        report["trace"] = run["trace"]
    print(json.dumps(report))
    chosen = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": shown[name], "unit": unit} for name, unit in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
