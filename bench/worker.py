"""One workload process: import cvqkd, make the inputs, run timed passes, check outputs.

run.py starts this file in a fresh interpreter. With ``--role setup`` it
stops the set-up clock as soon as the inputs are ready, then times the
reference loop. With ``--role measure`` it runs whole passes, one call at a
time, for about ``--seconds``: at least one pass, and no pass that would
end past that time. With ``--trace 1`` the first half of that time runs
untraced and the second half runs with every public cvqkd function
wrapped (see spans.py); the ratio of the two phases' medians of pass time
over reference time is the tracing overhead. It prints one JSON object on stdout and reads and
writes only inside the checkout.

A fixed pure-Python loop (``reference_s``) is timed before a pass, between
its calls at least every ``REF_EVERY_S`` and after it, always outside the
call clock. The ``*_ref`` metrics divide a pass's times by the median of
those timings, then take the first quartile over passes (the median for
the tail). They are measured times in units of that loop, so they move
less than seconds when the host's speed drifts (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_MESSAGES = 5
REFERENCE_LOOP = 300_000
REF_EVERY_S = 1.0
SETUP_REF_RUNS = 3


def latency_summary(lat: list[float]) -> tuple[float, float, float]:
    """One pass's median call latency and the latency at the highest
    percentile with at least 10 samples beyond it, in ms, with that percentile."""
    lat = sorted(lat)
    k = max(0, len(lat) - 11)  # 0-based index of the tail sample
    return 1e3 * statistics.median(lat), 1e3 * lat[k], 100.0 * (k + 1) / len(lat)


def reference_s() -> float:
    """Time of a fixed pure-Python loop: the host's speed at this moment."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i
    return time.perf_counter() - start


def run_pass(wl, cvqkd_error):
    """One pass: the call latencies, the outputs and the median reference loop time."""
    outs, lat, refs = [], [], [reference_s()]
    last_ref = time.perf_counter()
    for index, call in enumerate(wl.calls):
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(reference_s())
            last_ref = time.perf_counter()
        t0 = time.perf_counter()
        try:
            out = ("ok", wl.run(index, call))
        except cvqkd_error as exc:
            out = ("typed", exc)
        except Exception as exc:  # counted as a failure; the run goes on
            out = ("error", exc)
        lat.append(time.perf_counter() - t0)
        outs.append(out)
    refs.append(reference_s())
    return lat, outs, statistics.median(refs)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.typed_errors = 0
        self.correct = True
        self.messages: list[str] = []

    def fail(self, n: int, messages: list[str], wrong_output: bool) -> None:
        self.failed += n
        self.correct = self.correct and not wrong_output
        for m in messages:
            if len(self.messages) < MAX_MESSAGES and m not in self.messages:
                self.messages.append(m)

    def check(self, wl, outs) -> None:
        for (index, call), (status, value) in zip(enumerate(wl.calls), outs):
            k = wl.items(call)
            self.attempted += k
            if status == "typed":
                self.typed_errors += k
                self.fail(k, [f"{type(value).__name__}: {value}"], wrong_output=False)
                continue
            if status == "ok":
                try:
                    bad = wl.check(index, call, value)
                except Exception as exc:
                    bad = [f"check raised {exc!r}"] * k
            else:
                bad = [f"unexpected {value!r}"] * k
            if bad:
                self.fail(len(bad), bad, wrong_output=True)


def measure(wl, seconds: float, trace: bool, cvqkd_error) -> dict:
    import spans

    tally = Tally()
    ops, messages = wl.prepare()
    tally.attempted += ops
    if messages:
        tally.fail(len(messages), messages, wrong_output=True)
    phases = [("plain", seconds / 2.0), ("traced", seconds / 2.0)] if trace else [("plain", seconds)]
    plain = {"pass_s": [], "p50_ms": [], "tail_ms": [], "ref_s": [], "items": 0}
    traced_pass_ref, export_bytes, rows_requested = [], 0, 0
    bytes_written = getattr(wl, "bytes_written", lambda: 0)
    rows_of = getattr(wl, "rows_requested", lambda call: 0)
    items_per_pass = sum(wl.items(c) for c in wl.calls)
    tracer = None
    for phase, length in phases:
        if phase == "traced":
            tracer = spans.Tracer()
            tracer.install()
        started, passes = time.perf_counter(), 0
        while True:
            lat, outs, ref_s = run_pass(wl, cvqkd_error)
            pass_s = sum(lat)
            if tracer is None:
                p50_ms, tail_ms, tail_percentile = latency_summary(lat)
                plain["pass_s"].append(pass_s)
                plain["p50_ms"].append(p50_ms)
                plain["tail_ms"].append(tail_ms)
                plain["ref_s"].append(ref_s)
                plain["items"] += items_per_pass
            else:
                tracer.drain(pass_s)
                traced_pass_ref.append(pass_s / ref_s)
                export_bytes += bytes_written()
                rows_requested += sum(rows_of(c) for c in wl.calls)
            tally.check(wl, outs)
            passes += 1
            elapsed = time.perf_counter() - started
            if elapsed * (passes + 1) / passes > length:  # one more pass would end past the phase
                break
    if tracer is not None:
        tracer.uninstall()

    def per_ref(values, scale=1.0, low=False):
        ratios = sorted(scale * v / r for v, r in zip(values, plain["ref_s"]))
        return ratios[(len(ratios) - 1) // 4] if low else statistics.median(ratios)

    result = {
        "metrics": {
            # the first quartile over passes: the host's interference only adds time.
            # The tail keeps the median, since a tail is meant to hold the slow events.
            "pass_ref": per_ref(plain["pass_s"], low=True),
            "item_p50_ref": per_ref(plain["p50_ms"], 1e-3, low=True),
            "item_tail_ref": per_ref(plain["tail_ms"], 1e-3),
            "pass_s": statistics.median(plain["pass_s"]),
            "items_per_s": plain["items"] / sum(plain["pass_s"]),
            "item_p50_ms": statistics.median(plain["p50_ms"]),
            "item_tail_ms": statistics.median(plain["tail_ms"]),
            "reference_ms": 1e3 * statistics.median(plain["ref_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fail_frac": tally.failed / tally.attempted,
        },
        "detail": {
            "passes": len(plain["pass_s"]),
            "items_per_pass": items_per_pass,
            "latencies_per_pass": len(wl.calls),
            "item_tail_percentile": tail_percentile,
            "pass_s": plain["pass_s"],
            "item_p50_ms": plain["p50_ms"],
            "item_tail_ms": plain["tail_ms"],
            "reference_s": plain["ref_s"],
            "known_defect": getattr(wl, "known_defect", None),
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "typed_errors": tally.typed_errors,
        "correct": tally.correct,
        "messages": tally.messages,
    }
    if tracer is not None:
        overhead = statistics.median(traced_pass_ref) / per_ref(plain["pass_s"]) - 1.0
        result["layers"] = layer_metrics(tracer, plain, export_bytes, rows_requested, overhead)
        result["trace"] = {
            "passes": tracer.passes,
            "spans": tracer.spans,
            "min_self_s": tracer.min_self_s,
            "max_thread_self_share": tracer.max_thread_self_share,
            "pass_ref": statistics.median(traced_pass_ref),
            "totals": tracer.totals,
        }
    return result


def layer_metrics(tracer, plain, export_bytes, rows_requested, overhead) -> dict:
    per = tracer.per_pass
    tot = tracer.totals

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    items_per_pass = plain["items"] / len(plain["pass_s"])
    export_self = tot.get("montecarlo.export.self_s", 0.0)
    out = {
        f"{g}.{m}": per(f"{g}.{m}")
        for g, m in (
            ("gaussian.cm_init", "count"), ("gaussian.cm_init", "self_s"),
            ("gaussian.spectrum", "count"), ("gaussian.spectrum", "self_s"),
            ("gaussian.spectrum", "count_gt2"),
            ("gaussian.transform", "self_s"), ("gaussian.condition", "self_s"), ("gaussian.entropy", "self_s"),
            ("bounds.ur", "self_s"), ("bounds.dw", "self_s"),
            ("bounds.key_rate", "self_s"), ("security.key_rate_at", "self_s"),
            ("security.protocol_state", "self_s"),
            ("montecarlo.export", "self_s"), ("montecarlo.sample", "self_s"), ("montecarlo.estimate", "self_s"),
            ("cli.main", "self_s"),
        )
    }
    out["gaussian.spectrum.per_item"] = ratio(per("gaussian.spectrum.count"), items_per_pass)
    out["bounds.key_rate.count"] = per("bounds.key_rate.calls")
    out["security.solve.evals_per_solve"] = ratio(tot.get("security.root_finder.evals", 0.0), tot.get("security.root_finder.count", 0.0))
    out["security.region.child_to_wall"] = ratio(tot.get("security.region.child_s", 0.0), tot.get("security.region.wall_s", 0.0))
    out["montecarlo.export.bytes"] = ratio(export_bytes, tracer.passes)
    out["montecarlo.export.mb_per_s"] = ratio(export_bytes / 1e6, export_self)
    out["montecarlo.sample.useful_ratio"] = ratio(rows_requested, tot.get("montecarlo.sample.rows", 0.0))
    out["trace.overhead"] = overhead
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "cvqkd" / "__init__.py").is_file():
        print(f"bench: no cvqkd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cvqkd
    import cvqkd.cli

    import_s = time.perf_counter() - t0
    if Path(cvqkd.__file__).resolve().parent != (SRC / "cvqkd").resolve():
        print(f"bench: imported cvqkd from {cvqkd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    out_dir = ROOT / f".bench_tmp-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, args.tiny, str(out_dir))
    ready = time.perf_counter()
    result = {"ready": ready, "import_s": import_s}
    if args.role == "setup":
        result["ref_s"] = statistics.median(reference_s() for _ in range(SETUP_REF_RUNS))
    else:
        out_dir.mkdir()
        try:
            result.update(measure(wl, args.seconds, bool(args.trace), cvqkd.CVQKDError))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        result["provenance"] = {
            "numpy": sys.modules["numpy"].__version__,
            "rng_stream": cvqkd.montecarlo.RNG_STREAM,
            "cvqkd_threads": os.environ.get("CVQKD_THREADS"),
            "cvqkd_version": cvqkd.__version__,
            "sizes": wl.sizes,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
