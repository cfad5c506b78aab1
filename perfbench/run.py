"""polysum benchmark: one seeded workload per run, timed from outside the library.

    python3 perfbench/run.py --workload general_sum --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports polysum from ./src and starts
CLI children with ./src on PYTHONPATH.  The loop is closed: one client, one
operation in flight, at most one child process.  Every result is checked
against an independent oracle outside the timed span; a failed, raising,
timed-out or wrong operation counts as failed and makes the exit code 1.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The line before it records provenance and sample
counts.  See BENCHMARK.json and perfbench/DESIGN.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

from oracles import poly_mul
from workloads import LAYERS, OP_LIMIT_S, WORKLOADS, NoSpans, Spans

MIN_SAMPLES = 100  # latency_p90_ms needs ten samples above it
SETUP_LIMIT_S = 45  # with HARD_STOP_S and OP_LIMIT_S, a run ends within 170 s
HARD_STOP_S = 110  # end the loop here even with fewer samples
COUNT_OPS = 32  # the size and cache counts cover this many operations
KEEP = 1024  # latency samples kept per run: all of them up to 2 * KEEP
MODULES = ("expr_parser", "basis", "summation", "powersum", "cli")
# On a shared 2-vCPU virtual machine the CPU speed was seen to drift by up to
# 1.8x within seconds (same work, same process, CPU time equal to wall time).
# A fixed reference computation timed every PROBE_EVERY_S tracks that drift,
# and every reported time is scaled to a probe time of NOMINAL_PROBE_MS.
PROBE_EVERY_S = 0.2
NOMINAL_PROBE_MS = 4.0


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout("time limit exceeded")


def probe_ms() -> float:
    """Time a fixed product of Fraction polynomials that does not touch polysum."""
    a = [Fraction(k, k + 1) for k in range(1, 26)]
    t0 = perf_counter_ns()
    b = a
    for _ in range(2):
        b = poly_mul(b, a)[:25]
    return (perf_counter_ns() - t0) / 1e6


def load_library(src: Path) -> SimpleNamespace:
    """Import a fresh copy of polysum from src, dropping any loaded one."""
    for name in [k for k in sys.modules if k == "polysum" or k.startswith("polysum.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"polysum.{m}") for m in MODULES})
    if not Path(lib.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"polysum was imported from {lib.cli.__file__}, not {src}")
    return lib


def set_up(workload_cls, src: Path, seed: int):
    """Import, generate inputs and warm caches at least 3 times, and up to 9
    times while the set-ups have taken under 1 s in all; return the last
    workload and the median set-up time in s, unscaled and scaled."""
    times, probes = [], [probe_ms()]
    while len(times) < 3 or (len(times) < 9 and sum(times) < 1e9):
        t0 = perf_counter_ns()
        workload = workload_cls(load_library(src), seed)
        times.append(perf_counter_ns() - t0)
        gc.collect()  # free the previous copy of polysum before the next set-up
        probes.append(probe_ms())
    raw = statistics.median(times) / 1e9
    return workload, raw, raw * NOMINAL_PROBE_MS / statistics.fmean(probes)


COUNTS = {
    "poly.result_degree": "count",
    "poly.result_terms": "count",
    "poly.max_coeff_bits": "bits",
    "powersum.cache_hits": "count",
    "powersum.cache_misses": "count",
}


def measure(wl, seconds: float, traced: bool) -> dict:
    """Run whole blocks of operations until `seconds` have passed and
    MIN_SAMPLES are attempted.

    Memory stays flat however many operations a run makes, so that
    peak_rss_mb measures polysum and not this loop: busy time is summed per
    probe interval, and verified latencies are thinned to every stride-th
    operation, between KEEP and 2 * KEEP of them."""
    sp = Spans() if traced else NoSpans()
    cache = wl.lib.powersum.power_sum_closed_form
    probes, busy = [probe_ms()], [0]  # busy[j]: ns of operations after probes[j]
    kept, stride, verified, attempted = [], 1, 0, 0  # kept: (ns, probe index)
    failures, counts = [], dict.fromkeys(COUNTS, 0)
    start = last_probe = time.perf_counter()
    for first, inp in ((i == 0, inp) for block in wl.inputs() for i, inp in enumerate(block)):
        now = time.perf_counter()
        enough = first and now - start >= seconds and attempted >= MIN_SAMPLES
        if enough or now - start >= HARD_STOP_S:
            break
        if now - last_probe >= PROBE_EVERY_S:
            probes.append(probe_ms())
            busy.append(0)
            last_probe = time.perf_counter()
        attempted += 1
        wl.reset()
        before = cache.cache_info()
        dt = None
        t0 = perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            out = wl.op(inp, sp)
            dt = perf_counter_ns() - t0
            after = cache.cache_info()
            if traced:
                wl.children(inp, out, sp)
            coeffs = wl.verify(inp, out)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as e:  # the operation failed; count it and go on
            signal.setitimer(signal.ITIMER_REAL, 0)
            busy[-1] += dt if dt is not None else perf_counter_ns() - t0
            failures.append(f"{inp!r:.160}: {e!r:.300}")
            continue
        busy[-1] += dt
        if verified % stride == 0:
            kept.append((dt, len(probes) - 1))
            if len(kept) == 2 * KEEP:
                kept, stride = kept[::2], stride * 2
        verified += 1
        if verified <= COUNT_OPS:
            counts["poly.result_degree"] += len(coeffs) - 1
            counts["poly.result_terms"] += sum(1 for c in coeffs if c)
            counts["poly.max_coeff_bits"] = max(
                [counts["poly.max_coeff_bits"]]
                + [max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs]
            )
            counts["powersum.cache_hits"] += after.hits - before.hits
            counts["powersum.cache_misses"] += after.misses - before.misses
    probes.append(probe_ms())
    return {
        "probes": probes, "busy": busy, "kept": kept, "verified": verified,
        "attempted": attempted, "failures": failures, "spans": sp, "counts": counts,
    }


def quantile(values, q: int) -> float:
    """The q-th percentile by statistics.quantiles; the sole value for one."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def times(r: dict, scale: bool) -> dict:
    """ops_per_s and latency percentiles, scaled to nominal speed or not."""
    probes = r["probes"]

    def ms(ns, j):
        return ns / 1e6 * (2 * NOMINAL_PROBE_MS / (probes[j] + probes[j + 1]) if scale else 1)

    busy_ms = sum(ms(ns, j) for j, ns in enumerate(r["busy"]))
    lat = [ms(ns, j) for ns, j in r["kept"]]
    return {
        "ops_per_s": r["verified"] / (busy_ms / 1e3) if busy_ms else 0.0,
        "latency_p50_ms": quantile(lat, 50),
        "latency_p90_ms": quantile(lat, 90),
    }


def end_to_end(r: dict, setup_s: float, peak_rss_mb: float) -> dict:
    t = times(r, scale=True)
    return {
        "ops_per_s": (t["ops_per_s"], "1/s"),
        "latency_p50_ms": (t["latency_p50_ms"], "ms"),
        "latency_p90_ms": (t["latency_p90_ms"], "ms"),
        "verified_rate": (r["verified"] / r["attempted"], "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(r: dict) -> dict:
    sp = r["spans"]
    busy = sum(r["busy"]) or 1
    k = statistics.fmean(r["probes"]) / NOMINAL_PROBE_MS
    out = {}
    for layer in LAYERS:
        out[f"{layer}.ms"] = (sp.ns[layer] / 1e6 / k, "ms")
        out[f"{layer}.calls"] = (sp.calls[layer], "count")
        out[f"{layer}.share"] = (sp.ns[layer] / busy, "ratio")
    out["trace.ops_per_s"] = (times(r, scale=True)["ops_per_s"], "1/s")
    out["trace.uncovered_share"] = (1 - sum(sp.ns[layer] for layer in LAYERS) / busy, "ratio")
    out.update({name: (r["counts"][name], unit) for name, unit in COUNTS.items()})
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        head = Path(".git/HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if Path(".git", ref).is_file():
            return Path(".git", ref).read_text().strip()
        for line in Path(".git/packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path("src")
    if not (src / "polysum" / "__init__.py").is_file():
        print("error: src/polysum not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    signal.signal(signal.SIGALRM, _on_alarm)

    signal.setitimer(signal.ITIMER_REAL, SETUP_LIMIT_S)
    try:
        wl, raw_setup_s, setup_s = set_up(WORKLOADS[args.workload], src, args.seed)
    except OpTimeout:
        print(f"error: set-up took over {SETUP_LIMIT_S} s", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    r = measure(wl, args.seconds, bool(args.trace))
    who = resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    metrics = per_layer(r) if args.trace else end_to_end(r, setup_s, peak_rss_mb)

    failed = len(r["failures"])
    lat = [ns for ns, _ in r["kept"]]
    p90 = quantile(lat, 90)
    for failure in r["failures"][:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "provenance": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "git_commit": git_commit(), "nproc": len(os.sched_getaffinity(0)),
            "loop": "closed, 1 client", "op_limit_s": OP_LIMIT_S,
        },
        "samples": r["verified"],
        "latency_samples": len(lat),
        "above_p90": sum(1 for t in lat if t > p90),
        "probe_ms": statistics.fmean(r["probes"]),
        "unscaled": dict(times(r, scale=False), setup_s=raw_setup_s),
        "failures": r["failures"][:5],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": r["attempted"],
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
