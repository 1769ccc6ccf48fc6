"""thetacoble benchmark: end-to-end and per-layer metrics of seeded workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload identities --seed 1 --seconds 55 --trace 0

Workloads (closed loop, one client; each pass is a fresh single-threaded
process with BLAS/OpenMP pinned to one thread and the seed as an argument,
so no pass sees another's caches):

  identities  every suite of `thetacoble verify all` except group, at twice
              the default samples: 11 run_suite calls.  The theta, modular,
              quartics and points layers do most of the work, many checks
              share each tau, and Sp(6, F2) is never built.
  replay      306 single `thetacoble eval`-style requests (coble value,
              coble gradient, kummer2), each from raw tau/z arrays at a fresh
              anisotropic tau with lambda_min down to 0.25; 6 of them are out
              of domain (see workloads.replay_requests).
  verify_all  one cold run_suite("all"), which the Sp(6, F2) closure
              dominates (about two minutes); not in BENCHMARK.json because one
              pass exceeds the per-run time limit.

Passes repeat while the next one is expected to end within --seconds (at
least three, or one for verify_all).  With --trace 0 the last stdout line
reports the end-to-end metrics of the passes:

  setup_s             median over passes of process spawn to first timed call
                      (interpreter start, import, input generation)
  wall_s              median over passes of the summed operation latencies
  op_gmean_ms         geometric mean and 99th percentile over the operations
  op_p99_ms           of a pass (in-domain eval requests, or run_suite calls)
                      of each operation's median latency over passes; the
                      geometric mean stands in for the median, which over
                      the 11 unequal suite calls of identities jumps from
                      one suite to another as their order changes by seed
  peak_rss_mb         median over passes of the peak resident set
  min_margin_decades  min over threshold checks (suite residual and gap
                      records, in-domain requests) of log10(threshold/value),
                      or log10(value/threshold) for singular-value gaps
  fail_ratio          suite records that did not pass and requests not
                      answered cleanly, over all attempted

Times are in reference-machine seconds.  The speed of a shared host drifts
by 20-30% over minutes, which moves raw times of the same code by more than
any useful regression bound.  So each pass also times a fixed kernel that
does not use thetacoble (worker.reference_kernel) between operations, and
every time of the pass is scaled by REFERENCE_KERNEL_S over the kernel's
median time in that pass.  A change to the program moves the scaled times
as it moves raw ones; the pass line prints raw pass and kernel times.

With --trace 1, passes alternate untraced and traced (at least one each); the
last line reports the per-layer metrics of tracer.py, medians over traced
passes, plus trace_overhead_s, the traced minus the untraced median wall_s.

The command exits 1 after printing its result when a result fails the
correctness gate (see workloads.py), and 2 without a result when it cannot
run at all, e.g. when src/thetacoble is missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_units

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("identities", "replay", "verify_all")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_gmean_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "min_margin_decades": "decades",
    "fail_ratio": "ratio",
}

# Median time of worker.reference_kernel on the reference machine (2-vCPU
# Xeon VM, Python 3.11, numpy 2.4).  Every reported time is scaled by
# REFERENCE_KERNEL_S / (the kernel's median time within the same pass).
REFERENCE_KERNEL_S = 0.018

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def build() -> None:
    """Byte-compile the package and the benchmark so every pass imports alike."""
    if not (ROOT / "src" / "thetacoble" / "__init__.py").is_file():
        raise BenchError(f"no thetacoble package under {ROOT / 'src'}")
    for path in (ROOT / "src", BENCH):
        if not compileall.compile_dir(str(path), quiet=1):
            raise BenchError(f"byte-compiling {path} failed")


def run_pass(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """One fresh worker process; returns its result plus setup_s."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), "1" if trace else "0"]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=dict(os.environ, **PINNED_ENV),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_call"] - spawned
    result["duration"] = time.monotonic() - spawned
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Passes until the next one would overrun --seconds.  With trace, passes
    alternate untraced and traced, starting untraced."""
    minimum = 2 if trace else (1 if workload == "verify_all" else 3)
    limit = 900.0 if workload == "verify_all" else 170.0
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        remaining = limit - (time.monotonic() - start)
        result = run_pass(workload, seed, traced, max(remaining, 10.0))
        result["traced"] = traced
        passes.append(result)
        elapsed = time.monotonic() - start
        if len(passes) >= minimum and elapsed + result["duration"] > seconds:
            return passes


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed(p: dict) -> float:
    """Factor that turns this pass's seconds into reference-machine seconds."""
    return REFERENCE_KERNEL_S / p["kernel_s"]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    # latency of operation i: the median over passes, which all run the same ops
    per_op = [
        statistics.median(ops)
        for ops in zip(*([t * speed(p) for t in p["latencies"]] for p in passes))
    ]
    margins = [m for p in passes for m in p["margins"]]
    return {
        "setup_s": statistics.median(p["setup_s"] * speed(p) for p in passes),
        "wall_s": statistics.median(p["wall_s"] * speed(p) for p in passes),
        "op_gmean_ms": 1e3 * statistics.geometric_mean(per_op),
        "op_p99_ms": 1e3 * percentile(per_op, 99),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "min_margin_decades": min(margins),
        "fail_ratio": sum(p["unclean"] for p in passes) / sum(p["attempted"] for p in passes),
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {
        key: statistics.median(p["layers"][key] for p in traced) for key in traced[0]["layers"]
    }
    out["trace_overhead_s"] = statistics.median(
        p["wall_s"] * speed(p) for p in traced
    ) - statistics.median(p["wall_s"] * speed(p) for p in plain)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        build()
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    units = metric_units() if args.trace else END_TO_END
    values = per_layer(passes) if args.trace else end_to_end(passes)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    n_ops = len(passes[0]["latencies"])
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} ops_per_pass={n_ops}")
    print("  pass wall_s/kernel_ms: " + " ".join(
        f"{p['wall_s']:.3f}/{1e3 * p['kernel_s']:.1f}{'(traced)' if p['traced'] else ''}"
        for p in passes
    ))
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    for msg in problems[:20]:
        print(f"  FAIL {msg}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
