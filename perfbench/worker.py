"""One timed pass of a workload in a fresh process; run by run.py.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE

Prints one JSON object: the monotonic time of the first timed call (the
parent subtracts its spawn time to get set-up time), the summed operation
latencies, the median time of the reference kernel run between operations,
peak RSS, per-operation latencies, the gate tally and, when TRACE is 1, the
per-layer metrics.
"""

import contextlib
import json
import pathlib
import resource
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


_KERNEL_Q = np.random.default_rng(0).uniform(-3.0, 3.0, (1331, 3))
_KERNEL_M = np.array([[1.0, 0.2, 0.1], [0.2, 0.9, -0.1], [0.1, -0.1, 1.1]]) * (0.3 + 1.0j)


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array numpy work
    shaped like a theta lattice sum.  It calls nothing in thetacoble, so a
    change to the program cannot change it; only the machine's speed can."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(90000):
        acc += i * i
    for _ in range(90):
        expo = np.einsum("ni,ij,nj->n", _KERNEL_Q, _KERNEL_M, _KERNEL_Q)
        complex(np.exp(1j * np.pi * expo).sum())
    return time.perf_counter() - t0


RUNNERS = {
    "identities": workloads.run_identities,
    "replay": workloads.run_replay,
    "verify_all": workloads.run_verify_all,
}


def main() -> None:
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    run = RUNNERS[workload]
    inputs = workloads.replay_requests(seed) if workload == "replay" else seed
    clock = time.perf_counter
    out = workloads.Outcome()
    kernel = []

    with Tracer() if trace else contextlib.nullcontext() as tracer:
        first_call = time.monotonic()
        run(inputs, clock, out, lambda: kernel.append(reference_kernel()))
    result = {
        "first_call": first_call,
        "wall_s": sum(out.latencies) + sum(out.other_latencies),
        "kernel_s": statistics.median(kernel),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latencies": out.latencies,
        "attempted": out.attempted,
        "failed": out.failed,
        "unclean": out.unclean,
        "margins": out.margins,
        "problems": out.problems[:20],
        "layers": tracer.metrics() if tracer else None,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
