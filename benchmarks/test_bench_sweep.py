"""Bench: the persistent-pool sweep beats serial and changes no result.

The small Fig. 4 grid (12 independent cells) runs serially in-process,
then through :func:`~repro.harness.sweep.run_sweep` at 2 and 4 workers,
in three rounds.  Every parallel run must hand back the serial run's
snapshots byte for byte.  A round's speedup is its serial time over its
parallel time, so drift of the box between rounds cancels; the median
over the rounds of the better worker count must reach the floor for the
CPUs the box has: >= 1.3x at 2-3 CPUs, >= 2.0x at 4 or more.  On one CPU
there is no parallelism to measure, so the floor becomes a ceiling on
the pool's overhead: no worker count may take more than 3x the serial
time.  Nothing is written to disk; the numbers are printed.
"""

import os
import statistics
import time

from repro.harness.sweep import fig4_grid, run_sweep

JOBS = (2, 4)
ROUNDS = 3


def _timed_sweep(cells, jobs):
    t0 = time.perf_counter()
    results = run_sweep(cells, jobs=jobs)
    return time.perf_counter() - t0, [r.metrics_json for r in results]


def _rounds(cells):
    """``[(serial_s, {jobs: parallel_s})]`` per round; every parallel
    result is checked against the first serial one."""
    reference = None
    rounds = []
    for _ in range(ROUNDS):
        serial_s, snapshots = _timed_sweep(cells, 1)
        reference = reference or snapshots
        assert snapshots == reference, "serial runs disagree"
        parallel = {}
        for jobs in JOBS:
            seconds, snapshots = _timed_sweep(cells, jobs)
            # A speedup that changes results is a determinism bug.
            assert snapshots == reference, f"jobs={jobs} changed a result"
            parallel[jobs] = seconds
        rounds.append((serial_s, parallel))
    return rounds


def test_bench_sweep_speedup(benchmark):
    cells = fig4_grid()
    rounds = benchmark.pedantic(_rounds, args=(cells,), rounds=1,
                                iterations=1)
    cpus = os.cpu_count() or 1
    speedup = {jobs: statistics.median(s / p[jobs] for s, p in rounds)
               for jobs in JOBS}
    print(f"\nsweep: {len(cells)} cells, {cpus} CPU(s), serial "
          + " / ".join(f"{s:.2f}s" for s, _ in rounds))
    for jobs in JOBS:
        print(f"  jobs={jobs}: "
              + " / ".join(f"{p[jobs]:.2f}s" for _, p in rounds)
              + f" (median speedup {speedup[jobs]:.2f}x)")
    best = max(speedup.values())
    if cpus >= 4:
        assert best >= 2.0, f"best parallel speedup {best:.2f}x < 2.0x"
    elif cpus >= 2:
        assert best >= 1.3, f"best parallel speedup {best:.2f}x < 1.3x"
    else:
        for jobs, x in speedup.items():
            assert x >= 1 / 3.0, (
                f"jobs={jobs} ran at {x:.2f}x serial speed — pool overhead "
                "blew up")
