#!/usr/bin/env python
"""Profile the simulator's hot path (the optimisation workflow of the
scientific-Python guides: measure before touching anything).

Runs one of the benchmark's IOR shapes under cProfile and prints the top
functions by cumulative or internal time:

* ``strided`` (default) — `strided_hot`: 16 clients x N strided 64 KiB
  writes on one stripe, seqdlm; N = 320 in `bench/`;
* ``segmented`` — `segmented_stream`: 16 clients x N segmented 4 KiB
  writes on 4 stripes, then each client reads another client's segment
  cold; N = 3072 in `bench/`;
* ``traffic`` — `mixed_rw_open`: open-loop Poisson arrivals at 40k/s,
  half reads, 4 files, 8 clients, 2 servers, every RPC on the retry path;
  N is the mean number of requests per client (the arrival window is
  8N/40000 s), N = 2000 in `bench/`.

First it prints the scaling figure that matters for the lock table: host
microseconds per write at 20 and at N writes per client, unprofiled.
With a lock table whose cost does not grow with its size the two are
within a small factor of each other; before the indexed table
(`repro.dlm.server.LockTable`) they were 6x apart on `strided`, all of
it linear scans of the granted locks in `dlm.server` and of the grant
cache in `dlm.client`.  What is left at N = 320 is the locks that
genuinely overlap each request (about 190 CANCELING [s, EOF) locks
waiting for their flush), then the `sim` kernel, `net.rpc` and the
extent map's interval work.

``fig17`` is not a benchmark shape: it runs one Fig. 17 cell (seqdlm,
16 clients taking turns writing 64 KiB at offset 0 of one stripe under
NBW, ``--rounds`` writes each), unprofiled, and prints one line: host
seconds, simulated milliseconds, the lock-table maximum and the kernel
events.  Host time per round grows with the rounds there (ROADMAP 16a);
the other three figures are deterministic.

``failover`` is not profiled either: it runs `failover_validated`'s call
once (16 clients x 64 slot writes, the sequencer killed at 32 ms, the
online validator on) and prints host seconds, the validator's
transitions and how many of them ran the full check
(`LockValidator.full_checks`: the base case of the per-transition
induction, once per resource and crash epoch on a clean run).

``--events`` replaces the profile with a count: every kernel event the
run processes, keyed by event class plus the callback it runs or the
process it resumes, divided by the number of client reads and writes.
That is the model-side cost of an op, independent of the host; the
totals equal the run's `sim.events`.

    python scripts/profile_hotpath.py [--shape segmented|traffic]
                                      [--writes N] [--sort tottime]
                                      [--events]
    python scripts/profile_hotpath.py --shape fig17 [--rounds R]
    python scripts/profile_hotpath.py --shape failover
"""

import argparse
import cProfile
import pstats
import re
import sys
import time
from collections import Counter


#: `mixed_rw_open`'s offered load and client count (`bench/workloads.py`).
TRAFFIC_RATE = 40000.0
TRAFFIC_CLIENTS = 8


def workload(writes: int, shape: str = "strided"):
    from repro.pfs import ClusterConfig
    from repro.traffic import TrafficConfig, run_traffic
    from repro.workloads import IorConfig, run_ior

    if shape == "traffic":
        return run_traffic(TrafficConfig(
            dlm="seqdlm", seed=101, arrival="poisson", rate=TRAFFIC_RATE,
            duration=writes * TRAFFIC_CLIENTS / TRAFFIC_RATE,
            read_fraction=0.5, num_files=4, num_clients=TRAFFIC_CLIENTS,
            num_servers=2, users=10000, xfer=16 * 1024))
    if shape == "segmented":
        return run_ior(IorConfig(
            pattern="n1-segmented", clients=16, writes_per_client=writes,
            xfer=4096, stripes=4, read_phase=True,
            cluster=ClusterConfig(dlm="seqdlm", num_data_servers=4,
                                  content_mode="checksum")))
    return run_ior(IorConfig(
        pattern="n1-strided", clients=16, writes_per_client=writes,
        xfer=64 * 1024, stripes=1,
        cluster=ClusterConfig(dlm="seqdlm", content_mode="off")))


def print_fig17(rounds: int) -> None:
    from repro.dlm.types import LockMode
    from repro.harness.experiments import fig17_cell

    t0 = time.perf_counter()
    cluster, total = fig17_cell(LockMode.NBW, 64 * 1024, 16, rounds)
    host = time.perf_counter() - t0
    table_max = max(ls.lock_table_max for ls in cluster.lock_servers)
    print(f"fig17 NBW 64K, 16 clients x {rounds} rounds: {host:.2f} s host, "
          f"{total * 1e3:.1f} sim ms, lock-table max {table_max}, "
          f"{cluster.sim.events_processed} events")


def print_failover() -> None:
    from repro.workloads import SequencerKillConfig, run_sequencer_kill

    config = SequencerKillConfig(dlm="seqdlm", seed=101, clients=16,
                                 writes_per_client=64, servers=2,
                                 kill_at=0.032)
    run_sequencer_kill(SequencerKillConfig(
        dlm="seqdlm", seed=101, clients=4, writes_per_client=16, servers=2,
        kill_at=0.006))  # imports and first-call caches
    t0 = time.perf_counter()
    result = run_sequencer_kill(config)
    host = time.perf_counter() - t0
    validators = result.cluster.validators
    print(f"failover_validated, 16 clients x 64 writes: {host:.2f} s host, "
          f"{sum(v.checks for v in validators)} validated transitions, "
          f"{sum(v.full_checks for v in validators)} full checks")


def _name(proc) -> str:
    """A process name with node and client indices folded together."""
    return re.sub(r"\d+", "#", proc.name)


def event_kind(entry) -> str:
    """Event class plus the callback it runs (or the process it starts,
    resumes or completes) for one schedule entry."""
    from repro.sim.core import Process

    ev = entry[3]
    if ev is None:
        return f"delay -> {_name(entry[4])}"
    cls = type(ev).__name__
    if isinstance(ev, Process):
        return f"{cls} {_name(ev)} done"
    if not ev.callbacks:
        return f"{cls} (no callback)"
    callback = ev.callbacks[0]
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, Process):
        return f"{cls} -> {_name(owner)}"
    return f"{cls} {getattr(callback, '__qualname__', repr(callback))}"


def count_events(run):
    """Run ``run()`` with the kernel stepping one event at a time, and
    return its result with a Counter of the event kinds it processed."""
    from repro.sim.core import SimulationError, Simulator

    kinds: Counter = Counter()
    fast = Simulator.run_until_event

    def stepping(sim, event, max_events=None):
        while not event._processed:
            if not sim._heap:
                raise SimulationError("deadlock: event can never trigger")
            kinds[event_kind(sim._heap[0])] += 1
            sim.step()

    Simulator.run_until_event = stepping
    try:
        result = run()
    finally:
        Simulator.run_until_event = fast
    return result, kinds


def client_ops(result) -> int:
    """Client reads plus writes the run completed."""
    metrics = result.metrics["metrics"]
    return (metrics["pfs.client.writes"]["value"]
            + metrics["pfs.client.reads"]["value"])


def print_events(writes: int, shape: str) -> None:
    result, kinds = count_events(lambda: workload(writes, shape))
    metrics = result.metrics["metrics"]
    ops = client_ops(result)
    total = sum(kinds.values())
    unit = "requests" if shape == "traffic" else "writes"
    print(f"{shape}, {writes} {unit}/client: {total} events for {ops} "
          f"ops, {total / ops:.2f} per op "
          f"(sim.events {metrics['sim.events']['value']})\n")
    print(f"{'events':>9} {'per op':>7}  kind")
    for kind, n in kinds.most_common():
        print(f"{n:9d} {n / ops:7.3f}  {kind}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--shape", default="strided",
                        choices=("strided", "segmented", "traffic",
                                 "fig17", "failover"),
                        help="which benchmark shape to run")
    parser.add_argument("--writes", type=int, default=320,
                        help="writes per client (default 320, the "
                             "benchmark's strided_hot); for traffic, mean "
                             "requests per client")
    parser.add_argument("--rounds", type=int, default=100,
                        help="writes per client of the fig17 shape")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"),
                        help="pstats sort key")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--events", action="store_true",
                        help="count kernel events per op by kind instead "
                             "of profiling")
    args = parser.parse_args()

    if args.shape == "fig17":
        print_fig17(args.rounds)
        return 0
    if args.shape == "failover":
        print_failover()
        return 0
    if args.events:
        print_events(args.writes, args.shape)
        return 0

    workload(8, args.shape)  # imports and first-call caches are not the measurement
    traffic = args.shape == "traffic"
    for writes in (20, args.writes):
        t0 = time.perf_counter()
        result = workload(writes, args.shape)
        host = time.perf_counter() - t0
        if traffic:
            print(f"{writes:4d} requests/client: {host:6.2f} s host, "
                  f"{host / client_ops(result) * 1e6:6.0f} us per request")
        else:
            print(f"{writes:4d} writes/client: {host:6.2f} s host, "
                  f"{host / (16 * writes) * 1e6:6.0f} us per write")
    print()

    profiler = cProfile.Profile()
    profiler.enable()
    result = workload(args.writes, args.shape)
    profiler.disable()

    if traffic:
        print(f"simulated: {result.completed} requests, goodput "
              f"{result.goodput / 1e3:.1f} kops/s "
              f"(makespan {result.makespan * 1e3:.1f} ms)\n")
    else:
        print(f"simulated: {result.bytes_written / 2**20:.0f} MB written, "
              f"bandwidth {result.bandwidth / 1e9:.2f} GB/s "
              f"(simulated time {result.total_time * 1e3:.1f} ms)\n")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
