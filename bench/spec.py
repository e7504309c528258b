"""What the benchmark measures: workloads, metrics, units, bounds.

`BENCHMARK.json` at the repo root declares the same names to the
driver; `bench/tests` keeps the two equal.  Nothing here imports
`repro`, so `run.py` (the parent process) stays a stdlib program.
"""

from __future__ import annotations

#: (name, why) — one line each; the long form is in bench/README.md.
WORKLOADS = (
    ("strided_hot",
     "closed loop, 16 clients x 320 N-1 strided 64 KiB writes on one "
     "stripe: 5120 lock requests on one resource, dlm.server dominates "
     "host time (paper Fig. 20)"),
    ("segmented_stream",
     "closed loop, 16 x 3072 N-1 segmented 4 KiB writes + cross-client "
     "cold reads, 4 stripes: 136 lock requests, so kernel, rpc/fabric "
     "and caches dominate; bypasses the lock table"),
    ("tile_vector",
     "closed loop, 4x4 overlapping tiles as 16 atomic write_vector "
     "calls of 2048 extents each: host time is dlm.extent interval "
     "algebra on multi-extent locks"),
    ("mixed_rw_open",
     "open loop, Poisson 40k req/s for 0.4 s, half reads, 4 files, "
     "8 clients, 2 servers: revoke/downgrade/cache-hit paths and the "
     "only latency distribution"),
    ("failover_validated",
     "closed loop, 16 clients x 64 slot writes with the sequencer "
     "killed mid-run: replication, leases, retry, byte oracle and the "
     "online validator (I1-I9) all on"),
)

#: Layers of host-time attribution; see layers.py for the file map.
LAYERS = (
    "sim", "net", "dlm.server", "dlm.client", "dlm.extent",
    "dlm.validator", "dlm.other", "pfs.client", "pfs.cache", "pfs.other",
    "storage", "metrics", "faults", "traffic", "workloads", "other",
)

#: End-to-end metrics every workload reports (untraced runs only):
#: (name, unit, better, regression bound as a share of the parent's
#: median).  `host_*`, `setup_s`, `peak_rss_mb` are host clock; `sim_*`
#: are simulated clock and bit-identical for one seed.  Each bound is at
#: least three times the widest spread between ten seeds (README.md).
END_TO_END = (
    ("host_s", "s", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("sim_total_ms", "sim_ms", "lower", 0.06),
    ("sim_write_gbs", "GB/s", "higher", 0.10),
    ("sim_goodput_kops", "kops/sim_s", "higher", 0.06),
    ("sim_op_mean_us", "sim_us", "lower", 0.25),
)

#: End-to-end metrics only some workloads have.  The driver's schema
#: wants every end-to-end metric from every workload and never 0, so
#: these ride in the traced output (0 where they do not apply).
WORKLOAD_E2E = (
    ("sim_read_gbs", "GB/s", "higher"),          # segmented_stream
    ("sim_sojourn_p50_ms", "sim_ms", "lower"),   # mixed_rw_open
    ("sim_sojourn_p99_ms", "sim_ms", "lower"),   # mixed_rw_open
    ("sim_mttr_ms", "sim_ms", "lower"),          # failover_validated
)

#: Host-side per-layer metrics derived from the cProfile pass.
HOST_LAYER = tuple(
    (f"host_self_s.{layer}", "s", "lower") for layer in LAYERS
) + (
    ("trace_overhead_x", "x", "lower"),
    ("sim.host_us_per_event", "us", "lower"),
    ("dlm.server.host_us_per_request", "us", "lower"),
    ("calls.dlm.extent", "count", "lower"),
    ("calls.dlm.validator.validate_resource", "count", "lower"),
    ("calls.net.fabric.send", "count", "lower"),
)

#: Simulated per-layer metrics read from `result.metrics` under the
#: catalogue names of docs/metrics.md; a trailing `.max`/`.p99` selects
#: that field.  `better` is the way an optimisation would move it;
#: plain work counters are "lower" (less work for the same result).
SIM_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.queue_max.max", "count", "lower"),
    ("fabric.messages_delivered", "count", "lower"),
    ("fabric.bytes_delivered", "bytes", "lower"),
    ("rpc.dlm.requests", "count", "lower"),
    ("rpc.dlm.saturation", "ratio", "lower"),
    ("rpc.dlm.wait_time.p99", "sim_s", "lower"),
    ("rpc.io.requests", "count", "lower"),
    ("rpc.io.saturation", "ratio", "lower"),
    ("rpc.io.wait_time.p99", "sim_s", "lower"),
    ("dlm.requests", "count", "lower"),
    ("dlm.grants", "count", "lower"),
    ("dlm.early_grants", "count", "higher"),
    ("dlm.early_revocations", "count", "higher"),
    ("dlm.revocations_sent", "count", "lower"),
    ("dlm.expansions", "count", "higher"),
    ("dlm.lock_table_size.max", "count", "lower"),
    ("dlm.waiter_queue_max.max", "count", "lower"),
    ("dlm.revoke_wait_time", "sim_s", "lower"),
    ("dlm.client.requests", "count", "lower"),
    ("dlm.client.cache_hits", "count", "higher"),
    ("dlm.client.cancels", "count", "lower"),
    ("dlm.client.lock_wait_time", "sim_s", "lower"),
    ("dlm.client.cancel_time", "sim_s", "lower"),
    ("dlm.client.flush_time", "sim_s", "lower"),
    ("dlm.client.request_retries", "count", "lower"),
    ("cache.client.read_hits", "count", "higher"),
    ("cache.client.read_misses", "count", "lower"),
    ("cache.client.invalidations", "count", "lower"),
    ("cache.client.bytes_flushed", "bytes", "lower"),
    ("cache.extent.entries.max", "count", "lower"),
    ("cache.extent.entries_cleaned", "count", "lower"),
    ("cache.extent.forced_syncs", "count", "lower"),
    ("pfs.client.flush_rpcs", "count", "lower"),
    ("pfs.client.io_time", "sim_s", "lower"),
    ("ds.write_rpcs", "count", "lower"),
    ("ds.flush_bytes", "bytes", "lower"),
    ("ds.disk.busy_time", "sim_s", "lower"),
    ("ds.disk.saturation", "ratio", "lower"),
    ("resilience.lock_request_retries", "count", "lower"),
    ("resilience.revoke_retransmits", "count", "lower"),
    ("faults.messages_seen", "count", "lower"),
    ("failover.detection_time", "sim_s", "lower"),
    ("failover.promotion_time", "sim_s", "lower"),
    ("failover.time_to_first_grant", "sim_s", "lower"),
    ("failover.replication_records", "count", "lower"),
    ("failover.locks_reasserted", "count", "lower"),
    ("failover.replication_lag.p99", "sim_s", "lower"),
    ("traffic.offered", "count", "higher"),
    ("traffic.completed", "count", "higher"),
    ("traffic.dropped_client", "count", "lower"),
    ("traffic.failed", "count", "lower"),
    ("traffic.client_queue_wait.p99", "sim_s", "lower"),
    ("traffic.service_time.p99", "sim_s", "lower"),
)

#: Useful outcomes per attempt, computed from the counters above.
RATIOS = (
    ("dlm.early_grant_ratio", "ratio", "higher"),
    ("dlm.client.cache_hit_ratio", "ratio", "higher"),
    ("cache.client.read_hit_ratio", "ratio", "higher"),
    ("net.msgs_per_op", "msgs/op", "lower"),
    ("ds.write_amplification", "ratio", "lower"),
)

PER_LAYER = HOST_LAYER + SIM_LAYER + RATIOS + WORKLOAD_E2E

WORKLOAD_NAMES = tuple(name for name, _why in WORKLOADS)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
