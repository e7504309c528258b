"""Deterministic simulated-time metrics: counters, gauges, histograms.

The registry is the measurement instrument the paper had (§II-C, Table I
analysis): per-service OPS saturation, RTT counts, queue depths and wait
times — the quantities Equation (1)'s three terms are made of.  Every
primitive here is built for *exact* determinism:

* counters and gauges hold plain ints/floats driven only by the
  simulation (never wall clock);
* histograms use fixed HDR-style bins — each observation lands in a
  bucket computed with ``math.frexp`` (pure integer arithmetic on the
  float's exponent/mantissa), so percentiles are a deterministic
  function of the observation multiset, independent of platform libm;
* snapshots serialize with sorted keys, so two runs of the same
  (workload, config, seed) produce byte-identical JSON.

That byte-for-bit property is what the golden tests in
``tests/integration/test_determinism.py`` pin down.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "MetricsSnapshot"]


class Counter:
    """A monotonically non-decreasing event count."""

    __slots__ = ("name", "unit", "owner", "value")

    kind = "counter"

    def __init__(self, name: str, unit: str = "events", owner: str = ""):
        self.name = name
        self.unit = unit
        self.owner = owner
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_entry(self) -> Dict[str, Any]:
        return {"type": self.kind, "unit": self.unit, "owner": self.owner,
                "value": self.value}


class Gauge:
    """A point-in-time level plus its high-watermark."""

    __slots__ = ("name", "unit", "owner", "value", "max_value")

    kind = "gauge"

    def __init__(self, name: str, unit: str = "", owner: str = ""):
        self.name = name
        self.unit = unit
        self.owner = owner
        self.value: float = 0
        self.max_value: float = 0

    def set(self, value) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def to_entry(self) -> Dict[str, Any]:
        return {"type": self.kind, "unit": self.unit, "owner": self.owner,
                "value": self.value, "max": self.max_value}


#: Linear sub-buckets per power-of-two octave.  8 gives <= 6.25% relative
#: bucket width — comfortably finer than any tolerance the analysis
#: tests use, while keeping bucket maps tiny.
SUBBUCKETS = 8


def bucket_index(value: float) -> int:
    """HDR-style fixed bucket for ``value``.

    ``frexp`` decomposes ``value = m * 2**e`` with ``m`` in [0.5, 1);
    the bucket is the octave ``e`` refined into :data:`SUBBUCKETS`
    linear slices of the mantissa.  All arithmetic is exact, so the
    same value always lands in the same bucket on every platform.
    Non-positive values share the dedicated underflow bucket.
    """
    if value <= 0.0:
        return -(10 ** 6)  # underflow bucket, below every real bucket
    m, e = math.frexp(value)
    return e * SUBBUCKETS + int((m - 0.5) * 2 * SUBBUCKETS)


def bucket_upper_bound(index: int) -> float:
    """Largest value mapping to bucket ``index`` (its right edge)."""
    if index <= -(10 ** 6):
        return 0.0
    e, sub = divmod(index, SUBBUCKETS)
    return math.ldexp(0.5 + (sub + 1) / (2 * SUBBUCKETS), e)


class Histogram:
    """Fixed-bucket simulated-time histogram with exact det. percentiles.

    Alongside the bucket counts it tracks exact count/sum/min/max, so
    cheap aggregate checks (mean wait time, total pin time) need no
    bucket math at all.
    """

    __slots__ = ("name", "unit", "owner", "count", "sum", "min", "max",
                 "_buckets")

    kind = "histogram"

    def __init__(self, name: str, unit: str = "seconds", owner: str = ""):
        self.name = name
        self.unit = unit
        self.owner = owner
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        idx = bucket_index(value)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    def percentile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1]: the upper bound of the
        bucket holding the ``ceil(q * count)``-th observation."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen >= rank:
                return bucket_upper_bound(idx)
        return bucket_upper_bound(max(self._buckets))  # pragma: no cover

    def to_entry(self) -> Dict[str, Any]:
        return {"type": self.kind, "unit": self.unit, "owner": self.owner,
                "count": self.count, "sum": self.sum,
                "min": 0.0 if self.min is None else self.min,
                "max": 0.0 if self.max is None else self.max,
                "p50": self.percentile(0.50),
                "p95": self.percentile(0.95),
                "p99": self.percentile(0.99)}


class MetricsRegistry:
    """Name-keyed store of metrics; get-or-create on access.

    One registry serves a whole cluster (anchored at
    ``Simulator.metrics`` by :class:`~repro.pfs.filesystem.Cluster`);
    same-named metrics from different nodes share one instance, which
    is how all "dlm" services aggregate into one wait-time histogram.
    """

    def __init__(self):
        self._metrics: Dict[str, Any] = {}

    def _get(self, cls, name: str, unit: str, owner: str):
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = cls(name, unit, owner)
        elif not isinstance(m, cls):
            raise TypeError(f"metric {name!r} is a {m.kind}, "
                            f"not a {cls.kind}")
        return m

    def counter(self, name: str, unit: str = "events",
                owner: str = "") -> Counter:
        return self._get(Counter, name, unit, owner)

    def gauge(self, name: str, unit: str = "", owner: str = "") -> Gauge:
        return self._get(Gauge, name, unit, owner)

    def histogram(self, name: str, unit: str = "seconds",
                  owner: str = "") -> Histogram:
        return self._get(Histogram, name, unit, owner)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str):
        return self._metrics[name]

    def snapshot(self, sim_time: float = 0.0) -> "MetricsSnapshot":
        entries = {name: m.to_entry()
                   for name, m in sorted(self._metrics.items())}
        return MetricsSnapshot(sim_time=sim_time, metrics=entries)


class MetricsSnapshot:
    """A frozen, JSON-stable view of a registry at one simulated instant.

    Carries only simulation-derived values — no wall clock, no
    process-dependent ids — so ``to_json()`` of two identical runs is
    byte-identical (the golden-test contract).
    """

    def __init__(self, sim_time: float, metrics: Dict[str, Dict[str, Any]]):
        self.sim_time = sim_time
        self.metrics = metrics

    def to_dict(self) -> Dict[str, Any]:
        return {"sim_time": self.sim_time,
                "metrics": {k: dict(v)
                            for k, v in sorted(self.metrics.items())}}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent,
                          separators=(",", ":") if indent is None
                          else (",", ": "))

    # ------------------------------------------------------------- queries
    def value(self, name: str, field: str = "value"):
        """Scalar field of one metric (KeyError on unknown name)."""
        return self.metrics[name][field]

    def get(self, name: str, field: str = "value", default=0):
        entry = self.metrics.get(name)
        return default if entry is None else entry.get(field, default)

    def with_prefix(self, prefix: str) -> Dict[str, Dict[str, Any]]:
        return {k: v for k, v in self.metrics.items()
                if k.startswith(prefix)}

    def by_owner(self, owner: str) -> Dict[str, Dict[str, Any]]:
        return {k: v for k, v in self.metrics.items()
                if v.get("owner") == owner}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsSnapshot":
        """Rehydrate a snapshot from ``to_dict()`` output (e.g. a
        harness report's ``metrics`` field)."""
        return cls(sim_time=data["sim_time"], metrics=data["metrics"])

    def profile(self, elapsed: Optional[float] = None
                ) -> List[Tuple[str, float, float]]:
        """Services ranked by simulated busy time: a list of
        ``(name, busy_seconds, fraction_of_elapsed)``, busiest first.
        Feeds the ``repro profile`` view."""
        elapsed = self.sim_time if elapsed is None else elapsed
        rows = []
        for name, entry in self.metrics.items():
            if not name.endswith(".busy_time"):
                continue
            busy = entry.get("value", 0.0)
            frac = busy / elapsed if elapsed else 0.0
            rows.append((name[:-len(".busy_time")], busy, frac))
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows
