"""Parallel experiment sweeps: fan independent cells across a persistent pool.

A paper-scale figure is a *grid* of independent simulations (pattern x
transfer size x DLM x seed).  Each cell builds its own
:class:`~repro.sim.core.Simulator`, so cells share nothing and the grid
is embarrassingly parallel.  The sweep layer preserves two properties the
rest of the repo depends on:

* **Order**: results come back in cell order regardless of worker
  scheduling (``Pool.imap`` semantics — ordered completion).
* **Byte-identity**: a cell's :class:`MetricsSnapshot` JSON is the same
  whether the cell ran in-process (``jobs=1``), in a worker, chunked next
  to other cells, or through a reused :class:`SweepPool` — enforced by
  ``tests/integration/test_determinism.py::test_sweep_parallel_matches_serial_golden``
  against digests captured on the seed kernel.

Three design points keep the parallel path from losing its win to
fan-out overhead (the failure mode of the first-generation runner, which
paid a fresh pool + one-task-per-cell pickling + full-object result
transfer and measured **0.84x vs serial**):

* **Persistent workers** — :class:`SweepPool` forks its workers once and
  reuses them across ``run``/``imap`` calls; ``run_sweep`` spawns at most
  one pool per call (never one per cell batch).  ``maxtasksperchild``
  is an explicit hygiene knob (0 = workers live for the pool lifetime).
* **Chunked dispatch** — cells are grouped into adaptive chunks
  (:func:`adaptive_chunksize`, derived from ``len(cells) / jobs`` and
  overridable via :class:`SweepConfig`), so dispatch/pickle overhead is
  paid per chunk, not per cell.
* **Cheap transfer** — the invariant field prefix shared by every cell
  is shipped once per chunk as canonical JSON bytes and memoized in a
  per-worker warm cache; each cell crosses the boundary as only its
  *delta* from that base.  Results return as flat primitive tuples whose
  metrics payload is the already byte-stable ``MetricsSnapshot`` JSON as
  UTF-8 bytes — no pickled object graphs in either direction.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro._compat import DATACLASS_KW
from repro.config import DictConfigMixin

__all__ = [
    "SweepCell",
    "SweepConfig",
    "SweepPool",
    "SweepResult",
    "adaptive_chunksize",
    "dlm_seed_grid",
    "fig4_grid",
    "iter_sweep",
    "plan_chunks",
    "run_sweep",
]

KB = 1024


@dataclass(frozen=True, **DATACLASS_KW)
class SweepCell:
    """One IOR point of a sweep grid — plain picklable primitives only."""

    dlm: str = "seqdlm"
    seed: int = 0
    pattern: str = "n1-strided"
    clients: int = 16
    writes_per_client: int = 128
    xfer: int = 64 * KB
    stripes: int = 1
    num_data_servers: int = 1


@dataclass(frozen=True, **DATACLASS_KW)
class SweepConfig(DictConfigMixin):
    """How a sweep executes (the cell grid says *what* runs).

    ``jobs`` is the worker-process count; 1 runs serially in-process (the
    reference path the parallel path must match byte-for-byte).
    ``chunksize`` is the number of cells dispatched per task; 0 derives it
    adaptively from ``len(cells) / jobs`` (see :func:`adaptive_chunksize`),
    targeting ``chunks_per_worker`` chunks per worker so stragglers can
    still rebalance.  ``maxtasksperchild`` recycles a worker after that
    many chunks (0 = workers persist for the pool's lifetime).

    Round-trips through ``to_dict``/``from_dict`` like every other public
    config, so a sweep's execution shape is storable next to its grid.
    """

    jobs: int = 1
    chunksize: int = 0
    chunks_per_worker: int = 2
    maxtasksperchild: int = 0

    def __post_init__(self) -> None:
        if self.jobs <= 0:
            raise ValueError(
                f"SweepConfig.jobs must be >= 1, got {self.jobs} "
                "(pass jobs=None to run_sweep/SweepPool for one worker per CPU)"
            )
        if self.chunksize < 0:
            raise ValueError(f"SweepConfig.chunksize must be >= 0, got {self.chunksize}")
        if self.chunks_per_worker < 1:
            raise ValueError(
                f"SweepConfig.chunks_per_worker must be >= 1, got {self.chunks_per_worker}"
            )
        if self.maxtasksperchild < 0:
            raise ValueError(
                f"SweepConfig.maxtasksperchild must be >= 0, got {self.maxtasksperchild}"
            )


@dataclass(**DATACLASS_KW)
class SweepResult:
    cell: SweepCell
    bandwidth: float
    pio_time: float
    f_time: float
    sim_time: float
    events: int
    #: Full MetricsSnapshot serialized to canonical JSON — the byte string
    #: the determinism goldens digest.
    metrics_json: str


def adaptive_chunksize(n_cells: int, jobs: int, chunks_per_worker: int = 2) -> int:
    """Cells per dispatched chunk: ``ceil(n_cells / (jobs * chunks_per_worker))``.

    Large enough to amortize dispatch overhead, small enough that each
    worker sees ~``chunks_per_worker`` chunks and a slow chunk does not
    serialize the tail of the sweep.
    """
    if n_cells <= 0:
        return 1
    return max(1, math.ceil(n_cells / (max(1, jobs) * max(1, chunks_per_worker))))


def plan_chunks(n_cells: int, config: SweepConfig) -> Tuple[int, int]:
    """The ``(chunksize, chunk count)`` the dispatcher will use for a grid."""
    if n_cells <= 0:
        return (0, 0)
    size = config.chunksize or adaptive_chunksize(n_cells, config.jobs, config.chunks_per_worker)
    return (size, math.ceil(n_cells / size))


# ----------------------------------------------------------- cell transfer
_CELL_FIELD_NAMES = tuple(f.name for f in fields(SweepCell))


def _encode_cells(
    cells: List[SweepCell],
) -> Tuple[bytes, List[Tuple[Tuple[str, object], ...]]]:
    """Split a grid into an invariant base + per-cell deltas.

    The base — every field whose value is identical across the whole grid
    (typically the cluster/workload prefix: clients, writes, servers) —
    is serialized once as canonical JSON bytes; each cell then ships only
    its ``(field, value)`` pairs that differ.  Workers memoize the decoded
    base by its bytes, so repeated chunks (and repeated sweeps through a
    persistent :class:`SweepPool`) decode it once.
    """
    first = cells[0]
    varying = [
        name
        for name in _CELL_FIELD_NAMES
        if any(getattr(c, name) != getattr(first, name) for c in cells)
    ]
    base = {name: getattr(first, name) for name in _CELL_FIELD_NAMES if name not in varying}
    base_bytes = json.dumps(base, sort_keys=True, separators=(",", ":")).encode("utf-8")
    deltas = [tuple((name, getattr(c, name)) for name in varying) for c in cells]
    return base_bytes, deltas


#: Per-worker warm cache: canonical base bytes -> decoded prototype cell.
_WORKER_CELL_CACHE: Dict[bytes, SweepCell] = {}


def _base_cell(base_bytes: bytes) -> SweepCell:
    cell = _WORKER_CELL_CACHE.get(base_bytes)
    if cell is None:
        cell = SweepCell(**json.loads(base_bytes.decode("utf-8")))
        _WORKER_CELL_CACHE[base_bytes] = cell
    return cell


def _run_cell_raw(cell: SweepCell) -> tuple:
    # Imports live here so a forked/spawned worker resolves them itself
    # and the module import stays cheap.
    from repro.metrics import MetricsSnapshot
    from repro.pfs import ClusterConfig
    from repro.workloads.ior import IorConfig, run_ior

    r = run_ior(
        IorConfig(
            pattern=cell.pattern,
            clients=cell.clients,
            writes_per_client=cell.writes_per_client,
            xfer=cell.xfer,
            stripes=cell.stripes,
            cluster=ClusterConfig(
                dlm=cell.dlm,
                num_data_servers=cell.num_data_servers,
                content_mode="off",
                seed=cell.seed,
            ),
        )
    )
    snap = MetricsSnapshot.from_dict(r.metrics)
    return (
        r.bandwidth,
        r.pio_time,
        r.f_time,
        snap.sim_time,
        int(snap.get("sim.events")),
        snap.to_json().encode("utf-8"),
    )


def _run_chunk(task: tuple) -> List[tuple]:
    """Worker entry point: one chunk in, one list of flat result rows out."""
    base_bytes, deltas = task
    base = _base_cell(base_bytes)
    return [_run_cell_raw(replace(base, **dict(d)) if d else base) for d in deltas]


def _result(cell: SweepCell, raw: tuple) -> SweepResult:
    bandwidth, pio_time, f_time, sim_time, events, metrics = raw
    return SweepResult(
        cell=cell,
        bandwidth=bandwidth,
        pio_time=pio_time,
        f_time=f_time,
        sim_time=sim_time,
        events=events,
        metrics_json=metrics.decode("utf-8"),
    )


def _run_cell(cell: SweepCell) -> SweepResult:
    """The serial reference path: run one cell in-process, no pickling."""
    return _result(cell, _run_cell_raw(cell))


def _resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is None:
        return os.cpu_count() or 1
    if jobs <= 0:
        raise ValueError(f"jobs must be >= 1, got {jobs} (pass jobs=None for one worker per CPU)")
    return jobs


# ------------------------------------------------------------ the pool
class SweepPool:
    """A persistent worker pool, reusable across repeated sweeps.

    ::

        with SweepPool(jobs=4) as pool:
            first = pool.run(fig4_grid())
            again = pool.run(fig4_grid(scale="paper"))  # same workers

    Workers are forked once (on first use) and reused by every
    ``run``/``imap`` call until :meth:`close`; each worker keeps a warm
    cache of decoded base cells, so repeated sweeps over the same grid
    shape ship only per-cell deltas.  ``SweepPool(jobs=1)`` degrades to
    the serial in-process reference path.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        config: Optional[SweepConfig] = None,
    ) -> None:
        if config is None:
            config = SweepConfig(jobs=_resolve_jobs(jobs))
        elif jobs is not None and jobs != config.jobs:
            raise ValueError(f"conflicting worker counts: jobs={jobs} vs config.jobs={config.jobs}")
        self.config = config
        self._pool = None

    @property
    def jobs(self) -> int:
        return self.config.jobs

    def _ensure(self):
        if self._pool is None:
            import multiprocessing

            self._pool = multiprocessing.Pool(
                processes=self.config.jobs,
                maxtasksperchild=self.config.maxtasksperchild or None,
            )
        return self._pool

    def imap(self, cells: Iterable[SweepCell]) -> Iterator[SweepResult]:
        """Yield each cell's result **in cell order** as chunks complete.

        ``Pool.imap`` (not ``imap_unordered``) keeps completion order
        deterministic, so a consumer can stream progress without ever
        reordering output between runs.
        """
        cells = list(cells)
        if not cells:
            return
        if self.config.jobs == 1 or len(cells) == 1:
            for cell in cells:
                yield _run_cell(cell)
            return
        chunksize, _ = plan_chunks(len(cells), self.config)
        base_bytes, deltas = _encode_cells(cells)
        tasks = [
            (base_bytes, tuple(deltas[i : i + chunksize]))
            for i in range(0, len(deltas), chunksize)
        ]
        pool = self._ensure()
        index = 0
        for chunk in pool.imap(_run_chunk, tasks):
            for raw in chunk:
                yield _result(cells[index], raw)
                index += 1

    def run(self, cells: Iterable[SweepCell]) -> List[SweepResult]:
        """Run every cell and return results in cell order."""
        return list(self.imap(cells))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ------------------------------------------------------------ entry points
def iter_sweep(
    cells: Iterable[SweepCell],
    jobs: Optional[int] = 1,
    chunksize: Optional[int] = None,
    config: Optional[SweepConfig] = None,
    pool: Optional[SweepPool] = None,
) -> Iterator[SweepResult]:
    """Ordered-completion iterator over a sweep (``imap`` semantics).

    Yields each cell's :class:`SweepResult` in cell order as soon as its
    chunk completes — the streaming interface ``repro sweep`` uses to
    print progress deterministically.  Pass an existing :class:`SweepPool`
    to reuse warm workers across calls; otherwise a pool is created for
    this sweep and torn down when the iterator is exhausted or closed.

    ``jobs=None`` means one worker per CPU; ``jobs <= 0`` raises
    ``ValueError`` (eagerly, not at first iteration).
    """
    cells = list(cells)
    if pool is not None:
        return pool.imap(cells)
    if config is None:
        config = SweepConfig(jobs=_resolve_jobs(jobs), chunksize=chunksize or 0)
    # Never fork more workers than there are chunks to hand them.
    _, n_chunks = plan_chunks(len(cells), config)
    effective = max(1, min(config.jobs, n_chunks))
    if effective != config.jobs:
        config = replace(config, jobs=effective)
    return _iter_owned(config, cells)


def _iter_owned(config: SweepConfig, cells: List[SweepCell]) -> Iterator[SweepResult]:
    with SweepPool(config=config) as pool:
        yield from pool.imap(cells)


def run_sweep(
    cells: Iterable[SweepCell],
    jobs: Optional[int] = 1,
    chunksize: Optional[int] = None,
    config: Optional[SweepConfig] = None,
    pool: Optional[SweepPool] = None,
) -> List[SweepResult]:
    """Run every cell; fan across worker processes when ``jobs > 1``.

    ``jobs=1`` runs serially in-process (no pool, no pickling) — the
    reference path the parallel path must match byte-for-byte.  Workers
    are spawned once per call; to reuse them across repeated sweeps,
    pass a :class:`SweepPool` (or call :meth:`SweepPool.run` directly).
    """
    return list(iter_sweep(cells, jobs=jobs, chunksize=chunksize, config=config, pool=pool))


# ------------------------------------------------------------ grid builders
def fig4_grid(scale: str = "small", dlm: str = "dlm-lustre") -> List[SweepCell]:
    """The Fig. 4 pattern-gap grid (pattern x transfer size) as cells."""
    from repro.harness.experiments import SCALES

    s = SCALES[scale]
    cells = []
    for xfer in (16 * KB, 64 * KB, 256 * KB, 1024 * KB):
        writes = max(8, (s["ior_writes"] * 64 * KB) // xfer)
        for pattern in ("n-n", "n1-segmented", "n1-strided"):
            cells.append(
                SweepCell(
                    dlm=dlm,
                    pattern=pattern,
                    clients=s["ior_clients"],
                    writes_per_client=writes,
                    xfer=xfer,
                    stripes=1,
                )
            )
    return cells


def dlm_seed_grid(dlms: Iterable[str], seeds: Iterable[int], **cell_kw) -> List[SweepCell]:
    """A DLM-comparison grid: every DLM at every seed, same workload."""
    return [SweepCell(dlm=d, seed=s, **cell_kw) for d in dlms for s in seeds]
