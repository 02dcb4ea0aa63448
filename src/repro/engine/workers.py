"""Worker-pool layer: run per-shard SGB-Any grouping in processes.

Shard tasks are ordinary :class:`~repro.core.sgb_any.SGBAnyGrouper` runs fed
with ``add_batch``; what crosses the process boundary is only the picklable
shard payload (a float64 array or tuple list) outbound and the exported
Union-Find forest inbound.  Pools are cached per worker count and reused
across calls — the executor services many small batches in a query workload,
and respawning processes per batch would dominate the runtime.

While the pool works on the shards, the parent process extracts the
halo-band edges (a spanning forest of each band's eps-components, from
:meth:`PointSet.components_within`) so the boundary stitching overlaps with
the shard grouping instead of following it.

When only one worker is available (or the pool cannot be created — e.g. a
sandbox forbids ``fork``) the same shard/merge pipeline runs serially in
process, and tiny payloads skip sharding entirely; both fallbacks produce
results identical to the parallel path.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.distance import Metric, resolve_metric
from repro.core.pointset import PointSet
from repro.core.result import GroupingResult
from repro.engine.merge import canonical_groups, merge_shard_forests
from repro.engine.partition import GridPartition, partition_pointset
from repro.engine.planner import plan_shards

__all__ = [
    "sgb_any_sharded",
    "get_worker_pool",
    "drop_worker_pool",
    "shutdown_worker_pools",
    "begin_shutdown",
    "pool_stats",
]

_POOLS: Dict[int, ProcessPoolExecutor] = {}

#: Set once interpreter shutdown begins: spawning a pool (or submitting to a
#: cached one) after ``atexit`` started tearing the process down raises
#: RuntimeError deep inside concurrent.futures, so late callers — a flushed
#: Database.close() in someone's atexit hook, a cached warm-start replay —
#: get the serial fallback instead.
_SHUTTING_DOWN = False


def get_worker_pool(workers: int) -> Optional[ProcessPoolExecutor]:
    """Return the cached pool for ``workers`` processes, creating it lazily.

    Shared by every sharded consumer (the SGB engine and the similarity-join
    subsystem) so one query workload never spawns two pools of the same size.
    Returns ``None`` when no pool can be created (serial fallback), and
    always ``None`` once interpreter shutdown has begun.
    """
    if _SHUTTING_DOWN:
        return None
    pool = _POOLS.get(workers)
    if pool is None:
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError):  # no fork/spawn available: serial fallback
            return None
        _POOLS[workers] = pool
    return pool


def drop_worker_pool(workers: int) -> None:
    """Discard (and shut down) the cached pool for ``workers`` processes.

    Callers drop a pool after a :class:`BrokenProcessPool` (or an OS refusal
    to spawn) so the next request starts from a clean slate.
    """
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_worker_pools() -> None:
    """Shut down every cached worker pool; safe to call at any time.

    Explicit calls leave the layer usable (the next ``get_worker_pool``
    simply builds a fresh pool); the ``atexit`` hook additionally flips the
    shutdown flag first so nothing respawns workers while the interpreter
    tears down.
    """
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


def begin_shutdown() -> None:
    """Enter the terminal shutting-down state and tear down every pool.

    After this, :func:`get_worker_pool` returns ``None`` forever, so any
    still-running query falls back to its serial path instead of respawning
    worker processes.  This is the drain the server's SIGTERM handler (and
    the ``atexit`` hook) runs — it is process-wide and irreversible, which
    is exactly right for a process that is about to exit and wrong for
    anything else (in-process test servers must not call it).
    """
    global _SHUTTING_DOWN
    _SHUTTING_DOWN = True
    shutdown_worker_pools()


def pool_stats() -> Dict[str, object]:
    """Observable pool-layer state (the server's ``/v1/stats`` surface)."""
    return {
        "pools": sorted(_POOLS),
        "shutting_down": _SHUTTING_DOWN,
    }


atexit.register(begin_shutdown)


def _group_shard(points: Any, eps: float, metric_value: str) -> Dict[int, int]:
    """Worker body: SGB-Any over one shard, returning the exported forest.

    Module-level (not a closure) so it pickles by reference under every
    multiprocessing start method.
    """
    from repro.core.sgb_any import SGBAnyGrouper

    grouper = SGBAnyGrouper(eps=eps, metric=metric_value)
    grouper.add_batch(points)
    return grouper.forest()


def _band_edges(
    partition: GridPartition, eps: float, metric: Metric
) -> Iterator[Tuple[int, int]]:
    """Global-index star edges spanning every halo band's components.

    A band's eps-components are subsets of the global ones, so joining each
    band point to its component's first member merges the shards exactly as
    the band's full pair edges would (computed in-process).
    """
    for band in partition.bands:
        if len(band.indices) < 2:
            continue
        band_ps = PointSet.from_any(band.points)
        indices = band.indices
        for i, label in enumerate(band_ps.components_within(eps, metric)):
            if label != i:
                yield indices[i], indices[label]


def _serial_grouping(ps: PointSet, eps: float, metric: Metric) -> GroupingResult:
    # Drive the grouper directly: going back through sgb_any_grouping would
    # re-resolve the SGB_WORKERS environment default and recurse into the
    # engine when the plan degraded to serial.
    from repro.core.sgb_any import SGBAnyGrouper

    grouper = SGBAnyGrouper(eps=eps, metric=metric)
    grouper.add_batch(ps)
    return grouper.finalize()


def sgb_any_sharded(
    points: "PointSet | Sequence[Sequence[float]]",
    eps: float,
    metric: "Metric | str" = Metric.L2,
    workers: "Optional[int | str]" = None,
    shards: Optional[int] = None,
) -> GroupingResult:
    """Run SGB-Any over grid shards, in worker processes when available.

    Result-identical to ``sgb_any_grouping(..., batch=True)`` — and to the
    scalar reference path — after the canonical relabelling both apply.
    ``shards`` overrides the planned shard count (used by tests to force the
    partition/merge pipeline regardless of worker availability).
    """
    ps = PointSet.from_any(points)
    metric = resolve_metric(metric)
    eps = PointSet._check_eps(eps)
    plan = plan_shards(len(ps), eps, workers)
    n_shards = shards if shards is not None else plan.shards
    if n_shards < 2:
        return _serial_grouping(ps, eps, metric)
    partition = partition_pointset(ps, eps, n_shards)
    if partition is None or len(partition.shards) < 2:
        return _serial_grouping(ps, eps, metric)

    pool = get_worker_pool(plan.workers) if plan.parallel and plan.workers > 1 else None
    forests: List[Dict[int, int]]
    if pool is not None:
        try:
            futures = [
                pool.submit(_group_shard, shard.points, eps, metric.value)
                for shard in partition.shards
            ]
            # Overlap: stitch the halo bands while the pool grinds the shards.
            edges = list(_band_edges(partition, eps, metric))
            forests = [future.result() for future in futures]
        except (BrokenProcessPool, OSError, RuntimeError):
            # Worker processes spawn lazily at submit(), so "no fork allowed"
            # surfaces here as an OSError (and a shutting-down interpreter as
            # RuntimeError), not at pool construction; a killed worker raises
            # BrokenProcessPool.  Drop the pool and recover serially rather
            # than failing the query.
            drop_worker_pool(plan.workers)
            return _serial_grouping(ps, eps, metric)
    else:
        edges = list(_band_edges(partition, eps, metric))
        forests = [
            _group_shard(shard.points, eps, metric.value)
            for shard in partition.shards
        ]

    uf = merge_shard_forests(
        len(ps),
        [shard.indices for shard in partition.shards],
        forests,
        edges,
    )
    return GroupingResult(
        groups=canonical_groups(uf), eliminated=[], points=ps.to_tuples()
    )
