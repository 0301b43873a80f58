"""Parallel sweep runner.

A *sweep point* is one independent simulation: a workload name (resolved
through the suite registry), a processor count or explicit cpu placement,
and a machine configuration.  :func:`run_sweep` resolves points against the
on-disk cache, fans the misses out over a :class:`ProcessPoolExecutor`
(``NUMACHINE_JOBS`` workers; serial when 1), and returns
:class:`RunRecord` results in input order.

Workers receive the pickled :class:`MachineConfig` and rebuild machine and
workload from scratch, so every point is bit-identical to a serial run —
the engine's ``(time, priority, seq)`` ordering never crosses a process
boundary.
"""

from __future__ import annotations

import gc
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .cache import RunCache, point_key
from .record import RunRecord, collect_record


def default_jobs() -> int:
    """Worker-process count from ``NUMACHINE_JOBS`` (default 1: serial)."""
    try:
        jobs = int(os.environ.get("NUMACHINE_JOBS", "1"))
    except ValueError:
        return 1
    return max(1, jobs)


@dataclass
class SweepPoint:
    """One independent ``(workload, nprocs, config)`` simulation."""

    workload: str
    nprocs: int
    #: a MachineConfig; None means MachineConfig.prototype()
    config: object = None
    #: explicit cpu placement (e.g. spread across stations); empty means
    #: consecutive cpus 0..nprocs-1
    cpus: Tuple[int, ...] = field(default_factory=tuple)
    #: suite size to instantiate ("bench" or "test")
    size: str = "bench"
    #: label folded into the cache key for ablation variants
    variant: str = ""

    def resolved_config(self):
        if self.config is not None:
            return self.config
        from repro.system.config import MachineConfig

        return MachineConfig.prototype()

    def key(self) -> str:
        return point_key(
            self.resolved_config(),
            f"{self.workload}@{self.size}",
            self.nprocs,
            self.cpus,
            self.variant,
        )


def _run_point(point: SweepPoint) -> dict:
    """Worker entry: run one point, return the record as a JSON dict.

    Module-level so it pickles under the fork *and* spawn start methods.
    """
    from repro.system.machine import Machine
    from repro.workloads import make

    cfg = point.resolved_config()
    machine = Machine(cfg)
    workload = make(point.workload, point.size)
    if point.cpus:
        result = workload.run(machine, cpus=list(point.cpus))
    else:
        result = workload.run(machine, nprocs=point.nprocs)
    payload = collect_record(
        machine,
        workload=point.workload,
        nprocs=point.nprocs,
        parallel_time_ns=result.parallel_time_ns,
        cpus=point.cpus,
        variant=point.variant,
    ).to_json()
    # A machine's object graph is cyclic (components point back at their
    # station and engine), so only the cycle collector frees it.  Collect
    # it now: a sweep then holds one machine at a time, not however many
    # the collector's allocation thresholds let pile up, so its peak
    # memory does not swing with how much a run allocates.
    del machine, workload, result
    gc.collect()
    return payload


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> List[RunRecord]:
    """Run every point, reusing cached results; output order matches input.

    ``jobs=None`` reads ``NUMACHINE_JOBS``; ``cache=None`` builds the
    default :class:`RunCache` (honouring ``NUMACHINE_CACHE[_DIR]``).
    """
    if jobs is None:
        jobs = default_jobs()
    if cache is None:
        cache = RunCache()

    points = list(points)
    results: List[Optional[RunRecord]] = [None] * len(points)
    missing: List[int] = []
    keys: List[str] = []
    for i, point in enumerate(points):
        key = point.key()
        keys.append(key)
        hit = cache.get(key)
        if hit is not None:
            results[i] = hit
        else:
            missing.append(i)

    if missing:
        todo = [points[i] for i in missing]
        if jobs <= 1 or len(todo) == 1:
            fresh = [_run_point(p) for p in todo]
        else:
            with ProcessPoolExecutor(max_workers=min(jobs, len(todo))) as pool:
                fresh = list(pool.map(_run_point, todo))
        for i, payload in zip(missing, fresh):
            record = RunRecord.from_json(payload)
            cache.put(keys[i], record)
            results[i] = record

    return results  # type: ignore[return-value]
