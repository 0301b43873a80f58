"""A structured snapshot of one finished simulation run.

Everything the figure/table benches read off a :class:`Machine` after a
workload completes, flattened into plain dicts and scalars so it can be
pickled across a process pool, JSON-round-tripped through the on-disk
cache, and compared for exact equality between runs (the determinism
regression tests rely on that).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

from ..sim.engine import ticks_to_ns


@dataclass
class RunRecord:
    """Results of one ``(workload, nprocs, config)`` simulation point."""

    workload: str
    nprocs: int
    #: explicit cpu placement, or () when consecutive cpus 0..nprocs-1 ran
    cpus: Tuple[int, ...] = ()
    #: free-form label distinguishing config variants in the cache key
    variant: str = ""
    #: coherence-protocol plug-in the machine ran (repro.protocol)
    protocol: str = "numachine"

    # ---- timing -------------------------------------------------------
    parallel_time_ns: float = 0.0
    time_ns: float = 0.0
    time_ticks: int = 0

    # ---- throughput meter (host-dependent; excluded from determinism
    # comparisons and from the cache key) -------------------------------
    events: int = 0
    wall_s: float = 0.0
    events_per_sec: float = 0.0

    # ---- aggregated statistics ---------------------------------------
    nc_stats: Dict[str, int] = field(default_factory=dict)
    memory_stats: Dict[str, int] = field(default_factory=dict)
    nc_hit_rate: Dict[str, float] = field(default_factory=dict)
    nc_combining_rate: float = 0.0
    false_remote_rate: float = 0.0
    special_reads: int = 0
    utilizations: Dict[str, float] = field(default_factory=dict)
    ring_delays: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        d = asdict(self)
        d["cpus"] = list(self.cpus)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "RunRecord":
        d = dict(d)
        d["cpus"] = tuple(d.get("cpus", ()))
        return cls(**d)

    def deterministic_view(self) -> dict:
        """Everything except the host-dependent wall-clock fields; two runs
        of the same point must agree on this exactly."""
        d = self.to_json()
        d.pop("wall_s", None)
        d.pop("events_per_sec", None)
        return d


def collect_record(
    machine,
    workload: str,
    nprocs: int,
    parallel_time_ns: float,
    cpus: Optional[Tuple[int, ...]] = None,
    variant: str = "",
) -> RunRecord:
    """Harvest a :class:`RunRecord` from a machine that just finished a run."""
    engine = machine.engine
    return RunRecord(
        workload=workload,
        nprocs=nprocs,
        cpus=tuple(cpus) if cpus else (),
        variant=variant,
        protocol=getattr(machine, "protocol_name", "numachine"),
        parallel_time_ns=parallel_time_ns,
        time_ns=ticks_to_ns(engine.now),
        time_ticks=engine.now,
        events=engine.events_run,
        wall_s=engine.wall_time_s,
        events_per_sec=engine.events_per_sec,
        nc_stats=machine.nc_stats(),
        memory_stats=machine.memory_stats(),
        nc_hit_rate=machine.nc_hit_rate(),
        nc_combining_rate=machine.nc_combining_rate(),
        false_remote_rate=machine.false_remote_rate(),
        special_reads=machine.special_read_count(),
        utilizations=machine.utilizations(),
        ring_delays=machine.ring_interface_delays(),
    )
