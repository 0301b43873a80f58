"""Shared-memory programming layer for workloads.

Workload *programs* are generators over :mod:`repro.cpu.ops`.  This module
provides the conveniences real SPLASH-2 code gets from its runtime:

* :class:`SharedArray` / :class:`SharedMatrix` — typed views over an
  allocated region, yielding word addresses;
* :class:`BarrierFactory` — numbered hardware barriers over a CPU set;
* :func:`spinlock_acquire` / :func:`spinlock_release` — test-and-set locks
  with spin-read backoff (generating the real coherence traffic locks cost);
* :func:`fetch_add` — atomic counters for task queues;
* :class:`Workload` — the interface every kernel/app implements, carrying
  the paper's Table 2 problem-size description.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..cpu.ops import AtomicRMW, Barrier, Read, Write
from ..system.machine import Machine


class SharedArray:
    """A 1-D array of 8-byte words in simulated shared memory.

    :meth:`read` hands out one shared ``Read`` op per word index, built on
    first use (ops are values, see :mod:`repro.cpu.ops`); an index not yet
    seen goes through ``Region.addr``, so an index outside the region
    raises ``IndexError`` on every call."""

    def __init__(self, machine: Machine, n: int, placement="round_robin",
                 name: Optional[str] = None) -> None:
        self.n = n
        self.word = machine.config.word_bytes
        self.region = machine.allocate(n * self.word, placement=placement, name=name)
        self._reads: Dict[int, Read] = {}

    def addr(self, i: int) -> int:
        return self.region.addr(i * self.word)

    def read(self, i: int) -> Read:
        op = self._reads.get(i)
        if op is None:
            op = self._reads[i] = Read(self.region.addr(i * self.word))
        return op

    def write(self, i: int, v) -> Write:
        return Write(self.region.addr(i * self.word), v)


class SharedMatrix:
    """A 2-D row-major matrix of words (used by LU, Ocean, FFT).

    :meth:`read` shares ``Read`` ops as :class:`SharedArray` does, keyed
    by the linear index the address uses, so a column past the row end
    names the same word (and op) as it does in :meth:`addr`."""

    def __init__(self, machine: Machine, rows: int, cols: int,
                 placement="round_robin", name: Optional[str] = None) -> None:
        self.rows = rows
        self.cols = cols
        self.word = machine.config.word_bytes
        self.region = machine.allocate(
            rows * cols * self.word, placement=placement, name=name
        )
        self._reads: Dict[int, Read] = {}

    def addr(self, r: int, c: int) -> int:
        return self.region.addr((r * self.cols + c) * self.word)

    def read(self, r: int, c: int) -> Read:
        i = r * self.cols + c
        op = self._reads.get(i)
        if op is None:
            op = self._reads[i] = Read(self.region.addr(i * self.word))
        return op

    def write(self, r: int, c: int, v) -> Write:
        return Write(self.region.addr((r * self.cols + c) * self.word), v)


class BarrierFactory:
    """Hands out consecutively numbered barriers over a fixed CPU set.

    SPMD programs hit the same textual barriers in the same order, so each
    thread keeps its own position counter (keyed by ``tid``); the i-th
    barrier executed by every thread is barrier id ``i``.  The id's parity
    selects which of the two sense-alternating hardware barrier registers
    is used (see :class:`repro.cpu.processor.Processor`).
    """

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = tuple(cpus)
        self._position: Dict[int, int] = {}

    def __call__(self, tid: int = 0) -> Barrier:
        bid = self._position.get(tid, 0)
        self._position[tid] = bid + 1
        return Barrier(bid, self.cpus)


def _tas(_old):
    return 1


def spinlock_acquire(addr: int):
    """Generator fragment: acquire a test-and-set spinlock.

    Spins with shared reads between TAS attempts (test-and-test-and-set), so
    waiting costs cache hits, not coherence storms."""
    spin = Read(addr)
    while True:
        old = yield AtomicRMW(addr, _tas)
        if old == 0:
            return
        while True:
            v = yield spin
            if v == 0:
                break


def spinlock_release(addr: int):
    """Generator fragment: release a spinlock."""
    yield Write(addr, 0)


def fetch_add(addr: int, delta: int = 1):
    """Generator fragment: atomic fetch-and-add; returns the old value."""
    old = yield AtomicRMW(addr, lambda v, d=delta: v + d)
    return old


@dataclass
class WorkloadResult:
    """What a workload run produces, fed to the benches."""

    name: str
    nprocs: int
    parallel_time_ns: float
    machine: Machine


class Workload:
    """Base class for SPLASH-2-like kernels and applications.

    Subclasses define :meth:`build` (allocate shared data on ``machine``)
    and :meth:`thread_program` (the per-CPU generator).  Constructor
    arguments set the problem size; the suite's ``bench`` and ``test``
    sizes (:mod:`repro.workloads.suite`) are far below Table 2's so
    cycle-level simulation stays tractable.
    """

    #: paper problem size (Table 2), for documentation in benches
    paper_problem = ""
    name = "workload"

    # -- interface ------------------------------------------------------
    def build(self, machine: Machine, cpus: Sequence[int]) -> None:
        raise NotImplementedError

    def thread_program(self, tid: int, cpus: Sequence[int]) -> Iterator:
        raise NotImplementedError

    # -- driver ---------------------------------------------------------
    def run(
        self,
        machine: Machine,
        nprocs: Optional[int] = None,
        cpus: Optional[Sequence[int]] = None,
    ) -> WorkloadResult:
        """Run on ``nprocs`` consecutive CPUs, or an explicit ``cpus`` list
        (e.g. spread across stations to exercise the whole hierarchy)."""
        if cpus is not None:
            cpus = list(cpus)
        else:
            cpus = list(range(nprocs or machine.config.num_cpus))
        self.build(machine, cpus)
        programs = {
            cpu: self.thread_program(tid, cpus) for tid, cpu in enumerate(cpus)
        }
        result = machine.run(programs)
        return WorkloadResult(
            name=self.name,
            nprocs=len(cpus),
            parallel_time_ns=machine.parallel_time_ns(result),
            machine=machine,
        )


def block_range(tid: int, nthreads: int, n: int) -> Tuple[int, int]:
    """Contiguous block partition of [0, n) for thread ``tid``."""
    per = -(-n // nthreads)
    lo = min(tid * per, n)
    hi = min(lo + per, n)
    return lo, hi
