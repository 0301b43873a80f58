"""Synthetic microbenchmarks.

Not part of SPLASH-2 — these isolate single architectural behaviours for
the unit benches, ablations, and stress tests:

* :class:`UniformAccess` — independent random reads/writes over a large
  region (bandwidth / NUMA baseline; no sharing).
* :class:`HotSpot` — all processors hammer one station's memory (the
  bisection / contention worst case the paper warns about).
* :class:`ProducerConsumer` — pairwise flag-passing (message-passing-style
  sharing; exercises ordered invalidations and SC).
* :class:`EurekaSpin` — many spinners on one word, one writer: the §3.2
  "update of shared data" motivating pattern (used by the softctl example).
* :class:`FlushStorm` — every processor flushes a dirty working set to
  remote homes simultaneously ("many processors simultaneously flush
  modified data", the flow-control stress of §2.4).
"""

from __future__ import annotations

from typing import Sequence

from ..cpu.ops import AtomicRMW, Compute, Read, SoftOp, Write
from .base import BarrierFactory, SharedArray, Workload


class UniformAccess(Workload):
    name = "uniform"

    def __init__(self, words: int = 2048, ops: int = 400,
                 read_frac: float = 0.7) -> None:
        self.words = words
        self.ops = ops
        self.read_frac = read_frac

    def build(self, machine, cpus: Sequence[int]) -> None:
        self.barrier = BarrierFactory(cpus)
        self.arr = SharedArray(machine, self.words, name="uni")

    def thread_program(self, tid: int, cpus: Sequence[int]):
        yield self.barrier(tid)
        state = (tid * 2654435761 + 12345) & 0xFFFFFFFF
        for k in range(self.ops):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            idx = state % self.words
            if (state >> 16) % 100 < self.read_frac * 100:
                yield self.arr.read(idx)
            else:
                yield self.arr.write(idx, tid * 1000 + k)
            yield Compute(8)
        yield self.barrier(tid)


class HotSpot(Workload):
    name = "hotspot"

    def __init__(self, words: int = 64, ops: int = 200, hot_station: int = 0) -> None:
        self.words = words
        self.ops = ops
        self.hot_station = hot_station

    def build(self, machine, cpus: Sequence[int]) -> None:
        self.barrier = BarrierFactory(cpus)
        self.arr = SharedArray(
            machine, self.words, placement=f"local:{self.hot_station}",
            name="hot",
        )

    def thread_program(self, tid: int, cpus: Sequence[int]):
        yield self.barrier(tid)
        for k in range(self.ops):
            idx = (tid * 7 + k) % self.words
            if k % 3:
                yield self.arr.read(idx)
            else:
                yield self.arr.write(idx, k)
            yield Compute(4)
        yield self.barrier(tid)


class ProducerConsumer(Workload):
    name = "prodcons"

    def __init__(self, rounds: int = 20, payload: int = 8) -> None:
        self.rounds = rounds
        self.payload = payload

    def build(self, machine, cpus: Sequence[int]) -> None:
        self.barrier = BarrierFactory(cpus)
        pairs = len(cpus) // 2
        self.flags = SharedArray(machine, max(1, pairs), name="pc_flags")
        self.data = SharedArray(machine, max(1, pairs) * self.payload, name="pc_data")

    def thread_program(self, tid: int, cpus: Sequence[int]):
        pairs = len(cpus) // 2
        yield self.barrier(tid)
        if pairs == 0:
            return
        pair = tid % pairs
        producer = tid < pairs
        base = pair * self.payload
        if producer:
            for r in range(1, self.rounds + 1):
                for w in range(self.payload):
                    yield self.data.write(base + w, r * 100 + w)
                yield self.flags.write(pair, r)
                # wait for the consumer's ack
                while True:
                    v = yield self.flags.read(pair)
                    if v == -r:
                        break
        else:
            for r in range(1, self.rounds + 1):
                while True:
                    v = yield self.flags.read(pair)
                    if v == r:
                        break
                total = 0
                for w in range(self.payload):
                    d = yield self.data.read(base + w)
                    total += d
                expect = sum(r * 100 + w for w in range(self.payload))
                if total != expect:
                    raise AssertionError(
                        f"SC violation: consumer {tid} round {r} saw stale data "
                        f"({total} != {expect})"
                    )
                yield self.flags.write(pair, -r)
        yield self.barrier(tid)


class EurekaSpin(Workload):
    """One writer announces a result to P-1 spinners; optionally using the
    §3.2 software multicast update instead of plain invalidation."""

    name = "eureka"

    def __init__(self, announcements: int = 10, use_update: bool = False) -> None:
        self.rounds = announcements
        self.use_update = use_update

    def build(self, machine, cpus: Sequence[int]) -> None:
        self.barrier = BarrierFactory(cpus)
        self.word = SharedArray(machine, 8, placement="local:0", name="eureka")
        self.acks = SharedArray(machine, 1, name="eureka_acks")

    def thread_program(self, tid: int, cpus: Sequence[int]):
        P = len(cpus)
        if tid == 0:
            yield self.word.write(0, 0)
            yield self.acks.write(0, 0)
        yield self.barrier(tid)
        for r in range(1, self.rounds + 1):
            if tid == 0:
                if self.use_update:
                    # make sure we hold a copy, then multicast the update
                    yield self.word.read(0)
                    yield SoftOp("update_shared",
                                 {"addr": self.word.addr(0), "value": r})
                else:
                    yield self.word.write(0, r)
                # wait for everyone to see it
                while True:
                    a = yield self.acks.read(0)
                    if a >= (P - 1) * r:
                        break
            else:
                while True:
                    v = yield self.word.read(0)
                    if v >= r:
                        break
                yield AtomicRMW(self.acks.addr(0), lambda x: x + 1)
        yield self.barrier(tid)


class FlushStorm(Workload):
    """Dirty a private working set of remote lines, then flush everything at
    once — the §2.4 flow-control worst case."""

    name = "flushstorm"

    def __init__(self, lines_per_cpu: int = 32) -> None:
        self.lines = lines_per_cpu

    def build(self, machine, cpus: Sequence[int]) -> None:
        self.barrier = BarrierFactory(cpus)
        cfg = machine.config
        self.words_per_line = cfg.line_bytes // cfg.word_bytes
        # every cpu gets lines homed on the *next* station (all remote)
        self.regions = []
        for cpu in cpus:
            station = cpu // cfg.cpus_per_station
            target = (station + 1) % cfg.num_stations
            self.regions.append(machine.allocate(
                self.lines * cfg.line_bytes,
                placement=f"local:{target}",
                name=f"storm_{cpu}",
            ))
        self.line_bytes = cfg.line_bytes

    def thread_program(self, tid: int, cpus: Sequence[int]):
        region = self.regions[tid]
        yield self.barrier(tid)
        # dirty the whole set
        for i in range(self.lines):
            yield Write(region.addr(i * self.line_bytes), tid * 10000 + i)
        yield self.barrier(tid)
        # flush simultaneously via software write-backs
        for i in range(self.lines):
            yield SoftOp("writeback", {"addr": region.addr(i * self.line_bytes)})
        yield self.barrier(tid)
        # verify nothing was lost
        for i in range(self.lines):
            v = yield Read(region.addr(i * self.line_bytes))
            if v != tid * 10000 + i:
                raise AssertionError(f"flush lost data: cpu {tid} line {i} = {v}")
        yield self.barrier(tid)
