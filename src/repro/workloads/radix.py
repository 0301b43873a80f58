"""Parallel radix sort (SPLASH-2 'Radix').

Table 2: 262144 keys, radix 1024.  Scaled default: 4096 keys, radix 256.

Each pass over one digit: (1) every thread histograms its block of keys,
(2) the per-thread histograms are combined into global digit offsets
(thread 0, after a barrier — the serialized prefix step that limits Radix's
speedup), (3) every thread permutes its keys into the destination array at
positions claimed from shared per-(thread,digit) offsets.  The permute's
scattered remote writes are the heavy all-to-all phase that drives radix
sort's high ring utilization in Fig. 17.
"""

from __future__ import annotations

from typing import List, Sequence

from ..cpu.ops import Compute
from .base import BarrierFactory, SharedArray, Workload, block_range


class RadixSort(Workload):
    name = "radix"
    paper_problem = "262144 keys, radix 1024"

    def __init__(self, n: int = 4096, radix: int = 256, key_bits: int = 16) -> None:
        self.n = n
        self.radix = radix
        self.key_bits = key_bits
        digit_bits = radix.bit_length() - 1
        self.passes = -(-key_bits // digit_bits)
        self.digit_bits = digit_bits

    def default_input(self) -> List[int]:
        mask = (1 << self.key_bits) - 1
        return [(i * 40503 + 12345) & mask for i in range(self.n)]

    def build(self, machine, cpus: Sequence[int]) -> None:
        P = len(cpus)
        self.barrier = BarrierFactory(cpus)
        self.keys_a = SharedArray(machine, self.n, name="radix_a")
        self.keys_b = SharedArray(machine, self.n, name="radix_b")
        #: per-(thread, digit) counts, then turned into write offsets
        self.hist = SharedArray(machine, P * self.radix, name="radix_hist")
        #: per-thread digit-range totals for the parallel prefix step
        self.range_totals = SharedArray(machine, P, name="radix_ranges")
        self.input = self.default_input()

    def thread_program(self, tid: int, cpus: Sequence[int]):
        P = len(cpus)
        R = self.radix
        lo, hi = block_range(tid, P, self.n)
        if tid == 0:
            for i, k in enumerate(self.input):
                yield self.keys_a.write(i, k)
        yield self.barrier(tid)
        src, dst = self.keys_a, self.keys_b
        for pas in range(self.passes):
            shift = pas * self.digit_bits
            # (1) local histogram of my block
            counts = [0] * R
            for i in range(lo, hi):
                k = yield src.read(i)
                counts[(k >> shift) & (R - 1)] += 1
            yield Compute(hi - lo)
            for d in range(R):
                if counts[d]:
                    yield self.hist.write(tid * R + d, counts[d])
                else:
                    yield self.hist.write(tid * R + d, 0)
            yield self.barrier(tid)
            # (2) parallel prefix: thread t owns digit range [dlo, dhi) and
            # first publishes its range's total, then — knowing every range
            # total — turns the counts in its range into global offsets
            dlo = tid * R // P
            dhi = (tid + 1) * R // P
            range_total = 0
            counts_view = {}
            for d in range(dlo, dhi):
                for t in range(P):
                    c = yield self.hist.read(t * R + d)
                    counts_view[(t, d)] = c
                    range_total += c
            yield self.range_totals.write(tid, range_total)
            yield Compute(dhi - dlo)
            yield self.barrier(tid)
            offset = 0
            for t in range(tid):
                rt = yield self.range_totals.read(t)
                offset += rt
            for d in range(dlo, dhi):
                for t in range(P):
                    yield self.hist.write(t * R + d, offset)
                    offset += counts_view[(t, d)]
            yield Compute(P + (dhi - dlo))
            yield self.barrier(tid)
            # (3) permute my keys into the destination array
            offsets = [0] * R
            for d in range(R):
                offsets[d] = yield self.hist.read(tid * R + d)
            for i in range(lo, hi):
                k = yield src.read(i)
                d = (k >> shift) & (R - 1)
                yield dst.write(offsets[d], k)
                offsets[d] += 1
            yield Compute(2 * (hi - lo))
            yield self.barrier(tid)
            src, dst = dst, src
        self.final = src

    # ------------------------------------------------------------------
    def result(self, machine) -> List[int]:
        return [machine.read_word(self.final.addr(i)) for i in range(self.n)]
