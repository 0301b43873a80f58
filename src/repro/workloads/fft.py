"""1-D FFT, radix-sqrt(n) six-step algorithm (SPLASH-2 'FFT').

Table 2: 65536 complex doubles (M=16).  Scaled default: 4096 points.

The n-point dataset is viewed as a sqrt(n) x sqrt(n) matrix of complex
values (one simulated word each).  The six steps: transpose, per-row FFTs,
twiddle multiply, transpose, per-row FFTs, transpose.  Rows are divided in
contiguous bands across threads; the transposes are the all-to-all
communication phase whose remote traffic dominates — exactly the behaviour
that makes FFT's speedup sub-linear in Fig. 13.

The complex arithmetic is real: tests check the result against a direct
DFT (or ``numpy.fft``) of the same input.
"""

from __future__ import annotations

import cmath
import math
from typing import List, Sequence

from ..cpu.ops import Compute
from .base import BarrierFactory, SharedMatrix, Workload, block_range


def _fft_inplace(row: List[complex]) -> None:
    """Iterative radix-2 Cooley-Tukey on a Python list."""
    n = len(row)
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            row[i], row[j] = row[j], row[i]
    length = 2
    while length <= n:
        ang = -2 * math.pi / length
        wl = complex(math.cos(ang), math.sin(ang))
        for i in range(0, n, length):
            w = 1 + 0j
            half = length >> 1
            for k in range(i, i + half):
                u = row[k]
                v = row[k + half] * w
                row[k] = u + v
                row[k + half] = u - v
                w *= wl
        length <<= 1


class FFT(Workload):
    name = "fft"
    paper_problem = "65536 complex doubles (M=16)"

    def __init__(self, n: int = 4096) -> None:
        m = 1
        while m * m < n:
            m *= 2
        if m * m != n:
            raise ValueError("n must be an even power of two")
        self.n = n
        self.m = m  # matrix is m x m

    def default_input(self) -> List[complex]:
        return [
            complex(((i * 37) % 101) / 101.0, ((i * 61) % 89) / 89.0)
            for i in range(self.n)
        ]

    def build(self, machine, cpus: Sequence[int]) -> None:
        self.barrier = BarrierFactory(cpus)
        m = self.m
        self.src = SharedMatrix(machine, m, m, name="fft_src")
        self.dst = SharedMatrix(machine, m, m, name="fft_dst")
        self.input = self.default_input()

    def _read_row(self, mat: SharedMatrix, r: int):
        row = []
        for c in range(self.m):
            v = yield mat.read(r, c)
            row.append(v)
        return row

    def _write_row(self, mat: SharedMatrix, r: int, row) -> None:
        for c in range(self.m):
            yield mat.write(r, c, row[c])

    def _transpose_band(self, src: SharedMatrix, dst: SharedMatrix,
                        lo: int, hi: int):
        """dst[r][c] = src[c][r] for the thread's destination rows — the
        all-to-all step: reads stride across every other thread's band."""
        for r in range(lo, hi):
            for c in range(self.m):
                v = yield src.read(c, r)
                yield dst.write(r, c, v)

    def thread_program(self, tid: int, cpus: Sequence[int]):
        m = self.m
        lo, hi = block_range(tid, len(cpus), m)
        if tid == 0:
            for r in range(m):
                for c in range(m):
                    yield self.src.write(r, c, self.input[r * m + c])
        yield self.barrier(tid)
        # step 1: transpose src -> dst
        yield from self._transpose_band(self.src, self.dst, lo, hi)
        yield self.barrier(tid)
        # step 2: FFT each of my rows of dst
        for r in range(lo, hi):
            row = yield from self._read_row(self.dst, r)
            _fft_inplace(row)
            yield Compute(5 * m * max(1, int(math.log2(m))))
            # step 3: twiddle: dst'[r][c] = W^(r*c) * row[c]
            for c in range(m):
                w = cmath.exp(-2j * math.pi * r * c / self.n)
                row[c] *= w
            yield Compute(6 * m)
            yield from self._write_row(self.dst, r, row)
        yield self.barrier(tid)
        # step 4: transpose dst -> src
        yield from self._transpose_band(self.dst, self.src, lo, hi)
        yield self.barrier(tid)
        # step 5: FFT each of my rows of src
        for r in range(lo, hi):
            row = yield from self._read_row(self.src, r)
            _fft_inplace(row)
            yield Compute(5 * m * max(1, int(math.log2(m))))
            yield from self._write_row(self.src, r, row)
        yield self.barrier(tid)
        # step 6: transpose src -> dst (final order)
        yield from self._transpose_band(self.src, self.dst, lo, hi)
        yield self.barrier(tid)

    # ------------------------------------------------------------------
    def result(self, machine) -> List[complex]:
        """Collect the transform output (tests only)."""
        m = self.m
        out = []
        for r in range(m):
            for c in range(m):
                out.append(machine.read_word(self.dst.addr(r, c)))
        return out


def reference_dft(x: List[complex]) -> List[complex]:
    """O(n log n) reference using the same radix-2 kernel."""
    row = list(x)
    _fft_inplace(row)
    return row
