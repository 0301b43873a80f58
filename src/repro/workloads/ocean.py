"""Ocean current simulation (SPLASH-2 'Ocean', contiguous partitions).

Table 2: 258x258 grid.  Scaled default: 34x34 (grid size = 2^k + 2 with a
one-cell border, matching SPLASH's convention).

The computational core reproduced here is the red-black Gauss-Seidel
(SOR) solver that dominates Ocean's execution: threads own contiguous bands
of rows; every half-sweep updates one colour using the four neighbours, so
the only communication is the band-boundary rows (nearest-neighbour
sharing — low ring traffic, good speedup).  Convergence is decided by a
global residual reduction accumulated under a spinlock, and sweeps are
separated by barriers.

The arithmetic is a real Poisson solve: tests check the residual actually
drops below tolerance.
"""

from __future__ import annotations

from typing import Sequence

from ..cpu.ops import Compute
from .base import (
    BarrierFactory,
    SharedArray,
    SharedMatrix,
    Workload,
    block_range,
    spinlock_acquire,
    spinlock_release,
)


class Ocean(Workload):
    name = "ocean"
    paper_problem = "258x258 grid"

    def __init__(self, n: int = 34, sweeps: int = 6, omega: float = 1.4) -> None:
        self.n = n
        self.sweeps = sweeps
        self.omega = omega

    def rhs(self, i: int, j: int) -> float:
        return ((i * 13 + j * 7) % 11 - 5) / 11.0

    def build(self, machine, cpus: Sequence[int]) -> None:
        self.barrier = BarrierFactory(cpus)
        n = self.n
        self.grid = SharedMatrix(machine, n, n, name="ocean_grid")
        self.residual = SharedArray(machine, 2, name="ocean_res")  # [lock, sum]
        self.h2 = 1.0 / ((n - 1) * (n - 1))

    def thread_program(self, tid: int, cpus: Sequence[int]):
        n = self.n
        P = len(cpus)
        lo, hi = block_range(tid, P, n - 2)
        lo, hi = lo + 1, hi + 1          # interior rows only
        if tid == 0:
            for i in range(n):
                for j in range(n):
                    yield self.grid.write(i, j, 0.0)
            yield self.residual.write(0, 0)
            yield self.residual.write(1, 0.0)
        yield self.barrier(tid)
        omega = self.omega
        for sweep in range(self.sweeps):
            local_res = 0.0
            for colour in (0, 1):
                for i in range(lo, hi):
                    flops = 0
                    for j in range(1 + (i + colour) % 2, n - 1, 2):
                        up = yield self.grid.read(i - 1, j)
                        down = yield self.grid.read(i + 1, j)
                        left = yield self.grid.read(i, j - 1)
                        right = yield self.grid.read(i, j + 1)
                        old = yield self.grid.read(i, j)
                        gs = 0.25 * (up + down + left + right
                                     - self.h2 * self.rhs(i, j))
                        new = old + omega * (gs - old)
                        local_res += abs(new - old)
                        yield self.grid.write(i, j, new)
                        flops += 10
                    yield Compute(flops)
                yield self.barrier(tid)
            # global residual reduction under the spinlock
            yield from spinlock_acquire(self.residual.addr(0))
            acc = yield self.residual.read(1)
            yield self.residual.write(1, acc + local_res)
            yield from spinlock_release(self.residual.addr(0))
            yield self.barrier(tid)
            if tid == 0:
                yield self.residual.write(1, 0.0)
            yield self.barrier(tid)

    # ------------------------------------------------------------------
    def residual_norm(self, machine) -> float:
        """Max-norm of the discrete Poisson residual (tests)."""
        n = self.n
        g = [
            [machine.read_word(self.grid.addr(i, j)) for j in range(n)]
            for i in range(n)
        ]
        worst = 0.0
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                r = (g[i - 1][j] + g[i + 1][j] + g[i][j - 1] + g[i][j + 1]
                     - 4 * g[i][j] - self.h2 * self.rhs(i, j))
                worst = max(worst, abs(r))
        return worst
