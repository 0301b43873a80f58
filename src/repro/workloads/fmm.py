"""Fast Multipole Method N-body (SPLASH-2 'FMM').

Table 2: 16384 particles.  Scaled default: 128 particles, order-8
expansions on a 2-D uniform grid.

The reproduction keeps FMM's memory structure — particles binned into
cells, per-cell multipole moments built in parallel (P2M), far-field
interactions evaluated by reading *other* cells' moment arrays
(the moment reads are the all-to-all-ish sharing), and near-field
direct particle-particle sums with neighbouring cells — while
simplifying the translation chain: far cells are evaluated
multipole-to-particle (M2P) instead of M2L/L2L, which preserves both
the arithmetic (true complex multipole expansions of the 2-D log
potential) and the sharing pattern at these scales.  Tests compare the
resulting potentials against the direct O(n^2) sum.
"""

from __future__ import annotations

import cmath
import math
from typing import List, Sequence, Tuple

from ..cpu.ops import Compute
from .base import BarrierFactory, SharedArray, Workload, block_range


class FMM(Workload):
    name = "fmm"
    paper_problem = "16384 particles"

    def __init__(self, nparticles: int = 128, grid: int = 4, order: int = 8) -> None:
        self.n = nparticles
        self.grid = grid          # grid x grid cells
        self.order = order

    def default_particles(self) -> List[Tuple[complex, float]]:
        """(position, charge) pairs in the unit square."""
        out = []
        for i in range(self.n):
            x = ((i * 37) % 101) / 101.0
            y = ((i * 59) % 97) / 97.0
            q = 1.0 + ((i * 13) % 7) / 7.0
            out.append((complex(x, y), q))
        return out

    def build(self, machine, cpus: Sequence[int]) -> None:
        self.barrier = BarrierFactory(cpus)
        n, g, p = self.n, self.grid, self.order
        self.pos = SharedArray(machine, n, name="fmm_pos")      # complex
        self.chg = SharedArray(machine, n, name="fmm_chg")
        self.pot = SharedArray(machine, n, name="fmm_pot")      # complex out
        #: per cell: moment[0..p-1] (complex) + total charge
        self.moments = SharedArray(machine, g * g * (p + 1), name="fmm_mom")
        self.particles0 = self.default_particles()
        # host-side static binning (deterministic from initial positions)
        self.cell_of: List[int] = []
        self.cell_members: List[List[int]] = [[] for _ in range(g * g)]
        for i, (z, _q) in enumerate(self.particles0):
            cx = min(g - 1, int(z.real * g))
            cy = min(g - 1, int(z.imag * g))
            c = cy * g + cx
            self.cell_of.append(c)
            self.cell_members[c].append(i)

    def cell_center(self, c: int) -> complex:
        g = self.grid
        cx, cy = c % g, c // g
        return complex((cx + 0.5) / g, (cy + 0.5) / g)

    def _adjacent(self, a: int, b: int) -> bool:
        g = self.grid
        ax, ay = a % g, a // g
        bx, by = b % g, b // g
        return abs(ax - bx) <= 1 and abs(ay - by) <= 1

    def thread_program(self, tid: int, cpus: Sequence[int]):
        n, g, p = self.n, self.grid, self.order
        P = len(cpus)
        ncells = g * g
        if tid == 0:
            for i, (z, q) in enumerate(self.particles0):
                yield self.pos.write(i, z)
                yield self.chg.write(i, q)
        yield self.barrier(tid)

        # -- P2M: each thread builds moments for its block of cells -------
        clo, chi = block_range(tid, P, ncells)
        for c in range(clo, chi):
            zc = self.cell_center(c)
            mom = [0j] * p
            total = 0.0
            flops = 0
            for i in self.cell_members[c]:
                z = yield self.pos.read(i)
                q = yield self.chg.read(i)
                dz = z - zc
                term = q + 0j
                for k in range(p):
                    mom[k] += term
                    term *= dz
                total += q
                flops += 4 * p
            base = c * (p + 1)
            for k in range(p):
                yield self.moments.write(base + k, mom[k])
            yield self.moments.write(base + p, total)
            yield Compute(flops)
        yield self.barrier(tid)

        # -- evaluation: far cells by M2P, near cells by P2P ---------------
        plo, phi = block_range(tid, P, n)
        for i in range(plo, phi):
            zi = yield self.pos.read(i)
            acc = 0j
            my_cell = self.cell_of[i]
            flops = 0
            for c in range(ncells):
                if self._adjacent(my_cell, c):
                    # near field: direct pairwise
                    for j in self.cell_members[c]:
                        if j == i:
                            continue
                        zj = yield self.pos.read(j)
                        qj = yield self.chg.read(j)
                        acc += qj * cmath.log(zi - zj)
                        flops += 20
                else:
                    # far field: evaluate the cell's multipole expansion
                    zc = self.cell_center(c)
                    base = c * (p + 1)
                    total = yield self.moments.read(base + p)
                    if total == 0.0:
                        continue
                    dz = zi - zc
                    acc += total * cmath.log(dz)
                    inv = 1.0 / dz
                    powk = inv
                    for k in range(1, p):
                        mk = yield self.moments.read(base + k)
                        acc -= mk * powk / k
                        powk *= inv
                    flops += 10 * p
            # the physical potential is the real part (the imaginary
            # part is branch-cut dependent and not meaningful)
            yield self.pot.write(i, acc.real)
            yield Compute(flops)
        yield self.barrier(tid)

    # ------------------------------------------------------------------
    def potentials(self, machine) -> List[float]:
        return [machine.read_word(self.pot.addr(i)) for i in range(self.n)]


def direct_potentials(particles: List[Tuple[complex, float]]) -> List[float]:
    out = []
    for i, (zi, _qi) in enumerate(particles):
        acc = 0.0
        for j, (zj, qj) in enumerate(particles):
            if i != j:
                acc += qj * math.log(abs(zi - zj))
        out.append(acc)
    return out
