"""Water molecular dynamics (SPLASH-2 'Water-Nsquared' and 'Water-Spatial').

Table 2: 512 molecules, 3 steps.  Scaled default: 64 molecules, 2 steps.

Both variants integrate the same Lennard-Jones-style point-molecule system
(a faithful simplification of SPLASH's flexible water model — the memory
behaviour of interest is force accumulation into shared per-molecule
arrays, not the intramolecular chemistry):

* **Nsquared**: every pair within half the pair matrix; forces on *other*
  threads' molecules are accumulated under per-molecule spinlocks —
  fine-grained synchronization with all-to-all sharing.
* **Spatial**: molecules live in a 3-D cell grid; threads own cell
  regions and only interact with neighbouring cells, giving the strong
  locality that puts Water-Spatial at the top of Fig. 14.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..cpu.ops import Compute
from .base import (
    BarrierFactory,
    SharedArray,
    Workload,
    block_range,
    spinlock_acquire,
    spinlock_release,
)


class _WaterBase(Workload):
    paper_problem = "512 molecules, 3 steps"

    def __init__(self, nmol: int = 64, steps: int = 2) -> None:
        self.n = nmol
        self.steps = steps
        self.box = 4.0
        self.cutoff = 1.4
        self.dt = 0.002
        self.sigma2 = 0.64
        self.epsilon = 1.0

    def default_positions(self) -> List[Tuple[float, float, float]]:
        side = max(2, round(self.n ** (1 / 3) + 0.49))
        out = []
        i = 0
        for a in range(side):
            for b in range(side):
                for c in range(side):
                    if i >= self.n:
                        return out
                    jitter = ((i * 29) % 13) / 13.0 * 0.1
                    out.append((
                        (a + 0.5) * self.box / side + jitter,
                        (b + 0.5) * self.box / side + jitter,
                        (c + 0.5) * self.box / side + jitter,
                    ))
                    i += 1
        return out

    def build(self, machine, cpus: Sequence[int]) -> None:
        self.barrier = BarrierFactory(cpus)
        n = self.n
        self.pos = SharedArray(machine, 3 * n, name="water_pos")
        self.vel = SharedArray(machine, 3 * n, name="water_vel")
        self.frc = SharedArray(machine, 3 * n, name="water_frc")
        self.locks = SharedArray(machine, n, name="water_locks")
        self.pos0 = self.default_positions()

    # -- the LJ pair kernel (register math) -------------------------------
    def pair_force(self, pi, pj):
        dx = pj[0] - pi[0]
        dy = pj[1] - pi[1]
        dz = pj[2] - pi[2]
        d2 = dx * dx + dy * dy + dz * dz
        if d2 > self.cutoff * self.cutoff or d2 == 0.0:
            return None
        s2 = self.sigma2 / d2
        s6 = s2 * s2 * s2
        f = 24 * self.epsilon * s6 * (2 * s6 - 1) / d2
        return (f * dx, f * dy, f * dz)

    def _init_program(self, tid: int):
        if tid == 0:
            for i, (x, y, z) in enumerate(self.pos0):
                yield self.pos.write(3 * i, x)
                yield self.pos.write(3 * i + 1, y)
                yield self.pos.write(3 * i + 2, z)
                for d in range(3):
                    yield self.vel.write(3 * i + d, 0.0)
                yield self.locks.write(i, 0)
        yield self.barrier(tid)

    def _zero_forces(self, lo: int, hi: int):
        for i in range(lo, hi):
            for d in range(3):
                yield self.frc.write(3 * i + d, 0.0)

    def _integrate(self, lo: int, hi: int):
        for i in range(lo, hi):
            for d in range(3):
                v = yield self.vel.read(3 * i + d)
                f = yield self.frc.read(3 * i + d)
                p = yield self.pos.read(3 * i + d)
                v += f * self.dt
                p += v * self.dt
                # reflective walls keep molecules in the box
                if p < 0.0:
                    p, v = -p, -v
                if p > self.box:
                    p, v = 2 * self.box - p, -v
                yield self.vel.write(3 * i + d, v)
                yield self.pos.write(3 * i + d, p)
            yield Compute(20)

    def _read_pos(self, i: int):
        x = yield self.pos.read(3 * i)
        y = yield self.pos.read(3 * i + 1)
        z = yield self.pos.read(3 * i + 2)
        return (x, y, z)

    def _add_force(self, i: int, fx: float, fy: float, fz: float, locked: bool):
        if locked:
            yield from spinlock_acquire(self.locks.addr(i))
        for d, f in enumerate((fx, fy, fz)):
            v = yield self.frc.read(3 * i + d)
            yield self.frc.write(3 * i + d, v + f)
        if locked:
            yield from spinlock_release(self.locks.addr(i))

    # ------------------------------------------------------------------
    def positions(self, machine) -> List[Tuple[float, float, float]]:
        return [
            tuple(machine.read_word(self.pos.addr(3 * i + d)) for d in range(3))
            for i in range(self.n)
        ]


class WaterNsquared(_WaterBase):
    name = "water_nsq"

    def thread_program(self, tid: int, cpus: Sequence[int]):
        n = self.n
        P = len(cpus)
        lo, hi = block_range(tid, P, n)
        yield from self._init_program(tid)
        for _step in range(self.steps):
            yield from self._zero_forces(lo, hi)
            yield self.barrier(tid)
            # half the pair matrix, rows interleaved for balance
            for i in range(tid, n, P):
                pi = yield from self._read_pos(i)
                acc = [0.0, 0.0, 0.0]
                flops = 0
                for j in range(i + 1, n):
                    pj = yield from self._read_pos(j)
                    f = self.pair_force(pi, pj)
                    flops += 12
                    if f is None:
                        continue
                    acc[0] += f[0]
                    acc[1] += f[1]
                    acc[2] += f[2]
                    yield from self._add_force(j, -f[0], -f[1], -f[2], locked=True)
                    flops += 30
                yield from self._add_force(i, acc[0], acc[1], acc[2], locked=True)
                yield Compute(flops)
            yield self.barrier(tid)
            yield from self._integrate(lo, hi)
            yield self.barrier(tid)


class WaterSpatial(_WaterBase):
    name = "water_spatial"

    def __init__(self, nmol: int = 128, steps: int = 2) -> None:
        super().__init__(nmol, steps)
        self.cells_per_side = max(2, int(self.box / self.cutoff))

    def thread_program(self, tid: int, cpus: Sequence[int]):
        n = self.n
        P = len(cpus)
        lo, hi = block_range(tid, P, n)
        cs = self.cells_per_side
        yield from self._init_program(tid)
        for _step in range(self.steps):
            yield from self._zero_forces(lo, hi)
            yield self.barrier(tid)
            # read every position once, bin into cells (replicated read-only
            # pass, like SPLASH's per-processor cell lists)
            cells: Dict[Tuple[int, int, int], List[int]] = {}
            poses = []
            for i in range(n):
                p = yield from self._read_pos(i)
                poses.append(p)
                key = tuple(
                    min(cs - 1, max(0, int(c / self.box * cs))) for c in p
                )
                cells.setdefault(key, []).append(i)
            yield Compute(4 * n)
            # forces for my molecules from neighbouring cells only
            for i in range(lo, hi):
                pi = poses[i]
                key = tuple(
                    min(cs - 1, max(0, int(c / self.box * cs))) for c in pi
                )
                acc = [0.0, 0.0, 0.0]
                flops = 0
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for dz in (-1, 0, 1):
                            nk = (key[0] + dx, key[1] + dy, key[2] + dz)
                            for j in cells.get(nk, ()):
                                if j == i:
                                    continue
                                f = self.pair_force(pi, poses[j])
                                flops += 12
                                if f is not None:
                                    acc[0] += f[0]
                                    acc[1] += f[1]
                                    acc[2] += f[2]
                yield from self._add_force(i, acc[0], acc[1], acc[2], locked=False)
                yield Compute(flops)
            yield self.barrier(tid)
            yield from self._integrate(lo, hi)
            yield self.barrier(tid)
