"""Hierarchical radiosity (SPLASH-2 'Radiosity', batch mode).

Table 2: the Room scene in batch mode.  Without SPLASH's scene files the
geometry is a deterministic box room discretized into patches; iterative
gathering reproduces Radiosity's memory character — irregular task
parallelism over patches pulled from a shared work counter, reads of every
other patch's current radiosity (all-to-all, one word per patch per task),
and convergence detection through a shared accumulator under a lock.

Form factors use a real point-to-point disk approximation with visibility
ignored (the Room is convex here), so the solver genuinely converges:
tests check the radiosity vector against a host-side Jacobi solve of the
same system.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from ..cpu.ops import Compute
from .base import (
    BarrierFactory,
    SharedArray,
    Workload,
    fetch_add,
    spinlock_acquire,
    spinlock_release,
)

Vec = Tuple[float, float, float]


class Radiosity(Workload):
    name = "radiosity"
    paper_problem = "Room scene, batch mode"

    def __init__(self, patches_per_wall: int = 4, iterations: int = 4) -> None:
        self.ppw = patches_per_wall
        self.iterations = iterations
        self._build_room()

    def _build_room(self) -> None:
        """Six walls of a unit box, each ppw x ppw patches."""
        ppw = self.ppw
        self.centers: List[Vec] = []
        self.normals: List[Vec] = []
        self.areas: List[float] = []
        self.emit: List[float] = []
        self.rho: List[float] = []
        walls = [
            ((0.5, 0.5, 0.0), (0, 0, 1)),   # back
            ((0.5, 0.5, 1.0), (0, 0, -1)),  # front
            ((0.0, 0.5, 0.5), (1, 0, 0)),   # left
            ((1.0, 0.5, 0.5), (-1, 0, 0)),  # right
            ((0.5, 0.0, 0.5), (0, 1, 0)),   # floor
            ((0.5, 1.0, 0.5), (0, -1, 0)),  # ceiling
        ]
        area = (1.0 / ppw) ** 2
        idx = 0
        for w, (center, normal) in enumerate(walls):
            for a in range(ppw):
                for b in range(ppw):
                    u = (a + 0.5) / ppw
                    v = (b + 0.5) / ppw
                    if normal[0]:
                        p = (center[0], u, v)
                    elif normal[1]:
                        p = (u, center[1], v)
                    else:
                        p = (u, v, center[2])
                    self.centers.append(p)
                    self.normals.append(normal)
                    self.areas.append(area)
                    # the ceiling's central patches are the light source
                    is_light = w == 5 and abs(u - 0.5) < 0.3 and abs(v - 0.5) < 0.3
                    self.emit.append(1.0 if is_light else 0.0)
                    self.rho.append(0.2 if is_light else 0.5 + 0.3 * ((idx * 7) % 5) / 5.0)
                    idx += 1
        self.n = len(self.centers)

    # -- real disk-to-point form factor ---------------------------------
    def form_factor(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        ci, cj = self.centers[i], self.centers[j]
        d = (cj[0] - ci[0], cj[1] - ci[1], cj[2] - ci[2])
        d2 = d[0] ** 2 + d[1] ** 2 + d[2] ** 2
        if d2 < 1e-12:
            return 0.0
        ni, nj = self.normals[i], self.normals[j]
        cos_i = (ni[0] * d[0] + ni[1] * d[1] + ni[2] * d[2]) / math.sqrt(d2)
        cos_j = -(nj[0] * d[0] + nj[1] * d[1] + nj[2] * d[2]) / math.sqrt(d2)
        if cos_i <= 0 or cos_j <= 0:
            return 0.0
        return cos_i * cos_j * self.areas[j] / (math.pi * d2 + self.areas[j])

    def build(self, machine, cpus: Sequence[int]) -> None:
        self.barrier = BarrierFactory(cpus)
        n = self.n
        self.rad = SharedArray(machine, n, name="rad_b")       # current B_i
        self.rad_next = SharedArray(machine, n, name="rad_bn")
        self.taskq = SharedArray(machine, 1, name="rad_task")
        self.delta = SharedArray(machine, 2, name="rad_delta")  # [lock, sum]

    def thread_program(self, tid: int, cpus: Sequence[int]):
        n = self.n
        if tid == 0:
            for i in range(n):
                yield self.rad.write(i, self.emit[i])
                yield self.rad_next.write(i, 0.0)
            yield self.taskq.write(0, 0)
            yield self.delta.write(0, 0)
            yield self.delta.write(1, 0.0)
        yield self.barrier(tid)
        for it in range(self.iterations):
            local_delta = 0.0
            # gather: claim patches from the shared queue
            while True:
                i = yield from fetch_add(self.taskq.addr(0), 1)
                if i >= n:
                    break
                gathered = 0.0
                flops = 0
                for j in range(n):
                    bj = yield self.rad.read(j)
                    if bj:
                        gathered += self.form_factor(i, j) * bj
                        flops += 25
                old = yield self.rad.read(i)
                new = self.emit[i] + self.rho[i] * gathered
                local_delta += abs(new - old)
                yield self.rad_next.write(i, new)
                yield Compute(flops)
            yield from spinlock_acquire(self.delta.addr(0))
            acc = yield self.delta.read(1)
            yield self.delta.write(1, acc + local_delta)
            yield from spinlock_release(self.delta.addr(0))
            yield self.barrier(tid)
            if tid == 0:
                # publish the new radiosities and reset the queue
                for i in range(n):
                    v = yield self.rad_next.read(i)
                    yield self.rad.write(i, v)
                yield self.taskq.write(0, 0)
                yield self.delta.write(1, 0.0)
            yield self.barrier(tid)

    # ------------------------------------------------------------------
    def radiosities(self, machine) -> List[float]:
        return [machine.read_word(self.rad.addr(i)) for i in range(self.n)]

    def reference_solution(self) -> List[float]:
        """Host-side Jacobi with the same iteration count."""
        b = list(self.emit)
        for _ in range(self.iterations):
            nxt = []
            for i in range(self.n):
                gathered = sum(
                    self.form_factor(i, j) * b[j] for j in range(self.n) if b[j]
                )
                nxt.append(self.emit[i] + self.rho[i] * gathered)
            b = nxt
        return b
