"""Sparse Cholesky factorization (SPLASH-2 'Cholesky').

Table 2: the ``tk18.O`` input.  We do not have SPLASH's matrix files, so a
deterministic synthetic sparse SPD matrix with the same *parallelism
structure* is factored instead: block-diagonal-with-border ("arrowhead") —
``nblocks`` independent dense diagonal blocks coupled by a dense border.
Its elimination tree is a star: every diagonal block factors independently
(the parallel phase, like tk18's subtrees), then the border columns — which
depend on everything — serialize at the end, which is exactly why Cholesky
has the *worst* speedup curve of the Fig. 13 kernels.

Threads claim columns from a shared task queue (atomic fetch-and-add) in a
block-interleaved order, spin (with backoff) on per-column done flags for
their dependencies, perform the real left-looking updates, and publish.
Storage is packed by column (contiguous cache lines per column) with
line-padded done flags — mirroring SPLASH's supernodal layout in the ways
the memory system sees.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..cpu.ops import Compute, Read, Write
from .base import BarrierFactory, SharedArray, Workload, fetch_add


class Cholesky(Workload):
    name = "cholesky"
    paper_problem = "tk18.O input file"

    def __init__(self, nblocks: int = 12, block: int = 6, border: int = 6) -> None:
        self.nb = nblocks
        self.bs = block
        self.w = border
        self.n = nblocks * block + border

    # ------------------------------------------------------------------
    # structure helpers
    # ------------------------------------------------------------------
    def col_rows(self, j: int) -> List[int]:
        """Structurally nonzero rows i >= j of column j (incl. fill-in)."""
        body = self.nb * self.bs
        if j < body:
            blk = j // self.bs
            block_end = (blk + 1) * self.bs
            return list(range(j, block_end)) + list(range(body, self.n))
        return list(range(j, self.n))

    def deps(self, j: int) -> List[int]:
        """Columns k < j that update column j."""
        body = self.nb * self.bs
        if j < body:
            blk = j // self.bs
            return list(range(blk * self.bs, j))
        return list(range(j))   # border columns depend on everything

    def task_to_column(self, t: int) -> int:
        """Task order: round-robin across diagonal blocks (exposes the
        inter-block parallelism), then the border columns in order."""
        body = self.nb * self.bs
        if t < body:
            blk = t % self.nb
            return blk * self.bs + t // self.nb
        return t

    # ------------------------------------------------------------------
    def default_input(self) -> List[List[float]]:
        """Dense view of the arrowhead SPD matrix (for verification)."""
        n = self.n
        body = self.nb * self.bs
        a = [[0.0] * n for _ in range(n)]

        def couple(i, j, v):
            a[i][j] = v
            a[j][i] = v

        for j in range(n):
            a[j][j] = 4.0 * (self.bs + self.w) + ((j * 7) % 5)
        for blk in range(self.nb):
            lo, hi = blk * self.bs, (blk + 1) * self.bs
            for j in range(lo, hi):
                for i in range(j + 1, hi):
                    couple(i, j, 1.0 / (1 + i - j) * (1 + ((i + j) % 3) * 0.25))
        for j in range(body):
            for i in range(body, n):
                couple(i, j, 0.5 / (1 + (i - body + j) % 5))
        for j in range(body, n):
            for i in range(j + 1, n):
                couple(i, j, 0.25 / (1 + i - j))
        return a

    def build(self, machine, cpus: Sequence[int]) -> None:
        self.barrier = BarrierFactory(cpus)
        cfg = machine.config
        # packed column storage: column j occupies len(col_rows(j)) words
        self._col_base: List[int] = []
        self._col_len: List[int] = []
        total = 0
        for j in range(self.n):
            self._col_base.append(total)
            ln = len(self.col_rows(j))
            self._col_len.append(ln)
            total += ln
        self.store = SharedArray(machine, total, name="chol_cols")
        self.flag_stride = cfg.line_bytes
        self.done_region = machine.allocate(
            self.n * cfg.line_bytes, name="chol_done"
        )
        self.task = SharedArray(machine, 1, name="chol_task")
        self.input = self.default_input()
        # row -> slot maps per column (host-side, derived from structure)
        self._row_slot = [
            {i: s for s, i in enumerate(self.col_rows(j))} for j in range(self.n)
        ]

    def _elem_addr(self, i: int, j: int) -> int:
        return self.store.addr(self._col_base[j] + self._row_slot[j][i])

    def _done_addr(self, j: int) -> int:
        return self.done_region.addr(j * self.flag_stride)

    # ------------------------------------------------------------------
    def thread_program(self, tid: int, cpus: Sequence[int]):
        n = self.n
        if tid == 0:
            for j in range(n):
                for i in self.col_rows(j):
                    yield Write(self._elem_addr(i, j), self.input[i][j])
                yield Write(self._done_addr(j), 0)
            yield self.task.write(0, 0)
        yield self.barrier(tid)
        while True:
            t = yield from fetch_add(self.task.addr(0), 1)
            if t >= n:
                break
            j = self.task_to_column(t)
            # wait for dependencies (spin with backoff)
            for k in self.deps(j):
                while True:
                    flag = yield Read(self._done_addr(k))
                    if flag:
                        break
                    yield Compute(60)
            rows = self.col_rows(j)
            col = []
            for i in rows:
                v = yield Read(self._elem_addr(i, j))
                col.append(v)
            # left-looking: col -= L[rows, k] * L[j, k] for each dep column
            for k in self.deps(j):
                slot_k = self._row_slot[k]
                ljk = yield Read(self._elem_addr(j, k))
                if ljk == 0.0:
                    continue
                flops = 0
                for idx, i in enumerate(rows):
                    if i in slot_k:
                        lik = yield Read(self._elem_addr(i, k))
                        col[idx] -= lik * ljk
                        flops += 2
                yield Compute(flops)
            piv = math.sqrt(col[0])
            col[0] = piv
            for idx in range(1, len(col)):
                col[idx] /= piv
            yield Compute(2 * len(col))
            for idx, i in enumerate(rows):
                yield Write(self._elem_addr(i, j), col[idx])
            yield Write(self._done_addr(j), 1)
        yield self.barrier(tid)

    # ------------------------------------------------------------------
    def result_factor(self, machine) -> List[List[float]]:
        L = [[0.0] * self.n for _ in range(self.n)]
        for j in range(self.n):
            for i in self.col_rows(j):
                L[i][j] = machine.read_word(self._elem_addr(i, j))
        return L


def verify_cholesky(a: List[List[float]], L: List[List[float]], tol: float = 1e-6) -> float:
    """Max abs error of L @ L.T against ``a`` (lower triangle)."""
    n = len(a)
    err = 0.0
    for i in range(n):
        for j in range(i + 1):
            s = sum(L[i][k] * L[j][k] for k in range(j + 1))
            err = max(err, abs(s - a[i][j]))
    return err
