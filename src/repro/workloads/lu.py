"""Blocked dense LU factorization (SPLASH-2 'LU', both layouts).

Table 2: 512x512 matrix, 16x16 blocks.  Scaled: an ``n x n`` matrix of
``b x b`` blocks.  Block (I, J) is owned by thread ``(I + J*nb) mod P`` —
the modified BlockOwner the paper's footnote says it substituted for the
stock SPLASH-2 one ("for the sake of other SPLASH-2 experimenters, the
BlockOwner routine was changed").  Unlike a 2-D scatter it interleaves
owners so processors on one station share remote blocks, which is what
feeds LU's network-cache hit rate in Fig. 15.

The algorithm is the standard right-looking blocked factorization without
pivoting; every arithmetic value really flows through the simulated memory
system, so the result can be checked against ``numpy.linalg`` in tests.

Memory behaviour matches the blocked original: a block's worth of operands
is loaded (one simulated read per word), the O(b^3) arithmetic happens in
registers (charged as Compute cycles), and results are stored back (one
write per word).

* **LU-Contiguous** allocates each block contiguously on its owner's
  station ("block-major", high locality).
* **LU-Noncontiguous** uses one global row-major array with round-robin
  page placement (poor locality, heavier ring traffic) — which is why its
  speedup curve sits below the contiguous one in Fig. 13.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..cpu.ops import Compute, ReadRun, WriteRun
from .base import BarrierFactory, SharedMatrix, Workload


class _LUBase(Workload):
    paper_problem = "512x512 matrix, 16x16 blocks"

    def __init__(self, n: int = 64, block: int = 8) -> None:
        if n % block:
            raise ValueError("matrix size must be a multiple of the block size")
        self.n = n
        self.b = block
        self.nb = n // block
        self.input: List[List[float]] = []

    # -- owner map (the paper's modified BlockOwner) ----------------------
    def owner(self, I: int, J: int, nthreads: int) -> int:
        return (I + J * self.nb) % nthreads

    def _default_input(self) -> List[List[float]]:
        # deterministic diagonally dominant matrix: LU-stable without pivots
        n = self.n
        a = [[((i * 131 + j * 17) % 23) / 23.0 + (n if i == j else 0.0)
              for j in range(n)] for i in range(n)]
        return a

    def build(self, machine, cpus: Sequence[int]) -> None:
        self.barrier = BarrierFactory(cpus)
        self.input = self._default_input()
        self._alloc(machine, cpus)

    # subclasses supply element addressing over their layout
    def _alloc(self, machine, cpus) -> None:
        raise NotImplementedError

    def _addr(self, i: int, j: int) -> int:
        raise NotImplementedError

    # -- block helpers ----------------------------------------------------
    # Both layouts store a block row (fixed i, j varying within the block)
    # contiguously, so a block moves as one hit-run op per row: the
    # processor batches the hits line by line instead of one generator
    # round-trip per word (same misses, same traffic, same per-word values).
    def _read_block(self, I: int, J: int):
        b = self.b
        vals = []
        for i in range(b):
            row = yield ReadRun(self._addr(I * b + i, J * b), b)
            vals.append(row)
        return vals

    def _write_block(self, I: int, J: int, vals) -> None:
        b = self.b
        for i in range(b):
            yield WriteRun(self._addr(I * b + i, J * b), tuple(vals[i]))

    def thread_program(self, tid: int, cpus: Sequence[int]):
        b, nb = self.b, self.nb
        P = len(cpus)
        if tid == 0:
            # initialize the matrix (master thread, inside the timed section
            # as in the paper's 'parallel section' definition); one run per
            # block row — the contiguity unit shared by both layouts
            for i in range(self.n):
                row = self.input[i]
                for J in range(nb):
                    yield WriteRun(self._addr(i, J * b), tuple(row[J * b:(J + 1) * b]))
        yield self.barrier(tid)
        for K in range(nb):
            # factor the diagonal block
            if self.owner(K, K, P) == tid:
                akk = yield from self._read_block(K, K)
                for k in range(b):
                    piv = akk[k][k]
                    for i in range(k + 1, b):
                        akk[i][k] /= piv
                        for j in range(k + 1, b):
                            akk[i][j] -= akk[i][k] * akk[k][j]
                yield Compute(2 * b * b * b // 3)
                yield from self._write_block(K, K, akk)
            yield self.barrier(tid)
            # perimeter blocks
            my_perimeter = []
            for I in range(K + 1, nb):
                if self.owner(I, K, P) == tid:
                    my_perimeter.append(("col", I))
                if self.owner(K, I, P) == tid:
                    my_perimeter.append(("row", I))
            if my_perimeter:
                akk = yield from self._read_block(K, K)
                for which, I in my_perimeter:
                    if which == "col":
                        aik = yield from self._read_block(I, K)
                        # solve X * U_kk = A_ik
                        for j in range(b):
                            for i in range(b):
                                s = aik[i][j]
                                for k in range(j):
                                    s -= aik[i][k] * akk[k][j]
                                aik[i][j] = s / akk[j][j]
                        yield Compute(b * b * b)
                        yield from self._write_block(I, K, aik)
                    else:
                        akj = yield from self._read_block(K, I)
                        # solve L_kk * X = A_kj
                        for j in range(b):
                            for i in range(b):
                                s = akj[i][j]
                                for k in range(i):
                                    s -= akk[i][k] * akj[k][j]
                                akj[i][j] = s
                        yield Compute(b * b * b)
                        yield from self._write_block(K, I, akj)
            yield self.barrier(tid)
            # interior updates
            for I in range(K + 1, nb):
                for J in range(K + 1, nb):
                    if self.owner(I, J, P) != tid:
                        continue
                    lik = yield from self._read_block(I, K)
                    ukj = yield from self._read_block(K, J)
                    aij = yield from self._read_block(I, J)
                    for i in range(b):
                        row = lik[i]
                        tgt = aij[i]
                        for k in range(b):
                            lk = row[k]
                            if lk:
                                urow = ukj[k]
                                for j in range(b):
                                    tgt[j] -= lk * urow[j]
                    yield Compute(2 * b * b * b)
                    yield from self._write_block(I, J, aij)
            yield self.barrier(tid)


class LUContiguous(_LUBase):
    """Blocks allocated contiguously, each on its owner's station."""

    name = "lu_contig"

    def _alloc(self, machine, cpus) -> None:
        b, nb = self.b, self.nb
        cfg = machine.config
        P = len(cpus)
        self._blocks: Dict[Tuple[int, int], object] = {}
        for I in range(nb):
            for J in range(nb):
                owner_cpu = cpus[self.owner(I, J, P)]
                station = owner_cpu // cfg.cpus_per_station
                self._blocks[(I, J)] = machine.allocate(
                    b * b * cfg.word_bytes,
                    placement=f"local:{station}",
                    name=f"lu_blk_{I}_{J}",
                )
        self._word = cfg.word_bytes

    def _addr(self, i: int, j: int) -> int:
        b = self.b
        I, J = i // b, j // b
        return self._blocks[(I, J)].addr(((i % b) * b + (j % b)) * self._word)


class LUNoncontiguous(_LUBase):
    """One global row-major array, round-robin page placement."""

    name = "lu_noncontig"

    def _alloc(self, machine, cpus) -> None:
        self._m = SharedMatrix(machine, self.n, self.n, placement="round_robin",
                               name="lu_matrix")

    def _addr(self, i: int, j: int) -> int:
        return self._m.addr(i, j)


def reference_lu(a: List[List[float]]) -> List[List[float]]:
    """In-place LU (no pivoting) of a copy, for verification."""
    n = len(a)
    m = [row[:] for row in a]
    for k in range(n):
        for i in range(k + 1, n):
            m[i][k] /= m[k][k]
            for j in range(k + 1, n):
                m[i][j] -= m[i][k] * m[k][j]
    return m
