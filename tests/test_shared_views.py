"""Array views hand out shared ``Read`` ops: one op per array word, built
on first use, and a program may yield the same op any number of times."""

from __future__ import annotations

import pytest

from repro import Compute, Machine, Read, Write
from repro.workloads.base import SharedArray, SharedMatrix, spinlock_acquire

from conftest import small_config


def test_shared_array_reuses_one_read_per_word():
    arr = SharedArray(Machine(small_config()), 10)
    for i in (0, 3, 9):
        op = arr.read(i)
        assert op is arr.read(i)
        assert op.addr == arr.addr(i)
    assert arr.read(0) is not arr.read(1)


def test_shared_matrix_reuses_one_read_per_word():
    mat = SharedMatrix(Machine(small_config()), 3, 4)
    for r, c in ((0, 0), (1, 2), (2, 3)):
        op = mat.read(r, c)
        assert op is mat.read(r, c)
        assert op.addr == mat.addr(r, c)
    # a column past the row end names the next row's word, as addr does
    assert mat.read(0, 4) is mat.read(1, 0)
    assert mat.read(0, 4).addr == mat.addr(0, 4) == mat.addr(1, 0)


@pytest.mark.parametrize("warm", [False, True])
def test_bad_indices_raise_every_time(warm):
    m = Machine(small_config())
    arr = SharedArray(m, 4)
    mat = SharedMatrix(m, 2, 3)
    # regions are whole pages: an index is out of range past the last page
    arr_end = arr.region.nbytes // arr.word
    mat_end = mat.region.nbytes // mat.word
    if warm:
        for i in range(4):
            arr.read(i)
        for r in range(2):
            for c in range(3):
                mat.read(r, c)
    for _ in range(2):
        for i in (arr_end, arr_end + 100, -1):
            with pytest.raises(IndexError):
                arr.read(i)
        for r, c in ((0, mat_end), (mat_end // 3 + 1, 0), (0, -1), (-1, 0)):
            with pytest.raises(IndexError):
                mat.read(r, c)


def test_spinlock_spins_on_one_read_op():
    # one op per event, so the holder keeps the lock for simulated time
    m = Machine(small_config(cpu_batch=1))
    lock = SharedArray(m, 1, placement="local:0").addr(0)
    ops = []

    def hold():
        # keeps the lock long enough for the waiter to spin
        yield from spinlock_acquire(lock)
        yield Compute(2000)
        yield Write(lock, 0)

    def waiter():
        yield Compute(100)
        gen = spinlock_acquire(lock)
        value = None
        while True:
            try:
                op = gen.send(value)
            except StopIteration:
                return
            ops.append(op)
            value = yield op

    m.run({0: hold(), 5: waiter()})
    spins = [op for op in ops if type(op) is Read]
    assert len(spins) > 1
    assert all(op is spins[0] for op in spins)


def _flag_run(shared: bool):
    """CPU 0 spins reading a flag homed on station 0; CPU 6 (another
    station) sets it after a delay.  ``shared`` spins on one op."""
    m = Machine(small_config())
    flag = SharedArray(m, 1, placement="local:0")
    seen = []

    def spinner():
        op = flag.read(0)
        spins = 0
        while True:
            v = yield (op if shared else Read(flag.addr(0)))
            spins += 1
            if v == 7:
                break
        seen.append((v, spins))

    def writer():
        yield Compute(3000)
        yield flag.write(0, 7)

    m.run({0: spinner(), 6: writer()})
    cpus = (m.cpus[0], m.cpus[6])
    stats = [
        {f"P{cpu.cpu_id}.{name}": v for name, v in cpu.stats.counters.items()}
        for cpu in cpus
    ]
    return seen, stats, [cpu.finished_at for cpu in cpus], m.engine.now


def test_spinning_on_a_shared_op_sees_the_remote_write():
    seen, stats, finished, now = _flag_run(shared=True)
    assert seen[0][0] == 7 and seen[0][1] > 1
    assert stats[0]["P0.read_misses"] >= 2   # invalidated, then re-fetched
    assert (seen, stats, finished, now) == _flag_run(shared=False)
