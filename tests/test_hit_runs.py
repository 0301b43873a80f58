"""Hit-run batching (ReadRun / WriteRun) semantics.

The contract: a run op is observationally equivalent to the word-by-word
loop it replaces — same values, same hit/miss counters, same coherence
traffic, and (on an uncontended processor) the same program completion
time.  Only the number of engine events differs, because a run consumes
whole cache lines per Python iteration instead of one generator
round-trip per word.
"""

from __future__ import annotations

import pytest

from repro import Machine, Read, ReadRun, Write, WriteRun
from repro.sim.engine import SimulationError

from conftest import small_config


def _counters(cpu):
    return {
        "reads": cpu.stats.counters.get("reads", 0),
        "writes": cpu.stats.counters.get("writes", 0),
        "read_misses": cpu.stats.counters.get("read_misses", 0),
        "write_misses": cpu.stats.counters.get("write_misses", 0),
    }


def _run_one(prog_factory, nwords=96):
    m = Machine(small_config())
    region = m.allocate(m.config.word_bytes * nwords, placement="local:0", name="buf")
    base = region.addr(0)
    m.run({0: prog_factory(base, m.config.word_bytes, nwords)})
    return m, m.cpus[0]


def test_write_run_read_run_roundtrip_values():
    got = {}

    def prog(base, wb, n):
        yield WriteRun(base, tuple(float(i) * 1.5 for i in range(n)))
        vals = yield ReadRun(base, n)
        got["vals"] = list(vals)

    _run_one(prog)
    assert got["vals"] == [float(i) * 1.5 for i in range(96)]


def test_runs_interoperate_with_word_ops():
    got = {}

    def prog(base, wb, n):
        yield WriteRun(base, tuple(float(i) for i in range(n)))
        got["one"] = (yield Read(base + 17 * wb))
        yield Write(base + 3 * wb, -8.0)
        vals = yield ReadRun(base, n)
        got["vals"] = list(vals)

    _run_one(prog)
    assert got["one"] == 17.0
    expected = [float(i) for i in range(96)]
    expected[3] = -8.0
    assert got["vals"] == expected


def test_run_counters_match_word_loop():
    def words(base, wb, n):
        for i in range(n):
            yield Write(base + i * wb, float(i))
        for i in range(n):
            yield Read(base + i * wb)

    def runs(base, wb, n):
        yield WriteRun(base, tuple(float(i) for i in range(n)))
        yield ReadRun(base, n)

    _, cw = _run_one(words)
    _, cr = _run_one(runs)
    cc = _counters(cr)
    assert _counters(cw) == cc
    # every access is accounted once, as a hit or as a miss
    assert cc["reads"] + cc["read_misses"] == 96
    assert cc["writes"] + cc["write_misses"] == 96


def test_run_completion_time_matches_word_loop():
    """On one CPU with no contention the closed-form time advance lands the
    program at exactly the same finish tick as the per-word loop."""

    def words(base, wb, n):
        for i in range(n):
            yield Write(base + i * wb, float(i))
        for i in range(n):
            yield Read(base + i * wb)

    def runs(base, wb, n):
        yield WriteRun(base, tuple(float(i) for i in range(n)))
        yield ReadRun(base, n)

    mw, cw = _run_one(words)
    mr, cr = _run_one(runs)
    assert cw.finished_at == cr.finished_at


def test_run_suspends_on_miss_and_resumes():
    """A cold run misses on every line; each miss goes through the normal
    miss path and the run picks up where it left off."""
    cfg = small_config()
    m = Machine(cfg)
    nwords = 4 * cfg.line_bytes // cfg.word_bytes  # four lines
    region = m.allocate(cfg.word_bytes * nwords, placement="local:1", name="rbuf")
    base = region.addr(0)
    got = {}

    def writer():
        yield WriteRun(base, tuple(float(i) for i in range(nwords)))

    def reader():
        got["vals"] = list((yield ReadRun(base, nwords)))

    # write from station 0, then read from a cpu on station 1 so every
    # line of the read run misses and is fetched through the protocol
    m.run({0: writer()})
    other = cfg.cpus_per_station  # first cpu of station 1
    m.run({other: reader()})
    assert got["vals"] == [float(i) for i in range(nwords)]
    reader_cpu = m.cpus[other]
    assert reader_cpu.stats.counters.get("read_misses", 0) == 4
    assert reader_cpu.stats.counters.get("reads", 0) == nwords - 4


def test_read_run_with_stride():
    got = {}

    def prog(base, wb, n):
        yield WriteRun(base, tuple(float(i) for i in range(n)))
        got["even"] = list((yield ReadRun(base, n // 2, stride=2 * wb)))

    _run_one(prog)
    assert got["even"] == [float(i) for i in range(0, 96, 2)]


def test_bad_stride_raises():
    def prog(base, wb, n):
        yield ReadRun(base, 4, stride=wb + 1)

    with pytest.raises(SimulationError):
        _run_one(prog)


def test_empty_run_is_a_noop():
    got = {}

    def prog(base, wb, n):
        got["vals"] = list((yield ReadRun(base, 0)))
        yield WriteRun(base, ())
        yield Write(base, 5.0)
        got["after"] = (yield Read(base))

    _run_one(prog)
    assert got["vals"] == []
    assert got["after"] == 5.0
