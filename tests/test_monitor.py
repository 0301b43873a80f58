"""Tests for the monitoring hardware (paper §3.3)."""

from repro import Machine, Phase, Read, Write
from repro.monitor import HistogramTable, Monitor, TraceMemory
from repro.workloads.synthetic import HotSpot

from conftest import small_config


def test_histogram_record_and_totals():
    h = HistogramTable("t")
    h.record("LV", "READ")
    h.record("LV", "READ")
    h.record("GI", "READ_EX", n=3)
    assert h.total() == 5
    assert h.total(row="LV") == 2
    assert h.total(col="READ_EX") == 3
    assert h.cells()[("GI", "READ_EX")] == 3


def test_histogram_overflow_swaps_halves_and_interrupts():
    fired = []
    h = HistogramTable("t", overflow_limit=3, on_overflow=fired.append)
    for _ in range(7):
        h.record("LV", "READ")
    assert h.overflows == 2
    assert len(fired) == 2
    assert h.total() == 7          # nothing lost across swaps


def test_histogram_render_contains_rows_and_columns():
    h = HistogramTable("states x txns")
    h.record("LV", "READ")
    h.record("GI*", "UPGRADE")
    text = h.render()
    assert "LV" in text and "GI*" in text
    assert "READ" in text and "UPGRADE" in text


def test_trace_memory_bounded():
    t = TraceMemory(capacity=4)
    for i in range(10):
        t.record(("mem", 0, "READ", i, 0))
    assert len(t) == 4
    assert t.recent(2)[-1][3] == 9


def test_monitor_records_memory_and_nc_transactions():
    m = Machine(small_config())
    mon = Monitor()
    m.attach_monitor(mon)
    local = m.allocate(4096, placement="local:0")
    remote = m.allocate(4096, placement="local:1")

    def prog():
        yield Write(local.addr(0), 1)
        yield Read(remote.addr(0))

    m.run({0: prog()})
    assert mon.coherence_histogram.total() >= 2   # local write + remote read
    assert mon.nc_histogram.total() >= 1          # the NC saw the remote read
    assert len(mon.trace) >= 3


def test_monitor_address_range_filter():
    m = Machine(small_config())
    r1 = m.allocate(4096, placement="local:0")
    r2 = m.allocate(4096, placement="local:0")
    lo = min(r2.pages)
    mon = Monitor(address_range=(lo, lo + 4096))
    m.attach_monitor(mon)

    def prog():
        yield Write(r1.addr(0), 1)   # outside the window
        yield Write(r2.addr(0), 2)   # inside

    m.run({0: prog()})
    assert mon.coherence_histogram.total() == 1


def test_monitor_phase_attribution():
    m = Machine(small_config())
    mon = Monitor()
    m.attach_monitor(mon)
    r = m.allocate(8192, placement="local:0")

    def prog():
        yield Phase(1)
        yield Write(r.addr(0), 1)
        yield Phase(2)
        yield Write(r.addr(4096), 1)

    m.run({0: prog()})
    assert mon.phase_table.total(col=1) == 1
    assert mon.phase_table.total(col=2) == 1


def test_nc_txns_feed_originator_and_phase_tables():
    """NC transactions must attribute originator and phase exactly like
    memory transactions do (§3.3 parity fix)."""
    m = Machine(small_config())
    mon = Monitor()
    m.attach_monitor(mon)
    remote = m.allocate(4096, placement="local:1")

    def prog():
        yield Phase(7)
        yield Read(remote.addr(0))

    m.run({0: prog()})
    assert mon.nc_histogram.total() >= 1
    # the remote read passed through S0's NC; cpu 0 must appear as its
    # originator and phase 7 must be attributed
    assert mon.originator_table.total(col=0) >= 2  # memory + NC records
    assert mon.phase_table.total(col=7) >= 2


def test_monitor_report_includes_all_tables():
    m = Machine(small_config())
    mon = Monitor()
    m.attach_monitor(mon)
    remote = m.allocate(4096, placement="local:1")

    def prog():
        yield Phase(3)
        yield Write(remote.addr(0), 1)

    m.run({0: prog()})
    text = mon.report()
    assert "mem state x txn" in text
    assert "nc state x txn" in text
    assert "txn x originator" in text
    assert "txn x phase" in text


def test_monitor_locked_states_distinguished():
    """The §3.3.3 table has locked variants of each state; contention on a
    line must record at least one '*' row."""
    m = Machine(small_config())
    mon = Monitor()
    m.attach_monitor(mon)
    r = m.allocate(64, placement="local:2")
    n = m.config.num_cpus

    def prog(cid):
        for i in range(4):
            yield Write(r.addr(0), cid * 10 + i)

    m.run({c: prog(c) for c in range(n)})
    rows = {row for row, _ in mon.coherence_histogram.cells()}
    assert any(row.endswith("*") for row in rows), rows


def test_monitor_phase_filter():
    """``phase_filter=k`` counts exactly the memory and NC transactions
    whose requester had set phase ``k``: in the state tables, the
    originator and phase tables and the trace memory alike."""
    def run(monitor):
        m = Machine(small_config())
        m.attach_monitor(monitor)
        local = m.allocate(8192, placement="local:0")
        remote = m.allocate(8192, placement="local:1")

        def prog():
            yield Phase(1)
            yield Write(local.addr(0), 1)
            yield Read(remote.addr(0))
            yield Phase(2)
            yield Write(local.addr(4096), 2)
            yield Read(remote.addr(4096))

        m.run({0: prog()})
        return monitor, {1: {local.addr(0), remote.addr(0)},
                         2: {local.addr(4096), remote.addr(4096)}}

    everything, _ = run(Monitor())
    for k in (1, 2):
        mon, lines = run(Monitor(phase_filter=k))
        # both kinds of transaction pass the filter: the remote read goes
        # through the local NC and the home memory
        assert mon.coherence_histogram.total() >= 2
        assert mon.nc_histogram.total() >= 1
        # each recorded transaction carried phase k, and every one that
        # did (by type, in the unfiltered run) was recorded
        want = everything.phase_table.cells()
        assert mon.phase_table.cells() == {c: n for c, n in want.items() if c[1] == k}
        n = mon.coherence_histogram.total() + mon.nc_histogram.total()
        assert n == mon.phase_table.total() == mon.originator_table.total()
        assert n == len(mon.trace)
        assert {addr for _k, _s, _t, addr, _r in mon.trace.recent(n)} <= lines[k]


class _TableRecordMonitor(Monitor):
    """Counts each transaction through :meth:`HistogramTable.record`."""

    def record_txn(self, kind, station_id, pkt, rec):
        if not self._in_scope(pkt):
            return
        txn = pkt.mtype.name
        row = "NotIn" if rec is None else rec.state.value + ("*" if rec.locked else "")
        states = self.coherence_histogram if kind == "mem" else self.nc_histogram
        states.record(row, txn)
        self.originator_table.record(txn, pkt.requester)
        phase = pkt.meta.get("phase")
        if phase is not None:
            self.phase_table.record(txn, phase)
        self.trace.record((kind, station_id, txn, pkt.addr, pkt.requester))


def test_monitor_swaps_halves_on_the_transaction_that_overflows():
    """``record_txn`` writes its table counts out in place, yet every
    half swap and overflow interrupt lands on the same transaction as with
    :meth:`HistogramTable.record`, with the same tables afterwards."""
    def run(monitor):
        m = Machine(small_config())
        fired = []
        for table in (monitor.coherence_histogram, monitor.nc_histogram,
                      monitor.originator_table, monitor.phase_table):
            table.overflow_limit = 7
            table.on_overflow = lambda t: fired.append(
                (t.name, m.engine.events_run, len(monitor.trace)))
        m.attach_monitor(monitor)
        HotSpot(words=8, ops=20).run(m, nprocs=8)
        return fired, [
            (t.cells(), t.active, t.overflows, t._halves, t._drained)
            for t in (monitor.coherence_histogram, monitor.nc_histogram,
                      monitor.originator_table, monitor.phase_table)
        ], monitor.trace.recent(len(monitor.trace))

    fired, tables, trace = run(Monitor())
    assert len(fired) >= 50
    assert (fired, tables, trace) == run(_TableRecordMonitor())
