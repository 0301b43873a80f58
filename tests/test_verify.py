"""Tests for the runtime coherence invariant checker (repro.verify).

Two halves:

* **Firing tests** — for each invariant, build the smallest illegal state
  by hand (directly mutating directories / caches, then calling the
  checker hook a real module would call) and assert the checker raises an
  :class:`InvariantViolation` naming that invariant.  The simulator never
  produces these states on its own, which is the point: the checker must
  catch protocol bugs, and the only way to test that is to commit one.
* **Clean-run + bit-identity tests** — real workloads at P=4 and P=16
  complete with the checker attached, every invariant class actually gets
  exercised, and a checked run replays the *exact* same event stream as
  an unchecked one (the read-only guarantee).
"""

from __future__ import annotations

import pytest

from repro import Machine, MachineConfig, Observability
from repro.cache.nc_array import NCLine
from repro.core.states import CacheState, LineState
from repro.verify import CoherenceChecker, InvariantViolation
from repro.workloads.lu import LUContiguous
from repro.workloads.synthetic import HotSpot

from conftest import small_config


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
@pytest.fixture
def checked_machine():
    machine = Machine(small_config())
    checker = machine.attach_verifier(CoherenceChecker())
    return machine, checker


def _local_line(machine, station=0):
    """A line address homed at ``station``, plus its home memory module."""
    region = machine.allocate(64, placement=f"local:{station}")
    la = machine.config.line_addr(region.addr(0))
    return la, machine.stations[station].memory


def expect_violation(invariant: str):
    return pytest.raises(InvariantViolation, match=rf"\[{invariant}\]")


# ----------------------------------------------------------------------
# firing tests: one hand-built illegal state per invariant
# ----------------------------------------------------------------------
def test_single_writer_fires(checked_machine):
    machine, checker = checked_machine
    la, _ = _local_line(machine)
    writer = machine.stations[0].cpus[0]
    remote = machine.stations[1].cpus[0]
    writer.l2.install(la, CacheState.DIRTY, [0])
    remote.l2.install(la, CacheState.DIRTY, [0])  # two dirty owners: illegal
    with expect_violation("single-writer"):
        checker.cpu_fill(writer, la, exclusive=True, consumed=True)


def test_single_writer_fires_on_stale_nc_claim(checked_machine):
    machine, checker = checked_machine
    la, _ = _local_line(machine)
    writer = machine.stations[0].cpus[0]
    writer.l2.install(la, CacheState.DIRTY, [0])
    # the writer's own NC still claims a valid copy of the line
    machine.stations[0].nc.array.insert(NCLine(addr=la, state=LineState.GV))
    with expect_violation("single-writer"):
        checker.cpu_fill(writer, la, exclusive=True, consumed=True)


def test_writer_reader_exclusion_fires(checked_machine):
    machine, checker = checked_machine
    la, _ = _local_line(machine)
    writer, reader = machine.stations[0].cpus[:2]
    writer.l2.install(la, CacheState.DIRTY, [0])
    reader.l2.install(la, CacheState.SHARED, [0])  # same-station reader
    with expect_violation("writer-reader-exclusion"):
        checker.cpu_fill(writer, la, exclusive=True, consumed=True)


def test_writer_reader_exclusion_fires_on_read_fill(checked_machine):
    machine, checker = checked_machine
    la, _ = _local_line(machine)
    reader, writer = machine.stations[0].cpus[:2]
    writer.l2.install(la, CacheState.DIRTY, [0])
    reader.l2.install(la, CacheState.SHARED, [0])
    with expect_violation("writer-reader-exclusion"):
        checker.cpu_fill(reader, la, exclusive=False, consumed=True)


def test_proc_mask_coverage_fires(checked_machine):
    machine, checker = checked_machine
    la, mem = _local_line(machine)
    entry = mem.directory.entry(la)
    entry.state = LineState.LV
    entry.proc_mask = 0  # ...but a local L2 holds a readable copy
    machine.stations[0].cpus[1].l2.install(la, CacheState.SHARED, [0])
    with expect_violation("proc-mask-coverage"):
        checker.observe(mem, la)


def test_routing_mask_coverage_fires_on_empty_gi_mask(checked_machine):
    machine, checker = checked_machine
    la, mem = _local_line(machine)
    entry = mem.directory.entry(la)
    entry.state = LineState.GI  # a remote owner exists...
    mem.directory.clear_stations(entry)  # ...but the mask names nobody
    with expect_violation("routing-mask-coverage"):
        checker.observe(mem, la)


def test_routing_mask_coverage_fires_on_uncovered_nc_copy(checked_machine):
    machine, checker = checked_machine
    la, mem = _local_line(machine)
    entry = mem.directory.entry(la)
    entry.state = LineState.GV
    mem.directory.clear_stations(entry)  # mask says: no remote copies
    # ...yet a remote NC holds the line valid, with no invalidation in flight
    machine.stations[1].nc.array.insert(NCLine(addr=la, state=LineState.GV))
    with expect_violation("routing-mask-coverage"):
        checker.observe(mem, la)


def test_legal_transition_fires_on_gv_to_lv(checked_machine):
    machine, checker = checked_machine
    la, mem = _local_line(machine)
    entry = mem.directory.entry(la)
    entry.state = LineState.GV
    checker.observe(mem, la)  # observe GV, unlocked
    entry.state = LineState.LV  # GV -> LV without a locked round: illegal
    with expect_violation("legal-transition"):
        checker.observe(mem, la)


def test_legal_transition_fires_on_locked_state_change(checked_machine):
    machine, checker = checked_machine
    la, mem = _local_line(machine)
    entry = mem.directory.entry(la)
    entry.state = LineState.LV
    entry.locked = True
    checker.observe(mem, la)
    entry.state = LineState.GI  # state must be frozen while locked
    with expect_violation("legal-transition"):
        checker.observe(mem, la)


def test_locked_liveness_fires_at_quiescence(checked_machine):
    machine, checker = checked_machine
    la, mem = _local_line(machine)
    entry = mem.directory.entry(la)
    entry.locked = True  # still locked after the run drained
    with expect_violation("locked-liveness"):
        checker.assert_quiescent()


def test_locked_liveness_fires_on_stuck_lock(checked_machine):
    machine, checker = checked_machine
    checker.max_locked_ticks = -1  # any locked dwell overruns the bound
    la, mem = _local_line(machine)
    entry = mem.directory.entry(la)
    entry.state = LineState.LV
    entry.locked = True
    with expect_violation("locked-liveness"):
        checker.observe(mem, la)


def test_sc_blocking_fires_on_double_issue(checked_machine):
    machine, checker = checked_machine
    cpu = machine.cpus[0]
    checker.cpu_issue(cpu, 0x100)
    with expect_violation("sc-blocking"):
        checker.cpu_issue(cpu, 0x200)  # second miss while one outstanding


def test_nonsink_priority_fires_on_credit_overflow(checked_machine):
    machine, checker = checked_machine
    ri = machine.stations[0].ring_interface
    ri._nonsink_credits = ri.nonsink_limit + 1
    with expect_violation("nonsink-priority"):
        checker.ri_credit(ri)


def test_nonsink_priority_fires_on_wrong_drain_order(checked_machine):
    machine, checker = checked_machine
    ri = machine.stations[0].ring_interface
    ri.sink_q.push(object(), machine.engine.now)
    with expect_violation("nonsink-priority"):
        checker.ri_drain(ri, None, "nonsink")


def test_violation_carries_reproduction_context(checked_machine):
    machine, checker = checked_machine
    checker.set_seed(12345)
    cpu = machine.cpus[0]
    checker.cpu_issue(cpu, 0x100)
    with pytest.raises(InvariantViolation) as exc_info:
        checker.cpu_issue(cpu, 0x200)
    exc = exc_info.value
    assert exc.invariant == "sc-blocking"
    assert exc.seed == 12345
    assert exc.line_addr == 0x200
    assert "seed=12345" in str(exc)


# ----------------------------------------------------------------------
# clean runs: real workloads never trip the checker
# ----------------------------------------------------------------------
def _checked_run(workload, nprocs):
    cfg = MachineConfig.small(stations_per_ring=2, rings=2, cpus=4)
    machine = Machine(cfg)
    checker = machine.attach_verifier(CoherenceChecker())
    workload.run(machine, nprocs=nprocs)
    return machine, checker


@pytest.mark.parametrize("nprocs", [4, 16])
def test_hotspot_runs_clean_under_checker(nprocs):
    # hot_station=1 keeps the traffic remote even when all active CPUs fit
    # on station 0 (P=4), so the global states get exercised at both sizes
    machine, checker = _checked_run(HotSpot(words=16, ops=30, hot_station=1), nprocs)
    assert machine.engine.events_run > 0
    # every invariant class must actually have been exercised
    for inv in (
        "single-writer",
        "writer-reader-exclusion",
        "proc-mask-coverage",
        "routing-mask-coverage",
        "legal-transition",
        "locked-liveness",
        "sc-blocking",
        "nonsink-priority",
    ):
        assert checker.checks.get(inv, 0) > 0, f"{inv} never checked"


@pytest.mark.parametrize("nprocs", [4, 16])
def test_lu_runs_clean_under_checker(nprocs):
    machine, checker = _checked_run(LUContiguous(n=16, block=4), nprocs)
    assert machine.engine.events_run > 0
    assert sum(checker.checks.values()) > 0


# ----------------------------------------------------------------------
# the read-only guarantee: checked runs are bit-identical
# ----------------------------------------------------------------------
def _hotspot_fingerprint(nprocs, checked):
    cfg = MachineConfig.small(stations_per_ring=2, rings=2, cpus=4)
    machine = Machine(cfg)
    if checked:
        machine.attach_verifier(CoherenceChecker())
    HotSpot(words=16, ops=30).run(machine, nprocs=nprocs)
    return machine.engine.now, machine.engine.events_run


@pytest.mark.parametrize("nprocs", [4, 16])
def test_checker_is_bit_identical(nprocs):
    assert _hotspot_fingerprint(nprocs, checked=False) == _hotspot_fingerprint(
        nprocs, checked=True
    )


def test_checker_and_tracer_attached_after_a_run_observe_the_next_run():
    machine = Machine(MachineConfig.small(stations_per_ring=2, rings=2, cpus=2))
    HotSpot(words=16, ops=20).run(machine, nprocs=4)
    checker = machine.attach_verifier()
    obs = Observability(probes=False)
    machine.attach_observability(obs)
    HotSpot(words=16, ops=20).run(machine, nprocs=4)
    assert sum(checker.checks.values()) > 0
    assert obs.tracer.finished
