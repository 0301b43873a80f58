"""Tests for the fault-injection harness (repro.fault).

The contract under test, per fault class:

* **delay-class** faults (link stalls, packet delay, service-time spikes,
  FIFO/credit squeezes) reshuffle timing but may never change *results* —
  a commutative counter workload must end with the analytically known
  final memory values, fault plan or not.
* **loss-class** faults (packet duplication, permanent stalls) may break
  the protocol by design — the run must then *detect and report* (an
  invariant violation or a watchdog dump), never silently corrupt data or
  hang.

Plus: same seed + plan replays the identical event stream, and the
watchdog converts both flavours of "nothing happens anymore" (drained
queue, runaway spin) into a diagnostic :class:`WatchdogError`.
"""

from __future__ import annotations

import pytest

from repro import Barrier, Compute, Machine, MachineConfig, Read
from repro.cpu.ops import AtomicRMW
from repro.fault import (
    FaultEvent,
    FaultPlan,
    Watchdog,
    WatchdogError,
    diagnostic_dump,
)
from repro.verify import CoherenceChecker, InvariantViolation


def _small():
    return MachineConfig.small(stations_per_ring=2, rings=2, cpus=4)


WORDS, INCS = 8, 20


def _counter_run(machine, nprocs=4):
    """Commutative atomic increments with an analytic oracle: returns
    (final values, expected values)."""
    cfg = machine.config
    # homed on station 1 while the active CPUs sit on station 0: every
    # access crosses the ring, so link/packet faults are on the data path
    arr = machine.allocate(WORDS * cfg.word_bytes, placement="local:1",
                           name="ctr")
    cpus = tuple(range(nprocs))

    def worker(tid):
        yield Barrier(0, cpus)
        for k in range(INCS):
            yield AtomicRMW(arr.addr(((tid + k) % WORDS) * cfg.word_bytes),
                            lambda v: v + 1)
            yield Compute(4)
        yield Barrier(1, cpus)

    machine.run({cpu: worker(tid) for tid, cpu in enumerate(cpus)})
    machine.flush_all_dirty()
    got = [machine.read_word(arr.addr(i * cfg.word_bytes))
           for i in range(WORDS)]
    want = [0] * WORDS
    for tid in range(nprocs):
        for k in range(INCS):
            want[(tid + k) % WORDS] += 1
    return got, want


def _delay_plan():
    return FaultPlan(seed=7, events=[
        FaultEvent("link_stall", 3_000.0,
                   {"ring": "local:0", "pos": 1, "duration_ns": 5_000.0}),
        FaultEvent("packet_delay", 1_000.0,
                   {"station": 1, "duration_ns": 8_000.0, "prob": 0.4,
                    "delay_ns": 600.0}),
        FaultEvent("service_spike", 2_000.0,
                   {"target": "mem", "station": 0, "duration_ns": 6_000.0,
                    "factor": 6}),
    ])


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------
def test_fault_class_classification():
    assert _delay_plan().fault_class() == "delay"
    dup = FaultPlan(seed=1, events=[
        FaultEvent("packet_dup", 0.0, {"station": 0, "duration_ns": 1e4,
                                       "prob": 0.2})])
    assert dup.fault_class() == "loss"
    perm = FaultPlan(seed=1, events=[
        FaultEvent("link_stall", 0.0,
                   {"ring": "local:0", "pos": 0, "permanent": True})])
    assert perm.fault_class() == "loss"


def test_random_plans_are_seed_deterministic():
    cfg = _small()
    a = FaultPlan.random(42, cfg, allow_loss=True)
    b = FaultPlan.random(42, cfg, allow_loss=True)
    assert a.describe() == b.describe()
    assert FaultPlan.random(43, cfg).describe() != a.describe()


def test_unknown_fault_kind_rejected():
    with pytest.raises(ValueError):
        FaultEvent("bit_flip", 0.0, {})


# ----------------------------------------------------------------------
# delay-class: timing changes, results don't
# ----------------------------------------------------------------------
def test_delay_faults_preserve_final_memory():
    clean = Machine(_small())
    got, want = _counter_run(clean)
    assert got == want

    faulted = Machine(_small())
    faulted.attach_fault(_delay_plan())
    got_f, want_f = _counter_run(faulted)
    assert got_f == want_f == want
    # the plan really did something: faults fired and time moved
    assert sum(faulted.fault.triggered.values()) > 0
    assert faulted.engine.now != clean.engine.now


def test_fault_injection_is_deterministic():
    def fingerprint():
        machine = Machine(_small())
        machine.attach_fault(_delay_plan())
        _counter_run(machine)
        return machine.engine.now, machine.engine.events_run

    assert fingerprint() == fingerprint()


def test_fifo_and_credit_squeeze_still_completes():
    machine = Machine(_small())
    machine.attach_fault(FaultPlan(seed=3, events=[],
                                   in_fifo_capacity=8, nonsink_limit=2))
    machine.attach_verifier(CoherenceChecker())
    got, want = _counter_run(machine)
    assert got == want


def test_delay_faults_pass_the_invariant_checker():
    machine = Machine(_small())
    machine.attach_verifier(CoherenceChecker())
    machine.attach_fault(_delay_plan())
    got, want = _counter_run(machine)
    assert got == want


# ----------------------------------------------------------------------
# loss-class: must detect-and-report, never corrupt silently
# ----------------------------------------------------------------------
def test_loss_faults_detect_or_stay_harmless():
    machine = Machine(_small())
    machine.attach_verifier(CoherenceChecker(max_locked_ticks=500_000))
    machine.attach_watchdog(max_ticks=50_000_000, interval=2_000)
    machine.attach_fault(FaultPlan(seed=9, events=[
        FaultEvent("packet_dup", 500.0,
                   {"station": 0, "duration_ns": 50_000.0, "prob": 1.0}),
    ]))
    try:
        got, want = _counter_run(machine)
    except (InvariantViolation, WatchdogError):
        return  # detected and reported: the required outcome
    # duplication happened to be absorbed -- then data must still be right
    assert got == want


# ----------------------------------------------------------------------
# watchdog: silent hangs become diagnostic dumps
# ----------------------------------------------------------------------
def test_watchdog_requires_a_bound():
    with pytest.raises(ValueError):
        Watchdog(Machine(_small()))


def test_watchdog_wraps_barrier_deadlock_with_dump():
    machine = Machine(_small())
    machine.attach_watchdog(max_ticks=10_000_000)

    def lonely(tid):
        yield Barrier(0, (0, 1))  # partner never arrives

    with pytest.raises(WatchdogError) as exc_info:
        machine.run({0: lonely(0)})
    msg = str(exc_info.value)
    assert "watchdog diagnostic dump" in msg
    assert "barrier" in msg  # the blocked component is named
    assert exc_info.value.dump["blocked"]


def test_watchdog_bounds_a_spin_livelock():
    machine = Machine(_small())
    machine.attach_watchdog(max_ticks=1_000_000, interval=200)
    flag = machine.allocate(64, placement="local:1", name="flag")

    def spinner(tid):
        while True:  # the flag is never set: spins forever
            v = yield Read(flag.addr(0))
            if v:
                break
            yield Compute(50)

    with pytest.raises(WatchdogError) as exc_info:
        machine.run({0: spinner(0)})
    dump = exc_info.value.dump
    assert dump["now_ticks"] > 1_000_000
    assert dump["events_run"] > 0


def test_diagnostic_dump_shape():
    machine = Machine(_small())
    dump = diagnostic_dump(machine)
    for key in ("now_ticks", "now_ns", "events_run", "pending_events",
                "blocked", "fifos", "locked_memory_lines",
                "locked_nc_lines", "ring_interfaces", "in_flight"):
        assert key in dump, key


def test_fuzz_seed_12_msi_replays(monkeypatch):
    """Fuzzer seed 12 under MSI must keep reproducing its scenario: the
    seed derivation (workload, placement, fault plan) is pinned, and the
    run exercises MSI's write-back/intervention race, which once
    livelocked."""
    import importlib.util
    from pathlib import Path

    bench = Path(__file__).resolve().parent.parent / "benchmarks"
    monkeypatch.syspath_prepend(str(bench))
    monkeypatch.setenv("NUMACHINE_PROTOCOL", "msi")
    spec = importlib.util.spec_from_file_location(
        "fuzz_protocol", bench / "fuzz_protocol.py"
    )
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)

    rec = fuzz.fuzz_one(12, [4, 16])
    assert rec["ok"], rec.get("error")
    assert rec["protocol"] == "msi"
    assert (rec["nprocs"], rec["workload"], rec["spread"]) == (16, "prodcons", True)
    assert rec["events"] == 75277
    assert rec["plan"].startswith("seed=804779144 ")
