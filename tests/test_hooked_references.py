"""Hooked runs reproduce references pinned before their hooks changed.

The coherence checker and the §3.3 monitor are read-only observers, and a
fault plan is a seeded perturbation, so what they record is a pure
function of the run.  ``tests/data/hooked_references.json`` holds, per
coherence protocol, what three hooked runs on the prototype record:

* ``prodcons_p16`` -- a checked and monitored ``ProducerConsumer`` at P=16;
* ``hotspot_p16`` -- a checked and monitored ``HotSpot(words=16, ops=40)``
  at P=16;
* ``faulted_p16`` -- a checked ``ProducerConsumer`` at P=16 under a
  seeded delay-class fault plan.

Each entry pins the checker's per-invariant counts, the faults the plan
triggered, and sha256 digests of ``monitor.report()``, of the trace
memory's entries and of every histogram table's ``cells()``.  Any change
to how the hooks count, record or classify a transaction shows up here,
whichever core runs.

The test uses the protocol the machine resolves (``NUMACHINE_PROTOCOL``,
default ``numachine``).  To re-pin one protocol's entry after a change
that is meant to move it::

    PYTHONPATH=src python tests/test_hooked_references.py
    NUMACHINE_PROTOCOL=msi PYTHONPATH=src python tests/test_hooked_references.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import Machine, MachineConfig
from repro.fault import FaultPlan
from repro.monitor import Monitor
from repro.protocol import resolve_protocol_name
from repro.verify import CoherenceChecker
from repro.workloads.synthetic import HotSpot, ProducerConsumer

FIXTURE = Path(__file__).parent / "data" / "hooked_references.json"

#: seed of the faulted run's plan and of its checker's replay tag
FAULT_SEED = 10
#: the monitor's histogram tables, by attribute name
TABLES = ("coherence_histogram", "nc_histogram", "originator_table", "phase_table")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _monitored(workload) -> dict:
    machine = Machine(MachineConfig.prototype())
    checker = machine.attach_verifier(CoherenceChecker())
    monitor = Monitor()
    machine.attach_monitor(monitor)
    workload.run(machine, nprocs=16)
    trace = monitor.trace
    return {
        "now": machine.engine.now,
        "checks": dict(sorted(checker.checks.items())),
        "report_sha256": _sha(monitor.report()),
        "trace_len": len(trace),
        "trace_sha256": _sha(repr(trace.recent(trace.capacity))),
        "cells_sha256": {
            name: _sha(repr(sorted(getattr(monitor, name).cells().items(), key=repr)))
            for name in TABLES
        },
    }


def _faulted() -> dict:
    cfg = MachineConfig.prototype()
    machine = Machine(cfg)
    checker = machine.attach_verifier(CoherenceChecker())
    checker.set_seed(FAULT_SEED)
    machine.attach_fault(FaultPlan.random(FAULT_SEED, cfg, horizon_ns=40_000.0))
    ProducerConsumer(rounds=8, payload=4).run(machine, nprocs=16)
    return {
        "now": machine.engine.now,
        "events": machine.engine.events_run,
        "checks": dict(sorted(checker.checks.items())),
        "triggered": dict(sorted(machine.fault.triggered.items())),
    }


RUNS = {
    "prodcons_p16": lambda: _monitored(ProducerConsumer()),
    "hotspot_p16": lambda: _monitored(HotSpot(words=16, ops=40)),
    "faulted_p16": _faulted,
}


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("run", sorted(RUNS))
def test_hooked_run_matches_reference(run):
    protocol = resolve_protocol_name()
    want = _fixture()["protocols"][protocol][run]
    got = json.loads(json.dumps(RUNS[run]()))
    assert got == want, f"{run} under {protocol} drifted from its reference"


def test_faulted_reference_triggers_faults():
    """The pinned plan really perturbs the run (else it pins nothing)."""
    protocol = resolve_protocol_name()
    ref = _fixture()["protocols"][protocol]["faulted_p16"]
    assert sum(ref["triggered"].values()) > 0


if __name__ == "__main__":
    if FIXTURE.exists():
        fixture = _fixture()
    else:
        fixture = {"config": "prototype", "protocols": {}}
    protocol = resolve_protocol_name()
    fixture["protocols"][protocol] = {name: RUNS[name]() for name in sorted(RUNS)}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"pinned {protocol}: {sorted(RUNS)} -> {FIXTURE}")
