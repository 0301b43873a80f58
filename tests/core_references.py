"""Station-core runs pinned as data, and the one command that re-pins them.

Each case below is a run that a test used to repeat on the interpreted
core (``Machine(backend="interp")``) as its reference, while a generated
station core ran by default.  What the interpreted core produced is
pinned, per coherence protocol, in ``tests/data/core_references.json``:
sha256 digests of the metrics snapshot
(``Machine.obs_snapshot(include_wall=False)``), of the canonical surface,
of the Chrome trace, of probe series and FIFO dumps, plus the checker
counts and triggered faults in the clear.  The tests run each
case once and compare its record with the pinned one:

* ``bit_identical/<workload>-<shape>`` -- ``HotSpot`` and ``LU`` on the
  prototype at P=4/16/64, on the 2-ring small config at P=8 and on the
  3-level small config at P=16 (``test_elab_backend.py``; under MSI also
  ``test_protocols.py::test_msi_completes_and_backends_bit_identical``);
* ``checked_monitored/<workload>-<P>`` -- checked and monitored runs;
* ``faulted/<P>`` -- a checked run under a plan with every fault kind;
* ``traced/<shape>`` -- a traced and probed ``HotSpot`` (``test_obs.py``);
* ``probes/<P>`` -- a probed ``HotSpot``, its series included;
* ``snapshot_small`` -- a plain ``HotSpot`` on the small config;
* ``dump_fifos`` -- the FIFOs of a watchdog dump taken mid-run
  (``test_fault.py``);
* ``backpressure_storm`` -- a hot spot behind capacity-6 ring input FIFOs
  (``test_deadlock_flowcontrol.py``);
* ``plain_iterator`` -- a program that is a plain iterator.

The suite uses the protocol the machine resolves (``NUMACHINE_PROTOCOL``,
default ``numachine``).  To re-pin one protocol's entries after a change
that is meant to move them::

    PYTHONPATH=src python tests/core_references.py
    NUMACHINE_PROTOCOL=msi PYTHONPATH=src python tests/core_references.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro import Machine, MachineConfig, Observability
from repro.cpu.ops import Read, Write
from repro.fault import FaultEvent, FaultPlan, WatchdogError
from repro.interconnect.routing import Geometry
from repro.monitor import Monitor
from repro.protocol import canonical_surface, resolve_protocol_name
from repro.workloads.lu import LUContiguous
from repro.workloads.synthetic import HotSpot, ProducerConsumer

FIXTURE = Path(__file__).parent / "data" / "core_references.json"


def sha(obj: Any) -> str:
    """sha256 of ``obj``'s canonical JSON text."""
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _snapshot(machine: Machine) -> dict:
    return machine.obs_snapshot(include_wall=False)


def _head(machine: Machine) -> dict:
    """The readable part of every record: where the run ended."""
    return {"now": machine.engine.now, "events": machine.engine.events_run}


# ----------------------------------------------------------------------
# shapes and workloads
# ----------------------------------------------------------------------
def small_2ring() -> MachineConfig:
    return MachineConfig.small(stations_per_ring=2, rings=2, cpus=2)


def small_3level() -> MachineConfig:
    cfg = MachineConfig.small()
    cfg.geometry = Geometry((2, 2, 2), processors_per_station=2)
    return cfg


#: shape id -> (config factory, processor count)
SHAPES: Dict[str, Tuple[Callable[[], MachineConfig], int]] = {
    "4": (MachineConfig.prototype, 4),
    "16": (MachineConfig.prototype, 16),
    "64": (MachineConfig.prototype, 64),
    "2ring-8": (small_2ring, 8),
    "3level-16": (small_3level, 16),
}

WORKLOADS = {
    "hotspot": lambda: HotSpot(words=16, ops=40),
    "lu": lambda: LUContiguous(n=16, block=4),
}

CHECKED = {
    "prodcons": lambda: ProducerConsumer(rounds=10),
    "hotspot": lambda: HotSpot(words=16, ops=40),
}


def every_fault_plan() -> FaultPlan:
    """Every fault kind, plus the FIFO and nonsinkable-credit squeezes;
    the run completes under both protocols."""
    return FaultPlan(
        seed=4,
        events=[
            FaultEvent("link_stall", 2_000.0,
                       {"ring": "central", "pos": 1, "duration_ns": 3_000.0}),
            FaultEvent("link_stall", 1_000.0,
                       {"ring": "local:0", "pos": 2, "duration_ns": 2_000.0}),
            FaultEvent("service_spike", 1_500.0,
                       {"target": "mem", "station": 0, "duration_ns": 5_000.0,
                        "factor": 4}),
            FaultEvent("service_spike", 500.0,
                       {"target": "nc", "station": 1, "duration_ns": 5_000.0,
                        "factor": 3}),
            FaultEvent("packet_delay", 0.0,
                       {"station": 1, "duration_ns": 8_000.0, "prob": 0.3,
                        "delay_ns": 800.0}),
            FaultEvent("packet_dup", 0.0,
                       {"station": 2, "duration_ns": 8_000.0, "prob": 0.2}),
        ],
        in_fifo_capacity=8,
        nonsink_limit=2,
    )


# ----------------------------------------------------------------------
# the cases: each returns (record, what its test inspects further)
# ----------------------------------------------------------------------
def _bit_identical(workload: str, shape: str):
    config, nprocs = SHAPES[shape]
    machine = Machine(config())
    WORKLOADS[workload]().run(machine, nprocs=nprocs)
    return {**_head(machine), "snapshot_sha256": sha(_snapshot(machine))}, machine


def _checked_monitored(workload: str, nprocs: int):
    machine = Machine(MachineConfig.prototype())
    checker = machine.attach_verifier()
    monitor = Monitor()
    machine.attach_monitor(monitor)
    CHECKED[workload]().run(machine, nprocs=nprocs)
    trace = monitor.trace.recent(len(monitor.trace))
    record = {
        **_head(machine),
        "snapshot_sha256": sha(_snapshot(machine)),
        "checks": dict(sorted(checker.checks.items())),
        "report_sha256": sha(monitor.report()),
        "trace_len": len(trace),
        "trace_sha256": sha(repr(trace)),
    }
    return record, (checker, trace)


def _faulted(nprocs: int):
    machine = Machine(MachineConfig.prototype())
    checker = machine.attach_verifier()
    fault = machine.attach_fault(every_fault_plan())
    HotSpot(words=16, ops=40).run(machine, nprocs=nprocs)
    record = {
        **_head(machine),
        "snapshot_sha256": sha(_snapshot(machine)),
        "triggered": dict(sorted(fault.triggered.items())),
        "checks": dict(sorted(checker.checks.items())),
    }
    return record, fault


#: traced shape id -> (config factory, processor count, HotSpot ops)
TRACED = {
    "2ring-8": (MachineConfig.small, 8, 60),
    "4": (MachineConfig.prototype, 4, 20),
    "16": (MachineConfig.prototype, 16, 20),
    "64": (MachineConfig.prototype, 64, 20),
}


def _traced(shape: str):
    config, nprocs, ops = TRACED[shape]
    machine = Machine(config())
    Observability().attach(machine)
    HotSpot(words=16, ops=ops).run(machine, nprocs=nprocs)
    snap = _snapshot(machine)
    record = {
        **_head(machine),
        "snapshot_sha256": sha(snap),
        "trace_finished": snap["trace"]["finished"],
        "probes_sha256": sha(snap["probes"]),
        "chrome_trace_sha256": sha(machine.obs.chrome_trace()),
    }
    return record, machine


def _probes(nprocs: int):
    machine = Machine(MachineConfig.prototype())
    obs = Observability(trace=False, probe_period_ns=4000.0).attach(machine)
    HotSpot(words=16, ops=20).run(machine, nprocs=nprocs)
    record = {
        **_head(machine),
        "snapshot_sha256": sha(_snapshot(machine)),
        "surface_sha256": sha(canonical_surface(machine)),
        "samples": obs.probes.samples,
        "series_sha256": sha(obs.probes.series()),
    }
    return record, obs


def _snapshot_small():
    machine = Machine(MachineConfig.small())
    HotSpot(words=16, ops=50).run(machine, nprocs=4)
    snap = _snapshot(machine)
    return {**_head(machine), "snapshot_sha256": sha(snap)}, snap


def _dump_fifos():
    machine = Machine(MachineConfig.small())
    machine.attach_watchdog(max_events=800, interval=100)
    try:
        HotSpot(words=16, ops=50).run(machine, nprocs=4)
    except WatchdogError as exc:
        fifos = exc.dump["fifos"]
    else:
        raise AssertionError("the watchdog never tripped")
    return {**_head(machine), "fifos_sha256": sha(fifos)}, fifos


def _backpressure_storm():
    cfg = MachineConfig.prototype()
    cfg.ring_in_fifo_capacity = 6
    machine = Machine(cfg)
    HotSpot(words=8, ops=60).run(machine, nprocs=16)
    halts = sum(ring.halts for ring in machine.net.rings.values())
    record = {
        **_head(machine),
        "halts": halts,
        "surface_sha256": sha(canonical_surface(machine)),
        "snapshot_sha256": sha(_snapshot(machine)),
    }
    return record, halts


def _plain_iterator():
    machine = Machine(small_2ring())
    a = machine.allocate(64, placement="local:0").addr(0)
    # a program without ``send`` gets next()
    machine.run({0: iter([Write(a, 1), Read(a), Read(a), Write(a, 2)])})
    return {**_head(machine), "snapshot_sha256": sha(_snapshot(machine))}, (
        machine, a
    )


CASES: Dict[str, Callable[[], tuple]] = {
    **{
        f"bit_identical/{w}-{s}": (lambda w=w, s=s: _bit_identical(w, s))
        for w in WORKLOADS for s in SHAPES
    },
    "checked_monitored/prodcons-16": lambda: _checked_monitored("prodcons", 16),
    "checked_monitored/hotspot-64": lambda: _checked_monitored("hotspot", 64),
    "faulted/16": lambda: _faulted(16),
    "faulted/64": lambda: _faulted(64),
    **{f"traced/{s}": (lambda s=s: _traced(s)) for s in TRACED},
    "probes/16": lambda: _probes(16),
    "probes/64": lambda: _probes(64),
    "snapshot_small": _snapshot_small,
    "dump_fifos": _dump_fifos,
    "backpressure_storm": _backpressure_storm,
    "plain_iterator": _plain_iterator,
}


# ----------------------------------------------------------------------
# lookups
# ----------------------------------------------------------------------
def expected(case: str, protocol: Optional[str] = None) -> dict:
    """The pinned record of ``case`` under ``protocol`` (default: the
    protocol the machine resolves)."""
    protocol = protocol or resolve_protocol_name()
    fixture = json.loads(FIXTURE.read_text())
    return fixture["protocols"][protocol][case]


def check(case: str):
    """Run ``case``, assert its record equals the pinned one, and return
    what its test inspects further."""
    record, extra = CASES[case]()
    protocol = resolve_protocol_name()
    want = expected(case, protocol)
    got = json.loads(json.dumps(record))
    assert got == want, f"{case} under {protocol} drifted from its reference"
    return extra


if __name__ == "__main__":
    if FIXTURE.exists():
        fixture = json.loads(FIXTURE.read_text())
    else:
        fixture = {"protocols": {}}
    protocol = resolve_protocol_name()
    fixture["protocols"][protocol] = {
        case: json.loads(json.dumps(run()[0])) for case, run in sorted(CASES.items())
    }
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"pinned {protocol}: {len(CASES)} cases -> {FIXTURE}")
