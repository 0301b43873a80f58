"""The instrumented elaborated core's contract (observability x elab).

PR 6 made any observability hook force the interpreted path; now tracer /
probe / telemetry-stream runs execute on the *instrumented* variant of the
generated specialized core.  These tests pin the contract:

* an attached ``Observability`` selects ``backend_variant == "instr"``
  under the elab backend — no interp fallback;
* the tracer records but never schedules, so a traced instrumented run is
  bit-identical in ``(events_run, now)`` — and on the full snapshot — to
  the uninstrumented plain-elab run, at P=4/16/64;
* the traces and snapshots themselves match the interpreted backend
  exactly (same stamps, same counters, same FIFO wait statistics);
* probed runs (which do add sampling events) match the interpreted
  backend probed the same way;
* codegen stays deterministic per variant, and the two variants generate
  different code;
* monitor / verifier / fault hooks still force interp.
"""

from __future__ import annotations

import pytest

from repro.elab import codegen
from repro.elab.ir import MachineIR
from repro.monitor import Monitor
from repro.obs import Observability
from repro.system.config import MachineConfig
from repro.system.machine import Machine
from repro.workloads.synthetic import HotSpot


def _fingerprint(machine: Machine) -> tuple:
    return (
        machine.engine.events_run,
        machine.engine.now,
        machine.nc_stats(),
        machine.memory_stats(),
        machine.utilizations(),
        machine.ring_interface_delays(),
    )


def _run(backend: str, nprocs: int, obs_kwargs=None, ops: int = 20):
    machine = Machine(MachineConfig.prototype(), backend=backend)
    obs = None
    if obs_kwargs is not None:
        obs = Observability(**obs_kwargs).attach(machine)
    HotSpot(words=16, ops=ops).run(machine, nprocs=nprocs)
    return machine, obs


# ----------------------------------------------------------------------
# variant selection
# ----------------------------------------------------------------------
def test_obs_selects_instrumented_elab_no_interp_fallback():
    machine, obs = _run("elab", 16, {})
    assert machine.backend == "elab"
    assert machine.backend_variant == "instr"
    assert obs.tracer.finished
    assert obs.probes.samples > 0


def test_plain_elab_has_plain_variant_and_interp_has_none():
    m_elab, _ = _run("elab", 4, None)
    assert (m_elab.backend, m_elab.backend_variant) == ("elab", "plain")
    m_interp, _ = _run("interp", 4, {})
    assert (m_interp.backend, m_interp.backend_variant) == ("interp", None)


@pytest.mark.parametrize("attach", ["monitor", "verifier"])
def test_interp_only_hooks_still_force_interp(attach):
    machine = Machine(MachineConfig.prototype(), backend="elab")
    Observability().attach(machine)
    if attach == "monitor":
        machine.attach_monitor(Monitor())
    else:
        machine.attach_verifier()
    HotSpot(words=16, ops=10).run(machine, nprocs=4)
    assert machine.backend == "interp"
    assert machine.backend_variant is None


# ----------------------------------------------------------------------
# bit-identity: traced instrumented run == uninstrumented plain run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nprocs", [4, 16, 64])
def test_traced_instr_elab_bit_identical_to_plain_elab(nprocs):
    plain, _ = _run("elab", nprocs, None)
    traced, obs = _run("elab", nprocs, {"probes": False})
    assert plain.backend_variant == "plain"
    assert traced.backend_variant == "instr"
    # the tracer records, never schedules: identical event stream
    assert traced.engine.events_run == plain.engine.events_run
    assert traced.engine.now == plain.engine.now
    assert _fingerprint(traced) == _fingerprint(plain)
    assert obs.tracer.finished


def test_traced_instr_elab_matches_interp_traces_and_snapshot():
    interp, obs_i = _run("interp", 16, {"probes": False})
    elab, obs_e = _run("elab", 16, {"probes": False})
    assert elab.backend_variant == "instr"
    assert _fingerprint(elab) == _fingerprint(interp)
    # stamp-for-stamp identical transaction traces
    ti = sorted((r.to_json() for r in obs_i.tracer.finished),
                key=lambda d: d["tid"])
    te = sorted((r.to_json() for r in obs_e.tracer.finished),
                key=lambda d: d["tid"])
    assert te == ti
    # the full unified snapshot (counters, accumulators incl. FIFO wait
    # stats, fifo depth integrals, utilizations, trace summary) matches
    assert (elab.obs_snapshot(include_wall=False)
            == interp.obs_snapshot(include_wall=False))


def test_probed_instr_elab_matches_probed_interp():
    interp, _ = _run("interp", 16, {})
    elab, _ = _run("elab", 16, {})
    assert elab.backend_variant == "instr"
    # probes add their own sampling events identically on both backends
    assert elab.engine.events_run == interp.engine.events_run
    assert elab.engine.now == interp.engine.now
    assert (elab.obs_snapshot(include_wall=False)
            == interp.obs_snapshot(include_wall=False))


# ----------------------------------------------------------------------
# codegen determinism
# ----------------------------------------------------------------------
def test_instrumented_codegen_deterministic_and_distinct():
    cfg = lambda: MachineConfig.small(stations_per_ring=2, rings=2, cpus=2)
    ir_a = MachineIR.from_machine(Machine(cfg()), instrumented=True)
    ir_b = MachineIR.from_machine(Machine(cfg()), instrumented=True)
    a, b = codegen.generate_source(ir_a), codegen.generate_source(ir_b)
    assert a == b
    plain = codegen.generate_source(
        MachineIR.from_machine(Machine(cfg()), instrumented=False)
    )
    assert plain != a
    # the plain variant must carry no tracer site at all
    assert "tracer" not in plain
    assert "self.tracer" in a


def test_variant_switch_between_runs():
    """One machine: plain run, then attach obs and run again on the
    instrumented variant — the swap happens on the drained engine."""
    machine = Machine(MachineConfig.prototype(), backend="elab")
    HotSpot(words=16, ops=10).run(machine, nprocs=4)
    assert machine.backend_variant == "plain"
    obs = Observability(probes=False).attach(machine)
    HotSpot(words=16, ops=10).run(machine, nprocs=4)
    assert machine.backend_variant == "instr"
    assert obs.tracer.finished
