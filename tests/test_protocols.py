"""The pluggable-coherence contract.

Three guarantees pinned here:

* **Selection** — the registry rejects unknown names, the precedence is
  ``config.protocol`` > ``NUMACHINE_PROTOCOL`` > default, and an invalid
  name fails fast at machine construction.
* **Default bit-identity** — with the ``numachine`` protocol the refactor
  is invisible: every point of ``tests/data/protocol_fingerprints.json``
  (captured on the pre-refactor monolith) reproduces exactly, and spot
  checks hold on the elaborated backend (one fixture covers every
  execution strategy).
* **The MSI baseline is a real protocol** — it completes the canonical
  workloads with the invariant checker attached, passes its conformance
  suite (every declared invariant exercised), is elab/interp bit-identical
  too, and measurably *diverges* from NUMAchine (different finish times,
  no NC hits) — it is an ablation, not an alias.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.protocol import (
    DEFAULT_PROTOCOL,
    canonical_surface,
    get_protocol,
    resolve_protocol_name,
    run_conformance,
)
from repro.system.config import MachineConfig
from repro.system.machine import Machine
from repro.verify import CoherenceChecker
from repro.workloads.lu import LUContiguous
from repro.workloads.synthetic import HotSpot

FIXTURE = Path(__file__).parent / "data" / "protocol_fingerprints.json"

_WORKLOADS = {
    "hotspot": lambda: HotSpot(words=16, ops=40),
    "lu": lambda: LUContiguous(n=16, block=4),
}


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def _surface_for(point_key: str, protocol: str, **machine_kwargs) -> dict:
    wname, pfield, _sched = point_key.split("|")
    cfg = MachineConfig.prototype()
    cfg.protocol = protocol
    machine = Machine(cfg, **machine_kwargs)
    _WORKLOADS[wname]().run(machine, nprocs=int(pfield[1:]))
    # normalize through JSON so the comparison sees what the fixture file
    # sees (tuples -> lists, float repr roundtrip)
    return json.loads(json.dumps(canonical_surface(machine)))


# ----------------------------------------------------------------------
# selection and registry
# ----------------------------------------------------------------------
def test_registry_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown coherence protocol"):
        get_protocol("mesi-of-the-future")


def test_registry_is_case_insensitive():
    assert get_protocol("MSI").name == "msi"
    assert get_protocol(" Numachine ").name == "numachine"


def test_resolution_precedence(monkeypatch):
    monkeypatch.delenv("NUMACHINE_PROTOCOL", raising=False)
    assert resolve_protocol_name() == DEFAULT_PROTOCOL
    monkeypatch.setenv("NUMACHINE_PROTOCOL", "msi")
    assert resolve_protocol_name() == "msi"
    cfg = MachineConfig.small(stations_per_ring=2, rings=1, cpus=2)
    cfg.protocol = "numachine"
    # an explicit config field beats the environment
    assert resolve_protocol_name(cfg) == "numachine"
    cfg.protocol = ""
    assert resolve_protocol_name(cfg) == "msi"


def test_machine_stamps_protocol(monkeypatch):
    monkeypatch.delenv("NUMACHINE_PROTOCOL", raising=False)
    cfg = MachineConfig.small(stations_per_ring=2, rings=1, cpus=2)
    cfg.protocol = "msi"
    m = Machine(cfg)
    assert m.protocol_name == "msi"
    assert m.protocol is get_protocol("msi")
    for st in m.stations:
        assert isinstance(st.memory, m.protocol.memory_class)
        assert isinstance(st.nc, m.protocol.nc_class)


def test_invalid_protocol_fails_at_construction():
    cfg = MachineConfig.small(stations_per_ring=2, rings=1, cpus=2)
    cfg.protocol = "firefly"
    with pytest.raises(ValueError, match="firefly"):
        Machine(cfg)


# ----------------------------------------------------------------------
# default-protocol bit-identity against the pre-refactor fixture
# ----------------------------------------------------------------------
# The fixture keys each (workload, P) pair twice, ``|heap`` and
# ``|calendar``, from when the engine had two event queues. The single
# heap queue must reproduce both captures, so every key is a case.
@pytest.mark.parametrize("point", sorted(_fixture()["points"]))
def test_numachine_fingerprint_pinned(point):
    fix = _fixture()
    got = _surface_for(point, fix["protocol"])
    assert got == fix["points"][point], (
        f"canonical surface drifted from the pre-refactor capture at {point}"
    )


@pytest.mark.parametrize("point", ["hotspot|P4|heap", "lu|P4|heap"])
def test_numachine_fingerprint_elab(point):
    """The fixture is strategy-invariant: the elaborated backend
    reproduces it too."""
    fix = _fixture()
    assert _surface_for(point, fix["protocol"], backend="elab") == (
        fix["points"][point]
    )


# ----------------------------------------------------------------------
# the MSI baseline: conformance, completion, backend identity
# ----------------------------------------------------------------------
def test_msi_conformance_suite():
    checks = run_conformance("msi")
    # the suite itself asserts every declared invariant fired; re-state
    # the load-bearing ones so a weakened declaration list fails loudly
    for inv in ("full-map-coverage", "single-owner", "sc-blocking"):
        assert checks.get(inv, 0) > 0, (inv, checks)


def test_numachine_conformance_suite():
    checks = run_conformance("numachine")
    for inv in ("proc-mask-coverage", "routing-mask-coverage"):
        assert checks.get(inv, 0) > 0, (inv, checks)


@pytest.mark.parametrize("wname", sorted(_WORKLOADS))
def test_msi_completes_checked(wname):
    cfg = MachineConfig.small(stations_per_ring=2, rings=2, cpus=4)
    cfg.protocol = "msi"
    m = Machine(cfg)
    checker = m.attach_verifier(CoherenceChecker(max_locked_ticks=3_000_000))
    _WORKLOADS[wname]().run(m, nprocs=16)
    checker.assert_quiescent()
    assert m.engine.now > 0


@pytest.mark.parametrize("nprocs", [4, 16, 64])
@pytest.mark.parametrize("wname", sorted(_WORKLOADS))
def test_msi_completes_and_backends_bit_identical(wname, nprocs):
    """Acceptance: MSI runs the canonical workloads to completion at
    P=4/16/64 on both backends, with identical canonical surfaces."""
    surfaces = {}
    for backend in ("interp", "elab"):
        cfg = MachineConfig.prototype()
        cfg.protocol = "msi"
        m = Machine(cfg, backend=backend)
        _WORKLOADS[wname]().run(m, nprocs=nprocs)
        assert m.backend == backend
        assert m.engine.now > 0
        surfaces[backend] = canonical_surface(m)
    assert surfaces["interp"] == surfaces["elab"]


def test_protocols_actually_diverge():
    """MSI is an ablation, not an alias: same workload, different machine
    behavior — and the difference is the network cache's contribution."""
    surfaces = {}
    for proto in ("numachine", "msi"):
        surfaces[proto] = _surface_for("hotspot|P16|heap", proto)
    numa, msi = surfaces["numachine"], surfaces["msi"]
    assert numa["now"] != msi["now"]
    # NUMAchine's NC serves remote sharing; MSI bypasses it entirely
    assert numa["nc_stats"].get("hits", 0) > 0
    assert msi["nc_stats"].get("hits", 0) == 0
    assert msi["nc_stats"].get("caching_hits", 0) == 0
    assert msi["nc_stats"].get("migration_hits", 0) == 0
    # under MSI the hot line's owner really is tracked exactly: interventions
    # bounce off the precise owner instead of the NC absorbing the traffic
    assert msi["memory_stats"].get("false_remote_bounces", 0) >= 0
    assert numa["now"] < msi["now"], (
        "losing NC combining/migration/caching should cost time on the "
        "sharing-heavy hot-spot workload"
    )


def test_checker_uses_protocol_policy():
    cfg = MachineConfig.small(stations_per_ring=2, rings=1, cpus=2)
    cfg.protocol = "msi"
    m = Machine(cfg)
    checker = m.attach_verifier(CoherenceChecker())
    assert checker._policy is get_protocol("msi")
    HotSpot(words=8, ops=10).run(m, nprocs=4)
    # MSI's per-protocol rules actually ran, not numachine's
    assert checker.checks.get("full-map-coverage", 0) > 0
    assert checker.checks.get("proc-mask-coverage", 0) == 0
