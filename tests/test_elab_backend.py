"""The station core against references pinned from the interpreted core.

Every machine runs one set of station classes.  Before the generated
station core was folded into them, the tests compared each default run
with the same run on the interpreted classes; what those produced is
pinned in ``tests/data/core_references.json`` (see
``tests/core_references.py``).  Each case here runs once and is compared
with its reference: the whole metrics snapshot
(``Machine.obs_snapshot(include_wall=False)``: event count, simulated
time, every counter, accumulator and FIFO statistic, utilizations) for
every machine shape, workload and processor count, and every checker
count, monitor table and triggered fault of the hooked runs.  The
``backend=`` label, kept only for the numabench harness, is checked too.
"""

from __future__ import annotations

import pytest

import core_references
from repro.system.config import MachineConfig
from repro.system.machine import Machine


# ----------------------------------------------------------------------
# bit-identity with the interpreted core's pinned references:
# machine x P x workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", sorted(core_references.SHAPES))
@pytest.mark.parametrize("workload", sorted(core_references.WORKLOADS))
def test_backends_bit_identical(workload, shape):
    core_references.check(f"bit_identical/{workload}-{shape}")


# ----------------------------------------------------------------------
# the checker, the monitor and fault plans against the pinned references
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "workload, nprocs", [("prodcons", 16), ("hotspot", 64)]
)
def test_checked_and_monitored_run_matches_interp(workload, nprocs):
    checker, trace = core_references.check(
        f"checked_monitored/{workload}-{nprocs}"
    )
    assert sum(checker.checks.values()) > 0 and trace


@pytest.mark.parametrize("nprocs", [16, 64])
def test_faulted_run_matches_interp(nprocs):
    fault = core_references.check(f"faulted/{nprocs}")
    assert all(fault.triggered.values()), fault.triggered


# ----------------------------------------------------------------------
# the backend= label (numabench only)
# ----------------------------------------------------------------------
def test_unknown_backend_is_rejected():
    cfg = MachineConfig.small(stations_per_ring=2, rings=2, cpus=2)
    for backend in ("jit", "auto"):
        with pytest.raises(ValueError):
            Machine(cfg, backend=backend)
    # the label is echoed and changes nothing else
    labels = {b: Machine(cfg, backend=b).backend for b in (None, "elab", "interp")}
    assert labels == {None: "elab", "elab": "elab", "interp": "interp"}
