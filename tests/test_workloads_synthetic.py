"""Tests for the synthetic microbenchmarks and the suite registry."""

import pytest

from repro import Machine
from repro.workloads import SUITE, make
from repro.workloads.synthetic import (
    EurekaSpin,
    FlushStorm,
    HotSpot,
    ProducerConsumer,
    UniformAccess,
)

from conftest import small_config


def test_uniform_access_completes_with_traffic():
    m = Machine(small_config())
    UniformAccess(ops=80).run(m)
    s = m.nc_stats()
    assert s.get("requests", 0) > 0


def test_hotspot_concentrates_on_one_station():
    m = Machine(small_config())
    HotSpot(ops=60, hot_station=2).run(m)
    hot_mem = m.stations[2].memory
    others = [m.stations[s].memory for s in (0, 1, 3)]
    hot_txns = sum(hot_mem.stats.counters.values())
    assert all(
        sum(mem.stats.counters.values()) <= hot_txns
        for mem in others
    )


def test_producer_consumer_asserts_internally():
    """The workload itself raises on any stale read — running to completion
    IS the sequential-consistency assertion."""
    m = Machine(small_config())
    ProducerConsumer(rounds=6, payload=4).run(m)


def test_eureka_update_and_invalidate_modes_agree_on_values():
    """Completion implies every spinner saw every round.  With the NC off,
    the §3.2 update multicast must still reach the spinners' stale copies
    (the watchdog turns a livelock into a quick failure)."""
    for nc_enabled in (True, False):
        for use_update in (False, True):
            m = Machine(small_config(nc_enabled=nc_enabled))
            m.attach_watchdog(max_events=500_000)
            EurekaSpin(announcements=3, use_update=use_update).run(m)


def test_flush_storm_verifies_all_lines():
    m = Machine(small_config())
    FlushStorm(lines_per_cpu=12).run(m)


# ----------------------------------------------------------------------
# the suite registry
# ----------------------------------------------------------------------
def test_suite_covers_figures():
    from repro.workloads import FIG13_KERNELS, FIG14_APPS, FIG15_APPS

    for name in FIG13_KERNELS + FIG14_APPS + FIG15_APPS:
        assert name in SUITE, name


def test_suite_entries_have_paper_sizes_and_kinds():
    for name, entry in SUITE.items():
        assert entry["paper"], name
        assert entry["kind"] in ("kernel", "app")
        wl = entry["test"]()
        assert wl.name == name


@pytest.mark.parametrize("name", sorted(SUITE))
def test_every_suite_workload_runs_at_test_size(name):
    m = Machine(small_config())
    wl = make(name, "test")
    result = wl.run(m, nprocs=4)
    assert result.parallel_time_ns > 0
    assert result.nprocs == 4


def test_workload_run_with_explicit_cpu_list():
    m = Machine(small_config())
    wl = make("fft", "test")
    cpus = [0, 2, 4, 6]  # one per station
    result = wl.run(m, cpus=cpus)
    assert result.nprocs == 4
    # the chosen CPUs did the work
    for c in cpus:
        assert m.cpus[c].done
    for c in (1, 3, 5, 7):
        assert m.cpus[c].program is None
