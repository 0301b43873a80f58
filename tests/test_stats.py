"""Tests for the statistics model: plain int counts and accumulators."""

from repro import Machine, Read
from repro.obs.registry import snapshot
from repro.sim.stats import Accumulator, StatGroup

from conftest import single, tiny_config


def test_counter():
    g = StatGroup("mod")
    g.count("hits")
    g.count("hits", 5)
    g.count("misses", 0)
    assert g.counters == {"hits": 6, "misses": 0}


def test_accumulator_stats():
    g = StatGroup("mod")
    for v in (20, 10, 60):
        g.add("lat", v)
    a = g.accumulators["lat"]
    assert a.name == "mod.lat"
    assert a.count == 3
    assert a.total == 90
    assert a.mean == 30
    assert a.min == 10
    assert a.max == 60


def test_accumulator_empty_mean():
    assert Accumulator("x").mean == 0.0


def test_stat_group_lazily_creates_and_reuses():
    g = StatGroup("mod")
    assert g.counters == {} and g.accumulators == {}
    g.count("b")
    g.count("a")
    g.count("b")
    # an entry appears at its first count, in first-count order
    assert list(g.counters.items()) == [("b", 2), ("a", 1)]
    g.add("lat", 5)
    a = g.accumulators["lat"]
    g.add("lat", 7)
    assert g.accumulators["lat"] is a
    assert g.accumulator("lat") is a and a.count == 2


def test_reading_an_unknown_name_creates_nothing():
    g = StatGroup("mod")
    assert g.counters.get("hits", 0) == 0
    assert "lat" not in g.accumulators
    assert g.counters == {} and g.accumulators == {}


def test_stat_group_reset():
    """A group's accumulator resets in place (the Table 1 harness clears a
    latency accumulator this way between measurements)."""
    g = StatGroup("mod")
    g.add("lat", 10)
    a = g.accumulator("lat")
    a.reset()
    assert g.accumulators["lat"] is a
    assert (a.count, a.total, a.min, a.max) == (0, 0, None, None)
    g.add("lat", 4)
    assert (a.count, a.min, a.max) == (1, 4, 4)


def _one_remote_read():
    m = Machine(tiny_config())
    r = m.allocate(4096, placement="local:1")
    single(m, 0, Read(r.addr(0)))
    return m, snapshot(m, include_wall=False)


def test_stat_group_snapshot():
    """The machine snapshot is a group's flat view: every count and
    accumulator under ``owner.name``."""
    m, snap = _one_remote_read()
    stats = m.cpus[0].stats
    assert snap["counters"]["P0.read_misses"] == stats.counters["read_misses"] == 1
    lat = stats.accumulators["read_latency"]
    assert snap["accumulators"]["P0.read_latency"] == {
        "count": 1, "total": lat.total, "min": lat.total, "max": lat.total,
        "mean": lat.mean,
    }


def test_run_snapshot_lists_only_counted_names():
    """One remote read on a two-station machine: the snapshot names exactly
    what that read counted, the CPUs' seeded hit counts, and the bus and
    ring transfer counts every snapshot carries."""
    m, snap = _one_remote_read()
    counters = snap["counters"]
    ring = m.net.local_rings[0].name
    assert counters == {
        "P0.reads": 0, "P0.writes": 0, "P0.rmws": 0,
        "P0.read_misses": 1,
        "P1.reads": 0, "P1.writes": 0, "P1.rmws": 0,
        "S0.nc.requests": 1, "S0.nc.misses": 1,
        "S0.nc.combined_requests": 0,
        "S0.bus.transactions": 4, "S1.bus.transactions": 2,
        f"{ring}.packets": 2, f"{ring}.halts": 0,
    }
    assert list(counters)[:4] == ["P0.reads", "P0.writes", "P0.rmws", "P0.read_misses"]
