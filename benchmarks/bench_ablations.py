"""Ablations for the design choices DESIGN.md calls out.

Each compares the prototype configuration against a machine with one
mechanism disabled or substituted, over a fixed mixed workload set:

* **sc_locking** — §2.3's claim: enforcing sequential consistency by
  holding write data until the ordered invalidation returns costs only
  ~2% overall ("only a 2% difference in overall performance was noted").
* **network cache** — remove the NC (DASH-RAC-style passthrough): remote
  sharing gets dramatically more expensive.
* **routing masks** — exact per-line station sets instead of the paper's
  inexact OR-masks: measures the traffic the imprecision adds (small) vs
  the directory bits it saves (large).
* **optimistic upgrade** — always sending data with upgrade grants wastes
  bandwidth for no latency win.
* **ring hierarchy** — the 4x4 two-level hierarchy vs one flat 16-station
  ring with the same processor count.
* **coherence protocol** — the full NUMAchine protocol vs the flat
  full-map MSI baseline (``config.protocol = "msi"``: exact global sharer
  map, network cache bypassed) — what do the hierarchical masks and the
  NC buy, end to end?

Besides the pytest-benchmark entry points, this file is an executable:

    python benchmarks/bench_ablations.py [--procs 16,64]   # protocol table
    python benchmarks/bench_ablations.py --check           # fingerprint gate

``--check`` re-runs every point of ``tests/data/protocol_fingerprints.json``
and asserts the default protocol's canonical surface is bit-identical —
the same gate ``tests/test_protocols.py`` applies, available to CI steps
that do not run the test suite.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import bench_config, paper_note, print_series, run_workload

from repro.interconnect.routing import Geometry

#: a mixed set covering sharing-heavy, all-to-all and locality-friendly
WORKLOADS = ["fft", "ocean", "water_nsq", "barnes"]
PROCS = 16


def _total_time(config_factory) -> float:
    total = 0.0
    for name in WORKLOADS:
        # spread across the hierarchy so ring-level mechanisms are in play
        _m, t = run_workload(name, PROCS, config_factory(), spread=True)
        total += t
    return total


def test_ablation_sc_locking(benchmark):
    def run():
        return {
            "locked": _total_time(lambda: bench_config(sc_locking=True)),
            "unlocked": _total_time(lambda: bench_config(sc_locking=False)),
        }

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    overhead = r["locked"] / r["unlocked"] - 1
    print_series(
        "Ablation: sequential-consistency locking",
        ["config", "total us"],
        [["sc locking", r["locked"] / 1e3], ["no locking", r["unlocked"] / 1e3],
         ["overhead %", 100 * overhead]],
    )
    paper_note("'only a 2% difference in overall performance was noted'")
    # same sign and magnitude class as the paper: a small, single-digit cost
    assert -0.02 <= overhead <= 0.10, overhead


def test_ablation_network_cache(benchmark):
    def run():
        return {
            "with_nc": _total_time(lambda: bench_config(nc_enabled=True)),
            "without_nc": _total_time(lambda: bench_config(nc_enabled=False)),
        }

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    slowdown = r["without_nc"] / r["with_nc"]
    print_series(
        "Ablation: network cache removed",
        ["config", "total us"],
        [["with NC", r["with_nc"] / 1e3], ["without NC", r["without_nc"] / 1e3],
         ["slowdown x", slowdown]],
    )
    paper_note("the NC's migration/caching/combining effects motivate §3.1.4")
    assert slowdown > 1.0, "removing the network cache should hurt"


def test_ablation_routing_masks(benchmark):
    def run():
        out = {}
        for mode, exact in (("inexact", False), ("exact", True)):
            total = 0.0
            invs = 0
            ignored = 0
            for name in WORKLOADS:
                machine, t = run_workload(
                    name, PROCS, bench_config(exact_sharers=exact), spread=True
                )
                total += t
                invs += machine.memory_stats().get("invalidates_sent", 0)
                ignored += machine.nc_stats().get("invalidate_ignored_gi", 0)
            out[mode] = {"time": total, "invs": invs, "ignored": ignored}
        return out

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(
        "Ablation: inexact OR-masks vs exact station sets",
        ["config", "total us", "invalidations", "ignored (over-delivered)"],
        [[mode, v["time"] / 1e3, v["invs"], v["ignored"]] for mode, v in r.items()],
    )
    paper_note("'the extra traffic ... is small and represents a good tradeoff'")
    # the paper's claim: imprecision costs little time ...
    assert r["inexact"]["time"] <= r["exact"]["time"] * 1.10
    # ... while the OR-mask stores exponentially fewer directory bits: the
    # sum of level widths instead of one bit (or more) per station
    from repro.interconnect.routing import Geometry, RoutingMaskCodec

    geom = bench_config().geometry
    codec = RoutingMaskCodec(geom)
    assert codec.total_bits == sum(geom.levels)
    assert codec.total_bits < geom.num_stations


def test_ablation_optimistic_upgrade(benchmark):
    def run():
        out = {}
        for mode, optimistic in (("optimistic", True), ("pessimistic", False)):
            total = 0.0
            data_sent = 0
            for name in WORKLOADS:
                machine, t = run_workload(
                    name, PROCS, bench_config(optimistic_upgrade=optimistic),
                    spread=True,
                )
                total += t
                data_sent += machine.memory_stats().get("upgrade_data_sent", 0)
            out[mode] = {"time": total, "data_sent": data_sent}
        return out

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(
        "Ablation: optimistic (ack-only) vs pessimistic (data) upgrades",
        ["config", "total us", "upgrade data responses"],
        [[m, v["time"] / 1e3, v["data_sent"]] for m, v in r.items()],
    )
    paper_note("'the simulation results ... indicate that the optimistic "
               "choice is the right one' (§4.6)")
    # pessimism sends strictly more line data
    assert r["pessimistic"]["data_sent"] > r["optimistic"]["data_sent"]
    # and buys no meaningful time
    assert r["optimistic"]["time"] <= r["pessimistic"]["time"] * 1.05


def test_ablation_ring_hierarchy(benchmark):
    def hier():
        return bench_config()

    def flat():
        cfg = bench_config()
        cfg.geometry = Geometry((16,), processors_per_station=4)
        return cfg

    def run():
        return {
            "two-level 4x4": _total_time(hier),
            "flat 16-ring": _total_time(flat),
        }

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = r["flat 16-ring"] / r["two-level 4x4"]
    print_series(
        "Ablation: ring hierarchy vs one flat ring",
        ["config", "total us"],
        [[k, v / 1e3] for k, v in r.items()] + [["flat/hier x", ratio]],
    )
    paper_note("'transfer times are considerably shorter than if all "
               "stations were connected by a single ring' (§2)")
    # the flat ring's longer average path should not win
    assert ratio > 0.9


# ----------------------------------------------------------------------
# coherence-protocol ablation (also the CLI entry point below)
# ----------------------------------------------------------------------
#: canonical protocol-comparison workloads — the same pair the fingerprint
#: fixture pins, so CLI numbers and pinned numbers share one surface
def _protocol_workloads():
    from repro.workloads.lu import LUContiguous
    from repro.workloads.synthetic import HotSpot

    return {
        "hotspot": lambda: HotSpot(words=16, ops=40),
        "lu": lambda: LUContiguous(n=16, block=4),
    }


def _protocol_point(protocol: str, wname: str, nprocs: int) -> dict:
    """One uncached run on the plain prototype config; returns the row
    metrics.  Plain (no compute_scale) so the numbers line up with the
    fingerprint fixture and EXPERIMENTS.md."""
    from repro import Machine, MachineConfig

    cfg = MachineConfig.prototype()
    cfg.protocol = protocol  # explicit: wins over ambient NUMACHINE_PROTOCOL
    machine = Machine(cfg)
    result = _protocol_workloads()[wname]().run(machine, nprocs=nprocs)
    nc, mem = machine.nc_stats(), machine.memory_stats()
    util = machine.utilizations()
    served = nc.get("hits", 0) + nc.get("misses", 0)
    return {
        "time_ns": result.parallel_time_ns,
        "nc_hit_pct": 100.0 * nc.get("hits", 0) / served if served else 0.0,
        "nc_hits": nc.get("hits", 0),
        "false_remotes": mem.get("false_remote_bounces", 0),
        "bus_util": util["bus"],
        "ring_util": util["local_ring"],
        "events_per_sec": machine.engine.events_per_sec,
    }


def test_ablation_coherence_protocol(benchmark):
    def run():
        out = {}
        for proto in ("numachine", "msi"):
            total = 0.0
            nc_hits = 0
            for wname in _protocol_workloads():
                row = _protocol_point(proto, wname, PROCS)
                total += row["time_ns"]
                nc_hits += row["nc_hits"]
            out[proto] = {"time": total, "nc_hits": nc_hits}
        return out

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(
        "Ablation: NUMAchine protocol vs flat full-map MSI",
        ["protocol", "total us", "NC hits"],
        [[p, v["time"] / 1e3, v["nc_hits"]] for p, v in r.items()],
    )
    paper_note("the NC and hierarchical masks are §3.1.4/§4.6's case for "
               "the two-level protocol; MSI is the ablation baseline")
    # MSI bypasses the NC entirely: it can never score an NC hit
    assert r["msi"]["nc_hits"] == 0
    assert r["numachine"]["nc_hits"] > 0
    # and losing combining/migration/caching should not make things faster
    assert r["numachine"]["time"] <= r["msi"]["time"]


# ----------------------------------------------------------------------
# CLI: protocol comparison table + fingerprint gate
# ----------------------------------------------------------------------
_FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "data" / \
    "protocol_fingerprints.json"


def _check_fingerprints(path: Path) -> int:
    """Re-run every fixture point and diff the canonical surface.

    The fixture keys each (workload, P) pair twice, ``|heap`` and
    ``|calendar``, from when the engine had two event queues; one run
    serves both keys."""
    import json

    from repro import Machine, MachineConfig
    from repro.protocol import canonical_surface

    fix = json.loads(Path(path).read_text())
    workloads = _protocol_workloads()
    failures = []
    surfaces = {}
    for key, want in sorted(fix["points"].items()):
        wname, pfield, _sched = key.split("|")
        if (wname, pfield) not in surfaces:
            cfg = MachineConfig.prototype()
            cfg.protocol = fix["protocol"]
            machine = Machine(cfg)
            workloads[wname]().run(machine, nprocs=int(pfield[1:]))
            # normalize through JSON so float/int representations match
            surfaces[wname, pfield] = json.loads(
                json.dumps(canonical_surface(machine))
            )
        got = surfaces[wname, pfield]
        if got == want:
            print(f"ok   {key}: now={got['now']}")
        else:
            diff = [f for f in sorted(want) if got.get(f) != want[f]]
            failures.append(key)
            print(f"FAIL {key}: fields differ: {', '.join(diff)}")
    print(f"fingerprint check: {len(fix['points']) - len(failures)}/"
          f"{len(fix['points'])} points identical ({fix['protocol']!r} "
          f"protocol, {fix['config']} config)")
    return 1 if failures else 0


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(
        prog="python benchmarks/bench_ablations.py",
        description="Coherence-protocol ablation table / fingerprint gate.",
    )
    ap.add_argument("--procs", default="16,64",
                    help="comma-separated processor counts (default 16,64)")
    ap.add_argument("--check", action="store_true",
                    help="verify the default protocol's canonical surface "
                    "against tests/data/protocol_fingerprints.json")
    args = ap.parse_args(argv)

    if args.check:
        return _check_fingerprints(_FIXTURE)

    procs = [int(p) for p in args.procs.split(",") if p]
    rows = []
    for proto in ("numachine", "msi"):
        for wname in _protocol_workloads():
            for p in procs:
                r = _protocol_point(proto, wname, p)
                rows.append([
                    proto, wname, p, r["time_ns"] / 1e3,
                    r["nc_hit_pct"], r["false_remotes"],
                    100.0 * r["bus_util"], 100.0 * r["ring_util"],
                    r["events_per_sec"],
                ])
    print_series(
        "Coherence-protocol ablation (plain prototype config)",
        ["protocol", "workload", "P", "time us", "NC hit %",
         "false remotes", "bus util %", "ring util %", "ev/s"],
        rows,
    )
    paper_note("MSI disables the network cache and uses an exact global "
               "sharer map; NUMAchine's wins come from NC combining/"
               "migration/caching and hierarchical masks")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
