"""Tests for the observability layer (repro.obs): transaction tracing,
time-series probes, the unified metrics snapshot, and the report CLI."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro import Machine, MachineConfig, Observability, Read, Write
from repro.fault import WatchdogError
from repro.monitor import Monitor
from repro.obs import chrome_trace, dump_chrome_events, snapshot, to_prometheus
from repro.obs.report import main as report_main, sparkline
from repro.obs.trace import _TICKS_PER_US
from repro.protocol import canonical_surface
from repro.workloads.synthetic import HotSpot, ProducerConsumer

import core_references
from conftest import small_config, tiny_config


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _observed_tiny_run(**obs_kwargs):
    """Deterministic 2-station run with remote reads, writes and upgrades."""
    machine = Machine(tiny_config())
    obs = Observability(**obs_kwargs).attach(machine)
    remote = machine.allocate(2048, placement="local:1")
    local = machine.allocate(2048, placement="local:0")

    def prog(cpu_id, region, other):
        def gen():
            for i in range(12):
                v = yield Read(region.addr((i * 8) % 1024))
                yield Write(region.addr((i * 8) % 1024), (v or 0) + 1)
                yield Read(other.addr((i * 8) % 1024))
        return gen()

    machine.run({0: prog(0, remote, local), 1: prog(1, local, remote)})
    return machine, obs


def _observed_contended_run():
    """8 CPUs hammering one line: guarantees NACKs and retries."""
    machine = Machine(small_config())
    obs = Observability().attach(machine)
    r = machine.allocate(64, placement="local:2")

    def prog(cid):
        def gen():
            for i in range(4):
                yield Write(r.addr(0), cid * 10 + i)
        return gen()

    machine.run({c: prog(c) for c in range(len(machine.cpus))})
    return machine, obs


# ----------------------------------------------------------------------
# transaction tracing
# ----------------------------------------------------------------------
def test_trace_span_chain_contiguous_and_total_equals_latency():
    machine, obs = _observed_tiny_run()
    tr = obs.tracer
    assert tr.finished, "no transactions traced"
    assert not tr.active, "traces left open after the run drained"
    for rec in tr.finished:
        spans = rec.spans()
        assert spans, rec
        # contiguous chain tiling [begin, end]
        assert spans[0][1] == rec.begin
        assert spans[-1][2] == rec.end
        for (_l1, _a, b), (_l2, c, _d) in zip(spans, spans[1:]):
            assert b == c, f"gap in span chain of {rec!r}"
        assert sum(t1 - t0 for _l, t0, t1 in spans) == rec.duration

    # the sum of trace durations per (cpu, kind) equals exactly what the
    # processor's latency accumulators recorded (what analysis.latency reads)
    for cpu in machine.cpus:
        for kind in ("read", "write", "rmw"):
            recs = [r for r in tr.finished
                    if r.cpu == cpu.cpu_id and r.kind == kind]
            acc = cpu.stats.accumulators.get(f"{kind}_latency")
            assert len(recs) == (acc.count if acc else 0)
            assert sum(r.duration for r in recs) == (acc.total if acc else 0)


def test_remote_transactions_cross_the_network():
    _machine, obs = _observed_tiny_run()
    labels = {l for rec in obs.tracer.finished for _t, l in rec.stamps}
    # remote misses must show the full pipeline, not just issue/restart
    for expected in ("cpu.send", "ri.send", "ring.inject", "ri.arrive",
                     "ri.deliver", "mem.in", "mem.svc", "nc.in", "nc.svc"):
        assert expected in labels, f"{expected} never stamped ({sorted(labels)})"


def test_contention_records_retries_and_nack_stamps():
    _machine, obs = _observed_contended_run()
    retried = [r for r in obs.tracer.finished if r.retries]
    assert retried, "contended run produced no NACK/retry traces"
    for rec in retried:
        assert any(l == "nack" for _t, l in rec.stamps)


def test_tracer_capacity_bounds_retained_traces():
    _machine, obs = _observed_tiny_run(trace_capacity=5)
    tr = obs.tracer
    assert len(tr.finished) == 5
    assert tr.dropped > 0


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def test_chrome_trace_schema_and_span_nesting():
    _machine, obs = _observed_tiny_run()
    doc = obs.chrome_trace()
    # valid trace-event JSON document
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
    json.loads(json.dumps(doc))  # round-trips
    parents = {}
    for ev in doc["traceEvents"]:
        assert ev["ph"] in ("X", "M", "C")
        if ev["ph"] == "X":
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert isinstance(ev["name"], str)
            assert "pid" in ev and "tid" in ev
            if ev.get("cat") == "txn":
                parents[ev["args"]["trace_id"]] = (ev["ts"], ev["ts"] + ev["dur"])
    assert parents, "no transaction slices exported"
    # every span slice nests inside its transaction's slice
    eps = 1e-6
    for ev in doc["traceEvents"]:
        if ev["ph"] == "X" and ev.get("cat") == "span":
            t0, t1 = parents[ev["args"]["trace_id"]]
            assert ev["ts"] >= t0 - eps
            assert ev["ts"] + ev["dur"] <= t1 + eps


def test_chrome_trace_includes_probe_counters():
    _machine, obs = _observed_tiny_run()
    doc = obs.chrome_trace()
    counters = [ev for ev in doc["traceEvents"] if ev["ph"] == "C"]
    assert counters
    assert all("value" in ev["args"] for ev in counters)


def test_write_trace_file(tmp_path):
    _machine, obs = _observed_tiny_run()
    path = tmp_path / "trace.json"
    obs.write_trace(path)
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def test_probe_sampling_is_deterministic():
    _m1, obs1 = _observed_tiny_run()
    _m2, obs2 = _observed_tiny_run()
    s1, s2 = obs1.probes.series(), obs2.probes.series()
    assert obs1.probes.samples == obs2.probes.samples > 0
    assert s1 == s2
    # every series carries one point per tick
    for series in s1.values():
        assert len(series["t"]) == len(series["v"]) == obs1.probes.samples


def test_probes_see_traffic_and_preserve_simulated_time():
    plain = Machine(tiny_config())
    remote_p = plain.allocate(2048, placement="local:1")

    def prog(region):
        def gen():
            for i in range(12):
                yield Read(region.addr((i * 8) % 1024))
        return gen()

    plain.run({0: prog(remote_p)})

    observed = Machine(tiny_config())
    Observability().attach(observed)
    remote_o = observed.allocate(2048, placement="local:1")
    observed.run({0: prog(remote_o)})

    # non-intrusive: sampling is not an event, so the run ends at the same
    # tick and the coherence traffic and the workload's timing are untouched
    assert observed.engine.now == plain.engine.now
    for cpu_o, cpu_p in zip(observed.cpus, plain.cpus):
        assert cpu_o.stats.accumulators.keys() == cpu_p.stats.accumulators.keys()
        for name, acc in cpu_p.stats.accumulators.items():
            other = cpu_o.stats.accumulators[name]
            assert (other.count, other.total) == (acc.count, acc.total)
    assert observed.memory_stats() == plain.memory_stats()
    assert observed.nc_stats() == plain.nc_stats()

    series = observed.obs.probes.series()
    assert any(any(v > 0 for v in s["v"]) for s in series.values())


def test_probe_ring_buffer_bounded():
    _machine, obs = _observed_tiny_run(probe_period_ns=50.0, probe_capacity=16)
    for series in obs.probes.series().values():
        assert len(series["v"]) <= 16


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
def test_snapshot_unifies_all_sections():
    machine, obs = _observed_tiny_run()
    machine.attach_monitor(Monitor())  # histograms appear even when attached late
    snap = machine.obs_snapshot()
    assert snap["meta"]["events_run"] == machine.engine.events_run
    assert snap["counters"]  # StatGroup counters flattened
    assert any(k.endswith(".bus.transactions") for k in snap["counters"])
    assert any(k.startswith("ring.L0") for k in snap["counters"])
    assert snap["accumulators"]
    assert snap["fifos"]
    assert "mean_depth" in next(iter(snap["fifos"].values()))
    assert snap["utilizations"]["bus"] >= 0
    assert snap["probes"]
    assert snap["trace"]["finished"] == len(obs.tracer.finished)


def test_snapshot_without_obs_or_monitor_still_works():
    machine = Machine(tiny_config())
    r = machine.allocate(256, placement="local:0")

    def gen():
        yield Write(r.addr(0), 1)

    machine.run({0: gen()})
    snap = snapshot(machine, include_wall=False)
    assert "probes" not in snap and "trace" not in snap and "histograms" not in snap
    assert "wall_s" not in snap["meta"]
    assert snap["counters"]


def test_snapshot_reads_the_same_on_both_cores(tmp_path, capsys):
    # the snapshot equals the interpreted core's pinned one
    snap = core_references.check("snapshot_small")
    assert snap["fifos"]["S0.mem.in"]["pushes"] > 0
    assert snap["fifos"]["S0.mem.in"]["wait_count"] > 0
    assert snap["counters"]["P0.retries"] > 0
    # both exporters render the FIFO telemetry the core kept
    assert "numachine_fifo_mean_depth{" in to_prometheus(snap)
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(snap))
    assert report_main([str(path)]) == 0
    row = next(line.split() for line in capsys.readouterr().out.splitlines()
               if line.split()[:1] == ["S0.mem.in"])
    assert int(row[1]) == snap["fifos"]["S0.mem.in"]["pushes"]


@pytest.mark.parametrize("nprocs", [16, 64])
def test_probes_ride_the_elab_core(nprocs):
    # surface, snapshot, sample count and series equal the interpreted
    # core's pinned ones
    obs = core_references.check(f"probes/{nprocs}")
    assert obs.probes.samples > 1


def test_snapshot_is_deterministic_without_wall():
    m1, _ = _observed_tiny_run()
    m2, _ = _observed_tiny_run()
    assert m1.obs_snapshot(include_wall=False) == m2.obs_snapshot(include_wall=False)


def test_canonical_surface_read_leaves_snapshot_unchanged():
    """Reading the surface (ring-interface delay means included) must not
    create the empty accumulators it looks up."""
    machine = Machine(MachineConfig.prototype())
    HotSpot(words=16, ops=40).run(machine, nprocs=4)
    before = machine.obs_snapshot(include_wall=False)
    canonical_surface(machine)
    assert machine.obs_snapshot(include_wall=False) == before


def test_prometheus_export_format():
    machine, _obs = _observed_tiny_run()
    machine.attach_monitor(Monitor())
    text = to_prometheus(machine.obs_snapshot())
    lines = text.splitlines()
    assert any(l.startswith("# TYPE numachine_counter_total counter") for l in lines)
    assert any(l.startswith("numachine_sim_time_ns") for l in lines)
    assert any(l.startswith("numachine_fifo_mean_depth{") for l in lines)
    assert any(l.startswith("numachine_trace_segment_ticks_total{") for l in lines)
    # every sample line is `name{labels} value` or `name value`
    for line in lines:
        if line.startswith("#") or not line:
            continue
        name_part, _, value = line.rpartition(" ")
        float(value)
        assert name_part.startswith("numachine_")


_GOLDEN = Path(__file__).resolve().parent / "data" / "prometheus_golden.txt"

#: Prometheus text exposition: legal metric names ([a-zA-Z_:][a-zA-Z0-9_:]*)
_METRIC_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")


def _golden_snapshot() -> dict:
    """A hand-built snapshot exercising every section plus the label
    characters the exposition format must escape."""
    return {
        "schema": 3,
        "meta": {"time_ns": 1234.5, "events_run": 42},
        "counters": {"S0.mem.reads": 7, 'tricky"name': 1, "back\\slash": 2,
                     "multi\nline": 3},
        "accumulators": {"P0.read_latency": {"count": 4, "total": 400,
                                             "min": 10, "max": 200,
                                             "mean": 100.0}},
        "utilizations": {"bus": 0.25, "ring": 0.5},
        "fifos": {"S0.mem.in": {"depth": 1, "max_depth": 3, "mean_depth": 0.5,
                                "pushes": 9,
                                "wait_mean_ticks": 2.0}},
        "histograms": {"coherence": {"name": "coherence", "rows": ["LV"],
                                     "cols": ["read"],
                                     "cells": [["LV", "read", 5]],
                                     "overflows": 0}},
        "probes": {"S0.bus.util": {"t": [0, 10], "v": [0.0, 0.75],
                                   "unit": ""}},
        "trace": {"finished": 2, "active": 0, "dropped": 0, "abandoned": 0,
                  "breakdown": {"read": {"count": 2, "total_ticks": 100,
                                         "segments": {"mem.svc": {
                                             "count": 2, "ticks": 60}}}}},
    }


def test_prometheus_matches_golden_file():
    assert to_prometheus(_golden_snapshot()) == _GOLDEN.read_text()


def test_prometheus_label_escaping():
    text = to_prometheus(_golden_snapshot())
    # backslash, double-quote and newline are escaped; no raw newline may
    # ever appear inside a label value (it would corrupt the exposition)
    assert r'name="back\\slash"' in text
    assert r'name="tricky\"name"' in text
    assert r'name="multi\nline"' in text
    for line in text.splitlines():
        assert "\n" not in line  # trivially true, but guards the splitter
        if not line.startswith("#") and "{" in line:
            assert line.count("{") == 1 and "} " in line


def test_prometheus_metric_name_legality_and_help_type_pairing():
    machine, _obs = _observed_tiny_run()
    machine.attach_monitor(Monitor())
    for text in (to_prometheus(machine.obs_snapshot()),
                 to_prometheus(_golden_snapshot())):
        helped, typed, sampled = set(), set(), set()
        for line in text.splitlines():
            if line.startswith("# HELP "):
                helped.add(line.split()[2])
            elif line.startswith("# TYPE "):
                name, mtype = line.split()[2:4]
                assert mtype in ("counter", "gauge")
                assert name in helped, f"TYPE before HELP for {name}"
                typed.add(name)
            elif line:
                name = line.split("{")[0].split(" ")[0]
                assert _METRIC_RE.fullmatch(name), f"illegal metric {name!r}"
                assert name in typed, f"sample before TYPE for {name}"
                sampled.add(name)
        # HELP/TYPE always come as a pair (samples may be legally absent)
        assert helped == typed


# ----------------------------------------------------------------------
# watchdog dump as Perfetto instant events
# ----------------------------------------------------------------------
def _fake_dump() -> dict:
    return {
        "now_ticks": 4000,
        "blocked": ["S0.mem.in stalled 900 ns", "P3 waiting on read"],
        "locked_memory_lines": [
            {"station": 0, "line": "0x1000", "state": "LV", "pending": 2},
        ],
        "locked_nc_lines": [
            {"station": 1, "line": "0x2000", "state": "NOTIN", "pending": 1},
        ],
    }


def test_dump_chrome_events_schema():
    events = dump_chrome_events(_fake_dump())
    inst = [ev for ev in events if ev["ph"] == "i"]
    assert len(inst) == 4  # 2 blocked + 2 locked lines
    for ev in inst:
        assert ev["pid"] == 4
        assert ev["s"] == "t"
        assert ev["ts"] == pytest.approx(4000 / _TICKS_PER_US)
        assert ev["tid"] in (1, 2)
    kinds = {ev["args"].get("kind") for ev in inst if ev["tid"] == 2}
    assert kinds == {"memory", "nc"}
    json.loads(json.dumps({"traceEvents": events}))


def test_chrome_trace_overlays_watchdog_dump():
    _machine, obs = _observed_tiny_run()
    doc = obs.chrome_trace(dump=_fake_dump())
    phases = {ev["ph"] for ev in doc["traceEvents"]}
    assert {"X", "C", "i"} <= phases  # txns + probes + dump in one document
    bare = chrome_trace(None, None, _fake_dump())
    assert all(ev["ph"] in ("M", "i") for ev in bare["traceEvents"])


def test_real_watchdog_dump_renders(tmp_path):
    """An actual run's diagnostic dump flows through the obs layer end to
    end (the dump of a healthy drained machine is just sparse)."""
    from repro.fault import diagnostic_dump

    machine = Machine(tiny_config())
    obs = Observability().attach(machine)
    r = machine.allocate(256, placement="local:1")

    def gen():
        yield Read(r.addr(0))

    machine.run({0: gen()})
    dump = diagnostic_dump(machine)
    events = dump_chrome_events(dump)
    assert any(ev["ph"] == "M" for ev in events)
    path = tmp_path / "trace_with_dump.json"
    obs.write_trace(path, dump=dump)
    assert json.loads(path.read_text())["traceEvents"]


# ----------------------------------------------------------------------
# report CLI error handling
# ----------------------------------------------------------------------
def test_report_cli_missing_file_exits_2(tmp_path, capsys):
    rc = report_main([str(tmp_path / "nope.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: cannot read snapshot" in err
    assert "nope.json" in err


def test_report_cli_non_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json{")
    rc = report_main([str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "not a JSON snapshot" in err
    assert "write_snapshot" in err


# ----------------------------------------------------------------------
# report CLI
# ----------------------------------------------------------------------
def test_report_cli_text_and_prom(tmp_path, capsys):
    machine, _obs = _observed_tiny_run()
    machine.attach_monitor(Monitor())
    path = tmp_path / "obs.json"
    machine.obs.write_snapshot(path)

    assert report_main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "latency breakdown" in out
    assert "probe timelines" in out
    assert "fifos" in out

    assert report_main([str(path), "--format", "prom"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE numachine_counter_total counter" in out

    assert report_main([str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["schema"] >= 1


# ----------------------------------------------------------------------
# report CLI: two-snapshot diff
# ----------------------------------------------------------------------
def _write_pair(tmp_path, edit):
    machine = Machine(MachineConfig.small())
    machine.attach_monitor(Monitor())
    Observability().attach(machine)
    HotSpot(words=16, ops=20).run(machine, nprocs=4)
    snap = machine.obs_snapshot()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(snap))
    edited = json.loads(json.dumps(snap))
    edit(edited)
    b.write_text(json.dumps(edited))
    return str(a), str(b), snap


def test_report_diff_identical_snapshots_exit_0(tmp_path, capsys):
    a, b, _ = _write_pair(tmp_path, lambda s: None)
    assert report_main([a, b]) == 0
    assert capsys.readouterr().out.strip() == "leaves that differ: 0"


def test_report_diff_prints_bumped_counter_and_exits_1(tmp_path, capsys):
    def bump(s):
        s["counters"]["P0.reads"] += 3

    a, b, snap = _write_pair(tmp_path, bump)
    assert report_main([a, b]) == 1
    lines = capsys.readouterr().out.splitlines()
    row = next(line.split() for line in lines
               if line.startswith("counters.P0.reads "))
    n = snap["counters"]["P0.reads"]
    assert row == ["counters.P0.reads", str(n), str(n + 3), "+3"]
    assert lines[-1] == "leaves that differ: 1"


def test_report_diff_ignores_wall_fields(tmp_path, capsys):
    def wall(s):
        s["meta"]["wall_s"] += 1.0
        s["meta"]["events_per_sec"] /= 2

    a, b, _ = _write_pair(tmp_path, wall)
    assert report_main([a, b]) == 0


def test_report_diff_counts_one_sided_keys(tmp_path, capsys):
    def one_sided(s):
        del s["counters"]["P0.reads"]

    a, b, _ = _write_pair(tmp_path, one_sided)
    assert report_main([a, b]) == 1
    assert "counters.P0.reads" in capsys.readouterr().out
    assert report_main([b, a]) == 1


def test_report_diff_covers_histogram_cells(tmp_path, capsys):
    def cell(s):
        s["histograms"]["coherence"]["cells"][0][2] += 1

    a, b, _ = _write_pair(tmp_path, cell)
    assert report_main([a, b]) == 1
    assert "histograms.coherence.cells[0][2] " in capsys.readouterr().out


def test_report_diff_covers_probe_samples_and_trace_counts(tmp_path, capsys):
    """Every section is compared, not a list of them: a probe sample or
    a trace count that differs is a difference."""
    def probe(s):
        name = next(iter(s["probes"]))
        s["probes"][name]["v"][-1] += 0.5

    a, b, snap = _write_pair(tmp_path, probe)
    assert report_main([a, b]) == 1
    name = next(iter(snap["probes"]))
    last = len(snap["probes"][name]["v"]) - 1
    assert f"probes.{name}.v[{last}] " in capsys.readouterr().out

    def trace(s):
        s["trace"]["finished"] += 1

    a, b, snap = _write_pair(tmp_path, trace)
    assert report_main([a, b]) == 1
    lines = capsys.readouterr().out.splitlines()
    n = snap["trace"]["finished"]
    assert ["trace.finished", str(n), str(n + 1), "+1"] in [
        line.split() for line in lines]
    assert lines[-1] == "leaves that differ: 1"


def test_report_diff_unreadable_file_exits_2(tmp_path, capsys):
    a, _, _ = _write_pair(tmp_path, lambda s: None)
    assert report_main([a, str(tmp_path / "nope.json")]) == 2
    assert "error: cannot read snapshot" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert report_main([str(bad), a]) == 2


def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert len(sparkline([0.0] * 10)) == 10
    assert len(sparkline(list(range(200)), width=60)) == 60
    # peak maps to the densest glyph
    assert sparkline([0, 1])[-1] == "@"


# ----------------------------------------------------------------------
# non-intrusive: a traced run replays the untraced run, and traces the same
# on both cores
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", ["2ring-8", "4", "16", "64"])
def test_tracing_off_is_bit_identical_and_tracing_never_shifts_time(shape):
    config, nprocs, ops = core_references.TRACED[shape]
    plain = Machine(config())
    HotSpot(words=16, ops=ops).run(plain, nprocs=nprocs)
    # the core stamps every transaction as the interpreted core did, and
    # its probe counter tracks read the same: snapshot and Chrome trace
    # equal the pinned ones
    traced = core_references.check(f"traced/{shape}")
    # tracing and probing record but never reschedule: identical event stream
    assert canonical_surface(traced) == canonical_surface(plain)
    assert traced.obs.tracer.finished
    snap = traced.obs_snapshot(include_wall=False)
    assert snap.pop("trace")["finished"] == len(traced.obs.tracer.finished)
    assert snap.pop("probes")
    assert snap == plain.obs_snapshot(include_wall=False)


# ----------------------------------------------------------------------
# observers never move the model: the probes sample on the engine's run
# loop, between events, and are never events themselves
# ----------------------------------------------------------------------
_WORKLOADS = {
    "hotspot": lambda: HotSpot(words=16, ops=40),
    "prodcons": lambda: ProducerConsumer(rounds=10),
}


def _prototype(protocol):
    config = MachineConfig.prototype()
    config.protocol = protocol
    return config


def _start(machine, workload, nprocs):
    """Build ``workload`` on ``nprocs`` CPUs; returns its programs."""
    cpus = list(range(nprocs))
    workload.build(machine, cpus)
    return {cpu: workload.thread_program(tid, cpus)
            for tid, cpu in enumerate(cpus)}


def _result(result):
    return result.time_ticks, result.events, result.cpu_finish_ns


@pytest.mark.parametrize("nprocs", [16, 64])
@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
@pytest.mark.parametrize("protocol", ["numachine", "msi"])
def test_observers_never_move_the_model(protocol, workload, nprocs):
    def run(observed):
        machine = Machine(_prototype(protocol))
        if observed:
            Observability().attach(machine)
        programs = _start(machine, _WORKLOADS[workload](), nprocs)
        return machine, machine.run(programs)

    (plain, plain_result), (observed, observed_result) = run(False), run(True)
    assert _result(observed_result) == _result(plain_result)
    assert canonical_surface(observed) == canonical_surface(plain)
    snap = observed.obs_snapshot(include_wall=False)
    assert snap.pop("probes") and snap.pop("trace")["finished"]
    assert snap == plain.obs_snapshot(include_wall=False)
    # the last sample is taken at the last model event
    for series in observed.obs.probes.series().values():
        assert series["t"][-1] == observed.engine.now


def _limited_runs(limit):
    """A plain and a probed machine, each run once under ``limit``
    (``Machine.run`` keyword arguments) and then to completion."""
    runs = []
    for observed in (False, True):
        machine = Machine(_prototype("numachine"))
        if observed:
            Observability(trace=False).attach(machine)
        programs = _start(machine, HotSpot(words=16, ops=40), 16)
        first = machine.run(programs, **limit)
        stopped = (machine.engine.now, machine.engine.events_run,
                   machine.engine.pending)
        machine.run({})
        runs.append((machine, first, stopped))
    return runs


@pytest.mark.parametrize(
    "limit",
    [
        pytest.param({"until_ns": 30_000.0}, id="until-on-boundary"),
        pytest.param({"until_ns": 30_500.0}, id="until-between"),
        pytest.param({"max_events": 3_333}, id="max-events"),
    ],
)
def test_run_limits_hold_with_the_sampler(limit):
    (plain, plain_first, plain_stop), (probed, probed_first, probed_stop) = (
        _limited_runs(limit)
    )
    assert probed_stop == plain_stop and plain_stop[2] > 0
    assert _result(probed_first) == _result(plain_first)
    if "max_events" in limit:
        assert plain_stop[1] == limit["max_events"]
    # the probes crossed several period boundaries before the limit hit
    assert probed.obs.probes.period_ticks * 4 < plain_stop[0]
    # the second run finishes the first exactly as one uninterrupted run
    whole = Machine(_prototype("numachine"))
    whole.run(_start(whole, HotSpot(words=16, ops=40), 16))
    assert canonical_surface(probed) == canonical_surface(plain)
    assert canonical_surface(plain) == canonical_surface(whole)
    for series in probed.obs.probes.series().values():
        assert series["t"][-1] == probed.engine.now


@pytest.mark.parametrize(
    "bound",
    [
        pytest.param({"max_events": 4_000, "interval": 777}, id="events"),
        pytest.param({"max_ticks": 200_000, "interval": 500}, id="ticks"),
    ],
)
def test_watchdog_trips_at_the_same_event_with_probes(bound):
    def tripped(observed):
        machine = Machine(_prototype("numachine"))
        if observed:
            Observability(trace=False).attach(machine)
        machine.attach_watchdog(**bound)
        programs = _start(machine, HotSpot(words=16, ops=40), 16)
        with pytest.raises(WatchdogError):
            machine.run(programs)
        return machine.engine.now, machine.engine.events_run

    assert tripped(True) == tripped(False)
