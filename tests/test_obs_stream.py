"""Live telemetry: the JSONL stream and the ``repro.obs.watch`` CLI."""

from __future__ import annotations

import json

from repro import Machine, Observability, Read, Write
from repro.obs.stream import STREAM_SCHEMA, read_stream, stream_is_final
from repro.obs.watch import _fmt_eta, main as watch_main, render_status

from conftest import tiny_config


def _streamed_run(tmp_path, *, probes=True, period_ns=200.0):
    path = tmp_path / "telemetry.jsonl"
    machine = Machine(tiny_config())
    obs = Observability(
        probes=probes, stream_path=path, stream_period_ns=period_ns
    ).attach(machine)
    region = machine.allocate(2048, placement="local:1")

    def prog():
        for i in range(12):
            v = yield Read(region.addr((i * 8) % 1024))
            yield Write(region.addr((i * 8) % 1024), (v or 0) + 1)

    machine.run({0: prog()})
    return machine, obs, path


# ----------------------------------------------------------------------
# stream emission
# ----------------------------------------------------------------------
def test_stream_lines_parse_and_terminate_with_final(tmp_path):
    machine, obs, path = _streamed_run(tmp_path)
    lines = read_stream(path)
    assert len(lines) >= 2
    assert stream_is_final(lines)
    for i, line in enumerate(lines):
        st = line["stream"]
        assert st["schema"] == STREAM_SCHEMA
        assert st["seq"] == i
        assert line["meta"]["events_run"] >= 0
        # slim: the bulky sections never ride the stream
        assert "probes" not in line and "histograms" not in line
    last = lines[-1]
    assert last["stream"]["final"] is True
    assert last["stream"]["cpus_done"] == last["stream"]["cpus_total"] == 1
    assert last["meta"]["events_run"] == machine.engine.events_run
    # monotone simulated time and event count across lines
    evs = [ln["meta"]["events_run"] for ln in lines]
    assert evs == sorted(evs)


def test_stream_with_probes_terminates_and_without_probes_too(tmp_path):
    """The stream and the probe sampler are both periodic self-re-arming
    events; neither may keep the other (or the run) alive forever."""
    m1, _obs1, _ = _streamed_run(tmp_path, probes=True)
    m2, _obs2, _ = _streamed_run(tmp_path, probes=False)
    assert m1.engine.pending == 0
    assert m2.engine.pending == 0


def test_stream_does_not_perturb_canonical_stats(tmp_path):
    """A streamed run is the plain run plus the sampler's own events: the
    same finish time and statistics, and an event delta of exactly one
    per sampler tick (every line but the final one is a tick)."""
    plain = Machine(tiny_config())
    region_p = plain.allocate(2048, placement="local:1")

    def prog(region):
        def gen():
            for i in range(12):
                yield Read(region.addr((i * 8) % 1024))
        return gen()

    plain_result = plain.run({0: prog(region_p)})

    path = tmp_path / "s.jsonl"
    streamed = Machine(tiny_config())
    Observability(
        trace=False, probes=False, stream_path=path, stream_period_ns=200.0
    ).attach(streamed)
    region_s = streamed.allocate(2048, placement="local:1")
    streamed_result = streamed.run({0: prog(region_s)})

    lines = read_stream(path)
    assert len(lines) > 2
    assert (streamed.engine.events_run - plain.engine.events_run
            == len(lines) - 1)
    assert streamed.parallel_time_ns(streamed_result) == plain.parallel_time_ns(
        plain_result
    )
    assert streamed.memory_stats() == plain.memory_stats()
    assert streamed.nc_stats() == plain.nc_stats()


def test_read_stream_tolerates_torn_tail(tmp_path):
    path = tmp_path / "torn.jsonl"
    good = json.dumps({"meta": {"events_run": 1}, "stream": {"seq": 0}})
    path.write_text(good + "\n" + '{"meta": {"events_r')  # mid-write tail
    lines = read_stream(path)
    assert len(lines) == 1
    assert not stream_is_final(lines)


# ----------------------------------------------------------------------
# watch CLI
# ----------------------------------------------------------------------
def test_render_status_finished_panel(tmp_path):
    _machine, _obs, path = _streamed_run(tmp_path)
    panel = render_status(read_stream(path))
    assert "FINISHED" in panel
    assert "events" in panel
    assert "cpus 1/1 done" in panel


def test_render_status_running_panel_has_eta():
    lines = [
        {"meta": {"events_run": 100, "time_ns": 500},
         "stream": {"seq": 0, "wall_ts": 10.0, "pending": 5,
                    "cpus_done": 0, "cpus_total": 4, "final": False},
         "utilizations": {"bus": 0.5}},
        {"meta": {"events_run": 300, "time_ns": 1500},
         "stream": {"seq": 1, "wall_ts": 11.0, "pending": 7,
                    "cpus_done": 1, "cpus_total": 4, "final": False},
         "utilizations": {"bus": 0.25}},
    ]
    panel = render_status(lines)
    assert "running" in panel
    assert "eta" in panel
    assert "200 events/s" in panel  # 200 events over 1s of wall clock
    assert "bus.util" in panel


def test_render_status_empty():
    assert "no stream lines" in render_status([])


def test_fmt_eta_ranges():
    assert _fmt_eta(None) == "?"
    assert _fmt_eta(30.0) == "30.0s"
    assert _fmt_eta(600.0) == "10.0m"
    assert _fmt_eta(8000.0) == "2.2h"


def test_watch_once_exit_codes(tmp_path, capsys):
    _machine, _obs, path = _streamed_run(tmp_path)
    assert watch_main([str(path), "--once"]) == 0
    assert "FINISHED" in capsys.readouterr().out

    assert watch_main([str(tmp_path / "missing.jsonl"), "--once"]) == 2
    assert "cannot read stream" in capsys.readouterr().err


def test_watch_follow_returns_on_final_line(tmp_path, capsys):
    _machine, _obs, path = _streamed_run(tmp_path)
    assert watch_main([str(path), "--interval", "0.01"]) == 0
    assert "FINISHED" in capsys.readouterr().out
