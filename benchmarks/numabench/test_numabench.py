"""Self-test of the numabench benchmark (outside the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/numabench -q
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
from repro import Machine, MachineConfig  # noqa: E402
from repro.obs import Profiler  # noqa: E402
from repro.verify import CoherenceChecker  # noqa: E402
from repro.workloads import make  # noqa: E402
from repro.workloads.synthetic import HotSpot, ProducerConsumer  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _cold_store(tmp_path, monkeypatch):
    monkeypatch.setenv("NUMACHINE_CACHE_DIR", str(tmp_path / "cache"))


# ----------------------------------------------------------------------
# layer map
# ----------------------------------------------------------------------
TEST_SIZE = {
    "hotspot": lambda: HotSpot(words=16, ops=40),
    "lu": lambda: make("lu_contig", "test"),
    "prodcons": lambda: ProducerConsumer(rounds=5),
}


@pytest.mark.parametrize("mode", ["elab", "interp", "checked"])
@pytest.mark.parametrize("workload", sorted(TEST_SIZE))
def test_layer_map_covers_every_handler(workload, mode):
    machine = Machine(MachineConfig.prototype(), backend="elab" if mode == "elab" else "interp")
    if mode == "checked":
        machine.attach_verifier(CoherenceChecker())
    prof = Profiler().install(machine.engine)
    try:
        TEST_SIZE[workload]().run(machine, nprocs=16)
    finally:
        prof.uninstall()
    assert machine.backend == ("elab" if mode == "elab" else "interp")
    summary = prof.summary()
    unmapped = [s["site"] for s in summary["sites"] if layers.layer_of(s["site"]) == "unmapped"]
    assert unmapped == []
    by_layer = layers.attribute(summary)
    assert sum(row["events"] for row in by_layer.values()) == machine.engine.events_run


def test_layer_of_strips_generated_class_numbers():
    assert layers.layer_of("ElabSRI12._handler_done") == "interconnect"
    assert layers.layer_of("ElabRingL0._advance") == "interconnect"
    assert layers.layer_of("NumachineNC._on_nack.<locals>.<lambda>") == "cache"
    assert layers.layer_of("Mystery.handler") == "unmapped"


# ----------------------------------------------------------------------
# seeded workloads: values change with the seed, the event stream does not
# ----------------------------------------------------------------------
def _surface(workload, cpus):
    machine = Machine(MachineConfig.prototype())
    workload.run(machine, cpus=list(cpus))
    return spec.surface_sha256(machine), machine


@pytest.mark.parametrize("name,stock", [
    ("hotspot_p64", lambda: HotSpot(words=64, ops=400, hot_station=0)),
    ("checked_prodcons_p16", lambda: ProducerConsumer(rounds=60)),
])
def test_seeded_workload_matches_stock_event_stream(name, stock):
    cpus = spec.SINGLE_CPUS[name]
    want = spec.load_expected()[name]["surface_sha256"]
    assert _surface(stock(), cpus)[0] == want
    wl = spec._SEEDED[name](seed=7)
    sha, machine = _surface(wl, cpus)
    assert sha == want
    assert wl.outputs(machine) == spec.load_expected()[name]["outputs"]


def test_grid_is_the_papers_69_points():
    assert len(spec.GRID) == 69 == len(set(spec.GRID))
    assert len(spec.load_expected()["paper_grid"]["records"]) == 69


# ----------------------------------------------------------------------
# BENCHMARK.json and the result files
# ----------------------------------------------------------------------
def test_benchmark_json_names_this_benchmark():
    assert BENCH["paths"] == ["benchmarks/numabench"]
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_carries_every_benchmark_metric(trace, section, tmp_path, capsys):
    out = tmp_path / "result.json"
    argv = ["--workload", "lu_p64", "--seed", "5", "--seconds", "1",
            "--trace", str(trace), "--out", str(out)]
    assert run.main(argv) == 0
    line = _last_json_line(capsys.readouterr().out)
    names = [m["name"] for m in BENCH[section]]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == names
    for m in BENCH[section]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]["lu_p64"]["metrics"]) == names


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
A = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


def _scaled(samples, factor):
    return [v * factor for v in samples]


WIDE = [0.5, 1.0, 1.5, 1.0, 0.6, 1.4, 1.0, 0.7, 1.3, 1.0]


@pytest.mark.parametrize("a,b,better,bound,want", [
    (A, A, "lower", 0.1, "within bound"),
    (A, _scaled(A, 1.05), "lower", 0.1, "within bound"),
    (A, _scaled(A, 1.20), "lower", 0.1, "worse"),
    (A, _scaled(A, 0.80), "lower", 0.1, "better"),
    (A, _scaled(A, 1.20), "higher", 0.1, "better"),
    (A, _scaled(A, 0.80), "higher", 0.1, "worse"),
    (A, WIDE, "lower", 0.1, "unresolved"),
    (WIDE, _scaled(WIDE, 1.3), "lower", 0.1, "unresolved"),
    # every B run beats every A run: better however wide the spread
    (WIDE, _scaled(WIDE, 0.3), "lower", 0.1, "better"),
    # deterministic metric: no spread, so a tiny bound still decides
    ([7.4] * 10, [7.4] * 10, "lower", 0.001, "within bound"),
    ([7.4] * 10, [7.5] * 10, "lower", 0.001, "worse"),
])
def test_verdicts(a, b, better, bound, want):
    assert compare.verdict(a, b, better, bound)[0] == want


def _doc(wall, calib):
    metrics = {
        m["name"]: run.summarize(wall if m["name"] == "wall_s" else [1.0] * 5, m["unit"])
        for m in BENCH["end_to_end"]
    }
    return {"workloads": {"lu_p64": {"metrics": metrics, "host_calib_s": calib}}}


def test_compare_flags_worse_and_host_drift():
    buf = io.StringIO()
    assert compare.compare(_doc(A, [0.03] * 5), _doc(A, [0.03] * 5), out=buf)
    assert "host drift" not in buf.getvalue()
    buf = io.StringIO()
    assert not compare.compare(_doc(A, [0.03] * 5), _doc(_scaled(A, 1.3), [0.04] * 5), out=buf)
    text = buf.getvalue()
    assert "worse" in text and "host drift" in text
