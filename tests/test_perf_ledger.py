"""The cross-checkout performance ledger (repro.perf.ledger)."""

from __future__ import annotations

import json

from repro.perf import ledger


def test_append_read_roundtrip(tmp_path):
    path = tmp_path / "history.jsonl"
    e1 = ledger.append_entry("engine_throughput",
                             {"events_per_sec": 1e6, "backend": "elab"},
                             path=path)
    e2 = ledger.append_entry("scale_sweep", {"points": 3}, path=path)
    entries = ledger.read_ledger(path)
    assert [e["bench"] for e in entries] == ["engine_throughput", "scale_sweep"]
    assert entries[0]["result"] == e1["result"]
    assert entries[1]["result"] == e2["result"]
    # one self-describing JSON object per line
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        json.loads(line)


def test_entry_schema_and_provenance():
    entry = ledger.make_entry("x", {"v": 1})
    assert set(entry) == {"schema", "ts", "date", "bench", "git_sha", "host",
                          "protocol", "result"}
    assert entry["schema"] == ledger.LEDGER_SCHEMA == 5
    assert entry["bench"] == "x"
    assert entry["result"] == {"v": 1}
    assert entry["ts"] > 0
    assert "T" in entry["date"]
    host = entry["host"]
    assert set(host) == {"platform", "machine", "python", "cpu_count"}
    # this test runs inside the repo: a 40-hex sha must resolve
    assert entry["git_sha"] is None or len(entry["git_sha"]) == 40


def test_git_sha_env_override(monkeypatch):
    monkeypatch.setenv("GITHUB_SHA", "cafe" * 10)
    assert ledger.git_sha() == "cafe" * 10


def test_append_never_raises_on_unwritable_path(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "ledger.jsonl"
    entry = ledger.append_entry("x", {"v": 1}, path=target)
    assert entry["bench"] == "x"  # entry still produced
    assert not target.exists()


def test_read_skips_torn_and_blank_lines(tmp_path):
    path = tmp_path / "history.jsonl"
    good = json.dumps(ledger.make_entry("ok", {}))
    path.write_text(good + "\n\n{torn line\n" + good + "\n")
    entries = ledger.read_ledger(path)
    assert len(entries) == 2
    assert all(e["bench"] == "ok" for e in entries)


def test_read_missing_file_is_empty(tmp_path):
    assert ledger.read_ledger(tmp_path / "absent.jsonl") == []


def test_default_path_is_repo_root():
    assert ledger.DEFAULT_PATH.name == "BENCH_history.jsonl"
    # sits next to the existing single-shot bench result files
    assert (ledger.DEFAULT_PATH.parent / "ROADMAP.md").exists()
