"""Cross-checkout performance ledger — ``BENCH_history.jsonl``.

A benchmark result file holds only the *latest* measurement; regressions
that creep in over several changes are invisible in it.  The ledger is
the longitudinal record: a benchmark run appends one self-describing JSONL
line — when, on what host, at which git commit, what it measured — so
trends are a ``jq`` (or pandas) one-liner away and a checkout's history
survives result-file overwrites.  The file also keeps the historical
simulation-throughput entries of earlier benches.

Entries are append-only and host-stamped: rates from different hosts are
not comparable (see :func:`host_fingerprint`), so any consumer should
group by the ``host`` fingerprint before drawing trend lines.

Schema 4 adds ``kind``: ``"simulation"`` for simulator benches,
``"serving"`` for the job-server soak (``bench_serve.py`` — rps, hit
ratio, p99), so the longitudinal trajectory covers serving as well as
simulation and consumers can split the two without guessing from bench
names.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import List, Optional

from ..protocol import resolve_protocol_name

#: bump when the per-line layout changes incompatibly
LEDGER_SCHEMA = 4

#: default ledger location: the repository root
DEFAULT_PATH = Path(__file__).resolve().parents[3] / "BENCH_history.jsonl"


def host_fingerprint() -> dict:
    """The host identity wall-clock rates belong to."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def git_sha(cwd: Optional[Path] = None) -> Optional[str]:
    """The current commit, from CI metadata or git itself; None outside a
    repository (ledgers must work from an unpacked tarball too)."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=str(cwd or Path(__file__).resolve().parents[3]),
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def make_entry(bench: str, result: dict, kind: str = "simulation") -> dict:
    """One ledger line: provenance envelope around a bench's summary."""
    if kind not in ("simulation", "serving"):
        raise ValueError(f"unknown ledger entry kind {kind!r}")
    return {
        "schema": LEDGER_SCHEMA,
        "ts": time.time(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "bench": bench,
        "kind": kind,
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "protocol": resolve_protocol_name(),
        "result": result,
    }


def append_entry(
    bench: str,
    result: dict,
    path: Optional[Path] = None,
    kind: str = "simulation",
) -> dict:
    """Append one entry for ``bench`` to the ledger; returns the entry.

    Never raises on I/O problems (a read-only checkout must not break a
    benchmark run); the entry is still returned for inspection.
    """
    entry = make_entry(bench, result, kind=kind)
    target = Path(path) if path is not None else DEFAULT_PATH
    try:
        with open(target, "a") as fh:
            json.dump(entry, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    except OSError:
        pass
    return entry


def read_ledger(path: Optional[Path] = None) -> List[dict]:
    """All parseable ledger entries, in file order (torn tails skipped)."""
    target = Path(path) if path is not None else DEFAULT_PATH
    out: List[dict] = []
    try:
        with open(target) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
    except OSError:
        pass
    return out


__all__ = [
    "LEDGER_SCHEMA",
    "DEFAULT_PATH",
    "append_entry",
    "git_sha",
    "host_fingerprint",
    "make_entry",
    "read_ledger",
]
