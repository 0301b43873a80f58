"""On-disk memoization of sweep results.

Every simulation point is deterministic given the machine configuration,
the workload name/size knobs and the code itself, so results are cached in
JSON files keyed by a digest of exactly those inputs:

* a fingerprint of every :class:`MachineConfig` field (geometry included),
* the workload name, processor count, cpu placement and variant label,
* the resolved coherence protocol (``config.protocol`` falling back to
  ``NUMACHINE_PROTOCOL``) — a semantic axis: different protocols produce
  different event streams and statistics,
* the package version (:data:`repro.__version__`) and a cache schema
  number — bump either and every old entry is ignored.

Environment knobs:

* ``NUMACHINE_CACHE_DIR`` — cache directory (default ``.numachine_cache``
  under the current working directory).
* ``NUMACHINE_CACHE=0``   — disable reads *and* writes (every point runs).
* ``NUMACHINE_CACHE_MAX_MB`` — size cap for the cache directory (default
  256 MB).  When a write pushes the directory past the cap, the
  least-recently-used entries are evicted (reads refresh an entry's
  timestamp).  ``python -m repro.perf --prune`` applies the same policy
  on demand; ``--stats`` and ``--clear`` are also available (the entry is
  :mod:`repro.perf.__main__`, the commands are :func:`main` here).

No execution strategy is in the key: every run executes the one set of
station classes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Optional

from ..protocol import resolve_protocol_name
from .record import RunRecord

#: bump when the RunRecord layout or key derivation changes
CACHE_SCHEMA = 9

#: default size cap for the cache directory, in bytes
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def _max_bytes() -> int:
    raw = os.environ.get("NUMACHINE_CACHE_MAX_MB")
    if not raw:
        return DEFAULT_MAX_BYTES
    return max(0, int(float(raw) * 1024 * 1024))


def _repro_version() -> str:
    from repro import __version__

    return __version__


def config_fingerprint(config) -> str:
    """Stable digest over every configuration field, nested dataclasses
    included."""
    payload = json.dumps(
        dataclasses.asdict(config), sort_keys=True, default=str
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def point_key(
    config,
    workload: str,
    nprocs: int,
    cpus=(),
    variant: str = "",
) -> str:
    """Cache key for one sweep point (see module docstring for contents)."""
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "version": _repro_version(),
            "config": config_fingerprint(config),
            "workload": workload,
            "nprocs": nprocs,
            "cpus": list(cpus),
            "variant": variant,
            # coherence protocol: a *semantic* axis (different event
            # streams and stats), resolved with the machine's precedence
            "protocol": resolve_protocol_name(config),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class RunCache:
    """A directory of ``<key>.json`` result files."""

    def __init__(
        self,
        root: Optional[Path] = None,
        enabled: Optional[bool] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if root is None:
            root = Path(os.environ.get("NUMACHINE_CACHE_DIR", ".numachine_cache"))
        self.root = Path(root)
        if enabled is None:
            enabled = os.environ.get("NUMACHINE_CACHE", "1") != "0"
        self.enabled = enabled
        self.max_bytes = _max_bytes() if max_bytes is None else max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[RunRecord]:
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path) as fh:
                payload = json.load(fh)
            record = RunRecord.from_json(payload["record"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)  # refresh: LRU eviction keys off mtime
        except OSError:
            pass
        return record

    def put(self, key: str, record: RunRecord) -> None:
        if not self.enabled:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        payload = {"schema": CACHE_SCHEMA, "record": record.to_json()}
        # write-to-temp + atomic rename, with a *per-writer-unique* temp
        # name: a shared `<key>.tmp` lets two concurrent writers of the
        # same key interleave writes and publish a torn entry — with the
        # sweep's worker processes sharing one cache directory that race
        # is routine, not exotic.  Readers racing LRU eviction
        # simply see ENOENT, which `get` already treats as a miss.
        fd, tmp = tempfile.mkstemp(
            prefix=f".{key[:16]}.", suffix=".tmp", dir=self.root
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)  # atomic: readers see old, new, or ENOENT
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.prune()

    # ------------------------------------------------------------------
    def _entries(self):
        """(mtime, size, path) for every entry, oldest first."""
        out = []
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    st = path.stat()
                except OSError:
                    continue
                out.append((st.st_mtime, st.st_size, path))
        out.sort()
        return out

    def size_bytes(self) -> int:
        return sum(size for _, size, _ in self._entries())

    def prune(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries until the directory fits the
        cap; returns the number of entries removed.  Also sweeps temp
        files abandoned by crashed writers (older than a minute — live
        writers rename theirs away within milliseconds)."""
        cap = self.max_bytes if max_bytes is None else max_bytes
        if self.root.is_dir():
            horizon = time.time() - 60.0
            for tmp in self.root.glob(".*.tmp"):
                try:
                    if tmp.stat().st_mtime < horizon:
                        tmp.unlink()
                except OSError:
                    continue
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        removed = 0
        for _, size, path in entries:
            if total <= cap:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        self.evictions += removed
        return removed

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


# ----------------------------------------------------------------------
# command-line maintenance: python -m repro.perf --prune | --stats
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Inspect and maintain the on-disk sweep-result cache.",
    )
    ap.add_argument("--dir", default=None, help="cache directory (default: "
                    "$NUMACHINE_CACHE_DIR or .numachine_cache)")
    ap.add_argument("--prune", action="store_true",
                    help="evict least-recently-used entries past the size cap")
    ap.add_argument("--max-mb", type=float, default=None,
                    help="size cap in MB for --prune (default: "
                    "$NUMACHINE_CACHE_MAX_MB or 256)")
    ap.add_argument("--clear", action="store_true", help="delete every entry")
    ap.add_argument("--stats", action="store_true",
                    help="print entry count and total size")
    args = ap.parse_args(argv)

    cache = RunCache(root=Path(args.dir) if args.dir else None, enabled=True)
    if args.max_mb is not None:
        cache.max_bytes = int(args.max_mb * 1024 * 1024)
    did = False
    if args.clear:
        print(f"cleared {cache.clear()} entries from {cache.root}")
        did = True
    if args.prune:
        removed = cache.prune()
        print(f"pruned {removed} entries from {cache.root} "
              f"(cap {cache.max_bytes // (1024 * 1024)} MB)")
        did = True
    if args.stats or not did:
        entries = cache._entries()
        total = sum(size for _, size, _ in entries)
        print(f"{cache.root}: {len(entries)} entries, {total / 1e6:.2f} MB "
              f"(schema {CACHE_SCHEMA}, cap {cache.max_bytes // (1024 * 1024)} MB)")
        by_proto: dict = {}
        for _, _, path in entries:
            try:
                with open(path) as fh:
                    rec = json.load(fh).get("record", {})
            except (OSError, ValueError):
                continue
            name = rec.get("protocol", "?")
            by_proto[name] = by_proto.get(name, 0) + 1
        if by_proto:
            print("  by protocol: " + ", ".join(
                f"{k}={v}" for k, v in sorted(by_proto.items())
            ))
    return 0
