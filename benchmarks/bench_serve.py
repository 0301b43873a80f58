"""Load generator and soak gate for the simulation job server.

Drives ``python -m repro.serve`` with closed-loop clients through four
phases and records per-phase latency histograms:

* **cold**  — N distinct points (fresh cache) pulled from a shared work
  queue: measures cold throughput and that batching keeps the pool busy.
* **hot**   — the same points requested round-robin for a duration:
  every answer should be a cache hit; this is the phase the hit-ratio
  and p99 gates apply to.
* **mixed** — hot traffic with a cold point injected every K requests:
  the realistic steady state of a shared lab server.
* **burst** — M simultaneous one-shot connections for one cached point:
  the "many concurrent cached readers" acceptance check.

By default the bench spawns its own server subprocess on a free port
with a fresh cache directory (so cold really is cold), SIGTERMs it at
the end and verifies the drain was clean; ``--port`` targets an already
running server instead (no lifecycle checks then).

Results land in ``BENCH_serve.json`` and a slim digest is appended to
``BENCH_history.jsonl`` with ``kind="serving"`` (ledger schema 4), so
serving performance is trended longitudinally alongside the simulation
benches.  Wall-clock gates are host-bound: the hard gates are *zero
5xx*, *zero hangs*, *clean drain* and *hot hit ratio ≥ --min-hit-ratio*;
the cached-p99 target (``--p99-ms``) is advisory off the recorded host,
because wall-clock latency is a property of the host.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py              # quick
    PYTHONPATH=src python benchmarks/bench_serve.py --soak 45    # CI soak
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.perf import ledger
from repro.serve.client import HttpClient

RESULT_FILE = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

#: bump when the result layout changes incompatibly
BENCH_SCHEMA = 1


def percentile(samples, p: float) -> float:
    if not samples:
        return 0.0
    xs = sorted(samples)
    idx = min(len(xs) - 1, max(0, round(p * (len(xs) - 1))))
    return xs[idx]


class PhaseStats:
    """Latency histogram and outcome counters for one phase."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.latencies_s = []
        self.statuses = {}
        self.sources = {}          # X-Cache: hit / coalesced / run
        self.retries_429 = 0
        self.hangs = 0
        self.errors = 0            # transport-level failures
        self.started = 0.0
        self.duration_s = 0.0

    def add(self, status: int, source, dt: float) -> None:
        self.latencies_s.append(dt)
        self.statuses[status] = self.statuses.get(status, 0) + 1
        if source:
            self.sources[source] = self.sources.get(source, 0) + 1

    @property
    def requests(self) -> int:
        return len(self.latencies_s)

    @property
    def errors_5xx(self) -> int:
        return sum(n for s, n in self.statuses.items() if s >= 500)

    def hit_ratio(self) -> float:
        answered = sum(
            n for s, n in self.statuses.items() if s == 200
        )
        return (self.sources.get("hit", 0) / answered) if answered else 0.0

    def summary(self) -> dict:
        ms = [dt * 1000.0 for dt in self.latencies_s]
        return {
            "requests": self.requests,
            "duration_s": round(self.duration_s, 3),
            "rps": round(self.requests / self.duration_s, 2)
            if self.duration_s else 0.0,
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "sources": dict(sorted(self.sources.items())),
            "hit_ratio": round(self.hit_ratio(), 4),
            "retries_429": self.retries_429,
            "hangs": self.hangs,
            "transport_errors": self.errors,
            "latency_ms": {
                "mean": round(sum(ms) / len(ms), 3) if ms else 0.0,
                "p50": round(percentile(ms, 0.50), 3),
                "p90": round(percentile(ms, 0.90), 3),
                "p99": round(percentile(ms, 0.99), 3),
                "max": round(max(ms), 3) if ms else 0.0,
            },
        }


# ----------------------------------------------------------------------
# request plan
# ----------------------------------------------------------------------
def point_specs(n: int, tag: str = "serve") -> list:
    """N distinct cheap points: tiny FFT/radix runs split over variants
    so every one is its own cache key."""
    specs = []
    for i in range(n):
        specs.append({
            "workload": "fft" if i % 2 == 0 else "radix",
            "nprocs": (1, 2, 4)[i % 3],
            "size": "test",
            "variant": f"{tag}-{i}",
        })
    return specs


async def _one_request(client, spec, stats, timeout_s):
    t0 = time.monotonic()
    try:
        status, headers, _body = await asyncio.wait_for(
            client.request_json("POST", "/run", spec), timeout_s
        )
    except asyncio.TimeoutError:
        stats.hangs += 1
        await client.close()
        return None
    except (OSError, asyncio.IncompleteReadError, ConnectionResetError):
        stats.errors += 1
        await client.close()
        return None
    stats.add(status, headers.get("x-cache"), time.monotonic() - t0)
    if status == 429:
        stats.retries_429 += 1
        retry = min(float(headers.get("retry-after", "1") or 1), 2.0)
        await asyncio.sleep(retry)
    return status


async def run_cold_phase(host, port, specs, clients, stats, timeout_s):
    """Pull distinct points off a shared queue until none remain."""
    queue = asyncio.Queue()
    for spec in specs:
        queue.put_nowait(spec)

    async def worker():
        client = HttpClient(host, port)
        while True:
            try:
                spec = queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            # keep retrying one point until it lands (429s back off)
            while True:
                status = await _one_request(client, spec, stats, timeout_s)
                if status is None or status < 500 and status != 429:
                    break
                if status >= 500:
                    break
        await client.close()

    stats.started = time.monotonic()
    await asyncio.gather(*[worker() for _ in range(min(clients, len(specs)))])
    stats.duration_s = time.monotonic() - stats.started


async def run_timed_phase(
    host, port, pick, clients, stats, duration_s, timeout_s
):
    """Closed-loop clients issuing ``pick()`` specs for a fixed duration."""
    stop = asyncio.get_running_loop().time() + duration_s

    async def worker():
        client = HttpClient(host, port)
        while asyncio.get_running_loop().time() < stop:
            await _one_request(client, pick(), stats, timeout_s)
        await client.close()

    stats.started = time.monotonic()
    await asyncio.gather(*[worker() for _ in range(clients)])
    stats.duration_s = time.monotonic() - stats.started


async def run_burst_phase(host, port, spec, n, stats, timeout_s):
    """N simultaneous one-shot connections for one (cached) point."""
    async def one():
        client = HttpClient(host, port)
        await _one_request(client, spec, stats, timeout_s)
        await client.close()

    stats.started = time.monotonic()
    await asyncio.gather(*[one() for _ in range(n)])
    stats.duration_s = time.monotonic() - stats.started


# ----------------------------------------------------------------------
# server lifecycle
# ----------------------------------------------------------------------
class SpawnedServer:
    """``python -m repro.serve`` as a child process, log captured."""

    def __init__(self, log_path: Path, cache_dir: str, workers=None) -> None:
        self.log_path = log_path
        env = dict(os.environ, NUMACHINE_CACHE_DIR=cache_dir)
        cmd = [sys.executable, "-m", "repro.serve", "--port", "0"]
        if workers:
            cmd += ["--workers", str(workers)]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        banner = self.proc.stdout.readline().strip()
        try:
            self.port = int(banner.rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.proc.kill()
            raise RuntimeError(f"server did not announce a port: {banner!r}")
        self._log = open(log_path, "w")
        self._log.write(banner + "\n")
        self._pump = threading.Thread(target=self._drain, daemon=True)
        self._pump.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._log.write(line)
            self._log.flush()

    def stop(self, timeout: float = 90.0) -> int:
        """SIGTERM and wait; the exit code is the drain verdict (0=clean)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = -9
        self._pump.join(timeout=5)
        self._log.close()
        return code


# ----------------------------------------------------------------------
async def run_bench(args, host: str, port: int) -> dict:
    specs = point_specs(args.cold_points)
    phases = {}

    cold = PhaseStats("cold")
    await run_cold_phase(host, port, specs, args.clients, cold,
                         args.timeout)
    phases["cold"] = cold.summary()
    print(f"[cold ] {cold.requests} requests in {cold.duration_s:.2f}s "
          f"({cold.summary()['rps']} rps, sources {cold.sources})")

    hot = PhaseStats("hot")
    cycle = itertools.cycle(specs)
    await run_timed_phase(host, port, lambda: next(cycle), args.clients,
                          hot, args.hot_seconds, args.timeout)
    phases["hot"] = hot.summary()
    print(f"[hot  ] {hot.requests} requests in {hot.duration_s:.2f}s "
          f"({phases['hot']['rps']} rps, hit ratio {hot.hit_ratio():.3f}, "
          f"p99 {phases['hot']['latency_ms']['p99']}ms)")

    mixed = PhaseStats("mixed")
    fresh = itertools.count()
    req = itertools.count()

    def pick_mixed():
        if next(req) % args.mixed_cold_every == 0:
            return point_specs(1, tag=f"mixed-{next(fresh)}")[0]
        return next(cycle)

    await run_timed_phase(host, port, pick_mixed, args.clients, mixed,
                          args.mixed_seconds, args.timeout)
    phases["mixed"] = mixed.summary()
    print(f"[mixed] {mixed.requests} requests in {mixed.duration_s:.2f}s "
          f"({phases['mixed']['rps']} rps, sources {mixed.sources})")

    burst = PhaseStats("burst")
    await run_burst_phase(host, port, specs[0], args.burst, burst,
                          args.timeout)
    phases["burst"] = burst.summary()
    print(f"[burst] {burst.requests} concurrent cached requests in "
          f"{burst.duration_s:.2f}s "
          f"(statuses {phases['burst']['statuses']})")

    client = HttpClient(host, port)
    _s, _h, server_stats = await client.request_json("GET", "/stats")
    await client.close()

    all_phases = [cold, hot, mixed, burst]
    return {
        "phases": phases,
        "server_stats": server_stats,
        "totals": {
            "requests": sum(p.requests for p in all_phases),
            "errors_5xx": sum(p.errors_5xx for p in all_phases),
            "hangs": sum(p.hangs for p in all_phases),
            "transport_errors": sum(p.errors for p in all_phases),
        },
        "_hot": hot,
    }


def evaluate_gates(result: dict, args, drain_code) -> dict:
    hot = result["phases"]["hot"]
    totals = result["totals"]
    gates = {
        "errors_5xx": totals["errors_5xx"],
        "hangs": totals["hangs"],
        "transport_errors": totals["transport_errors"],
        "hot_hit_ratio": hot["hit_ratio"],
        "min_hit_ratio": args.min_hit_ratio,
        "clean_drain": drain_code == 0 if drain_code is not None else None,
        "hot_p99_ms": hot["latency_ms"]["p99"],
        "p99_target_ms": args.p99_ms,
        "p99_within_target": hot["latency_ms"]["p99"] <= args.p99_ms,
    }
    hard_fail = (
        totals["errors_5xx"] > 0
        or totals["hangs"] > 0
        or totals["transport_errors"] > 0
        or hot["hit_ratio"] < args.min_hit_ratio
        or gates["clean_drain"] is False
    )
    gates["pass"] = not hard_fail
    return gates


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--soak", type=float, default=None, metavar="SECONDS",
                    help="total timed-phase budget; splits 60/40 across "
                    "hot/mixed (CI uses --soak 45)")
    ap.add_argument("--hot-seconds", type=float, default=5.0)
    ap.add_argument("--mixed-seconds", type=float, default=5.0)
    ap.add_argument("--clients", type=int, default=8,
                    help="closed-loop clients per phase (default 8)")
    ap.add_argument("--cold-points", type=int, default=16,
                    help="distinct points in the cold sweep (default 16)")
    ap.add_argument("--mixed-cold-every", type=int, default=25,
                    help="inject a fresh cold point every N mixed requests")
    ap.add_argument("--burst", type=int, default=200,
                    help="simultaneous one-shot cached requests (default "
                    "200; the acceptance soak uses 1000)")
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="per-request hang timeout in seconds")
    ap.add_argument("--min-hit-ratio", type=float, default=0.95,
                    help="hard gate on the hot phase hit ratio")
    ap.add_argument("--p99-ms", type=float, default=50.0,
                    help="advisory cached-p99 target (host-bound)")
    ap.add_argument("--port", type=int, default=None,
                    help="target an already-running server instead of "
                    "spawning one (lifecycle gates skipped)")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--workers", type=int, default=None,
                    help="worker processes for the spawned server")
    ap.add_argument("--server-log", default=None,
                    help="server log path (spawned mode; default "
                    "serve_soak.log next to --out)")
    ap.add_argument("--out", default=str(RESULT_FILE))
    ap.add_argument("--no-ledger", action="store_true")
    args = ap.parse_args(argv)

    if args.soak is not None:
        args.hot_seconds = args.soak * 0.6
        args.mixed_seconds = args.soak * 0.4

    out_path = Path(args.out)
    log_path = Path(args.server_log) if args.server_log else (
        out_path.parent / "serve_soak.log"
    )

    spawned, cache_dir, drain_code = None, None, None
    if args.port is None:
        cache_dir = tempfile.mkdtemp(prefix="numachine_serve_bench_")
        spawned = SpawnedServer(log_path, cache_dir, workers=args.workers)
        host, port = "127.0.0.1", spawned.port
        print(f"spawned server on port {port} (cache {cache_dir}, "
              f"log {log_path})")
    else:
        host, port = args.host, args.port

    try:
        result = asyncio.run(run_bench(args, host, port))
    finally:
        if spawned is not None:
            drain_code = spawned.stop()
            print(f"server drain exit code: {drain_code}")
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)

    result.pop("_hot")
    gates = evaluate_gates(result, args, drain_code)
    payload = {
        "schema": BENCH_SCHEMA,
        "host": ledger.host_fingerprint(),
        "args": {
            "clients": args.clients, "cold_points": args.cold_points,
            "hot_seconds": args.hot_seconds,
            "mixed_seconds": args.mixed_seconds, "burst": args.burst,
        },
        **result,
        "gates": gates,
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")

    if not args.no_ledger:
        hot = result["phases"]["hot"]
        ledger.append_entry("serve_soak", {
            "hot_rps": hot["rps"],
            "hot_hit_ratio": hot["hit_ratio"],
            "hot_p99_ms": hot["latency_ms"]["p99"],
            "cold_points": args.cold_points,
            "cold_rps": result["phases"]["cold"]["rps"],
            "burst": args.burst,
            "errors_5xx": result["totals"]["errors_5xx"],
            "clean_drain": gates["clean_drain"],
        }, kind="serving")

    if not gates["p99_within_target"]:
        print(f"ADVISORY: hot p99 {gates['hot_p99_ms']}ms over the "
              f"{args.p99_ms}ms target (host-bound; hard only on the "
              "recorded host)")
    if not gates["pass"]:
        print("FAIL: " + json.dumps(
            {k: v for k, v in gates.items() if k != "pass"}))
        return 1
    print(f"PASS: {result['totals']['requests']} requests, "
          f"0 5xx / 0 hangs, hot hit ratio {gates['hot_hit_ratio']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
