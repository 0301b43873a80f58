"""Job-server tests: canonicalization, coalescing, backpressure, drain,
and the /metrics exposition.

Event-loop pieces run under ``asyncio.run`` inside plain sync tests (no
pytest-asyncio in the toolchain).  Pool behaviour is pinned with two
injected executors: a counting wrapper around a thread pool (real
simulations, observable submission count) and a stalling executor whose
futures the test completes by hand (deterministic queue/drain states).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import re

import pytest

from repro.perf.cache import RunCache
from repro.perf.ledger import LEDGER_SCHEMA, make_entry
from repro.perf.sweep import run_point
from repro.obs.registry import serve_to_prometheus
from repro.serve import (
    Backpressure,
    Draining,
    JobExpired,
    JobManager,
    Server,
    canonical_point,
)
from repro.serve.canon import BadRequest
from repro.serve.client import HttpClient
from repro.serve.jobs import _run_one
from repro.serve.metrics import ServeMetrics


# ----------------------------------------------------------------------
# canonicalization: equivalent requests -> one key
# ----------------------------------------------------------------------
def test_canonical_equivalence_one_key():
    a = canonical_point({"workload": "fft", "nprocs": 2, "size": "test"})
    variants = [
        {"size": "test", "workload": "fft", "nprocs": 2},      # reordered
        {"workload": "fft", "nprocs": 2.0, "size": "test"},    # float count
        {"workload": "fft", "cpus": [0, 1], "size": "test"},   # explicit default placement
        {"workload": "fft", "nprocs": 2, "size": "test", "config": {}},
        {"workload": "fft", "nprocs": 2, "size": "test", "variant": ""},
        # transport options never reach the key
        {"workload": "fft", "nprocs": 2, "size": "test", "stream": True,
         "ttl_s": 5},
    ]
    for spec in variants:
        assert canonical_point(spec).key == a.key, spec
    # the normalized spec is identical too (it is what the server echoes)
    assert canonical_point(variants[2]).spec == a.spec


def test_canonical_distinct_points_distinct_keys():
    base = {"workload": "fft", "nprocs": 2, "size": "test"}
    a = canonical_point(base)
    for change in (
        {"workload": "radix"},
        {"nprocs": 4, "cpus": []},
        {"cpus": [0, 4], "nprocs": 2},     # spread placement != consecutive
        {"size": "bench"},
        {"variant": "ablation"},
        {"config": {"nc_enabled": False}},
        {"config": {"geometry": [2, 2]}},
    ):
        spec = dict(base, **change)
        assert canonical_point(spec).key != a.key, spec


def test_canonical_config_override_order_irrelevant():
    a = canonical_point({"workload": "fft", "nprocs": 2, "size": "test",
                         "config": {"nc_enabled": False, "compute_scale": 2}})
    b = canonical_point({"workload": "fft", "nprocs": 2, "size": "test",
                         "config": {"compute_scale": 2.0, "nc_enabled": False}})
    assert a.key == b.key


@pytest.mark.parametrize("spec", [
    {"nprocs": 2},                                            # no workload
    {"workload": "nope", "nprocs": 2},                        # unknown workload
    {"workload": "fft"},                                      # no nprocs/cpus
    {"workload": "fft", "nprocs": 0},
    {"workload": "fft", "nprocs": True},                      # bool is not int
    {"workload": "fft", "nprocs": 2, "size": "huge"},
    {"workload": "fft", "nprocs": 3, "cpus": [0, 1]},         # disagreement
    {"workload": "fft", "cpus": [0, 0]},                      # duplicate cpu
    {"workload": "fft", "nprocs": 2, "turbo": True},          # unknown field
    {"workload": "fft", "nprocs": 2, "config": {"warp": 9}},  # unknown config
    {"workload": "fft", "nprocs": 2, "config": {"nc_enabled": "yes"}},
    {"workload": "fft", "nprocs": 10_000},                    # too many cpus
    {"workload": "fft", "nprocs": 2, "cpus": [0, 99]},        # cpu id range
    "not an object",
])
def test_canonical_rejects(spec):
    with pytest.raises(BadRequest):
        canonical_point(spec)


# ----------------------------------------------------------------------
# executors for deterministic pool behaviour
# ----------------------------------------------------------------------
class CountingExecutor:
    """A thread pool that counts submissions (simulations really run)."""

    def __init__(self) -> None:
        self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=2)
        self.submissions = 0

    def submit(self, fn, *args):
        self.submissions += 1
        return self._pool.submit(fn, *args)

    def shutdown(self, wait=True, cancel_futures=False):
        self._pool.shutdown(wait=wait)


class StallExecutor:
    """Futures the test completes by hand; nothing ever runs."""

    def __init__(self) -> None:
        self.calls = []  # (payloads, future)

    def submit(self, fn, payloads):
        fut = concurrent.futures.Future()
        self.calls.append((payloads, fut))
        return fut

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _manager(tmp_path, executor, **kw):
    kw.setdefault("workers", 1)
    kw.setdefault("queue_depth", 2)
    kw.setdefault("batch_max", 4)
    return JobManager(
        cache=RunCache(root=tmp_path / "cache"),
        executor=executor,
        **kw,
    )


async def _spin_until(predicate, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition never became true"
        await asyncio.sleep(0.01)


# ----------------------------------------------------------------------
# coalescing: N identical concurrent requests -> ONE pool submission
# ----------------------------------------------------------------------
def test_coalescing_one_pool_submission(tmp_path):
    async def main():
        ex = CountingExecutor()
        mgr = _manager(tmp_path, ex, queue_depth=8)
        await mgr.start()
        cp = canonical_point({"workload": "fft", "nprocs": 1, "size": "test"})

        first = mgr.submit(cp)
        others = [mgr.submit(cp) for _ in range(5)]
        assert first[0] == "run"
        assert all(src == "coalesced" for src, _ in others)
        # every waiter shares the one in-flight job (and its future)
        assert all(job is first[1] for _, job in others)

        records = await asyncio.gather(
            *[asyncio.shield(job.future) for _, job in [first] + others]
        )
        assert len({id(r) for r in records}) == 1  # one shared record
        assert ex.submissions == 1
        assert mgr.metrics.pool_submissions == 1
        assert mgr.metrics.coalesced == 5
        for _, job in [first] + others:
            mgr.release_waiter(job)

        # the point is cached now: a fresh submit is a hit, still 1 submission
        src, record = mgr.submit(cp)
        assert src == "hit"
        assert record.to_json() == records[0].to_json()
        assert ex.submissions == 1
        assert await mgr.drain(timeout=5)

    asyncio.run(main())


# ----------------------------------------------------------------------
# backpressure: queue at depth cap -> Backpressure (HTTP 429)
# ----------------------------------------------------------------------
def test_backpressure_at_depth_cap(tmp_path):
    async def main():
        ex = StallExecutor()
        mgr = _manager(tmp_path, ex, queue_depth=2, batch_max=1)
        await mgr.start()

        def spec(i):
            return canonical_point({"workload": "fft", "nprocs": 1,
                                    "size": "test", "variant": f"v{i}"})

        # first job is pulled by the dispatcher and stalls in the "pool";
        # the next two fill the depth-2 queue; the fourth must bounce
        jobs = [mgr.submit(spec(0))[1]]
        await _spin_until(lambda: ex.calls)
        jobs += [mgr.submit(spec(1))[1], mgr.submit(spec(2))[1]]
        with pytest.raises(Backpressure) as excinfo:
            mgr.submit(spec(3))
        assert excinfo.value.retry_after >= 1.0
        # the bounced job was never admitted: no miss counted for it
        assert mgr.metrics.cache_misses == 3

        # unstall everything so drain can finish cleanly
        ok = _run_one({"point": spec(0).point.__class__(
            workload="fft", nprocs=1, size="test")})
        assert ok["ok"]
        while ex.calls or any(not j.future.done() for j in jobs):
            for payloads, fut in ex.calls:
                fut.set_result([ok] * len(payloads))
            ex.calls.clear()
            await asyncio.sleep(0.02)
        for j in jobs:
            mgr.release_waiter(j)
        assert await mgr.drain(timeout=5)

    asyncio.run(main())


# ----------------------------------------------------------------------
# TTL: a queued, unsubmitted job expires
# ----------------------------------------------------------------------
def test_queued_job_expires_past_ttl(tmp_path):
    async def main():
        ex = StallExecutor()
        mgr = _manager(tmp_path, ex, queue_depth=4, batch_max=1)
        await mgr.start()
        blocker = canonical_point({"workload": "fft", "nprocs": 1,
                                   "size": "test", "variant": "blocker"})
        doomed = canonical_point({"workload": "fft", "nprocs": 1,
                                  "size": "test", "variant": "doomed"})
        _, bjob = mgr.submit(blocker)
        await _spin_until(lambda: ex.calls)         # blocker occupies the pool
        _, djob = mgr.submit(doomed, ttl_s=0.01)    # waits in queue

        with pytest.raises(JobExpired):
            await asyncio.shield(djob.future)
        assert mgr.metrics.jobs_expired == 1
        mgr.release_waiter(djob)

        ok = _run_one({"point": blocker.point})
        ex.calls[0][1].set_result([ok])
        await asyncio.shield(bjob.future)
        mgr.release_waiter(bjob)
        assert await mgr.drain(timeout=5)

    asyncio.run(main())


# ----------------------------------------------------------------------
# drain: in-flight jobs finish, new work bounces
# ----------------------------------------------------------------------
def test_drain_finishes_inflight_and_rejects_new(tmp_path):
    async def main():
        ex = StallExecutor()
        mgr = _manager(tmp_path, ex, queue_depth=4)
        await mgr.start()
        cp = canonical_point({"workload": "fft", "nprocs": 1, "size": "test"})
        src, job = mgr.submit(cp)
        assert src == "run"
        await _spin_until(lambda: ex.calls)

        drain_task = asyncio.ensure_future(mgr.drain(timeout=10))
        await _spin_until(lambda: mgr.draining)
        other = canonical_point({"workload": "radix", "nprocs": 1,
                                 "size": "test"})
        with pytest.raises(Draining):
            mgr.submit(other)
        # coalescing onto already-admitted work stays allowed while draining
        assert mgr.submit(cp)[0] == "coalesced"
        mgr.release_waiter(job)

        assert not drain_task.done()   # drain waits for the in-flight job
        ok = _run_one({"point": cp.point})
        ex.calls[0][1].set_result([ok])
        record = await asyncio.shield(job.future)
        mgr.release_waiter(job)
        assert await drain_task        # clean drain
        # the in-flight result landed in the cache on the way out
        assert mgr.cache.get(cp.key).to_json() == record.to_json()

    asyncio.run(main())


# ----------------------------------------------------------------------
# abandoned jobs never reach the pool
# ----------------------------------------------------------------------
def test_abandoned_job_dropped_before_pool(tmp_path):
    async def main():
        ex = StallExecutor()
        mgr = _manager(tmp_path, ex)
        await mgr.start()
        cp = canonical_point({"workload": "fft", "nprocs": 1, "size": "test"})
        _, job = mgr.submit(cp)
        mgr.release_waiter(job)        # client gone before the dispatcher ran
        await asyncio.sleep(0.1)
        assert ex.calls == []
        assert mgr.metrics.jobs_dropped == 1
        assert mgr.metrics.pool_submissions == 0
        assert await mgr.drain(timeout=5)

    asyncio.run(main())


# ----------------------------------------------------------------------
# /metrics: the serve exposition passes the same validator the machine
# exposition is held to (tests/test_obs.py)
# ----------------------------------------------------------------------
_METRIC_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")


def _validate_prometheus(text: str) -> set:
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
            name_part, _, value = line.rpartition(" ")
            float(value)
            sampled.add(name)
    assert helped == typed  # HELP/TYPE always come as a pair
    return sampled


def test_serve_prometheus_passes_golden_validator():
    m = ServeMetrics()
    m.record_request("POST /run", 200)
    m.record_request("POST /run", 429)
    m.record_request("GET /metrics", 200)
    m.cache_hits, m.cache_misses, m.coalesced = 19, 1, 7
    for i in range(10):
        m.record_latency("hit", 0.001 * (i + 1))
        m.record_latency("run", 0.1 * (i + 1))
    text = serve_to_prometheus(m.snapshot())
    sampled = _validate_prometheus(text)
    assert "numachine_serve_requests_total" in sampled
    assert "numachine_serve_cache_hit_ratio" in sampled
    assert "numachine_serve_request_latency_seconds" in sampled
    assert 'quantile="0.99"' in text
    assert f"numachine_serve_cache_hit_ratio {19 / 20}" in text


def test_serve_metrics_hit_ratio_empty_is_zero():
    assert ServeMetrics().hit_ratio() == 0.0


# ----------------------------------------------------------------------
# the whole stack over a real socket and a real process pool
# ----------------------------------------------------------------------
def test_http_end_to_end(tmp_path):
    async def main():
        mgr = JobManager(
            workers=2, queue_depth=8, batch_max=4,
            cache=RunCache(root=tmp_path / "cache"),
        )
        server = Server("127.0.0.1", 0, mgr)
        host, port = await server.start()
        client = HttpClient(host, port)

        status, _h, health = await client.request_json("GET", "/healthz")
        assert (status, health["status"]) == (200, "ok")

        spec = {"workload": "fft", "nprocs": 2, "size": "test"}
        status, headers, body = await client.request_json("POST", "/run", spec)
        assert status == 200 and headers["x-cache"] == "run"
        assert body["source"] == "run" and body["record"]["workload"] == "fft"

        # same point again: a cache hit, same record bytes
        status, headers, hot = await client.request_json("POST", "/run", spec)
        assert status == 200 and headers["x-cache"] == "hit"
        assert hot["record"] == body["record"] and hot["key"] == body["key"]

        # a streamed cold point: queued, telemetry..., result
        sspec = {"workload": "fft", "nprocs": 1, "size": "test",
                 "stream": True}
        events, first = [], None
        async for item in client.stream_lines("POST", "/run", sspec):
            if first is None:
                first = item
                continue
            events.append(item)
        assert first[0] == 200
        assert first[1]["content-type"].startswith("application/x-ndjson")
        assert events[0]["event"] == "queued"
        assert events[-1]["event"] == "result"
        assert any(e["event"] == "telemetry" for e in events)

        # the streamed result is an *observed* run: simulated work and
        # statistics match an unobserved inline run exactly, the sampler's
        # own events are reported and account for the whole event delta,
        # and the observed record was NOT cached under the canonical key
        scp = canonical_point({"workload": "fft", "nprocs": 1,
                               "size": "test"})
        plain = run_point(scp.point,
                          cache=RunCache(root=tmp_path / "reference"))
        streamed = events[-1]["record"]
        assert streamed["parallel_time_ns"] == plain.parallel_time_ns
        assert streamed["memory_stats"] == plain.memory_stats
        assert streamed["nc_stats"] == plain.nc_stats
        ticks = events[-1]["sampler_ticks"]
        assert ticks >= 1
        assert streamed["events"] == plain.events + ticks
        assert mgr.cache.get(scp.key) is None
        await client.close()

        # sweep with an intra-sweep duplicate
        client = HttpClient(host, port)
        status, _h, sw = await client.request_json("POST", "/sweep", {
            "points": [spec, {"workload": "fft", "nprocs": 1, "size": "test"},
                       dict(spec)],
        })
        assert status == 200
        sources = [r["source"] for r in sw["results"]]
        assert sources[0] == "hit" and sources[2] in ("hit", "coalesced")
        assert sw["results"][0]["key"] == sw["results"][2]["key"]

        # error paths
        status, _h, err = await client.request_json(
            "POST", "/run", {"workload": "nope", "nprocs": 2})
        assert status == 400 and "nope" in err["error"]
        status, _h, _b = await client.request_json("GET", "/nowhere")
        assert status == 404
        status, _h, _b = await client.request_json("GET", "/run")
        assert status == 405

        # /metrics passes the exposition validator and shows our traffic
        status, headers, text = await client.request("GET", "/metrics")
        assert status == 200 and headers["content-type"].startswith("text/plain")
        sampled = _validate_prometheus(text.decode())
        assert "numachine_serve_requests_total" in sampled
        status, _h, stats = await client.request_json("GET", "/stats")
        assert status == 200 and stats["cache"]["hits"] >= 2

        await client.close()
        assert await server.drain_and_stop(timeout=30)

    asyncio.run(main())


# ----------------------------------------------------------------------
# ledger schema 4: serving entries are distinguishable
# ----------------------------------------------------------------------
def test_ledger_kind_field():
    assert LEDGER_SCHEMA == 4
    assert make_entry("bench_engine", {})["kind"] == "simulation"
    entry = make_entry("bench_serve", {"rps": 1.0}, kind="serving")
    assert entry["kind"] == "serving" and entry["schema"] == 4
    with pytest.raises(ValueError):
        make_entry("bench_serve", {}, kind="mystery")
    json.dumps(entry)  # the envelope stays JSON-serializable
