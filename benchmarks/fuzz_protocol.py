#!/usr/bin/env python
"""Randomized protocol explorer: workloads x placements x fault plans,
with the coherence invariant checker always on.

Each run derives *everything* from one integer seed — machine size,
workload and its parameters, CPU placement, and a delay-class
:class:`repro.fault.FaultPlan` — so any failure reproduces from its seed
alone:

    python benchmarks/fuzz_protocol.py --reproduce <seed>

Delay-class faults must never change results, so every run asserts
completion without an invariant violation, and runs of the commutative
counter workload additionally assert the analytically known final memory
values.  Failures (violation, watchdog dump, data mismatch) are written
to ``<out-dir>/fuzz_failures.json`` and the failing seeds printed.

Typical CI use: ``--seconds 30`` on PRs, ``--seconds 180 --sizes 4,16,64``
nightly.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import traceback
from pathlib import Path
from typing import Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Machine, MachineConfig  # noqa: E402
from repro.cpu.ops import AtomicRMW, Compute  # noqa: E402
from repro.protocol import resolve_protocol_name  # noqa: E402
from repro.fault import FaultPlan, WatchdogError  # noqa: E402
from repro.verify import CoherenceChecker, InvariantViolation  # noqa: E402
from repro.workloads.base import BarrierFactory, SharedArray, Workload  # noqa: E402
from repro.workloads.synthetic import (  # noqa: E402
    HotSpot,
    ProducerConsumer,
    UniformAccess,
)

from harness import spread_cpus  # noqa: E402


class CounterStorm(Workload):
    """Commutative atomic increments: the final value of every counter is
    known analytically, whatever the interleaving — the data-integrity
    oracle for delay-class fault runs."""

    name = "counterstorm"

    def __init__(self, words: int = 8, incs: int = 30) -> None:
        super().__init__()
        self.words = words
        self.incs = incs

    def build(self, machine, cpus: Sequence[int]) -> None:
        self.barrier = BarrierFactory(cpus)
        self.arr = SharedArray(machine, self.words, name="ctr")

    def thread_program(self, tid: int, cpus: Sequence[int]):
        yield self.barrier(tid)
        for k in range(self.incs):
            yield AtomicRMW(self.arr.addr((tid + k) % self.words), lambda v: v + 1)
            yield Compute(4)
        yield self.barrier(tid)

    def expected(self, nprocs: int) -> list:
        # each cpu touches counters (tid+k) % words, incs times total
        totals = [0] * self.words
        for tid in range(nprocs):
            for k in range(self.incs):
                totals[(tid + k) % self.words] += 1
        return totals


def config_for(nprocs: int) -> MachineConfig:
    if nprocs <= 4:
        return MachineConfig.small(stations_per_ring=2, rings=1, cpus=2)
    if nprocs <= 16:
        return MachineConfig.small(stations_per_ring=2, rings=2, cpus=4)
    return MachineConfig.prototype()


def build_workload(rng: random.Random):
    pick = rng.randrange(4)
    if pick == 0:
        return HotSpot(
            words=rng.choice([16, 64]),
            ops=rng.choice([40, 80]),
            hot_station=rng.randrange(2),
        )
    if pick == 1:
        return UniformAccess(
            words=rng.choice([256, 1024]),
            ops=rng.choice([60, 120]),
            read_frac=rng.choice([0.5, 0.8]),
        )
    if pick == 2:
        return ProducerConsumer(rounds=rng.choice([4, 8]), payload=4)
    return CounterStorm(words=rng.choice([4, 8, 16]), incs=rng.choice([20, 40]))


def fuzz_one(seed: int, sizes: Sequence[int], verbose: bool = False) -> dict:
    """Run one fully seeded scenario; returns a result record."""
    rng = random.Random(seed)
    nprocs = rng.choice(list(sizes))
    cfg = config_for(nprocs)
    nprocs = min(nprocs, cfg.num_cpus)
    workload = build_workload(rng)
    # retired scheduler draw: keeps every seed's placement and fault plan
    rng.choice(["heap", "calendar"])
    spread = rng.random() < 0.5
    plan = FaultPlan.random(
        rng.randrange(1 << 30), cfg, horizon_ns=40_000.0, allow_loss=False
    )
    record = {
        "seed": seed,
        "nprocs": nprocs,
        "workload": workload.name,
        "protocol": resolve_protocol_name(cfg),
        "spread": spread,
        "plan": plan.describe(),
    }
    if verbose:
        print(json.dumps(record, indent=2))

    machine = Machine(cfg)

    # a single hot-line transaction can legitimately stay locked across a
    # long NACK-retry chain under high contention; scale the liveness
    # bound with the processor count so P=64 storms don't false-positive
    verifier = machine.attach_verifier(
        CoherenceChecker(max_locked_ticks=3_000_000 * max(1, nprocs // 4))
    )
    verifier.set_seed(seed)
    machine.attach_watchdog(max_ticks=500_000_000, interval=50_000)
    machine.attach_fault(plan)
    try:
        if spread:
            workload.run(machine, cpus=spread_cpus(cfg, nprocs))
        else:
            workload.run(machine, nprocs=nprocs)
        if isinstance(workload, CounterStorm):
            machine.flush_all_dirty()
            got = [machine.read_word(workload.arr.addr(i))
                   for i in range(workload.words)]
            want = workload.expected(nprocs)
            if got != want:
                raise AssertionError(
                    f"data mismatch under delay-class faults: {got} != {want}"
                )
        record["ok"] = True
        record["events"] = machine.engine.events_run
        record["checks"] = sum(verifier.checks.values())
    except (InvariantViolation, WatchdogError, AssertionError, Exception) as exc:
        record["ok"] = False
        record["error_type"] = type(exc).__name__
        record["error"] = str(exc)
        if not isinstance(exc, (InvariantViolation, WatchdogError, AssertionError)):
            record["traceback"] = traceback.format_exc()
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="wall-clock budget (default 30)")
    ap.add_argument("--seed", type=int, default=0,
                    help="first seed of the sweep (default 0)")
    ap.add_argument("--sizes", default="4,16",
                    help="comma-separated processor counts (default 4,16)")
    ap.add_argument("--max-runs", type=int, default=None,
                    help="stop after N runs even if time remains")
    ap.add_argument("--reproduce", type=int, default=None, metavar="SEED",
                    help="run exactly one seed, verbosely, and exit")
    ap.add_argument("--out-dir", default="out",
                    help="where failure artifacts are written (default out/)")
    args = ap.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",") if s]

    if args.reproduce is not None:
        record = fuzz_one(args.reproduce, sizes, verbose=True)
        print(json.dumps({k: v for k, v in record.items() if k != "plan"},
                         indent=2, default=str))
        return 0 if record["ok"] else 1

    deadline = time.monotonic() + args.seconds
    failures = []
    runs = 0
    seed = args.seed
    while time.monotonic() < deadline:
        if args.max_runs is not None and runs >= args.max_runs:
            break
        record = fuzz_one(seed, sizes)
        runs += 1
        if not record["ok"]:
            failures.append(record)
            print(f"FAIL seed={seed}: {record['error_type']}: "
                  f"{record['error'].splitlines()[0][:120]}")
        seed += 1

    print(f"fuzz: {runs} runs, {len(failures)} failures "
          f"(seeds {args.seed}..{seed - 1}, sizes {sizes})")
    if failures:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "fuzz_failures.json"
        path.write_text(json.dumps(failures, indent=2, default=str))
        print(f"failing seeds: {[f['seed'] for f in failures]}")
        print(f"artifacts: {path}")
        print(f"reproduce with: python benchmarks/fuzz_protocol.py "
              f"--reproduce {failures[0]['seed']} --sizes {args.sizes}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
