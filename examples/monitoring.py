#!/usr/bin/env python3
"""Performance monitoring hardware (paper §3.3) + the observability layer.

Attaches the non-intrusive monitor and the ``repro.obs`` observability
layer, runs a workload with deliberate false sharing, and shows how the
instrumentation exposes the problem from three angles:

* the cache-coherence histogram table (§3.3.3): a line ping-ponging
  between writers shows up as a high invalidation count and LI/GI states
  under write requests;
* the phase-identifier register: attributes the traffic to the offending
  code region;
* transaction traces and probes: the per-segment latency breakdown shows
  where the extra nanoseconds go, and the FIFO/bus probes show the
  resulting queueing.

Artifacts (written to ``--out-dir``, default ``out/``, viewable in
Perfetto / ``python -m repro.obs.report``):

* ``numachine_trace.json`` — Chrome trace-event timeline of every
  transaction, with probe counter tracks
* ``numachine_obs.json``   — unified metrics snapshot

Run:  python examples/monitoring.py [--out-dir out] [--no-monitor]

``--no-monitor`` drops the §3.3 monitor and keeps only the observability
layer: the run then executes on the *instrumented* specialized core —
the monitor is the one hook here
that forces the interpreter (see :mod:`repro.elab.backend`).
"""

import argparse
from pathlib import Path

from repro import (
    Barrier, Compute, Machine, MachineConfig, Observability, Phase, Read,
    Write,
)
from repro.monitor import Monitor
from repro.obs import write_snapshot
from repro.obs.report import render_text


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, default=Path("out"),
                    help="directory for trace/snapshot artifacts (default out/)")
    ap.add_argument("--no-monitor", action="store_true",
                    help="skip the §3.3 monitor so an elab-backend run can "
                    "stay on the instrumented specialized core")
    args = ap.parse_args(argv)
    config = MachineConfig.small(stations_per_ring=2, rings=2, cpus=2)
    machine = Machine(config)
    monitor = None
    if not args.no_monitor:
        monitor = Monitor()
        machine.attach_monitor(monitor)
    obs = Observability(probe_period_ns=500.0).attach(machine)

    cpus = tuple(range(config.num_cpus))
    # counters[i] for thread i -- but packed into ONE cache line: false sharing
    packed = machine.allocate(len(cpus) * 8, placement="local:0", name="packed")
    # padded version: one counter per line
    padded = machine.allocate(len(cpus) * config.line_bytes, placement="local:0",
                              name="padded")

    rounds = 30

    def worker(tid: int):
        yield Phase(1)  # phase 1: false-sharing counters
        for r in range(rounds):
            v = yield Read(packed.addr(tid * 8))
            yield Write(packed.addr(tid * 8), v + 1)
            yield Compute(20)
        yield Barrier(0, cpus)
        yield Phase(2)  # phase 2: padded counters
        for r in range(rounds):
            v = yield Read(padded.addr(tid * config.line_bytes))
            yield Write(padded.addr(tid * config.line_bytes), v + 1)
            yield Compute(20)
        yield Barrier(1, cpus)

    result = machine.run({cpu: worker(tid) for tid, cpu in enumerate(cpus)})
    print(f"ran in {result.time_ns / 1000:.1f} us "
          f"(backend={machine.backend}"
          + (f", variant={machine.backend_variant}" if machine.backend_variant
             else "") + ")\n")

    if monitor is not None:
        print("memory coherence histogram (state x transaction type):")
        print(monitor.coherence_histogram.render())
        print()
        print("traffic by phase identifier (phase 1 = packed/false-sharing,"
              " phase 2 = padded):")
        print(monitor.phase_table.render())
        print()
        p1 = monitor.phase_table.total(col=1)
        p2 = monitor.phase_table.total(col=2)
        print(f"memory transactions: phase 1 (false sharing) = {p1}, "
              f"phase 2 (padded) = {p2}")
        print(f"-> the packed layout generated {p1 / max(1, p2):.1f}x the "
              "coherence traffic for identical work")
        print()
        print("last 5 trace-memory entries:", monitor.trace.recent(5))

    # ------------------------------------------------------------------
    # observability layer: traces, probes, unified snapshot
    # ------------------------------------------------------------------
    print()
    print("=" * 70)
    print("observability snapshot (python -m repro.obs.report renders this"
          " from the JSON):")
    print()
    snap = machine.obs_snapshot()
    print(render_text(snap, probe_limit=8))

    args.out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = args.out_dir / "numachine_trace.json"
    snap_path = args.out_dir / "numachine_obs.json"
    obs.write_trace(str(trace_path))
    write_snapshot(str(snap_path), snap)
    print()
    print(f"wrote {trace_path}  (open in https://ui.perfetto.dev)")
    print(f"wrote {snap_path}    (python -m repro.obs.report {snap_path})")
    tr = obs.tracer.summary()
    print(f"traced {tr['finished']} transactions"
          f" ({obs.probes.samples} probe samples)")


if __name__ == "__main__":
    main()
