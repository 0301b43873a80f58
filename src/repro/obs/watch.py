"""``python -m repro.obs.watch`` — tail a live (or finished) run.

Reads the JSONL telemetry stream a :class:`repro.obs.stream.TelemetryStream`
writes and renders a terminal status panel: simulated time, event totals,
per-CPU completion progress, utilizations, sparkline timelines of the event
rate and bus utilization across stream lines, and two ETA estimates — one
from CPU completion progress against wall time, one from the event rate
against the pending-event count (a drain lower bound).

In follow mode (the default) the file is re-read on an interval until the
``stream.final`` line lands; ``--once`` renders the current state and
exits, which is what CI uses against a completed run.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .report import sparkline
from .stream import read_stream, stream_is_final


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None or seconds < 0:
        return "?"
    if seconds < 120:
        return f"{seconds:.1f}s"
    if seconds < 7200:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def _rates(lines: List[dict]) -> List[float]:
    """Events/s of each inter-line interval, from the stream's own
    wall-clock stamps (robust across runs appended to one file)."""
    out: List[float] = []
    for prev, cur in zip(lines, lines[1:]):
        de = cur["meta"].get("events_run", 0) - prev["meta"].get("events_run", 0)
        dw = cur["stream"]["wall_ts"] - prev["stream"]["wall_ts"]
        out.append(de / dw if dw > 0 and de >= 0 else 0.0)
    return out


def render_status(lines: List[dict], width: int = 60) -> str:
    """The status panel for a parsed stream (pure: testable, no I/O)."""
    if not lines:
        return "(no stream lines yet)"
    last = lines[-1]
    meta = last.get("meta", {})
    st = last.get("stream", {})
    out: List[str] = []

    done, total = st.get("cpus_done", 0), st.get("cpus_total", 0)
    state = "FINISHED" if st.get("final") else "running"
    out.append(
        f"{state} [{meta.get('protocol', 'numachine')}]: "
        f"{meta.get('time_ns', 0):,.0f} ns simulated, "
        f"{meta.get('events_run', 0):,} events, "
        f"cpus {done}/{total} done, {st.get('pending', 0):,} events pending"
    )

    rates = _rates(lines)
    rate = rates[-1] if rates else meta.get("events_per_sec", 0.0)
    if not st.get("final"):
        eta_cpu = None
        elapsed = st.get("wall_ts", 0) - lines[0]["stream"].get("wall_ts", 0)
        if done and total and done < total and elapsed > 0:
            eta_cpu = elapsed * (total - done) / done
        eta_drain = st.get("pending", 0) / rate if rate > 0 else None
        out.append(
            f"rate: {rate:,.0f} events/s   "
            f"eta {_fmt_eta(eta_cpu)} (cpu progress), "
            f">= {_fmt_eta(eta_drain)} (queue drain)"
        )
    elif "events_per_sec" in meta:
        out.append(
            f"rate: {meta['events_per_sec']:,.0f} events/s "
            f"over the run ({meta.get('wall_s', 0):.3f} s wall)"
        )

    util = last.get("utilizations", {})
    if util:
        out.append(
            "util: " + "  ".join(f"{k}={v:.1%}" for k, v in sorted(util.items()))
        )

    if len(lines) >= 2:
        out.append("")
        out.append(f"  {'events/s':<14} |{sparkline(rates, width)}|")
        for key in sorted(util):
            series = [
                ln.get("utilizations", {}).get(key, 0.0) for ln in lines
            ]
            out.append(f"  {key + '.util':<14} |{sparkline(series, width)}|")

    fifos = last.get("fifos", {})
    deep = sorted(
        ((f["depth"], name) for name, f in fifos.items() if f.get("depth")),
        reverse=True,
    )[:5]
    if deep:
        out.append("")
        out.append(
            "deepest fifos: "
            + "  ".join(f"{name}={depth}" for depth, name in deep)
        )
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.watch",
        description="Tail a run's JSONL telemetry stream "
        "(see Observability(stream_path=...)).",
    )
    parser.add_argument("stream", help="telemetry JSONL file")
    parser.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh period in seconds (default: 1.0)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render the current state once and exit",
    )
    args = parser.parse_args(argv)

    while True:
        try:
            lines = read_stream(args.stream)
        except OSError as exc:
            print(f"error: cannot read stream: {exc}", file=sys.stderr)
            return 2
        panel = render_status(lines)
        if args.once:
            print(panel)
            return 0
        # follow mode: repaint in place until the final line lands
        sys.stdout.write("\x1b[2J\x1b[H" + panel + "\n")
        sys.stdout.flush()
        if stream_is_final(lines):
            return 0
        time.sleep(args.interval)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke test
    raise SystemExit(main())
