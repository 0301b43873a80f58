"""``python -m repro.obs.report`` — render a saved observability snapshot.

Reads a JSON snapshot written by :func:`repro.obs.registry.write_snapshot`
(or ``Observability.write_snapshot``) and prints, depending on ``--format``:

``text`` (default)
    run metadata, monitor histograms, the traced latency breakdown per
    transaction kind and pipeline segment, FIFO occupancy, and ASCII
    sparkline timelines of the probe series.
``prom``
    the Prometheus text exposition of the same snapshot.
``json``
    the snapshot itself, pretty-printed (useful after ad-hoc filtering).

Given two snapshots, ``python -m repro.obs.report A.json B.json`` prints
every leaf that differs between them instead, one line each with its
path, A, B and B−A.  Every section is walked, probe series and trace
summary included; only the host-time fields ``meta.wall_s`` and
``meta.events_per_sec`` are not compared, and a leaf present on one side
only counts as a difference.  The exit status is 1 when anything differs
and 0 when nothing does; an unreadable file exits 2 in either form.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from ..sim.engine import TICKS_PER_NS
from .registry import to_prometheus

_SPARK = " .:-=+*#%@"


def sparkline(values, width: int = 60) -> str:
    """Down-sample ``values`` to ``width`` buckets of ASCII intensity."""
    if not values:
        return ""
    if len(values) > width:
        step = len(values) / width
        values = [
            max(values[int(i * step): max(int(i * step) + 1, int((i + 1) * step))])
            for i in range(width)
        ]
    top = max(values)
    if top <= 0:
        return _SPARK[0] * len(values)
    scale = len(_SPARK) - 1
    return "".join(_SPARK[min(scale, int(v / top * scale + 0.5))] for v in values)


def _render_histogram(h: dict) -> str:
    rows, cols = h["rows"], h["cols"]
    cells = {(r, c): n for r, c, n in h["cells"]}
    width = max([len(c) for c in cols] + [8])
    lines = [f"{h['name']:<14}" + "".join(f"{c:>{width + 2}}" for c in cols)]
    for r in rows:
        lines.append(
            f"{r:<14}" + "".join(f"{cells.get((r, c), 0):>{width + 2}}" for c in cols)
        )
    return "\n".join(lines)


def _render_breakdown(trace: dict) -> List[str]:
    lines = [
        f"traced transactions: {trace['finished']} finished, "
        f"{trace['active']} active, {trace['dropped']} dropped, "
        f"{trace['abandoned']} abandoned",
    ]
    for kind, agg in sorted(trace.get("breakdown", {}).items()):
        n = agg["count"]
        mean_ns = agg["total_ticks"] / n / TICKS_PER_NS if n else 0.0
        lines.append(f"\n  {kind}: {n} txns, mean latency {mean_ns:.1f} ns")
        segs = sorted(
            agg["segments"].items(), key=lambda kv: -kv[1]["ticks"]
        )
        for label, seg in segs:
            seg_ns = seg["ticks"] / n / TICKS_PER_NS
            share = seg["ticks"] / agg["total_ticks"] * 100 if agg["total_ticks"] else 0
            lines.append(
                f"    {label:<18} {seg_ns:>9.1f} ns/txn  {share:>5.1f}%"
                f"  ({seg['count']} spans)"
            )
    return lines


def render_text(snap: dict, probe_limit: int = 24) -> str:
    out: List[str] = []
    meta = snap.get("meta", {})
    out.append(
        f"run: {meta.get('time_ns', 0):.0f} ns simulated, "
        f"{meta.get('events_run', 0)} events, "
        f"{meta.get('num_cpus', '?')} cpus / {meta.get('num_stations', '?')} stations, "
        f"{meta.get('protocol', 'numachine')} protocol"
    )
    if "events_per_sec" in meta:
        out.append(
            f"     {meta['events_per_sec']:.0f} events/s "
            f"({meta.get('wall_s', 0):.3f} s wall)"
        )

    util = snap.get("utilizations", {})
    if util:
        out.append("\nutilization: " + "  ".join(
            f"{k}={v:.1%}" for k, v in sorted(util.items())
        ))

    for key, h in sorted(snap.get("histograms", {}).items()):
        out.append("")
        out.append(_render_histogram(h))

    trace = snap.get("trace")
    if trace is not None:
        out.append("\nlatency breakdown (from transaction traces):")
        out.extend(_render_breakdown(trace))

    fifos = snap.get("fifos", {})
    busy = [
        (name, f) for name, f in sorted(fifos.items()) if f["max_depth"]
    ]
    if busy:
        out.append("\nfifos (with traffic):")
        out.append(
            f"  {'name':<20} {'pushes':>8} {'max':>5} {'mean':>7} "
            f"{'wait ns':>9}"
        )
        for name, f in busy:
            wait_ns = f["wait_mean_ticks"] / TICKS_PER_NS
            out.append(
                f"  {name:<20} {f['pushes']:>8} {f['max_depth']:>5} "
                f"{f['mean_depth']:>7.3f} {wait_ns:>9.1f}"
            )

    probes = snap.get("probes", {})
    shown = [(n, s) for n, s in sorted(probes.items()) if any(s["v"])]
    if shown:
        out.append("\nprobe timelines (scale: per-series max):")
        for name, series in shown[:probe_limit]:
            peak = max(series["v"])
            out.append(f"  {name:<22} |{sparkline(series['v'])}| peak {peak:.3g}")
        if len(shown) > probe_limit:
            out.append(f"  ... {len(shown) - probe_limit} more non-zero series")
    return "\n".join(out)


# ----------------------------------------------------------------------
# two-snapshot diff
# ----------------------------------------------------------------------
#: host time, not model state: the only leaves a diff skips
_WALL_LEAVES = ("meta.wall_s", "meta.events_per_sec")
#: stands for a leaf one snapshot lacks
_ABSENT = object()


def snapshot_leaves(snap: dict) -> Dict[str, object]:
    """Every leaf of ``snap`` but the host-time ones, by path (dict keys
    joined by ``.``, list indices as ``[i]``), in snapshot order."""
    out: Dict[str, object] = {}

    def walk(node, path: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else str(key))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}[{i}]")
        elif path not in _WALL_LEAVES:
            out[path] = node

    walk(snap, "")
    return out


def diff_snapshots(a: dict, b: dict) -> List[Tuple[str, object, object]]:
    """``(path, a_value, b_value)`` for every leaf that differs; a value
    is ``_ABSENT`` on the side that lacks the leaf."""
    la, lb = snapshot_leaves(a), snapshot_leaves(b)
    paths = list(la) + [p for p in lb if p not in la]
    rows = []
    for path in paths:
        va, vb = la.get(path, _ABSENT), lb.get(path, _ABSENT)
        if va is _ABSENT or vb is _ABSENT or va != vb:
            rows.append((path, va, vb))
    return rows


def render_diff(rows: List[Tuple[str, object, object]]) -> str:
    """One line per differing leaf: path, A, B and B−A ("-" where a side
    lacks the leaf or a value is not a number)."""

    def fmt(v) -> str:
        return "-" if v is _ABSENT else str(v)

    def fmt_delta(va, vb) -> str:
        if not (isinstance(va, (int, float)) and isinstance(vb, (int, float))):
            return "-"
        delta = vb - va
        return f"{delta:+d}" if isinstance(delta, int) else f"{delta:+.6g}"

    width = max([len(path) for path, _, _ in rows] + [4])
    out = [f"{'path':<{width}}  {'A':>14}  {'B':>14}  {'B-A':>14}"]
    for path, va, vb in rows:
        out.append(
            f"{path:<{width}}  {fmt(va):>14}  {fmt(vb):>14}  "
            f"{fmt_delta(va, vb):>14}"
        )
    return "\n".join(out)


def _load(path: str) -> Optional[dict]:
    """The snapshot in ``path``, or ``None`` after reporting why not."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        print(
            f"error: cannot read snapshot {path!r}: {exc.strerror or exc}",
            file=sys.stderr,
        )
    except json.JSONDecodeError as exc:
        print(
            f"error: {path!r} is not a JSON snapshot "
            f"(line {exc.lineno}: {exc.msg}); expected a file written by "
            "Observability.write_snapshot",
            file=sys.stderr,
        )
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render a saved observability snapshot, or print what "
        "differs between two.",
    )
    parser.add_argument(
        "snapshots", nargs="+", metavar="snapshot",
        help="snapshot JSON file (see Observability.write_snapshot); give "
        "two to print every leaf that differs",
    )
    parser.add_argument(
        "--format", choices=("text", "prom", "json"),
        help="output format of the one-snapshot form (default: text)",
    )
    args = parser.parse_args(argv)
    if len(args.snapshots) > 2:
        parser.error("give one snapshot to render or two to diff")
    if len(args.snapshots) == 2 and args.format is not None:
        parser.error("--format applies to the one-snapshot form")
    snaps = [_load(path) for path in args.snapshots]
    if any(snap is None for snap in snaps):
        return 2
    status = 0
    try:
        if len(snaps) == 2:
            rows = diff_snapshots(*snaps)
            if rows:
                status = 1
                print(render_diff(rows))
            print(f"leaves that differ: {len(rows)}")
        elif args.format == "prom":
            sys.stdout.write(to_prometheus(snaps[0]))
        elif args.format == "json":
            json.dump(snaps[0], sys.stdout, indent=1)
            sys.stdout.write("\n")
        else:
            print(render_text(snaps[0]))
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream consumer (head, grep -m) closed the pipe: not an error,
        # but Python would print a noisy traceback at interpreter shutdown
        # unless stdout is detached first
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke test
    raise SystemExit(main())
