"""CLI entry: ``python -m repro.obs {report,validate,monitor,flight} ...``.

* ``report`` — render the per-filter attribution table (self-time, stall%,
  teleport boundaries, engine downgrades) from a streamscope trace;
  ``--json`` emits the same aggregation machine-readably;
* ``validate`` — check the file against the Chrome trace-event schema and
  print a shape summary (the CI ``obs-smoke`` gate);
* ``monitor`` — live top-style view over the metrics snapshots a running
  (or recently exited) session publishes into the obs directory
  (``--once`` for one page, ``--json`` for the raw snapshot);
* ``flight`` — dump the flight-recorder ring from the newest snapshot:
  the post-mortem view that needs no pre-arranged tracer.

Exit status: 0 on success, 1 on a schema violation, unreadable file, or
missing snapshot, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.obs.chrome import TraceFormatError, load_trace, trace_summary
from repro.obs.monitor import latest_snapshot, render_flight, render_monitor
from repro.obs.report import render_report, report_payload


def _cmd_trace(ns: argparse.Namespace) -> int:
    try:
        payload = load_trace(ns.trace)
    except (OSError, TraceFormatError) as exc:
        print(f"streamscope: {exc}", file=sys.stderr)
        return 1

    if ns.command == "validate":
        try:
            summary = trace_summary(payload)
        except Exception as exc:
            print(
                f"streamscope: {ns.trace}: malformed trace content: {exc}",
                file=sys.stderr,
            )
            return 1
        print(
            f"{ns.trace}: valid Chrome trace — {summary['events']} events, "
            f"{summary['spans']} spans, tracks {summary['tracks']}, "
            f"{len(summary['counters'])} counter series"
        )
        if len(summary["tracks"]) < ns.min_tracks:
            print(
                f"streamscope: expected >= {ns.min_tracks} tracks, "
                f"got {summary['tracks']}",
                file=sys.stderr,
            )
            return 1
        return 0

    # report: traces from older versions, other tools, or partial runs may
    # lack whole metadata sections (channels, teleports, caches).  The
    # renderer treats those as absent; anything still malformed degrades to
    # a clear one-line error instead of a traceback.
    try:
        if ns.json:
            print(json.dumps(report_payload(payload, top=ns.top), indent=2))
        else:
            print(render_report(payload, top=ns.top))
    except Exception as exc:
        print(
            f"streamscope: {ns.trace}: cannot build report from this trace "
            f"({exc.__class__.__name__}: {exc}); the file may be truncated "
            "or from an incompatible producer",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_monitor(ns: argparse.Namespace) -> int:
    def page() -> Optional[int]:
        snap = latest_snapshot(ns.dir, pid=ns.pid)
        if snap is None:
            where = ns.dir or "the obs directory"
            print(
                f"repro.obs: no metrics snapshot found in {where} "
                "(is a session running with metrics enabled? "
                "set REPRO_OBS_DIR to look elsewhere)",
                file=sys.stderr,
            )
            return 1
        if ns.json:
            print(json.dumps(snap, indent=2))
        else:
            print(render_monitor(snap))
        return 0

    if ns.once:
        return page() or 0
    try:
        while True:
            sys.stdout.write("\x1b[2J\x1b[H")  # clear screen, home cursor
            if page() == 1:
                return 1
            sys.stdout.flush()
            time.sleep(ns.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_flight(ns: argparse.Namespace) -> int:
    snap = latest_snapshot(ns.dir, pid=ns.pid)
    if snap is None:
        where = ns.dir or "the obs directory"
        print(
            f"repro.obs: no snapshot with a flight recording found in {where}",
            file=sys.stderr,
        )
        return 1
    if ns.json:
        print(json.dumps(snap.get("flight", {}), indent=2))
    else:
        print(render_flight(snap, n=ns.n))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="streamscope trace tooling and live metrics monitor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="per-filter attribution table")
    p_report.add_argument("trace", help="Chrome trace-event JSON file")
    p_report.add_argument(
        "--top", type=int, default=None, help="only the N most expensive rows"
    )
    p_report.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of the rendered table",
    )

    p_validate = sub.add_parser("validate", help="schema-check a trace file")
    p_validate.add_argument("trace", help="Chrome trace-event JSON file")
    p_validate.add_argument(
        "--min-tracks",
        type=int,
        default=1,
        help="require at least this many distinct tracks (CI gate)",
    )

    p_monitor = sub.add_parser(
        "monitor", help="live view of a running session's metrics"
    )
    p_monitor.add_argument(
        "--dir", default=None, help="obs snapshot directory (default: REPRO_OBS_DIR)"
    )
    p_monitor.add_argument(
        "--pid", type=int, default=None, help="watch a specific process"
    )
    p_monitor.add_argument(
        "--once", action="store_true", help="print one page and exit"
    )
    p_monitor.add_argument(
        "--json", action="store_true", help="raw snapshot JSON instead of the page"
    )
    p_monitor.add_argument(
        "--interval", type=float, default=1.0, help="refresh period in seconds"
    )

    p_flight = sub.add_parser(
        "flight", help="dump the flight-recorder ring (post-mortem)"
    )
    p_flight.add_argument("--dir", default=None, help="obs snapshot directory")
    p_flight.add_argument(
        "--pid", type=int, default=None, help="a specific process's recording"
    )
    p_flight.add_argument(
        "-n", type=int, default=None, help="only the last N events"
    )
    p_flight.add_argument(
        "--json", action="store_true", help="raw flight payload as JSON"
    )

    ns = parser.parse_args(argv)
    try:
        if ns.command in ("report", "validate"):
            return _cmd_trace(ns)
        if ns.command == "monitor":
            return _cmd_monitor(ns)
        return _cmd_flight(ns)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-page: a normal exit.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
