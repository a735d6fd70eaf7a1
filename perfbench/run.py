"""The repository benchmark's command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compile-suite --seed 1 --seconds 12 --trace 0

It measures one workload (see ``BENCHMARK.json`` and :mod:`perfbench.core`)
for ``--seconds``, checks every program's output, prints a per-program table
and the host, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end ones (``--trace 0``) or the per-layer ones
(``--trace 1``).  The full result, spans included, goes to
``.perfbench/<workload>-seed<seed>-trace<trace>.json``.  The program is
imported from ``src/`` of the checkout; without it the command exits with
status 2 and prints no result.  On every way out, by return, exception,
``SIGTERM`` or ``SIGINT``, it ends the processes it started (the parallel
engine's workers and multiprocessing's resource tracker) and waits for them.
"""

from __future__ import annotations

import argparse
import atexit
import json
import multiprocessing
import os
import signal
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def stop_children() -> None:
    """End every child process and wait until each has ended.

    Workers of the parallel engine get ten seconds to finish, then are
    killed.  The resource tracker, which multiprocessing starts for shared
    memory and which would outlive this process otherwise, is stopped last,
    once no worker holds its pipe open.  Any other child is killed.
    """
    for proc in multiprocessing.active_children():
        proc.join(timeout=10)
        if proc.is_alive():
            proc.kill()
            proc.join()
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _child_pids() -> list:
    """Pids of this process's children, from ``/proc`` where it exists."""
    pids = []
    try:
        tasks = os.listdir(f"/proc/{os.getpid()}/task")
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(f"/proc/{os.getpid()}/task/{task}/children") as fh:
                pids += [int(pid) for pid in fh.read().split()]
        except OSError:
            pass
    return pids


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    # Registered before the program is imported, so it runs after the
    # program's own exit hooks, which may still touch shared memory.
    atexit.register(stop_children)
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    try:
        return measure(argv)
    finally:
        stop_children()


def measure(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="a few steady calls per program and one round of each kind",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")

    OUT.mkdir(exist_ok=True)
    # The program's metrics registry publishes under REPRO_OBS_DIR; keep it
    # inside the checkout.  Set before the first repro import.
    os.environ["REPRO_OBS_DIR"] = str(OUT / "obs")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import core

    sizing = {"scale": 0.05, "min_cycles": 1, "min_calls": 0} if args.smoke else {}
    result = core.run(
        args.workload, args.seed, args.seconds, bool(args.trace), OUT, **sizing
    )
    e2e = core.end_to_end(result)
    layers = core.per_layer(result) if args.trace else {}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(render(core, result, e2e, layers, units))

    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(
            {
                **{k: v for k, v in result.items() if k != "rounds"},
                "rounds": [
                    {**rd, "rows": [
                        {k: v for k, v in row.items() if k != "output"}
                        for row in rd["rows"]
                    ]}
                    for rd in result["rounds"]
                ],
                "end_to_end": e2e,
                "per_layer": layers,
                "per_program": core.per_program(result),
            },
            fh,
        )

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    attempted, failed = core.attempted_failed(result)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in chosen
        },
    }
    print(json.dumps(line))
    return 0


def render(core, result, e2e, layers, units) -> str:
    """Human-readable lines printed before the JSON result."""
    lines = [f"host: {json.dumps(result['host'])}"]
    lines.append(
        f"workload {result['workload']} seed {result['seed']}: "
        f"{len(result['rounds'])} rounds"
    )
    # Samples between programs, when no session (and no thread of one) lives.
    between = [c for rd in result["rounds"] for c in rd["calibration"]]
    loop_ms = sorted(
        t * 1e3
        for c in between
        + [row["calibration"] for rd in result["rounds"] for row in rd["rows"]
           if "calibration" in row]
        for t in c["per_cpu"]
    )
    lines.append(
        f"calibration loop: {loop_ms[0]:.2f}-{loop_ms[-1]:.2f} ms per CPU over "
        f"{len(loop_ms)} samples (times below are scaled to "
        f"{core.CALIBRATION_REF_S * 1e3:g} ms); "
        f"threads between programs: {max(c['threads'] for c in between)}"
    )
    lines.append(
        f"{'program':15s} {'engine':9s} {'setup_s':>9s} {'items/s':>12s} "
        f"{'steady_s':>9s} failed  downgrades  params"
    )
    for row in core.per_program(result):
        steady = row["steady_run_s"]
        lines.append(
            f"{row['program']:15s} {row['engine_used']:9s} {row['setup_s']:9.4f} "
            f"{row['items_per_s']:12.0f} "
            f"{'-' if steady is None else format(steady, '.4f'):>9s} "
            f"{row['failed']:6d}  {','.join(row['downgrades']) or '-':10s}  "
            f"{row['params']}"
        )
    for failure in result["failures"]:
        lines.append(f"FAILED round {failure['round']} {failure['program']}: "
                     f"{failure['problem']}")
    teardown = result["teardown"]
    lines.append(
        f"teardown: alive_workers={teardown['alive_workers']} "
        f"shm_left={len(teardown['shm_left'])} "
        f"buffer_errors={teardown['buffer_errors']}"
    )
    for name, value in {**e2e, **layers}.items():
        lines.append(f"  {name} = {value:.6g} {units.get(name, 'ratio')}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
