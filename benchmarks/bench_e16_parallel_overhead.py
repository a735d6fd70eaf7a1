"""E16 — parallel-engine overhead: where the constant factors went.

PR 9 overhauled the parallel runtime for steady-state throughput: a batched
worker command protocol (one control command per steady run), barrier-free
double-buffered execution for DAG strategies at proved ring capacities, an
adaptive blocked-wait policy (yield + tightly capped nap when workers
outnumber CPUs), and amortized setup (struct-plan cache + warm-arena pool).
This benchmark measures the overhauled engine against the pre-overhaul
numbers committed in ``BENCH_parallel.json``.

Two kinds of measurement per app (cores=2, softpipe — the committed
BENCH_parallel.json configuration):

* **Headline** — ``new_overhead = parallel time ÷ batched time`` from the
  regenerated ``BENCH_parallel.json`` (this PR re-runs E11 against the
  overhauled engine; if the working-tree file still matches the committed
  one, this benchmark re-runs E11 itself first), compared against the
  *committed* baseline read via ``git show HEAD:BENCH_parallel.json`` —
  the pre-overhaul engine's numbers, same host, same period budget, same
  best-of-2 policy.  The gate is ``improvement_vs_committed =
  baseline_overhead / new_overhead`` at >=1.5x geomean;
* **Breakdown arms** — instrumented sessions at shorter period counts,
  reporting setup time (cold and warm), steady seconds, and the parent's
  protocol counters (commands, barrier waits, barrier seconds) for both
  the softpipe mapping and a DAG mapping (``task``), where the barrier
  elimination shows up directly.

Run standalone (``--smoke`` cuts apps and periods for CI)::

    PYTHONPATH=src python benchmarks/bench_e16_parallel_overhead.py [--smoke]
"""

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

from repro.apps import ALL_APPS
from repro.bench import geometric_mean
from repro.errors import EngineDowngradeWarning
from repro.runtime.interpreter import Interpreter

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_parallel_overhead.json"
BASELINE_PATH = REPO_ROOT / "BENCH_parallel.json"

CORES = 2
STRATEGIES = ("softpipe", "task")

#: (name, breakdown periods) — the instrumented arms; the headline timing
#: lives in BENCH_parallel.json (benchmarks/bench_e11_parallel_runtime.py).
APPS = (
    ("BitonicSort", 600),
    ("ChannelVocoder", 600),
    ("DCT", 60),
    ("DES", 40),
    ("FFT", 150),
    ("FilterBank", 250),
    ("FMRadio", 1500),
    ("Radar", 1000),
    ("TDE", 150),
    ("Vocoder", 800),
)

SMOKE_APPS = ("FMRadio", "FilterBank", "Vocoder")


def _session_arm(build, periods: int, strategy: str):
    """One instrumented arm: setup (cold + warm), steady, protocol."""
    from repro.runtime import parallel as par_mod

    par_mod.clear_struct_cache()
    par_mod.drain_warm_arenas()
    # Cold setup: construction + init (the fork happens on the first
    # command, inside run_init).
    app = build()
    t0 = time.perf_counter()
    interp = Interpreter(
        app, check=False, engine="parallel", strategy=strategy, cores=CORES
    )
    if interp.parallel is None:
        # SL304: this strategy has no parallelism to exploit here
        # (e.g. ``task`` on a pure pipeline) — not an overhead datum.
        interp.close()
        return None
    interp.run_init()
    setup_cold = time.perf_counter() - t0
    # Steady: timed after one warm batch, plus the same settle the
    # harness gives every engine (workers drain post-command
    # housekeeping off the clock).  Best-of-2 — single shots measure the
    # scheduler's mood on a timesliced host, not the engine.
    interp.run_steady(max(1, periods // 10))
    steady = float("inf")
    for _ in range(2):
        time.sleep(0.1)
        t0 = time.perf_counter()
        interp.run_steady(periods)
        steady = min(steady, time.perf_counter() - t0)
    protocol = interp.parallel.protocol_report()
    interp.close()
    # Warm setup: a second session over the same plan right after a
    # clean close — struct cache + parked arena.
    app2 = build()
    t0 = time.perf_counter()
    interp2 = Interpreter(
        app2, check=False, engine="parallel", strategy=strategy, cores=CORES
    )
    interp2.run_init()
    setup_warm = time.perf_counter() - t0
    warm_protocol = interp2.parallel.protocol_report()
    interp2.close()
    par_mod.drain_warm_arenas()
    return {
        "setup_cold_s": setup_cold,
        "setup_warm_s": setup_warm,
        "steady_s": steady,
        "steady_s_per_period": steady / periods,
        "discipline": protocol["discipline"],
        "commands": protocol["commands"],
        "steady_runs": protocol["steady_runs"],
        "barrier_waits": protocol["barrier_waits"],
        "barrier_wait_s": protocol["barrier_wait_s"],
        "warm_arena_reused": warm_protocol["arena_reused"],
        "warm_struct_cache": warm_protocol["struct_cache"],
    }


def _committed_baseline_text():
    """The committed BENCH_parallel.json, or ``None`` outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "show", "HEAD:BENCH_parallel.json"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def _overheads(parsed) -> dict:
    """Per-app cores=2 overhead (1 / measured speedup) from an E11 table."""
    out = {}
    for name, row in parsed.get("apps", {}).items():
        cell = row.get("parallel", {}).get(str(CORES), {})
        speedup = cell.get("measured_speedup_vs_batched", 0.0)
        if speedup > 0:
            out[name] = 1.0 / speedup
    return out


def _headline(smoke: bool):
    """(new overheads, committed overheads, sources) for the gate.

    The new-engine numbers come from the regenerated BENCH_parallel.json —
    same methodology, periods, and host as the committed file they are
    compared against.  If the working tree still holds the committed file
    verbatim (E11 not yet re-run), re-run it here so the comparison is
    never trivially 1.0x.
    """
    committed_text = _committed_baseline_text()
    current_text = (
        BASELINE_PATH.read_text() if BASELINE_PATH.exists() else None
    )
    if current_text is None or (
        committed_text is not None
        and current_text == committed_text
        and not smoke
    ):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import bench_e11_parallel_runtime as e11

        table = e11.run_bench(smoke=smoke)
        current_text = json.dumps(table, indent=2) + "\n"
        BASELINE_PATH.write_text(current_text)
        new_source = "BENCH_parallel.json (regenerated by this run)"
    else:
        new_source = "BENCH_parallel.json (working tree)"
    new = _overheads(json.loads(current_text))
    if committed_text is None:
        return new, {}, {"new": new_source, "baseline": "unavailable"}
    committed = _overheads(json.loads(committed_text))
    return new, committed, {
        "new": new_source,
        "baseline": "git show HEAD:BENCH_parallel.json",
    }


def run_bench(smoke: bool = False):
    apps = [row for row in APPS if not smoke or row[0] in SMOKE_APPS]
    scale = 0.05 if smoke else 1.0
    new_overheads, baseline_overheads, sources = _headline(smoke)
    table = {
        "cores": CORES,
        "host_cpus": os.cpu_count(),
        "sources": sources,
        "apps": {},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        for name, breakdown_periods in apps:
            build = ALL_APPS[name]
            breakdown_periods = max(2, int(breakdown_periods * scale))
            row = {"breakdown_periods": breakdown_periods}
            new_ovh = new_overheads.get(name)
            base = baseline_overheads.get(name)
            if new_ovh is not None:
                row["new_overhead"] = new_ovh
            if base is not None:
                row["baseline_overhead"] = base
            if new_ovh is not None and base is not None:
                row["improvement_vs_committed"] = base / new_ovh
            # Breakdown arms: instrumented sessions per strategy.
            for strategy in STRATEGIES:
                arm = _session_arm(build, breakdown_periods, strategy)
                row[strategy] = (
                    arm if arm is not None else {"unavailable": "SL304 downgrade"}
                )
            table["apps"][name] = row
    gains = [
        row["improvement_vs_committed"]
        for row in table["apps"].values()
        if "improvement_vs_committed" in row
    ]
    table["improvement_vs_committed_geomean"] = geometric_mean(gains)
    return table


def render(table) -> str:
    lines = [
        "== E16: parallel-engine overhead — before vs after "
        f"(cores={table['cores']}, host has {table['host_cpus']} CPU(s)) ==",
        f"{'Benchmark':16s}{'new ovh':>9s}{'committed':>11s}{'vs base':>9s}"
        f"{'task barriers':>15s}{'cold setup':>12s}{'warm setup':>12s}",
    ]
    for name, row in table["apps"].items():
        soft = row["softpipe"]
        task = row["task"]
        barriers = (
            f"{task['barrier_waits']}" if "unavailable" not in task else "n/a"
        )
        cold, warm = (
            (
                f"{soft['setup_cold_s'] * 1e3:.0f}ms",
                f"{soft['setup_warm_s'] * 1e3:.0f}ms",
            )
            if "unavailable" not in soft
            else ("n/a", "n/a")
        )
        lines.append(
            f"{name:16s}"
            + (
                f"{row['new_overhead']:8.2f}x"
                if "new_overhead" in row
                else f"{'n/a':>9s}"
            )
            + (
                f"{row['baseline_overhead']:10.2f}x"
                f"{row['improvement_vs_committed']:8.2f}x"
                if "improvement_vs_committed" in row
                else f"{'n/a':>11s}{'n/a':>9s}"
            )
            + f"{barriers:>15s}{cold:>12s}{warm:>12s}"
        )
    lines.append(
        f"geomean improvement: vs committed BENCH_parallel.json "
        f"{table['improvement_vs_committed_geomean']:.2f}x "
        f"(new: {table['sources']['new']}; baseline: "
        f"{table['sources']['baseline']})"
    )
    return "\n".join(lines)


def _check(table) -> None:
    for name, row in table["apps"].items():
        for strategy in STRATEGIES:
            cell = row[strategy]
            if "unavailable" in cell:
                continue
            assert cell["steady_s"] > 0, f"{name}/{strategy}"
            # Batched protocol invariant: one steady command per run.
            assert (
                cell["commands"]["steady"] == cell["steady_runs"]
            ), f"{name}/{strategy}: protocol not batched"
            # The overhaul must eliminate per-batch barriers for DAG
            # strategies: only start/finish barriers remain (2 per command).
            if strategy == "task" and cell["discipline"] == "double_buffered":
                commands = sum(cell["commands"].values())
                assert cell["barrier_waits"] <= 2 * commands, (
                    f"{name}: double-buffered arm still paying "
                    f"{cell['barrier_waits']} barrier waits"
                )
        # The engine reuses setup on the warm session.
        if "unavailable" not in row["softpipe"]:
            soft = row["softpipe"]
            assert soft["warm_struct_cache"] == "hit", name
            assert soft["warm_arena_reused"] is True, name


def test_e16_parallel_overhead(report):
    table = run_bench(smoke=True)
    report(render(table))
    _check(table)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    table = run_bench(smoke=smoke)
    print(render(table))
    _check(table)
    if not smoke:
        RESULT_PATH.write_text(json.dumps(table, indent=2) + "\n")
        print(f"\nwrote {RESULT_PATH}")
