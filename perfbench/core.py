"""Workloads, measurement loop, output checks and metrics of the benchmark.

What a user of this compiler pays for is measured per *program*: call the
app builder, optionally apply linear selection, construct the
``Interpreter``, run ``run_init`` and the first steady period (together:
set-up), then a fixed number of ``run_steady(k)`` calls (steady state).  A
*round* does that for every program of the workload; a run repeats rounds
for the requested seconds and reports medians over rounds, so one slow
round moves nothing.

Rounds come in kinds.  ``plain`` rounds give every end-to-end metric and run
the program exactly as shipped.  With tracing on, ``traced`` rounds
alternate with them and give the per-layer metrics from spans
(:mod:`perfbench.spans`).  A workload with a *parallel probe* adds two more
kinds to traced runs: ``parallel`` rounds run the probe's apps on
``engine="parallel"`` with ``cores=2`` (traced, for the parallel layer's
metrics) and ``baseline`` rounds run them on ``engine="batched"`` (for the
speed-up ratio).  The probe feeds per-layer metrics only: two worker
processes on a 2-CPU host time too unsteadily for an end-to-end bound.

Every program run is checked after the measurement, against a scalar
reference computed outside any timed region: bit-exact on a prefix, or
``np.allclose`` against the unoptimized program where linear selection
rewrote it.  An exception or a mismatch counts as a failed program.
"""

from __future__ import annotations

import functools
import gc
import inspect
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.spans import NullRecorder, SpanRecorder, self_time_by_name
from repro.apps import ALL_APPS
from repro.graph.builtins import CollectSink
from repro.linear import apply_selection
from repro.runtime import Interpreter
from repro.runtime.codegen import clear_codegen_cache, codegen_cache_summary
from repro.runtime.parallel import drain_warm_arenas
from repro.runtime.plan import clear_plan_cache, plan_cache_summary

#: Output items compared against the reference, per program run.
CHECK_ITEMS = 256
#: Steady periods the scalar reference may run to produce them.
REF_MAX_PERIODS = 64
#: Unmeasured ``run_steady(k)`` calls between set-up and the steady timer.
WARMUP_CALLS = 1
#: Every run makes at least this many rounds of each kind.
MIN_CYCLES = 2
#: Untraced runs go on until every program has this many timed calls, so
#: at least ten lie beyond its 90th percentile ...
MIN_CALLS = 100
#: ... unless the run has lasted this many times ``--seconds``.
MAX_OVERRUN = 1.5
#: Iterations of the calibration loop, and the time that loop is taken to
#: need on the reference host.  A measured time is multiplied by
#: ``CALIBRATION_REF_S / (median of the 4 loop times nearest to it)``: the
#: host's speed swings by up to 1.5x within seconds, and the loop tracks it.
CALIBRATION_LOOPS = 30_000
CALIBRATION_REF_S = 0.005
#: Downgrade codes reported one by one (``Interpreter`` SLxxx diagnostics).
DOWNGRADE_CODES = ("SL302", "SL303", "SL304", "SL305", "SL306")


@dataclass(frozen=True)
class AppRun:
    """One app of a workload: ``calls`` measured ``run_steady(periods)``."""

    app: str
    periods: int
    calls: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    apps: Tuple[AppRun, ...]
    #: Rewrite each program with ``apply_selection`` during set-up.
    linear: bool = False
    #: Every round starts from an empty codegen disk cache and cleared
    #: in-memory plan/codegen caches.
    cold: bool = False
    #: Apps that traced runs also run in ``parallel`` and ``baseline`` rounds.
    parallel_probe: Tuple[AppRun, ...] = ()


#: Engine and ``Interpreter`` options of each round kind.
ROUND_ENGINES: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "plain": ("codegen", {}),
    "traced": ("codegen", {}),
    "parallel": ("parallel", {"cores": 2}),
    "baseline": ("batched", {}),
}
#: Round kinds that run the workload's parallel probe.
PROBE_KINDS = ("parallel", "baseline")


_STEADY_APPS = (
    AppRun("BitonicSort", 512, 30),
    AppRun("DToA", 1024, 30),
    AppRun("FMRadio", 512, 30),
    AppRun("FilterBank", 512, 30),
    AppRun("ChannelVocoder", 512, 30),
    AppRun("DES", 64, 30),
    AppRun("MPEG2Decoder", 256, 30),
)

_LINEAR_APPS = (
    AppRun("FIR", 256, 20),
    AppRun("RateConvert", 2048, 20),
    AppRun("TargetDetect", 128, 20),
    AppRun("FMRadio", 256, 20),
    AppRun("FilterBank", 2048, 20),
    AppRun("Vocoder", 32, 20),
    AppRun("Oversampler", 32, 20),
    AppRun("DToA", 4, 20),
)

_PARALLEL_APPS = (
    AppRun("FMRadio", 2048, 12),
    AppRun("FilterBank", 2048, 12),
    AppRun("ChannelVocoder", 2048, 12),
    AppRun("Vocoder", 2048, 12),
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "compile-suite",
            "all 19 apps compiled cold on codegen and run a few periods, so "
            "build, validation, analysis, scheduling, planning and emission dominate",
            tuple(AppRun(name, 8, 40) for name in ALL_APPS),
            cold=True,
        ),
        Workload(
            "steady-codegen",
            "7 apps with different hot paths given long warm codegen runs, so "
            "runtime kernels dominate; traced runs add 4 apps on the parallel "
            "engine (cores=2)",
            _STEADY_APPS,
            parallel_probe=_PARALLEL_APPS,
        ),
        Workload(
            "linear-opt",
            "the 8 linear-suite apps rewritten by apply_selection then run on "
            "codegen, exercising repro.linear and the linear block kernels",
            _LINEAR_APPS,
            linear=True,
        ),
    )
}


# -- seeded programs -----------------------------------------------------------


@dataclass(frozen=True)
class Program:
    name: str
    params: Dict[str, int]
    periods: int
    calls: int
    build: Callable[[], Any]
    #: Builds the unoptimized program the reference output comes from.
    reference: Callable[[], Any]


def draw_params(app: str, builder: Callable, seed: int) -> Dict[str, int]:
    """Constructor parameters near the builder's defaults, drawn from the seed.

    ``input_length`` moves by up to 1/16 of its default and ``n_taps`` by up
    to 1/32 (at least one tap); the same (app, seed) always draws the same.
    """
    rng = np.random.default_rng([seed % 2**32, zlib.crc32(app.encode())])
    signature = inspect.signature(builder).parameters
    params: Dict[str, int] = {}
    if "input_length" in signature:
        default = signature["input_length"].default
        spread = default // 16
        params["input_length"] = default + int(rng.integers(-spread, spread + 1))
    if "n_taps" in signature:
        default = signature["n_taps"].default
        spread = max(1, default // 32)
        params["n_taps"] = default - int(rng.integers(0, spread + 1))
    return params


def programs(
    apps: Tuple[AppRun, ...], seed: int, scale: float = 1.0
) -> List[Program]:
    """The programs of ``apps`` for ``seed``; ``scale`` shrinks the steady calls."""
    out = []
    for run in apps:
        builder = ALL_APPS[run.app]
        params = draw_params(run.app, builder, seed)
        build = functools.partial(builder, **params)
        out.append(
            Program(
                name=run.app,
                params=params,
                periods=run.periods,
                calls=max(1, round(run.calls * scale)),
                build=build,
                reference=build,
            )
        )
    return out


# -- one program, one round ------------------------------------------------------


def find_sink(stream) -> CollectSink:
    return next(f for f in stream.filters() if isinstance(f, CollectSink))


def run_program(
    prog: Program, workload: Workload, kind: str, rec
) -> Dict[str, Any]:
    """Set up and run one program; returns its timings, output and counters."""
    engine, options = ROUND_ENGINES[kind]
    row: Dict[str, Any] = {
        "program": prog.name,
        "engine_requested": engine,
        "error": None,
        "output": [],
        "latencies": [],
        "setup_s": 0.0,
        "steady_s": 0.0,
        "items": 0,
    }
    interp = None
    try:
        t0 = perf_counter()
        with rec.span("apps.build"):
            stream = prog.build()
        if workload.linear:
            with rec.span("linear.apply_selection"):
                stream, report = apply_selection(stream)
            row["regions_replaced"] = len(report.replacements)
        with rec.span("runtime.Interpreter"):
            interp = Interpreter(stream, engine=engine, **options)
        with rec.span("runtime.run_init"):
            interp.run_init()
        with rec.span("runtime.first_run"):
            interp.run_steady(1)
        row["setup_s"] = perf_counter() - t0

        sink = find_sink(stream)
        for _ in range(WARMUP_CALLS):
            interp.run_steady(prog.periods)
        if interp.parallel is None:
            # A live session's workers slow the loop (about 1.8x on the
            # reference host), so parallel sessions are scaled by the
            # samples taken between programs only.
            row["calibration"] = calibrate()
        before = len(sink.collected)
        latencies = []
        s0 = perf_counter()
        for _ in range(prog.calls):
            c0 = perf_counter()
            with rec.span("runtime.run_steady"):
                interp.run_steady(prog.periods)
            latencies.append(perf_counter() - c0)
        row["steady_s"] = perf_counter() - s0
        row["items"] = len(sink.collected) - before
        row["latencies"] = latencies
        row["output"] = list(sink.collected[:CHECK_ITEMS])
        _session_counters(row, interp, rec)
    except Exception as exc:  # a failing program is counted, never fatal
        row["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        if interp is not None:
            try:
                interp.close()
            except Exception as exc:
                row["error"] = row["error"] or f"close: {type(exc).__name__}: {exc}"
            if interp.parallel is not None:
                row["alive_workers"] = interp.parallel.alive_workers
    return row


def _session_counters(row: Dict[str, Any], interp, rec) -> None:
    """Counters the program exposes, read after the timed calls."""
    row["engine_used"] = interp.engine_used
    row["downgrades"] = [d.code for d in interp.downgrades]
    if interp.parallel is not None:
        protocol = interp.parallel.protocol_report()
        busy = interp.parallel.busy_report()
        shares = [w["busy_share"] for w in busy.values()]
        row["parallel"] = {
            "busy_share_min": min(shares),
            "busy_share_max": max(shares),
            "ring_stall_s": sum(w["stall_s"] for w in busy.values()),
            "barrier_wait_s": protocol["barrier_wait_s"],
            "commands": sum(protocol["commands"].values()),
        }
    if rec.enabled and interp.plan is not None:
        with rec.paused():  # the report re-runs analyses; not program set-up
            codegen = interp.engine_report().get("codegen")
        if codegen is not None:
            blocks = codegen.get("blocks") or []
            row["codegen"] = {
                "call": sum(1 for b in blocks if b.get("mode") == "call"),
                "fused": sum(1 for b in blocks if b["kind"] == "fused"),
                "inline": sum(1 for b in blocks if b.get("mode") == "inline"),
                "fallback": len(codegen["fallbacks"]),
            }


# -- rounds and runs ---------------------------------------------------------------


class _AnalysisCounter:
    """Counts ``analyze_filter`` calls and what they were asked to analyze."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self.calls = 0
        self.instances: set = set()
        self.classes: set = set()

    def __call__(self, args, kwargs, result) -> None:
        filt = args[0] if args else kwargs["filt"]
        self.calls += 1
        self.instances.add((self.rec.program, id(filt)))
        self.classes.add(type(filt))


class _EmitCounter:
    def __init__(self) -> None:
        self.lines = 0

    def __call__(self, args, kwargs, result) -> None:
        source, _meta = result
        self.lines += source.count("\n") + 1


def _cache_counts() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    return dict(codegen_cache_summary()), dict(plan_cache_summary())


def run_round(
    workload: Workload,
    progs: List[Program],
    kind: str,
    index: int,
    rec: SpanRecorder,
    scratch: Path,
) -> Dict[str, Any]:
    if workload.cold:
        clear_codegen_cache()
        clear_plan_cache()
        os.environ["REPRO_CODEGEN_CACHE"] = str(scratch / f"codegen-round{index}")
    engine = ROUND_ENGINES[kind][0]
    traced = kind in ("traced", "parallel")
    recorder = rec if traced else NullRecorder()
    analysis, emitted = _AnalysisCounter(rec), _EmitCounter()
    if traced:
        rec.round = index
        rec.observers = {
            "analysis.analyze_filter": analysis,
            "codegen.emit_module": emitted,
        }
    codegen0, plan0 = _cache_counts()
    rows = []
    calibration = []
    for prog in progs:
        gc.collect()
        calibration.append(calibrate())
        rec.program = prog.name
        if traced:
            with rec.install():
                rows.append(run_program(prog, workload, kind, recorder))
        else:
            rows.append(run_program(prog, workload, kind, recorder))
    gc.collect()
    calibration.append(calibrate())
    codegen1, plan1 = _cache_counts()
    if workload.cold:
        shutil.rmtree(scratch / f"codegen-round{index}", ignore_errors=True)

    def delta(after, before, key):
        return after.get(key, 0) - before.get(key, 0)

    mem_hits = delta(codegen1, codegen0, "mem_hits")
    lookups = mem_hits + delta(codegen1, codegen0, "mem_misses")
    plan_hits = delta(plan1, plan0, "hits")
    plan_lookups = plan_hits + delta(plan1, plan0, "misses")
    # Loop times in time order: before program 0, between its set-up and
    # its timed calls, before program 1, ..., after the last program.
    loop = []
    for pre, row in zip(calibration, rows):
        loop += [pre["seconds"], row.get("calibration", pre)["seconds"]]
    loop.append(calibration[-1]["seconds"])

    def to_ref(first: int, last: int) -> float:
        """Scale for a span that ``loop[first]`` and ``loop[last]`` bracket:
        the median of the two samples on each side of it."""
        return CALIBRATION_REF_S / statistics.median(loop[max(0, first - 1) : last + 2])

    for i, row in enumerate(rows):
        row["setup_to_ref"] = to_ref(2 * i, 2 * i + 1)
        row["steady_to_ref"] = to_ref(2 * i + 1, 2 * i + 2)
    return {
        "kind": kind,
        "index": index,
        "engine": engine,
        "rows": rows,
        "calibration": calibration,
        # Per-layer times use one factor for the whole round.
        "to_ref": CALIBRATION_REF_S / statistics.median(loop),
        "setup_s": sum(r["setup_s"] * r["setup_to_ref"] for r in rows),
        "steady_s": sum(r["steady_s"] * r["steady_to_ref"] for r in rows),
        "items": sum(r["items"] for r in rows),
        "codegen_cache_hit_ratio": (
            (mem_hits + delta(codegen1, codegen0, "disk_hits")) / lookups
            if lookups
            else 0.0
        ),
        "plan_cache_hit_ratio": plan_hits / plan_lookups if plan_lookups else 0.0,
        "analyze_filter_calls": analysis.calls,
        "analysis_distinct_ratio": (
            len(analysis.classes) / len(analysis.instances)
            if analysis.instances
            else 0.0
        ),
        "generated_lines": emitted.lines,
    }


def _loop_seconds() -> float:
    t0 = perf_counter()
    acc = 0
    table = {}
    for i in range(CALIBRATION_LOOPS):
        acc += i * i
        table[i & 255] = acc
    return perf_counter() - t0


def calibrate() -> Dict[str, Any]:
    """Time a fixed pure-Python loop on each CPU: the host's speed right now.

    The loop touches nothing of the program.  ``threads`` is recorded
    because a thread left running would slow the loop and so flatter the
    normalized times; every sample should read 1.
    """
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(_loop_seconds())
    finally:
        os.sched_setaffinity(0, cpus)
    return {
        "seconds": statistics.mean(per_cpu),
        "per_cpu": per_cpu,
        "threads": threading.active_count(),
    }


class _UnraisableCounter:
    """Counts ``BufferError``s raised in finalizers, still printing them."""

    def __init__(self) -> None:
        self.buffer_errors = 0
        self._previous = None

    def __enter__(self):
        self._previous = sys.unraisablehook

        def hook(unraisable):
            if isinstance(unraisable.exc_value, BufferError):
                self.buffer_errors += 1
            self._previous(unraisable)

        sys.unraisablehook = hook
        return self

    def __exit__(self, *exc) -> None:
        sys.unraisablehook = self._previous


def _shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def host_fingerprint() -> Dict[str, Any]:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scratch: Path,
    scale: float = 1.0,
    min_cycles: int = MIN_CYCLES,
    min_calls: int = MIN_CALLS,
    progs: Optional[List[Program]] = None,
    probe: Optional[List[Program]] = None,
) -> Dict[str, Any]:
    """Measure one workload; returns the result (metrics, rows, spans).

    ``scale`` shrinks each program's steady calls, ``min_cycles`` and
    ``min_calls`` are the least rounds of each kind and timed calls per
    program (all three for smoke-sized runs); ``progs`` and ``probe``
    replace the seeded programs and parallel probe.
    """
    workload = WORKLOADS[workload_name]
    if progs is None:
        progs = programs(workload.apps, seed, scale)
    if probe is None:
        probe = programs(workload.parallel_probe, seed, scale)
    kinds = ["plain"]
    if trace:
        kinds.append("traced")
        if probe:
            kinds += PROBE_KINDS
    run_scratch = scratch / f"run-{os.getpid()}"
    run_scratch.mkdir(parents=True, exist_ok=True)
    cache_env = os.environ.get("REPRO_CODEGEN_CACHE")
    os.environ["REPRO_CODEGEN_CACHE"] = str(run_scratch / "codegen")
    shm_before = _shm_segments()
    rec = SpanRecorder()
    rounds: List[Dict[str, Any]] = []
    with warnings.catch_warnings(), _UnraisableCounter() as unraisable:
        warnings.simplefilter("ignore")
        start = perf_counter()
        cycles = 0
        while cycles < min_cycles or (
            perf_counter() - start < seconds * MAX_OVERRUN
            and (
                perf_counter() - start < seconds
                or (not trace and cycles * min(p.calls for p in progs) < min_calls)
            )
        ):
            for kind in kinds:
                round_progs = probe if kind in PROBE_KINDS else progs
                rounds.append(
                    run_round(workload, round_progs, kind, len(rounds), rec, run_scratch)
                )
            cycles += 1
        drain_warm_arenas()
        stray = multiprocessing.active_children()
        for proc in stray:
            proc.join(timeout=10)
        gc.collect()
    shutil.rmtree(run_scratch, ignore_errors=True)
    if cache_env is None:
        del os.environ["REPRO_CODEGEN_CACHE"]
    else:
        os.environ["REPRO_CODEGEN_CACHE"] = cache_env
    leftover = sorted(_shm_segments() - shm_before)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_outputs(workload, progs, probe, rounds)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "host": host_fingerprint(),
        "programs": [{"name": p.name, "params": p.params} for p in progs],
        "probe": [{"name": p.name, "params": p.params} for p in probe],
        "rounds": rounds,
        "failures": failures,
        "teardown": {
            "alive_workers": sum(
                r.get("alive_workers", 0) for rd in rounds for r in rd["rows"]
            )
            + len(stray),
            "shm_left": leftover,
            "buffer_errors": unraisable.buffer_errors,
        },
        "peak_rss_mb": peak_rss_mb,
        "spans": rec.spans if trace else [],
    }


# -- output checks -----------------------------------------------------------------


def reference_output(prog: Program) -> List[float]:
    """The scalar engine's first output items of the unoptimized program."""
    stream = prog.reference()
    sink = find_sink(stream)
    interp = Interpreter(stream, engine="scalar")
    try:
        interp.run_init()
        for _ in range(REF_MAX_PERIODS):
            interp.run_steady(1)
            if len(sink.collected) >= CHECK_ITEMS:
                break
    finally:
        interp.close()
    return list(sink.collected[:CHECK_ITEMS])


def compare(got: List[float], want: List[float], exact: bool) -> Optional[str]:
    """None when ``got`` matches ``want`` on their common prefix."""
    n = min(len(got), len(want))
    if n == 0:
        return "no output to compare"
    if exact:
        for i in range(n):
            if got[i] != want[i]:
                return f"item {i}: {got[i]!r} != scalar {want[i]!r}"
        return None
    if not np.allclose(got[:n], want[:n]):
        worst = int(np.argmax(np.abs(np.subtract(got[:n], want[:n]))))
        return f"item {worst}: {got[worst]!r} not close to {want[worst]!r}"
    return None


def check_outputs(
    workload: Workload,
    progs: List[Program],
    probe: List[Program],
    rounds: List[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Mark every row ``ok`` or not; returns the failures."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        references = [reference_output(prog) for prog in progs]
        probe_references = [reference_output(prog) for prog in probe]
    failures = []
    for rd in rounds:
        wanted = probe_references if rd["kind"] in PROBE_KINDS else references
        for row, want in zip(rd["rows"], wanted):
            problem = row["error"] or compare(
                row["output"], want, not workload.linear
            )
            row["ok"] = problem is None
            if problem is not None:
                failures.append(
                    {"round": rd["index"], "program": row["program"], "problem": problem}
                )
    return failures


# -- metrics -------------------------------------------------------------------------


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _geomean(values: List[float]) -> float:
    values = [v for v in values if v > 0]
    return float(np.exp(np.mean(np.log(values)))) if values else 0.0


def call_latencies_ms(result: Dict[str, Any]) -> List[List[float]]:
    """Per program, every timed call of the plain rounds, host-normalized."""
    plain = [rd for rd in result["rounds"] if rd["kind"] == "plain"]
    return [
        [
            lat * row["steady_to_ref"] * 1e3
            for row in (rd["rows"][i] for rd in plain)
            for lat in row["latencies"]
        ]
        for i in range(len(result["programs"]))
    ]


def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    """Medians over plain rounds; latency percentiles are taken per program
    and averaged with the geometric mean, so no program's mode dominates."""
    plain = [rd for rd in result["rounds"] if rd["kind"] == "plain"]
    latencies = [lat for lat in call_latencies_ms(result) if lat]
    attempted, failed = attempted_failed(result)
    return {
        "setup_s": _median([rd["setup_s"] for rd in plain]),
        "steady_items_per_s": _median(
            [rd["items"] / rd["steady_s"] for rd in plain if rd["steady_s"] > 0]
        ),
        "total_s": _median([rd["setup_s"] + rd["steady_s"] for rd in plain]),
        "run_ms_p50": _geomean([float(np.percentile(v, 50)) for v in latencies]),
        "run_ms_p90": _geomean([float(np.percentile(v, 90)) for v in latencies]),
        "peak_rss_mb": result["peak_rss_mb"],
        "passed_frac": (attempted - failed) / attempted if attempted else 0.0,
        # Printed, not in the final line: zero on a healthy run.
        "failed_frac": failed / attempted if attempted else 0.0,
        "run_calls": float(min((len(v) for v in latencies), default=0)),
    }


def attempted_failed(result: Dict[str, Any]) -> Tuple[int, int]:
    attempted = sum(len(rd["rows"]) for rd in result["rounds"])
    return attempted, len(result["failures"])


#: per-layer metric -> span name whose summed self time it reports.
SELF_TIME_METRICS = {
    "build_s": "apps.build",
    "validate_s": "graph.validate",
    "analyze_filter_s": "analysis.analyze_filter",
    "schedule_s": "scheduling.build_schedule",
    "linear_select_s": "linear.apply_selection",
    "plan_s": "plan.ExecutionPlan",
    "codegen_emit_s": "codegen.emit_module",
    "interp_ctor_s": "runtime.Interpreter",
    "init_s": "runtime.run_init",
    "first_run_s": "runtime.first_run",
    "steady_run_s": "runtime.run_steady",
}
#: The same, from the ``parallel`` rounds of the probe.
PARALLEL_SELF_TIME_METRICS = {
    "parallel_setup_s": "parallel.ParallelSession",
    "partition_s": "mapping.partition_nodes",
}


def per_layer(result: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics: medians over traced rounds of per-round values."""
    rounds = result["rounds"]
    plain = [rd for rd in rounds if rd["kind"] == "plain"]
    traced = [rd for rd in rounds if rd["kind"] == "traced"]
    parallel = [rd for rd in rounds if rd["kind"] == "parallel"]
    baseline = [rd for rd in rounds if rd["kind"] == "baseline"]
    spans = result["spans"]
    per_round: List[Dict[str, float]] = []
    for rd in traced:
        own = self_time_by_name(spans, rd["index"])
        rows = rd["rows"]
        values = {
            metric: rd["to_ref"] * own.get(name, 0.0)
            for metric, name in SELF_TIME_METRICS.items()
        }
        codegen = [r["codegen"] for r in rows if "codegen" in r]
        downgrades = [code for r in rows for code in r.get("downgrades", ())]
        values.update(
            analyze_filter_calls=rd["analyze_filter_calls"],
            analysis_distinct_ratio=rd["analysis_distinct_ratio"],
            linear_regions_replaced=sum(r.get("regions_replaced", 0) for r in rows),
            plan_cache_hit_ratio=rd["plan_cache_hit_ratio"],
            generated_lines=rd["generated_lines"],
            codegen_cache_hit_ratio=rd["codegen_cache_hit_ratio"],
            engine_downgrades=len(downgrades),
        )
        for kind in ("call", "fused", "inline"):
            values[f"codegen_blocks_{kind}"] = sum(c[kind] for c in codegen)
        values["codegen_fallback_blocks"] = sum(c["fallback"] for c in codegen)
        for code in DOWNGRADE_CODES:
            values[f"engine_downgrades_{code}"] = downgrades.count(code)
        per_round.append(values)
    metrics = {
        key: _median([v[key] for v in per_round]) for key in per_round[0]
    } if per_round else {}
    metrics.update(parallel_layer(spans, parallel))
    plain_total = _median([rd["setup_s"] + rd["steady_s"] for rd in plain])
    traced_total = _median([rd["setup_s"] + rd["steady_s"] for rd in traced])
    metrics["tracing_overhead_frac"] = (
        traced_total / plain_total - 1.0 if plain_total else 0.0
    )
    parallel_steady = _median([rd["steady_s"] for rd in parallel])
    metrics["parallel_speedup_vs_batched"] = (
        _median([rd["steady_s"] for rd in baseline]) / parallel_steady
        if baseline and parallel_steady
        else 0.0
    )
    teardown = result["teardown"]
    metrics["teardown_errors"] = (
        teardown["alive_workers"]
        + len(teardown["shm_left"])
        + teardown["buffer_errors"]
    )
    metrics["setup_first_round_s"] = rounds[0]["setup_s"]
    metrics["run_calls"] = end_to_end(result)["run_calls"]
    return {k: float(v) for k, v in metrics.items()}


def parallel_layer(
    spans: List[Dict[str, Any]], parallel: List[Dict[str, Any]]
) -> Dict[str, float]:
    """The parallel engine's metrics: medians over the probe's parallel
    rounds, all 0 without them."""
    per_round = []
    for rd in parallel:
        own = self_time_by_name(spans, rd["index"])
        counters = [r["parallel"] for r in rd["rows"] if "parallel" in r]
        values = {
            metric: rd["to_ref"] * own.get(name, 0.0)
            for metric, name in PARALLEL_SELF_TIME_METRICS.items()
        }
        values["worker_busy_share_min"] = min(
            (p["busy_share_min"] for p in counters), default=0.0
        )
        values["worker_busy_share_max"] = max(
            (p["busy_share_max"] for p in counters), default=0.0
        )
        for key in ("ring_stall_s", "barrier_wait_s"):
            values[key] = rd["to_ref"] * sum(p[key] for p in counters)
        values["parallel_commands"] = sum(p["commands"] for p in counters)
        per_round.append(values)
    keys = list(PARALLEL_SELF_TIME_METRICS) + [
        "worker_busy_share_min", "worker_busy_share_max",
        "ring_stall_s", "barrier_wait_s", "parallel_commands",
    ]
    return {key: _median([v[key] for v in per_round]) for key in keys}


def per_program(result: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-program medians over plain rounds, plus what each one ran on.

    ``steady_run_s`` is the program's ``run_steady`` span time in traced
    rounds (None without tracing).
    """
    out = []
    plain = [rd for rd in result["rounds"] if rd["kind"] == "plain"]
    traced = [rd for rd in result["rounds"] if rd["kind"] == "traced"]
    latencies = call_latencies_ms(result)
    for i, prog in enumerate(result["programs"]):
        rows = [rd["rows"][i] for rd in plain]
        steady = [
            r["items"] / (r["steady_s"] * r["steady_to_ref"])
            for r in rows
            if r["steady_s"] > 0
        ]
        traced_steady = [
            rd["to_ref"] * sum(
                s["end"] - s["start"]
                for s in result["spans"]
                if s["round"] == rd["index"]
                and s["program"] == prog["name"]
                and s["name"] == "runtime.run_steady"
            )
            for rd in traced
        ]
        last = rows[-1]
        out.append(
            {
                "program": prog["name"],
                "params": prog["params"],
                "engine_used": last.get("engine_used", "-"),
                "downgrades": last.get("downgrades", []),
                "setup_s": _median([r["setup_s"] * r["setup_to_ref"] for r in rows]),
                "items_per_s": _median(steady),
                "run_ms_p50": float(np.percentile(latencies[i], 50)) if latencies[i] else 0.0,
                "run_ms_p90": float(np.percentile(latencies[i], 90)) if latencies[i] else 0.0,
                "steady_run_s": _median(traced_steady) if traced else None,
                "failed": sum(1 for r in rows if not r["ok"]),
            }
        )
    return out
