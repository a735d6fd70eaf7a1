"""Smoke-sized checks of the benchmark itself.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import functools
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import core, spans
from perfbench.tests.conftest import ROOT
from repro.apps import ALL_APPS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload, tmp_path, **kwargs):
    return core.run(
        workload, seed=7, seconds=0, trace=True, scratch=tmp_path,
        scale=0.05, min_cycles=1, min_calls=0, **kwargs
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, tmp_path):
    result = smoke(workload, tmp_path)
    assert result["failures"] == []
    e2e = core.end_to_end(result)
    layers = core.per_layer(result)
    for metric in SPEC["end_to_end"]:
        assert metric["unit"]
        assert e2e[metric["name"]] > 0, metric["name"]
    for metric in SPEC["per_layer"]:
        assert metric["unit"]
        assert isinstance(layers[metric["name"]], float), metric["name"]
    assert result["host"]["nproc"] >= 1
    assert set(result["teardown"]) == {"alive_workers", "shm_left", "buffer_errors"}


def test_the_parallel_probe_feeds_the_parallel_layer(tmp_path):
    result = smoke("steady-codegen", tmp_path)
    kinds = [rd["kind"] for rd in result["rounds"]]
    assert kinds == ["plain", "traced", "parallel", "baseline"]
    assert all(
        row["engine_used"] == "parallel"
        for rd in result["rounds"] if rd["kind"] == "parallel"
        for row in rd["rows"]
    )
    layers = core.per_layer(result)
    assert layers["parallel_commands"] > 0
    assert layers["parallel_setup_s"] > 0
    assert layers["parallel_speedup_vs_batched"] > 0
    assert layers["teardown_errors"] == 0
    assert layers["steady_run_s"] > 0


def test_linear_opt_shows_the_dtoa_fallback(tmp_path):
    progs = [p for p in core.programs(core.WORKLOADS["linear-opt"].apps, 7, 0.05)
             if p.name == "DToA"]
    result = smoke("linear-opt", tmp_path, progs=progs)
    assert core.per_layer(result)["codegen_fallback_blocks"] > 0


def test_wrong_output_and_exceptions_are_failures(tmp_path):
    progs = core.programs(core.WORKLOADS["steady-codegen"].apps, 7, 0.05)
    fm = next(p for p in progs if p.name == "FMRadio")
    wrong = dataclasses.replace(
        fm,
        build=functools.partial(
            ALL_APPS["FMRadio"], **{**fm.params, "n_taps": fm.params["n_taps"] + 1}
        ),
    )

    def broken():
        raise RuntimeError("builder failed")

    raising = dataclasses.replace(progs[0], build=broken)
    result = smoke(
        "steady-codegen", tmp_path, progs=[wrong, raising, progs[1]], probe=[]
    )
    attempted, failed = core.attempted_failed(result)
    assert (attempted, failed) == (6, 4)
    e2e = core.end_to_end(result)
    assert e2e["failed_frac"] == pytest.approx(4 / 6)
    assert e2e["passed_frac"] == pytest.approx(2 / 6)
    problems = {f["program"]: f["problem"] for f in result["failures"]}
    assert "scalar" in problems["FMRadio"]
    assert "builder failed" in problems["BitonicSort"]


def test_params_are_seeded_and_near_the_defaults():
    builder = ALL_APPS["FIR"]
    draws = [core.draw_params("FIR", builder, seed) for seed in range(20)]
    assert draws[3] == core.draw_params("FIR", builder, 3)
    assert len({tuple(sorted(d.items())) for d in draws}) > 1
    for d in draws:
        assert abs(d["n_taps"] - 128) <= 4 and abs(d["input_length"] - 256) <= 16


def test_self_time_subtracts_children():
    rows = [
        {"id": 0, "parent": None, "name": "a", "start": 0.0, "end": 10.0, "round": 0},
        {"id": 1, "parent": 0, "name": "b", "start": 1.0, "end": 3.0, "round": 0},
        {"id": 2, "parent": 0, "name": "b", "start": 5.0, "end": 6.0, "round": 0},
        {"id": 3, "parent": 2, "name": "c", "start": 5.5, "end": 6.0, "round": 0},
    ]
    assert spans.self_time_by_name(rows) == {"a": 7.0, "b": 2.5, "c": 0.5}


def test_wrappers_are_removed_after_a_traced_round():
    import repro.graph.validation as validation
    import repro.runtime.interpreter as interpreter
    from repro.runtime.plan import ExecutionPlan

    original, init = validation.validate, ExecutionPlan.__init__
    rec = spans.SpanRecorder()
    with rec.install():
        assert interpreter.validate is not original
        assert ExecutionPlan.__init__ is not init
    assert validation.validate is original and interpreter.validate is original
    assert ExecutionPlan.__init__ is init


def run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_one_result_line():
    proc = run_cli(ROOT, "--workload", "steady-codegen", "--seed", "3",
                   "--seconds", "0", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(tmp_path, "--workload", "compile-suite", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
