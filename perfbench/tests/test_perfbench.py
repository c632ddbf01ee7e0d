"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench/tests

The end-to-end ones start real benchmark runs with a one- or two-second
window, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

sys.path.insert(0, str(common.SRC))


def run_bench(workload: str, seed: int, seconds: float, trace: int,
              cwd: pathlib.Path = common.ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH.relative_to(common.ROOT) / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        common.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        common.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_name_and_unit(trace):
    proc = run_bench("population_warm", 1, 1, trace)
    result = result_of(proc)
    units = common.PER_LAYER_UNITS if trace else common.END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    report = proc.stdout.strip().splitlines()[:-1]
    for name, unit in units.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"])
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in report), name
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in units)


def exact_counts(result: dict, names) -> dict:
    return {name: result["metrics"][name]["value"] for name in names}


def test_exact_counts_repeat_for_the_same_seed_population():
    names = ("machine.outer_iterations", "machine.lanes",
             "machine.nonconverged", "pmu.emit_counters_calls",
             "executor.misses", "executor.store_hits", "executor.memo_hits")
    first, second = (exact_counts(result_of(run_bench(
        "population_cold", 7, 1, 1)), names) for _ in range(2))
    assert first == second
    assert first["machine.lanes"] == first["executor.misses"] == 1590


def test_exact_counts_repeat_for_the_same_seed_serve():
    names = ("serve.lanes_solved", "machine.lanes")
    first, second = (exact_counts(result_of(run_bench(
        "serve_open_loop", 7, 2, 1)), names) for _ in range(2))
    assert first == second
    assert first["serve.lanes_solved"] > 0


def test_a_new_seed_changes_inputs_but_not_their_size():
    import serve_bench
    import worker
    from repro.workloads.suites import evaluation_suite, named_workloads

    # specs() needs only the member list, not the calibrated setup.
    population = worker.Population.__new__(worker.Population)
    population.members = list(evaluation_suite(
        seed=worker.POPULATION_SEED))[:5]
    first = population.specs(common.op_seed("population_cold", 1, 0))
    second = population.specs(common.op_seed("population_cold", 2, 0))
    assert len(first) == len(second) == 2 * 3 * 5
    assert ({spec.fingerprint() for spec in first}.isdisjoint(
        spec.fingerprint() for spec in second))

    names = sorted(named_workloads())
    probe_a, window_a = serve_bench.request_plan(1, 200, names)
    probe_b, window_b = serve_bench.request_plan(2, 200, names)
    assert len(window_a) == len(window_b) == 200
    assert len(probe_a) == len(probe_b) == serve_bench.PROBE_REQUESTS
    assert window_a != window_b
    assert window_a == serve_bench.request_plan(1, 200, names)[1]
    fresh = [(b["workload"], b["placement"]["dram_fraction"])
             for b in probe_a + window_a if b.get("_fresh")]
    assert len(fresh) == len(set(fresh))

    def make_up(window):
        return sorted(b["workload"] + (" fresh" if b.get("_fresh") else "")
                      for b in window)
    # Seeds move placements and order, not how much solving a run holds.
    assert make_up(window_a[:96]) == make_up(window_b[:96])
    assert sum(1 for b in window_a if b.get("_fresh")) == 100

    assert common.op_seed("fleet_tournament", 1, 0) != \
        common.op_seed("fleet_tournament", 2, 0)


def test_tail_has_ten_samples_beyond_it_or_is_unresolved():
    samples = list(range(100))
    assert common.tail(samples, -1.0) == 89
    assert sum(value > common.tail(samples, -1.0) for value in samples) == 10
    assert common.tail(list(range(21)), -1.0) == 10
    assert common.tail(list(range(20)), -1.0) == -1.0


def test_normalize_scales_to_the_nominal_host_speed():
    nominal = common.PROBE_NOMINAL_S
    assert common.normalize(2.0, nominal) == 2.0
    assert common.normalize(2.0, 2 * nominal) == 1.0
    assert common.host_probe_s() > 0


def test_fails_without_printing_a_result_when_the_program_is_absent(
        tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("population_cold", 1, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert not line.startswith("{")
