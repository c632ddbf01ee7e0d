"""Shared pieces of the benchmark: paths, seeds, statistics, output."""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import statistics
import sys
import time
from typing import Any, Dict, List, Sequence

import numpy

BENCH_DIR = pathlib.Path(__file__).resolve().parent
#: The checkout the benchmark runs from; it reads and writes only here.
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space (cache dirs, stores) and written span logs.
WORK_DIR = ROOT / ".perfbench"

WORKLOADS = ("population_cold", "population_warm", "fleet_tournament",
             "serve_open_loop")

#: Setups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Wall time of one :func:`host_probe_s` on an uncontended host of the
#: reference class (2-vCPU 2.1 GHz Xeon).  Host-normalized times are
#: scaled to this speed; see :func:`normalize`.
PROBE_NOMINAL_S = 0.0012

#: Unit of every end-to-end metric, in the order they are printed.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms": "ms",
    "peak_rss_mib": "MiB",
    "accuracy_within_10pct": "share",
}

#: Unit of every per-layer metric.  Times are self time per operation
#: (per request for serve), counts are per operation unless noted.
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "calibration.calibrate_s": "s",
    "machine.run_batch_multi_s": "s/op",
    "machine.outer_iterations": "count",
    "machine.lanes": "count",
    "machine.nonconverged": "count",
    "machine.batch_width_p50": "count",
    "machine.run_colocated_groups_s": "s/op",
    "pmu.emit_counters_s": "s/op",
    "pmu.emit_counters_calls": "count",
    "spec.fingerprint_s": "s/op",
    "serde.encode_s": "s/op",
    "serde.decode_s": "s/op",
    "store.put_many_s": "s/op",
    "store.get_many_s": "s/op",
    "store.disk_bytes": "bytes",
    "executor.run_s": "s/op",
    "executor.misses": "count",
    "executor.store_hits": "count",
    "executor.memo_hits": "count",
    "slowdown.predict_s": "s/op",
    "fleet.plan_s": "s/op",
    "fleet.score_s": "s/op",
    "serve.lanes_solved": "count",
    "serve.batches_solved": "count",
    "serve.coalesce_factor": "count",
    "serve.memo_hits": "count",
    "serve.coalesced_twins": "count",
    "serve.shed": "count",
    "serve.deadline_expired": "count",
    "serve.tail_ms": "ms",
    "serve.fresh_p50_ms": "ms",
    "serve.repeat_p50_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.ceiling_rps": "1/s",
    "trace.overhead_ms": "ms",
}

#: Span name -> per-layer time metric it feeds (self time per op).
SPAN_METRICS = {
    "machine.run_batch_multi": "machine.run_batch_multi_s",
    "machine.run_colocated_groups": "machine.run_colocated_groups_s",
    "pmu.emit_counters": "pmu.emit_counters_s",
    "spec.fingerprint": "spec.fingerprint_s",
    "serde.encode": "serde.encode_s",
    "serde.decode": "serde.decode_s",
    "store.put_many": "store.put_many_s",
    "store.get_many": "store.get_many_s",
    "executor.run": "executor.run_s",
    "slowdown.predict": "slowdown.predict_s",
    "fleet.plan": "fleet.plan_s",
    "fleet.score": "fleet.score_s",
}


def op_seed(workload: str, seed: int, index: int) -> int:
    """Deterministic per-operation seed: both commits get equal inputs."""
    digest = hashlib.sha256(
        f"perfbench:{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def tail(samples: Sequence[float], unresolved: float) -> float:
    """Highest nearest-rank percentile with >= 10 samples beyond it.

    Only a percentile at or above the median counts as a tail; with
    fewer than 21 samples there is none, and ``unresolved`` is returned.
    """
    ordered = sorted(samples)
    index = len(ordered) - 11
    return ordered[index] if index >= len(ordered) // 2 else unresolved


def _probe_kernel() -> float:
    table = {}
    x = 0.0
    for i in range(6000):
        table[i & 511] = x = x * 0.5 + i
    values = numpy.arange(512.0)
    for _ in range(100):
        values = numpy.sqrt(numpy.maximum(values * 1.0001, 1.0) + 1.0)
    return x + float(values[0])


def host_probe_s() -> float:
    """How fast the host runs right now: median wall time of seven runs
    of a fixed interpreter-and-numpy kernel that never changes."""
    runs = []
    for _ in range(7):
        start = time.perf_counter()
        _probe_kernel()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def normalize(raw_s: float, probe_s: float) -> float:
    """``raw_s`` rescaled to the nominal host speed ``probe_s`` saw.

    The host is shared: its speed drifts by tens of percent over tens
    of seconds, moving CPU time alike.  Dividing by the probe measured
    around the interval takes that drift out, so two commits measured
    minutes apart compare; a change to the program moves the result in
    full because the probe's code is fixed.
    """
    return raw_s * PROBE_NOMINAL_S / probe_s


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def p99(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       math.ceil(0.99 * len(ordered)) - 1)]


def subprocess_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts.

    One bytecode policy on every commit: no ``.pyc`` is written and the
    cache prefix points at an empty directory, so every setup compiles
    from source alike.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPYCACHEPREFIX"] = str(WORK_DIR / "no-pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def require_program() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def metric_block(values: Dict[str, float],
                 units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}


def render(workload: str, metrics: Dict[str, Dict[str, Any]],
           extra: List[str]) -> str:
    lines = [f"perfbench {workload}"]
    for name, metric in metrics.items():
        lines.append(f"  {name:<34} {metric['value']:>14.6g} "
                     f"{metric['unit']}")
    lines.extend(f"  {line}" for line in extra)
    return "\n".join(lines)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict[str, Any]]) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def layer_lines(layers: Dict[str, Dict[str, float]], ops: int,
                unit: str) -> List[str]:
    total = sum(layer["self_s"] for layer in layers.values()) or 1.0
    lines = [f"self time per layer ({ops} {unit}s traced):",
             f"  {'span':<30} {'calls':>8} {'self s':>10} {'share':>7}"]
    for name, layer in sorted(layers.items(),
                              key=lambda item: -item[1]["self_s"]):
        lines.append(f"  {name:<30} {layer['calls']:>8} "
                     f"{layer['self_s']:>10.4f} "
                     f"{layer['self_s'] / total:>6.1%}")
    return lines
