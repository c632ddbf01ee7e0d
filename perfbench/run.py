"""End-to-end benchmark of the CAMP reproduction, one workload per call.

    python3 perfbench/run.py --workload population_cold --seed 1 \\
        --seconds 15 --trace 0

Prints a human-readable report, then, as the last line of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (untraced process);
with ``--trace 1`` they are the per-layer ones from a traced run, and
the spans are written under ``.perfbench/traces/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402

#: Seconds a worker may take beyond its window before it is killed.
WORKER_GRACE_S = 120.0


class Worker:
    """A ``worker.py`` process; ``raw_setup_s`` is spawn to ``READY``,
    ``probes`` the host probes taken around and during it."""

    def __init__(self, args, work_dir: pathlib.Path, *, setup_only: bool,
                 trace_out=None):
        command = [sys.executable, str(common.BENCH_DIR / "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--work-dir", str(work_dir)]
        if setup_only:
            command.append("--setup-only")
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        probe_before = common.host_probe_s()
        start = time.perf_counter()
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     env=common.subprocess_env(),
                                     cwd=str(common.ROOT), text=True)
        line = self.proc.stdout.readline()
        self.raw_setup_s = time.perf_counter() - start
        if not line.startswith("READY "):
            self.finish(timeout=10)
            raise RuntimeError(f"worker failed during setup: {line!r}")
        # The worker waits for a line on stdin, so this last probe runs
        # on an idle host, as the one before the spawn did.
        self.probes = [probe_before, *json.loads(line[len("READY "):]),
                       common.host_probe_s()]

    def finish(self, timeout: float) -> str:
        try:
            out, _ = self.proc.communicate("go\n", timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out


def run_worker(args, work_dir: pathlib.Path, trace_dir: pathlib.Path):
    raw_setups, setup_probes = [], []
    if not args.trace:
        for index in range(common.SETUP_REPEATS - 1):
            probe_dir = work_dir / f"setup-{index}"
            probe_dir.mkdir()
            probe = Worker(args, probe_dir, setup_only=True)
            probe.finish(timeout=WORKER_GRACE_S)
            raw_setups.append(probe.raw_setup_s)
            setup_probes += probe.probes
            shutil.rmtree(probe_dir)
    trace_out = (trace_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
                 if args.trace else None)
    worker = Worker(args, work_dir, setup_only=False, trace_out=trace_out)
    raw_setups.append(worker.raw_setup_s)
    setup_probes += worker.probes
    raw = json.loads(worker.finish(
        timeout=args.seconds + WORKER_GRACE_S).strip().splitlines()[-1])

    phases = [raw[name] for name in ("run", "untraced", "traced")
              if name in raw]
    attempted = sum(len(p["latencies_s"]) for p in phases)
    failed = sum(p["failed_ops"] for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    lines = [f"FAIL {failure}" for failure in failures[:20]]
    if not args.trace:
        run = raw["run"]
        latencies = run["normalized_s"]
        lines.insert(0, f"{len(latencies)} operations in "
                        f"{sum(run['latencies_s']):.2f} s wall, mean "
                        f"{1e3 * common.mean(run['latencies_s']):.1f} ms "
                        f"wall; set-ups " + ", ".join(
                            f"{s:.2f}" for s in raw_setups) + " s wall")
        latency_s = common.median(latencies)
        values = {
            # The host's speed flips within a second, so one probe next
            # to a set-up is a coin toss; the mean of all of them is not.
            "setup_s": common.normalize(common.median(raw_setups),
                                        common.mean(setup_probes)),
            "throughput_per_s": run["work"] / len(latencies) / latency_s,
            "latency_ms": 1e3 * latency_s,
            "peak_rss_mib": raw["peak_rss_mib"],
            "accuracy_within_10pct": common.median(run["accuracy"]),
        }
        return not failures, attempted, failed, values, lines

    traced = raw["traced"]
    values = {name: 0.0 for name in common.PER_LAYER_UNITS}
    for span, metric in common.SPAN_METRICS.items():
        values[metric] = raw["layers"].get(span, {}).get(
            "self_s_per_op", 0.0)
    values.update(traced["op_counts"])
    values.update({
        "setup.import_s": raw["import_s"],
        "calibration.calibrate_s": raw["calibrate_s"],
        "machine.batch_width_p50": common.median(raw["batch_widths"]),
        "store.disk_bytes": raw["disk_bytes"],
        "trace.overhead_ms": 1e3 * (
            common.median(traced["normalized_s"]) -
            common.median(raw["untraced"]["normalized_s"])),
    })
    lines += common.layer_lines(raw["layers"], len(traced["latencies_s"]),
                                "operation")
    return not failures, attempted, failed, values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    common.require_program()

    common.WORK_DIR.mkdir(exist_ok=True)
    trace_dir = common.WORK_DIR / "traces"
    trace_dir.mkdir(exist_ok=True)
    work_dir = pathlib.Path(tempfile.mkdtemp(prefix="run-",
                                             dir=common.WORK_DIR))
    try:
        if args.workload == "serve_open_loop":
            sys.path.insert(0, str(common.SRC))
            import serve_bench
            correct, attempted, failed, values, lines = serve_bench.run(
                args.seed, args.seconds, bool(args.trace), work_dir,
                trace_dir)
        else:
            correct, attempted, failed, values, lines = run_worker(
                args, work_dir, trace_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = common.PER_LAYER_UNITS if args.trace else \
        common.END_TO_END_UNITS
    metrics = common.metric_block(values, units)
    lines.append(f"failure_share {failed / max(1, attempted):.4g} "
                 f"({failed} of {attempted} operations failed)")
    print(common.render(args.workload, metrics, lines))
    print(common.result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
