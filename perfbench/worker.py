"""The process under test for the population and fleet workloads.

Started by ``run.py``; never run by hand.  It imports the program, sets
up (calibration fits, seeded stores, fleet profiles), prints ``READY``
and waits for a line on stdin; then - unless ``--setup-only`` - it runs
operations for ``--seconds`` of operation time, checks every output
outside the timed interval, and prints one JSON line of measurements.

With ``--trace 1`` the window is split in two halves over the *same*
operation inputs: the first with recording switched off, the second
with spans on, so the difference of their median latencies is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import random
import resource
import shutil
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402

sys.path.insert(0, str(common.SRC))

PLATFORMS = ("skx2s", "spr2s", "emr2s")
DEVICE = "cxl-a"
POPULATION_SEED = 2026
#: Populations solved into stores by the warm workload's setup.
WARM_POPULATIONS = 2
#: Lanes per population operation checked against an independent path.
CHECK_LANES = 4
FLEET_NODES = 250
#: Two of the six policies per tournament: best-shot (CAMP's planner)
#: and nbt (the reactive winner).  A six-policy tournament runs ~6 s, too
#: long for the host-speed probes around it to follow the host's drift.
FLEET_POLICIES = ("best-shot", "nbt")


class Population:
    """One never-seen (cold) or re-queried (warm) 1590-lane population."""

    def __init__(self, workload: str, seed: int, work_dir: pathlib.Path,
                 probes: list):
        from repro.core.calibration import calibrate
        from repro.core.slowdown import SlowdownPredictor
        from repro.uarch.config import get_platform
        from repro.uarch.machine import Machine
        from repro.workloads.suites import evaluation_suite

        self.workload, self.seed, self.work_dir = workload, seed, work_dir
        self.predictors = {}
        for name in PLATFORMS:
            machine = Machine(get_platform(name))
            self.predictors[machine.platform.name] = SlowdownPredictor(
                calibrate(machine, DEVICE))
            probes.append(common.host_probe_s())
        self.members = list(evaluation_suite(seed=POPULATION_SEED))
        self.disk_bytes = 0
        self.written = []
        if workload == "population_warm":
            # Solve a few populations into their own stores; operations
            # re-open them the way a second `repro suite` process would.
            from repro.runtime import serde
            from repro.runtime.executor import Executor
            from repro.runtime.store import ResultStore
            for index in range(WARM_POPULATIONS):
                specs = self.specs(common.op_seed(workload, seed,
                                                  -1 - index))
                root = work_dir / f"warm-{index}"
                with ResultStore(root) as store:
                    if len(store):
                        raise RuntimeError(f"store {root} not empty")
                    results = Executor(jobs=1, store=store).run(
                        specs, label="perfbench")
                    self.disk_bytes = store.disk_bytes()
                self.written.append((root, specs, {
                    lane: serde.run_result_to_dict(results[lane])
                    for lane in self.sample(index)}))
                probes.append(common.host_probe_s())

    def specs(self, machine_seed: int):
        from repro.runtime.spec import RunSpec
        from repro.uarch.config import get_platform
        from repro.uarch.interleave import Placement
        from repro.uarch.machine import Machine
        specs = []
        for name in PLATFORMS:
            machine = Machine(get_platform(name), seed=machine_seed)
            for member in self.members:
                specs.append(RunSpec.from_machine(
                    machine, member, Placement.dram_only()))
                specs.append(RunSpec.from_machine(
                    machine, member, Placement.slow_only(DEVICE)))
        return specs

    def sample(self, index: int):
        rng = random.Random(f"{self.workload}:{self.seed}:{index}")
        return sorted(rng.sample(range(2 * len(PLATFORMS) *
                                       len(self.members)), CHECK_LANES))

    def inputs(self, phase: str, index: int):
        if self.workload == "population_cold":
            specs = self.specs(common.op_seed(self.workload, self.seed,
                                              index))
            root = self.work_dir / f"cold-{phase}-{index}"
            if root.exists():
                raise RuntimeError(f"store {root} is not fresh")
            return specs, root, None
        root, specs, written = self.written[index % WARM_POPULATIONS]
        return specs, root, written

    def run(self, inputs):
        """The timed operation: open store, execute, predict, score."""
        from repro.analysis.stats import accuracy_summary
        from repro.runtime.executor import Executor
        from repro.runtime.store import ResultStore
        from repro.uarch.machine import slowdown
        specs, root, _ = inputs
        store = ResultStore(root)
        executor = Executor(jobs=1, store=store)
        results = executor.run(specs, label="perfbench")
        predicted, actual = [], []
        for lane in range(0, len(results), 2):
            dram, slow = results[lane], results[lane + 1]
            predictor = self.predictors[dram.platform.name]
            predicted.append(predictor.predict(dram.profiled()).total)
            actual.append(slowdown(dram, slow))
        summary = accuracy_summary(predicted, actual)
        return store, executor, results, summary

    def check(self, inputs, output, index: int):
        """Failures found in one operation's outputs (untimed)."""
        from repro.runtime import serde
        specs, root, written = inputs
        store, executor, results, summary = output
        counters = executor.telemetry.counters
        failures = []
        lanes = len(specs)
        if self.workload == "population_cold":
            if counters.get("misses", 0) != lanes:
                failures.append(f"cold op missed {counters.get('misses')}"
                                f" of {lanes} lanes")
            # Seeded sample lanes against the scalar solver, bit for bit.
            for lane in self.sample(index):
                spec = specs[lane]
                scalar = spec.machine().run(spec.workload, spec.placement)
                if (serde.run_result_to_dict(scalar) !=
                        serde.run_result_to_dict(results[lane])):
                    failures.append(f"lane {lane} differs from Machine.run")
        else:
            if (counters.get("store_hits", 0) != lanes or
                    counters.get("misses", 0)):
                failures.append(f"warm op: {dict(counters)}")
            if len(store) != lanes:
                failures.append(f"store holds {len(store)} != {lanes}")
            for lane, payload in written.items():
                if serde.run_result_to_dict(results[lane]) != payload:
                    failures.append(f"lane {lane} decodes differently")
        store.close()
        if self.workload == "population_cold":
            self.disk_bytes = store.disk_bytes()
            shutil.rmtree(root, ignore_errors=True)
        return failures, lanes, summary.within_10pct

    def counts(self, output):
        counters = output[1].telemetry.counters
        return {"executor.misses": counters.get("misses", 0),
                "executor.store_hits": counters.get("store_hits", 0),
                "executor.memo_hits": counters.get("memo_hits", 0)}


class Fleet:
    """250-node two-policy colocation tournaments on one machine."""

    def __init__(self, workload: str, seed: int, work_dir: pathlib.Path,
                 probes: list):
        from repro.analysis.stats import accuracy_summary
        from repro.core.slowdown import SlowdownPredictor
        from repro.runtime.executor import Executor
        from repro.runtime.spec import RunSpec
        from repro.uarch.config import get_platform
        from repro.uarch.interleave import Placement
        from repro.uarch.machine import Machine, slowdown
        from repro.workloads.suites import evaluation_suite

        self.workload, self.seed = workload, seed
        self.machine = Machine(get_platform("skx2s"))
        self.executor = Executor(jobs=1)   # in-memory memo only
        self.calibration = self.executor.calibration(self.machine, DEVICE)
        probes.append(common.host_probe_s())
        # Profile the whole population once, DRAM-only and on the slow
        # tier: every tournament's model build and solo baselines then
        # come from the executor memo.
        members = list(evaluation_suite(seed=POPULATION_SEED))
        specs = []
        for member in members:
            specs.append(RunSpec.from_machine(
                self.machine, member, Placement.dram_only()))
            specs.append(RunSpec.from_machine(
                self.machine, member, Placement.slow_only(DEVICE)))
        results = self.executor.run(specs, label="perfbench")
        predictor = SlowdownPredictor(self.calibration)
        self.accuracy = accuracy_summary(
            [predictor.predict(results[i].profiled()).total
             for i in range(0, len(results), 2)],
            [slowdown(results[i], results[i + 1])
             for i in range(0, len(results), 2)]).within_10pct
        self.disk_bytes = 0

    def inputs(self, phase: str, index: int):
        from repro.fleet import TournamentConfig
        return TournamentConfig(
            nodes=FLEET_NODES, policies=FLEET_POLICIES,
            seed=common.op_seed(self.workload, self.seed, index))

    def run(self, config):
        from repro.fleet import tournament
        before = dict(self.executor.telemetry.counters)
        report = tournament.run_tournament(
            self.machine, self.calibration, self.executor, config)
        return report, before

    def check(self, config, output, index: int):
        report, _ = output
        failures = []
        standings = report.policies
        if sorted(s.policy for s in standings) != sorted(config.policies):
            failures.append("not every policy was ranked")
        if [s.rank for s in standings] != list(
                range(1, len(config.policies) + 1)):
            failures.append("ranks are not 1..N")
        for standing in standings:
            numbers = list(standing.slowdown.values()) + [
                standing.weighted_speedup,
                standing.migration_gib_per_node,
                standing.stranded_gib_per_node,
                standing.stranded_fraction]
            if not numbers or not all(math.isfinite(float(value))
                                      for value in numbers):
                failures.append(f"{standing.policy}: non-finite metric")
        return failures, config.nodes * len(standings), self.accuracy

    def counts(self, output):
        _, before = output
        after = self.executor.telemetry.counters
        return {f"executor.{name}": after.get(name, 0) - before.get(name, 0)
                for name in ("misses", "store_hits", "memo_hits")}


def run_phase(bench, phase: str, seconds: float, recorder=None):
    """Operations until their summed time reaches ``seconds``."""
    latencies, normalized, work, failures, accuracy = [], [], 0, [], []
    failed_ops = 0
    op_counts = None
    index = 0
    while index == 0 or sum(latencies) < seconds:
        inputs = bench.inputs(phase, index)
        if recorder is not None:
            recorder.op_id = index
            counts_before = dict(recorder.counts)
        # Every operation starts from the same collector state, so
        # collections land at the same points inside each operation.
        gc.collect()
        probe_before = common.host_probe_s()
        start = time.perf_counter()
        output = bench.run(inputs)
        latencies.append(time.perf_counter() - start)
        probe_after = common.host_probe_s()
        normalized.append(common.normalize(
            latencies[-1], (probe_before + probe_after) / 2))
        if recorder is not None:
            recorder.op_id = None
            recorder.enabled = False
            if index == 0:
                # Exact work counts of the first traced operation: its
                # inputs depend only on the seed, so they repeat exactly.
                op_counts = {name: value - counts_before.get(name, 0)
                             for name, value in recorder.counts.items()}
                op_counts.update(bench.counts(output))
        op_failures, op_work, op_accuracy = bench.check(inputs, output,
                                                        index)
        if recorder is not None:
            recorder.enabled = True
        failures.extend(op_failures)
        failed_ops += bool(op_failures)
        work += op_work
        accuracy.append(op_accuracy)
        index += 1
    return {"latencies_s": latencies, "normalized_s": normalized,
            "work": work, "failures": failures,
            "failed_ops": failed_ops, "accuracy": accuracy,
            "op_counts": op_counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("population_cold", "population_warm",
                                 "fleet_tournament"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=pathlib.Path, required=True)
    parser.add_argument("--trace-out", type=pathlib.Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_start = time.perf_counter()
    import repro.analysis.stats  # noqa: F401
    import repro.fleet  # noqa: F401
    import repro.runtime.executor  # noqa: F401
    import repro.runtime.store  # noqa: F401
    import_s = time.perf_counter() - import_start

    recorder = None
    if args.trace:
        import tracing
        recorder = tracing.SpanRecorder()
        tracing.install(recorder)

    bench_cls = Fleet if args.workload == "fleet_tournament" else Population
    # Host-speed probes spread through set-up, so run.py can take the
    # host's drift during set-up out of the set-up time.
    probes = [common.host_probe_s()]
    bench = bench_cls(args.workload, args.seed, args.work_dir, probes)
    probes.append(common.host_probe_s())
    print("READY", json.dumps(probes), flush=True)
    sys.stdin.readline()   # run.py probes the idle host meanwhile
    if args.setup_only:
        return 0

    out = {"import_s": import_s}
    if recorder is None:
        out["run"] = run_phase(bench, "run", args.seconds)
    else:
        calibrate_s = recorder.inclusive_s("calibration.calibrate")
        recorder.enabled = False
        out["untraced"] = run_phase(bench, "untraced", args.seconds / 2)
        recorder.enabled = True
        recorder.batch_widths.clear()
        first_span = len(recorder.spans)
        out["traced"] = run_phase(bench, "traced", args.seconds / 2,
                                  recorder)
        recorder.enabled = False
        # Only the traced operations' spans feed the layer table.
        out["layers"] = recorder.layer_table(first_span)
        out["calibrate_s"] = calibrate_s
        out["batch_widths"] = recorder.batch_widths
        if args.trace_out is not None:
            recorder.dump(args.trace_out)
    out["disk_bytes"] = bench.disk_bytes
    out["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
