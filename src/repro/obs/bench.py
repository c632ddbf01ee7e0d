"""The bench-regression harness behind ``python -m repro bench``.

A pinned micro-suite of runtime hot paths, each timed over N repeats
and reported as the **median** (medians shrug off one-off scheduler
hiccups that would whipsaw a mean).  The output is a schema-versioned
JSON payload (``BENCH_SCHEMA``) whose *identity* fields - bench names,
spec counts, seeds - are fully deterministic, and which contains **no
wall-clock timestamps** (the DET01 discipline): two runs of the same
code differ only in the measured seconds.  CI runs this non-blocking
and uploads ``BENCH_runtime.json`` as an artifact, so the repository
finally accumulates a performance trajectory PR over PR.

The pinned cases cover the layers a regression could hide in:

=======================  ================================================
``machine_simulate``     one ``Machine.run`` solve (the inner loop)
``store_roundtrip``      ``ResultStore.put`` + ``get`` for 64 entries
``executor_cold``        a 6-spec batch, empty store (simulate + persist)
``executor_warm``        the same batch against a warm store (lookup only)
``suite_slice``          end-to-end: runs + predictions + accuracy summary
``solver_sweep_loop``    101-ratio sweep, one scalar ``run`` per point
``solver_sweep_batch``   the same sweep, one accelerated ``run_batch``
``solver_sweep_warm``    the same sweep, accelerated + warm-start cache
``solver_suite_loop``    16 workloads x {dram, cxl-a}, scalar loop
``solver_suite_batch``   the same pairs, one accelerated ``run_batch``
``suite_groups``         population solved per-(platform, seed) group
``suite_onebatch``       the same population, one cross-machine batch
``suite_accel``          a 3-platform suite population, accelerated
``warm_persist_cold``    cold-process sweep seeded from the persisted
                         warm-start snapshot (``runtime/warmstore``)
``store_roundtrip_100k`` ``put_many`` + ``get_many``, 100k entries [*]
``store_scan_1m``        ``get_many`` over a 1M-entry store [*]
``fleet_pairwise_loop``  per-node ``run_colocated`` over a few nodes
``fleet_shard``          one pack-once ``run_colocated_groups`` shard
``fleet_tournament``     a tiny end-to-end two-policy tournament
=======================  ================================================

[*] scale cases: only with ``--scale`` (they build ~100 MB stores);
the committed baseline and CI include them.

The ``solver`` summary block reports the batch/loop speedups the
vectorized solver is held to (docs/SOLVER.md): >= 5x on the ratio
sweep, >= 3x on the cold suite shape.  The ``store`` block holds the
segment store (docs/STORE.md) to its acceptance floor: >= 10x faster
per entry than the retired per-entry-JSON layout's committed
``store_roundtrip`` baseline.  ``compare_bench`` diffs two payloads
for the CI trajectory check.

Schema and how to read the trajectory: ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Version of the bench payload layout; bump on any field change.
#: 2: solver section (five ``solver_*`` cases + the ``solver`` block).
#: 3: store section (``store`` block + the two ``--scale`` cases) for
#: the segment-backed ResultStore.
#: 4: lint section (``lint_cold``/``lint_warm`` cases + the ``lint``
#: block) tracking the camp-lint v2 whole-program passes and their
#: content-hash cache.
#: 5: fleet section (``fleet_pairwise_loop``/``fleet_shard``/
#: ``fleet_tournament`` cases + the ``fleet`` block) tracking the
#: grouped colocation solver and the tournament end-to-end
#: (docs/FLEET.md).
#: 6: population section (``suite_groups``/``suite_onebatch``/
#: ``suite_accel``/``solver_f32``/``warm_persist_cold`` cases + the
#: ``population`` block) tracking cross-machine one-shot solving, the
#: float32 fast path, and the persistent warm-start store
#: (docs/SOLVER.md).
#: 7: the ``solver_f32`` case and the ``f32_*`` population fields are
#: gone with the float32 pre-pass they measured.
BENCH_SCHEMA = "repro-bench/7"

#: Machine seed for every benched simulation (pinned => comparable).
BENCH_SEED = 0

#: Workloads the executor/suite cases run (named-suite members, so the
#: population generator never runs).
BENCH_WORKLOADS = ("605.mcf", "557.xz", "603.bwaves")
SUITE_SLICE_WORKLOADS = 4
STORE_ROUNDTRIP_ENTRIES = 64

#: The ``--scale`` store cases: the 100k-entry roundtrip the 10x
#: acceptance criterion is measured at, and the million-entry
#: ``get_many`` scan.
STORE_SCALE_ENTRIES = 100_000
STORE_SCAN_ENTRIES = 1_000_000

#: Per-entry median the retired per-entry-JSON store posted for
#: ``store_roundtrip`` in the committed repro-bench/2 baseline
#: (0.0195 s / 64 entries).  Pinned so the ``store`` block can report
#: the segment store's speedup against it long after the old layout
#: is gone.
JSON_STORE_BASELINE_US_PER_ENTRY = 305.0

#: Defaults for the solver section: the paper's 101-point ratio sweep
#: and a 16-workload suite shape (both overridable for quick runs).
SOLVER_SWEEP_POINTS = 101
SOLVER_SUITE_WORKLOADS = 16
SOLVER_SWEEP_WORKLOAD = "603.bwaves"
SOLVER_SWEEP_DEVICE = "cxl-a"

#: Population section shapes: the one-batch cases solve
#: ``solver_workloads`` workloads x {dram, slow} x 3 platforms x
#: ``POPULATION_SEEDS`` seeds - 9 per-(platform, seed) groups - in
#: replay mode; ``suite_accel`` solves the full evaluation suite x
#: {dram, slow} x 3 platforms accelerated, wide enough that array
#: arithmetic (not per-iteration overhead) dominates.
POPULATION_PLATFORMS = ("skx2s", "spr2s", "emr2s")
POPULATION_SEEDS = 3

#: Fleet section shapes: one pinned shard (pack-once grouped solve)
#: against a small per-node loop, plus a tiny end-to-end tournament.
FLEET_SHARD_NODES = 50
FLEET_LOOP_NODES = 6
FLEET_TOURNAMENT_NODES = 16
FLEET_BENCH_POPULATION = 12


@dataclass
class BenchCase:
    """One pinned micro-benchmark: a setup-once, time-many callable."""

    name: str
    repeats: int
    median_s: float
    min_s: float
    max_s: float
    meta: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "repeats": self.repeats,
            "median_s": self.median_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "meta": dict(self.meta),
        }


def _timed(fn: Callable[[], None], repeats: int) -> List[float]:
    # Cyclic GC pauses are suspended while the clock runs - the same
    # hygiene :mod:`timeit` applies by default - so cases measure the
    # code under test, not collector sweeps over the bench harness's
    # own garbage.  (The scale store cases hold ~100k payload dicts
    # live; generational sweeps over those would otherwise dominate.)
    # One untimed warm-up call absorbs first-call effects - lazy
    # imports, allocator arena growth, cold page cache - so medians
    # track the steady state the trajectory is meant to watch.
    samples = []
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        fn()
        for _ in range(repeats):
            start_s = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start_s)
    finally:
        if was_enabled:
            gc.enable()
    return samples


def _case(name: str, fn: Callable[[], None], repeats: int,
          **meta: Any) -> BenchCase:
    samples = _timed(fn, repeats)
    return BenchCase(
        name=name, repeats=repeats,
        median_s=statistics.median(samples),
        min_s=min(samples), max_s=max(samples), meta=meta)


def _bench_specs(machine):
    from ..runtime.spec import RunSpec
    from ..uarch.interleave import Placement
    from ..workloads.suites import get_workload
    specs = []
    for name in BENCH_WORKLOADS:
        workload = get_workload(name)
        specs.append(RunSpec.from_machine(machine, workload,
                                          Placement.dram_only()))
        specs.append(RunSpec.from_machine(
            machine, workload, Placement.slow_only("cxl-a")))
    return specs


def run_bench(repeats: int = 5, out: Optional[pathlib.Path] = None,
              *, sweep_points: int = SOLVER_SWEEP_POINTS,
              solver_workloads: int = SOLVER_SUITE_WORKLOADS,
              scale: bool = False) -> Dict[str, Any]:
    """Run the pinned micro-suite; optionally write the JSON payload.

    Returns the payload dict.  ``repeats`` must be >= 1; 3-5 is enough
    for stable medians on a quiet machine.  ``sweep_points`` and
    ``solver_workloads`` shrink the solver section for quick local
    runs; CI and the committed baseline use the defaults.  ``scale``
    adds the big store cases (100k roundtrip, 1M scan): tens of
    seconds and ~100 MB of temporary disk, so they are opt-in.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if sweep_points < 2 or solver_workloads < 1:
        raise ValueError("solver section needs >= 2 sweep points and "
                         ">= 1 workload")
    # Imported lazily so `repro.obs` stays import-light (the tracer is
    # imported from DET01-scoped modules, which must not drag the whole
    # runtime stack in at import time).
    from ..analysis.stats import accuracy_summary
    from ..core.slowdown import SlowdownPredictor
    from ..runtime.executor import Executor
    from ..runtime.store import ResultStore
    from ..uarch.config import get_platform
    from ..uarch.interleave import Placement
    from ..uarch.machine import Machine, WarmStartCache, slowdown
    from ..workloads.suites import get_workload, named_workloads

    machine = Machine(get_platform("skx2s"), seed=BENCH_SEED)
    specs = _bench_specs(machine)
    cases: List[BenchCase] = []

    # -- machine_simulate: the solver's inner loop, one placement ----------
    sim_workload = specs[1].workload
    sim_placement = specs[1].placement

    def machine_simulate() -> None:
        machine.run(sim_workload, sim_placement)

    cases.append(_case("machine_simulate", machine_simulate, repeats,
                       workload=sim_workload.name,
                       placement=sim_placement.describe()))

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        root = pathlib.Path(tmp)

        # -- store_roundtrip: put + get, atomic-write path ------------------
        payload = {"cycles": 123456.0,
                   "values": {f"v{i}": float(i) for i in range(32)}}
        keys = [f"{i:02x}" + "0" * 62
                for i in range(STORE_ROUNDTRIP_ENTRIES)]
        rounds = [0]

        def store_roundtrip() -> None:
            store = ResultStore(root / f"store-{rounds[0]}")
            rounds[0] += 1
            for key in keys:
                store.put(key, payload)
            for key in keys:
                assert store.get(key) is not None
        cases.append(_case("store_roundtrip", store_roundtrip, repeats,
                           entries=STORE_ROUNDTRIP_ENTRIES))

        # -- store scale cases (--scale): the ISSUE-6 acceptance shapes -----
        if scale:
            scale_keys = [format(index, "064x")
                          for index in range(STORE_SCALE_ENTRIES)]
            scale_rounds = [0]

            def store_roundtrip_100k() -> None:
                store = ResultStore(root / f"scale-{scale_rounds[0]}")
                scale_rounds[0] += 1
                store.put_many((key, payload) for key in scale_keys)
                found = store.get_many(scale_keys)
                assert len(found) == STORE_SCALE_ENTRIES
            # Each repeat writes a fresh ~45 MB store; cap the wall
            # time without giving up the median.
            cases.append(_case("store_roundtrip_100k",
                               store_roundtrip_100k,
                               max(1, min(repeats, 3)),
                               entries=STORE_SCALE_ENTRIES))

            scan_keys = [format(index, "064x")
                         for index in range(STORE_SCAN_ENTRIES)]
            scan_store = ResultStore(root / "scan")
            scan_store.put_many((key, {"cycles": float(index)})
                                for index, key in enumerate(scan_keys))

            def store_scan_1m() -> None:
                found = scan_store.get_many(scan_keys)
                assert len(found) == STORE_SCAN_ENTRIES
            # Setup (the million puts) is deliberately untimed; one
            # repeat - a full-store get_many is self-averaging.
            cases.append(_case("store_scan_1m", store_scan_1m, 1,
                               entries=STORE_SCAN_ENTRIES,
                               segments=len(scan_store.segment_paths())))

        # -- executor_cold: simulate + persist ------------------------------
        cold_rounds = [0]

        def executor_cold() -> None:
            store = ResultStore(root / f"cold-{cold_rounds[0]}")
            cold_rounds[0] += 1
            Executor(jobs=1, store=store).run(specs, label="bench")
        cases.append(_case("executor_cold", executor_cold, repeats,
                           specs=len(specs)))

        # -- executor_warm: pure lookup + decode ----------------------------
        warm_store = ResultStore(root / "warm")
        Executor(jobs=1, store=warm_store).run(specs, label="bench")

        def executor_warm() -> None:
            Executor(jobs=1, store=warm_store).run(specs, label="bench")
        cases.append(_case("executor_warm", executor_warm, repeats,
                           specs=len(specs)))

        # -- suite_slice: end-to-end prediction-accuracy slice --------------
        cal_store = ResultStore(root / "cal")
        calibration = Executor(jobs=1, store=cal_store).calibration(
            machine, "cxl-a")
        predictor = SlowdownPredictor(calibration)
        from ..runtime.spec import RunSpec
        from ..workloads.suites import named_workloads
        slice_workloads = list(named_workloads().values())[
            :SUITE_SLICE_WORKLOADS]
        slice_specs = []
        for workload in slice_workloads:
            slice_specs.append(RunSpec.from_machine(
                machine, workload, Placement.dram_only()))
            slice_specs.append(RunSpec.from_machine(
                machine, workload, Placement.slow_only("cxl-a")))

        def suite_slice() -> None:
            results = Executor(jobs=1).run(slice_specs, label="bench")
            predicted, actual = [], []
            for index in range(len(slice_workloads)):
                dram = results[2 * index]
                slow = results[2 * index + 1]
                predicted.append(predictor.predict(
                    dram.profiled()).total)
                actual.append(slowdown(dram, slow))
            accuracy_summary(predicted, actual)
        cases.append(_case("suite_slice", suite_slice, repeats,
                           workloads=len(slice_workloads)))

    # -- solver: the vectorized batch solver against the scalar loop -------
    sweep_spec = get_workload(SOLVER_SWEEP_WORKLOAD)
    sweep_pairs = []
    for index in range(sweep_points):
        x = 1.0 - index / (sweep_points - 1)
        if x >= 1.0:
            placement = Placement.dram_only()
        elif x <= 0.0:
            placement = Placement.slow_only(SOLVER_SWEEP_DEVICE)
        else:
            placement = Placement.interleaved(x, SOLVER_SWEEP_DEVICE)
        sweep_pairs.append((sweep_spec, placement))

    def solver_sweep_loop() -> None:
        for workload, placement in sweep_pairs:
            machine.run(workload, placement)
    cases.append(_case("solver_sweep_loop", solver_sweep_loop, repeats,
                       points=sweep_points, workload=sweep_spec.name,
                       device=SOLVER_SWEEP_DEVICE))

    sweep_stats: Dict[str, Any] = {}

    def solver_sweep_batch() -> None:
        machine.run_batch(sweep_pairs, accelerate=True,
                          stats=sweep_stats)
    cases.append(_case("solver_sweep_batch", solver_sweep_batch, repeats,
                       points=sweep_points, workload=sweep_spec.name,
                       device=SOLVER_SWEEP_DEVICE))

    warm_cache = WarmStartCache()
    machine.run_batch(sweep_pairs, accelerate=True,
                      warm_cache=warm_cache)  # seed the cache
    warm_stats: Dict[str, Any] = {}

    def solver_sweep_warm() -> None:
        machine.run_batch(sweep_pairs, accelerate=True,
                          warm_cache=warm_cache, stats=warm_stats)
    cases.append(_case("solver_sweep_warm", solver_sweep_warm, repeats,
                       points=sweep_points, workload=sweep_spec.name,
                       device=SOLVER_SWEEP_DEVICE))

    suite_specs = list(named_workloads().values())[:solver_workloads]
    suite_pairs = []
    for workload in suite_specs:
        suite_pairs.append((workload, Placement.dram_only()))
        suite_pairs.append(
            (workload, Placement.slow_only(SOLVER_SWEEP_DEVICE)))

    def solver_suite_loop() -> None:
        for workload, placement in suite_pairs:
            machine.run(workload, placement)
    cases.append(_case("solver_suite_loop", solver_suite_loop, repeats,
                       workloads=len(suite_specs),
                       pairs=len(suite_pairs)))

    suite_stats: Dict[str, Any] = {}

    def solver_suite_batch() -> None:
        machine.run_batch(suite_pairs, accelerate=True,
                          stats=suite_stats)
    cases.append(_case("solver_suite_batch", solver_suite_batch, repeats,
                       workloads=len(suite_specs),
                       pairs=len(suite_pairs)))

    # -- population: cross-machine one-shot solving (docs/SOLVER.md) -------
    from ..runtime import serde, warmstore
    from ..runtime.spec import RunSpec
    from ..workloads.suites import evaluation_suite

    population_specs: List[Any] = []
    for platform_name in POPULATION_PLATFORMS:
        for seed in range(POPULATION_SEEDS):
            seeded = Machine(get_platform(platform_name), seed=seed)
            for workload in suite_specs:
                population_specs.append(RunSpec.from_machine(
                    seeded, workload, Placement.dram_only()))
                population_specs.append(RunSpec.from_machine(
                    seeded, workload,
                    Placement.slow_only(SOLVER_SWEEP_DEVICE)))
    population_groups: Dict[Any, List[Any]] = {}
    for spec in population_specs:
        population_groups.setdefault(
            (spec.platform.name, spec.noise, spec.seed),
            []).append(spec)
    pop_repeats = max(1, min(repeats, 3))   # the grouped path is slow

    def suite_groups() -> None:
        for members in population_groups.values():
            members[0].machine().run_batch(
                [(spec.workload, spec.placement) for spec in members])
    cases.append(_case("suite_groups", suite_groups, pop_repeats,
                       lanes=len(population_specs),
                       groups=len(population_groups)))

    def suite_onebatch() -> None:
        Machine.run_batch_multi(population_specs)
    cases.append(_case("suite_onebatch", suite_onebatch, repeats,
                       lanes=len(population_specs),
                       platforms=len(POPULATION_PLATFORMS),
                       seeds=POPULATION_SEEDS))

    # Replay byte-identity of the merged batch against the grouped
    # path, checked once (untimed) on the full population.
    onebatch_lookup = dict(zip(
        population_specs, Machine.run_batch_multi(population_specs)))
    replay_identical = all(
        serde.run_result_to_dict(onebatch_lookup[spec]) ==
        serde.run_result_to_dict(result)
        for members in population_groups.values()
        for spec, result in zip(members, members[0].machine().run_batch(
            [(s.workload, s.placement) for s in members])))

    accel_population: List[Any] = []
    for platform_name in POPULATION_PLATFORMS:
        seeded = Machine(get_platform(platform_name), seed=BENCH_SEED)
        for workload in evaluation_suite(seed=2026):
            accel_population.append(RunSpec.from_machine(
                seeded, workload, Placement.dram_only()))
            accel_population.append(RunSpec.from_machine(
                seeded, workload,
                Placement.slow_only(SOLVER_SWEEP_DEVICE)))
    accel_stats: Dict[str, Any] = {}

    def suite_accel() -> None:
        Machine.run_batch_multi(accel_population, accelerate=True,
                                stats=accel_stats)
    cases.append(_case("suite_accel", suite_accel, pop_repeats,
                       lanes=len(accel_population)))

    # -- warm_persist_cold: a cold process seeded from the snapshot --------
    # Setup persists a sweep-seeded cache; each timed call then does
    # exactly what a cold process does - rebuild the cache from the
    # store and solve the sweep warm.
    persist_stats: Dict[str, Any] = {}
    warm_loaded = [0]
    with tempfile.TemporaryDirectory(prefix="repro-bench-warm-") as tmp:
        warm_snap_store = ResultStore(pathlib.Path(tmp) / "snap")
        seed_cache = WarmStartCache()
        machine.run_batch(sweep_pairs, accelerate=True,
                          warm_cache=seed_cache)
        warmstore.save_warm_cache(warm_snap_store, seed_cache)

        def warm_persist_cold() -> None:
            cache, warm_loaded[0] = warmstore.load_warm_cache(
                warm_snap_store)
            machine.run_batch(sweep_pairs, accelerate=True,
                              warm_cache=cache, stats=persist_stats)
        cases.append(_case("warm_persist_cold", warm_persist_cold,
                           repeats, points=sweep_points))

    # -- lint_cold / lint_warm: camp-lint whole-repo, cache off/on ---------
    # Cold rebuilds the program graph and runs every rule from a fresh
    # cache file each call; warm re-uses one cache so an unchanged tree
    # is pure hash-and-load.  (The harness's untimed warm-up call is
    # what fills the warm case's cache.)
    from ..lint import ALL_RULES, LintCache, default_root, run_lint
    from ..lint.cache import rules_token

    lint_root = default_root()
    lint_token = rules_token([rule.id for rule in ALL_RULES])
    lint_repeats = max(1, min(repeats, 3))   # ~1.5 s per cold pass
    lint_files = [0]
    with tempfile.TemporaryDirectory(prefix="repro-bench-lint-") as tmp:
        lint_tmp = pathlib.Path(tmp)
        cold_round = [0]

        def lint_cold() -> None:
            cold_round[0] += 1
            cache = LintCache(
                lint_tmp / f"cold-{cold_round[0]}.json", lint_token)
            lint_files[0] = run_lint(
                root=lint_root, cache=cache).files_checked

        cases.append(_case("lint_cold", lint_cold, lint_repeats))

        def lint_warm() -> None:
            cache = LintCache(lint_tmp / "warm.json", lint_token)
            run_lint(root=lint_root, cache=cache)

        cases.append(_case("lint_warm", lint_warm, lint_repeats))
    for case_name in ("lint_cold", "lint_warm"):
        next(case for case in cases
             if case.name == case_name).meta.update(
            files=lint_files[0], rules=len(ALL_RULES))

    # -- fleet: the grouped colocation solver and the tournament -----------
    from ..fleet import TournamentConfig, draw_fleet, run_tournament
    from ..workloads.suites import evaluation_suite

    fleet_population = list(evaluation_suite(
        seed=2026))[:FLEET_BENCH_POPULATION]
    fleet_by_name = {spec.name: spec for spec in fleet_population}
    fleet_nodes = draw_fleet(fleet_population, FLEET_SHARD_NODES,
                             seed=BENCH_SEED)

    def fleet_jobs(node):
        return [(fleet_by_name[name],
                 Placement.interleaved(0.5, SOLVER_SWEEP_DEVICE))
                for name in node.workloads]

    loop_nodes = fleet_nodes[:FLEET_LOOP_NODES]

    def fleet_pairwise_loop() -> None:
        for node in loop_nodes:
            machine.run_colocated(fleet_jobs(node), tolerance=1e-4)
    cases.append(_case("fleet_pairwise_loop", fleet_pairwise_loop,
                       repeats, nodes=FLEET_LOOP_NODES))

    shard_jobs: List[Any] = []
    shard_groups = []
    for node in fleet_nodes:
        base = len(shard_jobs)
        shard_jobs.extend(fleet_jobs(node))
        shard_groups.append(tuple(range(base, len(shard_jobs))))

    def fleet_shard() -> None:
        machine.run_colocated_groups(shard_jobs, shard_groups,
                                     tolerance=1e-4)
    cases.append(_case("fleet_shard", fleet_shard, repeats,
                       nodes=FLEET_SHARD_NODES, lanes=len(shard_jobs)))

    fleet_config = TournamentConfig(
        nodes=FLEET_TOURNAMENT_NODES, seed=BENCH_SEED,
        schedule="flat", shard_nodes=FLEET_TOURNAMENT_NODES // 2,
        policies=("best-shot", "static"),
        population_limit=FLEET_BENCH_POPULATION)
    fleet_executor = Executor(jobs=1)

    def fleet_tournament() -> None:
        run_tournament(machine, calibration, fleet_executor,
                       fleet_config)
    cases.append(_case("fleet_tournament", fleet_tournament,
                       max(1, min(repeats, 3)),
                       nodes=FLEET_TOURNAMENT_NODES,
                       policies=len(fleet_config.policies)))

    by_name = {case.name: case for case in cases}

    def _speedup(loop_name: str, batch_name: str) -> float:
        loop_s = by_name[loop_name].median_s
        batch_s = max(by_name[batch_name].median_s, 1e-12)
        return round(loop_s / batch_s, 2)

    solver = {
        "sweep_points": sweep_points,
        "suite_workloads": len(suite_specs),
        "sweep_speedup": _speedup("solver_sweep_loop",
                                  "solver_sweep_batch"),
        "sweep_warm_speedup": _speedup("solver_sweep_loop",
                                       "solver_sweep_warm"),
        "suite_speedup": _speedup("solver_suite_loop",
                                  "solver_suite_batch"),
        "sweep_outer_iterations": int(
            sweep_stats.get("outer_iterations", 0)),
        "sweep_warm_outer_iterations": int(
            warm_stats.get("outer_iterations", 0)),
        "nonconverged": int(sweep_stats.get("nonconverged", 0)) +
        int(warm_stats.get("nonconverged", 0)) +
        int(suite_stats.get("nonconverged", 0)),
    }
    by_name["solver_sweep_batch"].meta["speedup_vs_loop"] = \
        solver["sweep_speedup"]
    by_name["solver_sweep_warm"].meta["speedup_vs_loop"] = \
        solver["sweep_warm_speedup"]
    by_name["solver_suite_batch"].meta["speedup_vs_loop"] = \
        solver["suite_speedup"]

    population = {
        "lanes": len(population_specs),
        "groups": len(population_groups),
        "onebatch_speedup": _speedup("suite_groups", "suite_onebatch"),
        "onebatch_replay_identical": replay_identical,
        "warm_cold_points_loaded": warm_loaded[0],
        "warm_cold_seeds_used": int(
            persist_stats.get("warm_seeded", 0)),
        "nonconverged": int(accel_stats.get("nonconverged", 0)) +
        int(persist_stats.get("nonconverged", 0)),
    }
    by_name["suite_onebatch"].meta.update(
        speedup_vs_groups=population["onebatch_speedup"],
        replay_identical=replay_identical)
    by_name["warm_persist_cold"].meta.update(
        points_loaded=warm_loaded[0],
        warm_seeded=population["warm_cold_seeds_used"])

    def _us_per_entry(case_name: str, entries: int) -> float:
        return round(by_name[case_name].median_s / entries * 1e6, 3)

    store_block: Dict[str, Any] = {
        "roundtrip_entries": STORE_ROUNDTRIP_ENTRIES,
        "json_baseline_us_per_entry": JSON_STORE_BASELINE_US_PER_ENTRY,
        "roundtrip_us_per_entry": _us_per_entry(
            "store_roundtrip", STORE_ROUNDTRIP_ENTRIES),
    }
    store_block["roundtrip_speedup_vs_json"] = round(
        JSON_STORE_BASELINE_US_PER_ENTRY /
        max(store_block["roundtrip_us_per_entry"], 1e-9), 1)
    if scale:
        store_block["scale_entries"] = STORE_SCALE_ENTRIES
        store_block["scale_us_per_entry"] = _us_per_entry(
            "store_roundtrip_100k", STORE_SCALE_ENTRIES)
        store_block["scale_speedup_vs_json"] = round(
            JSON_STORE_BASELINE_US_PER_ENTRY /
            max(store_block["scale_us_per_entry"], 1e-9), 1)
        store_block["scan_entries"] = STORE_SCAN_ENTRIES
        store_block["scan_us_per_entry"] = _us_per_entry(
            "store_scan_1m", STORE_SCAN_ENTRIES)

    lint_block = {
        "files": lint_files[0],
        "rules": len(ALL_RULES),
        "warm_speedup": _speedup("lint_cold", "lint_warm"),
    }
    by_name["lint_warm"].meta["speedup_vs_cold"] = \
        lint_block["warm_speedup"]

    fleet_block = {
        "shard_nodes": FLEET_SHARD_NODES,
        "shard_lanes": len(shard_jobs),
        "loop_nodes": FLEET_LOOP_NODES,
        "loop_ms_per_node": round(
            by_name["fleet_pairwise_loop"].median_s
            / FLEET_LOOP_NODES * 1e3, 3),
        "shard_ms_per_node": round(
            by_name["fleet_shard"].median_s
            / FLEET_SHARD_NODES * 1e3, 3),
        "tournament_nodes": FLEET_TOURNAMENT_NODES,
        "tournament_policies": len(fleet_config.policies),
    }
    fleet_block["shard_speedup_per_node"] = round(
        fleet_block["loop_ms_per_node"] /
        max(fleet_block["shard_ms_per_node"], 1e-9), 1)
    by_name["fleet_shard"].meta["speedup_per_node_vs_loop"] = \
        fleet_block["shard_speedup_per_node"]

    result = {
        "schema": BENCH_SCHEMA,
        "seed": BENCH_SEED,
        "repeats": repeats,
        "environment": {
            "cpu_count": os.cpu_count() or 1,
        },
        "benches": [case.as_dict() for case in cases],
        "solver": solver,
        "population": population,
        "store": store_block,
        "lint": lint_block,
        "fleet": fleet_block,
    }
    if out is not None:
        pathlib.Path(out).write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def render_bench(result: Dict[str, Any]) -> str:
    """The stdout table for ``python -m repro bench``."""
    lines = [f"bench schema {result['schema']} "
             f"(median of {result['repeats']} repeat(s))"]
    for case in result["benches"]:
        lines.append(f"  {case['name']:<20s} {case['median_s']*1e3:9.3f} ms"
                     f"   [{case['min_s']*1e3:.3f} .. "
                     f"{case['max_s']*1e3:.3f}]")
    solver = result.get("solver")
    if solver:
        lines.append(
            f"  solver speedups: sweep {solver['sweep_speedup']:.1f}x, "
            f"warm {solver['sweep_warm_speedup']:.1f}x, "
            f"suite {solver['suite_speedup']:.1f}x "
            f"(targets >= 5x / - / 3x)")
    population = result.get("population")
    if population:
        lines.append(
            f"  population: {population['lanes']} lanes in one batch, "
            f"{population['onebatch_speedup']:.1f}x vs "
            f"{population['groups']} per-machine groups (target >= 5x, "
            f"replay identical: "
            f"{population['onebatch_replay_identical']}); "
            f"cold warm-start seeded "
            f"{population['warm_cold_seeds_used']} lane(s) from "
            f"{population['warm_cold_points_loaded']} stored point(s)")
    store = result.get("store")
    if store:
        line = (f"  store: {store['roundtrip_us_per_entry']:.1f} us/entry "
                f"({store['roundtrip_speedup_vs_json']:.0f}x vs JSON "
                f"baseline; target >= 10x")
        if "scale_us_per_entry" in store:
            line += (f"; {store['scale_entries'] // 1000}k: "
                     f"{store['scale_us_per_entry']:.1f} us/entry, "
                     f"{store['scale_speedup_vs_json']:.0f}x")
        lines.append(line + ")")
    lint = result.get("lint")
    if lint:
        lines.append(
            f"  lint: {lint['files']} file(s), {lint['rules']} rules, "
            f"warm cache {lint['warm_speedup']:.1f}x faster than cold "
            f"(target >= 2x)")
    fleet = result.get("fleet")
    if fleet:
        lines.append(
            f"  fleet: shard {fleet['shard_ms_per_node']:.2f} ms/node "
            f"vs loop {fleet['loop_ms_per_node']:.2f} ms/node "
            f"({fleet['shard_speedup_per_node']:.1f}x per node); "
            f"tournament {fleet['tournament_nodes']} nodes x "
            f"{fleet['tournament_policies']} policies")
    return "\n".join(lines)


#: Median-seconds growth beyond which ``compare_bench`` flags a case.
REGRESSION_THRESHOLD = 0.20


def compare_bench(previous: Dict[str, Any], current: Dict[str, Any],
                  threshold: float = REGRESSION_THRESHOLD) -> List[str]:
    """Diff two bench payloads; return warning lines (non-blocking).

    A case present in both payloads whose median grew by more than
    ``threshold`` (relative) is flagged.  Cases that appear or vanish
    are noted, not flagged - schema evolution is expected PR over PR.
    Wall-clock medians are noisy on shared CI runners, which is why
    the caller (the CI bench job) only *warns* on the result.
    """
    warnings: List[str] = []
    before = {case["name"]: case for case in previous.get("benches", [])}
    after = {case["name"]: case for case in current.get("benches", [])}
    for name, case in after.items():
        prior = before.get(name)
        if prior is None:
            warnings.append(f"note: new bench case {name!r} "
                            "(no baseline yet)")
            continue
        old_s = prior["median_s"]
        new_s = case["median_s"]
        if old_s > 0 and new_s > old_s * (1.0 + threshold):
            growth = (new_s / old_s - 1.0) * 100.0
            warnings.append(
                f"regression: {name} median {new_s*1e3:.3f} ms vs "
                f"{old_s*1e3:.3f} ms baseline (+{growth:.0f}%, "
                f"threshold +{threshold*100:.0f}%)")
    for name in before:
        if name not in after:
            warnings.append(f"note: bench case {name!r} removed")
    return warnings
