"""Equivalence and acceleration guarantees of the batched solver.

The contract (docs/SOLVER.md): in replay mode ``Machine.run_batch`` is
bit-identical to looped ``Machine.run`` — same cycles, same counters,
same convergence flags, even when the iteration cap truncates some
lanes.  Accelerated mode (Anderson + warm starts) reaches the same
fixed point within ``ACCELERATED_RELATIVE_TOLERANCE`` in far fewer
outer iterations.  The executor's serial batch path must preserve the
runtime's byte-identity guarantee on top of that.
"""

import pytest

import repro.uarch.machine as machine_mod
from repro.runtime.executor import MIN_BATCH_GROUP, Executor
from repro.runtime.spec import RunSpec
from repro.runtime.store import ResultStore
from repro.uarch import EMR2S, Machine, Placement, SKX2S, SPR2S
from repro.uarch.machine import (ACCELERATED_RELATIVE_TOLERANCE,
                                 WarmStartCache)
from repro.workloads import get_workload

#: A spread of memory behaviors: latency-bound, compute-leaning,
#: bandwidth-hungry, store-heavy, and an ML inference profile.
WORKLOADS = ("605.mcf", "557.xz", "603.bwaves", "619.lbm", "gpt-2")


def mixed_pairs():
    """(workload, placement) problems spanning tiers and ratios."""
    pairs = []
    for offset, name in enumerate(WORKLOADS):
        workload = get_workload(name)
        pairs.append((workload, Placement.dram_only()))
        pairs.append((workload, Placement.slow_only("cxl-a")))
        pairs.append((workload,
                      Placement.interleaved(0.25 + 0.15 * offset,
                                            "cxl-a")))
    return pairs


def sweep_pairs(name="603.bwaves", points=20, device="cxl-a"):
    workload = get_workload(name).with_threads(10)
    pairs = []
    for index in range(points):
        x = 1.0 - index / (points - 1)
        placement = (Placement.dram_only() if x >= 1.0 else
                     Placement.slow_only(device) if x <= 0.0 else
                     Placement.interleaved(x, device))
        pairs.append((workload, placement))
    return pairs


def assert_bit_identical(batch, scalar):
    assert len(batch) == len(scalar)
    for got, want in zip(batch, scalar):
        assert got.converged == want.converged
        assert got.cycles == want.cycles
        assert got.counters.as_dict() == want.counters.as_dict()
        assert got.observed_read_ns == want.observed_read_ns
        assert got.tier_read_ns == want.tier_read_ns
        assert got.rfo_ns == want.rfo_ns
        assert got.dram_latency_ns == want.dram_latency_ns
        assert got.slow_latency_ns == want.slow_latency_ns
        assert got.dram_gbps == want.dram_gbps
        assert got.slow_gbps == want.slow_gbps
        assert got.runtime_s == want.runtime_s


def relative_error(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


class TestReplayEquivalence:
    """Default mode replays the scalar arithmetic bit-for-bit."""

    def test_matches_looped_run_exactly(self, skx_machine):
        pairs = mixed_pairs()
        batch = skx_machine.run_batch(pairs)
        scalar = [skx_machine.run(w, p) for w, p in pairs]
        assert_bit_identical(batch, scalar)

    def test_single_pair(self, spr_machine):
        workload = get_workload("605.mcf")
        placement = Placement.interleaved(0.6, "cxl-a")
        batch = spr_machine.run_batch([(workload, placement)])
        assert_bit_identical(batch,
                             [spr_machine.run(workload, placement)])

    def test_all_identical_pairs(self, skx_machine):
        workload = get_workload("619.lbm")
        placement = Placement.slow_only("cxl-a")
        batch = skx_machine.run_batch([(workload, placement)] * 8)
        scalar = skx_machine.run(workload, placement)
        assert_bit_identical(batch, [scalar] * 8)

    def test_empty_batch(self, skx_machine):
        stats = {}
        assert skx_machine.run_batch([], stats=stats) == []
        assert stats["problems"] == 0

    def test_none_placement_means_dram_only(self, skx_machine):
        workload = get_workload("557.xz")
        batch = skx_machine.run_batch([(workload, None)])
        assert_bit_identical(batch, [skx_machine.run(workload)])

    def test_external_traffic_matches_scalar(self, skx_machine):
        workload = get_workload("603.bwaves").with_threads(10)
        placement = Placement.interleaved(0.5, "cxl-a")
        externals = [None, {"dram": 18.0, "cxl-a": 9.0}]
        batch = skx_machine.run_batch(
            [(workload, placement)] * 2, externals)
        scalar = [skx_machine.run(workload, placement, external)
                  for external in externals]
        assert_bit_identical(batch, scalar)
        assert batch[1].cycles > batch[0].cycles

    def test_external_traffic_must_align(self, skx_machine):
        with pytest.raises(ValueError):
            skx_machine.run_batch(mixed_pairs()[:3], [None])

    def test_mixed_converged_and_capped_lanes(self, skx_machine,
                                              monkeypatch):
        # At 50 outer iterations 557.xz settles (~37) while the
        # bandwidth-saturating bwaves lanes (~300) hit the cap: the
        # batch must reproduce the scalar solver's truncated iterates
        # and convergence flags exactly, not just the converged ones.
        monkeypatch.setattr(machine_mod, "_MAX_OUTER_ITERATIONS", 50)
        pairs = [(get_workload("603.bwaves").with_threads(10),
                  Placement.slow_only("cxl-a")),
                 (get_workload("557.xz"), Placement.dram_only()),
                 (get_workload("603.bwaves").with_threads(10),
                  Placement.interleaved(0.5, "cxl-a"))]
        stats = {}
        batch = skx_machine.run_batch(pairs, stats=stats)
        scalar = [skx_machine.run(w, p) for w, p in pairs]
        assert [r.converged for r in batch] == [False, True, False]
        assert stats["nonconverged"] == 2
        assert_bit_identical(batch, scalar)

    def test_stats_telemetry(self, skx_machine):
        stats = {}
        skx_machine.run_batch(mixed_pairs(), stats=stats)
        assert stats["mode"] == "replay"
        assert stats["problems"] == len(mixed_pairs())
        assert stats["outer_iterations"] > 0
        assert stats["nonconverged"] == 0
        assert stats["warm_seeded"] == 0

    def test_warm_cache_requires_accelerate(self, skx_machine):
        with pytest.raises(ValueError, match="accelerate"):
            skx_machine.run_batch(mixed_pairs()[:2],
                                  warm_cache=WarmStartCache())


class TestAcceleratedMode:
    """Anderson acceleration: same fixed point, far fewer iterations."""

    def test_within_documented_tolerance(self, skx_machine):
        pairs = mixed_pairs()
        batch = skx_machine.run_batch(pairs, accelerate=True)
        scalar = [skx_machine.run(w, p) for w, p in pairs]
        for got, want in zip(batch, scalar):
            assert got.converged
            assert relative_error(got.cycles, want.cycles) <= \
                ACCELERATED_RELATIVE_TOLERANCE
            assert relative_error(got.observed_read_ns,
                                  want.observed_read_ns) <= \
                ACCELERATED_RELATIVE_TOLERANCE

    def test_cuts_outer_iterations(self, skx_machine):
        pairs = sweep_pairs(points=21)
        replay_stats, accel_stats = {}, {}
        skx_machine.run_batch(pairs, stats=replay_stats)
        skx_machine.run_batch(pairs, accelerate=True, stats=accel_stats)
        assert accel_stats["mode"] == "accelerated"
        assert accel_stats["outer_iterations"] < \
            replay_stats["outer_iterations"] / 2

    def test_cap_exhaustion_falls_back_to_replay(self, skx_machine,
                                                 monkeypatch):
        # When the accelerated loop cannot settle a lane it re-solves
        # that lane under plain damping, so accelerated results are
        # never worse-converged than replay ones.
        monkeypatch.setattr(machine_mod, "_MAX_OUTER_ITERATIONS", 50)
        pairs = sweep_pairs(points=5)
        stats = {}
        batch = skx_machine.run_batch(pairs, accelerate=True,
                                      stats=stats)
        scalar = [skx_machine.run(w, p) for w, p in pairs]
        for got, want in zip(batch, scalar):
            if not got.converged:
                # Replayed lanes reproduce the scalar truncation.
                assert got.cycles == want.cycles
        assert stats["replay_resolves"] == stats["nonconverged"]


class TestWarmStart:
    """Warm starts reuse nearby fixed points along a sweep."""

    def test_warm_matches_cold_within_tolerance(self, skx_machine):
        pairs = sweep_pairs(points=21)
        cache = WarmStartCache()
        cold = skx_machine.run_batch(pairs, accelerate=True)
        skx_machine.run_batch(pairs, accelerate=True, warm_cache=cache)
        warm_stats = {}
        warm = skx_machine.run_batch(pairs, accelerate=True,
                                     warm_cache=cache, stats=warm_stats)
        assert warm_stats["warm_seeded"] == len(pairs)
        for got, want in zip(warm, cold):
            assert got.converged
            assert relative_error(got.cycles, want.cycles) <= \
                ACCELERATED_RELATIVE_TOLERANCE

    def test_warm_reduces_iterations(self, skx_machine):
        pairs = sweep_pairs(points=21)
        cache = WarmStartCache()
        cold_stats, warm_stats = {}, {}
        skx_machine.run_batch(pairs, accelerate=True, warm_cache=cache,
                              stats=cold_stats)
        skx_machine.run_batch(pairs, accelerate=True, warm_cache=cache,
                              stats=warm_stats)
        assert warm_stats["outer_iterations"] < \
            cold_stats["outer_iterations"]
        assert cache.seeds_served >= len(pairs)
        assert cache.points_recorded >= 1

    def test_cache_is_keyed_by_identity(self):
        # A point recorded on one machine identity must not seed a
        # different platform/seed: the lookup key includes both.
        cache = WarmStartCache()
        workload = get_workload("605.mcf")
        placement = Placement.slow_only("cxl-a")
        Machine(SKX2S, seed=1).run_batch(
            [(workload, placement)], accelerate=True, warm_cache=cache)
        stats = {}
        Machine(SPR2S, seed=2).run_batch(
            [(workload, placement)], accelerate=True, warm_cache=cache,
            stats=stats)
        assert stats["warm_seeded"] == 0


class TestWarmCacheEviction:
    """The cache is bounded: LRU eviction with a surfaced counter."""

    def record(self, cache, seed, x_req=0.5):
        cache.record(get_workload("605.mcf"),
                     Placement.slow_only("cxl-a"), "SKX2S", 0.0, seed,
                     x_req, (1.0 + seed,) * 6)

    def seed(self, cache, seed, x_req=0.5):
        return cache.seed(get_workload("605.mcf"),
                          Placement.slow_only("cxl-a"), "SKX2S", 0.0,
                          seed, x_req)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            WarmStartCache(capacity=0)

    def test_evicts_least_recently_used(self):
        cache = WarmStartCache(capacity=3)
        for seed in range(3):
            self.record(cache, seed)
        # Seeding from point 0 refreshes it, leaving 1 as the LRU.
        assert self.seed(cache, 0) is not None
        self.record(cache, 3)
        assert cache.points_recorded == 3
        assert cache.evictions == 1
        assert self.seed(cache, 1) is None      # evicted
        assert self.seed(cache, 0) is not None  # survived the refresh
        assert self.seed(cache, 3) is not None

    def test_same_share_replaces_in_place(self):
        cache = WarmStartCache(capacity=1)
        self.record(cache, 0, x_req=0.5)
        self.record(cache, 0, x_req=0.5)
        assert cache.points_recorded == 1
        assert cache.evictions == 0

    def test_export_import_preserves_lru_order(self):
        cache = WarmStartCache(capacity=4)
        for seed in range(4):
            self.record(cache, seed)
        clone = WarmStartCache(capacity=4)
        assert clone.import_points(cache.export_points()) == 4
        # The clone's next eviction removes the original LRU point.
        self.record(clone, 9)
        assert clone.evictions == 1
        assert self.seed(clone, 0) is None
        assert self.seed(clone, 1) is not None


class TestRunBatchMulti:
    """One masked batch across machine identities (docs/SOLVER.md)."""

    def platform_specs(self):
        specs = []
        for platform in (SKX2S, SPR2S, EMR2S):
            machine = Machine(platform)
            for workload, placement in mixed_pairs()[:5]:
                specs.append(RunSpec.from_machine(machine, workload,
                                                  placement))
        return specs

    def identity_specs(self):
        specs = []
        for noise, seed in ((0.0, 0), (0.0, 7), (0.02, 0), (0.02, 7)):
            machine = Machine(SKX2S, noise=noise, seed=seed)
            for workload, placement in mixed_pairs()[:3]:
                specs.append(RunSpec.from_machine(machine, workload,
                                                  placement))
        return specs

    def test_mixed_platform_replay_is_bit_identical(self):
        specs = self.platform_specs()
        batch = Machine.run_batch_multi(specs)
        scalar = [spec.machine().run(spec.workload, spec.placement)
                  for spec in specs]
        assert_bit_identical(batch, scalar)

    def test_mixed_noise_and_seed_replay_is_bit_identical(self):
        specs = self.identity_specs()
        batch = Machine.run_batch_multi(specs)
        scalar = [spec.machine().run(spec.workload, spec.placement)
                  for spec in specs]
        assert_bit_identical(batch, scalar)

    def test_results_carry_their_lane_platform(self):
        specs = self.platform_specs()
        batch = Machine.run_batch_multi(specs)
        assert [result.platform.name for result in batch] == \
            [spec.platform.name for spec in specs]

    def test_empty_specs(self):
        stats = {}
        assert Machine.run_batch_multi([], stats=stats) == []
        assert stats["problems"] == 0

    def test_warm_cache_requires_accelerate(self):
        with pytest.raises(ValueError, match="accelerate"):
            Machine.run_batch_multi(self.identity_specs()[:2],
                                    warm_cache=WarmStartCache())


class TestRunColocated:
    def test_joint_stats_surface_convergence(self, skx_machine):
        jobs = [(get_workload("605.mcf"), Placement.dram_only()),
                (get_workload("603.bwaves").with_threads(10),
                 Placement.slow_only("cxl-a"))]
        stats = {}
        results = skx_machine.run_colocated(jobs, stats=stats)
        assert len(results) == len(jobs)
        assert stats["joint_converged"] is True
        assert stats["joint_iterations"] > 0
        assert all(result.converged for result in results)

    def test_empty_jobs(self, skx_machine):
        stats = {}
        assert skx_machine.run_colocated([], stats=stats) == []
        assert stats["joint_converged"] is True


class TestRunColocatedGroups:
    """The pack-once grouped joint solver behind fleet tournaments."""

    def pairs(self):
        return [
            [(get_workload("605.mcf"),
              Placement.interleaved(0.6, "cxl-a")),
             (get_workload("xsbench"),
              Placement.interleaved(0.4, "cxl-a"))],
            [(get_workload("557.xz"),
              Placement.interleaved(0.7, "cxl-a")),
             (get_workload("603.bwaves").with_threads(10),
              Placement.slow_only("cxl-a"))],
        ]

    def test_matches_per_group_run_colocated(self, skx_machine):
        pairs = self.pairs()
        jobs = [job for pair in pairs for job in pair]
        groups = [[0, 1], [2, 3]]
        grouped = skx_machine.run_colocated_groups(jobs, groups,
                                                   tolerance=1e-7)
        cursor = 0
        for pair in pairs:
            solo = skx_machine.run_colocated(pair, tolerance=1e-7)
            for result in solo:
                joint = grouped[cursor]
                assert joint.cycles == pytest.approx(result.cycles,
                                                     rel=1e-4)
                cursor += 1

    def test_groups_are_isolated(self, skx_machine):
        # A group's traffic must not leak into another group even on
        # the same device: solving [A] and [B] together groupwise
        # equals solving each alone.
        pairs = self.pairs()
        jobs = [job for pair in pairs for job in pair]
        grouped = skx_machine.run_colocated_groups(jobs, [[0, 1],
                                                          [2, 3]])
        alone = skx_machine.run_colocated_groups(pairs[0], [[0, 1]])
        # Convergence is checked fleet-wide, so iteration counts can
        # differ slightly; true leakage would move cycles by percents.
        for joint, solo in zip(grouped[:2], alone):
            assert joint.cycles == pytest.approx(solo.cycles, rel=1e-6)

    def test_stats_shape(self, skx_machine):
        jobs = [job for pair in self.pairs() for job in pair]
        stats = {}
        results = skx_machine.run_colocated_groups(
            jobs, [[0, 1], [2, 3]], stats=stats)
        assert len(results) == len(jobs)
        assert stats["groups"] == 2
        assert stats["joint_converged"] is True
        assert stats["joint_iterations"] > 0
        assert stats["nonconverged"] == 0

    def test_rejects_overlapping_groups(self, skx_machine):
        jobs = [job for pair in self.pairs() for job in pair]
        with pytest.raises(ValueError):
            skx_machine.run_colocated_groups(jobs, [[0, 1], [1, 2, 3]])

    def test_rejects_incomplete_partition(self, skx_machine):
        jobs = [job for pair in self.pairs() for job in pair]
        with pytest.raises(ValueError):
            skx_machine.run_colocated_groups(jobs, [[0, 1]])

    def test_rejects_out_of_range_member(self, skx_machine):
        jobs = self.pairs()[0]
        with pytest.raises(ValueError):
            skx_machine.run_colocated_groups(jobs, [[0, 1, 7]])


class TestExecutorBatching:
    """The runtime's serial path groups specs through run_batch."""

    def sweep_specs(self, machine, points=MIN_BATCH_GROUP + 4):
        return [RunSpec.from_machine(machine, workload, placement)
                for workload, placement in sweep_pairs(points=points)]

    def test_batched_path_is_byte_identical(self, tmp_path):
        machine = Machine(SKX2S)
        specs = self.sweep_specs(machine)
        executor = Executor(jobs=1, store=ResultStore(tmp_path / "c"))
        results = executor.run(specs)
        assert executor.telemetry.counters.get("batched_solves") == 1
        scalar = [machine.run(spec.workload, spec.placement)
                  for spec in specs]
        assert_bit_identical(results, scalar)

    def test_small_groups_stay_scalar(self, tmp_path):
        machine = Machine(SKX2S)
        specs = self.sweep_specs(machine, points=5)
        executor = Executor(jobs=1, store=ResultStore(tmp_path / "c"))
        executor.run(specs)
        assert "batched_solves" not in executor.telemetry.counters

    def test_mixed_machines_solve_as_one_batch(self, tmp_path):
        # Lanes carry their own (platform, noise, seed), so distinct
        # machine identities no longer split the pending batch.
        specs = (self.sweep_specs(Machine(SKX2S)) +
                 self.sweep_specs(Machine(SKX2S, seed=7)))
        executor = Executor(jobs=1, store=ResultStore(tmp_path / "c"))
        results = executor.run(specs)
        assert executor.telemetry.counters.get("batched_solves") == 1
        assert len(results) == len(specs)
        scalar = [spec.machine().run(spec.workload, spec.placement)
                  for spec in specs]
        assert_bit_identical(results, scalar)

    def test_pool_chunks_match_serial_byte_for_byte(self, tmp_path):
        # The pool path must ship whole shard-batches to workers, not
        # fall back to scalar solves — and `-j N` must reproduce the
        # `-j 1` bytes exactly.
        specs = (self.sweep_specs(Machine(SKX2S)) +
                 self.sweep_specs(Machine(SPR2S, seed=3)))
        serial = Executor(jobs=1, store=ResultStore(tmp_path / "s"))
        pooled = Executor(jobs=2, store=ResultStore(tmp_path / "p"))
        serial_results = serial.run(specs)
        pooled_results = pooled.run(specs)
        assert pooled.telemetry.counters.get("pool_chunks", 0) >= 1
        assert_bit_identical(pooled_results, serial_results)

    def test_nonconverged_results_are_counted(self, tmp_path,
                                              monkeypatch):
        monkeypatch.setattr(machine_mod, "_MAX_OUTER_ITERATIONS", 20)
        machine = Machine(SKX2S)
        specs = self.sweep_specs(machine)
        executor = Executor(jobs=1, store=ResultStore(tmp_path / "c"))
        results = executor.run(specs)
        nonconverged = sum(1 for r in results if not r.converged)
        assert nonconverged > 0
        assert executor.telemetry.counters["nonconverged_results"] == \
            nonconverged
