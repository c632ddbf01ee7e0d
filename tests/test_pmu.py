"""Tests for the simulated PMU counter emission."""

import dataclasses

import numpy as np
import pytest

from repro.core.counters import Counter
from repro.runtime.spec import RunSpec
from repro.uarch import Machine, Placement, SKX2S, SPR2S, pmu
from repro.uarch.config import get_platform
from repro.uarch.core import BatchCycleBreakdown
from repro.uarch.prefetcher import BatchPrefetchFlow
from repro.workloads import WorkloadSpec
from repro.workloads.suites import evaluation_suite


def run(machine, workload, placement=None):
    return machine.run(workload, placement or Placement.dram_only())


class TestAggregation:
    def test_counters_aggregate_across_threads(self, pointer_workload):
        # Latency-bound workload: no cross-thread contention, so the
        # aggregate counts scale with threads and ratios stay put.
        machine = Machine(SKX2S, noise=0.0)
        single = run(machine, pointer_workload.with_threads(1))
        multi = run(machine, pointer_workload.with_threads(4))
        assert multi.counters.instructions == pytest.approx(
            4 * single.counters.instructions, rel=1e-6)
        assert multi.counters.ipc == pytest.approx(
            single.counters.ipc, rel=0.02)


class TestStallTaxonomy:
    def test_hierarchy(self, skx_machine, streaming_workload):
        sample = run(skx_machine, streaming_workload).counters
        assert sample["P1"] >= sample["P2"] >= sample["P3"] >= 0.0

    def test_cache_band_location_differs_by_family(
            self, streaming_workload):
        skx = Machine(SKX2S, noise=0.0)
        spr = Machine(SPR2S, noise=0.0)
        skx_sample = run(skx, streaming_workload).counters
        spr_sample = run(spr, streaming_workload).counters
        # SKX: prefetch stalls live in P1-P2; SPR: in P2-P3.
        skx_l1_band = skx_sample["P1"] - skx_sample["P2"]
        skx_l2_band = skx_sample["P2"] - skx_sample["P3"]
        spr_l1_band = spr_sample["P1"] - spr_sample["P2"]
        spr_l2_band = spr_sample["P2"] - spr_sample["P3"]
        assert skx_l1_band > skx_l2_band
        assert spr_l2_band > spr_l1_band


class TestFig5Mechanism:
    @pytest.fixture()
    def calm_streamer(self, streaming_workload):
        # Single-threaded: timeliness effects without saturating either
        # tier (a DRAM-saturated run is already fully late, so the
        # timely->LFB conversion has no room to show).
        return streaming_workload.with_threads(1)

    def test_cxl_converts_l1_hits_into_lfb_hits(self, skx_machine,
                                                calm_streamer):
        dram = run(skx_machine, calm_streamer).counters
        cxl = run(skx_machine, calm_streamer,
                  Placement.slow_only("cxl-a")).counters
        assert cxl[Counter.LFB_HIT] > dram[Counter.LFB_HIT]
        # Total L1 misses (P4 + P5) grow: timely prefetch hits lost.
        assert (cxl["P4"] + cxl["P5"]) > (dram["P4"] + dram["P5"])

    def test_l1_prefetch_l3_misses_grow_on_cxl(self, skx_machine,
                                               calm_streamer):
        dram = run(skx_machine, calm_streamer).counters
        cxl = run(skx_machine, calm_streamer,
                  Placement.slow_only("cxl-a")).counters
        dram_pf_miss = dram["P7"] - dram["P8"]
        cxl_pf_miss = cxl["P7"] - cxl["P8"]
        assert cxl_pf_miss > dram_pf_miss


class TestLittlesLawTriple:
    def test_latency_reflects_tier(self, skx_machine, pointer_workload):
        dram = run(skx_machine, pointer_workload).counters
        cxl = run(skx_machine, pointer_workload,
                  Placement.slow_only("cxl-a")).counters
        ratio = cxl.latency_cycles / dram.latency_cycles
        # Pointer chaser with few L3 hits: observed ratio approaches
        # the raw device ratio (214+nb absorption vs 90).
        assert 1.8 <= ratio <= 2.6

    def test_request_count_stable_across_tiers(self, skx_machine,
                                               pointer_workload):
        # Paper Fig. 4c: R_N ~= 1.
        dram = run(skx_machine, pointer_workload).counters
        cxl = run(skx_machine, pointer_workload,
                  Placement.slow_only("cxl-a")).counters
        r_n = cxl["P12"] / dram["P12"]
        assert r_n == pytest.approx(1.0, abs=0.05)

    def test_memory_active_below_cycles(self, skx_machine,
                                        streaming_workload):
        sample = run(skx_machine, streaming_workload).counters
        assert sample["P13"] <= sample.cycles * 1.02


class TestStoreCounter:
    def test_bound_on_stores_tracks_store_pressure(self, skx_machine,
                                                   store_workload,
                                                   compute_workload):
        heavy = run(skx_machine, store_workload).counters
        light = run(skx_machine, compute_workload).counters
        assert heavy["P6"] / heavy.cycles > 10 * (light["P6"] /
                                                  light.cycles)

    def test_sb_stalls_grow_on_cxl(self, skx_machine, store_workload):
        dram = run(skx_machine, store_workload).counters
        cxl = run(skx_machine, store_workload,
                  Placement.slow_only("cxl-a")).counters
        assert cxl["P6"] > 1.5 * dram["P6"]


class TestNoiseModel:
    def test_noise_magnitude(self, pointer_workload):
        clean = Machine(SKX2S, noise=0.0).run(pointer_workload).counters
        noisy = Machine(SKX2S, noise=0.01).run(pointer_workload).counters
        for counter in clean:
            if clean[counter] > 0:
                rel = abs(noisy[counter] / clean[counter] - 1.0)
                assert rel < 0.05  # 4-sigma clamp at 1% noise

    def test_noise_deterministic(self, pointer_workload):
        a = Machine(SKX2S, noise=0.01, seed=3).run(pointer_workload)
        b = Machine(SKX2S, noise=0.01, seed=3).run(pointer_workload)
        assert a.counters.as_dict() == b.counters.as_dict()


def population_results(noise=pmu.DEFAULT_NOISE, seeds=(3, 4, 5)):
    """Solved 1590-lane SKX/SPR/EMR population, one seed per platform."""
    members = list(evaluation_suite(seed=2026))
    machines = [Machine(get_platform(name), noise=noise, seed=seed)
                for name, seed in zip(("skx2s", "spr2s", "emr2s"), seeds)]
    pairs = [(machine, member, placement) for machine in machines
             for member in members
             for placement in (Placement.dram_only(),
                               Placement.slow_only("cxl-a"))]
    results = Machine.run_batch_multi([
        RunSpec.from_machine(machine, member, placement)
        for machine, member, placement in pairs])
    return [(machine, result) for (machine, _, _), result
            in zip(pairs, results)]


def columns(struct_cls, records):
    """Stack scalar records into a struct-of-arrays."""
    return struct_cls(**{
        f.name: np.asarray([getattr(record, f.name) for record in records])
        for f in dataclasses.fields(struct_cls)})


def emit_batch(lanes):
    """Columnar samples for (machine, result) lanes."""
    results = [result for _, result in lanes]
    return pmu.emit_counters_batch(
        [r.workload for r in results], [r.platform for r in results],
        [r.demand for r in results],
        columns(BatchPrefetchFlow, [r.prefetch for r in results]),
        columns(BatchCycleBreakdown, [r.breakdown for r in results]),
        [r.placement.describe() for r in results],
        [machine.noise for machine, _ in lanes],
        [machine.seed for machine, _ in lanes])


def emit_both(lanes):
    """(columnar, scalar) samples for (machine, result) lanes."""
    scalar = [pmu.emit_counters(r.workload, r.platform, r.demand,
                                r.prefetch, r.breakdown,
                                r.placement.describe(),
                                noise=machine.noise, seed=machine.seed)
              for machine, r in lanes]
    return emit_batch(lanes), scalar


def bits(sample):
    return [(counter, value.hex()) for counter, value in sample.items()]


class TestColumnarEmission:
    """emit_counters_batch is bit-identical to scalar emit_counters."""

    @pytest.fixture(scope="class")
    def noisy(self):
        return population_results()

    @pytest.fixture(scope="class")
    def clean(self):
        return population_results(noise=0.0)

    def test_full_population_width(self, noisy):
        assert len(noisy) == 1590
        families = {result.platform.family for _, result in noisy}
        assert families == {"skx", "spr", "emr"}
        batch, scalar = emit_both(noisy)
        assert [bits(s) for s in batch] == [bits(s) for s in scalar]

    def test_noise_zero(self, clean):
        batch, scalar = emit_both(clean)
        assert [bits(s) for s in batch] == [bits(s) for s in scalar]

    @pytest.mark.parametrize("lane", [0, 1, 531, 1060, 1589])
    def test_width_one(self, noisy, clean, lane):
        for lanes in (noisy, clean):
            batch, scalar = emit_both(lanes[lane:lane + 1])
            assert bits(batch[0]) == bits(scalar[0])

    def test_mixed_platforms_noises_and_seeds_in_one_batch(
            self, noisy, clean):
        # Interleave SKX and SPR/EMR lanes at both noise levels; the
        # three platforms carry three different seeds.
        lanes = noisy[::97] + clean[50::113]
        batch, scalar = emit_both(lanes)
        assert [bits(s) for s in batch] == [bits(s) for s in scalar]

    def test_machine_emission_equals_scalar_run(self, noisy):
        # The population was solved by run_batch_multi (columnar).
        for machine, result in noisy[::151]:
            direct = machine.run(result.workload, result.placement)
            assert bits(result.counters) == bits(direct.counters)
            assert result == direct

    def test_noise_memo_draws_each_row_once(self, monkeypatch):
        # One seed on all three platforms: the platform is not part of
        # a draw's key, so 1590 lanes need 265 x 2 x 21 draws, not
        # 1590 x 21.
        lanes = population_results(seeds=(9, 9, 9))
        draws = {}
        real = pmu._noise_factor

        def counting(sigma, *parts):
            value = real(sigma, *parts)
            draws.setdefault((sigma,) + parts, []).append(value)
            return value

        monkeypatch.setattr(pmu, "_noise_factor", counting)
        batch = emit_batch(lanes)
        assert len(draws) == 265 * 2 * 21 == 11130
        assert all(len(values) == 1 for values in draws.values())
        for key, (value,) in draws.items():
            assert value.hex() == real(*key).hex()
        monkeypatch.undo()
        _, scalar = emit_both(lanes)
        assert [bits(s) for s in batch] == [bits(s) for s in scalar]

    def test_invalid_counts_raise_the_scalar_error(self, noisy):
        machine, result = noisy[0]
        bad = dataclasses.replace(result.breakdown, cycles=float("nan"))
        with pytest.raises(ValueError, match="non-finite count"):
            pmu.emit_counters(result.workload, result.platform,
                              result.demand, result.prefetch, bad, "dram",
                              noise=machine.noise, seed=machine.seed)
        with pytest.raises(ValueError, match="non-finite count"):
            pmu.emit_counters_batch(
                [result.workload], [result.platform], [result.demand],
                columns(BatchPrefetchFlow, [result.prefetch]),
                columns(BatchCycleBreakdown, [bad]), ["dram"],
                [machine.noise], [machine.seed])
