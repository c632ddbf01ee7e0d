"""Analytic out-of-order core model: cycle accounting at fixed latency.

Given a workload, a platform, and the (already-solved) memory latencies,
this module computes the run's cycle breakdown: base execution cycles
plus the three orthogonal memory stall components the paper decomposes
slowdown into (Fig. 2):

- ``s_llc``     - demand-read stalls: the exposed share of memory-active
                  cycles, where memory-active cycles follow Little's law
                  ``C = N * L / MLP`` (paper Eq. 3);
- ``s_cache``   - cache/prefetch stalls: residual waits on late
                  prefetches plus LFB-contention stalls (section 4.2);
- ``s_sb``      - store stalls: SB-full backpressure (section 4.3).

The accounting is self-referential (SB occupancy and prefetch in-flight
counts depend on total cycles, which depend on the stalls), so
:func:`account_cycles` runs a damped inner fixed point; it converges in
a few tens of iterations for every workload in the suites.

Ground-truth-only effects
-------------------------
Two correction terms reduce *actual* stall exposure at high latency in
ways DRAM profiling cannot reveal - they reproduce the paper's
overestimation classes (section 4.4.4):

- burst hiding: workloads with bursty MLP (AI) overlap more latency than
  their average MLP suggests;
- hyper-parallel overlap: at very high MLP the core's overlap scales
  non-linearly (pr-kron).

Both scale with *excess* latency over the local-DRAM reference, so they
vanish on DRAM and silently improve CXL runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..workloads.spec import WorkloadSpec
from .buffers import (effective_mlp, effective_mlp_batch,
                      lfb_contention_stalls, lfb_contention_stalls_batch,
                      lfb_occupancy, lfb_occupancy_batch,
                      store_backpressure_stalls,
                      store_backpressure_stalls_batch)
from .caches import DemandProfile
from .config import PlatformConfig
from .prefetcher import BatchPrefetchFlow, PrefetchProfile

#: Exposure reduction per unit burstiness at saturated excess latency.
BURST_HIDE_GAIN = 0.35
#: Exposure reduction for hyper-parallel workloads (MLP >> typical).
HYPER_MLP_GAIN = 0.25
#: MLP where the hyper-parallel correction starts / saturates.
HYPER_MLP_START = 8.0
HYPER_MLP_SPAN = 8.0
#: Latency scale (ns) for the ground-truth-only corrections.
CORRECTION_SCALE_NS = 300.0
#: Prefetch-wait exposure relative to demand-stall exposure.
PF_EXPOSURE_FACTOR = 0.85

#: Load-to-use latency of an L2 hit (cycles) and the concurrency over
#: which L2/L3-hit short stalls overlap.  These drive the
#: latency-insensitive stall mass in the cache counter bands.
L2_HIT_LATENCY_CYCLES = 14.0
SHORT_STALL_OVERLAP = 3.0

_MAX_ITERATIONS = 200
_RELATIVE_TOLERANCE = 1e-10
_DAMPING = 0.6


@dataclass(frozen=True)
class LatencyContext:
    """The memory latencies one accounting pass runs under.

    ``observed_read_ns`` is what demand reads experience on average -
    the blended tier latency after near-buffer absorption (this is what
    the PMU's offcore-outstanding counters integrate).
    ``tier_read_ns`` is the raw blended backend latency - what prefetch
    timeliness is measured against (prefetches miss the near buffers).
    ``rfo_ns`` is the blended store-ownership latency.
    ``reference_idle_ns`` anchors the ground-truth-only corrections and
    MLP growth: the platform's idle local-DRAM latency.
    """

    observed_read_ns: float
    tier_read_ns: float
    rfo_ns: float
    reference_idle_ns: float

    def __post_init__(self):
        for name in ("observed_read_ns", "tier_read_ns", "rfo_ns",
                     "reference_idle_ns"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class CycleBreakdown:
    """Per-core cycle accounting for one run."""

    #: Total per-core cycles (the model's ``c``).
    cycles: float
    #: Cycles with a perfect memory system.
    base_cycles: float
    #: Demand-read stall cycles (exposed), the ground truth behind P3.
    s_llc: float
    #: Cache/prefetch stall cycles: late-prefetch waits + LFB contention.
    #: This is the latency-*sensitive* part that grows on slow tiers.
    s_cache: float
    #: Latency-insensitive short stalls on L2-hit demand loads.  They
    #: appear inside the L1-miss stall counter band but do not change
    #: across memory tiers - the dilution that forces CAMP to weight
    #: cache stalls by R_LFB-hit x R_Mem (Eq. 6).
    s_l2_hit: float
    #: Latency-insensitive stalls on L3-hit demand loads (the L2-miss
    #: stall counter band's insensitive mass).
    s_l3_hit: float
    #: Store Buffer backpressure stall cycles (ground truth behind P6).
    s_sb: float
    #: Memory-active cycles C (>=1 outstanding demand read), behind P13.
    memory_active: float
    #: Sustained demand-read MLP.
    mlp_effective: float
    #: Mean LFB entries held by L1-prefetch in-flight requests.
    pf_l1_inflight: float
    #: Effective exposed-stall fraction after ground-truth corrections.
    exposure_effective: float
    #: Whether the inner fixed point converged.
    converged: bool

    @property
    def memory_stalls(self) -> float:
        return (self.s_llc + self.s_cache + self.s_sb +
                self.s_l2_hit + self.s_l3_hit)

    @property
    def cpi(self) -> float:
        return self.cycles  # callers divide by per-core instructions


def _saturating(excess_ns: float, scale_ns: float) -> float:
    if excess_ns <= 0:
        return 0.0
    # np.exp, not math.exp: the batched solver must replay this
    # bit-for-bit and the two libms differ in the last ulp.
    return 1.0 - float(np.exp(-excess_ns / scale_ns))


def exposure_corrections(spec: WorkloadSpec, mlp_eff: float,
                         observed_read_ns: float,
                         reference_idle_ns: float) -> float:
    """Ground-truth multiplier (<= 1) on stall exposure at high latency."""
    sat = _saturating(observed_read_ns - reference_idle_ns,
                      CORRECTION_SCALE_NS)
    if sat <= 0:
        return 1.0
    burst = BURST_HIDE_GAIN * spec.burstiness * sat
    hyper_level = min(1.0, max(0.0, (mlp_eff - HYPER_MLP_START) /
                               HYPER_MLP_SPAN))
    hyper = HYPER_MLP_GAIN * hyper_level * sat
    return max(0.1, 1.0 - burst - hyper)


def prefetch_overlap(mlp_eff: float, platform: PlatformConfig) -> float:
    """Concurrency across which late-prefetch waits overlap.

    Prefetch streams are more parallel than demand streams (they are
    generated ahead of use), bounded by the SuperQueue.
    """
    return min(float(platform.sq_entries), max(2.0, 1.2 * mlp_eff))


def account_cycles(spec: WorkloadSpec, platform: PlatformConfig,
                   demand: DemandProfile, prefetch: PrefetchProfile,
                   latency_ctx: LatencyContext) -> CycleBreakdown:
    """Solve the per-core cycle breakdown at fixed memory latencies."""
    threads = spec.threads
    instructions_per_core = spec.instructions / threads
    base_cycles = instructions_per_core * spec.base_cpi

    demand_reads_pc = prefetch.demand_mem_reads / threads
    covered_pc = prefetch.covered / threads
    pf_l1_mem_pc = prefetch.pf_l1_mem / threads
    store_rfos_pc = demand.store_mem_rfos / threads

    obs_cyc = platform.ns_to_cycles(latency_ctx.observed_read_ns)
    tier_cyc = platform.ns_to_cycles(latency_ctx.tier_read_ns)
    rfo_cyc = platform.ns_to_cycles(latency_ctx.rfo_ns)
    wait_cyc = platform.ns_to_cycles(prefetch.late_wait_ns)

    # Latency-insensitive short stalls: demand loads that hit in L2 or
    # L3 stall the pipeline briefly regardless of the memory tier.
    # Prefetchers cover the L3-hit stream as readily as the memory
    # stream (those prefetches are always timely), so only the
    # uncovered fraction stalls as demand.
    llc_cyc = platform.ns_to_cycles(platform.llc_latency_ns)
    l2_hits_pc = (demand.l1_miss_issued * spec.l2_hit) / threads
    l3_hits_pc = (demand.l2_misses * demand.l3_hit_rate *
                  (1.0 - spec.pf_friend)) / threads
    s_l2_hit = (l2_hits_pc * L2_HIT_LATENCY_CYCLES *
                spec.stall_exposure / SHORT_STALL_OVERLAP)
    s_l3_hit = (l3_hits_pc * llc_cyc *
                spec.stall_exposure / SHORT_STALL_OVERLAP)

    cycles = base_cycles + demand_reads_pc * obs_cyc / max(1.0, spec.mlp)
    mlp_eff = spec.mlp
    pf_inflight = 0.0
    memory_active = 0.0
    s_llc = s_cache = s_sb = 0.0
    exposure_eff = spec.stall_exposure
    converged = False

    for _ in range(_MAX_ITERATIONS):
        pf_inflight = pf_l1_mem_pc * tier_cyc / max(cycles, 1.0)
        mlp_eff = effective_mlp(spec, platform, latency_ctx.observed_read_ns,
                                latency_ctx.reference_idle_ns, pf_inflight)
        memory_active = demand_reads_pc * obs_cyc / mlp_eff
        exposure_eff = spec.stall_exposure * exposure_corrections(
            spec, mlp_eff, latency_ctx.observed_read_ns,
            latency_ctx.reference_idle_ns)
        s_llc = memory_active * exposure_eff

        pf_overlap = prefetch_overlap(mlp_eff, platform)
        pf_exposure = spec.stall_exposure * PF_EXPOSURE_FACTOR
        # Late-prefetch waits only surface when prefetched lines dominate
        # the memory stream; sparse late prefetches hide under the full
        # demand-miss stalls surrounding them (a residual wait is always
        # shorter than the neighbouring demand stall it overlaps).
        total_mem = covered_pc + demand_reads_pc
        pf_dominance = covered_pc / total_mem if total_mem > 0 else 0.0
        late_stalls = (covered_pc * wait_cyc * pf_exposure *
                       pf_dominance / pf_overlap)
        occupancy = lfb_occupancy(mlp_eff, pf_inflight)
        contention = lfb_contention_stalls(occupancy, platform,
                                           memory_active)
        s_cache = late_stalls + contention

        s_sb = store_backpressure_stalls(spec, platform, store_rfos_pc,
                                         rfo_cyc, cycles)

        new_cycles = (base_cycles + s_llc + s_cache + s_sb +
                      s_l2_hit + s_l3_hit)
        if abs(new_cycles - cycles) <= _RELATIVE_TOLERANCE * cycles:
            cycles = new_cycles
            converged = True
            break
        cycles = _DAMPING * new_cycles + (1.0 - _DAMPING) * cycles

    return CycleBreakdown(
        cycles=cycles,
        base_cycles=base_cycles,
        s_llc=s_llc,
        s_cache=s_cache,
        s_l2_hit=s_l2_hit,
        s_l3_hit=s_l3_hit,
        s_sb=s_sb,
        memory_active=memory_active,
        mlp_effective=mlp_eff,
        pf_l1_inflight=pf_inflight,
        exposure_effective=exposure_eff,
        converged=converged,
    )


# --------------------------------------------------------------------------
# Batched cycle accounting (docs/SOLVER.md)
#
# The same damped inner fixed point as `account_cycles`, evaluated for N
# (workload, placement) problems as numpy arrays with per-element
# convergence masking.  Each lane performs the identical arithmetic in
# the identical order as a scalar call, so a batch lane's doubles are
# bit-equal to the scalar result - `Machine.run_batch`'s replay
# contract rests on this.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchLatencyContext:
    """Struct-of-arrays :class:`LatencyContext` for N problems."""

    observed_read_ns: np.ndarray
    tier_read_ns: np.ndarray
    rfo_ns: np.ndarray
    reference_idle_ns: np.ndarray

    def __post_init__(self):
        for name in ("observed_read_ns", "tier_read_ns", "rfo_ns",
                     "reference_idle_ns"):
            if bool(np.any(getattr(self, name) <= 0)):
                raise ValueError(f"{name} must be positive in every lane")


@dataclass(frozen=True)
class BatchCoreParams:
    """Per-element workload/platform/demand constants for the batch loop.

    Everything the inner fixed point consumes that does *not* change
    across outer-solver iterations, flattened to float64 arrays.
    """

    # Workload spec fields.
    threads: np.ndarray
    instructions: np.ndarray
    base_cpi: np.ndarray
    mlp: np.ndarray
    mlp_headroom: np.ndarray
    stall_exposure: np.ndarray
    burstiness: np.ndarray
    store_burst: np.ndarray
    pf_friend: np.ndarray
    l2_hit: np.ndarray
    # Platform fields.
    lfb_entries: np.ndarray
    sq_entries: np.ndarray
    sb_entries: np.ndarray
    sb_drain_parallelism: np.ndarray
    frequency_ghz: np.ndarray
    llc_latency_ns: np.ndarray
    # Demand-profile fields.
    l1_miss_issued: np.ndarray
    l2_misses: np.ndarray
    l3_hit_rate: np.ndarray
    store_mem_rfos: np.ndarray

    @classmethod
    def from_problems(cls, specs, platform, demands) -> "BatchCoreParams":
        """``platform`` is one :class:`PlatformConfig` shared by every
        lane, or a per-lane sequence of them (cross-machine batches,
        docs/SOLVER.md).  A uniform per-lane sequence packs the exact
        arrays ``np.full`` would — the same float in every slot — so
        single-platform batches are unchanged bit for bit.
        """
        def lanes(values) -> np.ndarray:
            return np.asarray(list(values), dtype=np.float64)

        if isinstance(platform, PlatformConfig):
            platforms = [platform] * len(specs)
        else:
            platforms = list(platform)
            if len(platforms) != len(specs):
                raise ValueError("per-lane platforms must align with specs")
        return cls(
            threads=lanes(s.threads for s in specs),
            instructions=lanes(s.instructions for s in specs),
            base_cpi=lanes(s.base_cpi for s in specs),
            mlp=lanes(s.mlp for s in specs),
            mlp_headroom=lanes(s.mlp_headroom for s in specs),
            stall_exposure=lanes(s.stall_exposure for s in specs),
            burstiness=lanes(s.burstiness for s in specs),
            store_burst=lanes(s.store_burst for s in specs),
            pf_friend=lanes(s.pf_friend for s in specs),
            l2_hit=lanes(s.l2_hit for s in specs),
            lfb_entries=lanes(float(p.lfb_entries) for p in platforms),
            sq_entries=lanes(float(p.sq_entries) for p in platforms),
            sb_entries=lanes(float(p.sb_entries) for p in platforms),
            sb_drain_parallelism=lanes(
                float(p.sb_drain_parallelism) for p in platforms),
            frequency_ghz=lanes(
                float(p.frequency_ghz) for p in platforms),
            llc_latency_ns=lanes(
                float(p.llc_latency_ns) for p in platforms),
            l1_miss_issued=lanes(d.l1_miss_issued for d in demands),
            l2_misses=lanes(d.l2_misses for d in demands),
            l3_hit_rate=lanes(d.l3_hit_rate for d in demands),
            store_mem_rfos=lanes(d.store_mem_rfos for d in demands),
        )


@dataclass(frozen=True)
class BatchCycleBreakdown:
    """Struct-of-arrays :class:`CycleBreakdown`; ``converged`` is a
    per-element boolean mask."""

    cycles: np.ndarray
    base_cycles: np.ndarray
    s_llc: np.ndarray
    s_cache: np.ndarray
    s_l2_hit: np.ndarray
    s_l3_hit: np.ndarray
    s_sb: np.ndarray
    memory_active: np.ndarray
    mlp_effective: np.ndarray
    pf_l1_inflight: np.ndarray
    exposure_effective: np.ndarray
    converged: np.ndarray


def exposure_corrections_batch(burstiness: np.ndarray, mlp_eff: np.ndarray,
                               observed_read_ns: np.ndarray,
                               reference_idle_ns: np.ndarray) -> np.ndarray:
    """Vectorized :func:`exposure_corrections` (via :func:`_saturating`)."""
    excess = observed_read_ns - reference_idle_ns
    sat = np.where(excess <= 0, 0.0,
                   1.0 - np.exp(-excess / CORRECTION_SCALE_NS))
    burst = BURST_HIDE_GAIN * burstiness * sat
    hyper_level = np.minimum(1.0, np.maximum(
        0.0, (mlp_eff - HYPER_MLP_START) / HYPER_MLP_SPAN))
    hyper = HYPER_MLP_GAIN * hyper_level * sat
    corrected = np.maximum(0.1, 1.0 - burst - hyper)
    return np.where(sat <= 0, 1.0, corrected)


def account_cycles_batch(params: BatchCoreParams, flow: BatchPrefetchFlow,
                         latency_ctx: BatchLatencyContext
                         ) -> BatchCycleBreakdown:
    """Solve N per-core cycle breakdowns at fixed memory latencies.

    One damped loop over all lanes; lanes freeze individually the
    iteration they meet the scalar solver's convergence criterion, so
    every retained term carries exactly the doubles the scalar
    `account_cycles` would have produced for that problem.
    """
    threads = params.threads
    instructions_per_core = params.instructions / threads
    base_cycles = instructions_per_core * params.base_cpi

    demand_reads_pc = flow.demand_mem_reads / threads
    covered_pc = flow.covered / threads
    pf_l1_mem_pc = flow.pf_l1_mem / threads
    store_rfos_pc = params.store_mem_rfos / threads

    frequency_ghz = params.frequency_ghz
    obs_cyc = latency_ctx.observed_read_ns * frequency_ghz
    tier_cyc = latency_ctx.tier_read_ns * frequency_ghz
    rfo_cyc = latency_ctx.rfo_ns * frequency_ghz
    wait_cyc = flow.late_wait_ns * frequency_ghz

    llc_cyc = params.llc_latency_ns * frequency_ghz
    l2_hits_pc = (params.l1_miss_issued * params.l2_hit) / threads
    l3_hits_pc = (params.l2_misses * params.l3_hit_rate *
                  (1.0 - params.pf_friend)) / threads
    s_l2_hit = (l2_hits_pc * L2_HIT_LATENCY_CYCLES *
                params.stall_exposure / SHORT_STALL_OVERLAP)
    s_l3_hit = (l3_hits_pc * llc_cyc *
                params.stall_exposure / SHORT_STALL_OVERLAP)

    cycles = base_cycles + demand_reads_pc * obs_cyc / np.maximum(
        1.0, params.mlp)
    mlp_eff = params.mlp.copy()
    pf_inflight = np.zeros_like(cycles)
    memory_active = np.zeros_like(cycles)
    s_llc = np.zeros_like(cycles)
    s_cache = np.zeros_like(cycles)
    s_sb = np.zeros_like(cycles)
    exposure_eff = params.stall_exposure.copy()
    converged = np.zeros(cycles.shape, dtype=bool)
    active = np.ones(cycles.shape, dtype=bool)

    # Loop-invariant pieces the scalar loop recomputes verbatim each
    # iteration (identical doubles either way).
    pf_exposure = params.stall_exposure * PF_EXPOSURE_FACTOR
    total_mem = covered_pc + demand_reads_pc
    safe_total_mem = np.where(total_mem > 0, total_mem, 1.0)
    pf_dominance = np.where(total_mem > 0, covered_pc / safe_total_mem, 0.0)

    for _ in range(_MAX_ITERATIONS):
        pf_inflight_it = pf_l1_mem_pc * tier_cyc / np.maximum(cycles, 1.0)
        mlp_eff_it = effective_mlp_batch(
            params.mlp, params.mlp_headroom, params.lfb_entries,
            latency_ctx.observed_read_ns, latency_ctx.reference_idle_ns,
            pf_inflight_it)
        memory_active_it = demand_reads_pc * obs_cyc / mlp_eff_it
        exposure_it = params.stall_exposure * exposure_corrections_batch(
            params.burstiness, mlp_eff_it, latency_ctx.observed_read_ns,
            latency_ctx.reference_idle_ns)
        s_llc_it = memory_active_it * exposure_it

        pf_overlap = np.minimum(params.sq_entries,
                                np.maximum(2.0, 1.2 * mlp_eff_it))
        late_stalls = (covered_pc * wait_cyc * pf_exposure *
                       pf_dominance / pf_overlap)
        occupancy = lfb_occupancy_batch(mlp_eff_it, pf_inflight_it)
        contention = lfb_contention_stalls_batch(
            occupancy, params.lfb_entries, memory_active_it)
        s_cache_it = late_stalls + contention

        s_sb_it = store_backpressure_stalls_batch(
            params.store_burst, params.sb_entries,
            params.sb_drain_parallelism, store_rfos_pc, rfo_cyc, cycles)

        new_cycles = (base_cycles + s_llc_it + s_cache_it + s_sb_it +
                      s_l2_hit + s_l3_hit)
        conv_now = active & (np.abs(new_cycles - cycles) <=
                             _RELATIVE_TOLERANCE * cycles)

        # Lanes still iterating (including those converging right now)
        # retain this iteration's terms - exactly what the scalar loop
        # leaves behind when it breaks or exhausts the cap.
        pf_inflight = np.where(active, pf_inflight_it, pf_inflight)
        mlp_eff = np.where(active, mlp_eff_it, mlp_eff)
        memory_active = np.where(active, memory_active_it, memory_active)
        exposure_eff = np.where(active, exposure_it, exposure_eff)
        s_llc = np.where(active, s_llc_it, s_llc)
        s_cache = np.where(active, s_cache_it, s_cache)
        s_sb = np.where(active, s_sb_it, s_sb)

        damped = _DAMPING * new_cycles + (1.0 - _DAMPING) * cycles
        still_active = active & ~conv_now
        cycles = np.where(conv_now, new_cycles,
                          np.where(still_active, damped, cycles))
        converged = converged | conv_now
        active = still_active
        if not bool(active.any()):
            break

    return BatchCycleBreakdown(
        cycles=cycles,
        base_cycles=base_cycles,
        s_llc=s_llc,
        s_cache=s_cache,
        s_l2_hit=s_l2_hit,
        s_l3_hit=s_l3_hit,
        s_sb=s_sb,
        memory_active=memory_active,
        mlp_effective=mlp_eff,
        pf_l1_inflight=pf_inflight,
        exposure_effective=exposure_eff,
        converged=converged,
    )
