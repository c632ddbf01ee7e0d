"""Simulated Performance Monitoring Unit.

Maps the machine model's internal cycle accounting onto the Table 5
counters (:class:`repro.core.counters.Counter`), producing the
:class:`~repro.core.counters.CounterSample` that CAMP consumes - the
same interface a Linux-perf wrapper provides on real hardware.

Counters are reported *aggregated across the workload's threads* (the
``perf stat`` default).  Per-cycle quantities (CYCLES, stall cycles,
occupancy integrals) therefore sum over cores too; every CAMP model
works on ratios, so the convention only needs to be consistent - and
aggregate counts are what bandwidth-style metrics need.

Measurement noise
-----------------
Real counter reads jitter run to run.  :func:`emit_counters` applies a
small deterministic multiplicative perturbation to every counter, seeded
by (workload, tier, counter): repeatable experiments, but no artificial
exactness for the prediction models to exploit.
"""

from __future__ import annotations

import hashlib
import math
from types import SimpleNamespace
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from ..core.counters import Counter, CounterSample
from ..workloads.spec import WorkloadSpec
from .caches import DemandProfile
from .config import PlatformConfig
from .core import BatchCycleBreakdown, CycleBreakdown
from .prefetcher import BatchPrefetchFlow, PrefetchProfile

#: Default relative noise (sigma) applied to each counter.
DEFAULT_NOISE = 0.004

#: The counter registry: every id this PMU can emit - the paper's
#: ``P1``..``P17`` plus the architectural/bandwidth ids.  camp-lint's
#: PMU01 rule resolves every ``P<n>`` reference in source and docs
#: against this set, so a phantom or retired counter can never be
#: mentioned anywhere the predictor or a reader would trust it.
KNOWN_COUNTER_IDS: FrozenSet[str] = frozenset(
    counter.value for counter in Counter)


def known_counter_ids() -> FrozenSet[str]:
    """The ids the simulated PMU can emit (PMU01's source of truth)."""
    return KNOWN_COUNTER_IDS

#: Fraction of cache stalls that leak into the next-lower stall counter
#: (counter taxonomies on real PMUs are never perfectly clean).
_STALL_LEAK = 0.05

#: Cycles of short-stall exposure per L1-miss-to-L2-hit access, modelling
#: the small L1-level stall component that exists on every platform.
_L1_LEVEL_STALL_CYCLES = 1.2

#: The counters every sample carries, in emission order.
EMITTED_COUNTERS: Tuple[Counter, ...] = (
    Counter.CYCLES, Counter.UNC_CAS_RD, Counter.UNC_CAS_WR,
    Counter.INSTRUCTIONS, Counter.STALLS_L1D_MISS, Counter.STALLS_L2_MISS,
    Counter.STALLS_L3_MISS, Counter.L1_MISS, Counter.LFB_HIT,
    Counter.BOUND_ON_STORES, Counter.PF_L1D_ANY_RESPONSE,
    Counter.PF_L1D_L3_HIT, Counter.PF_L2_ANY_RESPONSE, Counter.PF_L2_L3_HIT,
    Counter.ORO_DEMAND_RD, Counter.OR_DEMAND_RD,
    Counter.ORO_CYC_W_DEMAND_RD, Counter.LLC_LOOKUP_PF_RD,
    Counter.LLC_LOOKUP_ALL, Counter.TOR_INS_IA_PREF,
    Counter.TOR_INS_IA_HIT_PREF)
_EMITTED_IDS = tuple(counter.value for counter in EMITTED_COUNTERS)


def _noise_factor(sigma: float, *key_parts: str) -> float:
    """Deterministic ~N(1, sigma) multiplicative factor from a key."""
    if sigma <= 0:
        return 1.0
    digest = hashlib.sha256("|".join(key_parts).encode()).digest()
    u1 = max(int.from_bytes(digest[0:8], "big") / float(1 << 64), 1e-12)
    u2 = int.from_bytes(digest[8:16], "big") / float(1 << 64)
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    # Clamp at 4 sigma: counters never go negative from jitter.
    z = max(-4.0, min(4.0, z))
    return max(0.0, 1.0 + sigma * z)


def emit_counters(spec: WorkloadSpec, platform: PlatformConfig,
                  demand: DemandProfile, prefetch: PrefetchProfile,
                  breakdown: CycleBreakdown, tier_label: str,
                  noise: float = DEFAULT_NOISE,
                  seed: int = 0) -> CounterSample:
    """Render one run's internals as a per-core Table 5 counter sample."""
    threads = spec.threads
    raw = _raw_counters(
        spec, platform.family == "skx",
        platform.ns_to_cycles(platform.llc_latency_ns), demand, prefetch,
        breakdown, maximum=max,
        select=lambda skx, yes, no: yes if skx else no)
    noisy = {
        counter: value * threads * _noise_factor(
            noise, spec.name, tier_label, counter_id, str(seed))
        for counter, counter_id, value in zip(EMITTED_COUNTERS,
                                              _EMITTED_IDS, raw)
    }
    return CounterSample(noisy)


def emit_counters_batch(workloads: Sequence[WorkloadSpec],
                        platforms: Sequence[PlatformConfig],
                        demands: Sequence[DemandProfile],
                        flow: BatchPrefetchFlow,
                        breakdown: BatchCycleBreakdown,
                        tier_labels: Sequence[str],
                        noises: Sequence[float],
                        seeds: Sequence[int]) -> List[CounterSample]:
    """:func:`emit_counters` for N lanes of solved batch columns.

    Bit-identical to N scalar calls: the counter arithmetic is the same
    kernel (:func:`_raw_counters`) applied to float64 columns, and IEEE
    ``+ - * /`` give the same bits element-wise as on Python floats;
    Python's ``max`` and the SKX-vs-SPR/EMR branch become ``np.where``
    with the same tie and NaN behaviour.  Noise factors are memoized
    for this call only: one lane's 21 draws depend on (noise, workload,
    tier label, seed) and not on the platform or solved state, so a
    three-platform population draws each row once.  The draws stay
    scalar ``math.log``/``math.cos``, whose bits numpy does not promise
    to reproduce.  Counters are validated once per array instead of
    per value.
    """
    count = len(workloads)

    def column(values) -> np.ndarray:
        return np.fromiter(values, dtype=np.float64, count=count)

    lanes = SimpleNamespace(
        threads=column(w.threads for w in workloads),
        instructions=column(w.instructions for w in workloads),
        pf_l1_share=column(w.pf_l1_share for w in workloads),
        stall_exposure=column(w.stall_exposure for w in workloads),
        pf_friend=column(w.pf_friend for w in workloads))
    demand = SimpleNamespace(**{
        name: column(getattr(d, name) for d in demands)
        for name in ("lfb_hits", "l1_miss_issued", "l2_misses",
                     "l3_hit_rate", "store_mem_rfos")})
    skx = np.fromiter((p.family == "skx" for p in platforms), dtype=bool,
                      count=count)
    llc_cycles = column(p.ns_to_cycles(p.llc_latency_ns)
                        for p in platforms)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.stack(_raw_counters(
            lanes, skx, llc_cycles, demand, flow, breakdown,
            maximum=lambda a, b: np.where(b > a, b, a),
            select=np.where), axis=1)

    # A factor is a function of sigma's value and the joined key
    # string, so equal noise levels may share a row (unlike cache-key
    # fragments, whose JSON text tells 1 from 1.0).
    rows: Dict[Tuple[float, str, str, str], Tuple[float, ...]] = {}
    factors = []
    for workload, label, noise, seed in zip(workloads, tier_labels,
                                            noises, seeds):
        name, seed_id = workload.name, str(seed)
        row = rows.get((noise, name, label, seed_id))
        if row is None:
            row = rows[noise, name, label, seed_id] = tuple(
                _noise_factor(noise, name, label, counter_id, seed_id)
                for counter_id in _EMITTED_IDS)
        factors.append(row)
    noisy = raw * lanes.threads[:, None] * np.asarray(factors)

    values = noisy.tolist()
    if not (np.isfinite(noisy).all() and (noisy >= 0).all()):
        for row_values in values:   # raise the scalar path's error
            CounterSample(dict(zip(EMITTED_COUNTERS, row_values)))
    return [CounterSample.unchecked(dict(zip(EMITTED_COUNTERS, row)))
            for row in values]


def _raw_counters(spec, skx, llc_cycles, demand, prefetch, breakdown, *,
                  maximum, select) -> Tuple:
    """Per-thread counter values, in :data:`EMITTED_COUNTERS` order.

    One kernel for both widths: every argument is either a scalar
    record (``WorkloadSpec``, ``DemandProfile``, ``PrefetchProfile``,
    ``CycleBreakdown``, floats) or the same-named float64 lane columns,
    and ``maximum``/``select`` are Python's ``max`` and a conditional
    or their ``np.where`` forms.  ``skx`` picks the SKX stall taxonomy
    over the SPR/EMR one; ``llc_cycles`` is the LLC hit latency in
    core cycles.
    """
    threads = spec.threads

    # Demand-load retirement counters.  A timely L1-prefetched line
    # turns the demand access into an L1 *hit* (neither P4 nor P5); a
    # late prefetch leaves the line in flight, so the load counts as an
    # LFB hit (P5).  Rising latency converts timely hits into LFB hits
    # - the paper's Fig. 5 mechanism: LFB hits grow and L1 hit rate
    # falls together on slow tiers.
    late_covered = prefetch.covered * prefetch.late_fraction
    timely_l1_covered = (prefetch.covered *
                         (1.0 - prefetch.late_fraction) *
                         spec.pf_l1_share)
    lfb_hit = (demand.lfb_hits + late_covered) / threads
    l1_miss = maximum(0.0, demand.l1_miss_issued - late_covered -
                      timely_l1_covered) / threads

    # Stall-cycle taxonomy.  The latency-sensitive prefetch stalls
    # (s_cache) manifest at the L1 level on SKX (the paper's S_Cache
    # uses P1-P2 there) and at the L2 level on SPR/EMR (P2-P3).  Each
    # band also carries its latency-insensitive mass: short stalls on
    # L2 hits (L1-miss band) and on L3 hits (L2-miss band) - real
    # counters never isolate the tier-sensitive part, which is why
    # Eq. 6 needs the R_LFB-hit x R_Mem weighting.
    s_llc = breakdown.s_llc
    s_cache = breakdown.s_cache
    l1_level = (demand.l1_miss_issued / threads) * _L1_LEVEL_STALL_CYCLES \
        * spec.stall_exposure / maximum(2.0, breakdown.mlp_effective)
    stalls_l3 = s_llc
    skx_stalls_l2 = s_llc + breakdown.s_l3_hit + _STALL_LEAK * s_cache
    skx_stalls_l1 = (skx_stalls_l2 + (1.0 - _STALL_LEAK) * s_cache +
                     breakdown.s_l2_hit + l1_level)
    spr_stalls_l2 = (s_llc + breakdown.s_l3_hit +
                     (1.0 - _STALL_LEAK) * s_cache)
    spr_stalls_l1 = (spr_stalls_l2 + l1_level + breakdown.s_l2_hit +
                     _STALL_LEAK * s_cache)
    stalls_l2 = select(skx, skx_stalls_l2, spr_stalls_l2)
    stalls_l1 = select(skx, skx_stalls_l1, spr_stalls_l1)

    # Offcore demand-read counters (Little's-law triple).  Real Intel
    # OFFCORE_REQUESTS* events count every demand read leaving the L2 -
    # L3 hits included - so the observed offcore latency (P11/P12) is a
    # blend of LLC-hit latency and memory latency.  Only the L3-hit
    # reads the prefetchers did NOT cover reach offcore as demand
    # (covered lines are L1/L2 hits by the time the load retires).
    demand_l3_hits = (demand.l2_misses * demand.l3_hit_rate *
                      (1.0 - spec.pf_friend)) / threads
    demand_mem = prefetch.demand_mem_reads / threads
    demand_reads = demand_mem + demand_l3_hits
    l3_hit_occupancy = demand_l3_hits * llc_cycles
    outstanding = (breakdown.mlp_effective * breakdown.memory_active +
                   l3_hit_occupancy)
    memory_active = (breakdown.memory_active +
                     l3_hit_occupancy / breakdown.mlp_effective)

    # Uncore lookup counters (SPR/EMR R_Mem proxy).
    pf_l1_any = prefetch.pf_l1_any / threads
    pf_l1_l3_hit = prefetch.pf_l1_l3_hit / threads
    pf_l2_any = prefetch.pf_l2_any / threads
    pf_l2_l3_hit = prefetch.pf_l2_l3_hit / threads
    pf_lookups = pf_l1_any + pf_l2_any
    # Demand LLC lookups: the demand reads that actually reach offcore
    # (prefetch-covered lines hit L1/L2 and never look up the LLC as
    # demand).  P15 uses the CHA lookup event's data-read filtering
    # (RFOs excluded) - with write lookups included, the R_Mem proxy
    # of section 4.4.3 collapses for store-bearing streamers.
    all_lookups = pf_lookups + demand_l3_hits + demand_mem
    tor_pref_miss = prefetch.pf_mem_reads / threads
    tor_pref_hit = pf_l1_l3_hit + pf_l2_l3_hit

    # Uncore CAS (bandwidth-monitor) counters: every line moved to or
    # from memory, reads and writes separately.
    cas_rd = (demand_mem + prefetch.pf_mem_reads / threads +
              demand.store_mem_rfos / threads)
    cas_wr = (demand.store_mem_rfos / threads +
              0.10 * demand_mem)  # writebacks (DEMAND_WRITEBACK_RATIO)

    return (breakdown.cycles, cas_rd, cas_wr, spec.instructions / threads,
            stalls_l1, stalls_l2, stalls_l3, l1_miss, lfb_hit,
            breakdown.s_sb, pf_l1_any, pf_l1_l3_hit, pf_l2_any,
            pf_l2_l3_hit, outstanding, demand_reads, memory_active,
            pf_lookups, all_lookups, tor_pref_miss, tor_pref_hit)
