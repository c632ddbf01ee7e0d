"""The simulated machine: platform + memory tiers + PMU, with a
closed-loop performance solver.

:class:`Machine` is the substrate's public facade and plays the role the
physical testbeds play in the paper: you hand it a workload and a
placement, it "executes" the workload and returns a :class:`RunResult`
with the cycle breakdown, achieved bandwidths/latencies, and the Table 5
PMU counter sample a perf wrapper would have collected.

The performance solve is a closed loop between the core and the memory
system: stall cycles depend on memory latency, memory latency depends on
per-tier utilization, and utilization depends on runtime (hence on stall
cycles).  ``Machine.run`` iterates this loop - damped - to a fixed
point, which is exactly the steady state a real machine settles into.
This is what produces the paper's two interleaving regimes without any
special-casing: low-traffic workloads keep idle latency at every ratio
(linear slowdown in ``1-x``), while bandwidth-bound workloads trade DRAM
queueing against CXL latency and develop the convex "bathtub" curve.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.counters import CounterSample, ProfiledRun
from ..obs.tracer import maybe_span
from ..workloads.spec import WorkloadSpec
from . import memory as memory_mod
from .caches import DemandProfile, demand_profile
from .config import (DEVICES, MemoryDeviceConfig, PlatformConfig,
                     get_device)
from .core import (BatchCoreParams, BatchCycleBreakdown, BatchLatencyContext,
                   CycleBreakdown, LatencyContext, account_cycles,
                   account_cycles_batch)
from .interleave import Placement, request_share, request_share_batch
from .memory import (MAX_ESCALATION, DeviceLanes, TierLoad,
                     loaded_latency_ns, loaded_latency_ns_batch,
                     measure_idle_latency_ns, rfo_latency_ns,
                     rfo_latency_ns_batch, updated_escalation,
                     updated_escalation_batch, utilization_for_bandwidth,
                     utilization_for_bandwidth_batch)
from .pmu import DEFAULT_NOISE, emit_counters, emit_counters_batch
from .prefetcher import (BatchPrefetchFlow, PrefetchProfile,
                         prefetch_profile, prefetch_profile_batch)

#: Latency of near (uncore / memory-controller buffer) hits, tier
#: independent - the absorption mechanism behind the paper's Fig. 4d.
NEAR_BUFFER_LATENCY_NS = 45.0

#: Dirty demand lines written back per demand memory read.
DEMAND_WRITEBACK_RATIO = 0.10

_MAX_OUTER_ITERATIONS = 600
_OUTER_TOLERANCE = 1e-9
_OUTER_DAMPING = 0.35

#: Narrowest batch whose counters are emitted column-wise
#: (:func:`~repro.uarch.pmu.emit_counters_batch`); narrower batches -
#: the prediction server's coalesced requests - call the scalar
#: :func:`~repro.uarch.pmu.emit_counters` per lane.  Both give the same
#: bits.  Measured crossover (docs/SOLVER.md): columnar emission costs
#: about 1.8x scalar at 1 lane and 1.3x at 2, and is first no slower at
#: 6 lanes when no two lanes share a noise row.
COLUMNAR_EMIT_MIN_LANES = 6

#: Documented relative tolerance of *accelerated* (Anderson/warm-started)
#: solves against the plain damped fixed point (docs/SOLVER.md).  The
#: damped loop stops when its step is below `_OUTER_TOLERANCE`
#: relatively, which leaves the iterate a bounded multiple of that step
#: away from the true fixed point; an accelerated solve lands on the
#: same fixed point along a different trajectory, so the two agree to
#: this tolerance, not bit-for-bit.  Replay mode (the default) *is*
#: bit-for-bit.
ACCELERATED_RELATIVE_TOLERANCE = 1e-7


@dataclass(frozen=True)
class RunResult:
    """Everything one simulated execution produced.

    ``counters`` is what a profiler sees; the remaining fields are
    ground truth that only the simulator (or the paper's authors with
    both DRAM and CXL runs) can observe.
    """

    workload: WorkloadSpec
    placement: Placement
    platform: PlatformConfig
    breakdown: CycleBreakdown
    demand: DemandProfile
    prefetch: PrefetchProfile
    counters: CounterSample
    #: Mean latencies the run experienced (ns).
    observed_read_ns: float
    tier_read_ns: float
    rfo_ns: float
    #: Loaded per-tier read latencies (ns); slow is None for DRAM-only.
    dram_latency_ns: float
    slow_latency_ns: Optional[float]
    #: Per-tier achieved traffic (GB/s) and utilization for this
    #: workload alone (excluding colocated external traffic).
    dram_gbps: float
    slow_gbps: float
    dram_utilization: float
    slow_utilization: float
    #: Wall-clock runtime (s).
    runtime_s: float
    #: Whether the outer closed loop converged.
    converged: bool

    @property
    def cycles(self) -> float:
        """Per-core execution cycles (the models' ``c``)."""
        return self.breakdown.cycles

    @property
    def ipc(self) -> float:
        per_core_instructions = self.workload.instructions / \
            self.workload.threads
        return per_core_instructions / self.cycles

    @property
    def total_gbps(self) -> float:
        return self.dram_gbps + self.slow_gbps

    def profiled(self, windows: Tuple[CounterSample, ...] = ()
                 ) -> ProfiledRun:
        """Repackage as the profiling record CAMP's models consume."""
        if self.placement.is_dram_only:
            tier = "dram"
        elif self.placement.is_slow_only:
            tier = self.placement.device or "slow"
        else:
            tier = self.placement.describe()
        return ProfiledRun(
            sample=self.counters,
            platform_family=self.platform.family,
            tier=tier,
            frequency_ghz=self.platform.frequency_ghz,
            duration_s=self.runtime_s,
            label=self.workload.name,
            windows=windows,
        )


def slowdown(baseline: RunResult, target: RunResult) -> float:
    """Ground-truth slowdown of ``target`` relative to ``baseline``.

    ``(c_target - c_baseline) / c_baseline``: 0 means identical runtime,
    0.5 means 50% more cycles, negative means the target configuration
    is *faster* (bandwidth-bound workloads under good interleaving).
    """
    return (target.cycles - baseline.cycles) / baseline.cycles


def component_slowdowns(baseline: RunResult,
                        target: RunResult) -> Dict[str, float]:
    """Melody-style attribution: per-component slowdown contributions.

    Requires both runs (this is the attribution CAMP replaces with
    prediction).  Components sum to the total slowdown up to measurement
    noise, since base cycles are latency-invariant.
    """
    c = baseline.cycles
    return {
        "drd": (target.breakdown.s_llc - baseline.breakdown.s_llc) / c,
        "cache": (target.breakdown.s_cache -
                  baseline.breakdown.s_cache) / c,
        "store": (target.breakdown.s_sb - baseline.breakdown.s_sb) / c,
    }


@dataclass
class _SolverState:
    """Mutable latency state threaded through the outer fixed point."""

    dram_latency_ns: float
    slow_latency_ns: float
    dram_rfo_ns: float
    slow_rfo_ns: float
    dram_escalation: float = 1.0
    slow_escalation: float = 1.0


#: One solver state as a plain 6-tuple: (dram latency, slow latency,
#: dram RFO, slow RFO, dram escalation, slow escalation) - the vector
#: the batched solver iterates and the warm-start cache stores.
StateVector = Tuple[float, float, float, float, float, float]


@dataclass
class _WarmEntry:
    x_req: float
    state: StateVector
    #: Monotonic last-use stamp (seeded from or refreshed) for LRU.
    tick: int = 0


#: Default cap on fixed points a :class:`WarmStartCache` retains.  A
#: point is a 6-double state vector plus a key reference, so the cap
#: bounds a long-lived ``repro serve`` process at roughly a megabyte
#: while keeping any single sweep or colocation working set (hundreds
#: of points) fully resident.
DEFAULT_WARM_CAPACITY = 4096


class WarmStartCache:
    """Seeds accelerated solves from nearby converged fixed points.

    Keyed by everything that pins the fixed point *except* the swept
    quantities - the DRAM request share and external traffic: the
    workload spec, the slow-tier name and hotness bias, the platform,
    and the noise/seed identity.  Along a ratio sweep the nearest
    recorded share is one grid step away, so a seeded solve converges
    in a handful of iterations instead of hundreds; across colocation
    iterations the share is constant and the previous joint iterate is
    the seed.

    Growth is bounded: at most ``capacity`` fixed points are retained
    (default :data:`DEFAULT_WARM_CAPACITY`); once full, recording a new
    point evicts the least recently *used* one - used meaning seeded
    from or refreshed - and increments ``evictions``.

    Only consulted in ``accelerate=True`` mode: a warm seed changes the
    solver trajectory, and replay mode must stay bit-identical to
    ``Machine.run`` (docs/SOLVER.md).
    """

    def __init__(self, capacity: int = DEFAULT_WARM_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._entries: Dict[tuple, List[_WarmEntry]] = {}
        self._tick = 0
        #: How many solves were seeded from the cache.
        self.seeds_served = 0
        #: How many distinct fixed points are currently recorded.
        self.points_recorded = 0
        #: How many fixed points were evicted to stay under capacity.
        self.evictions = 0

    def _touch(self, entry: _WarmEntry) -> None:
        self._tick += 1
        entry.tick = self._tick

    @staticmethod
    def _key(workload: WorkloadSpec, placement: Placement,
             platform_name: str, noise: float, seed: int) -> tuple:
        return (workload, placement.device, placement.hotness_bias,
                platform_name, noise, seed)

    def seed(self, workload: WorkloadSpec, placement: Placement,
             platform_name: str, noise: float, seed: int,
             x_req: float) -> Optional[StateVector]:
        """Nearest recorded fixed point by DRAM request share, if any."""
        entries = self._entries.get(
            self._key(workload, placement, platform_name, noise, seed))
        if not entries:
            return None
        best = min(entries, key=lambda entry: abs(entry.x_req - x_req))
        self._touch(best)
        self.seeds_served += 1
        return best.state

    def record(self, workload: WorkloadSpec, placement: Placement,
               platform_name: str, noise: float, seed: int,
               x_req: float, state: StateVector) -> None:
        """Record a converged fixed point (replacing a same-share entry)."""
        self._store(self._key(workload, placement, platform_name, noise,
                              seed), x_req, state)

    def _store(self, key: tuple, x_req: float,
               state: StateVector) -> None:
        entries = self._entries.setdefault(key, [])
        for entry in entries:
            if abs(entry.x_req - x_req) <= 1e-12:
                entry.state = state
                self._touch(entry)
                return
        entry = _WarmEntry(x_req=x_req, state=state)
        self._touch(entry)
        entries.append(entry)
        self.points_recorded += 1
        while self.points_recorded > self.capacity:
            self._evict_one()

    def _evict_one(self) -> None:
        victim_key, victim = min(
            ((key, entry) for key, entries in self._entries.items()
             for entry in entries),
            key=lambda pair: pair[1].tick)
        remaining = [entry for entry in self._entries[victim_key]
                     if entry is not victim]
        if remaining:
            self._entries[victim_key] = remaining
        else:
            del self._entries[victim_key]
        self.points_recorded -= 1
        self.evictions += 1

    def export_points(self) -> List[Tuple[tuple, float, StateVector]]:
        """Every retained ``(key, x_req, state)`` point, LRU-first.

        The persistence layer (``repro.runtime.warmstore``) serializes
        these; re-importing in this order reproduces the eviction
        order, so a snapshot round-trip preserves LRU behavior.
        """
        stamped = [(key, entry.x_req, entry.state, entry.tick)
                   for key, entries in self._entries.items()
                   for entry in entries]
        stamped.sort(key=lambda item: item[3])
        return [(key, x_req, state) for key, x_req, state, _ in stamped]

    def import_points(self, points) -> int:
        """Bulk-load exported points (e.g. from the persistent store)."""
        loaded = 0
        for key, x_req, state in points:
            self._store(tuple(key), float(x_req),
                        tuple(float(value) for value in state))
            loaded += 1
        return loaded


def _take_lanes(struct, index: np.ndarray):
    """Subset a struct-of-arrays dataclass along the lane axis."""
    return type(struct)(**{
        f.name: getattr(struct, f.name)[index]
        for f in dataclasses.fields(struct)})


def _merge_lanes(new, old, mask: np.ndarray):
    """Lane-wise ``np.where(mask, new, old)`` over a struct-of-arrays."""
    if old is None:
        return new
    return type(new)(**{
        f.name: np.where(mask, getattr(new, f.name), getattr(old, f.name))
        for f in dataclasses.fields(new)})


def _lane_records(cls, struct) -> list:
    """One scalar ``cls`` record per lane of a struct-of-arrays.

    Columns are read by ``cls``'s field names and converted with one
    ``tolist`` each, which yields the same Python floats/bools as
    ``float(column[i])``/``bool(column[i])`` lane by lane.
    """
    names = [f.name for f in dataclasses.fields(cls)]
    columns = [getattr(struct, name).tolist() for name in names]
    return [cls(*values) for values in zip(*columns)]


@dataclass
class _BatchProblem:
    """N (workload, placement) problems packed as lane arrays.

    Each lane additionally carries its own machine identity
    (``platforms``/``noises``/``seeds``): one packed batch may mix
    SKX/SPR/EMR lanes at different noise levels, which is what lets a
    whole suite population solve as a single masked batch
    (:meth:`Machine.run_batch_multi`).
    """

    workloads: List[WorkloadSpec]
    placements: List[Placement]
    demands: List[DemandProfile]
    slow_devices: List[Optional[MemoryDeviceConfig]]
    platforms: List[PlatformConfig]
    noises: List[float]
    seeds: List[int]
    params: BatchCoreParams
    dram_lanes: DeviceLanes
    slow_lanes: DeviceLanes
    has_slow: np.ndarray
    x_req: np.ndarray
    near_buffer_hit: np.ndarray
    tail_sensitivity: np.ndarray
    pf_l1_share: np.ndarray
    pf_lookahead_ns: np.ndarray
    mem_reads_potential: np.ndarray
    dram_external_gbps: np.ndarray
    slow_external_gbps: np.ndarray
    reference_idle_ns: np.ndarray
    zeros: np.ndarray

    @property
    def size(self) -> int:
        return len(self.workloads)

    def subset(self, index: np.ndarray) -> "_BatchProblem":
        def pick(items):
            return [items[i] for i in index]

        return _BatchProblem(
            workloads=pick(self.workloads),
            placements=pick(self.placements),
            demands=pick(self.demands),
            slow_devices=pick(self.slow_devices),
            platforms=pick(self.platforms),
            noises=pick(self.noises),
            seeds=pick(self.seeds),
            params=_take_lanes(self.params, index),
            dram_lanes=_take_lanes(self.dram_lanes, index),
            slow_lanes=_take_lanes(self.slow_lanes, index),
            has_slow=self.has_slow[index],
            x_req=self.x_req[index],
            near_buffer_hit=self.near_buffer_hit[index],
            tail_sensitivity=self.tail_sensitivity[index],
            pf_l1_share=self.pf_l1_share[index],
            pf_lookahead_ns=self.pf_lookahead_ns[index],
            mem_reads_potential=self.mem_reads_potential[index],
            dram_external_gbps=self.dram_external_gbps[index],
            slow_external_gbps=self.slow_external_gbps[index],
            reference_idle_ns=self.reference_idle_ns[index],
            zeros=self.zeros[index],
        )


@dataclass
class _BatchSolution:
    """Final solver state + per-iteration observables for N problems."""

    dram_latency_ns: np.ndarray
    slow_latency_ns: np.ndarray
    dram_rfo_ns: np.ndarray
    slow_rfo_ns: np.ndarray
    dram_escalation: np.ndarray
    slow_escalation: np.ndarray
    flow: BatchPrefetchFlow
    breakdown: BatchCycleBreakdown
    dram_gbps: np.ndarray
    slow_gbps: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray

    def splice(self, other: "_BatchSolution", index: np.ndarray) -> None:
        """Overwrite the lanes at ``index`` with ``other``'s lanes."""
        for name in ("dram_latency_ns", "slow_latency_ns", "dram_rfo_ns",
                     "slow_rfo_ns", "dram_escalation", "slow_escalation",
                     "dram_gbps", "slow_gbps", "converged"):
            getattr(self, name)[index] = getattr(other, name)
        self.iterations[index] += other.iterations
        for struct_name in ("flow", "breakdown"):
            ours, theirs = getattr(self, struct_name), getattr(
                other, struct_name)
            for f in dataclasses.fields(ours):
                getattr(ours, f.name)[index] = getattr(theirs, f.name)


class Machine:
    """A simulated server: one platform, its DRAM, and the slow tiers.

    Parameters
    ----------
    platform:
        A :class:`~repro.uarch.config.PlatformConfig` (e.g. ``SKX2S``).
    devices:
        Slow-tier devices reachable from this machine, keyed by name.
        Defaults to the paper's four evaluation tiers.
    noise:
        Relative PMU measurement noise (sigma); 0 disables it.
    seed:
        Varies the deterministic noise stream (distinct "runs").
    """

    def __init__(self, platform: PlatformConfig,
                 devices: Optional[Mapping[str, MemoryDeviceConfig]] = None,
                 noise: float = DEFAULT_NOISE, seed: int = 0):
        self.platform = platform
        self.devices: Dict[str, MemoryDeviceConfig] = dict(
            devices if devices is not None else DEVICES)
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.noise = noise
        self.seed = seed

    # -- probes -------------------------------------------------------------
    def device(self, name: str) -> MemoryDeviceConfig:
        """Resolve a tier name ("dram" or a slow-device name)."""
        if name == "dram":
            return self.platform.dram
        if name in self.devices:
            return self.devices[name]
        return get_device(name)

    def idle_latency_ns(self, tier: str) -> float:
        """Intel-MLC-style unloaded latency probe for a tier."""
        return measure_idle_latency_ns(self.device(tier))

    # -- execution -----------------------------------------------------------
    def run(self, workload: WorkloadSpec,
            placement: Optional[Placement] = None,
            external_traffic: Optional[Mapping[str, float]] = None
            ) -> RunResult:
        """Execute ``workload`` under ``placement`` and return the result.

        ``external_traffic`` maps tier names to GB/s of traffic from
        colocated workloads; it raises tier utilization (and therefore
        latency) without contributing to this workload's counters.
        """
        placement = placement or Placement.dram_only()
        # Trace-session instrumentation only: maybe_span reads no
        # clock (and costs nothing) unless `repro trace` is active, so
        # this module stays DET01-pure and results are identical
        # traced or untraced.
        with maybe_span("machine.run", workload=workload.name,
                        placement=placement.describe(),
                        platform=self.platform.name) as span:
            result = self._run(workload, placement, external_traffic)
            if span is not None:
                span.annotate(converged=result.converged)
            return result

    def _run(self, workload: WorkloadSpec,
             placement: Placement,
             external_traffic: Optional[Mapping[str, float]] = None
             ) -> RunResult:
        external = dict(external_traffic or {})

        dram_dev = self.platform.dram
        slow_dev = placement.slow_device()
        x_req = request_share(placement, workload.name,
                              workload.hotness_skew)

        demand = demand_profile(workload, self.platform)
        idle_dram = dram_dev.idle_latency_ns

        state = _SolverState(
            dram_latency_ns=idle_dram,
            slow_latency_ns=(slow_dev.idle_latency_ns if slow_dev else
                             idle_dram),
            dram_rfo_ns=idle_dram * dram_dev.rfo_latency_factor,
            slow_rfo_ns=((slow_dev.idle_latency_ns *
                          slow_dev.rfo_latency_factor) if slow_dev else
                         idle_dram),
        )

        breakdown: Optional[CycleBreakdown] = None
        prefetch: Optional[PrefetchProfile] = None
        dram_gbps = slow_gbps = 0.0
        converged = False

        for _ in range(_MAX_OUTER_ITERATIONS):
            tier_read = (x_req * state.dram_latency_ns +
                         (1.0 - x_req) * state.slow_latency_ns)
            observed = (workload.near_buffer_hit * NEAR_BUFFER_LATENCY_NS +
                        (1.0 - workload.near_buffer_hit) * tier_read)
            rfo = (x_req * state.dram_rfo_ns +
                   (1.0 - x_req) * state.slow_rfo_ns)

            prefetch = prefetch_profile(workload, demand, tier_read)
            latency_ctx = LatencyContext(
                observed_read_ns=observed,
                tier_read_ns=tier_read,
                rfo_ns=rfo,
                reference_idle_ns=idle_dram,
            )
            breakdown = account_cycles(workload, self.platform, demand,
                                       prefetch, latency_ctx)

            runtime_s = breakdown.cycles / (
                self.platform.frequency_ghz * 1e9)
            lines = (prefetch.demand_mem_reads + prefetch.pf_mem_reads +
                     demand.store_mem_rfos +
                     demand.store_mem_rfos +  # RFO read + writeback
                     DEMAND_WRITEBACK_RATIO * prefetch.demand_mem_reads)
            total_gbps = lines * 64.0 / runtime_s / 1e9

            dram_gbps = total_gbps * x_req
            slow_gbps = total_gbps * (1.0 - x_req)

            dram_offered = dram_gbps + external.get("dram", 0.0)
            dram_util = utilization_for_bandwidth(dram_dev, dram_offered)
            state.dram_escalation = updated_escalation(
                state.dram_escalation, dram_dev, dram_offered)
            new_dram = loaded_latency_ns(
                dram_dev, dram_util, 0.0) * state.dram_escalation
            new_dram_rfo = rfo_latency_ns(
                dram_dev, dram_util, 0.0) * state.dram_escalation
            if slow_dev is not None:
                slow_offered = slow_gbps + external.get(slow_dev.name, 0.0)
                slow_util = utilization_for_bandwidth(slow_dev,
                                                      slow_offered)
                state.slow_escalation = updated_escalation(
                    state.slow_escalation, slow_dev, slow_offered)
                new_slow = loaded_latency_ns(
                    slow_dev, slow_util,
                    workload.tail_sensitivity) * state.slow_escalation
                new_slow_rfo = rfo_latency_ns(
                    slow_dev, slow_util,
                    workload.tail_sensitivity) * state.slow_escalation
            else:
                new_slow, new_slow_rfo = state.slow_latency_ns, \
                    state.slow_rfo_ns

            delta = (abs(new_dram - state.dram_latency_ns) +
                     abs(new_slow - state.slow_latency_ns))
            scale = state.dram_latency_ns + state.slow_latency_ns
            state.dram_latency_ns += _OUTER_DAMPING * (
                new_dram - state.dram_latency_ns)
            state.slow_latency_ns += _OUTER_DAMPING * (
                new_slow - state.slow_latency_ns)
            state.dram_rfo_ns += _OUTER_DAMPING * (
                new_dram_rfo - state.dram_rfo_ns)
            state.slow_rfo_ns += _OUTER_DAMPING * (
                new_slow_rfo - state.slow_rfo_ns)
            if delta <= _OUTER_TOLERANCE * scale:
                converged = True
                break

        assert breakdown is not None and prefetch is not None

        tier_read = (x_req * state.dram_latency_ns +
                     (1.0 - x_req) * state.slow_latency_ns)
        observed = (workload.near_buffer_hit * NEAR_BUFFER_LATENCY_NS +
                    (1.0 - workload.near_buffer_hit) * tier_read)
        rfo = (x_req * state.dram_rfo_ns +
               (1.0 - x_req) * state.slow_rfo_ns)
        runtime_s = breakdown.cycles / (self.platform.frequency_ghz * 1e9)

        tier_label = placement.describe()
        counters = emit_counters(workload, self.platform, demand, prefetch,
                                 breakdown, tier_label, noise=self.noise,
                                 seed=self.seed)

        dram_util = utilization_for_bandwidth(
            dram_dev, dram_gbps + external.get("dram", 0.0))
        slow_util = 0.0
        slow_latency_ns: Optional[float] = None
        if slow_dev is not None:
            slow_util = utilization_for_bandwidth(
                slow_dev, slow_gbps + external.get(slow_dev.name, 0.0))
            slow_latency_ns = state.slow_latency_ns

        return RunResult(
            workload=workload,
            placement=placement,
            platform=self.platform,
            breakdown=breakdown,
            demand=demand,
            prefetch=prefetch,
            counters=counters,
            observed_read_ns=observed,
            tier_read_ns=tier_read,
            rfo_ns=rfo,
            dram_latency_ns=state.dram_latency_ns,
            slow_latency_ns=slow_latency_ns,
            dram_gbps=dram_gbps,
            slow_gbps=slow_gbps,
            dram_utilization=dram_util,
            slow_utilization=slow_util,
            runtime_s=runtime_s,
            converged=converged and breakdown.converged,
        )

    # -- batched execution ---------------------------------------------------
    def run_batch(self, pairs: Sequence[Tuple[WorkloadSpec,
                                              Optional[Placement]]],
                  external_traffic: Optional[Sequence[
                      Optional[Mapping[str, float]]]] = None,
                  *, accelerate: bool = False,
                  warm_cache: Optional[WarmStartCache] = None,
                  stats: Optional[Dict[str, object]] = None
                  ) -> List[RunResult]:
        """Execute N (workload, placement) problems in one vectorized solve.

        In the default *replay* mode the batched solver performs the
        same arithmetic in the same order as looped :meth:`run`, so the
        returned :class:`RunResult`\\ s are bit-identical to N scalar
        calls.  With ``accelerate=True`` the outer fixed point uses
        Anderson (secant) acceleration - optionally seeded from
        ``warm_cache`` - converging in far fewer iterations to the same
        fixed point within :data:`ACCELERATED_RELATIVE_TOLERANCE`
        (docs/SOLVER.md has the full tolerance contract).

        ``external_traffic`` optionally gives one per-problem mapping of
        tier name to colocated GB/s, aligned with ``pairs``.  ``stats``
        (if given) receives solver telemetry: problem count, mode,
        outer-iteration totals, warm seeds used, and how many lanes did
        not converge.
        """
        pairs = list(pairs)
        if warm_cache is not None and not accelerate:
            raise ValueError(
                "warm_cache requires accelerate=True: replay mode must "
                "stay bit-identical to Machine.run")
        with maybe_span("machine.run_batch", problems=len(pairs),
                        platform=self.platform.name,
                        accelerated=accelerate) as span:
            results, solve_stats = self._run_batch(
                pairs, external_traffic, accelerate, warm_cache)
            if span is not None:
                span.annotate(**solve_stats)
            if stats is not None:
                stats.update(solve_stats)
            return results

    def _run_batch(self, pairs, external_traffic, accelerate, warm_cache,
                   platforms=None, noises=None, seeds=None):
        if not pairs:
            return [], {"problems": 0, "mode": "empty",
                        "outer_iterations": 0, "nonconverged": 0,
                        "warm_seeded": 0, "replay_resolves": 0}
        externals: List[Optional[Mapping[str, float]]]
        if external_traffic is None:
            externals = [None] * len(pairs)
        else:
            externals = list(external_traffic)
            if len(externals) != len(pairs):
                raise ValueError(
                    "external_traffic must align with pairs "
                    f"({len(externals)} != {len(pairs)})")

        if memory_mod._LATENCY_FAULT_HOOK is not None:
            # Fault hooks are stateful per-call scalar functions; the
            # vectorized kernels cannot thread them.  Fall back to the
            # looped scalar path so chaos runs see identical behavior.
            if platforms is None:
                machines: List["Machine"] = [self] * len(pairs)
            else:
                machines = [
                    type(self)(platform, noise=noise, seed=lane_seed)
                    for platform, noise, lane_seed in zip(
                        platforms, noises, seeds)]
            results = [
                machine._run(workload,
                             placement or Placement.dram_only(), external)
                for machine, ((workload, placement), external) in zip(
                    machines, zip(pairs, externals))]
            return results, {
                "problems": len(pairs), "mode": "scalar-fallback",
                "outer_iterations": 0,
                "nonconverged": sum(1 for r in results if not r.converged),
                "warm_seeded": 0, "replay_resolves": 0}

        problem = self._pack_batch(pairs, externals, platforms=platforms,
                                   noises=noises, seeds=seeds)
        state = self._initial_state(problem)
        warm_seeded = 0
        if accelerate and warm_cache is not None:
            warm_seeded = self._apply_warm_seeds(problem, state, warm_cache)

        solution = self._solve_batch(problem, state, accelerate)
        replay_resolves = 0
        if accelerate and not bool(solution.converged.all()):
            # Safe fallback: lanes the accelerated loop could not settle
            # re-run under plain damping, reproducing exactly the
            # (path-dependent) iterate the scalar solver returns.
            index = np.flatnonzero(~solution.converged)
            replay_resolves = int(index.size)
            sub = self._solve_batch(
                problem.subset(index),
                self._initial_state(problem.subset(index)),
                accelerate=False)
            solution.splice(sub, index)

        if accelerate and warm_cache is not None:
            self._record_warm_points(problem, solution, warm_cache)

        results = self._materialize(problem, solution)
        solve_stats = {
            "problems": problem.size,
            "mode": "accelerated" if accelerate else "replay",
            "outer_iterations": int(solution.iterations.sum()),
            "nonconverged": sum(1 for r in results if not r.converged),
            "warm_seeded": warm_seeded,
            "replay_resolves": replay_resolves,
        }
        return results, solve_stats

    @classmethod
    def run_batch_multi(cls, specs: Sequence, *, accelerate: bool = False,
                        warm_cache: Optional[WarmStartCache] = None,
                        stats: Optional[Dict[str, object]] = None
                        ) -> List[RunResult]:
        """Solve specs spanning *different machines* as one masked batch.

        ``specs`` is any sequence of objects exposing ``workload``,
        ``placement``, ``platform`` (a
        :class:`~repro.uarch.config.PlatformConfig`), ``noise`` and
        ``seed`` - e.g. :class:`repro.runtime.spec.RunSpec`.  Every
        lane carries its own machine parameters, so a whole suite
        population (workloads x placements x SKX/SPR/EMR x seeds)
        solves as one masked batch instead of per-machine groups.

        In the default *replay* mode the result list is bit-identical
        to looping ``Machine(spec.platform, noise=spec.noise,
        seed=spec.seed).run(spec.workload, spec.placement)`` over the
        specs.  ``accelerate``/``warm_cache`` behave as in
        :meth:`run_batch`.
        """
        specs = list(specs)
        if warm_cache is not None and not accelerate:
            raise ValueError(
                "warm_cache requires accelerate=True: replay mode must "
                "stay bit-identical to Machine.run")
        if not specs:
            if stats is not None:
                stats.update(problems=0, mode="empty",
                             outer_iterations=0, nonconverged=0,
                             warm_seeded=0, replay_resolves=0)
            return []
        host = cls(specs[0].platform, noise=specs[0].noise,
                   seed=specs[0].seed)
        pairs = [(spec.workload, spec.placement) for spec in specs]
        with maybe_span("machine.run_batch_multi", problems=len(specs),
                        accelerated=accelerate) as span:
            results, solve_stats = host._run_batch(
                pairs, None, accelerate, warm_cache,
                platforms=[spec.platform for spec in specs],
                noises=[float(spec.noise) for spec in specs],
                seeds=[int(spec.seed) for spec in specs])
            if span is not None:
                span.annotate(**solve_stats)
            if stats is not None:
                stats.update(solve_stats)
            return results

    def _pack_batch(self, pairs, externals, *,
                    platforms: Optional[Sequence[PlatformConfig]] = None,
                    noises: Optional[Sequence[float]] = None,
                    seeds: Optional[Sequence[int]] = None) -> _BatchProblem:
        """Pack N problems into lane arrays.

        ``platforms``/``noises``/``seeds`` optionally give each lane its
        own machine identity (the cross-machine path); ``None`` means
        every lane runs on *this* machine.  A uniform identity packs
        arrays bit-identical to the pre-cross-machine layout: filling a
        lane array from N copies of one platform produces exactly what
        ``np.full`` produced from its scalar.
        """
        workloads = [workload for workload, _ in pairs]
        placements = [placement or Placement.dram_only()
                      for _, placement in pairs]
        count = len(pairs)
        lane_platforms = (list(platforms) if platforms is not None
                          else [self.platform] * count)
        lane_noises = (list(noises) if noises is not None
                       else [self.noise] * count)
        lane_seeds = (list(seeds) if seeds is not None
                      else [self.seed] * count)
        if not (len(lane_platforms) == len(lane_noises) ==
                len(lane_seeds) == count):
            raise ValueError("per-lane identities must align with pairs")
        dram_devs = [platform.dram for platform in lane_platforms]
        slow_devices = [placement.slow_device() for placement in placements]
        has_slow = np.asarray([dev is not None for dev in slow_devices])
        demands = [demand_profile(workload, platform)
                   for workload, platform in zip(workloads, lane_platforms)]

        def lanes(values) -> np.ndarray:
            return np.asarray(list(values), dtype=np.float64)

        dram_external = lanes(
            (external or {}).get("dram", 0.0) for external in externals)
        slow_external = lanes(
            (external or {}).get(dev.name, 0.0) if dev is not None else 0.0
            for dev, external in zip(slow_devices, externals))

        return _BatchProblem(
            workloads=workloads,
            placements=placements,
            demands=demands,
            slow_devices=slow_devices,
            platforms=lane_platforms,
            noises=lane_noises,
            seeds=lane_seeds,
            params=BatchCoreParams.from_problems(
                workloads, lane_platforms, demands),
            dram_lanes=DeviceLanes.from_devices(dram_devs),
            slow_lanes=DeviceLanes.from_devices(
                [dev if dev is not None else dram_dev
                 for dev, dram_dev in zip(slow_devices, dram_devs)]),
            has_slow=has_slow,
            x_req=request_share_batch(
                placements, [w.name for w in workloads],
                [w.hotness_skew for w in workloads]),
            near_buffer_hit=lanes(w.near_buffer_hit for w in workloads),
            tail_sensitivity=lanes(w.tail_sensitivity for w in workloads),
            pf_l1_share=lanes(w.pf_l1_share for w in workloads),
            pf_lookahead_ns=lanes(w.pf_lookahead_ns for w in workloads),
            mem_reads_potential=lanes(
                d.mem_reads_potential for d in demands),
            dram_external_gbps=dram_external,
            slow_external_gbps=slow_external,
            reference_idle_ns=lanes(
                dev.idle_latency_ns for dev in dram_devs),
            zeros=np.zeros(count),
        )

    def _initial_state(self, problem: _BatchProblem) -> Dict[str, np.ndarray]:
        idle_dram = problem.dram_lanes.idle_latency_ns
        slow_idle = problem.slow_lanes.idle_latency_ns
        return {
            "dram_latency_ns": idle_dram.copy(),
            "slow_latency_ns": np.where(
                problem.has_slow, slow_idle, idle_dram),
            "dram_rfo_ns":
                idle_dram * problem.dram_lanes.rfo_latency_factor,
            "slow_rfo_ns": np.where(
                problem.has_slow,
                slow_idle * problem.slow_lanes.rfo_latency_factor,
                idle_dram),
            "dram_escalation": np.ones(problem.size),
            "slow_escalation": np.ones(problem.size),
        }

    def _apply_warm_seeds(self, problem: _BatchProblem,
                          state: Dict[str, np.ndarray],
                          warm_cache: WarmStartCache) -> int:
        seeded = 0
        names = ("dram_latency_ns", "slow_latency_ns", "dram_rfo_ns",
                 "slow_rfo_ns", "dram_escalation", "slow_escalation")
        for i in range(problem.size):
            vector = warm_cache.seed(
                problem.workloads[i], problem.placements[i],
                problem.platforms[i].name, problem.noises[i],
                problem.seeds[i], float(problem.x_req[i]))
            if vector is None:
                continue
            for name, value in zip(names, vector):
                state[name][i] = value
            seeded += 1
        return seeded

    def _record_warm_points(self, problem: _BatchProblem,
                            solution: _BatchSolution,
                            warm_cache: WarmStartCache) -> None:
        for i in range(problem.size):
            if not bool(solution.converged[i]):
                continue
            vector: StateVector = (
                float(solution.dram_latency_ns[i]),
                float(solution.slow_latency_ns[i]),
                float(solution.dram_rfo_ns[i]),
                float(solution.slow_rfo_ns[i]),
                float(solution.dram_escalation[i]),
                float(solution.slow_escalation[i]),
            )
            warm_cache.record(
                problem.workloads[i], problem.placements[i],
                problem.platforms[i].name, problem.noises[i],
                problem.seeds[i], float(problem.x_req[i]), vector)

    def _evaluate_outer(self, problem: _BatchProblem,
                        dram_latency_ns, slow_latency_ns,
                        dram_rfo_ns, slow_rfo_ns,
                        dram_escalation, slow_escalation):
        """One application of the outer map at the given state arrays.

        Mirrors the body of `_run`'s loop operation-for-operation;
        returns the pre-damping latency targets, the updated
        escalations, this iteration's observables, and the convergence
        delta/scale.
        """
        x_req = problem.x_req
        tier_read = (x_req * dram_latency_ns +
                     (1.0 - x_req) * slow_latency_ns)
        observed = (problem.near_buffer_hit * NEAR_BUFFER_LATENCY_NS +
                    (1.0 - problem.near_buffer_hit) * tier_read)
        rfo = (x_req * dram_rfo_ns +
               (1.0 - x_req) * slow_rfo_ns)

        flow = prefetch_profile_batch(
            problem.params.pf_friend, problem.pf_l1_share,
            problem.pf_lookahead_ns, problem.mem_reads_potential,
            problem.params.l3_hit_rate, tier_read)
        latency_ctx = BatchLatencyContext(
            observed_read_ns=observed,
            tier_read_ns=tier_read,
            rfo_ns=rfo,
            reference_idle_ns=problem.reference_idle_ns,
        )
        breakdown = account_cycles_batch(problem.params, flow, latency_ctx)

        runtime_s = breakdown.cycles / (
            problem.params.frequency_ghz * 1e9)
        lines = (flow.demand_mem_reads + flow.pf_mem_reads +
                 problem.params.store_mem_rfos +
                 problem.params.store_mem_rfos +  # RFO read + writeback
                 DEMAND_WRITEBACK_RATIO * flow.demand_mem_reads)
        total_gbps = lines * 64.0 / runtime_s / 1e9

        dram_gbps = total_gbps * x_req
        slow_gbps = total_gbps * (1.0 - x_req)

        dram_offered = dram_gbps + problem.dram_external_gbps
        dram_util = utilization_for_bandwidth_batch(
            problem.dram_lanes, dram_offered)
        new_dram_escalation = updated_escalation_batch(
            dram_escalation, problem.dram_lanes, dram_offered)
        new_dram = loaded_latency_ns_batch(
            problem.dram_lanes, dram_util,
            problem.zeros) * new_dram_escalation
        new_dram_rfo = rfo_latency_ns_batch(
            problem.dram_lanes, dram_util,
            problem.zeros) * new_dram_escalation

        slow_offered = slow_gbps + problem.slow_external_gbps
        slow_util = utilization_for_bandwidth_batch(
            problem.slow_lanes, slow_offered)
        slow_escalation_all = updated_escalation_batch(
            slow_escalation, problem.slow_lanes, slow_offered)
        new_slow_all = loaded_latency_ns_batch(
            problem.slow_lanes, slow_util,
            problem.tail_sensitivity) * slow_escalation_all
        new_slow_rfo_all = rfo_latency_ns_batch(
            problem.slow_lanes, slow_util,
            problem.tail_sensitivity) * slow_escalation_all
        new_slow = np.where(problem.has_slow, new_slow_all,
                            slow_latency_ns)
        new_slow_rfo = np.where(problem.has_slow, new_slow_rfo_all,
                                slow_rfo_ns)
        new_slow_escalation = np.where(problem.has_slow,
                                       slow_escalation_all,
                                       slow_escalation)

        delta = (np.abs(new_dram - dram_latency_ns) +
                 np.abs(new_slow - slow_latency_ns))
        scale = dram_latency_ns + slow_latency_ns
        return (new_dram, new_slow, new_dram_rfo, new_slow_rfo,
                new_dram_escalation, new_slow_escalation,
                flow, breakdown, dram_gbps, slow_gbps, delta, scale)

    def _solve_batch(self, problem: _BatchProblem,
                     state: Dict[str, np.ndarray],
                     accelerate: bool) -> _BatchSolution:
        """Iterate the outer fixed point for all lanes at once.

        Replay mode applies exactly the scalar damped update; each lane
        freezes - state, breakdown, and traffic - the iteration it
        meets the scalar convergence criterion, so frozen lanes carry
        the scalar path's doubles verbatim.  Accelerated mode layers an
        Anderson(1) secant step on top of the damped map, with
        per-lane safeguards falling back to the plain damped step.
        """
        dram_latency_ns = state["dram_latency_ns"]
        slow_latency_ns = state["slow_latency_ns"]
        dram_rfo_ns = state["dram_rfo_ns"]
        slow_rfo_ns = state["slow_rfo_ns"]
        dram_escalation = state["dram_escalation"]
        slow_escalation = state["slow_escalation"]

        count = problem.size
        active = np.ones(count, dtype=bool)
        converged = np.zeros(count, dtype=bool)
        iterations = np.zeros(count, dtype=np.int64)
        kept_flow: Optional[BatchPrefetchFlow] = None
        kept_breakdown: Optional[BatchCycleBreakdown] = None
        kept_dram_gbps = np.zeros(count)
        kept_slow_gbps = np.zeros(count)
        previous_x: Optional[np.ndarray] = None
        previous_residual: Optional[np.ndarray] = None

        for _ in range(_MAX_OUTER_ITERATIONS):
            (new_dram, new_slow, new_dram_rfo, new_slow_rfo,
             new_dram_escalation, new_slow_escalation,
             flow, breakdown, dram_gbps, slow_gbps,
             delta, scale) = self._evaluate_outer(
                problem, dram_latency_ns, slow_latency_ns,
                dram_rfo_ns, slow_rfo_ns,
                dram_escalation, slow_escalation)
            iterations += active

            # Observables retained by lanes still iterating: exactly
            # what the scalar loop leaves behind at its break.
            kept_flow = _merge_lanes(flow, kept_flow, active)
            kept_breakdown = _merge_lanes(breakdown, kept_breakdown, active)
            kept_dram_gbps = np.where(active, dram_gbps, kept_dram_gbps)
            kept_slow_gbps = np.where(active, slow_gbps, kept_slow_gbps)

            conv_now = active & (delta <= _OUTER_TOLERANCE * scale)
            still_active = active & ~conv_now

            # The damped map image - the step the scalar solver takes
            # every iteration, and the step every converging lane takes
            # as its last (scalar damps *before* checking the break).
            damped = np.stack([
                dram_latency_ns + _OUTER_DAMPING * (
                    new_dram - dram_latency_ns),
                slow_latency_ns + _OUTER_DAMPING * (
                    new_slow - slow_latency_ns),
                dram_rfo_ns + _OUTER_DAMPING * (
                    new_dram_rfo - dram_rfo_ns),
                slow_rfo_ns + _OUTER_DAMPING * (
                    new_slow_rfo - slow_rfo_ns),
                new_dram_escalation,
                new_slow_escalation,
            ])

            if accelerate:
                current_x = np.stack([
                    dram_latency_ns, slow_latency_ns, dram_rfo_ns,
                    slow_rfo_ns, dram_escalation, slow_escalation])
                residual = damped - current_x
                step = damped
                if previous_x is not None and previous_residual is not None:
                    delta_x = current_x - previous_x
                    delta_r = residual - previous_residual
                    denominator = (delta_r * delta_r).sum(axis=0)
                    safe_denominator = np.where(
                        denominator > 0, denominator, 1.0)
                    gamma = (residual * delta_r).sum(
                        axis=0) / safe_denominator
                    candidate = current_x + residual - gamma * (
                        delta_x + delta_r)
                    # Escalations are clamped to their physical range;
                    # a secant step outside it is merely overshoot.
                    candidate[4] = np.clip(candidate[4], 1.0,
                                           MAX_ESCALATION)
                    candidate[5] = np.clip(candidate[5], 1.0,
                                           MAX_ESCALATION)
                    valid = ((denominator > 1e-30) &
                             np.isfinite(candidate).all(axis=0) &
                             (candidate[:4] > 0).all(axis=0))
                    step = np.where(valid, candidate, damped)
                previous_x = current_x
                previous_residual = residual
            else:
                step = damped

            # Converging lanes take the damped step (scalar semantics);
            # the rest of the active lanes take the (possibly
            # accelerated) step; frozen lanes hold.
            def advance(row: int, current: np.ndarray) -> np.ndarray:
                return np.where(
                    conv_now, damped[row],
                    np.where(still_active, step[row], current))

            dram_latency_ns = advance(0, dram_latency_ns)
            slow_latency_ns = advance(1, slow_latency_ns)
            dram_rfo_ns = advance(2, dram_rfo_ns)
            slow_rfo_ns = advance(3, slow_rfo_ns)
            dram_escalation = advance(4, dram_escalation)
            slow_escalation = advance(5, slow_escalation)

            converged = converged | conv_now
            active = still_active
            if not bool(active.any()):
                break

        assert kept_flow is not None and kept_breakdown is not None
        return _BatchSolution(
            dram_latency_ns=dram_latency_ns,
            slow_latency_ns=slow_latency_ns,
            dram_rfo_ns=dram_rfo_ns,
            slow_rfo_ns=slow_rfo_ns,
            dram_escalation=dram_escalation,
            slow_escalation=slow_escalation,
            flow=kept_flow,
            breakdown=kept_breakdown,
            dram_gbps=kept_dram_gbps,
            slow_gbps=kept_slow_gbps,
            converged=converged,
            iterations=iterations,
        )

    def _materialize(self, problem: _BatchProblem,
                     solution: _BatchSolution) -> List[RunResult]:
        """Build per-element ``RunResult``s from the solved lane arrays.

        The post-loop recomputation matches `_run` exactly: observed /
        tier / RFO latencies from the final (damped) state, runtime
        from the retained breakdown, utilizations from the retained
        per-tier traffic.
        """
        x_req = problem.x_req
        tier_read = (x_req * solution.dram_latency_ns +
                     (1.0 - x_req) * solution.slow_latency_ns)
        observed = (problem.near_buffer_hit * NEAR_BUFFER_LATENCY_NS +
                    (1.0 - problem.near_buffer_hit) * tier_read)
        rfo = (x_req * solution.dram_rfo_ns +
               (1.0 - x_req) * solution.slow_rfo_ns)
        runtime_s = solution.breakdown.cycles / (
            problem.params.frequency_ghz * 1e9)
        dram_util = utilization_for_bandwidth_batch(
            problem.dram_lanes,
            solution.dram_gbps + problem.dram_external_gbps)
        slow_util = utilization_for_bandwidth_batch(
            problem.slow_lanes,
            solution.slow_gbps + problem.slow_external_gbps)

        breakdowns = _lane_records(CycleBreakdown, solution.breakdown)
        prefetches = _lane_records(PrefetchProfile, solution.flow)
        labels = [placement.describe() for placement in problem.placements]
        if problem.size >= COLUMNAR_EMIT_MIN_LANES:
            counters = emit_counters_batch(
                problem.workloads, problem.platforms, problem.demands,
                solution.flow, solution.breakdown, labels,
                problem.noises, problem.seeds)
        else:
            counters = [
                emit_counters(workload, platform, demand, prefetch,
                              breakdown, label, noise=noise, seed=seed)
                for (workload, platform, demand, prefetch, breakdown, label,
                     noise, seed) in zip(
                    problem.workloads, problem.platforms, problem.demands,
                    prefetches, breakdowns, labels, problem.noises,
                    problem.seeds)]
        # One ``tolist`` per column gives the Python floats/bools that
        # ``float(array[i])`` would, without a numpy scalar per field.
        observed, tier_read, rfo = (observed.tolist(), tier_read.tolist(),
                                    rfo.tolist())
        dram_latency_ns = solution.dram_latency_ns.tolist()
        slow_latency_ns = solution.slow_latency_ns.tolist()
        dram_gbps = solution.dram_gbps.tolist()
        slow_gbps = solution.slow_gbps.tolist()
        dram_util, slow_util = dram_util.tolist(), slow_util.tolist()
        runtime_s = runtime_s.tolist()
        converged = solution.converged.tolist()
        has_slow = problem.has_slow.tolist()

        results: List[RunResult] = []
        for i in range(problem.size):
            breakdown = breakdowns[i]
            results.append(RunResult(
                workload=problem.workloads[i],
                placement=problem.placements[i],
                platform=problem.platforms[i],
                breakdown=breakdown,
                demand=problem.demands[i],
                prefetch=prefetches[i],
                counters=counters[i],
                observed_read_ns=observed[i],
                tier_read_ns=tier_read[i],
                rfo_ns=rfo[i],
                dram_latency_ns=dram_latency_ns[i],
                slow_latency_ns=(slow_latency_ns[i] if has_slow[i]
                                 else None),
                dram_gbps=dram_gbps[i],
                slow_gbps=slow_gbps[i],
                dram_utilization=dram_util[i],
                slow_utilization=slow_util[i] if has_slow[i] else 0.0,
                runtime_s=runtime_s[i],
                converged=converged[i] and breakdown.converged,
            ))
        return results

    def profile(self, workload: WorkloadSpec,
                placement: Optional[Placement] = None) -> ProfiledRun:
        """Run and return only what a perf wrapper would capture."""
        return self.run(workload, placement).profiled()

    def profile_phased(self, phased, placement: Optional[Placement] = None
                       ) -> ProfiledRun:
        """Profile a phased workload window by window (Fig. 8 style).

        ``phased`` is a :class:`~repro.workloads.phases.PhasedWorkload`.
        Each phase executes under the same placement and contributes
        one per-window :class:`~repro.core.counters.CounterSample`; the
        aggregate sample is their counter-wise sum, exactly what a
        whole-run perf session would have recorded over the sampling
        windows.
        """
        windows = []
        results = []
        for window in phased.windows():
            result = self.run(window, placement)
            results.append(result)
            windows.append(result.counters)
        merged = windows[0]
        for sample in windows[1:]:
            merged = merged.merged(sample)
        reference = results[0].profiled()
        return ProfiledRun(
            sample=merged,
            platform_family=reference.platform_family,
            tier=reference.tier,
            frequency_ghz=reference.frequency_ghz,
            duration_s=sum(result.runtime_s for result in results),
            label=phased.name,
            windows=tuple(windows),
        )

    # -- colocation -----------------------------------------------------------
    def run_colocated(self, jobs: Sequence[Tuple[WorkloadSpec, Placement]],
                      max_iterations: int = 120,
                      tolerance: float = 1e-6,
                      stats: Optional[Dict[str, object]] = None
                      ) -> List[RunResult]:
        """Execute several workloads sharing this machine's memory.

        Solves the joint steady state: each workload's traffic raises
        tier utilization for everyone, which feeds back into everyone's
        latency and runtime.  Returns one :class:`RunResult` per job, in
        order; each result's counters reflect the interference.

        One group of jobs sharing one memory system; delegates to
        :meth:`run_colocated_groups`.  ``stats`` (if given) receives
        ``joint_converged``, ``joint_iterations``, and the summed
        solver telemetry, so an exhausted iteration cap is observable
        instead of silently returning the last iterate.
        """
        return self.run_colocated_groups(
            jobs, None, max_iterations=max_iterations,
            tolerance=tolerance, stats=stats)

    def run_colocated_groups(
            self, jobs: Sequence[Tuple[WorkloadSpec, Placement]],
            groups: Optional[Sequence[Sequence[int]]] = None,
            *, max_iterations: int = 120, tolerance: float = 1e-6,
            stats: Optional[Dict[str, object]] = None) -> List[RunResult]:
        """Jointly solve many *independent* colocation groups at once.

        ``groups`` partitions ``jobs`` (by index) into disjoint sets of
        jobs that share one node's memory system; traffic couples jobs
        within a group only.  ``None`` means one group of all jobs
        (classic :meth:`run_colocated`).

        The lanes are packed **once**; each joint iteration updates
        only the per-lane external-traffic arrays and re-solves the
        whole batch accelerated, warm-started from the previous
        iterate's solver state (the per-job request share never changes
        across iterations, so the previous iterate is always the
        nearest point).  Compared to re-packing per iteration this
        removes the dominant per-round cost when thousands of small
        groups - a fleet shard - are solved together.
        """
        jobs = list(jobs)
        if groups is None:
            groups = [tuple(range(len(jobs)))] if jobs else []
        groups = [tuple(int(i) for i in group) for group in groups]
        seen: set = set()
        for group in groups:
            for index in group:
                if not 0 <= index < len(jobs):
                    raise ValueError(
                        f"group index {index} out of range for "
                        f"{len(jobs)} jobs")
                if index in seen:
                    raise ValueError(
                        f"job index {index} appears in two groups")
                seen.add(index)
        if len(seen) != len(jobs):
            raise ValueError("groups must partition jobs: "
                             f"{len(jobs) - len(seen)} jobs unassigned")
        if not jobs:
            if stats is not None:
                stats.update(joint_converged=True, joint_iterations=0,
                             outer_iterations=0, nonconverged=0,
                             groups=0)
            return []
        with maybe_span("machine.run_colocated", jobs=len(jobs),
                        groups=len(groups),
                        platform=self.platform.name) as span:
            if memory_mod._LATENCY_FAULT_HOOK is not None:
                # Stateful scalar fault hooks cannot thread the packed
                # path; solve group by group via run_batch, which
                # falls back to the scalar loop itself.
                results, joint_stats = self._run_colocated_groups_slow(
                    jobs, groups, max_iterations, tolerance)
            else:
                results, joint_stats = self._run_colocated_groups(
                    jobs, groups, max_iterations, tolerance)
            if span is not None:
                span.annotate(**joint_stats)
            if stats is not None:
                stats.update(joint_stats)
            return results

    def _run_colocated_groups(self, jobs, groups, max_iterations,
                              tolerance):
        count = len(jobs)
        problem = self._pack_batch(jobs, [None] * count)

        group_id = np.zeros(count, dtype=np.int64)
        for gid, group in enumerate(groups):
            for index in group:
                group_id[index] = gid
        # Slow-tier traffic couples only lanes sharing the same device
        # within the same group.
        slow_keys: Dict[Tuple[int, str], int] = {}
        slow_key_id = np.full(count, -1, dtype=np.int64)
        for index, placement in enumerate(problem.placements):
            if placement.device is not None:
                key = (int(group_id[index]), placement.device)
                slow_key_id[index] = slow_keys.setdefault(
                    key, len(slow_keys))
        shared_slow = slow_key_id >= 0

        state_names = ("dram_latency_ns", "slow_latency_ns",
                       "dram_rfo_ns", "slow_rfo_ns",
                       "dram_escalation", "slow_escalation")
        dram_traffic = np.zeros(count)
        slow_traffic = np.zeros(count)
        solution: Optional[_BatchSolution] = None
        joint_converged = False
        joint_iterations = 0
        total_outer = 0
        replay_resolves = 0
        for _ in range(max_iterations):
            joint_iterations += 1
            group_dram = np.zeros(len(groups))
            np.add.at(group_dram, group_id, dram_traffic)
            problem.dram_external_gbps[:] = (
                group_dram[group_id] - dram_traffic)
            problem.slow_external_gbps[:] = 0.0
            if slow_keys:
                key_slow = np.zeros(len(slow_keys))
                np.add.at(key_slow, slow_key_id[shared_slow],
                          slow_traffic[shared_slow])
                problem.slow_external_gbps[shared_slow] = (
                    key_slow[slow_key_id[shared_slow]] -
                    slow_traffic[shared_slow])

            if solution is None:
                state = self._initial_state(problem)
            else:
                state = {name: getattr(solution, name).copy()
                         for name in state_names}
            solution = self._solve_batch(problem, state, accelerate=True)
            if not bool(solution.converged.all()):
                index = np.flatnonzero(~solution.converged)
                replay_resolves += int(index.size)
                sub = self._solve_batch(
                    problem.subset(index),
                    self._initial_state(problem.subset(index)),
                    accelerate=False)
                solution.splice(sub, index)
            total_outer += int(solution.iterations.sum())

            new_dram = solution.dram_gbps
            new_slow = np.where(problem.has_slow, solution.slow_gbps,
                                0.0)
            worst = max(
                float(np.max(np.abs(new_dram - dram_traffic) /
                             np.maximum(1.0, np.maximum(
                                 new_dram, dram_traffic)))),
                float(np.max(np.abs(new_slow - slow_traffic) /
                             np.maximum(1.0, np.maximum(
                                 new_slow, slow_traffic)))))
            dram_traffic += _OUTER_DAMPING * (new_dram - dram_traffic)
            slow_traffic += _OUTER_DAMPING * (new_slow - slow_traffic)
            if worst <= tolerance:
                joint_converged = True
                break

        results = self._materialize(problem, solution)
        joint_stats: Dict[str, object] = {
            "joint_converged": joint_converged,
            "joint_iterations": joint_iterations,
            "outer_iterations": total_outer,
            "nonconverged": sum(1 for r in results if not r.converged),
            "groups": len(groups),
            "replay_resolves": replay_resolves,
        }
        return results, joint_stats

    def _run_colocated_groups_slow(self, jobs, groups, max_iterations,
                                   tolerance):
        """Group-by-group fallback used under scalar fault hooks."""
        results: List[Optional[RunResult]] = [None] * len(jobs)
        merged: Dict[str, object] = {
            "joint_converged": True, "joint_iterations": 0,
            "outer_iterations": 0, "nonconverged": 0,
            "groups": len(groups),
        }
        for group in groups:
            subset = [jobs[index] for index in group]
            sub_results, sub_stats = self._run_colocated(
                subset, max_iterations, tolerance)
            for index, result in zip(group, sub_results):
                results[index] = result
            merged["joint_converged"] = (
                bool(merged["joint_converged"]) and
                bool(sub_stats["joint_converged"]))
            merged["joint_iterations"] = max(
                int(merged["joint_iterations"]),
                int(sub_stats["joint_iterations"]))
            merged["outer_iterations"] = (
                int(merged["outer_iterations"]) +
                int(sub_stats["outer_iterations"]))
            merged["nonconverged"] = (
                int(merged["nonconverged"]) +
                int(sub_stats["nonconverged"]))
        return results, merged

    def _run_colocated(self, jobs, max_iterations, tolerance):
        warm_cache = WarmStartCache()
        traffic: List[Dict[str, float]] = [dict() for _ in jobs]
        results: List[RunResult] = []
        joint_converged = False
        joint_iterations = 0
        total_outer = 0
        for _ in range(max_iterations):
            joint_iterations += 1
            externals: List[Dict[str, float]] = []
            for index in range(len(jobs)):
                external: Dict[str, float] = {}
                for other_index, other in enumerate(traffic):
                    if other_index == index:
                        continue
                    for tier, gbps in other.items():
                        external[tier] = external.get(tier, 0.0) + gbps
                externals.append(external)

            solve_stats: Dict[str, object] = {}
            results = self.run_batch(
                jobs, external_traffic=externals, accelerate=True,
                warm_cache=warm_cache, stats=solve_stats)
            total_outer += int(solve_stats.get("outer_iterations", 0))

            new_traffic: List[Dict[str, float]] = []
            for (workload, placement), result in zip(jobs, results):
                contribution: Dict[str, float] = {
                    "dram": result.dram_gbps}
                if placement.device is not None:
                    contribution[placement.device] = result.slow_gbps
                new_traffic.append(contribution)

            worst = 0.0
            for old, new in zip(traffic, new_traffic):
                tiers = set(old) | set(new)
                for tier in tiers:
                    prev = old.get(tier, 0.0)
                    curr = new.get(tier, 0.0)
                    worst = max(worst,
                                abs(curr - prev) / max(1.0, curr, prev))
            damped: List[Dict[str, float]] = []
            for old, new in zip(traffic, new_traffic):
                tiers = set(old) | set(new)
                damped.append({
                    tier: old.get(tier, 0.0) + _OUTER_DAMPING * (
                        new.get(tier, 0.0) - old.get(tier, 0.0))
                    for tier in tiers
                })
            traffic = damped
            if worst <= tolerance:
                joint_converged = True
                break
        joint_stats: Dict[str, object] = {
            "joint_converged": joint_converged,
            "joint_iterations": joint_iterations,
            "outer_iterations": total_outer,
            "nonconverged": sum(1 for r in results if not r.converged),
        }
        return results, joint_stats
