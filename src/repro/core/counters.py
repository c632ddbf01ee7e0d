"""Performance-counter vocabulary shared by the simulator and CAMP.

This module reproduces Table 5 of the paper: the Intel PMU counters that
CAMP reads (``P1``-``P17``), plus the architectural cycle and instruction
counters that every model normalizes against.

The paper's artifact reads these counters through Linux ``perf``; in this
reproduction the :class:`~repro.uarch.machine.Machine` substrate emits
them from an analytic microarchitectural model.  Either way, CAMP only
ever sees a :class:`CounterSample` - a flat mapping from counter id to an
event count - so the prediction code is oblivious to whether the numbers
came from silicon or from the simulator.

Counter identifiers follow the paper's ``P``-numbering.  Where the paper
names the underlying Intel event (e.g. ``OFFCORE_REQUESTS_OUTSTANDING``),
the :class:`CounterSpec` records it for documentation purposes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple


class Counter(enum.Enum):
    """The PMU counters of Table 5, plus cycles and instructions.

    Members are identified by the paper's ``P`` index.  ``CYCLES`` and
    ``INSTRUCTIONS`` correspond to the fixed architectural counters that
    the paper omits from the table ("including the cycle-count counter").
    """

    CYCLES = "cycles"
    INSTRUCTIONS = "instructions"
    #: #stall cycles on L1-miss demand loads (P1, SKX model).
    STALLS_L1D_MISS = "P1"
    #: #stall cycles on L2-miss demand loads (P2, SPR/EMR model).
    STALLS_L2_MISS = "P2"
    #: #stall cycles on L3-miss demand loads (P3) - the s_LLC proxy.
    STALLS_L3_MISS = "P3"
    #: Load instructions missing L1 (P4).
    L1_MISS = "P4"
    #: Load instructions missing L1 but hitting the Line Fill Buffer (P5).
    LFB_HIT = "P5"
    #: #stall cycles where the Store Buffer was full (P6) - the s_SB proxy.
    BOUND_ON_STORES = "P6"
    #: All L1 prefetch requests to offcore (P7, SKX).
    PF_L1D_ANY_RESPONSE = "P7"
    #: L1 prefetch requests to offcore that hit in L3 (P8, SKX).
    PF_L1D_L3_HIT = "P8"
    #: L2 prefetch data reads, any response type (P9, derivation only).
    PF_L2_ANY_RESPONSE = "P9"
    #: L2 prefetch reads that hit in the L3 (P10, derivation only).
    PF_L2_L3_HIT = "P10"
    #: Outstanding demand data reads, summed per cycle (P11, derivation only).
    ORO_DEMAND_RD = "P11"
    #: Demand data read requests sent to offcore (P12).
    OR_DEMAND_RD = "P12"
    #: #cycles with at least one pending demand read (P13) - memory-active C.
    ORO_CYC_W_DEMAND_RD = "P13"
    #: Uncore CHA LLC lookups, prefetch reads (P14, SPR/EMR).
    LLC_LOOKUP_PF_RD = "P14"
    #: Uncore CHA LLC lookups, all requests (P15, SPR/EMR).
    LLC_LOOKUP_ALL = "P15"
    #: TOR inserts: prefetches missing the snoop filter (P16, SPR/EMR).
    TOR_INS_IA_PREF = "P16"
    #: TOR inserts: prefetches hitting the snoop filter (P17, SPR/EMR).
    TOR_INS_IA_HIT_PREF = "P17"
    #: Uncore DRAM CAS counts (reads / writes).  Not part of the Table 5
    #: model inputs - these are the standard memory-bandwidth monitoring
    #: events (UNC_M_CAS_COUNT.*) every tiering baseline and the
    #: saturation-aware extension use to observe traffic.
    UNC_CAS_RD = "unc_cas_rd"
    UNC_CAS_WR = "unc_cas_wr"

    @property
    def paper_index(self) -> Optional[int]:
        """The ``P`` index from Table 5, or ``None`` for fixed counters."""
        if self.value.startswith("P"):
            return int(self.value[1:])
        return None


@dataclass(frozen=True)
class CounterSpec:
    """Descriptive metadata for one Table 5 counter."""

    counter: Counter
    #: Paper's one-line description.
    description: str
    #: Name of the underlying Intel event family, when the paper gives one.
    intel_event: str = ""
    #: Platforms whose final model uses the counter ("skx", "spr", "emr").
    used_by: Tuple[str, ...] = ()
    #: True for counters that appear only during model derivation and
    #: cancel out of the final predictor (P9-P11 in the paper).
    derivation_only: bool = False


#: Table 5, reproduced as structured metadata.  ``used_by`` mirrors the
#: dagger/double-dagger annotations in the paper.
COUNTER_TABLE: Tuple[CounterSpec, ...] = (
    CounterSpec(Counter.STALLS_L1D_MISS, "#s on L1 miss demand load",
                "CYCLE_ACTIVITY.STALLS_L1D_MISS", used_by=("skx",)),
    CounterSpec(Counter.STALLS_L2_MISS, "#s on L2 miss demand load",
                "CYCLE_ACTIVITY.STALLS_L2_MISS",
                used_by=("skx", "spr", "emr")),
    CounterSpec(Counter.STALLS_L3_MISS, "#s on L3 miss demand load",
                "CYCLE_ACTIVITY.STALLS_L3_MISS",
                used_by=("skx", "spr", "emr")),
    CounterSpec(Counter.L1_MISS, "Load instructions missing L1",
                "MEM_LOAD_RETIRED.L1_MISS", used_by=("skx", "spr", "emr")),
    CounterSpec(Counter.LFB_HIT, "Load instructions missing L1, hitting LFB",
                "MEM_LOAD_RETIRED.FB_HIT", used_by=("skx", "spr", "emr")),
    CounterSpec(Counter.BOUND_ON_STORES, "#s where the Store Buffer was full",
                "EXE_ACTIVITY.BOUND_ON_STORES",
                used_by=("skx", "spr", "emr")),
    CounterSpec(Counter.PF_L1D_ANY_RESPONSE,
                "All L1 prefetch requests to offcore",
                "OCR.HWPF_L1D.ANY_RESPONSE", used_by=("skx",)),
    CounterSpec(Counter.PF_L1D_L3_HIT,
                "L1 prefetch to offcore that hit L3",
                "OCR.HWPF_L1D.L3_HIT", used_by=("skx",)),
    CounterSpec(Counter.PF_L2_ANY_RESPONSE,
                "L2 prefetch data reads, any response type",
                "OCR.HWPF_L2_RD.ANY_RESPONSE", derivation_only=True),
    CounterSpec(Counter.PF_L2_L3_HIT,
                "L2 prefetch reads that hit in the L3",
                "OCR.HWPF_L2_RD.L3_HIT", derivation_only=True),
    CounterSpec(Counter.ORO_DEMAND_RD,
                "Outstanding demand data read per cycle",
                "OFFCORE_REQUESTS_OUTSTANDING.DEMAND_DATA_RD",
                derivation_only=True),
    CounterSpec(Counter.OR_DEMAND_RD,
                "Demand data read requests sent to offcore",
                "OFFCORE_REQUESTS.DEMAND_DATA_RD",
                used_by=("skx", "spr", "emr")),
    CounterSpec(Counter.ORO_CYC_W_DEMAND_RD,
                "#c when demand read request is pending",
                "OFFCORE_REQUESTS_OUTSTANDING.CYCLES_WITH_DEMAND_DATA_RD",
                used_by=("skx", "spr", "emr")),
    CounterSpec(Counter.LLC_LOOKUP_PF_RD,
                "Cache & snoop filter lookups; prefetches",
                "UNC_CHA_LLC_LOOKUP.DATA_READ_PREF", used_by=("spr", "emr")),
    CounterSpec(Counter.LLC_LOOKUP_ALL,
                "Cache & snoop filter lookups; any request",
                "UNC_CHA_LLC_LOOKUP.ALL", used_by=("spr", "emr")),
    CounterSpec(Counter.TOR_INS_IA_PREF,
                "Prefetch that misses in the snoop filter",
                "UNC_CHA_TOR_INSERTS.IA_MISS_PREF", used_by=("spr", "emr")),
    CounterSpec(Counter.TOR_INS_IA_HIT_PREF,
                "Prefetch that hits in the snoop filter",
                "UNC_CHA_TOR_INSERTS.IA_HIT_PREF", used_by=("spr", "emr")),
)

_SPEC_BY_COUNTER: Dict[Counter, CounterSpec] = {
    spec.counter: spec for spec in COUNTER_TABLE
}


def counter_spec(counter: Counter) -> CounterSpec:
    """Return Table 5 metadata for ``counter``.

    Raises :class:`KeyError` for ``CYCLES``/``INSTRUCTIONS``, which are
    architectural fixed counters outside the table.
    """
    return _SPEC_BY_COUNTER[counter]


def counters_for_platform(platform_family: str) -> Tuple[Counter, ...]:
    """The counters the final model reads on a platform family.

    ``platform_family`` is one of ``"skx"``, ``"spr"`` or ``"emr"``.  The
    returned tuple includes ``CYCLES`` and ``INSTRUCTIONS``; the paper
    reports the totals as "11 counters on SKX, 12 on SPR/EMR" counting
    only cycles on top of the Table 5 events.
    """
    family = platform_family.lower()
    if family not in ("skx", "spr", "emr"):
        raise ValueError(f"unknown platform family: {platform_family!r}")
    model_counters = tuple(
        spec.counter for spec in COUNTER_TABLE if family in spec.used_by
    )
    return (Counter.CYCLES, Counter.INSTRUCTIONS) + model_counters


class CounterSample:
    """A single profiling sample: counter id -> event count.

    This is the only data CAMP receives from a profiled execution.  It
    behaves like a read-only mapping, with a few conveniences:

    - item access by :class:`Counter` or by the paper's string id
      (``sample["P3"]``),
    - derived quantities used throughout the models
      (:attr:`latency_cycles`, :attr:`mlp`, :attr:`ipc`, ...),
    - arithmetic helpers for aggregating samples over time windows.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[Counter, float]):
        clean: Dict[Counter, float] = {}
        for key, value in values.items():
            counter = key if isinstance(key, Counter) else Counter(key)
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"non-finite count for {counter}: {value}")
            if value < 0:
                raise ValueError(f"negative count for {counter}: {value}")
            clean[counter] = value
        if Counter.CYCLES not in clean:
            raise ValueError("a CounterSample must include CYCLES")
        self._values = clean

    @classmethod
    def unchecked(cls, values: Dict[Counter, float]) -> "CounterSample":
        """Adopt ``values`` without per-value validation.

        For producers that validated a whole batch at once (the PMU's
        columnar emission): ``values`` must already be what
        ``__init__`` would build - :class:`Counter` keys including
        ``CYCLES``, finite non-negative Python floats - and is taken
        over, not copied.
        """
        sample = cls.__new__(cls)
        sample._values = values
        return sample

    # -- value semantics ---------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CounterSample):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(frozenset(self._values.items()))

    # -- mapping protocol -------------------------------------------------
    def __getitem__(self, key) -> float:
        counter = key if isinstance(key, Counter) else Counter(key)
        return self._values.get(counter, 0.0)

    def __contains__(self, key) -> bool:
        counter = key if isinstance(key, Counter) else Counter(key)
        return counter in self._values

    def __iter__(self) -> Iterator[Counter]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> Iterable[Tuple[Counter, float]]:
        return self._values.items()

    def as_dict(self) -> Dict[Counter, float]:
        """A shallow copy of the raw counter values."""
        return dict(self._values)

    def __repr__(self) -> str:
        cycles = self._values.get(Counter.CYCLES, 0.0)
        return (f"CounterSample(cycles={cycles:.3g}, "
                f"n_counters={len(self._values)})")

    # -- derived quantities ------------------------------------------------
    @property
    def cycles(self) -> float:
        """Total core cycles ``c`` - the normalization base of every model."""
        return self._values[Counter.CYCLES]

    @property
    def instructions(self) -> float:
        return self[Counter.INSTRUCTIONS]

    @property
    def ipc(self) -> float:
        """Instructions per cycle; 0 when the sample lacks instructions."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def memory_active_cycles(self) -> float:
        """``C``: cycles with >=1 pending offcore demand read (P13)."""
        return self[Counter.ORO_CYC_W_DEMAND_RD]

    @property
    def demand_reads(self) -> float:
        """``N``: demand data reads sent offcore (P12)."""
        return self[Counter.OR_DEMAND_RD]

    @property
    def outstanding_read_cycles(self) -> float:
        """Integral of outstanding demand reads over cycles (P11)."""
        return self[Counter.ORO_DEMAND_RD]

    @property
    def latency_cycles(self) -> float:
        """Average offcore demand-read latency in cycles (Little's law).

        ``L = P11 / P12``: occupancy integral divided by request count.
        Returns 0 when the workload issued no offcore demand reads.
        """
        reads = self.demand_reads
        if reads <= 0:
            return 0.0
        return self.outstanding_read_cycles / reads

    @property
    def mlp(self) -> float:
        """Average memory-level parallelism while memory-active.

        ``MLP = P11 / P13``: mean number of outstanding demand reads over
        the cycles where at least one is pending.  Returns 1.0 when the
        workload never had a pending read (the neutral value for the
        models, which divide by MLP).
        """
        active = self.memory_active_cycles
        if active <= 0:
            return 1.0
        return max(1.0, self.outstanding_read_cycles / active)

    @property
    def aol(self) -> float:
        """SoarAlto's AOL metric: latency amortized over MLP (``L/MLP``)."""
        return self.latency_cycles / self.mlp

    # -- arithmetic --------------------------------------------------------
    def scaled(self, factor: float) -> "CounterSample":
        """All counts multiplied by ``factor`` (e.g. window weighting)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return CounterSample({k: v * factor for k, v in self._values.items()})

    def merged(self, other: "CounterSample") -> "CounterSample":
        """Counter-wise sum, as if the two windows were profiled as one."""
        merged = dict(self._values)
        for counter, value in other.items():
            merged[counter] = merged.get(counter, 0.0) + value
        return CounterSample(merged)


@dataclass(frozen=True)
class ProfiledRun:
    """A profiling run as CAMP's models consume it.

    Combines the raw :class:`CounterSample` with the contextual facts a
    perf wrapper would record alongside: which platform family produced
    the counters (the S_Cache mapping differs between SKX and SPR/EMR),
    which memory the workload ran on, and the wall-clock duration.
    """

    sample: CounterSample
    #: Platform family: "skx", "spr" or "emr".
    platform_family: str
    #: Memory backing the run: "dram", "numa", "cxl-a", ... (tier name).
    tier: str
    #: Core clock, for cycle<->ns conversions in the models.
    frequency_ghz: float = 2.2
    #: Wall-clock seconds, used only for bandwidth-style diagnostics.
    duration_s: float = 0.0
    #: Optional free-form label (workload name) for reporting.
    label: str = ""
    #: Optional per-window samples for time-series prediction (Fig. 8).
    windows: Tuple[CounterSample, ...] = field(default=())

    def __post_init__(self):
        if self.platform_family.lower() not in ("skx", "spr", "emr"):
            raise ValueError(
                f"unknown platform family: {self.platform_family!r}")
        if self.frequency_ghz <= 0:
            raise ValueError("frequency must be positive")

    @property
    def cycles(self) -> float:
        return self.sample.cycles

    @property
    def latency_ns(self) -> float:
        """Observed mean offcore demand-read latency in nanoseconds."""
        return self.sample.latency_cycles / self.frequency_ghz
