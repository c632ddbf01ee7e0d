"""Serialization for the objects the result cache persists.

This module is the single place that knows how to flatten the
simulator's dataclasses into plain dicts and rebuild them exactly.

Round-trips are lossless: every field is a float, int, bool, string, or
a nested dataclass of those, so ``from_dict(to_dict(x))`` reconstructs
``x`` bit-for-bit.  That exactness is load-bearing - it is what makes
warm-cache and cold-cache runs (and serial and parallel runs, which
share this code path) produce byte-identical reports.

Inside a :class:`~repro.runtime.store.ResultStore` record the dict
payload is encoded with :mod:`marshal` (see :func:`payload_to_bytes`):
C-speed both ways, floats stored as binary doubles rather than decimal
strings, and loading never executes code.  Cache *keys* remain
canonical JSON through :func:`repro.runtime.spec.canonical_json` -
payload encoding is a private store detail (docs/STORE.md), key
fingerprints are a public contract.
"""

from __future__ import annotations

import marshal
from dataclasses import fields
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.calibration import Calibration
from ..core.counters import Counter, CounterSample, ProfiledRun
from ..uarch.caches import DemandProfile
from ..uarch.config import MemoryDeviceConfig, PlatformConfig
from ..uarch.core import CycleBreakdown
from ..uarch.interleave import Placement
from ..uarch.machine import RunResult
from ..uarch.prefetcher import PrefetchProfile
from ..workloads.spec import WorkloadSpec

# ---------------------------------------------------------------------------
# Payload bytes: what actually lands inside a store record.
# ---------------------------------------------------------------------------

#: ``marshal`` data format version pinned into every record payload
#: (docs/STORE.md, "Payload encoding").
PAYLOAD_MARSHAL_VERSION = 4


def payload_to_bytes(payload: Dict[str, Any]) -> bytes:
    """Binary encoding of one cache payload.

    Payloads are plain data - dicts of floats, ints, bools, strings,
    and lists/dicts of those - which :func:`marshal.dumps` round-trips
    bit-for-bit at C speed; an earlier canonical-JSON encoding spent
    more time formatting floats than the store spent on I/O.  The
    format version is pinned, and a payload written by an incompatible
    interpreter simply fails :func:`payload_from_bytes`, which the
    store reads as corruption: a miss, never an error.
    """
    return marshal.dumps(payload, PAYLOAD_MARSHAL_VERSION)


def payload_from_bytes(raw: bytes) -> Dict[str, Any]:
    """Decode record payload bytes; ``ValueError`` on any damage.

    :func:`marshal.loads` constructs plain values only - unlike
    pickle, damaged or hostile payload bytes cannot execute code; they
    raise, and the store counts the record corrupt.
    """
    try:
        payload = marshal.loads(raw)
    except (EOFError, ValueError, TypeError) as exc:
        raise ValueError("undecodable payload bytes") from exc
    if not isinstance(payload, dict):
        raise ValueError("payload is not a dict")
    return payload


# ---------------------------------------------------------------------------
# Configuration objects.
# ---------------------------------------------------------------------------

def _field_reader(cls: type) -> Callable[[Any], Dict[str, Any]]:
    """A flat ``dataclasses.asdict`` for ``cls``: field order, new dict.

    ``asdict`` deep-copies every value on a recursive walk; for the
    scalar (float/int/str/bool/None) fields these dataclasses hold, the
    copy is the value itself, so reading the fields directly gives an
    equal dict - same keys, same order, same objects - at a fraction of
    the cost.  Nested fields (a platform's DRAM device, a workload's
    tags) are converted by the callers below.
    """
    names = tuple(f.name for f in fields(cls))
    read = attrgetter(*names)
    return lambda obj: dict(zip(names, read(obj)))


_device_fields = _field_reader(MemoryDeviceConfig)
_platform_fields = _field_reader(PlatformConfig)
_workload_fields = _field_reader(WorkloadSpec)
_placement_fields = _field_reader(Placement)
_breakdown_fields = _field_reader(CycleBreakdown)
_demand_fields = _field_reader(DemandProfile)
_prefetch_fields = _field_reader(PrefetchProfile)


def device_to_dict(device: MemoryDeviceConfig) -> Dict[str, Any]:
    return _device_fields(device)


def device_from_dict(data: Dict[str, Any]) -> MemoryDeviceConfig:
    return MemoryDeviceConfig(**data)


def platform_to_dict(platform: PlatformConfig) -> Dict[str, Any]:
    data = _platform_fields(platform)
    data["dram"] = device_to_dict(platform.dram)
    return data


def platform_from_dict(data: Dict[str, Any]) -> PlatformConfig:
    data = dict(data)
    data["dram"] = device_from_dict(data["dram"])
    return PlatformConfig(**data)


def workload_to_dict(workload: WorkloadSpec) -> Dict[str, Any]:
    data = _workload_fields(workload)
    data["tags"] = list(workload.tags)
    return data


def workload_from_dict(data: Dict[str, Any]) -> WorkloadSpec:
    data = dict(data)
    data["tags"] = tuple(data.get("tags", ()))
    return WorkloadSpec(**data)


def placement_to_dict(placement: Placement) -> Dict[str, Any]:
    return _placement_fields(placement)


def placement_from_dict(data: Dict[str, Any]) -> Placement:
    return Placement(**data)


# ---------------------------------------------------------------------------
# Counter samples and profiled runs.
# ---------------------------------------------------------------------------

#: Counter member <-> id string, as dict lookups: reading an enum
#: member's ``value`` or calling ``Counter(id)`` costs far more, 21
#: times per payload.
_COUNTER_IDS = {counter: counter.value for counter in Counter}
_COUNTERS_BY_ID = {counter.value: counter for counter in Counter}


def sample_to_dict(sample: CounterSample) -> Dict[str, float]:
    ids = _COUNTER_IDS
    return {ids[counter]: value for counter, value in sample.items()}


def sample_from_dict(data: Dict[str, float]) -> CounterSample:
    by_id = _COUNTERS_BY_ID
    # Unknown ids fall through to ``Counter(key)``'s ValueError.
    return CounterSample({by_id[key] if key in by_id else Counter(key):
                          value for key, value in data.items()})


def profiled_run_to_dict(run: ProfiledRun) -> Dict[str, Any]:
    return {
        "sample": sample_to_dict(run.sample),
        "platform_family": run.platform_family,
        "tier": run.tier,
        "frequency_ghz": run.frequency_ghz,
        "duration_s": run.duration_s,
        "label": run.label,
        "windows": [sample_to_dict(window) for window in run.windows],
    }


def profiled_run_from_dict(data: Dict[str, Any]) -> ProfiledRun:
    return ProfiledRun(
        sample=sample_from_dict(data["sample"]),
        platform_family=data["platform_family"],
        tier=data["tier"],
        frequency_ghz=data["frequency_ghz"],
        duration_s=data["duration_s"],
        label=data.get("label", ""),
        windows=tuple(sample_from_dict(window)
                      for window in data.get("windows", [])),
    )


# ---------------------------------------------------------------------------
# Full run results.
# ---------------------------------------------------------------------------

def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    return run_results_to_dicts([result])[0]


def run_results_to_dicts(results: Sequence[RunResult]
                         ) -> List[Dict[str, Any]]:
    """``[run_result_to_dict(result) for result in results]``, faster.

    A population shares a few workload and platform objects across
    many results; each distinct one is flattened once per call (keyed
    by identity, as in :func:`repro.runtime.spec.fingerprints`) and
    every payload then gets its *own* copy of the flattened dict, so
    no two payloads - which live on as memo entries - alias.  The list
    of results keeps every keyed object alive for the call.
    """
    results = list(results)
    workloads: Dict[int, Dict[str, Any]] = {}
    platforms: Dict[int, Dict[str, Any]] = {}
    payloads = []
    for result in results:
        workload = workloads.get(id(result.workload))
        if workload is None:
            workload = workloads[id(result.workload)] = \
                workload_to_dict(result.workload)
        platform = platforms.get(id(result.platform))
        if platform is None:
            platform = platforms[id(result.platform)] = \
                platform_to_dict(result.platform)
        payloads.append({
            "workload": {**workload, "tags": list(workload["tags"])},
            "placement": placement_to_dict(result.placement),
            "platform": {**platform, "dram": dict(platform["dram"])},
            "breakdown": _breakdown_fields(result.breakdown),
            "demand": _demand_fields(result.demand),
            "prefetch": _prefetch_fields(result.prefetch),
            "counters": sample_to_dict(result.counters),
            "observed_read_ns": result.observed_read_ns,
            "tier_read_ns": result.tier_read_ns,
            "rfo_ns": result.rfo_ns,
            "dram_latency_ns": result.dram_latency_ns,
            "slow_latency_ns": result.slow_latency_ns,
            "dram_gbps": result.dram_gbps,
            "slow_gbps": result.slow_gbps,
            "dram_utilization": result.dram_utilization,
            "slow_utilization": result.slow_utilization,
            "runtime_s": result.runtime_s,
            "converged": result.converged,
        })
    return payloads


def run_result_from_dict(data: Dict[str, Any]) -> RunResult:
    slow_latency_ns: Optional[float] = data["slow_latency_ns"]
    return RunResult(
        workload=workload_from_dict(data["workload"]),
        placement=placement_from_dict(data["placement"]),
        platform=platform_from_dict(data["platform"]),
        breakdown=CycleBreakdown(**data["breakdown"]),
        demand=DemandProfile(**data["demand"]),
        prefetch=PrefetchProfile(**data["prefetch"]),
        counters=sample_from_dict(data["counters"]),
        observed_read_ns=data["observed_read_ns"],
        tier_read_ns=data["tier_read_ns"],
        rfo_ns=data["rfo_ns"],
        dram_latency_ns=data["dram_latency_ns"],
        slow_latency_ns=slow_latency_ns,
        dram_gbps=data["dram_gbps"],
        slow_gbps=data["slow_gbps"],
        dram_utilization=data["dram_utilization"],
        slow_utilization=data["slow_utilization"],
        runtime_s=data["runtime_s"],
        converged=data["converged"],
    )


# ---------------------------------------------------------------------------
# Calibrations (already have a dict form; re-exported for symmetry).
# ---------------------------------------------------------------------------

def calibration_to_dict(calibration: Calibration) -> Dict[str, Any]:
    return calibration.to_dict()


def calibration_from_dict(data: Dict[str, Any]) -> Calibration:
    return Calibration.from_dict(data)
