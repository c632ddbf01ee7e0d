"""Run specifications and the content-addressed cache-key recipe.

A simulated execution is a pure function of its complete specification:
CAMP's substrate has no hidden state, so two runs with equal specs are
guaranteed to produce equal results.  :class:`RunSpec` captures that
complete specification - enough to rebuild the machine in another
process - and :func:`fingerprint` turns it into a stable hex key for
the :class:`~repro.runtime.store.ResultStore`.

Cache-key recipe (documented in ``docs/RUNTIME.md``):

1. Flatten the spec into plain dicts: every :class:`WorkloadSpec`
   field, the full platform config (including its DRAM device), the
   slow-tier device config actually referenced by the placement (other
   registered devices do not affect the run and are excluded), the
   placement triple, and the machine's ``noise``/``seed``.
2. Prefix a ``kind`` tag ("run" / "calibration") and the code version:
   ``repro.__version__`` plus :data:`CACHE_SCHEMA_VERSION`.  Bump the
   schema version whenever the simulator's semantics or the payload
   layout change - that orphans (never corrupts) all previous entries.
3. Serialize with :func:`canonical_json` (sorted keys, no whitespace,
   shortest-round-trip floats) and take the SHA-256 hex digest.

Any field change - a different device, thread count, queue knee, noise
level - therefore yields a different key, while re-describing the same
run always finds the same entry.

Every run-spec key, :meth:`RunSpec.fingerprint` included, is built by
:func:`fingerprints`, which writes the same bytes from per-call
fragments without rebuilding the shared config dicts once per spec.
:meth:`RunSpec.key_material` stays the reference it must match.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..uarch.config import MemoryDeviceConfig, PlatformConfig
from ..uarch.interleave import Placement
from ..uarch.machine import Machine, RunResult
from ..workloads.spec import WorkloadSpec
from . import serde

#: Version of the cache payload layout and simulator semantics.  Bump
#: to invalidate every previously-persisted result at once.
#: 2: scalar-primitive normalization for the batched solver's bitwise
#: replay contract (docs/SOLVER.md) shifts results at the ulp level.
#: 3: segment-backed store (docs/STORE.md) — payloads move from
#: per-entry JSON files into CRC-checked binary segment records.
#: 4: the calibration hyperbola fit moves from a MINPACK library call
#: to an in-tree Levenberg-Marquardt (``core/calibration.py``); its
#: ``(p, q)`` differ by <= 1e-4 relative, and calibration keys do not
#: name the fitter, so stored constants from the old fit are orphaned.
CACHE_SCHEMA_VERSION = 4


def code_version() -> str:
    """The code-version component of every cache key."""
    from .. import __version__
    return f"{__version__}+schema{CACHE_SCHEMA_VERSION}"


def canonical_json(data: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def fingerprint(data: Any) -> str:
    """SHA-256 hex digest of ``data``'s canonical JSON form."""
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """The complete, self-contained description of one simulated run.

    Carries everything :func:`~repro.runtime.executor.execute_run_spec`
    needs to rebuild the machine in a worker process: no live
    :class:`~repro.uarch.machine.Machine` reference, so specs pickle
    cheaply and hash stably.
    """

    workload: WorkloadSpec
    placement: Placement
    platform: PlatformConfig
    #: Resolved config of the slow device the placement references
    #: (``None`` for DRAM-only placements).  Captured eagerly so a
    #: machine with a custom device registry hashes differently from
    #: one using the global presets under the same device *name*.
    slow_device: Optional[MemoryDeviceConfig]
    noise: float
    seed: int

    @classmethod
    def from_machine(cls, machine: Machine, workload: WorkloadSpec,
                     placement: Optional[Placement] = None) -> "RunSpec":
        placement = placement or Placement.dram_only()
        slow_device = (machine.device(placement.device)
                       if placement.device is not None else None)
        return cls(workload=workload, placement=placement,
                   platform=machine.platform, slow_device=slow_device,
                   noise=machine.noise, seed=machine.seed)

    def machine(self) -> Machine:
        """Rebuild the (stateless) machine this spec describes."""
        devices: Dict[str, MemoryDeviceConfig] = {}
        if self.slow_device is not None:
            devices[self.slow_device.name] = self.slow_device
        return Machine(self.platform, devices=devices or None,
                       noise=self.noise, seed=self.seed)

    def key_material(self) -> Dict[str, Any]:
        """The dict the cache key hashes (see the module docstring)."""
        return {
            "kind": "run",
            "version": code_version(),
            "workload": serde.workload_to_dict(self.workload),
            "placement": serde.placement_to_dict(self.placement),
            "platform": serde.platform_to_dict(self.platform),
            "slow_device": (serde.device_to_dict(self.slow_device)
                            if self.slow_device is not None else None),
            "noise": self.noise,
            "seed": self.seed,
        }

    def fingerprint(self) -> str:
        # Every run key comes from the one builder below; the reference
        # recipe ``fingerprint(self.key_material())`` gives the same
        # bytes (pinned by tests/test_runtime_spec.py).
        return fingerprints([self])[0]

    def execute(self) -> RunResult:
        """Run the simulation this spec describes (pure, in-process)."""
        return self.machine().run(self.workload, self.placement)


@dataclass(frozen=True)
class CalibrationSpec:
    """The complete description of one CAMP calibration fit.

    Includes the microbenchmark suite itself: changing a calibration
    microbenchmark changes the fitted constants, so it must change the
    key.
    """

    platform: PlatformConfig
    device: MemoryDeviceConfig
    benchmarks: Tuple[WorkloadSpec, ...]
    noise: float
    seed: int

    @classmethod
    def from_machine(cls, machine: Machine, device: str,
                     benchmarks: Optional[Sequence[WorkloadSpec]] = None
                     ) -> "CalibrationSpec":
        if benchmarks is None:
            from ..workloads.microbench import calibration_suite
            benchmarks = calibration_suite()
        return cls(platform=machine.platform,
                   device=machine.device(device),
                   benchmarks=tuple(benchmarks),
                   noise=machine.noise, seed=machine.seed)

    def key_material(self) -> Dict[str, Any]:
        return {
            "kind": "calibration",
            "version": code_version(),
            "platform": serde.platform_to_dict(self.platform),
            "device": serde.device_to_dict(self.device),
            "benchmarks": [serde.workload_to_dict(bench)
                           for bench in self.benchmarks],
            "noise": self.noise,
            "seed": self.seed,
        }

    def fingerprint(self) -> str:
        return fingerprint(self.key_material())


def fingerprints(specs: Sequence[RunSpec]) -> List[str]:
    """The cache key of each run spec: ``fingerprint(key_material())``.

    A population repeats a few workload, platform and device objects
    across many specs, and flattening them dominates the per-spec key
    cost.  ``json.dumps(sort_keys=True)`` writes a nested dict exactly
    as it writes that dict alone, so each key string is assembled from
    canonical-JSON fragments in :meth:`RunSpec.key_material`'s sorted
    key order, and every distinct object is serialized once per call.

    Fragments are keyed by object identity, never by equality: ``1 ==
    1.0`` and ``0.0 == -0.0``, so equal specs can still serialize (and
    hash) differently.  The table lives for this call only - the list
    of specs keeps every keyed object alive, so no id is reused within
    it - and nothing accumulates across calls.
    """
    specs = list(specs)
    version = canonical_json(code_version())
    # One table per key field: identity -> canonical-JSON fragment.
    tables: Dict[str, Dict[int, str]] = {}

    def fragment(field: str, obj: Any,
                 to_dict: Callable[[Any], Any] = lambda value: value
                 ) -> str:
        table = tables.setdefault(field, {})
        text = table.get(id(obj))
        if text is None:
            text = table[id(obj)] = canonical_json(to_dict(obj))
        return text

    keys = []
    for spec in specs:
        material = (
            '{"kind":"run","noise":%s,"placement":%s,"platform":%s,'
            '"seed":%s,"slow_device":%s,"version":%s,"workload":%s}' % (
                fragment("noise", spec.noise),
                fragment("placement", spec.placement,
                         serde.placement_to_dict),
                fragment("platform", spec.platform,
                         serde.platform_to_dict),
                fragment("seed", spec.seed),
                ("null" if spec.slow_device is None else
                 fragment("slow_device", spec.slow_device,
                          serde.device_to_dict)),
                version,
                fragment("workload", spec.workload,
                         serde.workload_to_dict)))
        keys.append(hashlib.sha256(material.encode()).hexdigest())
    return keys
