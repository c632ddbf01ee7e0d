"""One-time platform calibration (paper section 4.4.1).

CAMP's constants - the hyperbola parameters ``(p, q)`` and the three
per-component scaling factors ``k`` - characterize the *hardware*, not
any workload.  They are learned once per (platform, slow-device) pair by
running the microbenchmark suite (:func:`repro.workloads.microbench.
calibration_suite`) on both DRAM and the slow tier, then fitting:

- ``(p, q)``: a Levenberg-Marquardt least-squares fit of the hyperbola
  ``f(AOL) = 1/(p + q/AOL)`` against each microbenchmark's measured
  latency-tolerance factor ``R_Lat/R_MLP - 1`` (Fig. 4f);
- ``k_drd``: least squares of measured ``S_DRd`` against
  ``f(AOL) * s_LLC/c``;
- ``k_cache``: least squares of measured ``S_Cache`` against
  ``R_LFB-hit * R_Mem * s_Cache/c``;
- ``k_store``: least squares of measured ``S_Store`` against
  ``s_SB/c``.

All "measured" values come from counter deltas between the two runs -
microbenchmark calibration is the one place CAMP is allowed to observe
slow-tier execution.

The fitting functions are pure (they take signature pairs), so they work
with counters from any source; :func:`calibrate` is the convenience
driver that profiles the suite on a :class:`~repro.uarch.machine.
Machine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cache import CacheModel, measured_cache_slowdown
from .drd import DrdModel, hyperbolic_tolerance, measured_drd_slowdown, \
    measured_tolerance
from .signature import Signature
from .store import StoreModel, measured_store_slowdown

#: Initial guess for the hyperbola fit: p ~= 1 (tolerance saturating at
#: the raw latency ratio), q sized for cycle-scale AOL values.
_HYPERBOLA_P0 = (1.5, 60.0)

#: Stopping rule of the hyperbola fit (MINPACK's default tolerance):
#: converged once every Jacobian column is orthogonal to the residual
#: to within this cosine, or once a step this small (relative to the
#: parameters) no longer lowers the squared error.
_LM_TOLERANCE = 1.49012e-8

#: Iteration cap of the hyperbola fit; real calibrations need ~20.
_LM_MAX_ITERATIONS = 500

#: Floor on the hyperbola's denominator, keeping the reciprocal finite.
_DENOMINATOR_FLOOR = 1e-9


@dataclass(frozen=True)
class Calibration:
    """The platform+device constants of CAMP's final model."""

    platform_family: str
    device: str
    drd: DrdModel
    cache: CacheModel
    store: StoreModel
    #: MLC-style idle latencies used by classification / interleaving.
    idle_latency_dram_ns: float
    idle_latency_slow_ns: float
    #: Number of microbenchmarks used for the fit (diagnostics).
    sample_count: int = 0

    def describe(self) -> Dict[str, float]:
        return {
            "p": self.drd.p,
            "q": self.drd.q,
            "k_drd": self.drd.k,
            "k_cache": self.cache.k,
            "k_store": self.store.k,
            "idle_dram_ns": self.idle_latency_dram_ns,
            "idle_slow_ns": self.idle_latency_slow_ns,
        }

    # -- persistence ---------------------------------------------------------
    # Calibration is a once-per-platform artifact; deployments save it
    # next to the machine's config and load it at job-submission time.

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable representation."""
        return {
            "platform_family": self.platform_family,
            "device": self.device,
            "sample_count": self.sample_count,
            "idle_latency_dram_ns": self.idle_latency_dram_ns,
            "idle_latency_slow_ns": self.idle_latency_slow_ns,
            "constants": self.describe(),
        }

    def to_json(self, indent: int = 2) -> str:
        import json
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Calibration":
        constants = data["constants"]
        return cls(
            platform_family=str(data["platform_family"]),
            device=str(data["device"]),
            drd=DrdModel(p=float(constants["p"]),
                         q=float(constants["q"]),
                         k=float(constants["k_drd"])),
            cache=CacheModel(k=float(constants["k_cache"])),
            store=StoreModel(k=float(constants["k_store"])),
            idle_latency_dram_ns=float(data["idle_latency_dram_ns"]),
            idle_latency_slow_ns=float(data["idle_latency_slow_ns"]),
            sample_count=int(data.get("sample_count", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "Calibration":
        import json
        return cls.from_dict(json.loads(text))


def fit_hyperbola(aol_values: Sequence[float],
                  tolerance_values: Sequence[float],
                  p0: Tuple[float, float] = _HYPERBOLA_P0
                  ) -> Tuple[float, float]:
    """Fit ``f(AOL) = 1/(p + q/AOL)`` to measured tolerance factors.

    Returns ``(p, q)``.  Points with non-positive tolerance (no latency
    growth at all) are kept - they anchor the low end of the curve -
    but clipped away from zero to keep the reciprocal finite.

    The fit is Levenberg-Marquardt with Marquardt's diagonal scaling
    and the analytic Jacobian ``df/dp = -f**2``, ``df/dq = -f**2/AOL``.
    Non-finite input raises :class:`ValueError`; a fit that does not
    converge within ``_LM_MAX_ITERATIONS`` raises :class:`RuntimeError`.
    """
    aol = np.asarray(aol_values, dtype=float)
    tol = np.asarray(tolerance_values, dtype=float)
    if aol.shape != tol.shape or aol.size < 2:
        raise ValueError("need >= 2 matching (AOL, tolerance) points")
    if not (np.isfinite(aol).all() and np.isfinite(tol).all()):
        raise ValueError("AOL and tolerance values must be finite")
    mask = aol > 0
    if mask.sum() < 2:
        raise ValueError("need >= 2 points with positive AOL")
    inverse_aol, tol = 1.0 / aol[mask], np.maximum(tol[mask], 1e-3)

    def evaluate(params):
        denominator = params[0] + params[1] * inverse_aol
        fit = 1.0 / np.maximum(denominator, _DENOMINATOR_FLOOR)
        residual = fit - tol
        return denominator, fit, residual, float(residual @ residual)

    params = np.array(p0, dtype=float)
    denominator, fit, residual, sse = evaluate(params)
    damping = 1e-3
    for _ in range(_LM_MAX_ITERATIONS):
        slope = np.where(denominator > _DENOMINATOR_FLOOR, -fit * fit, 0.0)
        jacobian = np.column_stack((slope, slope * inverse_aol))
        normal = jacobian.T @ jacobian
        gradient = jacobian.T @ residual
        if np.all(np.abs(gradient) <=
                  _LM_TOLERANCE * np.sqrt(np.diag(normal) * sse)):
            return float(params[0]), float(params[1])
        step = np.linalg.solve(
            normal + damping * np.diag(np.diag(normal)), -gradient)
        trial_params = params + step
        trial = evaluate(trial_params)
        if trial[-1] < sse:
            params = trial_params
            denominator, fit, residual, sse = trial
            damping *= 0.1
        elif np.all(np.abs(step) <=
                    _LM_TOLERANCE * (np.abs(params) + _LM_TOLERANCE)):
            # No step this small lowers the error: a floating-point
            # minimum, as with data the hyperbola fits exactly.
            return float(params[0]), float(params[1])
        else:
            damping *= 10.0
    raise RuntimeError(
        f"hyperbola fit did not converge in {_LM_MAX_ITERATIONS} "
        "iterations")


def _scale_factor(predictor: np.ndarray, measured: np.ndarray) -> float:
    """Non-negative least-squares slope through the origin."""
    denominator = float(np.dot(predictor, predictor))
    if denominator <= 0:
        return 0.0
    return max(0.0, float(np.dot(predictor, measured)) / denominator)


@dataclass(frozen=True)
class CalibrationSample:
    """One microbenchmark's DRAM and slow-tier signatures, with roles.

    ``roles`` says which fits the sample feeds: "drd" (latency
    sensitivity - pointer-chase sweeps), "cache" (prefetch timeliness -
    strided / sequential runs), "store" (SB backpressure - memset
    variants).  Role separation matters: a bandwidth-saturating
    sequential read would poison the hyperbolic latency-tolerance fit,
    because saturation inflates its latency ratio through contention the
    DRd model deliberately does not cover (paper 4.4.6).
    """

    dram: Signature
    slow: Signature
    roles: Tuple[str, ...]


#: Workload-tag -> calibration-role mapping used by :func:`calibrate`.
_TAG_ROLES = {
    "pointer-chase": "drd",
    "strided": "cache",
    "streaming": "cache",
    "store-heavy": "store",
}


def roles_for_tags(tags: Sequence[str]) -> Tuple[str, ...]:
    """Map microbenchmark tags onto calibration roles."""
    return tuple(sorted({_TAG_ROLES[tag] for tag in tags
                         if tag in _TAG_ROLES}))


def fit_from_samples(samples: Sequence[CalibrationSample],
                     platform_family: str, device: str,
                     idle_latency_dram_ns: float,
                     idle_latency_slow_ns: float) -> Calibration:
    """Build a :class:`Calibration` from role-tagged signature pairs."""
    drd_pairs = [(s.dram, s.slow) for s in samples if "drd" in s.roles]
    cache_pairs = [(s.dram, s.slow) for s in samples
                   if "cache" in s.roles]
    store_pairs = [(s.dram, s.slow) for s in samples
                   if "store" in s.roles]
    if len(drd_pairs) < 3:
        raise ValueError("need >= 3 'drd' samples for the hyperbola fit")
    if not cache_pairs:
        raise ValueError("need >= 1 'cache' sample")
    if not store_pairs:
        raise ValueError("need >= 1 'store' sample")

    aol = np.array([dram.aol for dram, _ in drd_pairs])
    tolerance = np.array(
        [measured_tolerance(dram, slow) for dram, slow in drd_pairs])
    p, q = fit_hyperbola(aol, tolerance)

    f_aol = np.array([hyperbolic_tolerance(a, p, q) for a in aol])
    drd_pred = f_aol * np.array(
        [dram.llc_stall_fraction for dram, _ in drd_pairs])
    drd_meas = np.array(
        [measured_drd_slowdown(dram, slow) for dram, slow in drd_pairs])
    k_drd = _scale_factor(drd_pred, drd_meas)

    cache_pred = np.array([
        dram.lfb_hit_ratio * dram.mem_prefetch_reliance *
        dram.cache_stall_fraction for dram, _ in cache_pairs])
    cache_meas = np.array(
        [measured_cache_slowdown(dram, slow)
         for dram, slow in cache_pairs])
    k_cache = _scale_factor(cache_pred, cache_meas)

    store_pred = np.array(
        [dram.sb_stall_fraction for dram, _ in store_pairs])
    store_meas = np.array(
        [measured_store_slowdown(dram, slow)
         for dram, slow in store_pairs])
    k_store = _scale_factor(store_pred, store_meas)

    return Calibration(
        platform_family=platform_family.lower(),
        device=device,
        drd=DrdModel(p=p, q=q, k=k_drd),
        cache=CacheModel(k=k_cache),
        store=StoreModel(k=k_store),
        idle_latency_dram_ns=idle_latency_dram_ns,
        idle_latency_slow_ns=idle_latency_slow_ns,
        sample_count=len(samples),
    )


def calibrate(machine, device: str,
              benchmarks: Optional[Sequence] = None,
              store=None, executor=None) -> Calibration:
    """Run the microbenchmark suite on ``machine`` and fit the constants.

    ``machine`` is a :class:`~repro.uarch.machine.Machine`; ``device``
    names the slow tier to calibrate against ("numa", "cxl-a", ...).
    This is the reproduction of the paper's one-time calibration phase.

    ``store`` (a :class:`~repro.runtime.store.ResultStore`) makes the
    fit persistent: the finished calibration is content-addressed by
    platform, device, microbenchmark suite, and code version, so a
    second call is a cache lookup.  ``executor`` (a
    :class:`~repro.runtime.executor.Executor`) fans the 2x-per-bench
    profiling runs out in parallel; both default to the serial,
    uncached behaviour.
    """
    # Imported here: repro.uarch depends on repro.core.counters, so the
    # top-level import would be circular (same for repro.runtime, which
    # serializes this module's Calibration).
    from ..runtime.executor import Executor
    from ..runtime.spec import CalibrationSpec, RunSpec
    from ..uarch.interleave import Placement
    from ..workloads.microbench import calibration_suite
    from .signature import signature

    benches = list(benchmarks) if benchmarks is not None \
        else calibration_suite()
    if executor is None:
        executor = Executor(jobs=1, store=store)
    telemetry = executor.telemetry

    with telemetry.stage("calibrate", device=device,
                         platform=machine.platform.name,
                         benchmarks=len(benches)):
        key = None
        if store is not None:
            key = CalibrationSpec.from_machine(machine, device,
                                               benches).fingerprint()
            payload = store.get(key)
            if payload is not None:
                return Calibration.from_dict(payload)

        specs = []
        for bench in benches:
            specs.append(RunSpec.from_machine(machine, bench,
                                              Placement.dram_only()))
            specs.append(RunSpec.from_machine(
                machine, bench, Placement.slow_only(device)))
        profiles = executor.profile(specs, label="calibrate")

        samples: List[CalibrationSample] = []
        for index, bench in enumerate(benches):
            dram_sig = signature(profiles[2 * index])
            slow_sig = signature(profiles[2 * index + 1])
            samples.append(CalibrationSample(
                dram=dram_sig, slow=slow_sig,
                roles=roles_for_tags(bench.tags)))

        with telemetry.stage("calibrate.fit", samples=len(samples)):
            calibration = fit_from_samples(
                samples,
                platform_family=machine.platform.family,
                device=device,
                idle_latency_dram_ns=machine.idle_latency_ns("dram"),
                idle_latency_slow_ns=machine.idle_latency_ns(device),
            )
        if store is not None and key is not None:
            store.put(key, calibration.to_dict())
        return calibration
