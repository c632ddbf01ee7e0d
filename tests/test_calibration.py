"""Tests for the one-time microbenchmark calibration."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro.core.calibration as calibration_mod
from repro.core.calibration import (Calibration, CalibrationSample,
                                    calibrate, fit_from_samples,
                                    fit_hyperbola, roles_for_tags)
from repro.core.drd import hyperbolic_tolerance
from repro.uarch import Machine
from repro.uarch.config import get_platform

#: ``(p, q)`` of every platform x device calibration as fitted by
#: ``curve_fit`` (MINPACK), the library fit the in-tree
#: Levenberg-Marquardt replaced.  Frozen so the replacement is held to
#: the constants every committed figure result was produced with.
REFERENCE_FITS = {
    ("skx2s", "numa"): (2.1670390516718574, 3.0097133093111346),
    ("skx2s", "cxl-a"): (0.8922968594156065, 1.3920544351939201),
    ("skx2s", "cxl-b"): (0.6129646158677781, 1.0611721164338053),
    ("skx2s", "cxl-c"): (0.7443894893953031, 1.6359653689465934),
    ("spr2s", "numa"): (4.334769520590549, 39.65756330020997),
    ("spr2s", "cxl-a"): (1.1899361629420737, 14.299873380996345),
    ("spr2s", "cxl-b"): (0.7616273553338468, 9.625860013312833),
    ("spr2s", "cxl-c"): (0.9591034788270884, 12.680523636253428),
    ("emr2s", "numa"): (3.8159552461121695, 73.61692335762724),
    ("emr2s", "cxl-a"): (1.0828782544028794, 27.43905938695797),
    ("emr2s", "cxl-b"): (0.6976349814399664, 18.377329534782294),
    ("emr2s", "cxl-c"): (0.8704770511476756, 23.80420908157825),
}

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def hyperbola_sse(aol, tolerance, p, q):
    """Squared error of ``(p, q)`` on the points the fit itself sees."""
    aol = np.asarray(aol, dtype=float)
    tolerance = np.asarray(tolerance, dtype=float)
    mask = aol > 0
    fitted = 1.0 / np.maximum(p + q / aol[mask], 1e-9)
    return float(np.sum((fitted - np.maximum(tolerance[mask], 1e-3))
                        ** 2))


class TestHyperbolaFit:
    def test_recovers_known_parameters(self):
        rng = np.random.default_rng(0)
        p_true, q_true = 1.8, 40.0
        aol = rng.uniform(5.0, 300.0, size=40)
        tolerance = np.array([hyperbolic_tolerance(a, p_true, q_true)
                              for a in aol])
        p, q = fit_hyperbola(aol, tolerance)
        assert p == pytest.approx(p_true, rel=0.02)
        assert q == pytest.approx(q_true, rel=0.05)

    def test_robust_to_noise(self):
        rng = np.random.default_rng(1)
        aol = rng.uniform(5.0, 300.0, size=60)
        tolerance = np.array([
            hyperbolic_tolerance(a, 2.0, 50.0) * rng.normal(1.0, 0.05)
            for a in aol])
        p, q = fit_hyperbola(aol, tolerance)
        assert p == pytest.approx(2.0, rel=0.15)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_hyperbola([10.0], [0.5])

    def test_requires_positive_aol(self):
        with pytest.raises(ValueError):
            fit_hyperbola([0.0, -1.0, -5.0], [0.1, 0.2, 0.3])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_hyperbola([1.0, 2.0], [0.1])

    @pytest.mark.parametrize("aol, tolerance", [
        ([10.0, 20.0, 40.0], [0.3, float("nan"), 0.5]),
        ([10.0, float("inf"), 40.0], [0.3, 0.4, 0.5]),
        ([float("nan"), 20.0, 40.0], [0.3, 0.4, 0.5]),
    ])
    def test_rejects_non_finite_input(self, aol, tolerance):
        with pytest.raises(ValueError, match="finite"):
            fit_hyperbola(aol, tolerance)

    def test_unconverged_fit_raises(self, monkeypatch):
        # An iteration cap the fit cannot meet must surface as an
        # error, never as silently returned parameters.
        monkeypatch.setattr(calibration_mod, "_LM_MAX_ITERATIONS", 1)
        aol = np.linspace(5.0, 300.0, 20)
        tolerance = np.array([hyperbolic_tolerance(a, 2.0, 50.0)
                              for a in aol])
        with pytest.raises(RuntimeError, match="converge"):
            fit_hyperbola(aol, tolerance)

    def test_exact_data_converges(self):
        assert fit_hyperbola([10.0, 20.0], [0.3, 0.5]) == \
            pytest.approx((2.0 / 3.0, 80.0 / 3.0), rel=1e-12)


class TestReferenceFits:
    @pytest.mark.parametrize("platform, device", sorted(REFERENCE_FITS))
    def test_matches_reference_fit(self, platform, device, monkeypatch):
        seen = []

        def recording_fit(aol, tolerance, *args):
            seen.append((aol, tolerance))
            return fit_hyperbola(aol, tolerance, *args)

        monkeypatch.setattr(calibration_mod, "fit_hyperbola",
                            recording_fit)
        cal = calibrate(Machine(get_platform(platform)), device)
        (aol, tolerance), = seen
        p_ref, q_ref = REFERENCE_FITS[(platform, device)]
        assert cal.drd.p == pytest.approx(p_ref, rel=1e-4)
        assert cal.drd.q == pytest.approx(q_ref, rel=1e-4)
        assert hyperbola_sse(aol, tolerance, cal.drd.p, cal.drd.q) <= \
            hyperbola_sse(aol, tolerance, p_ref, q_ref) * (1 + 1e-9)


def test_cold_suite_does_not_import_scipy(tmp_path):
    script = (
        "import runpy, sys\n"
        "sys.argv = ['repro', 'suite', '--workloads', '8', "
        "'--no-cache']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    assert not done.code, done.code\n"
        "assert 'scipy' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    completed = subprocess.run([sys.executable, "-c", script],
                               cwd=tmp_path, env=env,
                               capture_output=True, text=True,
                               timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout    # the suite table was printed


class TestRoles:
    def test_tag_mapping(self):
        assert roles_for_tags(("microbench", "pointer-chase")) == \
            ("drd",)
        assert roles_for_tags(("strided",)) == ("cache",)
        assert roles_for_tags(("streaming",)) == ("cache",)
        assert roles_for_tags(("store-heavy",)) == ("store",)
        assert roles_for_tags(("unknown",)) == ()


class TestCalibrate:
    def test_constants_are_sane(self, skx_cxla_calibration):
        cal = skx_cxla_calibration
        assert cal.platform_family == "skx"
        assert cal.device == "cxl-a"
        # The hyperbola must be increasing (q > 0) and saturate at a
        # positive latency-ratio-scale value (p of order 1).
        assert cal.drd.q > 0
        assert 0.3 < cal.drd.p < 10.0
        assert cal.drd.k > 0
        assert cal.cache.k > 0
        assert cal.store.k > 0
        assert cal.idle_latency_dram_ns == 90.0
        assert cal.idle_latency_slow_ns == 214.0

    def test_worse_device_bigger_constants(self, skx_machine,
                                           skx_cxla_calibration):
        cal_b = calibrate(skx_machine, "cxl-b")
        # CXL-B is slower in both latency and RFO cost: the cache and
        # store scaling constants must exceed CXL-A's.
        assert cal_b.cache.k > skx_cxla_calibration.cache.k
        assert cal_b.store.k > skx_cxla_calibration.store.k

    def test_numa_milder_than_cxl(self, skx_numa_calibration,
                                  skx_cxla_calibration):
        assert skx_numa_calibration.store.k < \
            skx_cxla_calibration.store.k

    def test_describe_keys(self, skx_numa_calibration):
        described = skx_numa_calibration.describe()
        assert set(described) == {"p", "q", "k_drd", "k_cache",
                                  "k_store", "idle_dram_ns",
                                  "idle_slow_ns"}

    def test_sample_count_recorded(self, skx_numa_calibration):
        assert skx_numa_calibration.sample_count >= 40


class TestFitFromSamples:
    def _samples(self, machine, device, benches):
        from repro.core.signature import signature
        from repro.uarch import Placement
        out = []
        for bench in benches:
            dram = signature(machine.profile(bench))
            slow = signature(machine.profile(
                bench, Placement.slow_only(device)))
            out.append(CalibrationSample(
                dram=dram, slow=slow, roles=roles_for_tags(bench.tags)))
        return out

    def test_requires_each_role(self, skx_machine):
        from repro.workloads import pointer_chase
        benches = [pointer_chase(c) for c in (1, 2, 4)]
        samples = self._samples(skx_machine, "cxl-a", benches)
        with pytest.raises(ValueError, match="cache"):
            fit_from_samples(samples, "skx", "cxl-a", 90.0, 214.0)

    def test_requires_three_drd_samples(self, skx_machine):
        from repro.workloads import memset, pointer_chase, strided_access
        benches = [pointer_chase(1), strided_access(1), memset()]
        samples = self._samples(skx_machine, "cxl-a", benches)
        with pytest.raises(ValueError, match="drd"):
            fit_from_samples(samples, "skx", "cxl-a", 90.0, 214.0)


class TestPersistence:
    def test_json_roundtrip(self, skx_cxla_calibration):
        from repro.core.calibration import Calibration
        restored = Calibration.from_json(skx_cxla_calibration.to_json())
        assert restored.describe() == \
            pytest.approx(skx_cxla_calibration.describe())
        assert restored.platform_family == "skx"
        assert restored.device == "cxl-a"
        assert restored.sample_count == \
            skx_cxla_calibration.sample_count

    def test_restored_calibration_predicts_identically(
            self, skx_machine, skx_cxla_calibration, pointer_workload):
        from repro.core.calibration import Calibration
        from repro.core.slowdown import SlowdownPredictor
        restored = Calibration.from_json(skx_cxla_calibration.to_json())
        profile = skx_machine.profile(pointer_workload)
        assert SlowdownPredictor(restored).predict(profile).total == \
            pytest.approx(SlowdownPredictor(
                skx_cxla_calibration).predict(profile).total)
