"""Cache-key properties of :mod:`repro.runtime.spec`.

The contract docs/RUNTIME.md promises: equal specs produce equal keys
(across independently-built objects), and *any* field change produces a
different key — there is no input to a simulated run that the key
ignores.
"""

import dataclasses
import json
import math

import pytest

from repro.runtime import serde
from repro.runtime.spec import (CalibrationSpec, RunSpec, canonical_json,
                                code_version, fingerprint, fingerprints)
from repro.uarch import CXL_A, Machine, Placement, SKX2S, SPR2S
from repro.uarch.config import get_platform
from repro.workloads import get_workload
from repro.workloads.suites import evaluation_suite


def spec_for(machine=None, name="605.mcf", placement=None) -> RunSpec:
    machine = machine or Machine(SKX2S)
    placement = placement or Placement.slow_only("cxl-a")
    return RunSpec.from_machine(machine, get_workload(name), placement)


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"a": 1, "b": 2}) == \
            canonical_json({"b": 2, "a": 1})

    def test_compact_and_sorted(self):
        assert canonical_json({"b": [1.5], "a": "x"}) == \
            '{"a":"x","b":[1.5]}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": math.nan})

    def test_fingerprint_is_sha256_hex(self):
        key = fingerprint({"x": 1})
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")


class TestSameSpecSameKey:
    def test_independent_constructions_agree(self):
        # Two machines built from scratch, same parameters.
        assert spec_for(Machine(SKX2S)).fingerprint() == \
            spec_for(Machine(SKX2S)).fingerprint()

    def test_default_placement_is_dram_only(self):
        machine = Machine(SKX2S)
        workload = get_workload("605.mcf")
        explicit = RunSpec.from_machine(machine, workload,
                                        Placement.dram_only())
        implicit = RunSpec.from_machine(machine, workload)
        assert explicit.fingerprint() == implicit.fingerprint()

    def test_calibration_spec_agrees(self):
        key_a = CalibrationSpec.from_machine(Machine(SKX2S),
                                             "cxl-a").fingerprint()
        key_b = CalibrationSpec.from_machine(Machine(SKX2S),
                                             "cxl-a").fingerprint()
        assert key_a == key_b


class TestAnyChangeChangesKey:
    def test_workload_name(self):
        assert spec_for(name="605.mcf").fingerprint() != \
            spec_for(name="557.xz").fingerprint()

    def test_workload_threads(self):
        machine = Machine(SKX2S)
        base = get_workload("603.bwaves")
        a = RunSpec.from_machine(machine, base)
        b = RunSpec.from_machine(machine, base.with_threads(10))
        assert a.fingerprint() != b.fingerprint()

    def test_every_workload_field_is_hashed(self):
        # Nudge each numeric field of the WorkloadSpec in turn; every
        # nudge must move the key.
        machine = Machine(SKX2S)
        base = get_workload("605.mcf")
        base_key = RunSpec.from_machine(machine, base).fingerprint()
        changed = 0
        for field in dataclasses.fields(base):
            value = getattr(base, field.name)
            if isinstance(value, bool) or not isinstance(
                    value, (int, float)):
                continue
            # Some fields are unit-bounded or integral; try candidate
            # nudges until one yields a valid, different spec.
            for candidate in (value + 1, value * 0.5,
                              value * 0.5 + 0.01, value + 0.001):
                if candidate == value:
                    continue
                try:
                    mutated = dataclasses.replace(
                        base, **{field.name: type(value)(candidate)})
                except (ValueError, TypeError):
                    continue
                if getattr(mutated, field.name) == value:
                    continue
                key = RunSpec.from_machine(machine,
                                           mutated).fingerprint()
                assert key != base_key, field.name
                changed += 1
                break
        assert changed > 10   # the characterization really is covered

    def test_placement(self):
        assert spec_for(placement=Placement.dram_only()).fingerprint() \
            != spec_for(placement=Placement.slow_only("cxl-a")
                        ).fingerprint()
        assert spec_for(
            placement=Placement.interleaved(0.5, "cxl-a")).fingerprint() \
            != spec_for(
                placement=Placement.interleaved(0.6, "cxl-a")
            ).fingerprint()

    def test_device(self):
        assert spec_for(placement=Placement.slow_only("cxl-a")
                        ).fingerprint() != \
            spec_for(placement=Placement.slow_only("cxl-b")).fingerprint()

    def test_platform(self):
        assert spec_for(Machine(SKX2S)).fingerprint() != \
            spec_for(Machine(SPR2S)).fingerprint()

    def test_noise_and_seed(self):
        base = spec_for(Machine(SKX2S)).fingerprint()
        assert spec_for(Machine(SKX2S, noise=0.0)).fingerprint() != base
        assert spec_for(Machine(SKX2S, seed=7)).fingerprint() != base

    def test_custom_device_registry_same_name(self):
        # Same device *name*, different underlying config: the key must
        # follow the config the machine would actually use.
        tweaked = dataclasses.replace(
            CXL_A, idle_latency_ns=CXL_A.idle_latency_ns + 25.0)
        stock = spec_for(Machine(SKX2S))
        custom = spec_for(Machine(SKX2S, devices={"cxl-a": tweaked}))
        assert stock.fingerprint() != custom.fingerprint()

    def test_code_version_is_hashed(self, monkeypatch):
        spec = spec_for()
        before = spec.fingerprint()
        monkeypatch.setattr("repro.runtime.spec.CACHE_SCHEMA_VERSION",
                            999)
        assert code_version().endswith("schema999")
        assert spec.fingerprint() != before

    def test_calibration_benchmarks_are_hashed(self):
        machine = Machine(SKX2S)
        full = CalibrationSpec.from_machine(machine, "cxl-a")
        trimmed = CalibrationSpec.from_machine(
            machine, "cxl-a", benchmarks=full.benchmarks[:-1])
        assert full.fingerprint() != trimmed.fingerprint()

    def test_run_and_calibration_kinds_never_collide(self):
        # Same machine/device material under the two kinds.
        run_keys = {spec_for().fingerprint()}
        cal_keys = {CalibrationSpec.from_machine(
            Machine(SKX2S), "cxl-a").fingerprint()}
        assert run_keys.isdisjoint(cal_keys)


class TestSpecExecution:
    def test_rebuilt_machine_reproduces_run(self):
        machine = Machine(SKX2S)
        workload = get_workload("605.mcf")
        placement = Placement.slow_only("cxl-a")
        direct = machine.run(workload, placement)
        via_spec = RunSpec.from_machine(machine, workload,
                                        placement).execute()
        assert via_spec.cycles == direct.cycles
        assert via_spec.counters.as_dict() == direct.counters.as_dict()

    def test_serde_round_trip_is_bit_exact(self):
        result = spec_for().execute()
        payload = serde.run_result_to_dict(result)
        # Through an actual JSON text round trip, as the store does.
        decoded = serde.run_result_from_dict(
            json.loads(json.dumps(payload)))
        assert decoded.cycles == result.cycles
        assert decoded.counters.as_dict() == result.counters.as_dict()
        assert decoded.profiled().sample.as_dict() == \
            result.profiled().sample.as_dict()

    def test_decoded_result_equals_the_original(self):
        # CounterSample compares by value, so RunResult == does too.
        result = spec_for().execute()
        decoded = serde.run_result_from_dict(
            serde.run_result_to_dict(result))
        assert decoded == result
        assert hash(decoded) == hash(result)
        assert decoded.counters is not result.counters
        assert decoded != spec_for(name="557.xz").execute()

    def test_field_readers_equal_asdict(self):
        # The flat readers replace dataclasses.asdict: same keys, same
        # order, same values, for every flattened config and record.
        result = spec_for(Machine(SPR2S)).execute()
        expected = {"workload": dataclasses.asdict(result.workload),
                    "placement": dataclasses.asdict(result.placement),
                    "platform": dataclasses.asdict(result.platform),
                    "breakdown": dataclasses.asdict(result.breakdown),
                    "demand": dataclasses.asdict(result.demand),
                    "prefetch": dataclasses.asdict(result.prefetch)}
        expected["workload"]["tags"] = list(result.workload.tags)
        payload = serde.run_result_to_dict(result)
        for name, data in expected.items():
            assert list(payload[name].items()) == list(data.items()), name
        assert (list(payload["platform"]["dram"].items()) ==
                list(expected["platform"]["dram"].items()))

    def test_batch_payloads_do_not_alias(self):
        machine = Machine(SKX2S)
        workload = get_workload("605.mcf")
        results = [RunSpec.from_machine(machine, workload,
                                        placement).execute()
                   for placement in (Placement.dram_only(),
                                     Placement.slow_only("cxl-a"))]
        first, second = serde.run_results_to_dicts(results)
        assert first["workload"] == second["workload"]
        for name in ("workload", "platform", "placement"):
            assert first[name] is not second[name]
        assert first["workload"]["tags"] is not second["workload"]["tags"]
        assert first["platform"]["dram"] is not second["platform"]["dram"]
        assert [first, second] == [serde.run_result_to_dict(result)
                                   for result in results]


def population_specs(seed=5):
    """The 265-workload suite x {DRAM, CXL-A} x SKX/SPR/EMR: 1590."""
    members = list(evaluation_suite(seed=2026))
    specs = []
    for name in ("skx2s", "spr2s", "emr2s"):
        machine = Machine(get_platform(name), seed=seed)
        for member in members:
            specs.append(RunSpec.from_machine(machine, member,
                                              Placement.dram_only()))
            specs.append(RunSpec.from_machine(
                machine, member, Placement.slow_only("cxl-a")))
    return specs


class TestGoldenKeys:
    """Committed cache keys.  A key that moves orphans every stored
    result for it, so these may change only together with a
    ``CACHE_SCHEMA_VERSION`` (or package version) bump."""

    GOLDEN = {
        "dram-only":
            "9b0792d536be6b160d776812aafc02c973db8a6792e59aaadb6781ebe91147c9",
        "slow-only":
            "9812ac2b5aa1e4782558c3a585715de18886c73b7b2f38918a69ae028de4219b",
        "interleaved":
            "b3843303c98faac63981d5453677c9801eed5260533a9c8035c4e31290b37073",
        "custom-device":
            "712f136136e8049053d01bcb283f3a7e6dd8d4d2d9dd271624f496a6554f4eef",
    }
    CALIBRATION = \
        "f96132a6927e3a538a70a3ffd94b9cb9beac9f9e80119533c61387d4061bf204"

    @staticmethod
    def specs():
        tweaked = dataclasses.replace(
            CXL_A, idle_latency_ns=CXL_A.idle_latency_ns + 25.0)
        mcf = get_workload("605.mcf")
        return {
            "dram-only": RunSpec.from_machine(
                Machine(SKX2S), mcf, Placement.dram_only()),
            "slow-only": RunSpec.from_machine(
                Machine(SKX2S), mcf, Placement.slow_only("cxl-a")),
            "interleaved": RunSpec.from_machine(
                Machine(SPR2S, seed=7), get_workload("603.bwaves"),
                Placement.interleaved(0.5, "cxl-b")),
            "custom-device": RunSpec.from_machine(
                Machine(SKX2S, devices={"cxl-a": tweaked}), mcf,
                Placement.slow_only("cxl-a")),
        }

    def test_run_spec_keys(self):
        specs = self.specs()
        assert {name: spec.fingerprint()
                for name, spec in specs.items()} == self.GOLDEN
        assert {name: fingerprint(spec.key_material())
                for name, spec in specs.items()} == self.GOLDEN
        assert fingerprints(list(specs.values())) == \
            list(self.GOLDEN.values())

    def test_calibration_spec_key(self):
        spec = CalibrationSpec.from_machine(
            Machine(get_platform("emr2s"), noise=0.0), "cxl-a")
        assert spec.fingerprint() == self.CALIBRATION


class TestBatchFingerprints:
    def test_population_matches_key_material_lane_by_lane(self):
        specs = population_specs()
        assert len(specs) == 1590
        keys = fingerprints(specs)
        for spec, key in zip(specs, keys):
            assert key == fingerprint(spec.key_material())

    def test_equal_fields_typed_differently_get_different_keys(self):
        # 2_000_000_000 == 2e9 and 0 == 0.0, so the two workloads (and
        # machines) compare equal; their canonical JSON does not.
        machine = Machine(SKX2S)
        base = get_workload("605.mcf")
        as_int = dataclasses.replace(base, instructions=2_000_000_000)
        as_float = dataclasses.replace(base, instructions=2e9)
        assert as_int == as_float
        specs = [RunSpec.from_machine(machine, as_int),
                 RunSpec.from_machine(machine, as_float),
                 RunSpec.from_machine(Machine(SKX2S, noise=0), base),
                 RunSpec.from_machine(Machine(SKX2S, noise=0.0), base)]
        keys = fingerprints(specs)
        assert keys == [fingerprint(spec.key_material())
                        for spec in specs]
        assert keys[0] != keys[1]
        assert keys[2] != keys[3]

    def test_generator_of_short_lived_specs(self):
        # Each spec (and its placement) dies once iterated past; a
        # recycled id must never serve a stale fragment.
        machine = Machine(SKX2S)
        workload = get_workload("605.mcf")

        def specs():
            return (RunSpec.from_machine(
                machine, workload,
                Placement.interleaved(share / 100, "cxl-a"))
                for share in range(1, 99))

        assert fingerprints(specs()) == [
            fingerprint(spec.key_material()) for spec in specs()]

    def test_repeated_objects_and_empty_batch(self):
        spec = spec_for()
        assert fingerprints([spec, spec]) == \
            [fingerprint(spec.key_material())] * 2
        assert fingerprints([]) == []
