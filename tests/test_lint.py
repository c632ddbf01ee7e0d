"""camp-lint: fixture pairs per rule, baseline, reporters, CLI.

Every rule gets at least one *bad* fixture it must flag and one *good*
fixture it must pass; the engine tests cover suppression directives,
baseline round-trips, reporter schemas, and the ``python -m repro
lint`` exit codes.  The meta-test at the bottom pins the headline
property: the repository itself lints clean.
"""

import json
import pathlib
import textwrap

import pytest

import repro.cli as cli
from repro.lint import (
    ALL_RULES, BASELINE_NAME, Baseline, BaselineError, Finding,
    JSON_SCHEMA_VERSION, RULES_BY_ID, TODO_JUSTIFICATION, lint_source,
    render_json, render_text, run_lint,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def findings_for(rule_id, source, relpath):
    source = textwrap.dedent(source)
    return lint_source(source, relpath, [RULES_BY_ID[rule_id]])


def rules_hit(rule_id, source, relpath):
    return [f.rule for f in findings_for(rule_id, source, relpath)]


class TestDet01:
    BAD_CLOCK = """\
        import time

        def sample():
            return time.time()
        """
    BAD_LEGACY_RNG = """\
        import numpy as np

        def jitter(n):
            return np.random.rand(n)
        """
    BAD_UNSEEDED = """\
        import numpy as np

        def rng():
            return np.random.default_rng()
        """
    GOOD_SEEDED = """\
        import numpy as np

        def rng(seed):
            return np.random.default_rng(seed)
        """

    @pytest.mark.parametrize("source", [BAD_CLOCK, BAD_LEGACY_RNG,
                                        BAD_UNSEEDED])
    def test_flags_hidden_inputs_in_sim_code(self, source):
        assert rules_hit("DET01", source,
                         "src/repro/uarch/fake.py") == ["DET01"]

    def test_seeded_generator_passes(self):
        assert not findings_for("DET01", self.GOOD_SEEDED,
                                "src/repro/uarch/fake.py")

    def test_scope_excludes_non_sim_code(self):
        # The analysis layer may read the clock (it times experiments).
        assert not findings_for("DET01", self.BAD_CLOCK,
                                "src/repro/analysis/fake.py")

    def test_import_aliases_are_resolved(self):
        source = """\
            from time import time as now

            def sample():
                return now()
            """
        assert rules_hit("DET01", source,
                         "src/repro/core/fake.py") == ["DET01"]

    BAD_UNINITIALIZED = """\
        import numpy as np

        def kernel(n):
            lanes = np.empty(n)
            return lanes
        """
    BAD_UNINITIALIZED_LIKE = """\
        import numpy as np

        def kernel(template):
            return np.empty_like(template)
        """
    GOOD_ZEROED = """\
        import numpy as np

        def kernel(n):
            lanes = np.zeros(n)
            return lanes + np.full(n, 1.0)
        """

    @pytest.mark.parametrize("source", [BAD_UNINITIALIZED,
                                        BAD_UNINITIALIZED_LIKE])
    def test_flags_uninitialized_batch_buffers(self, source):
        assert rules_hit("DET01", source,
                         "src/repro/uarch/fake.py") == ["DET01"]

    def test_zero_initialized_batch_buffers_pass(self):
        assert not findings_for("DET01", self.GOOD_ZEROED,
                                "src/repro/uarch/fake.py")


class TestCache01:
    BAD_FIELD_ESCAPES_KEY = """\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class FakeSpec:
            seed: int
            noise: float

            def key_material(self):
                return {"seed": self.seed}
        """
    BAD_NOT_FROZEN = """\
        from dataclasses import dataclass

        @dataclass
        class FakeSpec:
            seed: int

            def key_material(self):
                return {"seed": self.seed}
        """
    BAD_MUTABLE_DEFAULT = """\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class FakeSpec:
            seed: int
            tags: list = []

            def key_material(self):
                return {"seed": self.seed, "tags": self.tags}
        """
    GOOD = """\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class FakeSpec:
            seed: int
            noise: float

            def key_material(self):
                return {"seed": self.seed, "noise": self.noise}
        """
    PATH = "src/repro/runtime/spec.py"

    @pytest.mark.parametrize("source", [BAD_FIELD_ESCAPES_KEY,
                                        BAD_NOT_FROZEN,
                                        BAD_MUTABLE_DEFAULT])
    def test_flags_cache_key_escapes(self, source):
        assert "CACHE01" in rules_hit("CACHE01", source, self.PATH)

    def test_complete_key_material_passes(self):
        assert not findings_for("CACHE01", self.GOOD, self.PATH)

    def test_scope_is_spec_module_only(self):
        assert not findings_for("CACHE01", self.BAD_NOT_FROZEN,
                                "src/repro/runtime/store.py")

    def test_real_spec_module_is_clean(self):
        source = (ROOT / "src/repro/runtime/spec.py").read_text()
        assert not lint_source(source, self.PATH,
                               [RULES_BY_ID["CACHE01"]])


class TestPmu01:
    def test_phantom_counter_in_markdown(self):
        assert rules_hit("PMU01", "fall back when P99 is missing\n",
                         "docs/FAKE.md") == ["PMU01"]

    def test_phantom_counter_in_python(self):
        source = 'COUNTER = "P42"   # past the end of Table 5\n'
        assert rules_hit("PMU01", source,
                         "src/repro/core/fake.py") == ["PMU01"]

    def test_registered_counters_pass(self):
        assert not findings_for("PMU01", "P1 through P17 are real\n",
                                "docs/FAKE.md")

    def test_non_counter_words_pass(self):
        # P as part of a word, or followed by nothing, is not a token.
        assert not findings_for("PMU01", "HTTP2, UP1000x, and P.\n",
                                "docs/FAKE.md")


class TestErr01:
    BAD_BARE = """\
        def f():
            try:
                g()
            except:
                pass
        """
    BAD_BROAD = """\
        def f():
            try:
                g()
            except Exception:
                pass
        """
    BAD_RAISE = """\
        def f():
            raise Exception("vague")
        """
    BAD_TUPLE = """\
        def f():
            try:
                g()
            except (ValueError, BaseException):
                pass
        """
    GOOD = """\
        from repro.runtime.errors import TransientTaskError

        def f():
            try:
                g()
            except ValueError:
                raise TransientTaskError("retry me")
        """

    @pytest.mark.parametrize("source", [BAD_BARE, BAD_BROAD, BAD_RAISE,
                                        BAD_TUPLE])
    def test_flags_taxonomy_bypasses(self, source):
        assert rules_hit("ERR01", source,
                         "src/repro/runtime/fake.py") == ["ERR01"]

    def test_taxonomy_usage_passes(self):
        assert not findings_for("ERR01", self.GOOD,
                                "src/repro/faults/fake.py")

    def test_scope_is_runtime_and_faults(self):
        assert not findings_for("ERR01", self.BAD_BROAD,
                                "src/repro/core/fake.py")


class TestPure01:
    BAD_MUTATES_MODULE_STATE = """\
        CACHE = {}

        def worker(item):
            CACHE[item] = True
            return item

        def run(executor, items):
            return list(executor.map(worker, items))
        """
    BAD_LAMBDA = """\
        def run(executor, items):
            return list(executor.map(lambda item: item + 1, items))
        """
    BAD_GLOBAL = """\
        TOTAL = 0

        def worker(item):
            global TOTAL
            TOTAL += item
            return item

        def run(executor, item):
            return executor.submit(worker, item)
        """
    GOOD = """\
        def worker(item):
            local = {}
            local[item] = True
            return sorted(local)

        def run(executor, items):
            return list(executor.map(worker, items))
        """

    @pytest.mark.parametrize("source", [BAD_MUTATES_MODULE_STATE,
                                        BAD_LAMBDA, BAD_GLOBAL])
    def test_flags_impure_workers(self, source):
        assert "PURE01" in rules_hit("PURE01", source,
                                     "src/repro/runtime/fake.py")

    def test_pure_worker_passes(self):
        assert not findings_for("PURE01", self.GOOD,
                                "src/repro/runtime/fake.py")

    def test_mutating_local_state_is_fine(self):
        # executor.map over a method of a local object is out of reach
        # for the resolver, but local-only mutation must never flag.
        assert not findings_for("PURE01", self.GOOD,
                                "src/repro/analysis/fake.py")

    BAD_MODULE_SCRATCH = """\
        import numpy as np

        _SCRATCH = np.zeros(64)

        def kernel(values):
            _SCRATCH[: len(values)] = values
            return _SCRATCH.sum()
        """
    BAD_ALIASED_SCRATCH = """\
        from numpy import empty

        BUFFER: object = empty(8)
        """
    GOOD_PER_CALL = """\
        import numpy as np

        _WIDTH = 64

        def kernel(values):
            scratch = np.zeros(_WIDTH)
            scratch[: len(values)] = values
            return scratch.sum()
        """

    @pytest.mark.parametrize("source", [BAD_MODULE_SCRATCH,
                                        BAD_ALIASED_SCRATCH])
    def test_flags_module_level_scratch_arrays(self, source):
        assert "PURE01" in rules_hit("PURE01", source,
                                     "src/repro/uarch/fake.py")

    def test_per_call_allocation_passes(self):
        assert not findings_for("PURE01", self.GOOD_PER_CALL,
                                "src/repro/uarch/fake.py")


class TestUnits01:
    BAD = """\
        def model(latency, bandwidth):
            slow_latency = latency * 2
            return slow_latency + bandwidth
        """
    GOOD = """\
        def model(latency_ns, bandwidth_gbps):
            slow_latency_ns = latency_ns * 2
            return slow_latency_ns + bandwidth_gbps
        """
    GOOD_DIMENSIONLESS = """\
        def model(latency_ratio, bandwidth_factor):
            return latency_ratio * bandwidth_factor
        """

    def test_flags_unitless_quantities(self):
        found = rules_hit("UNITS01", self.BAD, "src/repro/core/fake.py")
        assert found == ["UNITS01"] * 3   # latency, bandwidth, slow_latency

    @pytest.mark.parametrize("source", [GOOD, GOOD_DIMENSIONLESS])
    def test_united_and_dimensionless_pass(self, source):
        assert not findings_for("UNITS01", source,
                                "src/repro/core/fake.py")

    def test_camel_case_type_names_exempt(self):
        source = """\
            class LatencyContext:
                pass

            def f():
                LatencyModel = LatencyContext
                return LatencyModel
            """
        assert not findings_for("UNITS01", source,
                                "src/repro/uarch/fake.py")


class TestDtype01:
    BAD_ASTYPE = """\
        import numpy as np

        def shrink(lanes):
            return lanes.astype(np.float32)
        """
    BAD_DTYPE_KWARG = """\
        import numpy as np

        def alloc(n):
            return np.zeros(n, dtype=np.float32)
        """
    BAD_STRING_DTYPE = """\
        import numpy as np

        def alloc(n):
            return np.ones(n, dtype="float32")
        """
    BAD_SCALAR_CAST = """\
        from numpy import float32

        def shrink(x):
            return float32(x)
        """
    BAD_POSITIONAL = """\
        import numpy as np

        def alloc(n):
            return np.zeros(n, np.float32)
        """
    GOOD_F64 = """\
        import numpy as np

        def alloc(n):
            return np.zeros(n, dtype=np.float64).astype(np.int64)
        """

    @pytest.mark.parametrize("source", [BAD_ASTYPE, BAD_DTYPE_KWARG,
                                        BAD_STRING_DTYPE, BAD_SCALAR_CAST,
                                        BAD_POSITIONAL])
    def test_flags_float32_creation(self, source):
        assert rules_hit("DTYPE01", source,
                         "src/repro/uarch/fake.py") == ["DTYPE01"]

    def test_float64_and_int_casts_pass(self):
        assert not findings_for("DTYPE01", self.GOOD_F64,
                                "src/repro/uarch/fake.py")

    def test_former_fastpath_module_is_not_exempt(self):
        assert rules_hit("DTYPE01", self.BAD_ASTYPE,
                         "src/repro/uarch/fastpath.py") == ["DTYPE01"]

    def test_applies_outside_uarch_too(self):
        assert rules_hit("DTYPE01", self.BAD_DTYPE_KWARG,
                         "src/repro/analysis/fake.py") == ["DTYPE01"]


class TestSuppression:
    def test_line_directive_silences_one_rule(self):
        source = ("def f():\n"
                  "    try:\n"
                  "        g()\n"
                  "    except Exception:"
                  "   # camp-lint: disable=ERR01 -- fixture\n"
                  "        pass\n")
        assert not lint_source(source, "src/repro/runtime/fake.py",
                               [RULES_BY_ID["ERR01"]])

    def test_line_directive_is_rule_specific(self):
        source = ("def f(latency):"
                  "   # camp-lint: disable=ERR01 -- wrong rule\n"
                  "    return latency\n")
        assert rules_hit("UNITS01", source,
                         "src/repro/core/fake.py") == ["UNITS01"]

    def test_file_directive_silences_whole_file(self):
        source = ("# camp-lint: disable-file=UNITS01\n"
                  "def f(latency):\n"
                  "    return latency\n")
        assert not lint_source(source, "src/repro/core/fake.py",
                               [RULES_BY_ID["UNITS01"]])

    def test_syntax_errors_are_reported_not_raised(self):
        findings = lint_source("def f(:\n", "src/repro/core/fake.py",
                               list(ALL_RULES))
        assert [f.rule for f in findings] == ["SYNTAX"]


class TestBaseline:
    def finding(self, rule="UNITS01", path="src/repro/core/fake.py",
                snippet="latency = 1"):
        return Finding(rule=rule, path=path, line=3, col=5,
                       message="fixture", snippet=snippet)

    def test_round_trip_and_partition(self, tmp_path):
        match = self.finding()
        other = self.finding(snippet="bandwidth = 2")
        baseline = Baseline.from_findings([match])
        path = tmp_path / BASELINE_NAME
        baseline.save(path)

        loaded = Baseline.load(path)
        active, baselined, stale = loaded.partition([match, other])
        assert active == [other]
        assert baselined == [match]
        assert stale == []

    def test_matching_ignores_line_numbers(self, tmp_path):
        baseline = Baseline.from_findings([self.finding()])
        moved = Finding(rule="UNITS01", path="src/repro/core/fake.py",
                        line=99, col=1, message="moved",
                        snippet="latency = 1")
        active, baselined, _ = baseline.partition([moved])
        assert not active and baselined == [moved]

    def test_fixed_finding_leaves_stale_entry(self):
        baseline = Baseline.from_findings([self.finding()])
        active, baselined, stale = baseline.partition([])
        assert not active and not baselined
        assert [entry.snippet for entry in stale] == ["latency = 1"]

    def test_write_stamps_todo_and_keeps_prior_justifications(self):
        match = self.finding()
        prior = Baseline.from_findings([match])
        assert prior.placeholder_entries()
        justified = Baseline([prior.entries[0].__class__(
            rule="UNITS01", path="src/repro/core/fake.py",
            snippet="latency = 1", justification="measured in lore")])
        rewritten = Baseline.from_findings(
            [match, self.finding(snippet="bandwidth = 2")], justified)
        by_snippet = {e.snippet: e.justification
                      for e in rewritten.entries}
        assert by_snippet["latency = 1"] == "measured in lore"
        assert by_snippet["bandwidth = 2"] == TODO_JUSTIFICATION

    def test_missing_file_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "nope.json")) == 0

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / BASELINE_NAME
        path.write_text("{not json")
        with pytest.raises(BaselineError):
            Baseline.load(path)

    def test_empty_justification_raises(self, tmp_path):
        path = tmp_path / BASELINE_NAME
        path.write_text(json.dumps({"entries": [
            {"rule": "UNITS01", "path": "x.py", "snippet": "y",
             "justification": "  "}]}))
        with pytest.raises(BaselineError):
            Baseline.load(path)


class TestReporters:
    def sample(self):
        active = [Finding(rule="DET01", path="src/repro/uarch/f.py",
                          line=4, col=12, message="wall clock",
                          snippet="t = time.time()")]
        baselined = [Finding(rule="UNITS01", path="src/repro/core/g.py",
                             line=9, col=1, message="no unit",
                             snippet="latency = 1")]
        return active, baselined

    def test_json_schema(self):
        active, baselined = self.sample()
        data = json.loads(render_json(active, baselined, [], 7))
        assert data["version"] == JSON_SCHEMA_VERSION
        assert data["tool"] == "camp-lint"
        assert data["ok"] is False
        assert data["files_checked"] == 7
        assert data["counts"] == {"DET01": 1}
        finding = data["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col",
                                "severity", "message", "snippet"}
        assert data["baselined"][0]["rule"] == "UNITS01"
        assert data["stale_baseline"] == []

    def test_json_ok_when_clean(self):
        data = json.loads(render_json([], [], [], 3))
        assert data["ok"] is True and data["findings"] == []

    def test_text_report_names_file_and_line(self):
        active, baselined = self.sample()
        text = render_text(active, baselined, [], 7, Baseline())
        assert "src/repro/uarch/f.py:4:12" in text
        assert "DET01" in text and "wall clock" in text


def write_fixture_tree(root, bad=True):
    """A miniature repo the CLI can lint under ``--root``."""
    pkg = root / "src" / "repro" / "uarch"
    pkg.mkdir(parents=True)
    body = ("import time\n\n\ndef sample():\n    return time.time()\n"
            if bad else
            "def sample(seed):\n    return seed\n")
    (pkg / "fake.py").write_text(body)
    docs = root / "docs"
    docs.mkdir()
    (docs / "NOTES.md").write_text("P1 is real\n")
    return root


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_fixture_tree(tmp_path, bad=False)
        assert cli.main(["lint", "--root", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_bad_fixture_exits_nonzero(self, tmp_path, capsys):
        write_fixture_tree(tmp_path, bad=True)
        assert cli.main(["lint", "--root", str(tmp_path)]) == 1
        assert "DET01" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        write_fixture_tree(tmp_path, bad=True)
        assert cli.main(["lint", "--root", str(tmp_path),
                         "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["counts"]["DET01"] == 1

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        write_fixture_tree(tmp_path, bad=True)
        assert cli.main(["lint", "--root", str(tmp_path),
                         "--write-baseline"]) == 0
        baseline = Baseline.load(tmp_path / BASELINE_NAME)
        assert baseline.placeholder_entries()
        capsys.readouterr()
        assert cli.main(["lint", "--root", str(tmp_path)]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_no_baseline_reactivates_findings(self, tmp_path, capsys):
        write_fixture_tree(tmp_path, bad=True)
        cli.main(["lint", "--root", str(tmp_path), "--write-baseline"])
        capsys.readouterr()
        assert cli.main(["lint", "--root", str(tmp_path),
                         "--no-baseline"]) == 1

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        write_fixture_tree(tmp_path, bad=False)
        (tmp_path / BASELINE_NAME).write_text("{broken")
        assert cli.main(["lint", "--root", str(tmp_path)]) == 2

    def test_explicit_paths_narrow_the_run(self, tmp_path, capsys):
        write_fixture_tree(tmp_path, bad=True)
        assert cli.main(["lint", "--root", str(tmp_path),
                         str(tmp_path / "docs")]) == 0


class TestRepositoryIsClean:
    """The headline meta-test: this repo passes its own linter."""

    def test_repo_lints_clean_modulo_baseline(self):
        run = run_lint(root=ROOT)
        baseline = Baseline.load(ROOT / BASELINE_NAME)
        active, _, stale = baseline.partition(run.findings)
        assert not active, "\n".join(f.render() for f in active)
        assert not stale, [entry.key() for entry in stale]
        assert run.files_checked > 50

    def test_cli_agrees(self, capsys):
        assert cli.main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_checked_in_baseline_is_fully_justified(self):
        baseline = Baseline.load(ROOT / BASELINE_NAME)
        assert not baseline.placeholder_entries()
