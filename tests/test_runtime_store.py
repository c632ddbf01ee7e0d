"""The :class:`repro.runtime.store.ResultStore` durability contract.

docs/STORE.md promises: an append-only segment log whose records are
self-validating (magic + CRC + schema + embedded key), corruption-as-
miss (a damaged cache can cost time, never correctness), crash
recovery on open (torn tails truncated, killed compactions
resumed), explicit invalidation, and that buckets of the retired
per-entry JSON layout are ignored on open, counted by ``cache info``
and removed by ``cache clear``.
"""

import json
import multiprocessing
import os
import shutil

import pytest

from repro.faults import ChaosStore, FaultPlan, StoreFault
from repro.runtime.serde import payload_to_bytes
from repro.runtime.spec import CACHE_SCHEMA_VERSION
from repro.cli import main
from repro.runtime.store import (DEFAULT_CACHE_DIRNAME, SEGMENT_MAGIC,
                                 ResultStore, default_cache_dir,
                                 encode_record)

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62
THIRD = "ef" + "2" * 62


def key_n(index):
    return f"{index:064x}"


@pytest.fixture()
def root(tmp_path):
    return tmp_path / "cache"


@pytest.fixture()
def store(root):
    return ResultStore(root)


def reopen(root, **kwargs):
    """A fresh store over the same root (simulates a new process)."""
    return ResultStore(root, **kwargs)


class TestRoundTrip:
    def test_put_get(self, store):
        payload = {"cycles": 123, "values": {"P1": 4.5}}
        store.put(KEY, payload)
        assert store.get(KEY) == payload
        assert store.stats.hits == 1
        assert store.stats.writes == 1

    def test_missing_is_a_miss(self, store):
        assert store.get(KEY) is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == 0

    def test_segment_layout(self, store):
        store.put(KEY, {})
        paths = store.segment_paths()
        assert len(paths) == 1
        assert paths[0].parent == store.root / "segments"
        assert paths[0].name.startswith("seg-00000001-")
        raw = paths[0].read_bytes()
        assert raw.startswith(SEGMENT_MAGIC)

    def test_len_and_contains(self, store):
        assert len(store) == 0
        store.put(KEY, {"a": 1})
        store.put(OTHER, {"b": 2})
        assert len(store) == 2
        assert KEY in store
        assert THIRD not in store

    def test_malformed_key_rejected(self, store):
        for bad in ("", "XYZ", "../../../etc/passwd", KEY.upper()):
            with pytest.raises(ValueError):
                store.get(bad)
            with pytest.raises(ValueError):
                store.put(bad, {})

    def test_overwrite_latest_wins(self, store):
        store.put(KEY, {"cycles": 1, "extra": "old"})
        store.put(KEY, {"cycles": 2})
        assert store.get(KEY) == {"cycles": 2}
        assert len(store) == 1

    def test_persists_across_reopen(self, store, root):
        store.put(KEY, {"cycles": 7})
        store.close()
        fresh = reopen(root)
        assert fresh.get(KEY) == {"cycles": 7}

    def test_no_temp_files_left_behind(self, store):
        for index in range(5):
            store.put(KEY, {"round": index})
        leftovers = [p for p in store.segment_dir.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []


class TestBatch:
    def test_put_many_get_many(self, store):
        items = [(key_n(i), {"round": i}) for i in range(20)]
        store.put_many(items)
        found = store.get_many([key for key, _ in items])
        assert found == dict(items)
        assert store.stats.writes == 20
        assert store.stats.hits == 20

    def test_get_many_partial(self, store):
        store.put(KEY, {"a": 1})
        found = store.get_many([KEY, OTHER])
        assert found == {KEY: {"a": 1}}
        assert store.stats.misses == 1

    def test_dense_batch_from_disk(self, root):
        # A cold, uncached batch read exercises the whole-segment bulk
        # path (docs/STORE.md "Reads"); every record must be served and
        # CRC-checked.
        items = [(key_n(i), {"round": i, "pad": "x" * 32})
                 for i in range(200)]
        writer = ResultStore(root)
        writer.put_many(items)
        writer.close()
        reader = reopen(root, cache_capacity=0)
        found = reader.get_many([key for key, _ in items])
        assert found == dict(items)
        assert reader.stats.hits == 200
        assert reader.stats.corrupt == 0


class TestCorruptionIsAMiss:
    def damage_last_byte(self, store, root):
        store.close()
        path = store.segment_paths()[-1]
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))

    def test_flipped_payload_byte(self, store, root):
        store.put(KEY, {"cycles": 9000})
        self.damage_last_byte(store, root)
        fresh = reopen(root)
        assert fresh.get(KEY) is None
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1

    def test_contains_applies_the_same_checks(self, store, root):
        # Membership means a servable record — a damaged one is not
        # "in" the store (the legacy layout's containment bug).
        store.put(KEY, {"cycles": 1})
        self.damage_last_byte(store, root)
        fresh = reopen(root)
        assert KEY not in fresh

    def test_stale_schema_record_is_a_corrupt_miss(self, root):
        segment_dir = root / "segments"
        segment_dir.mkdir(parents=True)
        record = encode_record(KEY, payload_to_bytes({"cycles": 1}),
                               CACHE_SCHEMA_VERSION - 1)
        (segment_dir / "seg-00000001-aaaa.seg").write_bytes(
            SEGMENT_MAGIC + record)
        fresh = reopen(root)
        assert fresh.get(KEY) is None
        assert fresh.stats.corrupt == 1

    def test_current_schema_round_trips(self, root):
        segment_dir = root / "segments"
        segment_dir.mkdir(parents=True)
        record = encode_record(KEY, payload_to_bytes({"cycles": 7}),
                               CACHE_SCHEMA_VERSION)
        (segment_dir / "seg-00000001-aaaa.seg").write_bytes(
            SEGMENT_MAGIC + record)
        fresh = reopen(root)
        assert fresh.get(KEY) == {"cycles": 7}
        assert fresh.stats.corrupt == 0

    def test_foreign_file_never_indexed_never_touched(self, root):
        segment_dir = root / "segments"
        segment_dir.mkdir(parents=True)
        foreign = segment_dir / "seg-00000001-aaaa.seg"
        foreign.write_bytes(b"NOTASEG!" + b"\x00" * 64)
        before = foreign.read_bytes()
        fresh = reopen(root)
        assert fresh.get(KEY) is None
        assert fresh.stats.corrupt == 1
        assert foreign.read_bytes() == before

    def test_damaged_record_resyncs_to_its_successor(self, store, root):
        # One flipped bit costs one record, not the rest of the file.
        store.put(KEY, {"cycles": 1})
        store.put(OTHER, {"cycles": 2})
        store.close()
        path = store.segment_paths()[-1]
        raw = bytearray(path.read_bytes())
        raw[len(SEGMENT_MAGIC) + 10] ^= 0xFF     # first record's header
        path.write_bytes(bytes(raw))
        fresh = reopen(root)
        assert fresh.get(KEY) is None
        assert fresh.get(OTHER) == {"cycles": 2}
        assert fresh.stats.corrupt == 1

    def test_rewrite_heals_corruption(self, store, root):
        store.put(KEY, {"cycles": 1})
        self.damage_last_byte(store, root)
        fresh = reopen(root)
        assert fresh.get(KEY) is None
        fresh.put(KEY, {"cycles": 7})
        assert fresh.get(KEY) == {"cycles": 7}


class TestCrashConsistency:
    """Kill -9 at any point costs at most the record in flight."""

    def test_torn_tail_truncated_on_open(self, store, root):
        items = [(key_n(i), {"round": i}) for i in range(3)]
        store.put_many(items)
        path = store.segment_paths()[0]
        clean_size = path.stat().st_size
        # A crash mid-append leaves a partial record at the tail:
        # header promising more bytes than the file holds.
        torn = encode_record(THIRD, payload_to_bytes({"round": 99}),
                             CACHE_SCHEMA_VERSION)[:25]
        with open(path, "ab") as handle:
            handle.write(torn)
        fresh = reopen(root)
        for key, payload in items:
            assert fresh.get(key) == payload
        assert fresh.get(THIRD) is None
        assert fresh.stats.corrupt == 1
        assert path.stat().st_size == clean_size
        # The log keeps working after recovery.
        fresh.put(THIRD, {"round": 100})
        assert fresh.get(THIRD) == {"round": 100}

    def test_killed_compaction_temp_removed_on_open(self, store, root):
        store.put(KEY, {"cycles": 1})
        leftover = store.segment_dir / ".compact-stale.tmp"
        leftover.write_bytes(b"half a segment")
        fresh = reopen(root)
        assert fresh.get(KEY) == {"cycles": 1}
        assert not leftover.exists()

    def test_killed_compaction_duplicates_are_harmless(self, store, root):
        # Compaction unlinks old segments only after the new ones are
        # durable; a kill in between leaves both. Latest-wins over
        # identical values: no loss, no double counting in len().
        items = [(key_n(i), {"round": i}) for i in range(5)]
        store.put_many(items)
        store.close()
        original = store.segment_paths()[0]
        duplicate = original.with_name(
            original.name.replace("seg-00000001-", "seg-00000002-"))
        shutil.copy(original, duplicate)
        fresh = reopen(root)
        assert len(fresh) == 5
        for key, payload in items:
            assert fresh.get(key) == payload
        assert fresh.stats.corrupt == 0

    def test_reader_survives_concurrent_compaction(self, root):
        items = [(key_n(i), {"round": i}) for i in range(30)]
        writer = ResultStore(root)
        writer.put_many(items)
        writer.close()
        reader = reopen(root, cache_capacity=0)
        assert reader.get(key_n(0)) == {"round": 0}
        # The writer rewrites the log underneath the reader.
        for index in range(10):
            writer.invalidate(key_n(index))
        summary = writer.compact()
        assert summary["live_entries"] == 20
        assert summary["segments_after"] == 1
        # An open read handle pins the unlinked segment: until the
        # handle is recycled the reader serves its consistent,
        # CRC-valid snapshot (refresh-on-miss semantics).
        assert reader.get(key_n(3)) == {"round": 3}
        # Once the handle pool drops the file (LRU eviction, modeled
        # directly here) the stale locations fail their reads and
        # every key re-resolves through a refresh instead of raising.
        reader._close_readers()
        for index in range(10, 30):
            assert reader.get(key_n(index)) == {"round": index}
        assert reader.get(key_n(3)) is None
        assert reader.stats.corrupt == 0


class TestInvalidation:
    def test_invalidate_one(self, store):
        store.put(KEY, {"a": 1})
        assert store.invalidate(KEY) is True
        assert store.get(KEY) is None
        assert store.invalidate(KEY) is False
        assert store.stats.tombstones == 1

    def test_tombstone_survives_reopen(self, store, root):
        store.put(KEY, {"a": 1})
        store.invalidate(KEY)
        store.close()
        fresh = reopen(root)
        assert fresh.get(KEY) is None
        assert len(fresh) == 0

    def test_clear_all(self, store):
        store.put(KEY, {"a": 1})
        store.put(OTHER, {"b": 2})
        assert store.clear() == 2
        assert len(store) == 0
        assert store.segment_paths() == []
        # A cleared store still works.
        store.put(KEY, {"a": 1})
        assert store.get(KEY) == {"a": 1}


class TestCompaction:
    def test_compact_reclaims_dead_space(self, store):
        for round_index in range(20):
            store.put(KEY, {"round": round_index, "pad": "x" * 64})
        store.put(OTHER, {"final": True})
        before = store.disk_bytes()
        summary = store.compact()
        assert summary["live_entries"] == 2
        assert store.disk_bytes() < before
        assert store.get(KEY) == {"round": 19, "pad": "x" * 64}
        assert store.get(OTHER) == {"final": True}
        assert store.stats.compactions == 1

    def test_auto_compact_on_seal(self, root):
        store = ResultStore(root, segment_max_bytes=512)
        for round_index in range(50):
            store.put(KEY, {"round": round_index, "pad": "x" * 64})
        assert store.stats.compactions >= 1
        assert store.get(KEY) == {"round": 49, "pad": "x" * 64}
        assert len(store) == 1

    def test_auto_compact_can_be_disabled(self, root):
        store = ResultStore(root, segment_max_bytes=512,
                            auto_compact=False)
        for round_index in range(50):
            store.put(KEY, {"round": round_index, "pad": "x" * 64})
        assert store.stats.compactions == 0


def write_legacy_entries(root, keys):
    """Entry files in the retired ``<key[:2]>/<key>.json`` layout.

    Each carries the current schema, so nothing but the layout itself
    marks them as legacy.
    """
    paths = []
    for index, key in enumerate(keys):
        bucket = root / key[:2]
        bucket.mkdir(parents=True, exist_ok=True)
        path = bucket / f"{key}.json"
        path.write_text(json.dumps({"key": key,
                                    "schema": CACHE_SCHEMA_VERSION,
                                    "payload": {"round": index}}))
        paths.append(path)
    return paths


class TestLegacyLayout:
    LEGACY_KEYS = (KEY, OTHER, THIRD)

    def test_open_ignores_and_keeps_legacy_files(self, root):
        paths = write_legacy_entries(root, self.LEGACY_KEYS)
        before = {path: path.read_bytes() for path in paths}
        with ResultStore(root) as store:
            assert len(store) == 0
            assert store.get(KEY) is None
            assert store.stats.corrupt == 0
        assert {path: path.read_bytes() for path in paths} == before

    def test_clear_removes_legacy_files_and_buckets(self, root):
        paths = write_legacy_entries(root, self.LEGACY_KEYS)
        store = ResultStore(root)
        store.put(key_n(7), {"live": True})
        assert store.clear() == 4
        assert not any(path.exists() for path in paths)
        assert not any((root / key[:2]).exists()
                       for key in self.LEGACY_KEYS)

    def test_cache_info_counts_and_cache_clear_removes(self, root,
                                                       capsys):
        paths = write_legacy_entries(root, self.LEGACY_KEYS)
        assert main(["cache", "info", "--cache-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "entries:       0" in out
        assert "legacy (JSON): 3" in out
        assert main(["cache", "clear", "--cache-dir", str(root)]) == 0
        assert "cleared 3 entries" in capsys.readouterr().out
        assert not any(path.parent.exists() for path in paths)
        assert main(["cache", "info", "--cache-dir", str(root)]) == 0
        assert "legacy (JSON): 0" in capsys.readouterr().out


def _writer(root, key, rounds):
    store = ResultStore(root)
    for index in range(rounds):
        store.put(key, {"round": index, "padding": "x" * 256})


class TestConcurrentWriters:
    def test_racing_writers_never_expose_partial_entries(self, tmp_path):
        # Two processes hammer the same key while the parent reads:
        # every read is a full CRC-checked record or a miss, never a
        # torn value (mid-session torn tails stay pending, they are
        # not truncated out from under a live writer).
        root = tmp_path / "cache"
        rounds = 40
        writers = [multiprocessing.Process(target=_writer,
                                           args=(root, KEY, rounds))
                   for _ in range(2)]
        for proc in writers:
            proc.start()
        reader = ResultStore(root, cache_capacity=0)
        while any(proc.is_alive() for proc in writers):
            payload = reader.get(KEY)
            if payload is not None:
                assert set(payload) == {"round", "padding"}
                assert payload["padding"] == "x" * 256
        for proc in writers:
            proc.join()
            assert proc.exitcode == 0
        assert reader.stats.corrupt == 0
        # The live reader's view is refresh-on-miss (it may pin an
        # earlier record); a fresh open sees the final append.
        assert ResultStore(root).get(KEY)["round"] == rounds - 1


class TestChaosStoreDamage:
    """`repro.faults.ChaosStore` damage exercises corruption-as-miss."""

    def test_corrupted_write_reads_as_miss(self, tmp_path):
        plan = FaultPlan(store_faults=(StoreFault("corrupt", 1.0),))
        chaos = ChaosStore(tmp_path / "cache", plan)
        chaos.put(KEY, {"cycles": 1})
        assert chaos.get(KEY) is None
        assert chaos.stats.corrupt == 1
        assert chaos.injected["store_corrupt"] == 1

    def test_truncated_write_reads_as_miss(self, tmp_path):
        plan = FaultPlan(store_faults=(StoreFault("truncate", 1.0),))
        chaos = ChaosStore(tmp_path / "cache", plan)
        chaos.put(KEY, {"cycles": 1, "values": {"P1": 4.5}})
        assert chaos.get(KEY) is None
        assert chaos.stats.corrupt == 1

    def test_vanished_write_is_a_plain_miss(self, tmp_path):
        plan = FaultPlan(store_faults=(StoreFault("vanish", 1.0),))
        chaos = ChaosStore(tmp_path / "cache", plan)
        chaos.put(KEY, {"cycles": 1})
        assert chaos.get(KEY) is None
        assert chaos.stats.corrupt == 0    # absent, not corrupt

    def test_plain_rewrite_heals_the_damage(self, tmp_path):
        plan = FaultPlan(store_faults=(StoreFault("corrupt", 1.0),))
        chaos = ChaosStore(tmp_path / "cache", plan)
        chaos.put(KEY, {"cycles": 1})
        healer = ResultStore(tmp_path / "cache")
        assert healer.get(KEY) is None
        healer.put(KEY, {"cycles": 7})
        assert healer.get(KEY) == {"cycles": 7}


class TestDefaultLocation:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"

    def test_falls_back_to_dot_dir(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == DEFAULT_CACHE_DIRNAME
