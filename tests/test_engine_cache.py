"""Tests for the content-addressed artifact cache and engine cache behaviour."""

from __future__ import annotations

import os
import threading
import unittest.mock
import zipfile

import numpy as np
import pytest

from repro.core.affinity import AffinityMatrix, SparseAffinityMatrix
from repro.engine import (
    AffinityEngine,
    ArtifactCache,
    EngineConfig,
    FeatureCosineSource,
    PrototypeAffinitySource,
    hash_arrays,
    hash_params,
    topk_block,
)


class TestHashing:
    def test_array_hash_sensitive_to_content(self):
        a = np.arange(12.0).reshape(3, 4)
        b = a.copy()
        assert hash_arrays(a) == hash_arrays(b)
        b[0, 0] += 1e-9
        assert hash_arrays(a) != hash_arrays(b)

    def test_array_hash_sensitive_to_shape_and_dtype(self):
        a = np.arange(12.0)
        assert hash_arrays(a) != hash_arrays(a.reshape(3, 4))
        assert hash_arrays(a) != hash_arrays(a.astype(np.float32))

    def test_array_hash_is_pinned(self):
        """Every cache key starts from this digest: if it moved, every
        entry already on disk would silently become a miss."""
        a = np.arange(12, dtype=np.int64).reshape(3, 4)
        assert hash_arrays(a) == "2dbaee24e99866f445e3be4af710f8075e4fd7ee175d377b4a901f55288c507b"
        assert hash_arrays(np.asfortranarray(a)) == hash_arrays(a)

    def test_param_hash_order_independent(self):
        assert hash_params({"a": 1, "b": 2}) == hash_params({"b": 2, "a": 1})
        assert hash_params({"a": 1}) != hash_params({"a": 2})


class TestArtifactCache:
    def test_array_roundtrip(self, tmp_path, cache_label, cache_counts):
        cache = ArtifactCache(str(tmp_path))
        cache.tenant = cache_label
        key = cache.key("datahash", {"p": 1})
        assert cache.load_arrays("state", key, dict) is None
        cache.save_arrays("state", key, {"x": np.arange(5), "y": np.eye(2)})
        loaded = cache.load_arrays("state", key, dict)
        np.testing.assert_array_equal(loaded["x"], np.arange(5))
        np.testing.assert_array_equal(loaded["y"], np.eye(2))
        assert cache_counts(cache)[:2] == ({"state": 1}, {"state": 1})

    def test_rejected_arrays_are_a_miss_and_evicted(self, tmp_path, cache_label, cache_counts):
        """A readable entry whose arrays the reader rejects is evicted and
        counted as one miss, never as a hit."""
        cache = ArtifactCache(str(tmp_path))
        cache.tenant = cache_label
        key = cache.key("datahash", {"p": 1})
        path = cache.save_arrays("state", key, {"bogus": np.arange(3)})

        def parse(stored):
            return int(stored["n_images"])

        assert cache.load_arrays("state", key, parse) is None
        assert cache_counts(cache)[:2] == ({}, {"state": 1})
        assert not os.path.exists(path)

    def test_clear(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.save_arrays("a", "0" * 64, {"x": np.arange(3)})
        cache.save_arrays("b", "1" * 64, {"x": np.arange(3)})
        assert cache.clear() == 2
        assert cache.load_arrays("a", "0" * 64, dict) is None

    def test_entries_are_stored_uncompressed(self, tmp_path):
        """Every writer stores its members uncompressed: zlib cost
        seconds per large entry for ~20% less disk."""
        matrix = AffinityMatrix(values=np.random.default_rng(0).random((6, 2 * 6)))
        blocks = [topk_block(matrix.block(f), 3) for f in range(matrix.n_functions)]
        data, indices, fill = (np.stack(parts) for parts in zip(*blocks))
        sparse = SparseAffinityMatrix(data=data, indices=indices, fill=fill, function_ids=matrix.function_ids)
        cache = ArtifactCache(str(tmp_path))
        paths = [
            cache.save_arrays("state", "a" * 64, {"x": np.arange(5), "y": np.eye(2)}),
            cache.save_affinity("b" * 64, matrix),
            cache.save_affinity_csr("c" * 64, sparse),
        ]
        for path in paths:
            with zipfile.ZipFile(path) as archive:
                members = archive.infolist()
            assert members
            assert {member.compress_type for member in members} == {zipfile.ZIP_STORED}, path

    def test_keys_differ_by_kind_inputs(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        assert cache.key("d", {"p": 1}) != cache.key("d", {"p": 2})
        assert cache.key("d", {"p": 1}) != cache.key("e", {"p": 1})


class TestEngineCaching:
    def test_cold_miss_then_warm_hit(self, tmp_path, vgg, tiny_images, cache_label, cache_counts):
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0, 1))
        engine = AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path)))
        engine.cache.tenant = cache_label
        first = engine.build(tiny_images, keep_state=False)
        assert cache_counts(engine.cache).misses.get("affinity") == 1
        second = engine.build(tiny_images, keep_state=False)
        assert cache_counts(engine.cache).hits.get("affinity") == 1
        np.testing.assert_array_equal(first.values, second.values)
        assert first.function_ids == second.function_ids

    def test_cache_shared_across_engines(self, tmp_path, vgg, tiny_images, cache_label, cache_counts):
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        config = EngineConfig(cache_dir=str(tmp_path))
        AffinityEngine(source, config).build(tiny_images, keep_state=False)
        other = AffinityEngine(source, config)
        other.cache.tenant = cache_label
        other.build(tiny_images, keep_state=False)
        assert cache_counts(other.cache)[:2] == ({"affinity": 1}, {})

    def test_different_images_miss(self, tmp_path, vgg, tiny_images, cache_label, cache_counts):
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        engine = AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path)))
        engine.cache.tenant = cache_label
        engine.build(tiny_images, keep_state=False)
        engine.build(tiny_images + 1e-6, keep_state=False)
        assert cache_counts(engine.cache)[:2] == ({}, {"affinity": 2})

    def test_different_source_params_miss(self, tmp_path, vgg, tiny_images, cache_label, cache_counts):
        config = EngineConfig(cache_dir=str(tmp_path))
        AffinityEngine(PrototypeAffinitySource(vgg, top_z=2, layers=(0,)), config).build(
            tiny_images, keep_state=False
        )
        engine = AffinityEngine(PrototypeAffinitySource(vgg, top_z=3, layers=(0,)), config)
        engine.cache.tenant = cache_label
        engine.build(tiny_images, keep_state=False)
        assert cache_counts(engine.cache).hits == {}

    def test_precision_changes_key(self, tmp_path, vgg, tiny_images, cache_label, cache_counts):
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        for first, second in (("float64", "float32"), ("float32", "float64")):
            cache_dir = str(tmp_path / first)
            AffinityEngine(source, EngineConfig(cache_dir=cache_dir, precision=first)).build(
                tiny_images, keep_state=False
            )
            engine = AffinityEngine(source, EngineConfig(cache_dir=cache_dir, precision=second))
            engine.cache.tenant = f"{cache_label}-{second}"
            engine.build(tiny_images, keep_state=False)
            assert cache_counts(engine.cache).hits == {}, (first, second)

    def test_runtime_knobs_do_not_change_key(self, tmp_path, vgg, tiny_images, cache_label, cache_counts):
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        AffinityEngine(
            source, EngineConfig(cache_dir=str(tmp_path), batch_size=2, n_jobs=1)
        ).build(tiny_images, keep_state=False)
        engine = AffinityEngine(
            source, EngineConfig(cache_dir=str(tmp_path), batch_size=None, n_jobs=3, row_tile=2)
        )
        engine.cache.tenant = cache_label
        engine.build(tiny_images, keep_state=False)
        assert cache_counts(engine.cache).hits == {"affinity": 1}

    def test_state_cached_for_incremental(self, tmp_path, vgg, tiny_images):
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        config = EngineConfig(cache_dir=str(tmp_path))
        AffinityEngine(source, config).build(tiny_images)  # keep_state default: True
        # A fresh engine restores the corpus state from the cache and can extend.
        engine = AffinityEngine(source, config)
        engine.build(tiny_images)
        assert engine.state is not None
        extended = engine.extend(tiny_images[:2])
        assert extended.n_examples == tiny_images.shape[0] + 2

    def test_corrupt_entry_is_miss_and_evicted(self, tmp_path, vgg, tiny_images, cache_label, cache_counts):
        """A truncated/garbage artifact must never crash a run."""
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        engine = AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path)))
        engine.cache.tenant = cache_label
        first = engine.build(tiny_images, keep_state=False)
        (entry,) = [p for p in os.listdir(tmp_path) if p.startswith("affinity-")]
        path = os.path.join(str(tmp_path), entry)
        with open(path, "wb") as handle:
            handle.write(b"not a zip file")
        rebuilt = engine.build(tiny_images, keep_state=False)
        np.testing.assert_array_equal(rebuilt.values, first.values)
        assert cache_counts(engine.cache).misses.get("affinity") == 2
        # ... and the bad entry was replaced by a good one.
        third = engine.build(tiny_images, keep_state=False)
        assert cache_counts(engine.cache).hits.get("affinity") == 1
        np.testing.assert_array_equal(third.values, first.values)

    def test_extend_is_a_cache_hit_on_rerun(self, tmp_path, vgg, tiny_images, cache_label, cache_counts):
        """The chained extension artifact is read back, not just written."""
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        config = EngineConfig(cache_dir=str(tmp_path))
        first = AffinityEngine(source, config)
        first.build(tiny_images[:3])
        extended = first.extend(tiny_images[3:])
        # Fresh process: corpus build is a hit, and so is the extension.
        second = AffinityEngine(source, config)
        second.cache.tenant = cache_label
        second.build(tiny_images[:3])
        replay = second.extend(tiny_images[3:])
        np.testing.assert_array_equal(replay.values, extended.values)
        assert cache_counts(second.cache).misses == {}
        assert cache_counts(second.cache).hits.get("affinity") == 2  # corpus + extension

    def test_state_schema_drift_is_miss(self, tmp_path, vgg, tiny_images, cache_label, cache_counts):
        """A readable state npz without n_images is evicted, not a crash,
        and counts as a miss: the affinity entry hits, the state misses."""
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        engine = AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path)))
        first = engine.build(tiny_images)
        (entry,) = [p for p in os.listdir(tmp_path) if p.startswith("state-")]
        key = entry[len("state-"):-len(".npz")]
        np.savez_compressed(os.path.join(str(tmp_path), entry), bogus=np.arange(3))
        fresh = AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path)))
        fresh.cache.tenant = cache_label
        rebuilt = fresh.build(tiny_images)  # rebuilds state instead of crashing
        np.testing.assert_array_equal(rebuilt.values, first.values)
        assert cache_counts(fresh.cache)[:2] == ({"affinity": 1}, {"state": 1})
        assert fresh.state is not None
        assert fresh.extend(tiny_images[:1]).n_examples == tiny_images.shape[0] + 1

    def test_no_cache_dir_disables_cache(self, vgg, tiny_images):
        engine = AffinityEngine(PrototypeAffinitySource(vgg, top_z=2, layers=(0,)))
        assert engine.cache is None
        engine.build(tiny_images)  # still works, just uncached

    def test_feature_source_cacheable(self, tmp_path, tiny_images, cache_label, cache_counts):
        source = FeatureCosineSource(lambda imgs: imgs.reshape(imgs.shape[0], -1), "flat")
        engine = AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path)))
        engine.cache.tenant = cache_label
        first = engine.build(tiny_images)
        second = engine.build(tiny_images)
        assert cache_counts(engine.cache).hits.get("affinity", 0) >= 1
        np.testing.assert_array_equal(first.values, second.values)


class TestSizeBudget:
    """max_bytes: LRU (mtime-based) eviction keeps the cache bounded."""

    @staticmethod
    def _fill(cache: ArtifactCache, count: int, start: int = 0) -> list[str]:
        import os
        import time

        keys = []
        for i in range(start, start + count):
            key = cache.key(f"entry-{i}", {})
            cache.save_arrays("state", key, {"x": np.arange(512) + i})
            # mtime resolution can swallow sub-ms gaps; force an order.
            past = time.time() - (start + count - i)
            os.utime(cache.path("state", key), (past, past))
            keys.append(key)
        return keys

    def test_write_evicts_oldest_first(self, tmp_path, cache_label, cache_counts):
        cache = ArtifactCache(str(tmp_path), max_bytes=1)  # every write over budget
        cache.tenant = cache_label
        keys = self._fill(cache, 3)
        # Only the most recent write survives a 1-byte budget.
        newest = cache.key("fresh", {})
        cache.save_arrays("state", newest, {"x": np.arange(512)})
        assert cache.load_arrays("state", newest, dict) is not None
        assert all(cache.load_arrays("state", key, dict) is None for key in keys)
        assert cache_counts(cache).evictions == 3

    def test_budget_large_enough_keeps_everything(self, tmp_path, cache_label, cache_counts):
        cache = ArtifactCache(str(tmp_path), max_bytes=10**9)
        cache.tenant = cache_label
        keys = self._fill(cache, 4)
        assert all(cache.load_arrays("state", key, dict) is not None for key in keys)
        assert cache_counts(cache).evictions == 0

    def test_read_refreshes_recency(self, tmp_path):
        """A hit refreshes mtime, so hot entries survive eviction."""
        cache = ArtifactCache(str(tmp_path), max_bytes=None)
        old, hot = self._fill(cache, 2)  # `old` is older than `hot`
        assert cache.load_arrays("state", old, dict) is not None  # touch: now newest
        cache.max_bytes = cache.total_bytes() - 1  # force one eviction
        fresh = cache.key("fresh", {})
        cache.save_arrays("state", fresh, {"x": np.arange(4)})
        assert cache.load_arrays("state", old, dict) is not None  # survived (hot)
        assert cache.load_arrays("state", hot, dict) is None  # evicted (LRU)

    def test_just_written_entry_never_evicted(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=1)
        key = cache.key("solo", {})
        cache.save_arrays("state", key, {"x": np.arange(2048)})
        assert cache.load_arrays("state", key, dict) is not None

    def test_affinity_writes_respect_budget(self, tmp_path, vgg, tiny_images, cache_label, cache_counts):
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        engine = AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path), cache_max_bytes=1))
        engine.cache.tenant = cache_label
        engine.build(tiny_images, keep_state=False)
        engine.build(tiny_images + 1e-6, keep_state=False)  # different key
        import os

        entries = [p for p in os.listdir(tmp_path) if p.endswith(".npz")]
        assert len(entries) == 1  # first entry evicted by the second write
        assert cache_counts(engine.cache).evictions >= 1

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ArtifactCache(str(tmp_path), max_bytes=0)


class TestEngineConfigValidation:
    def test_bad_precision(self):
        with pytest.raises(ValueError, match="precision"):
            EngineConfig(precision="float16")

    def test_bad_n_jobs(self):
        with pytest.raises(ValueError, match="n_jobs"):
            EngineConfig(n_jobs=0)

    def test_budget_flows_from_goggles_config(self):
        from repro.core import GogglesConfig

        config = GogglesConfig(n_jobs=4, cache_max_bytes=1024)
        engine = config.engine_config()
        assert (engine.n_jobs, engine.cache_max_bytes) == (4, 1024)


class TestConcurrentWriteEvictionRaces:
    """Cache eviction racing concurrent shard writes (distributed runtime).

    The broker's coordinator thread, its handler threads, and every
    worker process share one cache directory; writes publish by
    atomically renaming a *unique* ``.tmp`` scratch file, so eviction —
    or a reader — can only ever observe a complete entry or a miss.
    """

    def test_scratch_files_invisible_to_entries_and_budget(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=10_000)
        cache.save_arrays("shard", "a" * 64, {"x": np.arange(8)})
        # A crashed writer's orphaned scratch file must not be listed,
        # counted against the budget, or served as anything.
        orphan = tmp_path / "shard-orphan.tmp"
        orphan.write_bytes(b"half-written garbage")
        paths = [path for _, _, path in cache._entries()]
        assert all(".tmp" not in path for path in paths)
        assert cache.total_bytes() == sum(size for _, size, _ in cache._entries())
        # clear() sweeps the orphan alongside real entries.
        assert cache.clear() == 1
        assert not orphan.exists()

    def test_half_written_entry_never_published(self, tmp_path, monkeypatch):
        """A writer that dies mid-write leaves no ``.npz`` behind: the
        half-written bytes live only in its private scratch file, which
        is cleaned up — a later read is a miss, never a corrupt hit."""
        cache = ArtifactCache(str(tmp_path))
        key = "b" * 64

        def exploding_savez(handle, **arrays):
            handle.write(b"PK\x03\x04 partial zip header")
            raise OSError("disk full mid-write")

        monkeypatch.setattr(np, "savez", exploding_savez)
        with pytest.raises(OSError, match="disk full"):
            cache.save_arrays("shard", key, {"x": np.arange(4)})
        monkeypatch.undo()
        assert list(tmp_path.glob("*.npz")) == []
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.load_arrays("shard", key, dict) is None

    def test_eviction_never_breaks_an_in_flight_affinity_write(self, tmp_path, vgg, tiny_images):
        """Regression: the affinity scratch file used to be named
        ``*.tmp.npz`` — visible to the eviction scan, which could delete
        it mid-write and break the publishing rename.  Scratch files now
        never match the entry pattern, so a concurrent over-budget write
        cannot touch them."""
        from reference_affinity import compute_affinity_matrix

        matrix = compute_affinity_matrix(vgg, tiny_images, top_z=2, layers=(1,))
        cache = ArtifactCache(str(tmp_path), max_bytes=1)  # evict everything else
        original_replace = os.replace
        interposed = threading.Event()

        def replace_with_concurrent_eviction(src, dst):
            # Model the race once: while the affinity write sits between
            # its scratch file and the publishing rename, another
            # thread's shard write runs the over-budget eviction scan.
            if not interposed.is_set():
                interposed.set()
                cache.save_arrays("shard", "c" * 64, {"x": np.arange(16)})
            return original_replace(src, dst)

        with unittest.mock.patch.object(os, "replace", side_effect=replace_with_concurrent_eviction):
            cache.save_affinity("d" * 64, matrix)
        assert interposed.is_set()
        loaded = cache.load_affinity("d" * 64)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.values, matrix.values)

    def test_concurrent_same_key_shard_writes_never_serve_partial(self, tmp_path):
        """Two workers racing on a de-duplicated shard key write through
        *separate* scratch files (a shared one interleaves bytes into a
        corrupt zip); readers see a miss or the complete entry only."""
        cache = ArtifactCache(str(tmp_path), max_bytes=4096)
        key = "e" * 64
        expected = {"best": np.arange(64, dtype=np.float64).reshape(8, 8)}
        errors: list[BaseException] = []
        stop = threading.Event()

        def writer():
            try:
                for _ in range(30):
                    cache.save_arrays("shard", key, expected)
            except BaseException as err:  # pragma: no cover - the failure
                errors.append(err)

        def reader():
            try:
                while not stop.is_set():
                    loaded = cache.load_arrays("shard", key, dict)
                    if loaded is not None:
                        assert set(loaded) == {"best"}
                        np.testing.assert_array_equal(loaded["best"], expected["best"])
            except BaseException as err:  # pragma: no cover - the failure
                errors.append(err)

        threads = [threading.Thread(target=writer) for _ in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads[:3]:
            thread.start()
        for thread in threads[3:]:
            thread.start()
        for thread in threads[:3]:
            thread.join(timeout=30.0)
        stop.set()
        for thread in threads[3:]:
            thread.join(timeout=30.0)
        assert not errors, errors
        loaded = cache.load_arrays("shard", key, dict)
        assert loaded is not None
        np.testing.assert_array_equal(loaded["best"], expected["best"])
