"""Tests for the sparse top-k affinity path.

Covers the blocked top-k kernel (exactness, tie determinism, tile
invariance), the uniform-row CSR container and its npz round-trip, the
engine's streaming sparse build + ``affinity-csr`` artifact caching,
the memmap-backed out-of-core block store with pinned eviction
accounting, and executor bit-identity of inference over sparse blocks.
"""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from repro.core.affinity import (
    AffinityFunctionId,
    AffinityMatrix,
    SparseAffinityMatrix,
    densify_topk_rows,
)
from repro.core import Goggles, GogglesConfig
from repro.core.inference.hierarchical import HierarchicalConfig
from repro.engine import (
    AffinityEngine,
    ArtifactCache,
    EngineConfig,
    FeatureCosineSource,
    InferenceEngine,
    MemmapBlockStore,
    topk_block,
)


def sparsify_affinity(matrix: AffinityMatrix, top_k: int, dtype=None) -> SparseAffinityMatrix:
    """Top-k of every block of a dense matrix: what the streaming sparse build must equal."""
    target = np.dtype(dtype) if dtype is not None else matrix.values.dtype
    blocks = [topk_block(matrix.block(f).astype(target), top_k) for f in range(matrix.n_functions)]
    data, indices, fill = (np.stack(parts) for parts in zip(*blocks))
    return SparseAffinityMatrix(data=data, indices=indices, fill=fill, function_ids=matrix.function_ids)


def _flat_source() -> FeatureCosineSource:
    return FeatureCosineSource(lambda imgs: imgs.reshape(len(imgs), -1), "flat")


@pytest.fixture()
def images() -> np.ndarray:
    rng = np.random.default_rng(5)
    return rng.random((12, 3, 16, 16))


@pytest.fixture()
def sparse_matrix() -> SparseAffinityMatrix:
    rng = np.random.default_rng(11)
    dense = AffinityMatrix(
        values=rng.random((20, 3 * 20)),
        function_ids=tuple(AffinityFunctionId(0, z) for z in range(3)),
    )
    return sparsify_affinity(dense, 5, dtype=np.float32)


def _naive_topk(block: np.ndarray, k: int):
    """Per-row reference: value descending, lowest column on ties."""
    n_rows, n_cols = block.shape
    kept = min(k, n_cols)
    data = np.empty((n_rows, kept), dtype=block.dtype)
    indices = np.empty((n_rows, kept), dtype=np.int64)
    fill = np.zeros(n_rows, dtype=block.dtype)
    for i, row in enumerate(block):
        top = sorted(sorted(range(n_cols), key=lambda j: (-row[j], j))[:kept])
        indices[i] = top
        data[i] = row[top]
        if kept < n_cols:
            dropped = float(row.sum()) - float(row[top].sum())
            fill[i] = dropped / (n_cols - kept)
    return data, indices, fill


class TestTopkBlock:
    def test_matches_naive_reference(self):
        rng = np.random.default_rng(0)
        block = rng.random((9, 14))
        for k in (1, 5, 13):
            data, indices, fill = topk_block(block, k, row_tile=4)
            ref_data, ref_indices, ref_fill = _naive_topk(block, k)
            np.testing.assert_array_equal(indices, ref_indices)
            np.testing.assert_array_equal(data, ref_data)
            np.testing.assert_allclose(fill, ref_fill, atol=1e-12)

    def test_tie_break_is_lowest_column(self):
        block = np.ones((3, 8))
        data, indices, fill = topk_block(block, 3)
        np.testing.assert_array_equal(indices, np.tile(np.arange(3), (3, 1)))
        np.testing.assert_array_equal(data, np.ones((3, 3)))

    def test_k_at_least_n_cols_is_lossless(self):
        rng = np.random.default_rng(1)
        block = rng.random((6, 7))
        for k in (7, 20):
            data, indices, fill = topk_block(block, k)
            np.testing.assert_array_equal(data, block)
            np.testing.assert_array_equal(indices, np.tile(np.arange(7), (6, 1)))
            np.testing.assert_array_equal(fill, np.zeros(6))

    def test_row_tile_invariance(self):
        rng = np.random.default_rng(2)
        block = rng.random((11, 9)).astype(np.float32)
        reference = topk_block(block, 4, row_tile=None)
        for row_tile in (1, 3, 100):
            tiled = topk_block(block, 4, row_tile=row_tile)
            for got, want in zip(tiled, reference):
                np.testing.assert_array_equal(got, want)

    def test_dtype_follows_block(self):
        block = np.random.default_rng(3).random((4, 6)).astype(np.float32)
        data, indices, fill = topk_block(block, 2)
        assert data.dtype == np.float32 and fill.dtype == np.float32
        assert indices.dtype == np.int64

    def test_fill_preserves_row_mass(self):
        rng = np.random.default_rng(4)
        block = rng.random((8, 10))
        data, indices, fill = topk_block(block, 3)
        densified = densify_topk_rows(data, indices, fill, 10)
        np.testing.assert_allclose(densified.sum(axis=1), block.sum(axis=1), rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            topk_block(np.arange(4.0), 2)
        with pytest.raises(ValueError, match="k"):
            topk_block(np.ones((3, 3)), 0)


class TestSparseAffinityMatrix:
    def test_shape_properties(self, sparse_matrix):
        assert sparse_matrix.n_examples == 20
        assert sparse_matrix.n_functions == 3
        assert sparse_matrix.top_k == 5
        assert sparse_matrix.dtype == np.float32
        np.testing.assert_array_equal(sparse_matrix.indptr, np.arange(21) * 5)

    def test_block_equals_densify_block(self, sparse_matrix):
        for f in range(sparse_matrix.n_functions):
            np.testing.assert_array_equal(sparse_matrix.block(f), sparse_matrix.densify_block(f))

    def test_densify_round_trips_at_full_k(self):
        rng = np.random.default_rng(6)
        dense = AffinityMatrix(values=rng.random((10, 2 * 10)))
        sparse = sparsify_affinity(dense, 10)
        np.testing.assert_array_equal(sparse.densify().values, dense.values)

    def test_cache_round_trip(self, sparse_matrix, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.save_affinity_csr("a" * 64, sparse_matrix)
        loaded = cache.load_affinity_csr("a" * 64)
        np.testing.assert_array_equal(loaded.data, sparse_matrix.data)
        np.testing.assert_array_equal(loaded.indices, sparse_matrix.indices)
        np.testing.assert_array_equal(loaded.fill, sparse_matrix.fill)
        assert loaded.function_ids == sparse_matrix.function_ids

    def test_content_hash_sensitive_to_values(self, sparse_matrix):
        data = sparse_matrix.data.copy()
        data[0, 0, 0] += np.float32(1e-3)
        other = SparseAffinityMatrix(
            data=data,
            indices=sparse_matrix.indices,
            fill=sparse_matrix.fill,
            function_ids=sparse_matrix.function_ids,
        )
        assert other.content_hash() != sparse_matrix.content_hash()
        assert sparse_matrix.content_hash() == sparse_matrix.content_hash()

    def test_validation(self, sparse_matrix):
        with pytest.raises(ValueError):
            SparseAffinityMatrix(
                data=sparse_matrix.data,
                indices=sparse_matrix.indices[:, :, :2],
                fill=sparse_matrix.fill,
            )

    def test_out_of_range_function(self, sparse_matrix):
        with pytest.raises(ValueError, match="out of range"):
            sparse_matrix.block(3)


class TestEngineSparseBuild:
    def test_build_returns_sparse_float32(self, images, tmp_path):
        engine = AffinityEngine(
            _flat_source(),
            EngineConfig(cache_dir=str(tmp_path), affinity_mode="sparse", precision="float32"),
        )
        sparse = engine.build(images)
        assert isinstance(sparse, SparseAffinityMatrix)
        assert sparse.dtype == np.float32
        assert sparse.top_k == 3  # default ceil(N/4) at N=12

    def test_streaming_build_matches_dense_sparsify(self, images):
        sparse = AffinityEngine(
            _flat_source(), EngineConfig(affinity_mode="sparse", precision="float32", top_k=4)
        ).build(images)
        dense = AffinityEngine(_flat_source(), EngineConfig()).build(images)
        reference = sparsify_affinity(dense, 4, dtype=np.float32)
        np.testing.assert_array_equal(sparse.data, reference.data)
        np.testing.assert_array_equal(sparse.indices, reference.indices)
        np.testing.assert_array_equal(sparse.fill, reference.fill)

    def test_cache_hit_on_rebuild(self, images, tmp_path, cache_label, cache_counts):
        config = EngineConfig(cache_dir=str(tmp_path), affinity_mode="sparse", top_k=3)
        first = AffinityEngine(_flat_source(), config).build(images)
        engine = AffinityEngine(_flat_source(), config)
        engine.cache.tenant = cache_label
        second = engine.build(images)
        assert cache_counts(engine.cache).hits.get("affinity-csr") == 1
        np.testing.assert_array_equal(first.data, second.data)
        np.testing.assert_array_equal(first.indices, second.indices)

    def test_cache_key_sensitive_to_top_k(self, images, tmp_path, cache_label, cache_counts):
        for k in (2, 3):
            engine = AffinityEngine(
                _flat_source(),
                EngineConfig(cache_dir=str(tmp_path), affinity_mode="sparse", top_k=k),
            )
            engine.cache.tenant = cache_label
            sparse = engine.build(images)
            assert sparse.top_k == k
            assert cache_counts(engine.cache).hits.get("affinity-csr", 0) == 0

    def test_keep_state_rejected(self, images):
        engine = AffinityEngine(_flat_source(), EngineConfig(affinity_mode="sparse"))
        with pytest.raises(ValueError, match="build-only"):
            engine.build(images, keep_state=True)

    def test_extend_rejected(self, images):
        engine = AffinityEngine(_flat_source(), EngineConfig(affinity_mode="sparse"))
        with pytest.raises(RuntimeError, match="build-only"):
            engine.extend(images)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="affinity_mode"):
            EngineConfig(affinity_mode="csr")
        with pytest.raises(ValueError, match="top_k"):
            EngineConfig(affinity_mode="sparse", top_k=0)
        with pytest.raises(ValueError, match="sparse"):
            EngineConfig(top_k=4)
        with pytest.raises(ValueError, match="sparse"):
            EngineConfig(memmap=True)


class TestMemmapBlocks:
    def test_engine_memmap_blocks_match_in_ram(self, images, tmp_path):
        engine = AffinityEngine(
            _flat_source(),
            EngineConfig(
                cache_dir=str(tmp_path), affinity_mode="sparse", precision="float32", memmap=True
            ),
        )
        sparse = engine.build(images)
        block = sparse.block(0)
        assert isinstance(block, np.memmap)
        np.testing.assert_array_equal(np.asarray(block), sparse.densify_block(0))
        assert any(name.startswith("affinity-block-") for name in os.listdir(tmp_path))

    def test_standalone_store_round_trip(self, sparse_matrix, tmp_path):
        store = MemmapBlockStore()
        backed = sparse_matrix.with_store(store)
        for f in range(backed.n_functions):
            block = backed.block(f)
            assert isinstance(block, np.memmap)
            assert block.dtype == np.float32
            np.testing.assert_array_equal(np.asarray(block), sparse_matrix.densify_block(f))

    def test_pinned_block_survives_eviction_until_released(self, sparse_matrix, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        store = MemmapBlockStore(cache=cache, base_key="k" * 24)
        backed = sparse_matrix.with_store(store)
        block = backed.block(0)
        path = store._path(backed, 0)
        assert cache.pinned(path)
        cache.clear()
        assert os.path.exists(path), "pinned memmap must survive clear()"
        del block
        gc.collect()
        assert not cache.pinned(path)
        assert not os.path.exists(path), "deferred eviction must apply on release"

    def test_manual_pin_accounting(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        saved = cache.save_arrays("state", "a" * 24, {"x": np.arange(8.0)})
        cache.pin(saved)
        cache.pin(saved)
        cache.clear()
        assert os.path.exists(saved)
        cache.unpin(saved)
        assert os.path.exists(saved), "still pinned once"
        cache.unpin(saved)
        assert not os.path.exists(saved)


class TestExecutorsOnSparse:
    @pytest.mark.parametrize("n_jobs", [1, 2], ids=["serial", "thread"])
    def test_bit_identical_to_serial(self, sparse_matrix, n_jobs):
        config = HierarchicalConfig(n_classes=2, seed=0)
        reference = InferenceEngine(config).fit(sparse_matrix)
        result = InferenceEngine(config, n_jobs=n_jobs).fit(sparse_matrix)
        np.testing.assert_array_equal(result.posterior, reference.posterior)

    def test_dense_and_sparse_agree_at_full_k(self):
        rng = np.random.default_rng(12)
        dense = AffinityMatrix(values=rng.random((16, 2 * 16)))
        sparse = sparsify_affinity(dense, 16)
        config = HierarchicalConfig(n_classes=2, seed=0)
        dense_fit = InferenceEngine(config).fit(dense)
        sparse_fit = InferenceEngine(config).fit(sparse)
        np.testing.assert_array_equal(sparse_fit.posterior, dense_fit.posterior)


class TestGogglesSparse:
    def test_end_to_end_sparse_memmap(self, vgg, small_surface, tmp_path):
        dev = small_surface.sample_dev_set(2, seed=0)
        config = GogglesConfig(
            n_classes=2,
            seed=0,
            top_z=3,
            layers=(1, 2),
            cache_dir=str(tmp_path),
            affinity_mode="sparse",
            memmap=True,
        )
        result = Goggles(config, model=vgg).label(small_surface.images, dev)
        assert isinstance(result.affinity, SparseAffinityMatrix)
        assert result.affinity.dtype == np.float32
        assert result.probabilistic_labels.shape == (small_surface.n_examples, 2)
        np.testing.assert_allclose(result.probabilistic_labels.sum(axis=1), 1.0, atol=1e-9)

    def test_explicit_engine_override_is_build_only_too(self, vgg, small_surface):
        """`GogglesConfig(engine=EngineConfig(affinity_mode="sparse"))` —
        the path the CLI takes — must behave like the convenience field:
        the build-only guard reads the *resolved* engine config, so the
        default ``keep_corpus_state=True`` is silently dropped instead
        of asking the sparse engine to keep state."""
        dev = small_surface.sample_dev_set(2, seed=0)
        config = GogglesConfig(
            n_classes=2,
            seed=0,
            top_z=3,
            layers=(1, 2),
            engine=EngineConfig(affinity_mode="sparse", precision="float32"),
        )
        assert config.keep_corpus_state  # the default that used to crash
        result = Goggles(config, model=vgg).label(small_surface.images, dev)
        assert isinstance(result.affinity, SparseAffinityMatrix)

    def test_exact_top_k_matches_dense_labels(self, vgg, small_surface):
        """With k=N (no truncation) the only delta is float32 extraction,
        which must not move any hard label on the integration corpus."""
        dev = small_surface.sample_dev_set(2, seed=0)
        base = dict(n_classes=2, seed=0, top_z=3, layers=(1, 2), keep_corpus_state=False)
        n = small_surface.n_examples
        dense = Goggles(
            GogglesConfig(**base, engine=EngineConfig(precision="float64")), model=vgg
        ).label(small_surface.images, dev)
        sparse = Goggles(
            GogglesConfig(**base, affinity_mode="sparse", top_k=n), model=vgg
        ).label(small_surface.images, dev)
        np.testing.assert_array_equal(sparse.predictions, dense.predictions)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
