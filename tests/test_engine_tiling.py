"""Tests for the engine's chunked extraction and tiled affinity kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_affinity import _layer_affinity_blocks, compute_affinity_matrix, extract_prototypes

from repro.core.affinity import _EPS
from repro.engine import (
    AffinityEngine,
    EngineConfig,
    PrototypeAffinitySource,
    assemble_blocks,
    best_similarities,
    extract_pool_features,
    iter_batches,
    tile_bounds,
    tile_executor,
    unique_unit_prototypes,
    unit_location_vectors,
)


@pytest.fixture(scope="module")
def filter_maps() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.standard_normal((9, 6, 4, 5))


class TestIterBatches:
    def test_covers_range_exactly(self):
        slices = list(iter_batches(10, 3))
        assert [(s.start, s.stop) for s in slices] == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_none_is_single_batch(self):
        assert [(s.start, s.stop) for s in iter_batches(5, None)] == [(0, 5)]

    def test_oversized_batch(self):
        assert [(s.start, s.stop) for s in iter_batches(4, 100)] == [(0, 4)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            list(iter_batches(5, 0))
        with pytest.raises(ValueError):
            list(iter_batches(0, 2))


class TestChunkedExtraction:
    def test_matches_single_pass(self, vgg, tiny_images):
        whole = vgg.forward_pools(tiny_images)
        chunked = extract_pool_features(vgg, tiny_images, batch_size=3)
        for layer in range(vgg.N_POOL_LAYERS):
            np.testing.assert_array_equal(chunked[layer], whole[layer])

    def test_layer_subset(self, vgg, tiny_images):
        out = extract_pool_features(vgg, tiny_images, layers=(1, 4), batch_size=2)
        assert set(out) == {1, 4}

    def test_bad_layer(self, vgg, tiny_images):
        with pytest.raises(ValueError, match="layer"):
            extract_pool_features(vgg, tiny_images, layers=(9,))

    def test_empty_layers(self, vgg, tiny_images):
        with pytest.raises(ValueError, match="at least one layer"):
            extract_pool_features(vgg, tiny_images, layers=())


def assert_matches_per_image_reference(filter_maps: np.ndarray, z: int) -> None:
    """Vectorised extraction reproduces select_top_z + padded_vectors."""
    table = unique_unit_prototypes(filter_maps, z)
    reference_sets = extract_prototypes(filter_maps, z)
    offset = 0
    for j, pset in enumerate(reference_sets):
        unit = pset.vectors / np.maximum(np.linalg.norm(pset.vectors, axis=1, keepdims=True), _EPS)
        rows = table.vectors[offset : offset + pset.n_prototypes]
        np.testing.assert_array_equal(rows, unit)
        padded = pset.padded_vectors(z)
        padded_unit = padded / np.maximum(np.linalg.norm(padded, axis=1, keepdims=True), _EPS)
        np.testing.assert_array_equal(table.vectors[table.rank_rows[j]], padded_unit)
        offset += pset.n_prototypes
    assert table.n_rows == offset


class TestUniquePrototypes:
    def test_matches_per_image_reference(self, filter_maps):
        assert_matches_per_image_reference(filter_maps, 4)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_reference_with_ties(self, dtype):
        """ReLU-like integer maps, channels-last like the backbone's:
        channel maxima tie (ranked by channel), a channel's maximum
        repeats across positions (the first one is its location), and
        all-zero channels and an all-zero image rank last at position 0."""
        rng = np.random.default_rng(11)
        maps = np.maximum(rng.integers(-2, 4, size=(5, 3, 4, 12)), 0).astype(dtype)
        maps[:, :, :, [2, 7]] = 0.0  # all-zero channels
        maps[4] = 0.0  # an all-zero image
        filter_maps = maps.transpose(0, 3, 1, 2)
        for z in (3, 12):
            assert_matches_per_image_reference(filter_maps, z)

    def test_shifted(self, filter_maps):
        table = unique_unit_prototypes(filter_maps, 3)
        shifted = table.shifted(100)
        np.testing.assert_array_equal(shifted.rank_rows, table.rank_rows + 100)
        assert shifted.vectors is table.vectors

    def test_bad_z(self, filter_maps):
        with pytest.raises(ValueError, match="z"):
            unique_unit_prototypes(filter_maps, 0)


class TestBestSimilarities:
    def test_brute_force_reference(self, filter_maps):
        vectors = unit_location_vectors(filter_maps)
        table = unique_unit_prototypes(filter_maps, 3)
        best = best_similarities(table.vectors, vectors, row_tile=2, col_tile=5)
        n, _, p = vectors.shape
        for r in range(table.n_rows):
            for i in range(n):
                expected = max(float(table.vectors[r] @ vectors[i, :, q]) for q in range(p))
                assert best[r, i] == pytest.approx(expected, abs=1e-12)

    def test_tiling_is_value_neutral(self, filter_maps):
        vectors = unit_location_vectors(filter_maps)
        table = unique_unit_prototypes(filter_maps, 4)
        reference = best_similarities(table.vectors, vectors, row_tile=None, col_tile=None)
        for row_tile, col_tile in [(1, None), (4, 3), (None, 2), (3, 1)]:
            tiled = best_similarities(table.vectors, vectors, row_tile=row_tile, col_tile=col_tile)
            np.testing.assert_allclose(tiled, reference, atol=1e-12, rtol=0.0)

    def test_column_tiles_match_untiled(self):
        """Column tiles are balanced, so none has one row: a one-row
        matmul is a matrix-vector product, which BLAS sums in another
        order.  On these shapes the full-tile-and-remainder cut left a
        one-row tile at ``col_tile`` 3 and 97 and was 1 ulp off."""
        rng = np.random.default_rng(2)
        for dtype, (h, w), rows in ((np.float32, (10, 10), 2620), (np.float64, (8, 8), 2047)):
            filter_maps = rng.random((3, h, w, 16)).transpose(0, 3, 1, 2)
            vectors = unit_location_vectors(filter_maps)
            prototypes = rng.random((rows, 16))
            prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
            untiled = best_similarities(prototypes, vectors, dtype=dtype, col_tile=None)
            for col_tile in (3, 4, 97):
                tiled = best_similarities(prototypes, vectors, dtype=dtype, col_tile=col_tile)
                assert np.array_equal(tiled, untiled), (np.dtype(dtype).name, col_tile)

    def test_tile_bounds_are_balanced(self):
        assert tile_bounds(10, 3) == [(0, 3), (3, 5), (5, 8), (8, 10)]
        assert tile_bounds(10, None) == [(0, 10)]
        for n, tile in ((2620, 3), (2620, 97), (2047, 3), (7, 2)):
            bounds = tile_bounds(n, tile)
            sizes = [end - start for start, end in bounds]
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            assert all(b[1] == a[0] for b, a in zip(bounds, bounds[1:]))
            assert max(sizes) <= tile and max(sizes) - min(sizes) <= 1
            assert len(bounds) == -(-n // tile)

    def test_bad_tile(self, filter_maps):
        vectors = unit_location_vectors(filter_maps)
        table = unique_unit_prototypes(filter_maps, 2)
        with pytest.raises(ValueError, match="tile"):
            best_similarities(table.vectors, vectors, row_tile=0)

    def test_out_dtype_is_storage_only(self, filter_maps):
        """``out_dtype`` changes the output array dtype, not the compute:
        the float32-stored result is exactly the float64 result cast."""
        vectors = unit_location_vectors(filter_maps)
        table = unique_unit_prototypes(filter_maps, 3)
        reference = best_similarities(table.vectors, vectors)
        stored = best_similarities(table.vectors, vectors, out_dtype=np.float32)
        assert stored.dtype == np.float32
        np.testing.assert_array_equal(stored, reference.astype(np.float32))

    @given(
        n_images=st.integers(min_value=2, max_value=6),
        n_rows=st.integers(min_value=2, max_value=10),
        n_positions=st.integers(min_value=1, max_value=8),
        depth=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_float32_kernel_tracks_float64(self, n_images, n_rows, n_positions, depth, seed):
        """Property (sparse-path contract): the float32 similarity kernel
        agrees with the float64 kernel to ~1e-6 on unit-scale inputs, at
        every tiling."""
        rng = np.random.default_rng(seed)
        prototypes = rng.standard_normal((n_rows, depth))
        prototypes /= np.maximum(np.linalg.norm(prototypes, axis=1, keepdims=True), _EPS)
        vectors = rng.standard_normal((n_images, depth, n_positions))
        vectors /= np.maximum(np.linalg.norm(vectors, axis=1, keepdims=True), _EPS)
        exact = best_similarities(prototypes, vectors)
        half = best_similarities(prototypes, vectors, dtype=np.float32, row_tile=3)
        np.testing.assert_allclose(half, exact, atol=2e-6, rtol=0.0)


class TestAssembleBlocks:
    def test_replicates_rows(self):
        best = np.arange(12, dtype=np.float64).reshape(4, 3)  # 4 unique rows, 3 images
        rank_rows = np.array([[0, 0], [1, 2], [3, 3]])  # 3 column images, Z=2
        blocks = assemble_blocks(best, rank_rows)
        assert blocks.shape == (2, 3, 3)
        for z in range(2):
            for i in range(3):
                for j in range(3):
                    assert blocks[z, i, j] == best[rank_rows[j, z], i]


def tiled_layer_blocks(filter_maps: np.ndarray, z: int, **kernel) -> np.ndarray:
    """One layer's ``(Z, N, N)`` blocks from the production kernels, composed as the source does."""
    prototypes = unique_unit_prototypes(filter_maps, z)
    best = best_similarities(prototypes.vectors, unit_location_vectors(filter_maps), **kernel)
    return assemble_blocks(best, prototypes.rank_rows)


class TestTiledVsNaive:
    def test_layer_blocks_equal(self, filter_maps):
        for z in (1, 3, 7):
            naive = _layer_affinity_blocks(filter_maps, z)
            tiled = tiled_layer_blocks(filter_maps, z, row_tile=4, col_tile=6)
            np.testing.assert_allclose(tiled, naive, atol=1e-12, rtol=0.0)

    def test_full_matrix_matches_legacy(self, vgg, tiny_images):
        naive = compute_affinity_matrix(vgg, tiny_images, top_z=3, layers=(0, 2))
        source = PrototypeAffinitySource(vgg, top_z=3, layers=(0, 2))
        engine = AffinityEngine(source, EngineConfig(batch_size=2, row_tile=2, n_jobs=2, precision="float64"))
        tiled = engine.build(tiny_images, keep_state=False)
        np.testing.assert_allclose(tiled.values, naive.values, atol=1e-12, rtol=0.0)
        assert tiled.function_ids == naive.function_ids

    def test_parallel_matches_serial(self, filter_maps):
        serial = tiled_layer_blocks(filter_maps, 4)
        with tile_executor(4) as pool:
            parallel = tiled_layer_blocks(filter_maps, 4, row_tile=2, col_tile=4, executor=pool)
        np.testing.assert_array_equal(parallel, serial)

    def test_float32_within_allclose(self, filter_maps):
        naive = _layer_affinity_blocks(filter_maps, 5)
        tiled = tiled_layer_blocks(filter_maps, 5, dtype=np.float32)
        assert tiled.dtype == np.float64  # outputs always float64
        assert np.allclose(tiled, naive)

    def test_validation(self, vgg):
        with pytest.raises(ValueError, match="at least one layer"):
            PrototypeAffinitySource(vgg, top_z=2, layers=())
        with pytest.raises(ValueError, match="top_z"):
            PrototypeAffinitySource(vgg, top_z=0, layers=(0,))


class TestPrototypeSourceStreaming:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_function_blocks_equal_build_state_blocks(self, vgg, tiny_images, n_jobs):
        """The sparse path's block stream and the dense build walk the
        same per-layer loop: same ids, same order, same bits."""
        source = PrototypeAffinitySource(vgg, top_z=3, layers=(0, 2, 4))
        runtime = EngineConfig(batch_size=3, row_tile=2, n_jobs=n_jobs).runtime()
        built = source.build_state(tiny_images, runtime).affinity
        streamed = list(source.iter_function_blocks(tiny_images, runtime))
        assert tuple(fid for fid, _ in streamed) == built.function_ids
        for f, (_, block) in enumerate(streamed):
            np.testing.assert_array_equal(block, built.block(f))
