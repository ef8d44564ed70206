"""Tests for affinity-matrix persistence and parallel base-model fitting.

The persistence tests write the stored layout by hand, array by array,
and read it back through ``AffinityMatrix.from_arrays``: entries already
in a cache directory must keep loading.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference_affinity import compute_affinity_matrix

from repro.core.affinity import AffinityFunctionId, AffinityMatrix
from repro.core.inference.hierarchical import HierarchicalConfig, HierarchicalModel


def _save(path: str, matrix: AffinityMatrix) -> None:
    """Write ``matrix`` in the stored ``.npz`` layout of an affinity entry."""
    np.savez_compressed(
        path,
        values=matrix.values,
        layers=np.array([fid.layer for fid in matrix.function_ids], dtype=np.int64),
        zs=np.array([fid.z for fid in matrix.function_ids], dtype=np.int64),
        n_functions=np.int64(matrix.n_functions),
        has_function_ids=np.bool_(bool(matrix.function_ids)),
    )


def _load(path: str) -> AffinityMatrix:
    with np.load(path) as data:
        return AffinityMatrix.from_arrays(dict(data))


class TestAffinitySaveLoad:
    def test_roundtrip(self, tmp_path, vgg, tiny_images):
        matrix = compute_affinity_matrix(vgg, tiny_images, top_z=2, layers=(0, 1))
        path = str(tmp_path / "affinity.npz")
        _save(path, matrix)
        loaded = _load(path)
        np.testing.assert_array_equal(loaded.values, matrix.values)
        assert loaded.function_ids == matrix.function_ids

    def test_roundtrip_without_function_ids(self, tmp_path):
        """A matrix built without ids round-trips as such (no silent guess)."""
        matrix = AffinityMatrix(values=np.random.default_rng(1).random((4, 12)))
        path = str(tmp_path / "noids.npz")
        _save(path, matrix)
        loaded = _load(path)
        np.testing.assert_array_equal(loaded.values, matrix.values)
        assert loaded.function_ids == ()

    def test_id_block_mismatch_rejected(self, tmp_path):
        """Files whose ids disagree with the block count fail loudly."""
        path = str(tmp_path / "bad.npz")
        np.savez_compressed(
            path,
            values=np.zeros((3, 9)),
            layers=np.array([0], dtype=np.int64),
            zs=np.array([0], dtype=np.int64),
            n_functions=np.int64(3),
            has_function_ids=np.bool_(True),
        )
        with pytest.raises(ValueError, match="function ids"):
            _load(path)

    def test_recorded_alpha_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "truncated.npz")
        np.savez_compressed(
            path,
            values=np.zeros((3, 6)),  # 2 blocks ...
            layers=np.arange(5, dtype=np.int64),
            zs=np.zeros(5, dtype=np.int64),
            n_functions=np.int64(5),  # ... but 5 recorded
            has_function_ids=np.bool_(True),
        )
        with pytest.raises(ValueError, match="corrupt or truncated"):
            _load(path)

    def test_legacy_file_missing_ids_rejected(self, tmp_path):
        """Pre-marker files with α>0 blocks and no ids no longer round-trip silently."""
        path = str(tmp_path / "legacy.npz")
        np.savez_compressed(
            path,
            values=np.zeros((3, 9)),
            layers=np.array([], dtype=np.int64),
            zs=np.array([], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="no function ids"):
            _load(path)

    def test_garbage_values_rejected(self, tmp_path):
        path = str(tmp_path / "garbage.npz")
        np.savez_compressed(
            path,
            values=np.zeros((4, 10)),  # width not a multiple of N
            layers=np.array([], dtype=np.int64),
            zs=np.array([], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="affinity matrix"):
            _load(path)

    def test_roundtrip_preserves_blocks(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = AffinityMatrix(
            values=rng.random((5, 15)),
            function_ids=tuple(AffinityFunctionId(layer=i, z=0) for i in range(3)),
        )
        path = str(tmp_path / "m.npz")
        _save(path, matrix)
        loaded = _load(path)
        for f in range(3):
            np.testing.assert_array_equal(loaded.block(f), matrix.block(f))

    def test_loaded_matrix_usable_for_inference(self, tmp_path, vgg, small_surface):
        matrix = compute_affinity_matrix(vgg, small_surface.images, top_z=3, layers=(2, 3))
        path = str(tmp_path / "surface.npz")
        _save(path, matrix)
        result = HierarchicalModel(HierarchicalConfig(seed=0)).fit(_load(path))
        assert result.posterior.shape == (small_surface.n_examples, 2)


class TestParallelBaseModels:
    def test_parallel_matches_serial(self, vgg, small_surface):
        matrix = compute_affinity_matrix(vgg, small_surface.images, top_z=3, layers=(2, 3))
        model = HierarchicalModel(HierarchicalConfig(seed=0))
        lp_serial, _ = model.fit_base_models(matrix, n_jobs=1)
        lp_parallel, _ = model.fit_base_models(matrix, n_jobs=4)
        np.testing.assert_allclose(lp_serial, lp_parallel, atol=1e-12)

    def test_full_fit_parallel_matches_serial(self, vgg, small_surface):
        matrix = compute_affinity_matrix(vgg, small_surface.images, top_z=2, layers=(3,))
        model = HierarchicalModel(HierarchicalConfig(seed=0))
        serial = model.fit(matrix, n_jobs=1)
        parallel = model.fit(matrix, n_jobs=2)
        np.testing.assert_allclose(serial.posterior, parallel.posterior, atol=1e-12)
