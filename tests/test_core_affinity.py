"""Tests for affinity functions and the affinity-matrix layout."""

from __future__ import annotations

import io

import numpy as np
import pytest
from reference_affinity import FLOAT32_ATOL, select_top_z

from repro.core.affinity import (
    AffinityFunctionId,
    AffinityMatrix,
    affinity_from_features,
    cosine_similarity,
)
from repro.engine import AffinityEngine, EngineConfig, PrototypeAffinitySource

#: Slack of a bound that is exact in real arithmetic, by precision.
UNIT_ATOL = {"float64": 1e-9, "float32": FLOAT32_ATOL}


def build_prototype_affinity(vgg, images, top_z=10, layers=None, **engine) -> AffinityMatrix:
    """The prototype affinity matrix through the library's one builder."""
    source = PrototypeAffinitySource(vgg, top_z=top_z, layers=layers)
    return AffinityEngine(source, EngineConfig(**engine)).build(images, keep_state=False)


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(cosine_similarity(v, v), [[1.0]])

    def test_orthogonal(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(cosine_similarity(a, b), [[0.0]], atol=1e-12)

    def test_opposite(self):
        a = np.array([[1.0, 1.0]])
        np.testing.assert_allclose(cosine_similarity(a, -a), [[-1.0]])

    def test_bounds(self):
        rng = np.random.default_rng(0)
        sims = cosine_similarity(rng.standard_normal((10, 5)), rng.standard_normal((8, 5)))
        assert sims.min() >= -1.0 - 1e-9 and sims.max() <= 1.0 + 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        np.testing.assert_allclose(cosine_similarity(a, b), cosine_similarity(5 * a, 0.1 * b), atol=1e-10)

    def test_zero_vector_guard(self):
        sims = cosine_similarity(np.zeros((1, 3)), np.ones((1, 3)))
        assert np.isfinite(sims).all()


class TestAffinityMatrixContainer:
    def test_block_extraction(self):
        n, alpha = 4, 3
        values = np.arange(n * alpha * n, dtype=np.float64).reshape(n, alpha * n)
        matrix = AffinityMatrix(values=values)
        assert matrix.n_examples == n
        assert matrix.n_functions == alpha
        np.testing.assert_array_equal(matrix.block(1), values[:, n : 2 * n])

    def test_invalid_width(self):
        with pytest.raises(ValueError, match="multiple"):
            AffinityMatrix(values=np.zeros((4, 10)))

    def test_function_id_count_checked(self):
        with pytest.raises(ValueError, match="function ids"):
            AffinityMatrix(values=np.zeros((2, 4)), function_ids=(AffinityFunctionId(0, 0),))

    def test_subset_functions(self):
        n = 3
        values = np.concatenate([np.full((n, n), f) for f in range(4)], axis=1)
        matrix = AffinityMatrix(values=values)
        subset = matrix.subset_functions([2, 0])
        assert subset.n_functions == 2
        np.testing.assert_array_equal(subset.block(0), np.full((n, n), 2))
        np.testing.assert_array_equal(subset.block(1), np.full((n, n), 0))

    def test_subset_functions_empty_rejected(self):
        matrix = AffinityMatrix(values=np.ones((2, 4)))
        with pytest.raises(ValueError):
            matrix.subset_functions([])

    def test_subset_examples(self):
        n = 4
        block = np.arange(16, dtype=np.float64).reshape(4, 4)
        matrix = AffinityMatrix(values=np.concatenate([block, 2 * block], axis=1))
        sub = matrix.subset_examples(np.array([0, 2]))
        assert sub.n_examples == 2
        np.testing.assert_array_equal(sub.block(0), block[np.ix_([0, 2], [0, 2])])
        np.testing.assert_array_equal(sub.block(1), 2 * block[np.ix_([0, 2], [0, 2])])

    def test_subset_examples_preserves_block_semantics(self):
        """Every block of the subset equals the subsetted block — i.e. the
        column layout A[i, j] = f_{j//N}(x_i, x_{j%N}) is preserved, only
        with the new N — and function ids ride along untouched."""
        rng = np.random.default_rng(5)
        n, alpha = 6, 3
        blocks = [rng.random((n, n)) for _ in range(alpha)]
        ids = tuple(AffinityFunctionId(layer=f, z=f + 1) for f in range(alpha))
        matrix = AffinityMatrix(values=np.concatenate(blocks, axis=1), function_ids=ids)
        indices = np.array([4, 1, 3])
        sub = matrix.subset_examples(indices)
        assert sub.n_examples == indices.size
        assert sub.n_functions == alpha
        assert sub.function_ids == ids
        for f in range(alpha):
            np.testing.assert_array_equal(sub.block(f), blocks[f][np.ix_(indices, indices)])
        # A second level of subsetting still agrees with direct subsetting.
        again = sub.subset_examples(np.array([2, 0]))
        np.testing.assert_array_equal(again.block(1), blocks[1][np.ix_(indices[[2, 0]], indices[[2, 0]])])

    def test_block_out_of_range(self):
        matrix = AffinityMatrix(values=np.ones((2, 4)))
        with pytest.raises(ValueError):
            matrix.block(5)


class TestComputeAffinityMatrix:
    def test_paper_layout(self, vgg, tiny_images):
        """A[i, j] = f_{j // N}(x_i, x_{j % N}) — verified against a
        direct evaluation of Eq. 2 for a sample of cells."""
        top_z = 2
        matrix = build_prototype_affinity(vgg, tiny_images, top_z=top_z, layers=(1,), precision="float64")
        n = tiny_images.shape[0]
        feats = vgg.pool_features(tiny_images, 1)
        c = feats.shape[1]
        unit = feats.reshape(n, c, -1)
        unit = unit / np.maximum(np.linalg.norm(unit, axis=1, keepdims=True), 1e-12)
        for j_col in [0, 3, n + 1, 2 * n - 1]:
            f = j_col // n
            col_image = j_col % n
            prototypes = select_top_z(feats[col_image], top_z).padded_vectors(top_z)
            v = prototypes[f]
            v = v / max(np.linalg.norm(v), 1e-12)
            for i in range(n):
                expected = (v @ unit[i]).max()
                assert matrix.values[i, j_col] == pytest.approx(expected, abs=1e-10)

    def test_shape_and_ids(self, vgg, tiny_images):
        matrix = build_prototype_affinity(vgg, tiny_images, top_z=3, layers=(0, 2))
        n = tiny_images.shape[0]
        assert matrix.values.shape == (n, 6 * n)
        assert matrix.function_ids[0] == AffinityFunctionId(layer=0, z=0)
        assert matrix.function_ids[-1] == AffinityFunctionId(layer=2, z=2)

    def test_default_uses_all_five_layers(self, vgg, tiny_images):
        matrix = build_prototype_affinity(vgg, tiny_images, top_z=2)
        assert matrix.n_functions == 10
        layers = {fid.layer for fid in matrix.function_ids}
        assert layers == {0, 1, 2, 3, 4}

    def test_values_in_cosine_range(self, vgg, tiny_images):
        for precision, atol in UNIT_ATOL.items():
            matrix = build_prototype_affinity(vgg, tiny_images, top_z=2, layers=(0,), precision=precision)
            assert matrix.values.min() >= -1.0 - atol, precision
            assert matrix.values.max() <= 1.0 + atol, precision

    def test_self_affinity_is_maximal(self, vgg, tiny_images):
        """f(x_j, x_j) = 1: the prototype's own location is a perfect match."""
        for precision, atol in UNIT_ATOL.items():
            matrix = build_prototype_affinity(vgg, tiny_images, top_z=2, layers=(1,), precision=precision)
            for f in range(matrix.n_functions):
                diag = np.diag(matrix.block(f))
                np.testing.assert_allclose(diag, 1.0, atol=atol, err_msg=precision)

    def test_bad_layer(self, vgg, tiny_images):
        with pytest.raises(ValueError, match="layer"):
            build_prototype_affinity(vgg, tiny_images, top_z=2, layers=(7,))

    def test_bad_top_z(self, vgg, tiny_images):
        with pytest.raises(ValueError, match="top_z"):
            build_prototype_affinity(vgg, tiny_images, top_z=0)

    def test_empty_layers(self, vgg, tiny_images):
        with pytest.raises(ValueError, match="at least one layer"):
            build_prototype_affinity(vgg, tiny_images, layers=())


class TestAffinityFromFeatures:
    def test_single_function_matrix(self):
        features = np.random.default_rng(2).standard_normal((6, 10))
        matrix = affinity_from_features(features)
        assert matrix.n_functions == 1
        assert matrix.values.shape == (6, 6)
        np.testing.assert_allclose(np.diag(matrix.values), 1.0)

    def test_symmetry(self):
        features = np.random.default_rng(3).standard_normal((5, 8))
        matrix = affinity_from_features(features)
        np.testing.assert_allclose(matrix.values, matrix.values.T, atol=1e-12)


class TestSaveLoadFileObject:
    @pytest.fixture()
    def matrix(self) -> AffinityMatrix:
        rng = np.random.default_rng(9)
        return AffinityMatrix(
            values=rng.random((5, 2 * 5)),
            function_ids=(AffinityFunctionId(layer=1, z=0), AffinityFunctionId(layer=1, z=1)),
        )

    def test_in_memory_buffer_round_trip(self, matrix):
        arrays = matrix.arrays()
        # The layout of the entries already on disk: every name stays.
        assert set(arrays) == {"values", "layers", "zs", "n_functions", "has_function_ids"}
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        buffer.seek(0)
        with np.load(buffer) as data:
            loaded = AffinityMatrix.from_arrays(dict(data))
        np.testing.assert_array_equal(loaded.values, matrix.values)
        assert loaded.function_ids == matrix.function_ids

    def test_inconsistent_arrays_rejected(self, matrix):
        arrays = matrix.arrays()
        with pytest.raises(ValueError, match="not a valid"):
            AffinityMatrix.from_arrays({**arrays, "values": np.vstack([matrix.values, matrix.values[:1]])})
        with pytest.raises(ValueError, match="function ids"):
            AffinityMatrix.from_arrays({**arrays, "zs": arrays["zs"][:1], "layers": arrays["layers"][:1]})
        with pytest.raises(KeyError):
            AffinityMatrix.from_arrays({name: a for name, a in arrays.items() if name != "values"})
