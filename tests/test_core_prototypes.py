"""Tests for prototype extraction — including the paper's Example 4 verbatim.

The per-image reference lives in ``reference_affinity``; Example 4 also
runs through the batched production kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_affinity import PrototypeSet, all_location_vectors, extract_prototypes, select_top_z

from repro.engine import unique_unit_prototypes


class TestPaperExample4:
    """§3.1 Example 4, reproduced exactly."""

    def _filter_map(self):
        c1 = np.array([[1.0, 0.5], [0.3, 0.6]])
        c2 = np.array([[0.1, 0.7], [0.4, 0.3]])
        c3 = np.array([[0.2, 0.9], [0.5, 0.1]])
        return np.stack([c1, c2, c3])

    def test_top2_prototypes_match_paper(self):
        prototypes = select_top_z(self._filter_map(), z=2)
        # Channel ranking by max activation: C1 (1.0), C3 (0.9), C2 (0.7).
        np.testing.assert_array_equal(prototypes.channels, [0, 2])
        # (h1, w1) = (0, 0) from C1; (h2, w2) = (0, 1) from C3.
        np.testing.assert_array_equal(prototypes.locations, [[0, 0], [0, 1]])
        # v1 = (1, 0.1, 0.2); v2 = (0.5, 0.7, 0.9).
        np.testing.assert_allclose(prototypes.vectors[0], [1.0, 0.1, 0.2])
        np.testing.assert_allclose(prototypes.vectors[1], [0.5, 0.7, 0.9])

    def test_top3_adds_channel2(self):
        prototypes = select_top_z(self._filter_map(), z=3)
        # C2's argmax is also (0, 1) — duplicate location, dropped.
        assert prototypes.n_prototypes == 2

    def test_production_kernel_matches_paper(self):
        """The batched kernel the library builds with gives the same two
        prototypes, unit-normalised, and cycles them to fill Z=3."""
        table = unique_unit_prototypes(self._filter_map()[None], 3)
        v1, v2 = np.array([1.0, 0.1, 0.2]), np.array([0.5, 0.7, 0.9])
        np.testing.assert_allclose(table.vectors, [v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)])
        np.testing.assert_array_equal(table.rank_rows, [[0, 1, 0]])


class TestSelectTopZ:
    def test_duplicate_locations_dropped(self):
        fm = np.zeros((4, 2, 2))
        fm[:, 1, 1] = [4.0, 3.0, 2.0, 1.0]  # all channels peak at (1,1)
        prototypes = select_top_z(fm, z=4)
        assert prototypes.n_prototypes == 1
        np.testing.assert_array_equal(prototypes.locations, [[1, 1]])

    def test_z_larger_than_channels(self):
        fm = np.random.default_rng(0).random((3, 4, 4))
        prototypes = select_top_z(fm, z=10)
        assert prototypes.n_prototypes <= 3

    def test_vectors_span_channels(self):
        fm = np.random.default_rng(1).random((5, 3, 3))
        prototypes = select_top_z(fm, z=2)
        assert prototypes.vectors.shape[1] == 5
        h, w = prototypes.locations[0]
        np.testing.assert_array_equal(prototypes.vectors[0], fm[:, h, w])

    def test_invalid_z(self):
        with pytest.raises(ValueError):
            select_top_z(np.random.default_rng(2).random((2, 2, 2)), z=0)

    def test_ranking_by_activation(self):
        fm = np.random.default_rng(3).random((6, 4, 4))
        prototypes = select_top_z(fm, z=6)
        activations = [fm[c].max() for c in prototypes.channels]
        assert activations == sorted(activations, reverse=True)

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=15, deadline=None)
    def test_locations_unique(self, z):
        fm = np.random.default_rng(z).random((8, 5, 5))
        prototypes = select_top_z(fm, z=z)
        locations = {tuple(loc) for loc in prototypes.locations}
        assert len(locations) == prototypes.n_prototypes


class TestPaddedVectors:
    def test_exact_z_rows(self):
        fm = np.zeros((4, 2, 2))
        fm[:, 1, 1] = [4.0, 3.0, 2.0, 1.0]
        prototypes = select_top_z(fm, z=4)  # collapses to 1 unique
        padded = prototypes.padded_vectors(4)
        assert padded.shape == (4, 4)
        for row in padded:
            np.testing.assert_array_equal(row, padded[0])

    def test_no_padding_needed(self):
        fm = np.random.default_rng(4).random((6, 4, 4))
        prototypes = select_top_z(fm, z=3)
        if prototypes.n_prototypes == 3:
            np.testing.assert_array_equal(prototypes.padded_vectors(3), prototypes.vectors)

    def test_invalid_z(self):
        fm = np.random.default_rng(5).random((2, 2, 2))
        with pytest.raises(ValueError):
            select_top_z(fm, 1).padded_vectors(0)


class TestBatchAndHelpers:
    def test_extract_prototypes_batch(self):
        fms = np.random.default_rng(6).random((3, 4, 4, 4))
        sets = extract_prototypes(fms, z=2)
        assert len(sets) == 3
        assert all(isinstance(s, PrototypeSet) for s in sets)

    def test_all_location_vectors(self):
        fm = np.random.default_rng(7).random((3, 2, 4))
        vectors = all_location_vectors(fm)
        assert vectors.shape == (8, 3)
        np.testing.assert_array_equal(vectors[0], fm[:, 0, 0])
        np.testing.assert_array_equal(vectors[5], fm[:, 1, 1])

    def test_prototype_set_validation(self):
        with pytest.raises(ValueError, match="aligned"):
            PrototypeSet(
                vectors=np.zeros((2, 3)),
                locations=np.zeros((1, 2), dtype=np.int64),
                channels=np.zeros(2, dtype=np.int64),
            )
