"""Integration tests for the experiment harness (tiny settings)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.affinity import AffinityMatrix
from repro.eval.harness import (
    ExperimentSettings,
    affinity_function_stats,
    run_fig2,
    run_fig5,
    run_fig7,
    run_fig8,
    run_fig9,
    run_inference_ablation,
    run_table1_row,
    run_table2_row,
    shared_model,
)

TINY = ExperimentSettings(n_per_class=10, n_seeds=1, dev_per_class=3)


class TestSharedModel:
    def test_cached(self):
        assert shared_model(TINY) is shared_model(TINY)


class TestTable1Row:
    @pytest.mark.parametrize("method", ["goggles", "snuba", "hog", "logits", "kmeans", "gmm", "spectral"])
    def test_each_method_runs(self, method):
        row = run_table1_row("surface", TINY, 0, methods=(method,))
        assert row[method] is not None
        assert 0.0 <= row[method] <= 100.0

    def test_snorkel_cub_only(self):
        row = run_table1_row("cub", TINY, 0, methods=("snorkel",))
        assert row["snorkel"] is not None
        row = run_table1_row("surface", TINY, 0, methods=("snorkel",))
        assert row["snorkel"] is None


class TestTable2Row:
    def test_methods_run_and_bounded(self):
        row = run_table2_row("surface", TINY, 0, methods=("fsl", "goggles", "upper_bound"))
        for method in ("fsl", "goggles", "upper_bound"):
            assert 0.0 <= row[method] <= 100.0

    def test_snorkel_none_outside_cub(self):
        row = run_table2_row("tbxray", TINY, 0, methods=("snorkel",))
        assert row["snorkel"] is None


class TestFigureRunners:
    def test_stats_of_a_float32_table_equal_its_float64_copy(self, small_surface, small_surface_affinity):
        """Figure 2's means sum in float64 whatever the table's dtype: a
        float32 table gives the stats of its float64 copy, bit for bit."""
        narrow = small_surface_affinity
        assert narrow.values.dtype == np.float32
        wide = AffinityMatrix(values=narrow.values.astype(np.float64), function_ids=narrow.function_ids)
        labels = small_surface.labels
        assert affinity_function_stats(narrow, labels) == affinity_function_stats(wide, labels)

    def test_fig2_structure(self):
        result = run_fig2(TINY, "cub")
        assert len(result["all"]) == 50
        assert result["best"].auc >= result["median"].auc >= result["worst"].auc

    def test_fig5_blocks(self):
        result = run_fig5(TINY, "cub")
        for name in ("best", "median", "worst"):
            assert result["blocks"][name].shape == (2, 2)

    def test_fig7_monotone_in_eta(self):
        curves = run_fig7(etas=(0.6, 0.9), d_values=(5, 11))
        assert curves[0.9][-1] > curves[0.6][-1]

    def test_fig8_returns_all_sizes(self):
        curve = run_fig8(TINY, "surface", dev_sizes=(0, 2, 6))
        assert set(curve) == {0, 2, 6}
        assert all(0 <= v <= 100 for v in curve.values())

    def test_fig9_counts_capped(self):
        curve = run_fig9(TINY, "surface", function_counts=(5, 50, 80))
        assert set(curve) == {5, 50, 80}

    def test_ablation_variants(self):
        result = run_inference_ablation(TINY, "surface")
        assert set(result) == {"hierarchical", "soft_ensemble", "single_gmm"}
        assert all(0 <= v <= 100 for v in result.values())
