"""Tests for the staged inference engine: executors, warm starts, caching.

Executor equivalence and warm-start agreement are the two contracts of
``repro.engine.inference``: serial (``n_jobs=1``) and threaded fits
produce bit-identical posteriors, and a warm-started incremental fit agrees with a cold full
refit within the tolerance documented in ENGINE.md (atol=1e-3 on the
class-aligned posterior; hard predictions identical).
"""

from __future__ import annotations

import numpy as np
import pytest
from reference_affinity import compute_affinity_matrix

from repro.core import Goggles, GogglesConfig
from repro.core.affinity import AffinityMatrix
from repro.core.inference.base_gmm import DiagonalGMM, GMMParams
from repro.core.inference.bernoulli import BernoulliMixture, BernoulliParams, one_hot_encode_lp
from repro.core.inference.hierarchical import (
    HierarchicalConfig,
    HierarchicalModel,
    fit_base_function,
)
from repro.datasets import make_shapes
from repro.datasets.base import DevSet
from repro.engine import ArtifactCache, InferenceEngine, InferenceState, warm_start_responsibilities

WARM_ATOL = 1e-3  # documented warm-vs-cold posterior tolerance (ENGINE.md)


@pytest.fixture(scope="module")
def small_affinity(vgg, small_surface):
    return compute_affinity_matrix(vgg, small_surface.images, top_z=3, layers=(1, 3))


@pytest.fixture(scope="module")
def shapes_dataset():
    return make_shapes(n_per_class=10, image_size=64, seed=1, n_classes=3)


def _prefix_dev(dataset, n_prefix: int, per_class: int, seed: int = 0) -> DevSet:
    """A dev set drawn from the first ``n_prefix`` images only, so its
    indices stay valid for an initial corpus that is later extended."""
    rng = np.random.default_rng(seed)
    indices: list[int] = []
    for c in range(dataset.n_classes):
        pool = np.flatnonzero(dataset.labels[:n_prefix] == c)
        indices.extend(rng.choice(pool, size=per_class, replace=False).tolist())
    chosen = np.array(sorted(indices))
    return DevSet(indices=chosen, labels=dataset.labels[chosen])


# ----------------------------------------------------------------------
# Warm-startable EM primitives
# ----------------------------------------------------------------------
class TestGMMWarmStart:
    @pytest.fixture(scope="class")
    def blob_data(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 0.5, size=(40, 6))
        b = rng.normal(3.0, 0.5, size=(40, 6))
        return np.concatenate([a, b], axis=0)

    def test_params_init_resumes_converged_fit(self, blob_data):
        cold = DiagonalGMM(2, seed=0).fit(blob_data)
        warm = DiagonalGMM(2, seed=0).fit(blob_data, init=cold.params)
        assert warm.n_iterations < cold.n_iterations
        np.testing.assert_allclose(warm.responsibilities, cold.responsibilities, atol=1e-6)

    def test_responsibility_init_resumes_converged_fit(self, blob_data):
        cold = DiagonalGMM(2, seed=0).fit(blob_data)
        warm = DiagonalGMM(2, seed=0).fit(blob_data, init=cold.responsibilities)
        assert warm.n_iterations < cold.n_iterations
        np.testing.assert_allclose(warm.responsibilities, cold.responsibilities, atol=1e-6)

    def test_fit_result_carries_params(self, blob_data):
        result = DiagonalGMM(2, seed=0).fit(blob_data)
        assert isinstance(result.params, GMMParams)
        assert result.params.means.shape == (2, blob_data.shape[1])
        assert not result.degenerate

    def test_bad_init_shapes_rejected(self, blob_data):
        cold = DiagonalGMM(2, seed=0).fit(blob_data)
        with pytest.raises(ValueError, match="init"):
            DiagonalGMM(2, seed=0).fit(blob_data, init=cold.responsibilities[:5])
        bad = GMMParams(weights=np.array([0.5, 0.5]), means=np.zeros((2, 3)), variances=np.ones((2, 3)))
        with pytest.raises(ValueError, match="init"):
            DiagonalGMM(2, seed=0).fit(blob_data, init=bad)

    def test_degenerate_detected_on_collapsed_data(self):
        constant = np.ones((20, 4))
        result = DiagonalGMM(2, seed=0).fit(constant)
        assert result.degenerate


class TestBernoulliWarmStart:
    @pytest.fixture(scope="class")
    def votes(self):
        rng = np.random.default_rng(5)
        lp = rng.random((60, 8))
        return one_hot_encode_lp(lp, 2)

    def test_params_init_single_run(self, votes):
        cold = BernoulliMixture(2, seed=0).fit(votes)
        warm = BernoulliMixture(2, seed=0).fit(votes, init=cold.params)
        assert warm.n_iterations <= cold.n_iterations
        assert isinstance(warm.params, BernoulliParams)

    def test_bad_init_shapes_rejected(self, votes):
        bad = BernoulliParams(weights=np.array([0.5, 0.5]), probs=np.full((2, 3), 0.5))
        with pytest.raises(ValueError, match="init"):
            BernoulliMixture(2, seed=0).fit(votes, init=bad)


class TestDegenerateRetry:
    def test_fit_base_function_retries_once(self):
        """A collapsed base fit is retried from a derived seed and flagged."""
        constant = np.ones((20, 20))
        result = fit_base_function(constant, HierarchicalConfig(n_classes=2, seed=0), 0)
        assert result.reinitialized  # retried (data is hopeless either way)

    def test_healthy_fit_not_flagged(self, small_affinity):
        result = fit_base_function(small_affinity.block(0), HierarchicalConfig(n_classes=2, seed=0), 0)
        assert not result.reinitialized

    def test_hierarchical_fit_warns_on_collapse(self):
        """HierarchicalModel surfaces the degenerate-base warning."""
        from repro.core.affinity import AffinityMatrix

        n = 12
        rng = np.random.default_rng(0)
        healthy = rng.random((n, n))
        collapsed = np.ones((n, n))  # no structure: the GMM must collapse
        matrix = AffinityMatrix(values=np.concatenate([healthy, collapsed], axis=1))
        model = HierarchicalModel(HierarchicalConfig(n_classes=2, seed=0))
        with pytest.warns(RuntimeWarning, match="collapsed"):
            result = model.fit(matrix)
        assert 1 in result.reinitialized_functions


# ----------------------------------------------------------------------
# Executor equivalence
# ----------------------------------------------------------------------
class TestExecutors:
    def test_thread_matches_serial_bitwise(self, small_affinity):
        cfg = HierarchicalConfig(n_classes=2, seed=0)
        serial = InferenceEngine(cfg).fit(small_affinity)
        thread = InferenceEngine(cfg, n_jobs=4).fit(small_affinity)
        np.testing.assert_array_equal(serial.posterior, thread.posterior)
        np.testing.assert_array_equal(serial.label_predictions, thread.label_predictions)

    def test_matches_hierarchical_model(self, small_affinity):
        """The staged engine is a drop-in for the monolithic fit."""
        cfg = HierarchicalConfig(n_classes=2, seed=0)
        legacy = HierarchicalModel(cfg).fit(small_affinity)
        staged = InferenceEngine(cfg).fit(small_affinity)
        np.testing.assert_array_equal(legacy.posterior, staged.posterior)

    def test_thread_executor_with_warm_start(self, small_affinity):
        """Warm starts fan out over the thread pool and stay bit-identical."""
        cfg = HierarchicalConfig(n_classes=2, seed=0)
        seed_engine = InferenceEngine(cfg)
        seed_engine.fit(small_affinity)
        warm_serial = InferenceEngine(cfg).fit(
            small_affinity, warm_start=seed_engine.state
        )
        warm_thread = InferenceEngine(cfg, n_jobs=2).fit(
            small_affinity, warm_start=seed_engine.state
        )
        np.testing.assert_array_equal(warm_serial.posterior, warm_thread.posterior)
        np.testing.assert_array_equal(warm_serial.label_predictions, warm_thread.label_predictions)


# ----------------------------------------------------------------------
# Warm-start correctness on the synthetic shapes dataset
# ----------------------------------------------------------------------
class TestWarmStartCorrectness:
    @pytest.fixture(scope="class")
    def incremental_runs(self, vgg, shapes_dataset):
        ds = shapes_dataset
        n0 = ds.n_examples - 8
        dev = _prefix_dev(ds, n0, per_class=3)
        cfg = GogglesConfig(n_classes=ds.n_classes, seed=0, top_z=3, layers=(1, 2, 3), n_jobs=2)
        warm_goggles = Goggles(cfg, model=vgg)
        warm_goggles.label(ds.images[:n0], dev)
        warm = warm_goggles.label_incremental(ds.images[n0:], dev, warm_start=True)
        cold_goggles = Goggles(cfg, model=vgg)
        cold_goggles.label(ds.images[:n0], dev)
        cold = cold_goggles.label_incremental(ds.images[n0:], dev, warm_start=False)
        return warm, cold

    def test_posterior_within_documented_tolerance(self, incremental_runs):
        warm, cold = incremental_runs
        np.testing.assert_allclose(warm.probabilistic_labels, cold.probabilistic_labels, atol=WARM_ATOL)

    def test_predictions_identical(self, incremental_runs):
        warm, cold = incremental_runs
        np.testing.assert_array_equal(warm.predictions, cold.predictions)

    def test_warm_start_saves_em_iterations(self, incremental_runs):
        warm, cold = incremental_runs
        assert warm.hierarchical.total_em_iterations < cold.hierarchical.total_em_iterations

    def test_warm_start_matches_full_cold_label(self, vgg, shapes_dataset):
        """Incremental warm labeling agrees with labeling everything cold."""
        ds = shapes_dataset
        n0 = ds.n_examples - 8
        dev = _prefix_dev(ds, n0, per_class=3)
        cfg = GogglesConfig(n_classes=ds.n_classes, seed=0, top_z=3, layers=(1, 2, 3))
        incremental = Goggles(cfg, model=vgg)
        incremental.label(ds.images[:n0], dev)
        warm = incremental.label_incremental(ds.images[n0:], dev)
        full = Goggles(cfg, model=vgg).label(ds.images, dev)
        np.testing.assert_allclose(warm.probabilistic_labels, full.probabilistic_labels, atol=WARM_ATOL)

    def test_float32_table_seeds_its_float64_copy(self, small_surface_affinity):
        """New rows are seeded in float64 whatever the table's dtype (under
        NumPy 2, ``float32 + 1.0`` stays float32): a float32 table gives
        the seeds of its float64 copy, bit for bit."""
        narrow = small_surface_affinity
        assert narrow.values.dtype == np.float32
        wide = AffinityMatrix(values=narrow.values.astype(np.float64), function_ids=narrow.function_ids)
        engine = InferenceEngine(HierarchicalConfig(n_classes=2, seed=0))
        engine.fit(wide.subset_examples(np.arange(narrow.n_examples - 5)))
        seeds = zip(
            warm_start_responsibilities(engine.state, narrow), warm_start_responsibilities(engine.state, wide)
        )
        for got, expected in seeds:
            assert got.shape == (narrow.n_examples, 2)
            np.testing.assert_array_equal(got, expected)

    def test_incompatible_state_silently_ignored(self, small_affinity):
        """A warm-start state from a different task falls back to cold."""
        cfg = HierarchicalConfig(n_classes=2, seed=0)
        bogus = InferenceState(
            label_predictions=np.full((3, 4), 0.5),
            ensemble=BernoulliParams(weights=np.array([0.5, 0.5]), probs=np.full((2, 4), 0.5)),
            n_examples=3,
            n_classes=2,
        )
        cold = InferenceEngine(cfg).fit(small_affinity)
        attempted = InferenceEngine(cfg).fit(small_affinity, warm_start=bogus)
        np.testing.assert_array_equal(cold.posterior, attempted.posterior)


# ----------------------------------------------------------------------
# Inference artifact caching
# ----------------------------------------------------------------------
class TestInferenceCache:
    def test_refit_is_a_disk_load(self, tmp_path, small_affinity, cache_label, cache_counts):
        cfg = HierarchicalConfig(n_classes=2, seed=0)
        cache = ArtifactCache(str(tmp_path))
        cache.tenant = cache_label
        first_engine = InferenceEngine(cfg, cache=cache)
        first = first_engine.fit(small_affinity)
        assert cache_counts(cache).misses.get("inference") == 1
        second_engine = InferenceEngine(cfg, cache=cache)
        second = second_engine.fit(small_affinity)
        assert cache_counts(cache).hits.get("inference") == 1
        np.testing.assert_array_equal(first.posterior, second.posterior)
        np.testing.assert_array_equal(first.label_predictions, second.label_predictions)

    def test_cache_restores_warm_start_state(self, tmp_path, small_affinity):
        """A fresh engine's cache hit leaves it warm-startable."""
        cfg = HierarchicalConfig(n_classes=2, seed=0)
        cache = ArtifactCache(str(tmp_path))
        InferenceEngine(cfg, cache=cache).fit(small_affinity)
        fresh = InferenceEngine(cfg, cache=cache)
        fresh.fit(small_affinity)
        assert fresh.state is not None
        assert fresh.state.n_examples == small_affinity.n_examples
        assert fresh.state.compatible_with(small_affinity, 2)

    def test_warm_and_cold_fits_never_share_a_key(self, tmp_path, small_affinity, cache_label, cache_counts):
        cfg = HierarchicalConfig(n_classes=2, seed=0)
        cache = ArtifactCache(str(tmp_path))
        cache.tenant = cache_label
        engine = InferenceEngine(cfg, cache=cache)
        engine.fit(small_affinity)
        warm_engine = InferenceEngine(cfg, cache=cache)
        warm_engine.fit(small_affinity, warm_start=engine.state)
        assert cache_counts(cache).misses.get("inference") == 2  # distinct keys

    def test_schema_drift_is_miss_not_crash(self, tmp_path, small_affinity, cache_label, cache_counts):
        import os

        cfg = HierarchicalConfig(n_classes=2, seed=0)
        cache = ArtifactCache(str(tmp_path))
        engine = InferenceEngine(cfg, cache=cache)
        first = engine.fit(small_affinity)
        (entry,) = [p for p in os.listdir(tmp_path) if p.startswith("inference-")]
        np.savez_compressed(os.path.join(str(tmp_path), entry), bogus=np.arange(3))
        cache.tenant = cache_label
        fresh = InferenceEngine(cfg, cache=cache)
        rebuilt = fresh.fit(small_affinity)
        np.testing.assert_array_equal(rebuilt.posterior, first.posterior)
        # The drifted entry is one miss, not a hit followed by a refit.
        assert cache_counts(cache)[:2] == ({}, {"inference": 1})

    def test_short_base_array_is_a_miss_not_a_crash(
        self, tmp_path, small_affinity, cache_label, cache_counts
    ):
        """An entry whose per-function arrays are shorter than α is
        rejected like any drifted entry: one miss, then a refit equal
        to the cold fit."""
        import os

        cfg = HierarchicalConfig(n_classes=2, seed=0)
        cache = ArtifactCache(str(tmp_path))
        first = InferenceEngine(cfg, cache=cache).fit(small_affinity)
        (entry,) = [p for p in os.listdir(tmp_path) if p.startswith("inference-")]
        path = os.path.join(str(tmp_path), entry)
        with np.load(path) as data:
            stored = {name: data[name] for name in data.files}
        stored["base_ll"] = stored["base_ll"][:1]
        np.savez_compressed(path, **stored)
        cache.tenant = cache_label
        refit = InferenceEngine(cfg, cache=cache).fit(small_affinity)
        np.testing.assert_array_equal(refit.posterior, first.posterior)
        assert cache_counts(cache)[:2] == ({}, {"inference": 1})

    def test_cached_replay_keeps_collapse_diagnostics(self, tmp_path, cache_label, cache_counts):
        """A cache hit re-surfaces the degenerate-base warning and flags."""
        from repro.core.affinity import AffinityMatrix

        n = 12
        rng = np.random.default_rng(0)
        matrix = AffinityMatrix(values=np.concatenate([rng.random((n, n)), np.ones((n, n))], axis=1))
        cfg = HierarchicalConfig(n_classes=2, seed=0)
        cache = ArtifactCache(str(tmp_path))
        cache.tenant = cache_label
        with pytest.warns(RuntimeWarning, match="collapsed"):
            first = InferenceEngine(cfg, cache=cache).fit(matrix)
        with pytest.warns(RuntimeWarning, match="collapsed"):
            replay = InferenceEngine(cfg, cache=cache).fit(matrix)
        assert cache_counts(cache).hits.get("inference") == 1
        assert replay.reinitialized_functions == first.reinitialized_functions == (1,)
        assert [r.degenerate for r in replay.base_results] == [r.degenerate for r in first.base_results]

    def test_config_changes_key(self, tmp_path, small_affinity, cache_label, cache_counts):
        cache = ArtifactCache(str(tmp_path))
        cache.tenant = cache_label
        InferenceEngine(HierarchicalConfig(n_classes=2, seed=0), cache=cache).fit(small_affinity)
        InferenceEngine(HierarchicalConfig(n_classes=2, seed=1), cache=cache).fit(small_affinity)
        assert cache_counts(cache).hits.get("inference") is None

    def test_goggles_shares_cache_between_engines(
        self, tmp_path, vgg, small_surface, cache_label, cache_counts
    ):
        """Affinity and inference artifacts land in the same cache dir."""
        config = GogglesConfig(n_classes=2, seed=0, top_z=2, layers=(2, 3), cache_dir=str(tmp_path))
        dev = small_surface.sample_dev_set(per_class=3, seed=0)
        first = Goggles(config, model=vgg).label(small_surface.images, dev)
        fresh = Goggles(config, model=vgg)
        fresh.engine.cache.tenant = cache_label
        second = fresh.label(small_surface.images, dev)
        np.testing.assert_array_equal(first.probabilistic_labels, second.probabilistic_labels)
        assert cache_counts(fresh.engine.cache).hits.get("affinity") == 1
        assert cache_counts(fresh.engine.cache).hits.get("inference") == 1
        # The restored inference state warm-starts incremental labeling.
        assert fresh.inference.state is not None
        extended = fresh.label_incremental(small_surface.images[:2], dev)
        assert extended.probabilistic_labels.shape[0] == small_surface.n_examples + 2
