"""End-to-end tests for the GOGGLES facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Goggles, GogglesConfig
from repro.datasets import make_dataset, make_shapes
from repro.datasets.base import DevSet
from repro.engine import EngineConfig
from repro.eval.metrics import MIN_POSTERIOR_AGREEMENT, posterior_agreement


@pytest.fixture(scope="module")
def goggles(vgg):
    return Goggles(GogglesConfig(n_classes=2, seed=0, top_z=4), model=vgg)


@pytest.fixture(scope="module")
def labeled_run(goggles, small_cub):
    dev = small_cub.sample_dev_set(per_class=3, seed=0)
    return goggles.label(small_cub.images, dev), dev


class TestGogglesPipeline:
    def test_probabilistic_labels_valid(self, labeled_run, small_cub):
        result, _ = labeled_run
        labels = result.probabilistic_labels
        assert labels.shape == (small_cub.n_examples, 2)
        np.testing.assert_allclose(labels.sum(axis=1), 1.0, atol=1e-8)
        assert labels.min() >= 0

    def test_better_than_chance(self, labeled_run, small_cub):
        result, dev = labeled_run
        assert result.accuracy(small_cub.labels, exclude=dev.indices) > 0.6

    def test_affinity_matrix_dimensions(self, labeled_run, small_cub, goggles):
        result, _ = labeled_run
        n = small_cub.n_examples
        alpha = goggles.config.top_z * len(goggles.config.layers)
        assert result.affinity.values.shape == (n, alpha * n)

    def test_predictions_are_argmax(self, labeled_run):
        result, _ = labeled_run
        np.testing.assert_array_equal(result.predictions, result.probabilistic_labels.argmax(axis=1))

    def test_accuracy_excludes_dev(self, labeled_run, small_cub):
        result, dev = labeled_run
        with_dev = result.accuracy(small_cub.labels)
        without_dev = result.accuracy(small_cub.labels, exclude=dev.indices)
        n = small_cub.n_examples
        # Both are averages over different denominators; check consistency.
        total_correct = with_dev * n
        dev_correct = (result.predictions[dev.indices] == small_cub.labels[dev.indices]).sum()
        assert without_dev == pytest.approx((total_correct - dev_correct) / (n - dev.size))

    def test_mapping_is_applied(self, labeled_run):
        result, _ = labeled_run
        raw = result.hierarchical.posterior
        mapped = result.probabilistic_labels
        np.testing.assert_allclose(mapped[:, result.mapping.cluster_to_class], raw, atol=1e-12)

    def test_deterministic(self, goggles, small_cub):
        dev = small_cub.sample_dev_set(per_class=3, seed=0)
        a = goggles.label(small_cub.images, dev)
        b = goggles.label(small_cub.images, dev)
        np.testing.assert_array_equal(a.probabilistic_labels, b.probabilistic_labels)


class TestGogglesValidation:
    def test_dev_indices_out_of_range(self, goggles, small_cub):
        affinity = goggles.build_affinity_matrix(small_cub.images)
        bad_dev = DevSet(indices=np.array([10_000]), labels=np.array([0]))
        with pytest.raises(ValueError, match="exceed"):
            goggles.infer_labels(affinity, bad_dev)

    def test_layer_subset_config(self, vgg, small_cub):
        goggles = Goggles(GogglesConfig(n_classes=2, seed=0, top_z=2, layers=(2, 3)), model=vgg)
        affinity = goggles.build_affinity_matrix(small_cub.images)
        assert affinity.n_functions == 4

    def test_hierarchical_config_propagates(self):
        config = GogglesConfig(n_classes=2, seed=42)
        hier = config.hierarchical_config()
        assert hier.seed == 42
        assert hier.n_classes == 2

    def test_hierarchical_config_keeps_every_other_field(self):
        """dataclasses.replace semantics: nothing silently dropped."""
        from dataclasses import fields

        from repro.core.inference.hierarchical import HierarchicalConfig

        custom = HierarchicalConfig(base_max_iter=7, ensemble_n_init=9, variance_floor=1e-3)
        config = GogglesConfig(n_classes=3, seed=5, inference=custom)
        hier = config.hierarchical_config()
        for f in fields(HierarchicalConfig):
            if f.name in ("n_classes", "seed"):
                continue
            assert getattr(hier, f.name) == getattr(custom, f.name), f.name

    def test_engine_config_from_convenience_fields(self):
        config = GogglesConfig(n_jobs=3, batch_size=8, cache_dir="/tmp/x")
        engine = config.engine_config()
        assert (engine.n_jobs, engine.batch_size, engine.cache_dir) == (3, 8, "/tmp/x")

    def test_engine_override_wins(self):
        from repro.engine import EngineConfig

        override = EngineConfig(n_jobs=5, precision="float32")
        config = GogglesConfig(n_jobs=1, engine=override)
        assert config.engine_config() is override

    def test_n_jobs_label_matches_serial(self, vgg, small_cub):
        """Extraction chunks, similarity tiles and base fits on 4 threads
        give the serial bits: the affinity values and the posteriors of
        a ``label`` and of the ``label_incremental`` step after it, at
        both precisions."""
        images, labels = small_cub.images, small_cub.labels
        n0 = images.shape[0] - 4
        indices = np.concatenate([np.flatnonzero(labels[:n0] == c)[:3] for c in range(2)])
        dev = DevSet(indices=indices, labels=labels[indices])
        for precision in ("float32", "float64"):
            runs = []
            for n_jobs, batch_size, row_tile in ((1, 32, 32), (4, 5, 8)):
                engine = EngineConfig(
                    n_jobs=n_jobs, batch_size=batch_size, row_tile=row_tile, precision=precision
                )
                config = GogglesConfig(n_classes=2, seed=0, top_z=2, layers=(2, 3), engine=engine)
                goggles = Goggles(config, model=vgg)
                runs.append((goggles.label(images[:n0], dev), goggles.label_incremental(images[n0:], dev)))
            for serial, threaded in zip(*runs):
                assert threaded.affinity.values.dtype == serial.affinity.values.dtype == np.dtype(precision)
                np.testing.assert_array_equal(threaded.affinity.values, serial.affinity.values)
                np.testing.assert_array_equal(threaded.probabilistic_labels, serial.probabilistic_labels)


class TestFloat32LabelContract:
    """The dense default computes in float32; its labels must be the
    float64 path's.  A near-tie can flip one prototype and move single
    affinities by ~0.2, so the contract is on posteriors and labels,
    not on affinity values."""

    @pytest.mark.parametrize("name, seed", [("surface", 1), ("surface", 2), ("shapes", 0), ("shapes", 1)])
    def test_float32_labels_match_float64(self, vgg, name, seed):
        if name == "shapes":
            dataset = make_shapes(n_classes=2, n_per_class=40, seed=seed)
        else:
            dataset = make_dataset(name, n_per_class=40, seed=seed)
        dev = dataset.sample_dev_set(per_class=5, seed=0)
        results = {
            precision: Goggles(
                GogglesConfig(n_classes=2, seed=0, engine=EngineConfig(precision=precision)), model=vgg
            ).label(dataset.images, dev)
            for precision in ("float32", "float64")
        }
        half, exact = results["float32"], results["float64"]
        agreement = posterior_agreement(half.probabilistic_labels, exact.probabilistic_labels)
        assert agreement >= MIN_POSTERIOR_AGREEMENT
        np.testing.assert_array_equal(half.predictions, exact.predictions)
