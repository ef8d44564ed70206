"""Tests for incremental corpus extension and Goggles.label_incremental."""

from __future__ import annotations

import numpy as np
import pytest
from reference_affinity import FLOAT32_ATOL, compute_affinity_matrix

from repro.core import Goggles, GogglesConfig
from repro.engine import AffinityEngine, EngineConfig, FeatureCosineSource, PrototypeAffinitySource


def from_scratch(vgg, images, precision: str, **source_args):
    """The matrix an extension must reproduce, and to what tolerance:
    the float64 reference kernel at float64, a from-scratch engine
    build at float32 (within a few ulps of the compute dtype)."""
    if precision == "float64":
        return compute_affinity_matrix(vgg, images, **source_args), 1e-12
    engine = AffinityEngine(PrototypeAffinitySource(vgg, **source_args), EngineConfig(precision=precision))
    return engine.build(images, keep_state=False), FLOAT32_ATOL


class TestEngineExtend:
    def test_matches_from_scratch(self, vgg, small_surface):
        images = small_surface.images
        n0 = images.shape[0] - 7
        source = PrototypeAffinitySource(vgg, top_z=3, layers=(1, 3))
        for precision in ("float64", "float32"):
            engine = AffinityEngine(source, EngineConfig(batch_size=5, precision=precision))
            engine.build(images[:n0])
            extended = engine.extend(images[n0:])
            scratch, atol = from_scratch(vgg, images, precision, top_z=3, layers=(1, 3))
            assert extended.values.shape == scratch.values.shape
            np.testing.assert_allclose(
                extended.values, scratch.values, atol=atol, rtol=0.0, err_msg=precision
            )
            assert extended.function_ids == scratch.function_ids

    def test_chained_extends(self, vgg, small_surface):
        images = small_surface.images
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(2,))
        for precision in ("float64", "float32"):
            engine = AffinityEngine(source, EngineConfig(precision=precision))
            engine.build(images[:10])
            engine.extend(images[10:16])
            final = engine.extend(images[16:])
            scratch, atol = from_scratch(vgg, images, precision, top_z=2, layers=(2,))
            np.testing.assert_allclose(final.values, scratch.values, atol=atol, rtol=0.0, err_msg=precision)

    def test_extend_without_state_raises(self, vgg, tiny_images):
        engine = AffinityEngine(PrototypeAffinitySource(vgg, top_z=2, layers=(0,)))
        with pytest.raises(RuntimeError, match="no corpus state"):
            engine.extend(tiny_images)

    def test_extend_after_stateless_build_raises(self, vgg, tiny_images):
        engine = AffinityEngine(PrototypeAffinitySource(vgg, top_z=2, layers=(0,)))
        engine.build(tiny_images, keep_state=False)
        with pytest.raises(RuntimeError, match="no corpus state"):
            engine.extend(tiny_images)

    def test_feature_source_extend(self, tiny_images):
        source = FeatureCosineSource(lambda imgs: imgs.reshape(imgs.shape[0], -1), "flat")
        engine = AffinityEngine(source)
        engine.build(tiny_images[:3])
        extended = engine.extend(tiny_images[3:])
        scratch = source.build_state(tiny_images, engine.config.runtime()).affinity
        np.testing.assert_allclose(extended.values, scratch.values, atol=1e-12, rtol=0.0)


class TestGogglesIncremental:
    @pytest.fixture(scope="class")
    def goggles(self, vgg):
        engine = EngineConfig(n_jobs=2, precision="float64")
        return Goggles(GogglesConfig(n_classes=2, seed=0, top_z=3, layers=(1, 2), engine=engine), model=vgg)

    def test_matches_full_relabel(self, goggles, vgg, small_surface):
        images = small_surface.images
        n0 = images.shape[0] - 6
        dev = small_surface.sample_dev_set(per_class=3, seed=0)

        fresh = Goggles(goggles.config, model=vgg)
        full = fresh.label(images, dev)

        from repro.datasets.base import DevSet

        partial_dev = DevSet(indices=np.arange(4), labels=small_surface.labels[:4])
        goggles.label(images[:n0], partial_dev)
        incremental = goggles.label_incremental(images[n0:], dev)
        np.testing.assert_allclose(incremental.affinity.values, full.affinity.values, atol=1e-12, rtol=0.0)
        np.testing.assert_allclose(incremental.probabilistic_labels, full.probabilistic_labels, atol=1e-8)

    def test_incremental_without_prior_build_raises(self, vgg, tiny_images, small_surface):
        goggles = Goggles(GogglesConfig(n_classes=2, top_z=2, layers=(0,)), model=vgg)
        dev = small_surface.sample_dev_set(per_class=2, seed=0)
        with pytest.raises(RuntimeError, match="no corpus state"):
            goggles.label_incremental(tiny_images, dev)

    def test_keep_corpus_state_off_frees_state(self, vgg, small_surface):
        goggles = Goggles(
            GogglesConfig(n_classes=2, top_z=2, layers=(0,), keep_corpus_state=False), model=vgg
        )
        dev = small_surface.sample_dev_set(per_class=2, seed=0)
        goggles.label(small_surface.images, dev)
        assert goggles.engine.state is None
        with pytest.raises(RuntimeError, match="no corpus state"):
            goggles.label_incremental(small_surface.images[:2], dev)
