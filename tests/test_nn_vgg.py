"""Tests for the VGG-16 feature extractor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Goggles, GogglesConfig
from repro.engine import EngineConfig
from repro.nn import VGG16, VGGConfig
from repro.nn import functional as F
from repro.nn.vgg import VGG16_BLOCKS, VGG16_CHANNELS


def _nchw_conv2d(x, weight, bias=None, stride=1, padding=0):
    """Reference convolution: the NCHW im2col + one stacked GEMM that
    ``F.conv2d`` replaced.  Each patch row interleaves channels, so the
    gather is a transposing copy of the whole padded batch."""
    n = x.shape[0]
    c_out, c_in, k, _ = weight.shape
    x = F.pad2d(x, padding)
    h_out = (x.shape[2] - k) // stride + 1
    w_out = (x.shape[3] - k) // stride + 1
    s_n, s_c, s_h, s_w = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c_in, h_out, w_out, k, k),
        strides=(s_n, s_c, s_h * stride, s_w * stride, s_h, s_w),
        writeable=False,
    )
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, h_out * w_out, -1))
    out = cols @ weight.reshape(c_out, -1).T
    if bias is not None:
        out = out + bias
    return out.transpose(0, 2, 1).reshape(n, c_out, h_out, w_out)


class TestArchitecture:
    def test_vgg16_topology_constants(self):
        assert VGG16_BLOCKS == (2, 2, 3, 3, 3)  # 13 conv layers
        assert sum(VGG16_BLOCKS) == 13
        assert VGG16_CHANNELS == (64, 128, 256, 512, 512)

    def test_pool_shapes_halve(self, vgg, tiny_images):
        pools = vgg.forward_pools(tiny_images)
        assert len(pools) == 5
        sizes = [p.shape[2] for p in pools]
        assert sizes == [16, 8, 4, 2, 1]
        channels = [p.shape[1] for p in pools]
        assert channels == list(vgg.pool_channels())

    def test_full_width_channels(self):
        cfg = VGGConfig(width_multiplier=1.0)
        assert cfg.block_channels() == (64, 128, 256, 512, 512)

    def test_describe_mentions_all_convs(self, vgg):
        text = vgg.describe()
        assert text.count("conv") == 13
        assert text.count("max pool") == 5

    def test_n_parameters_positive(self, vgg, tiny_images):
        vgg.logits(tiny_images)  # materialise fc1
        assert vgg.n_parameters() > 10_000


class TestDeterminism:
    def test_same_seed_same_outputs(self, tiny_images):
        a = VGG16(VGGConfig(seed=11)).forward_pools(tiny_images)
        b = VGG16(VGGConfig(seed=11)).forward_pools(tiny_images)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seed_different_outputs(self, tiny_images):
        a = VGG16(VGGConfig(seed=11)).forward_pools(tiny_images)[2]
        b = VGG16(VGGConfig(seed=12)).forward_pools(tiny_images)[2]
        assert not np.array_equal(a, b)


class TestFeatures:
    def test_logits_shape(self, vgg, tiny_images):
        assert vgg.logits(tiny_images).shape == (4, vgg.config.n_logits)

    def test_embed_shape_and_nonnegative(self, vgg, tiny_images):
        emb = vgg.embed(tiny_images)
        pools = vgg.forward_pools(tiny_images)
        expected = sum(p.shape[1] for p in pools[2:]) + pools[-1][0].size
        assert emb.shape == (4, expected)
        assert emb.min() >= 0  # ReLU outputs pooled/flattened

    def test_pool_features_layer_selection(self, vgg, tiny_images):
        pools = vgg.forward_pools(tiny_images)
        for layer in range(5):
            np.testing.assert_array_equal(vgg.pool_features(tiny_images, layer), pools[layer])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_maps_are_channels_last(self, vgg, tiny_images, dtype):
        """Every pool map is an (N, C, H, W) view of (N, H, W, C) memory at
        either precision: the similarity GEMM's bits depend on that
        layout."""
        for pool in vgg.forward_pools(tiny_images.astype(dtype)):
            assert pool.dtype == dtype
            assert pool.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_pool_features_bad_layer(self, vgg, tiny_images):
        with pytest.raises(ValueError, match="layer"):
            vgg.pool_features(tiny_images, 5)

    def test_activations_do_not_collapse(self, vgg):
        rng = np.random.default_rng(3)
        images = rng.random((3, 3, 64, 64))
        pools = vgg.forward_pools(images)
        for i, pool in enumerate(pools):
            assert pool.std() > 1e-3, f"pool {i} activations collapsed"

    def test_different_images_different_features(self, vgg):
        rng = np.random.default_rng(4)
        images = rng.random((2, 3, 32, 32))
        pools = vgg.forward_pools(images)
        assert not np.allclose(pools[-1][0], pools[-1][1])


class TestCalibration:
    def test_calibrated_sparsity_in_range(self, vgg):
        rng = np.random.default_rng(5)
        images = rng.random((4, 3, 64, 64))
        pools = vgg.forward_pools(images)
        # Max-pool keeps window maxima, so post-pool sparsity is lower
        # than the conv-level target; it must still be substantial.
        sparsity = np.mean([(p == 0).mean() for p in pools])
        assert 0.05 < sparsity < 0.9

    def test_calibration_decorrelates_features(self):
        # The point of calibration: without it, deep location vectors
        # are so uniformly positive that all cosine similarities
        # saturate near 1 (measured 0.98 +/- 0.01); calibration restores
        # spread.  Compare mean pairwise cosine at pool4.
        rng = np.random.default_rng(9)
        images = rng.random((6, 3, 64, 64))

        def mean_cosine(model):
            feats = model.forward_pools(images)[3]
            vectors = feats.reshape(feats.shape[0], feats.shape[1], -1).mean(axis=2)
            norms = np.linalg.norm(vectors, axis=1, keepdims=True)
            unit = vectors / np.maximum(norms, 1e-12)
            gram = unit @ unit.T
            return gram[~np.eye(len(images), dtype=bool)].mean()

        calibrated = mean_cosine(VGG16(VGGConfig(seed=0)))
        uncalibrated = mean_cosine(VGG16(VGGConfig(seed=0, calibration_sparsity=0.0)))
        assert calibrated < uncalibrated

    def test_calibration_biases_nonzero(self, vgg):
        from repro.nn.layers import Conv2d

        biases = [layer.bias for layer in vgg.features if isinstance(layer, Conv2d)]
        assert all(np.abs(b).max() > 0 for b in biases)


class TestChannelsLastConv:
    """The channels-last conv against the NCHW reference it replaced.

    Both sides build their own backbone, so each one's biases are
    calibrated by its own convolution, exactly as a fresh process would
    see them."""

    @staticmethod
    def _pools_and_labels(images, dev):
        model = VGG16(VGGConfig(seed=0))
        config = GogglesConfig(n_classes=2, seed=0, top_z=4, engine=EngineConfig(precision="float64"))
        result = Goggles(config, model=model).label(images, dev)
        return model.forward_pools(images), result

    @pytest.fixture(scope="class")
    def runs(self, small_surface):
        dev = small_surface.sample_dev_set(per_class=3, seed=0)
        ours = self._pools_and_labels(small_surface.images, dev)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(F, "conv2d", _nchw_conv2d)
            reference = self._pools_and_labels(small_surface.images, dev)
        return ours, reference

    def test_pool_features_within_drift_bound(self, runs):
        (pools, _), (reference, _) = runs
        for pool, expected in zip(pools, reference):
            np.testing.assert_allclose(pool, expected, rtol=0, atol=1e-12)

    def test_pool_features_are_channels_last(self, runs):
        # The similarity GEMM rounds by this layout.
        (pools, _), _ = runs
        for pool in pools:
            assert pool.strides[1] < pool.strides[-1]
            assert pool.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_labels_identical(self, runs):
        (_, result), (_, expected) = runs
        np.testing.assert_allclose(result.affinity.values, expected.affinity.values, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(result.predictions, expected.predictions)
