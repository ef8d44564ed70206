"""Tests for the online labeling subsystem (repro.online).

Covers the sufficient-statistics accumulators (exact-pooling property:
merged statistics reproduce a direct fit on the concatenated data),
the stepwise-EM absorb path, the drift/refit state machine, and the
persistence contract (a restarted session resumes mid-stream from the
cached ``online-*.npz`` state without refitting).
"""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Goggles, GogglesConfig
from repro.core.inference.base_gmm import DiagonalGMM, _centre
from repro.core.inference.mapping import ClusterMapping
from repro.obs import MetricsRegistry
from repro.online import BernoulliStats, GMMStats, OnlineConfig, OnlineSession, step_size
from repro.serving import LabelingService
from repro.utils.rng import spawn_rng

VARIANCE_FLOOR = 1e-6
PARAM_FLOOR = 1e-3


def _soft_assignments(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    resp = rng.random((n, k)) + 0.1
    return resp / resp.sum(axis=1, keepdims=True)


# ----------------------------------------------------------------------
# Accumulators
# ----------------------------------------------------------------------
class TestGMMStats:
    def test_from_responsibilities_normalised(self):
        rng = spawn_rng(0, "gmm-stats")
        x = rng.normal(size=(12, 5))
        resp = _soft_assignments(rng, 12, 3)
        stats = GMMStats.from_responsibilities(x, resp)
        assert stats.n == 12.0
        np.testing.assert_allclose(stats.nk.sum(), 1.0)
        np.testing.assert_allclose(stats.sx, (resp.T @ x) / 12)

    def test_merge_equals_concatenated(self):
        rng = spawn_rng(1, "gmm-stats")
        x1, x2 = rng.normal(size=(7, 4)), rng.normal(size=(11, 4))
        r1, r2 = _soft_assignments(rng, 7, 2), _soft_assignments(rng, 11, 2)
        merged = GMMStats.from_responsibilities(x1, r1).merge(GMMStats.from_responsibilities(x2, r2))
        direct = GMMStats.from_responsibilities(np.concatenate([x1, x2]), np.concatenate([r1, r2]))
        np.testing.assert_allclose(merged.nk, direct.nk)
        np.testing.assert_allclose(merged.sx, direct.sx)
        np.testing.assert_allclose(merged.sxx, direct.sxx)
        assert merged.n == direct.n == 18.0

    def test_blend_is_convex_combination(self):
        rng = spawn_rng(2, "gmm-stats")
        base = GMMStats.from_responsibilities(rng.normal(size=(6, 3)), _soft_assignments(rng, 6, 2))
        batch = GMMStats.from_responsibilities(rng.normal(size=(4, 3)), _soft_assignments(rng, 4, 2))
        blended = base.blend(batch, rho=0.25)
        np.testing.assert_allclose(blended.sx, 0.75 * base.sx + 0.25 * batch.sx)
        full = base.blend(batch, rho=1.0)
        np.testing.assert_allclose(full.sx, batch.sx)
        with pytest.raises(ValueError, match="rho"):
            base.blend(batch, rho=0.0)

    def test_params_match_direct_m_step(self):
        rng = spawn_rng(3, "gmm-stats")
        x = rng.normal(size=(20, 4))
        resp = _soft_assignments(rng, 20, 3)
        params = GMMStats.from_responsibilities(x, resp).params(VARIANCE_FLOOR)
        model = DiagonalGMM(n_components=3, variance_floor=VARIANCE_FLOOR, seed=0)
        model._m_step(_centre(x), resp, spawn_rng(0, "unused"))
        np.testing.assert_allclose(params.weights, model.weights_, atol=1e-12)
        np.testing.assert_allclose(params.means, model.means_, atol=1e-10)
        np.testing.assert_allclose(params.variances, model.variances_, atol=1e-10)

    def test_arrays_round_trip(self):
        rng = spawn_rng(4, "gmm-stats")
        stats = GMMStats.from_responsibilities(rng.normal(size=(5, 2)), _soft_assignments(rng, 5, 2))
        restored = GMMStats.from_arrays(stats.arrays("f000"), "f000")
        np.testing.assert_array_equal(restored.nk, stats.nk)
        np.testing.assert_array_equal(restored.sxx, stats.sxx)
        assert restored.n == stats.n

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="align"):
            GMMStats.from_responsibilities(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="at least one row"):
            GMMStats.from_responsibilities(np.zeros((0, 2)), np.zeros((0, 2)))

    @pytest.mark.parametrize("m", [1, 6])
    def test_stack_equals_each_function(self, m):
        """Statistics, blend and M-step over a stack of α functions equal
        the single-function calls slice for slice, bit for bit."""
        rng = spawn_rng(8, "gmm-stats")
        alpha, d, k = 4, 7, 3
        seed_x, x = rng.normal(size=(alpha, 10, d)), rng.normal(size=(alpha, m, d))
        seed_resp = np.stack([_soft_assignments(rng, 10, k) for _ in range(alpha)])
        resp = np.stack([_soft_assignments(rng, m, k) for _ in range(alpha)])
        seeds = [GMMStats.from_responsibilities(seed_x[f], seed_resp[f]) for f in range(alpha)]
        batch = GMMStats.from_responsibilities(x, resp)
        blended = GMMStats.stack(seeds).blend(batch, rho=0.3)
        params = blended.params(VARIANCE_FLOOR)
        assert batch.sx.shape == (alpha, k, d) and batch.n == m
        for f in range(alpha):
            single_batch = GMMStats.from_responsibilities(x[f], resp[f])
            single = seeds[f].blend(single_batch, rho=0.3)
            single_params = single.params(VARIANCE_FLOOR)
            for name in ("nk", "sx", "sxx"):
                np.testing.assert_array_equal(getattr(batch, name)[f], getattr(single_batch, name))
                np.testing.assert_array_equal(getattr(blended, name)[f], getattr(single, name))
            for name in ("weights", "means", "variances"):
                np.testing.assert_array_equal(getattr(params, name)[f], getattr(single_params, name))


class TestBernoulliStats:
    def test_merge_equals_concatenated(self):
        rng = spawn_rng(5, "bern-stats")
        x1 = rng.integers(0, 2, size=(9, 6)).astype(np.float64)
        x2 = rng.integers(0, 2, size=(5, 6)).astype(np.float64)
        r1, r2 = _soft_assignments(rng, 9, 3), _soft_assignments(rng, 5, 3)
        merged = BernoulliStats.from_responsibilities(x1, r1).merge(
            BernoulliStats.from_responsibilities(x2, r2)
        )
        direct = BernoulliStats.from_responsibilities(np.concatenate([x1, x2]), np.concatenate([r1, r2]))
        np.testing.assert_allclose(merged.nk, direct.nk)
        np.testing.assert_allclose(merged.sx, direct.sx)

    def test_params_match_em_m_step(self):
        rng = spawn_rng(6, "bern-stats")
        x = rng.integers(0, 2, size=(15, 4)).astype(np.float64)
        resp = _soft_assignments(rng, 15, 2)
        params = BernoulliStats.from_responsibilities(x, resp).params(PARAM_FLOOR)
        nk = np.maximum(resp.sum(axis=0), 1e-10)  # BernoulliMixture._run_em's M-step
        np.testing.assert_allclose(params.weights, nk / 15, atol=1e-12)
        np.testing.assert_allclose(
            params.probs, np.clip((resp.T @ x) / nk[:, None], PARAM_FLOOR, 1 - PARAM_FLOOR)
        )

    def test_arrays_round_trip(self):
        rng = spawn_rng(7, "bern-stats")
        x = rng.integers(0, 2, size=(4, 3)).astype(np.float64)
        stats = BernoulliStats.from_responsibilities(x, _soft_assignments(rng, 4, 2))
        restored = BernoulliStats.from_arrays(stats.arrays("ens"), "ens")
        np.testing.assert_array_equal(restored.sx, stats.sx)


class TestStepSize:
    def test_decays_and_validates(self):
        rhos = [step_size(t, 0.7, 2.0) for t in range(1, 6)]
        assert all(0 < r <= 1 for r in rhos)
        assert rhos == sorted(rhos, reverse=True)
        with pytest.raises(ValueError, match="step"):
            step_size(0, 0.7, 2.0)


# ----------------------------------------------------------------------
# Property tests: statistics-based refit == direct fit on concatenated data
# ----------------------------------------------------------------------
@st.composite
def split_weighted_data(draw):
    k = draw(st.integers(min_value=2, max_value=3))
    d = draw(st.integers(min_value=1, max_value=5))
    n1 = draw(st.integers(min_value=k, max_value=8))
    n2 = draw(st.integers(min_value=k, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    x1, x2 = rng.normal(size=(n1, d)), rng.normal(size=(n2, d))
    r1, r2 = _soft_assignments(rng, n1, k), _soft_assignments(rng, n2, k)
    return k, x1, x2, r1, r2


@settings(max_examples=40, deadline=None)
@given(split_weighted_data())
def test_property_gmm_merge_reproduces_concatenated_m_step(case):
    k, x1, x2, r1, r2 = case
    merged = GMMStats.from_responsibilities(x1, r1).merge(GMMStats.from_responsibilities(x2, r2))
    params = merged.params(VARIANCE_FLOOR)
    x = np.concatenate([x1, x2])
    resp = np.concatenate([r1, r2])
    model = DiagonalGMM(n_components=k, variance_floor=VARIANCE_FLOOR, seed=0)
    model._m_step(_centre(x), resp, spawn_rng(0, "unused"))
    np.testing.assert_allclose(params.weights, model.weights_, atol=1e-10)
    np.testing.assert_allclose(params.means, model.means_, atol=1e-8)
    np.testing.assert_allclose(params.variances, model.variances_, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(split_weighted_data())
def test_property_bernoulli_merge_reproduces_concatenated_m_step(case):
    k, x1, x2, r1, r2 = case
    x1, x2 = (x1 > 0).astype(np.float64), (x2 > 0).astype(np.float64)
    merged = BernoulliStats.from_responsibilities(x1, r1).merge(BernoulliStats.from_responsibilities(x2, r2))
    params = merged.params(PARAM_FLOOR)
    x, resp = np.concatenate([x1, x2]), np.concatenate([r1, r2])
    nk = np.maximum(resp.sum(axis=0), 1e-10)
    np.testing.assert_allclose(params.weights, nk / x.shape[0], atol=1e-10)
    np.testing.assert_allclose(
        params.probs, np.clip((resp.T @ x) / nk[:, None], PARAM_FLOOR, 1 - PARAM_FLOOR), atol=1e-10
    )


@settings(max_examples=15, deadline=None)
@given(split_weighted_data())
def test_property_refit_from_stats_matches_direct_fit(case):
    """EM warm-started from accumulator-derived parameters lands where a
    fit warm-started from the concatenated responsibilities lands."""
    k, x1, x2, r1, r2 = case
    merged = GMMStats.from_responsibilities(x1, r1).merge(GMMStats.from_responsibilities(x2, r2))
    x, resp = np.concatenate([x1, x2]), np.concatenate([r1, r2])
    from_stats = DiagonalGMM(n_components=k, variance_floor=VARIANCE_FLOOR, seed=0).fit(
        x, init=merged.params(VARIANCE_FLOOR)
    )
    direct = DiagonalGMM(n_components=k, variance_floor=VARIANCE_FLOOR, seed=0).fit(x, init=resp)
    np.testing.assert_allclose(from_stats.responsibilities, direct.responsibilities, atol=1e-6)


# ----------------------------------------------------------------------
# OnlineConfig validation
# ----------------------------------------------------------------------
class TestOnlineConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step_decay": 0.5},
            {"step_decay": 1.5},
            {"step_delay": -1.0},
            {"refine_tol": 0.0},
            {"refine_max_iter": 0},
            {"drift_threshold": 0.0},
            {"drift_alpha": 0.0},
            {"refit_every": -1},
            {"buffer_cap": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            OnlineConfig(**kwargs)


# ----------------------------------------------------------------------
# OnlineSession end to end
# ----------------------------------------------------------------------
@pytest.fixture()
def seeded(vgg, small_surface):
    """A labeled seed corpus plus held-out arrivals on the small surface set."""
    images = small_surface.images
    n0 = images.shape[0] - 6
    dev = small_surface.sample_dev_set(per_class=3, seed=0)
    assert dev.indices.max() < n0
    config = GogglesConfig(n_classes=2, seed=0, top_z=3, layers=(1, 2))
    goggles = Goggles(config, model=vgg)
    result = goggles.label(images[:n0], dev)
    return goggles, dev, result, images, n0


class TestOnlineSession:
    def test_requires_corpus_state(self, vgg, small_surface):
        config = GogglesConfig(n_classes=2, seed=0, top_z=2, layers=(1,))
        dev = small_surface.sample_dev_set(per_class=2, seed=0)
        goggles = Goggles(config, model=vgg)
        with pytest.raises(ValueError, match="corpus state"):
            OnlineSession(goggles, dev, result=None)

    def test_absorb_returns_class_aligned_labels(self, seeded):
        goggles, dev, result, images, n0 = seeded
        session = OnlineSession(goggles, dev, result, OnlineConfig(drift_threshold=100.0))
        labels = session.absorb(images[n0 : n0 + 3])
        assert labels.shape == (3, 2)
        np.testing.assert_allclose(labels.sum(axis=1), 1.0, atol=1e-8)
        assert session.stats()["step"] == 1
        assert session.n_absorbed == 3
        # The frozen corpus did not grow — absorb is O(batch), not a rebuild.
        assert goggles.engine.state.n_images == n0
        assert session.n_seed == n0

    def test_absorb_tracks_direct_incremental_labels(self, vgg, seeded):
        goggles, dev, result, images, n0 = seeded
        session = OnlineSession(goggles, dev, result, OnlineConfig(drift_threshold=100.0))
        online = np.concatenate([session.absorb(images[n0 : n0 + 3]), session.absorb(images[n0 + 3 :])])
        direct = Goggles(GogglesConfig(n_classes=2, seed=0, top_z=3, layers=(1, 2)), model=vgg)
        direct.label(images[:n0], dev)
        reference = direct.label_incremental(images[n0:], dev).probabilistic_labels[n0:]
        agree = (online.argmax(axis=1) == reference.argmax(axis=1)).mean()
        assert agree >= 0.8  # deterministic on this corpus; exactness is the
        # shapes-corpora benchmark's contract (bench_online_inference.py)

    def test_absorb_rows_validates_shapes(self, seeded):
        goggles, dev, result, _, n0 = seeded
        session = OnlineSession(goggles, dev, result)
        with pytest.raises(ValueError, match="row blocks"):
            session.absorb_rows([np.zeros((2, n0))])
        bad = [np.zeros((2, n0 + 1)) for _ in range(session.alpha)]
        with pytest.raises(ValueError, match="expected"):
            session.absorb_rows(bad)

    def test_refit_every_escalates_and_grows_corpus(self, seeded):
        goggles, dev, result, images, n0 = seeded
        session = OnlineSession(goggles, dev, result, OnlineConfig(drift_threshold=100.0, refit_every=1))
        labels = session.absorb(images[n0 : n0 + 3])
        assert session.n_refits == 1
        assert labels.shape == (3, 2)
        # The refit absorbed the buffered arrivals into the corpus and
        # re-froze the session on the grown corpus.
        assert goggles.engine.state.n_images == n0 + 3
        assert session.n_seed == n0 + 3
        assert session.stats()["step"] == 0  # schedule reset by the refit
        again = session.absorb(images[n0 + 3 :])
        assert session.n_refits == 2
        assert goggles.engine.state.n_images == images.shape[0]
        assert again.shape == (images.shape[0] - n0 - 3, 2)

    def test_drift_trips_should_refit(self, seeded):
        goggles, dev, result, images, n0 = seeded
        session = OnlineSession(goggles, dev, result, OnlineConfig(drift_threshold=0.5))
        assert not session.should_refit()
        session._ewma_ll = session._baseline_ll - 1.0  # simulate a collapse
        assert session.drift == pytest.approx(1.0)
        assert session.should_refit()

    def test_unstable_mapping_trips_should_refit(self, seeded):
        goggles, dev, result, _, _ = seeded
        session = OnlineSession(goggles, dev, result, OnlineConfig(drift_threshold=100.0))
        assert session.mapping_stable()
        flipped = ClusterMapping(cluster_to_class=1 - session.mapping.cluster_to_class, goodness=0.0)
        session.mapping = flipped
        assert not session.mapping_stable()
        assert session.should_refit()

    def test_organic_drift_triggers_refit(self, seeded):
        """Out-of-distribution arrivals drop the prequential log-likelihood
        EWMA below the baseline and escalate to a real refit — the drift
        path end to end, not a hand-set EWMA."""
        goggles, dev, result, images, n0 = seeded
        session = OnlineSession(
            goggles, dev, result, OnlineConfig(drift_threshold=0.1, drift_alpha=1.0)
        )
        session.absorb(images[n0 : n0 + 3])  # in-distribution: no trip
        assert session.n_refits == 0
        assert session.drift < 0.1
        noise = spawn_rng(0, "drift-noise").random((3, 3, 64, 64))
        session.absorb(noise)
        assert session.n_refits == 1  # the drop tripped the monitor
        assert session.n_seed == n0 + 6  # refit absorbed the buffered arrivals
        assert session.drift == 0.0  # re-frozen baseline

    def test_prequential_score_is_pre_update(self, seeded):
        """The drift EWMA must blend the score under the *committed*
        parameters — adapting to the batch first would mask drift."""
        goggles, dev, result, images, n0 = seeded
        session = OnlineSession(
            goggles, dev, result, OnlineConfig(drift_threshold=100.0, drift_alpha=1.0)
        )
        rows = session._arrival_rows(images[n0 : n0 + 3])
        _, _, _, pre_update_ll = session._score_batch(
            np.stack(rows), session._base_params, session._ensemble_params
        )
        session.absorb_rows(rows)
        assert session._ewma_ll == pytest.approx(pre_update_ll)

    def test_failed_refit_leaves_session_retryable(self, monkeypatch, seeded):
        """If the escalated refit dies, the statistics, schedule, and
        buffer roll back with the corpus — a resubmitted batch is not
        double-counted."""
        goggles, dev, result, images, n0 = seeded
        session = OnlineSession(
            goggles, dev, result, OnlineConfig(drift_threshold=100.0, refit_every=1)
        )

        def boom(*args, **kwargs):
            raise MemoryError("simulated refit blow-up")

        monkeypatch.setattr(goggles, "label_incremental", boom)
        with pytest.raises(MemoryError):
            session.absorb(images[n0 : n0 + 3])
        assert session.stats()["step"] == 0  # schedule rolled back
        assert session.stats()["buffered_rows"] == 0
        assert session.n_absorbed == 0
        monkeypatch.undo()
        labels = session.absorb(images[n0 : n0 + 3])  # clean retry refits
        assert labels.shape == (3, 2)
        assert session.n_refits == 1
        assert goggles.engine.state.n_images == n0 + 3  # no duplicated rows

    def test_arrival_rows_match_extend_state_slice(self, seeded):
        """The rows-only hot path is bit-identical to slicing a throwaway
        full extension (the quadrant the session consumes)."""
        goggles, _, _, images, n0 = seeded
        engine = goggles.engine
        runtime = engine._runtime()
        fast = engine.source.extend_rows(engine.state, images[n0:], runtime)
        full = engine.source.extend_state(engine.state, images[n0:], runtime)
        assert len(fast) == full.affinity.n_functions
        for f, block in enumerate(fast):
            np.testing.assert_array_equal(block, full.affinity.block(f)[n0:, :n0])

    def test_feature_cosine_extend_rows_matches_slice(self):
        from repro.engine import EngineConfig, FeatureCosineSource

        source = FeatureCosineSource(lambda images: images.reshape(images.shape[0], -1), "flat")
        runtime = EngineConfig().runtime()
        rng = spawn_rng(8, "cosine-rows")
        images = rng.random((10, 3, 8, 8))
        state = source.build_state(images[:7], runtime)
        fast = source.extend_rows(state, images[7:], runtime)
        full = source.extend_state(state, images[7:], runtime)
        assert len(fast) == 1
        np.testing.assert_allclose(fast[0], full.affinity.block(0)[7:, :7], atol=1e-12)

    def test_buffer_stays_bounded(self, seeded):
        goggles, dev, result, images, n0 = seeded
        session = OnlineSession(goggles, dev, result, OnlineConfig(drift_threshold=100.0, buffer_cap=3))
        session.absorb(images[n0 : n0 + 3])
        session.absorb(images[n0 + 3 :])
        stats = session.stats()
        assert stats["buffered_rows"] <= 3
        assert stats["buffer_dropped"] == 3
        assert session.n_absorbed == 6


class TestOnlinePersistence:
    def _build(self, vgg, small_surface, cache_dir, config=None):
        images = small_surface.images
        n0 = images.shape[0] - 6
        dev = small_surface.sample_dev_set(per_class=3, seed=0)
        goggles = Goggles(
            GogglesConfig(n_classes=2, seed=0, top_z=3, layers=(1, 2), cache_dir=str(cache_dir)),
            model=vgg,
        )
        result = goggles.label(images[:n0], dev)
        session = OnlineSession(goggles, dev, result, config or OnlineConfig(drift_threshold=100.0))
        return goggles, dev, result, session, images, n0

    def test_restarted_session_resumes_mid_stream(self, vgg, small_surface, tmp_path):
        _, _, _, first, images, n0 = self._build(vgg, small_surface, tmp_path)
        labels = first.absorb(images[n0 : n0 + 3])
        assert first.stats()["persisted"]

        # "Restart": a fresh Goggles over the same cache replays the seed
        # fit from disk, and the new session resumes the online state.
        _, _, _, second, _, _ = self._build(vgg, small_surface, tmp_path)
        assert second.resumed
        assert second.stats()["step"] == 1
        assert second.n_absorbed == 3
        np.testing.assert_allclose(second._ewma_ll, first._ewma_ll)
        np.testing.assert_allclose(second._base_stats.sx, first._base_stats.sx)
        # And it keeps serving: the next absorb continues the schedule.
        again = second.absorb(images[n0 + 3 :])
        assert second.stats()["step"] == 2
        assert again.shape == (3, 2)
        np.testing.assert_allclose(labels.sum(axis=1), 1.0, atol=1e-8)

    def test_resume_skipped_when_config_differs(self, vgg, small_surface, tmp_path):
        _, _, _, first, images, n0 = self._build(vgg, small_surface, tmp_path)
        first.absorb(images[n0 : n0 + 3])
        _, _, _, second, _, _ = self._build(
            vgg, small_surface, tmp_path, config=OnlineConfig(drift_threshold=99.0)
        )
        assert not second.resumed  # the online config is part of the key
        assert second.stats()["step"] == 0

    @pytest.mark.parametrize("recompress", [False, True])
    def test_resume_after_refit_replays_buffer(self, vgg, small_surface, tmp_path, recompress):
        _, _, _, first, images, n0 = self._build(
            vgg, small_surface, tmp_path, config=OnlineConfig(drift_threshold=100.0, refit_every=1)
        )
        first.absorb(images[n0 : n0 + 3])
        assert first.n_refits == 1
        assert first.n_seed == n0 + 3  # the refit grew the corpus
        if recompress:
            # Entries written zlib-compressed, as earlier versions wrote
            # every kind, resume the same way.
            entries = sorted(tmp_path.glob("*.npz"))
            kinds = {entry.name.rsplit("-", 1)[0] for entry in entries}
            assert {"affinity", "state", "inference", "online", "online-replay"} <= kinds
            for entry in entries:
                with np.load(entry) as data:
                    stored = {name: data[name] for name in data.files}
                np.savez_compressed(entry, **stored)
        _, _, _, second, _, _ = self._build(
            vgg, small_surface, tmp_path, config=OnlineConfig(drift_threshold=100.0, refit_every=1)
        )
        # The persisted refit batches replay through label_incremental
        # (cache hits all the way), regrowing the corpus to where the
        # previous life left it — so the online state resumes instead
        # of cold-starting.
        assert second.replayed == 1
        assert second.stats()["replayed"] == 1
        assert second.n_seed == first.n_seed
        assert second.resumed
        assert second.n_refits == 1
        np.testing.assert_allclose(second._ewma_ll, first._ewma_ll)
        np.testing.assert_allclose(second._base_stats.sx, first._base_stats.sx)
        # And it keeps serving on the grown corpus.
        again = second.absorb(images[n0 + 3 :])
        assert again.shape == (3, 2)

    def test_replay_skipped_without_resume(self, vgg, small_surface, tmp_path):
        _, _, _, first, images, n0 = self._build(
            vgg, small_surface, tmp_path, config=OnlineConfig(drift_threshold=100.0, refit_every=1)
        )
        first.absorb(images[n0 : n0 + 3])
        assert first.n_refits == 1
        dev = small_surface.sample_dev_set(per_class=3, seed=0)
        goggles = Goggles(
            GogglesConfig(n_classes=2, seed=0, top_z=3, layers=(1, 2), cache_dir=str(tmp_path)),
            model=vgg,
        )
        result = goggles.label(images[:n0], dev)
        fresh = OnlineSession(
            goggles, dev, result, OnlineConfig(drift_threshold=100.0, refit_every=1), resume=False
        )
        assert fresh.replayed == 0
        assert not fresh.resumed
        assert fresh.n_seed == n0  # the corpus stayed at the seed fit

    def test_no_cache_means_no_persistence(self, seeded):
        goggles, dev, result, images, n0 = seeded
        session = OnlineSession(goggles, dev, result)
        assert session.stats()["persisted"] is False


#: The members of an ``online`` entry: the α base models stacked, the
#: ensemble, eight scalars and the mapping.
ONLINE_ENTRY_NAMES = set(
    "base_nk base_sx base_sxx base_n ens_nk ens_sx ens_n step ewma_ll baseline_ll n_seed "
    "n_refits n_absorbed n_batches n_buffer_dropped mapping".split()
)


def _entry(cache_dir, kind: str):
    """The one cache entry of ``kind`` in ``cache_dir``, or ``None``."""
    found = [path for path in cache_dir.glob("*.npz") if path.name.rsplit("-", 1)[0] == kind]
    assert len(found) <= 1
    return found[0] if found else None


def _members(path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


class TestOnlineCheckpoint:
    """The ``online`` entry's stacked layout, an entry in the per-function
    layout earlier versions wrote, and writes that fail."""

    def _seed(self, vgg, small_surface, cache_dir, tenant: str | None = None):
        images = small_surface.images
        n0 = images.shape[0] - 6
        dev = small_surface.sample_dev_set(per_class=3, seed=0)
        goggles = Goggles(
            GogglesConfig(n_classes=2, seed=0, top_z=3, layers=(1, 2), cache_dir=str(cache_dir)),
            model=vgg,
        )
        if tenant is not None:
            goggles.engine.cache.tenant = tenant
        return goggles, dev, goggles.label(images[:n0], dev), images, n0

    def test_online_entry_holds_sixteen_stacked_arrays(self, vgg, small_surface, tmp_path):
        goggles, dev, result, images, n0 = self._seed(vgg, small_surface, tmp_path)
        session = OnlineSession(goggles, dev, result, OnlineConfig(drift_threshold=100.0))
        session.absorb(images[n0 : n0 + 3])
        stored = _members(_entry(tmp_path, "online"))
        assert set(stored) == ONLINE_ENTRY_NAMES
        assert not any(name.startswith("f0") for name in stored)
        assert stored["base_nk"].shape == (session.alpha, 2)
        assert stored["base_sx"].shape == stored["base_sxx"].shape == (session.alpha, 2, n0)

    def test_per_function_entry_is_a_counted_miss(
        self, vgg, small_surface, tmp_path, cache_label, cache_counts
    ):
        goggles, dev, result, images, n0 = self._seed(vgg, small_surface, tmp_path)
        first = OnlineSession(goggles, dev, result, OnlineConfig(drift_threshold=100.0))
        first.absorb(images[n0 : n0 + 3])
        entry = _entry(tmp_path, "online")
        stored = _members(entry)
        # Rewrite it in the layout earlier versions wrote: f{i:03d}_{nk,sx,sxx,n}.
        legacy = {name: value for name, value in stored.items() if not name.startswith("base_")}
        for f in range(first.alpha):
            for name in ("nk", "sx", "sxx"):
                legacy[f"f{f:03d}_{name}"] = stored[f"base_{name}"][f]
            legacy[f"f{f:03d}_n"] = stored["base_n"]
        np.savez(entry, **legacy)

        goggles, dev, result, images, n0 = self._seed(vgg, small_surface, tmp_path, tenant=cache_label)
        misses = cache_counts(goggles.engine.cache).misses.get("online", 0)
        second = OnlineSession(goggles, dev, result, OnlineConfig(drift_threshold=100.0))
        assert not second.resumed
        assert second.stats()["step"] == 0
        assert cache_counts(goggles.engine.cache).misses.get("online", 0) == misses + 1
        assert not entry.exists()
        second.absorb(images[n0 + 3 :])
        assert set(_members(entry)) == ONLINE_ENTRY_NAMES

    @pytest.mark.parametrize("kind, faulted", [("online", 3), ("online-replay", 2)])
    def test_failed_write_still_serves_the_batch(
        self, vgg, small_surface, tmp_path, monkeypatch, kind, faulted
    ):
        """A write that fails after the batch was absorbed is counted: the
        batch is served once, the previous entry stays, and the session
        keeps serving and resumes after a restart."""
        config = OnlineConfig(drift_threshold=100.0, refit_every=2)
        goggles, dev, result, images, n0 = self._seed(vgg, small_surface, tmp_path)
        registry = MetricsRegistry()
        session = OnlineSession(goggles, dev, result, config, registry=registry, tenant="t")
        sizes = (2, 1, 2, 1)  # refit_every=2: the 2nd and 4th absorbs refit
        real_replace = os.replace
        armed = [False]

        def replace(src, dst):
            # Publishing an entry of `kind` fails once, as on a full disk.
            if armed[0] and os.path.basename(dst).rsplit("-", 1)[0] == kind:
                armed[0] = False
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        start = n0
        for i, size in enumerate(sizes, start=1):
            previous = _entry(tmp_path, kind)
            previous = None if previous is None else _members(previous)
            armed[0] = i == faulted
            labels = session.absorb(images[start : start + size])
            start += size
            assert labels.shape == (size, 2)
            assert session.n_absorbed == start - n0
            assert goggles.engine.state.n_images == session.n_seed
            if i != faulted:
                continue
            assert registry.get("goggles_online_persist_errors_total").value(kind=kind, tenant="t") == 1
            assert not list(tmp_path.glob("*.tmp"))
            now = _entry(tmp_path, kind)
            if previous is None:
                assert now is None
            else:
                stored = _members(now)
                assert stored.keys() == previous.keys()
                for name, value in previous.items():
                    np.testing.assert_array_equal(stored[name], value)
        assert session.n_refits == 2
        assert registry.get("goggles_online_persist_errors_total").value(kind=kind, tenant="t") == 1

        goggles, dev, result, _, _ = self._seed(vgg, small_surface, tmp_path)
        restarted = OnlineSession(goggles, dev, result, config)
        assert restarted.resumed
        assert restarted.replayed == 2
        assert restarted.n_seed == session.n_seed
        assert restarted.n_absorbed == session.n_absorbed == sum(sizes)
        assert restarted.stats()["step"] == session.stats()["step"]
        np.testing.assert_array_equal(restarted._base_stats.sx, session._base_stats.sx)


# ----------------------------------------------------------------------
# LabelingService integration (mode="online")
# ----------------------------------------------------------------------
class TestOnlineService:
    def test_mode_validation(self, vgg, small_surface):
        config = GogglesConfig(n_classes=2, seed=0, top_z=2, layers=(1,))
        dev = small_surface.sample_dev_set(per_class=2, seed=0)
        with pytest.raises(ValueError, match="mode"):
            LabelingService(Goggles(config, model=vgg), dev, mode="streaming")

    def test_online_round_trip(self, vgg, small_surface):
        images = small_surface.images
        n0 = images.shape[0] - 6
        dev = small_surface.sample_dev_set(per_class=3, seed=0)
        config = GogglesConfig(
            n_classes=2,
            seed=0,
            top_z=3,
            layers=(1, 2),
            online=OnlineConfig(drift_threshold=100.0),
        )
        service = LabelingService(Goggles(config, model=vgg), dev, mode="online")
        with service:
            service.start(images[:n0])
            assert service.session is not None
            status = service.result(service.submit(images[n0:]), timeout=120.0)
            assert status.done
            assert status.probabilistic_labels.shape == (6, 2)
            stats = service.online_stats
            assert stats is not None and stats["step"] >= 1 and stats["absorbed"] == 6
            # Online absorbs do not grow the corpus (no refit tripped).
            assert service.corpus_size == n0
            assert service.tickets_outstanding == 0

    def test_restarted_online_service_resumes_without_refit(
        self, vgg, small_surface, tmp_path, cache_label, cache_counts
    ):
        images = small_surface.images
        n0 = images.shape[0] - 6
        dev = small_surface.sample_dev_set(per_class=3, seed=0)

        def make_service():
            config = GogglesConfig(
                n_classes=2,
                seed=0,
                top_z=3,
                layers=(1, 2),
                cache_dir=str(tmp_path),
                online=OnlineConfig(drift_threshold=100.0),
            )
            return LabelingService(Goggles(config, model=vgg), dev, mode="online")

        with make_service() as first:
            first.start(images[:n0])
            assert first.result(first.submit(images[n0 : n0 + 3]), timeout=120.0).done

        with make_service() as second:
            second.goggles.engine.cache.tenant = cache_label
            second.start(images[:n0])  # seed fit replays from the artifact cache
            # No cold refit: the seed inference came from the cache ...
            assert cache_counts(second.goggles.engine.cache).hits.get("inference", 0) >= 1
            # ... and the online state resumed mid-stream.
            assert second.session.resumed
            assert second.online_stats["step"] == 1
            status = second.result(second.submit(images[n0 + 3 :]), timeout=120.0)
            assert status.done
            assert second.online_stats["step"] == 2
