"""Tests for the stages distributed over the ``n_jobs`` thread pool.

Extraction chunks and similarity row tiles run on
:func:`~repro.engine.tiling.tile_executor`, base-model fits on
:func:`~repro.core.inference.hierarchical.fit_all_base_functions`,
both ``n_jobs`` threads wide.  Two contracts matter:

* **Bit-identity** — the affinity matrix and posteriors equal the
  serial path exactly (atol=0), whatever the pool width (1, 2, 4),
  because every task is a pure function of its own slice, cut at the
  serial tile and chunk boundaries, with per-function seed streams.
  A task that fails raises its own error on the caller; it never
  hangs the pool.
* **Cache short-circuiting** — the artifact cache is addressed by
  content and value-affecting parameters only, so a rerun of known
  content in any process that mounts the directory recomputes nothing.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from reference_affinity import compute_affinity_matrix

from repro.core import Goggles, GogglesConfig
from repro.core.affinity import AffinityMatrix
from repro.core.inference.hierarchical import (
    HierarchicalConfig,
    fit_all_base_functions,
    fit_base_function,
)
from repro.datasets.base import DevSet
from repro.engine import AffinityEngine, ArtifactCache, EngineConfig, InferenceEngine, PrototypeAffinitySource
from repro.engine.features import extract_pool_features, iter_batches
from repro.engine.tiling import best_similarities, tile_bounds, tile_executor
from repro.nn import VGG16, VGGConfig
from repro.obs import MetricsRegistry, new_trace_id, recent_spans
from repro.serving import LabelingService
from repro.utils.rng import derive_seed

#: Bound on any single pool run below; a hang fails instead of stalling.
RUN_SECONDS = 120.0


@pytest.fixture()
def sim_data():
    rng = np.random.default_rng(derive_seed(0, "distributed-sim"))
    protos = rng.normal(size=(17, 5))
    vectors = rng.normal(size=(11, 5, 7))
    return protos, vectors


@pytest.fixture()
def random_affinity():
    rng = np.random.default_rng(derive_seed(0, "distributed-aff"))
    n, alpha = 16, 3
    return AffinityMatrix(values=rng.uniform(-1.0, 1.0, size=(n, alpha * n)))


class RecordingPool(ThreadPoolExecutor):
    """A thread pool that remembers the work items each ``map`` fans out."""

    def __init__(self, max_workers: int):
        super().__init__(max_workers=max_workers)
        self.items: list = []

    def map(self, fn, *iterables, **kwargs):
        items = list(iterables[0])
        self.items.append(items)
        return super().map(fn, items, **kwargs)


# ----------------------------------------------------------------------
# How a stage cuts its work, and what one task returns
# ----------------------------------------------------------------------
class TestPlannerAndTasks:
    def test_similarity_shards_merge_bit_identical(self, sim_data):
        """Each row tile scored on its own fills its slice of the table
        exactly: a tile depends on its own images only."""
        protos, vectors = sim_data
        tiles = tile_bounds(vectors.shape[0], 4)
        assert len(tiles) == 3
        out = np.empty((protos.shape[0], vectors.shape[0]))
        for i0, i1 in tiles:
            out[:, i0:i1] = best_similarities(protos, vectors[i0:i1], row_tile=None)
        np.testing.assert_array_equal(out, best_similarities(protos, vectors, row_tile=4))

    def test_float32_shards_match_serial_float32(self, sim_data):
        protos, vectors = sim_data
        out = np.empty((protos.shape[0], vectors.shape[0]))
        for i0, i1 in tile_bounds(vectors.shape[0], 4):
            out[:, i0:i1] = best_similarities(protos, vectors[i0:i1], row_tile=None, dtype=np.float32)
        expected = best_similarities(protos, vectors, row_tile=4, dtype=np.float32)
        np.testing.assert_array_equal(out, expected)

    def test_similarity_shard_returns_the_compute_dtype(self, sim_data):
        """A float32 tile can be stored as a float32 block: a max is
        exact, so it holds the float64 table's values at half the bytes."""
        protos, vectors = sim_data
        p32, v32 = protos.astype(np.float32), vectors.astype(np.float32)
        best = best_similarities(p32, v32, row_tile=None, dtype=np.float32, out_dtype=np.float32)
        assert best.dtype == np.float32
        wide = best_similarities(p32, v32, row_tile=None, dtype=np.float32)
        assert wide.dtype == np.float64
        np.testing.assert_array_equal(best.astype(np.float64), wide)

    def test_content_addressing_is_stable_and_dedups(
        self, vgg, tiny_images, tmp_path, cache_label, cache_counts
    ):
        """The affinity cache is addressed by content: the same images in
        another memory layout, built by another engine, find the one
        stored entry under the same key."""
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(1,))
        config = EngineConfig(cache_dir=str(tmp_path), n_jobs=2, row_tile=2)
        first = AffinityEngine(source, config)
        first.cache.tenant = cache_label
        built = first.build(tiny_images)
        second = AffinityEngine(source, config)
        second.cache.tenant = cache_label
        again = second.build(np.asfortranarray(tiny_images))
        assert second.state_key == first.state_key is not None
        counts = cache_counts(second.cache)
        assert counts.misses.get("affinity") == 1 and counts.hits.get("affinity") == 1
        np.testing.assert_array_equal(again.values, built.values)

    def test_base_fit_shard_matches_direct_fit(self, random_affinity, small_surface_affinity):
        """A pool fit reads its block as a strided view of the whole
        matrix, a direct fit here a contiguous copy: every function must
        agree, on a random matrix and on a real one (values near 1, tiny
        variances)."""
        config = HierarchicalConfig(n_classes=2, seed=0)
        for affinity in (random_affinity, small_surface_affinity):
            _, results = fit_all_base_functions(affinity, config, n_jobs=2)
            for f, result in enumerate(results):
                direct = fit_base_function(np.ascontiguousarray(affinity.block(f)), config, f)
                np.testing.assert_array_equal(result.responsibilities, direct.responsibilities)
                assert result.log_likelihood == direct.log_likelihood
                assert result.n_iterations == direct.n_iterations

    def test_warm_init_changes_the_content_address(
        self, random_affinity, tmp_path, cache_label, cache_counts
    ):
        """A warm fit may settle in another optimum than a cold one, so
        it is stored under its own key: it never replays the cold fit,
        and a second cold fit does."""
        config = HierarchicalConfig(n_classes=2, seed=0)
        cache = ArtifactCache(str(tmp_path))
        cache.tenant = cache_label
        engine = InferenceEngine(config, n_jobs=2, cache=cache)
        cold = engine.fit(random_affinity)
        engine.fit(random_affinity, warm_start=engine.state)
        assert cache_counts(cache).misses == {"inference": 2}
        replay = InferenceEngine(config, n_jobs=2, cache=cache).fit(random_affinity)
        assert cache_counts(cache).hits == {"inference": 1}
        np.testing.assert_array_equal(replay.posterior, cold.posterior)

    def test_extraction_shards_cut_at_serial_chunk_boundaries(self, vgg, tiny_images):
        """The pool runs exactly the serial chunks, in corpus order, and
        cuts them the same way every time."""
        for batch_size in (2, 3):
            expected = list(iter_batches(tiny_images.shape[0], batch_size))
            for _ in range(2):
                with RecordingPool(2) as pool:
                    extract_pool_features(vgg, tiny_images, (1,), batch_size=batch_size, executor=pool)
                assert pool.items == [expected]
        assert expected == [slice(0, 3), slice(3, 4)]

    def test_extraction_shards_dedup_identical_chunks(self, vgg):
        """A corpus of one chunk twice: each slot holds that chunk's
        features, bit for bit."""
        tile = np.full((2, 3, 32, 32), 0.25)
        images = np.concatenate([tile, tile], axis=0)
        alone = extract_pool_features(vgg, tile, layers=(1,))
        with tile_executor(2) as pool:
            merged = extract_pool_features(vgg, images, layers=(1,), batch_size=2, executor=pool)
        np.testing.assert_array_equal(merged[1][:2], alone[1])
        np.testing.assert_array_equal(merged[1][2:], alone[1])

    def test_extraction_shard_matches_serial_chunk(self, vgg, tiny_images):
        """One chunk extracted alone equals its rows of the whole-corpus
        pass: every backbone layer is per-sample independent."""
        whole = extract_pool_features(vgg, tiny_images, layers=(1, 2))
        chunk = extract_pool_features(vgg, tiny_images[2:4], layers=(1, 2))
        for layer in (1, 2):
            np.testing.assert_array_equal(chunk[layer], whole[layer][2:4])

    def test_extraction_content_address_covers_model_and_layers(self, vgg, tiny_images, tmp_path):
        def key(model: VGG16, layers: tuple[int, ...]) -> str | None:
            source = PrototypeAffinitySource(model, top_z=2, layers=layers)
            engine = AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path), n_jobs=2))
            engine.build(tiny_images)
            return engine.state_key

        base = key(vgg, (1,))
        assert base is not None and base == key(vgg, (1,))
        assert base != key(vgg, (1, 2))
        assert base != key(VGG16(VGGConfig(seed=1)), (1,))


# ----------------------------------------------------------------------
# The pool as a whole: each stage fanned over n_jobs threads
# ----------------------------------------------------------------------
class TestCluster:
    def test_best_similarities_bit_identical(self, sim_data):
        protos, vectors = sim_data
        with tile_executor(2) as pool:
            out = best_similarities(protos, vectors, row_tile=4, executor=pool)
        np.testing.assert_array_equal(out, best_similarities(protos, vectors, row_tile=None))

    def test_float32_table_bit_identical(self, sim_data):
        """Float32 tiles on the pool assemble the serial float32 table
        bit for bit, into a float64 table by default or a float32 one."""
        protos, vectors = sim_data
        with tile_executor(2) as pool:
            dense = best_similarities(protos, vectors, row_tile=4, executor=pool, dtype=np.float32)
            stored = best_similarities(
                protos, vectors, row_tile=4, executor=pool, dtype=np.float32, out_dtype=np.float32
            )
        assert dense.dtype == np.float64 and stored.dtype == np.float32
        serial = {"row_tile": None, "dtype": np.float32}
        np.testing.assert_array_equal(dense, best_similarities(protos, vectors, **serial))
        serial_stored = best_similarities(protos, vectors, out_dtype=np.float32, **serial)
        np.testing.assert_array_equal(stored, serial_stored)

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_posterior_identical_any_worker_count(self, random_affinity, small_surface_affinity, n_jobs):
        config = HierarchicalConfig(n_classes=2, seed=0)
        for affinity in (random_affinity, small_surface_affinity):
            serial = InferenceEngine(config).fit(affinity)
            pooled = InferenceEngine(config, n_jobs=n_jobs).fit(affinity)
            np.testing.assert_array_equal(pooled.posterior, serial.posterior)
            np.testing.assert_array_equal(pooled.label_predictions, serial.label_predictions)
            assert [r.n_iterations for r in pooled.base_results] == [
                r.n_iterations for r in serial.base_results
            ]

    def test_shared_cache_short_circuits_rerun(self, vgg, small_surface, tmp_path, monkeypatch):
        """A second run over the same cache directory is served from it:
        no forward pass and no base fit runs, and the labels are equal."""
        images = small_surface.images
        dev = small_surface.sample_dev_set(per_class=3, seed=0)
        config = GogglesConfig(n_classes=2, seed=0, top_z=3, layers=(1, 2), n_jobs=2, cache_dir=str(tmp_path))
        first = Goggles(config, model=vgg).label(images, dev)

        def recompute(*args, **kwargs):
            raise AssertionError("a cached rerun recomputed a stage")

        monkeypatch.setattr(vgg, "forward_pools", recompute)
        monkeypatch.setattr("repro.engine.inference.fit_all_base_functions", recompute)
        second = Goggles(config, model=vgg).label(images, dev)
        np.testing.assert_array_equal(second.affinity.values, first.affinity.values)
        np.testing.assert_array_equal(second.probabilistic_labels, first.probabilistic_labels)

    def test_extract_pool_features_bit_identical_with_strides(self, vgg, tiny_images):
        """Pool extraction reproduces the serial pool features exactly —
        values *and* memory layout, because the downstream similarity
        GEMM rounds by operand strides."""
        serial = extract_pool_features(vgg, tiny_images, layers=(1, 2), batch_size=2)
        with tile_executor(2) as pool:
            merged = extract_pool_features(vgg, tiny_images, layers=(1, 2), batch_size=2, executor=pool)
        for layer in (1, 2):
            np.testing.assert_array_equal(merged[layer], serial[layer])
            assert merged[layer].strides == serial[layer].strides

    def test_poison_shard_raises_clear_error_instead_of_hanging(self, random_affinity):
        """A base fit that always fails (a 1-D block) raises its own
        error on the caller within the bound; the pool does not hang."""

        class OneBadBlock:
            n_functions = random_affinity.n_functions
            n_examples = random_affinity.n_examples

            def block(self, f: int) -> np.ndarray:
                return np.ones(7) if f == 1 else random_affinity.block(f)

        outcome: dict = {}

        def run() -> None:
            try:
                fit_all_base_functions(OneBadBlock(), HierarchicalConfig(n_classes=2, seed=0), n_jobs=2)
            except ValueError as error:
                outcome["error"] = error

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(RUN_SECONDS)
        assert not caller.is_alive(), f"a failing fit still running after {RUN_SECONDS} s"
        assert "ndim=2" in str(outcome["error"])


# ----------------------------------------------------------------------
# End-to-end through Goggles
# ----------------------------------------------------------------------
def _prefix_dev(dataset, n_prefix: int, per_class: int, seed: int = 0) -> DevSet:
    rng = np.random.default_rng(seed)
    indices: list[int] = []
    for c in range(dataset.n_classes):
        pool = np.flatnonzero(dataset.labels[:n_prefix] == c)
        indices.extend(rng.choice(pool, size=per_class, replace=False).tolist())
    chosen = np.array(sorted(indices))
    return DevSet(indices=chosen, labels=dataset.labels[chosen])


class TestEndToEnd:
    # row_tile=8 forces several similarity tiles and batch_size=8
    # several extraction chunks on the 24-image corpus, so the pool
    # runs every stage.
    CONFIG = GogglesConfig(
        n_classes=2, seed=0, top_z=3, layers=(1, 2), engine=EngineConfig(row_tile=8, batch_size=8)
    )

    def _at(self, n_jobs: int) -> GogglesConfig:
        return replace(self.CONFIG, engine=replace(self.CONFIG.engine, n_jobs=n_jobs))

    def test_goggles_distributed_bit_identical_to_serial(self, vgg, small_surface):
        images = small_surface.images
        n0 = images.shape[0] - 6
        dev = _prefix_dev(small_surface, n0, per_class=3)

        serial = Goggles(self._at(1), model=vgg)
        serial_full = serial.label(images[:n0], dev)
        serial_inc = serial.label_incremental(images[n0:], dev)

        pooled = Goggles(self._at(2), model=vgg)
        pooled_full = pooled.label(images[:n0], dev)
        pooled_inc = pooled.label_incremental(images[n0:], dev)

        # Build, incremental extension, and warm-started inference all
        # run on the pool — and all match serial exactly.
        np.testing.assert_array_equal(pooled_full.affinity.values, serial_full.affinity.values)
        np.testing.assert_array_equal(pooled_full.probabilistic_labels, serial_full.probabilistic_labels)
        np.testing.assert_array_equal(pooled_inc.affinity.values, serial_inc.affinity.values)
        np.testing.assert_array_equal(pooled_inc.probabilistic_labels, serial_inc.probabilistic_labels)

    def test_sparse_build_bit_identical_to_local(self, vgg, small_surface):
        """The sparse path keeps similarities in float32: pooled float32
        tiles assemble a float32 table with no cast, and every top-k
        block equals a serial build's."""

        def sparse(n_jobs: int):
            config = self._at(n_jobs)
            config = replace(config, engine=replace(config.engine, affinity_mode="sparse"))
            return Goggles(config, model=vgg).build_affinity_matrix(small_surface.images)

        local, pooled = sparse(1), sparse(2)
        assert pooled.data.dtype == np.float32
        for name in ("data", "indices", "fill"):
            np.testing.assert_array_equal(getattr(pooled, name), getattr(local, name))

    def test_trace_id_propagates_to_thread_worker_spans(self, vgg, small_surface):
        """A submission's trace id reaches the spans the service's worker
        thread records while it labels the batch on the pool."""
        images = small_surface.images
        n0 = images.shape[0] - 6
        dev = _prefix_dev(small_surface, n0, per_class=3)
        service = LabelingService(Goggles(self._at(2), model=vgg), dev, registry=MetricsRegistry())
        trace_id = new_trace_id()
        try:
            service.start(images[:n0])
            ticket = service.submit(images[n0:], trace_id=trace_id)
            assert service.result(ticket, timeout=RUN_SECONDS).done
        finally:
            service.stop()
        records = recent_spans(trace_id=trace_id)
        names = {r.name for r in records}
        assert {"service.batch", "label_incremental", "engine.extend", "inference.fit"} <= names
        assert all(r.outcome == "ok" for r in records)

    def test_compute_affinity_matches_legacy_kernel(self, vgg, tiny_images):
        """Pooled similarity equals the legacy whole-corpus kernel
        through the engine path."""
        legacy = compute_affinity_matrix(vgg, tiny_images, top_z=2, layers=(1,))
        engine = EngineConfig(row_tile=2, batch_size=2, n_jobs=2, precision="float64")
        config = GogglesConfig(n_classes=2, seed=0, top_z=2, layers=(1,), engine=engine)
        built = Goggles(config, model=vgg).build_affinity_matrix(tiny_images)
        np.testing.assert_allclose(built.values, legacy.values, atol=1e-12)

    def test_out_of_range_layer_rejected_before_any_shard(self, vgg, monkeypatch):
        """A bad layer fails where the source is built, before any
        forward pass is scheduled on the pool."""
        calls: list = []
        monkeypatch.setattr(vgg, "forward_pools", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=r"layer 7 out of range \[0, 5\)"):
            Goggles(GogglesConfig(layers=(7,), n_jobs=2), model=vgg)
        assert calls == []
