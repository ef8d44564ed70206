"""Tests for the distributed shard runtime (queue, planner, cluster).

Three contracts matter:

* **Fault tolerance** — a worker that dies mid-shard (lease expiry or
  disconnect) loses nothing: the shard is reassigned, and a shard that
  keeps failing surfaces a clear :class:`PoisonShardError` instead of
  hanging the cluster.
* **Bit-identity** — the merged affinity matrix and posteriors equal
  the serial path exactly (atol=0), regardless of worker count (1, 2,
  4) or whether workers are threads or ``goggles-repro worker``
  processes, because shards are content-addressed pure tasks cut at the
  serial tile boundaries with per-function seed streams.
* **Cache short-circuiting** — with a shared artifact cache mounted, a
  rerun of known content never recomputes (or even enqueues) a shard.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from multiprocessing.connection import Client
from typing import Iterator

import numpy as np
import pytest
from local_workers import process_workers, thread_workers
from reference_affinity import compute_affinity_matrix

from repro.core import Goggles, GogglesConfig
from repro.core.affinity import AffinityMatrix
from repro.core.inference.hierarchical import HierarchicalConfig, fit_all_base_functions
from repro.datasets import make_dataset
from repro.datasets.base import DevSet
from repro.distributed import (
    Broker,
    Coordinator,
    DistributedConfig,
    PoisonShardError,
    ShardPlanner,
    TaskQueue,
    Worker,
    base_fit_task,
    execute_shard,
    parse_address,
    similarity_task,
)
from repro.engine import ArtifactCache, EngineConfig, InferenceEngine
from repro.engine.tiling import best_similarities, tile_bounds
from repro.obs import MetricsRegistry, default_registry
from repro.utils.rng import derive_seed


@contextmanager
def thread_cluster(n_workers: int, **overrides: object) -> Iterator[Coordinator]:
    """A localhost coordinator with ``n_workers`` in-process (thread)
    workers: cheap and fast, but still exercising the full lease
    protocol over TCP.  ``stream_threshold``/``frame_bytes`` configure
    the workers, the other ``overrides`` the :class:`DistributedConfig`.
    Each cluster counts into its own registry, so its counts are exact;
    on exit the workers stop and the coordinator closes."""
    worker_names = ("stream_threshold", "frame_bytes")
    worker_options = {name: overrides.pop(name) for name in worker_names if name in overrides}
    config = DistributedConfig(**{"lease_timeout": 10.0, "run_timeout": 120.0, **overrides})
    with Coordinator(config, registry=MetricsRegistry()) as coordinator, thread_workers(
        coordinator, n_workers, **worker_options
    ):
        yield coordinator


def counted(coordinator: Coordinator, name: str, **labels: object) -> int:
    """A family's total (or one labeled series) in the session registry."""
    family = coordinator.registry.get(name)
    return int(family.value(**labels) if labels else family.total())


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


def make_task(index: int = 0):
    return similarity_task(np.full((2, 3), float(index)), np.ones((2, 3, 2)) * (index + 1))


# ----------------------------------------------------------------------
# TaskQueue: leases, retries, poison
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTaskQueue:
    def test_lease_complete_roundtrip(self):
        queue = TaskQueue()
        task = make_task()
        assert queue.add(task)
        assert not queue.add(task)  # content-addressed dedup
        leased = queue.lease("w1")
        assert leased is not None and leased.task_id == task.task_id
        assert queue.lease("w2") is None  # nothing else pending
        assert queue.complete(task.task_id, "w1", {"best": np.zeros(1)})
        assert queue.wait([task.task_id], timeout=0.1)
        assert queue.result(task.task_id) is not None

    def test_expired_lease_is_reassigned(self):
        clock = FakeClock()
        queue = TaskQueue(lease_timeout=5.0, max_attempts=3, clock=clock, registry=MetricsRegistry())
        task = make_task()
        queue.add(task)
        assert queue.lease("dead") is not None
        clock.now = 4.0
        assert queue.lease("w2") is None  # lease still live
        clock.now = 6.0
        reassigned = queue.lease("w2")
        assert reassigned is not None and reassigned.task_id == task.task_id
        assert queue.stats()["requeued"] == 1

    def test_retry_budget_poisons(self):
        clock = FakeClock()
        queue = TaskQueue(lease_timeout=1.0, max_attempts=2, clock=clock)
        task = make_task()
        queue.add(task)
        queue.lease("w1")
        queue.fail(task.task_id, "w1", "boom 1")
        queue.lease("w1")
        queue.fail(task.task_id, "w1", "boom 2")
        assert queue.lease("w1") is None  # poisoned, not requeued
        poisoned = queue.poisoned_among([task.task_id])
        assert len(poisoned) == 1
        assert poisoned[0].attempts == 2
        assert "boom 2" in poisoned[0].errors[-1]
        # wait() returns promptly on poison rather than hanging.
        assert queue.wait([task.task_id], timeout=5.0)

    def test_stale_fail_from_expired_lease_ignored(self):
        clock = FakeClock()
        queue = TaskQueue(lease_timeout=1.0, max_attempts=2, clock=clock, registry=MetricsRegistry())
        task = make_task()
        queue.add(task)
        queue.lease("slow")
        clock.now = 2.0
        assert queue.lease("w2") is not None  # reassigned
        queue.fail(task.task_id, "slow", "late failure")  # stale: not the leaseholder
        assert queue.stats()["failed"] == 0
        # The current holder can still complete.
        assert queue.complete(task.task_id, "w2", {"best": np.zeros(1)})

    def test_late_duplicate_complete_ignored(self):
        queue = TaskQueue()
        task = make_task()
        queue.add(task)
        queue.lease("w1")
        assert queue.complete(task.task_id, "w1", {"best": np.zeros(1)})
        assert not queue.complete(task.task_id, "w2", {"best": np.ones(1)})
        assert np.array_equal(queue.result(task.task_id)["best"], np.zeros(1))

    def test_release_worker_requeues_all_its_leases(self):
        queue = TaskQueue(max_attempts=3)
        tasks = [make_task(i) for i in range(3)]
        for task in tasks:
            queue.add(task)
        assert queue.lease("crashed") is not None
        assert queue.lease("crashed") is not None
        assert queue.lease("alive") is not None
        assert queue.release_worker("crashed") == 2
        # Both shards are pending again for the surviving worker.
        assert queue.lease("alive") is not None
        assert queue.lease("alive") is not None

    def test_forget_drops_all_traces(self):
        queue = TaskQueue()
        task = make_task()
        queue.add(task)
        queue.lease("w1")
        queue.complete(task.task_id, "w1", {"best": np.zeros(1)})
        queue.forget([task.task_id])
        assert queue.result(task.task_id) is None
        assert queue.add(task)  # re-addable after forget


# ----------------------------------------------------------------------
# Per-shard timelines and straggler detection
# ----------------------------------------------------------------------
class TestShardTimelines:
    def test_queue_wait_compute_transfer_decomposition(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        queue = TaskQueue(lease_timeout=60.0, clock=clock, registry=registry)
        task = make_task()
        queue.add(task)  # enqueued at t=0
        clock.now = 2.0
        assert queue.lease("w1") is not None  # waited 2s in the queue
        clock.now = 5.0  # 3s lease-to-report, of which 1s was compute
        assert queue.complete(task.task_id, "w1", {"best": np.zeros(1)}, seconds=1.0)
        kind = task.kind
        assert registry.get("goggles_shard_queue_wait_seconds").sum(kind=kind) == pytest.approx(2.0)
        assert registry.get("goggles_shard_compute_seconds").sum(kind=kind) == pytest.approx(1.0)
        assert registry.get("goggles_shard_transfer_seconds").sum(kind=kind) == pytest.approx(2.0)
        assert registry.get("goggles_coordinator_shards_completed_total").value(kind=kind) == 1

    def test_requeue_restarts_the_wait_clock(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        queue = TaskQueue(lease_timeout=1.0, max_attempts=3, clock=clock, registry=registry)
        task = make_task()
        queue.add(task)
        assert queue.lease("dead") is not None  # waits 0s
        clock.now = 10.0  # lease expires; requeued at t=10 by the reap
        assert queue.lease("w2") is not None
        wait = registry.get("goggles_shard_queue_wait_seconds")
        # Two grants: 0s for the first, ~0s for the second (requeue at
        # reap time) — not the 10s the shard existed.
        assert wait.count(kind=task.kind) == 2
        assert wait.sum(kind=task.kind) == pytest.approx(0.0)

    def test_straggler_detected_against_prior_estimate(self, caplog):
        import logging

        registry = MetricsRegistry()
        queue = TaskQueue(
            registry=registry, straggler_factor=4.0, straggler_min_seconds=0.05
        )
        kind = None
        # Calibrate the EWMA with healthy shards well above the floor.
        for index in range(4):
            task = make_task(index)
            kind = task.kind
            queue.add(task)
            queue.lease("w1")
            queue.complete(task.task_id, "w1", {"best": np.zeros(1)}, seconds=0.1)
        assert queue.stats()["stragglers"] == 0
        slow = make_task(99)
        queue.add(slow)
        queue.lease("w-sick")
        with caplog.at_level(logging.WARNING, logger="repro.distributed.queue"):
            queue.complete(slow.task_id, "w-sick", {"best": np.zeros(1)}, seconds=5.0)
        assert registry.get("goggles_stragglers_total").value(kind=kind) == 1
        assert queue.stats()["stragglers"] == 1
        assert any(
            "straggler" in record.message and "w-sick" in record.getMessage()
            for record in caplog.records
        )

    def test_straggler_does_not_raise_its_own_threshold(self):
        registry = MetricsRegistry()
        queue = TaskQueue(registry=registry, straggler_factor=4.0)
        first = make_task(0)
        queue.add(first)
        queue.lease("w1")
        # First-ever measurement: no prior estimate, never a straggler.
        queue.complete(first.task_id, "w1", {"best": np.zeros(1)}, seconds=50.0)
        assert queue.stats()["stragglers"] == 0

    def test_micro_shard_jitter_below_floor_is_not_a_straggler(self):
        queue = TaskQueue(
            registry=MetricsRegistry(), straggler_factor=2.0, straggler_min_seconds=0.5
        )
        for index, seconds in enumerate((0.001, 0.001, 0.02)):
            task = make_task(index)
            queue.add(task)
            queue.lease("w1")
            # 0.02s is 20x the EWMA but under the absolute floor.
            queue.complete(task.task_id, "w1", {"best": np.zeros(1)}, seconds=seconds)
        assert queue.stats()["stragglers"] == 0


# ----------------------------------------------------------------------
# Planner and task execution (no cluster)
# ----------------------------------------------------------------------
class TestPlannerAndTasks:
    def test_similarity_shards_merge_bit_identical(self, sim_data):
        protos, vectors = sim_data
        planner = ShardPlanner(row_tile=4, col_tile=6)
        tasks, targets = planner.similarity_shards(protos, vectors)
        assert len(tasks) >= 6  # 3 row tiles x 3 col tiles, minus dedup
        out = np.empty((protos.shape[0], vectors.shape[0]))
        for task in tasks:
            best = execute_shard(task)["best"]
            for (i0, i1), (j0, j1) in targets[task.task_id]:
                out[j0:j1, i0:i1] = best
        expected = best_similarities(protos, vectors, row_tile=4, col_tile=6)
        np.testing.assert_array_equal(out, expected)

    def test_float32_shards_match_serial_float32(self, sim_data):
        protos, vectors = sim_data
        planner = ShardPlanner(row_tile=4, col_tile=None)
        tasks, targets = planner.similarity_shards(protos, vectors, dtype=np.float32)
        out = np.empty((protos.shape[0], vectors.shape[0]))
        for task in tasks:
            assert task.payload["prototypes"].dtype == np.float32
            best = execute_shard(task)["best"]
            for (i0, i1), (j0, j1) in targets[task.task_id]:
                out[j0:j1, i0:i1] = best
        expected = best_similarities(protos, vectors, row_tile=4, dtype=np.float32)
        np.testing.assert_array_equal(out, expected)

    def test_similarity_shard_returns_the_compute_dtype(self, sim_data):
        """A float32 shard ships a float32 block: a max is exact, so it
        holds the local float32 kernel's values at half the bytes."""
        protos, vectors = sim_data
        p32, v32 = protos.astype(np.float32), vectors.astype(np.float32)
        best = execute_shard(similarity_task(p32, v32))["best"]
        assert best.dtype == np.float32
        expected = best_similarities(p32, v32, row_tile=None, dtype=np.float32, out_dtype=np.float32)
        np.testing.assert_array_equal(best, expected)

    def test_similarity_shards_cut_balanced_column_tiles(self, sim_data):
        """The planner cuts the prototype-row axis like the local kernel:
        balanced tiles, so 17 rows at ``col_tile=4`` leave no one-row tile."""
        protos, vectors = sim_data
        _, targets = ShardPlanner(row_tile=None, col_tile=4).similarity_shards(protos, vectors)
        cols = sorted(cols for slots in targets.values() for _, cols in slots)
        assert cols == tile_bounds(protos.shape[0], 4)
        assert min(j1 - j0 for j0, j1 in cols) > 1

    def test_content_addressing_is_stable_and_dedups(self):
        protos = np.arange(12, dtype=np.float64).reshape(4, 3)
        tile = np.ones((2, 3, 2))
        vectors = np.concatenate([tile, tile], axis=0)  # two identical tiles
        planner = ShardPlanner(row_tile=2, col_tile=None)
        tasks, targets = planner.similarity_shards(protos, vectors)
        assert len(tasks) == 1  # identical content collapsed
        assert len(targets[tasks[0].task_id]) == 2  # ...but fills both slots
        again, _ = planner.similarity_shards(protos, vectors)
        assert again[0].task_id == tasks[0].task_id  # stable address

    def test_base_fit_shard_matches_direct_fit(self, random_affinity, small_surface_affinity):
        """A shard fits a contiguous copy of the block, the direct fit its
        strided view of the whole matrix: every function must agree, on
        a random matrix and on a real one (values near 1, tiny variances)."""
        from repro.core.inference.hierarchical import fit_base_function

        config = HierarchicalConfig(n_classes=2, seed=0)
        for affinity in (random_affinity, small_surface_affinity):
            for f in range(affinity.n_functions):
                result = execute_shard(base_fit_task(affinity.block(f), config, f))
                direct = fit_base_function(affinity.block(f), config, f)
                np.testing.assert_array_equal(result["responsibilities"], direct.responsibilities)
                assert float(result["log_likelihood"]) == direct.log_likelihood
                assert int(result["n_iterations"]) == direct.n_iterations

    def test_warm_init_changes_the_content_address(self, random_affinity):
        config = HierarchicalConfig(n_classes=2, seed=0)
        cold = base_fit_task(random_affinity.block(0), config, 0)
        init = np.full((random_affinity.n_examples, 2), 0.5)
        warm = base_fit_task(random_affinity.block(0), config, 0, init=init)
        assert cold.task_id != warm.task_id

    def test_shard_results_cache_roundtrip(self, sim_data, tmp_path, cache_label, cache_counts):
        protos, vectors = sim_data
        cache = ArtifactCache(str(tmp_path))
        cache.tenant = cache_label
        task = similarity_task(protos, vectors)
        first = execute_shard(task, cache=cache)
        assert cache.has("shard", task.task_id)
        again = execute_shard(task, cache=cache)
        np.testing.assert_array_equal(first["best"], again["best"])
        assert cache_counts(cache).hits.get("shard") == 1

    def test_extraction_shards_cut_at_serial_chunk_boundaries(self, vgg, tiny_images):
        planner = ShardPlanner()
        tasks, order = planner.extraction_shards(vgg.config, tiny_images, (1,), batch_size=2)
        assert len(order) == 2  # ceil(4 / 2) chunks, in corpus order
        assert [task.task_id for task in tasks] == order
        again, _ = planner.extraction_shards(vgg.config, tiny_images, (1,), batch_size=2)
        assert [task.task_id for task in again] == order  # stable addresses

    def test_extraction_shards_dedup_identical_chunks(self, vgg):
        tile = np.full((2, 3, 32, 32), 0.25)
        images = np.concatenate([tile, tile], axis=0)
        planner = ShardPlanner()
        tasks, order = planner.extraction_shards(vgg.config, images, (1,), batch_size=2)
        assert len(tasks) == 1  # identical content collapsed...
        assert order == [tasks[0].task_id] * 2  # ...but fills both slots

    def test_extraction_shard_matches_serial_chunk(self, vgg, tiny_images):
        from repro.distributed import extraction_task
        from repro.engine.features import extract_pool_features

        task = extraction_task(vgg.config, tiny_images, (1, 2))
        result = execute_shard(task)
        serial = extract_pool_features(vgg, tiny_images, layers=(1, 2))
        for layer in (1, 2):
            shipped = result[f"pool_{layer}"]
            if bool(result[f"channels_last_{layer}"]):
                shipped = shipped.transpose(0, 3, 1, 2)
            np.testing.assert_array_equal(shipped, serial[layer])

    def test_extraction_content_address_covers_model_and_layers(self, vgg, tiny_images):
        from repro.distributed import extraction_task
        from repro.nn.vgg import VGGConfig

        base = extraction_task(vgg.config, tiny_images, (1,))
        assert base.task_id == extraction_task(vgg.config, tiny_images, (1,)).task_id
        assert base.task_id != extraction_task(vgg.config, tiny_images, (1, 2)).task_id
        assert base.task_id != extraction_task(VGGConfig(seed=1), tiny_images, (1,)).task_id

    def test_parse_address(self):
        assert parse_address("10.0.0.1:41817") == ("10.0.0.1", 41817)
        with pytest.raises(ValueError):
            parse_address("no-port")
        with pytest.raises(ValueError):
            parse_address(":123")

    def test_default_authkey_refused_on_routable_bind(self):
        """Pickle rides on the authkey handshake, so a routable endpoint
        must never be 'secured' by the public built-in default."""
        from repro.distributed import DEFAULT_AUTHKEY, require_safe_authkey

        require_safe_authkey("127.0.0.1", DEFAULT_AUTHKEY)  # loopback: fine
        require_safe_authkey("10.1.2.3", "a-real-secret")  # real key: fine
        with pytest.raises(ValueError, match="authkey"):
            require_safe_authkey("10.1.2.3", DEFAULT_AUTHKEY)
        coordinator = Coordinator(DistributedConfig(bind="0.0.0.0:0", authkey=DEFAULT_AUTHKEY))
        with pytest.raises(ValueError, match="authkey"):
            coordinator.start()


# ----------------------------------------------------------------------
# Coordinator + workers over the real protocol (thread workers)
# ----------------------------------------------------------------------
class TestBrokerShutdown:
    def test_close_with_idle_client_is_prompt_and_joins_threads(self):
        """A connected worker that never sends anything must not stall
        close(): the accept and handler threads both wake and exit."""
        broker = Broker(TaskQueue())
        client = Client(broker.address, authkey=b"goggles-repro")
        try:
            deadline = time.monotonic() + 5.0
            while not broker._handlers:
                assert time.monotonic() < deadline, "connection never accepted"
                time.sleep(0.01)
            threads = [broker._accept_thread, *broker._handlers]
            assert [t.name for t in threads] == ["goggles-broker-accept", "goggles-broker-conn-1"]
            started = time.monotonic()
            broker.close()
            assert time.monotonic() - started < 0.5
            assert [t.name for t in threads if t.is_alive()] == []
        finally:
            client.close()


class TestCluster:
    def test_best_similarities_bit_identical(self, sim_data):
        protos, vectors = sim_data
        with thread_cluster(2) as coordinator:
            out = coordinator.best_similarities(protos, vectors, row_tile=4, col_tile=6)
        expected = best_similarities(protos, vectors, row_tile=4, col_tile=6)
        np.testing.assert_array_equal(out, expected)

    def test_float32_table_bit_identical(self, sim_data):
        """Float32 shards assemble the local kernel's float32 table bit for
        bit, into a float64 table by default or a float32 one."""
        protos, vectors = sim_data
        tiles = {"row_tile": 4, "col_tile": 6, "dtype": np.float32}
        with thread_cluster(2) as coordinator:
            dense = coordinator.best_similarities(protos, vectors, **tiles)
            stored = coordinator.best_similarities(protos, vectors, out_dtype=np.float32, **tiles)
        assert dense.dtype == np.float64 and stored.dtype == np.float32
        np.testing.assert_array_equal(dense, best_similarities(protos, vectors, **tiles))
        np.testing.assert_array_equal(stored, best_similarities(protos, vectors, out_dtype=np.float32, **tiles))

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_posterior_identical_any_worker_count(self, random_affinity, small_surface_affinity, n_workers):
        config = HierarchicalConfig(n_classes=2, seed=0)
        for affinity in (random_affinity, small_surface_affinity):
            serial = InferenceEngine(config).fit(affinity)
            with thread_cluster(n_workers) as coordinator:
                engine = InferenceEngine(config, coordinator=coordinator)
                distributed = engine.fit(affinity)
            np.testing.assert_array_equal(distributed.posterior, serial.posterior)
            np.testing.assert_array_equal(distributed.label_predictions, serial.label_predictions)
            assert [r.n_iterations for r in distributed.base_results] == [
                r.n_iterations for r in serial.base_results
            ]

    def test_shared_cache_short_circuits_rerun(self, sim_data, tmp_path):
        protos, vectors = sim_data
        cache = ArtifactCache(str(tmp_path))
        with thread_cluster(0) as coordinator, thread_workers(coordinator, 1, cache=cache):
            coordinator.cache = cache
            first = coordinator.best_similarities(protos, vectors, row_tile=4)
            planned = counted(coordinator, "goggles_coordinator_shards_planned_total")
            assert planned > 0
            second = coordinator.best_similarities(protos, vectors, row_tile=4)
            assert counted(coordinator, "goggles_coordinator_shard_cache_hits_total") == planned
            # Nothing re-enqueued.
            assert counted(coordinator, "goggles_coordinator_shards_planned_total") == planned
        np.testing.assert_array_equal(first, second)

    def test_extract_pool_features_bit_identical_with_strides(self, vgg, tiny_images):
        """Distributed extraction reproduces the serial pool features
        exactly — values *and* memory layout, because the downstream
        similarity GEMM rounds by operand strides."""
        from repro.engine.features import extract_pool_features

        serial = extract_pool_features(vgg, tiny_images, layers=(1, 2), batch_size=2)
        with thread_cluster(2) as coordinator:
            merged = coordinator.extract_pool_features(vgg.config, tiny_images, layers=(1, 2), batch_size=2)
        for layer in (1, 2):
            np.testing.assert_array_equal(merged[layer], serial[layer])
            assert merged[layer].strides == serial[layer].strides

    def test_streamed_results_bit_identical(self, sim_data):
        """stream_threshold=0 forces every result through the framed
        path; the merged output is still exact and the broker counts
        the reassemblies."""
        protos, vectors = sim_data
        with thread_cluster(2, stream_threshold=0, frame_bytes=256) as coordinator:
            out = coordinator.best_similarities(protos, vectors, row_tile=4, col_tile=6)
            assert counted(coordinator, "goggles_broker_streamed_results_total") > 0
            assert counted(coordinator, "goggles_broker_stream_errors_total") == 0
        expected = best_similarities(protos, vectors, row_tile=4, col_tile=6)
        np.testing.assert_array_equal(out, expected)

    def test_small_results_keep_single_message_path(self, sim_data):
        protos, vectors = sim_data
        with thread_cluster(1, stream_threshold=1 << 30) as coordinator:
            out = coordinator.best_similarities(protos, vectors, row_tile=4)
            assert counted(coordinator, "goggles_broker_streamed_results_total") == 0
        np.testing.assert_array_equal(out, best_similarities(protos, vectors, row_tile=4))

    def test_mid_stream_disconnect_discards_partial_frames(self, sim_data):
        """A worker that dies halfway through streaming a result loses
        nothing and corrupts nothing: its partial frames are discarded
        with the connection, the lease is reassigned, and the healthy
        completion is still bit-identical."""
        protos, vectors = sim_data
        with thread_cluster(0, lease_timeout=30.0) as coordinator:
            coordinator.start()
            outcome: dict = {}

            def run() -> None:
                outcome["out"] = coordinator.best_similarities(protos, vectors, row_tile=4, col_tile=6)

            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            deadline = time.monotonic() + 10.0
            while coordinator.queue.stats()["pending"] == 0:
                assert time.monotonic() < deadline, "shards never enqueued"
                time.sleep(0.01)
            # The doomed worker leases a shard and dies mid-stream:
            # header and one frame sent, then the connection drops.
            doomed = Client(coordinator.address, authkey=coordinator.config.authkey.encode())
            doomed.send(("lease_many", "doomed", 1))
            op, [task] = doomed.recv()
            assert op == "tasks"
            task_id = task.task_id
            doomed.send(("result-begin", "doomed", task_id, 4, 512))
            doomed.send(("frame", "doomed", task_id, 0, b"x" * 128))
            doomed.close()
            worker = Worker(
                coordinator.address,
                coordinator.config.authkey,
                poll_interval=0.01,
                stream_threshold=0,
                frame_bytes=128,
                registry=coordinator.registry,
            )
            rescuer = threading.Thread(target=worker.run, daemon=True)
            rescuer.start()
            runner.join(timeout=60.0)
            assert not runner.is_alive(), "distributed run did not finish"
            worker.stop()
            stats = coordinator.queue.stats()
            assert stats["requeued"] >= 1  # the dropped lease came back
            # The rescue used the framed path.
            assert counted(
                coordinator, "goggles_worker_results_streamed_total", worker=worker.worker_id
            ) > 0
            # Partial frames never reached the queue as a completion.
            assert counted(coordinator, "goggles_broker_stream_errors_total") == 0
            expected = best_similarities(protos, vectors, row_tile=4, col_tile=6)
            np.testing.assert_array_equal(outcome["out"], expected)

    def test_malformed_stream_is_a_shard_failure_not_a_completion(self):
        """Length mismatches and orphan result-ends burn a retry via
        queue.fail instead of completing a shard with garbage."""
        with thread_cluster(0, lease_timeout=30.0) as coordinator:
            coordinator.start()
            task = make_task()
            coordinator.queue.add(task)
            conn = Client(coordinator.address, authkey=coordinator.config.authkey.encode())
            conn.send(("lease_many", "liar", 1))
            reply = conn.recv()
            assert reply[0] == "tasks"
            # Claim 2 frames / 100 bytes, deliver one short frame.
            conn.send(("result-begin", "liar", task.task_id, 2, 100))
            conn.send(("frame", "liar", task.task_id, 0, b"short"))
            conn.send(("result-end", "liar", task.task_id, 0.01))
            reply = conn.recv()
            assert reply[0] == "error"
            assert coordinator.queue.stats()["failed"] == 1
            assert counted(coordinator, "goggles_broker_stream_errors_total") == 1
            # An orphan result-end (no begin) is likewise a failure.
            conn.send(("lease_many", "liar", 1))
            reply = conn.recv()  # the requeued shard comes back
            assert reply[0] == "tasks"
            conn.send(("result-end", "liar", task.task_id, 0.01))
            reply = conn.recv()
            assert reply[0] == "error"
            assert coordinator.queue.stats()["failed"] == 2
            # A correct batched completion still lands.
            conn.send(("lease_many", "liar", 1))
            reply = conn.recv()
            assert reply[0] == "tasks"
            conn.send(("report_many", "liar", [(task.task_id, {"best": np.zeros((2, 2))}, 0.01)]))
            assert conn.recv() == ("ok", 1)
            assert coordinator.queue.result(task.task_id) is not None
            conn.send(("bye", "liar"))
            conn.close()

    def test_worker_crash_mid_shard_triggers_reassignment(self, sim_data):
        """A connection that leases a shard and dies loses nothing: the
        broker releases the lease on disconnect and a live worker picks
        the shard up; the merged result is still exact."""
        protos, vectors = sim_data
        with thread_cluster(0, lease_timeout=30.0) as coordinator:
            coordinator.start()
            outcome: dict = {}

            def run() -> None:
                outcome["out"] = coordinator.best_similarities(protos, vectors, row_tile=4, col_tile=6)

            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            # Wait until shards are actually queued.
            deadline = time.monotonic() + 10.0
            while coordinator.queue.stats()["pending"] == 0:
                assert time.monotonic() < deadline, "shards never enqueued"
                time.sleep(0.01)
            # A doomed worker leases one shard, then crashes (disconnect).
            doomed = Client(coordinator.address, authkey=coordinator.config.authkey.encode())
            doomed.send(("lease_many", "doomed", 1))
            reply = doomed.recv()
            assert reply[0] == "tasks"
            doomed.close()
            # Now a healthy worker drains everything, including the
            # released shard.
            worker = Worker(coordinator.address, coordinator.config.authkey, poll_interval=0.01)
            rescuer = threading.Thread(target=worker.run, daemon=True)
            rescuer.start()
            runner.join(timeout=60.0)
            assert not runner.is_alive(), "distributed run did not finish"
            worker.stop()
            stats = coordinator.queue.stats()
            assert stats["requeued"] >= 1  # the crashed lease came back
            expected = best_similarities(protos, vectors, row_tile=4, col_tile=6)
            np.testing.assert_array_equal(outcome["out"], expected)

    def test_poison_shard_raises_clear_error_instead_of_hanging(self):
        # A 1-D "block" makes every fit attempt raise deterministically.
        bad = base_fit_task(np.ones(7), HierarchicalConfig(n_classes=2, seed=0), 0)
        with thread_cluster(1, max_attempts=2, run_timeout=60.0) as coordinator:
            with pytest.raises(PoisonShardError, match="retry budget"):
                coordinator.run([bad])
            assert coordinator.queue.stats()["failed"] == 2

    def test_timeout_with_no_workers_is_a_clear_error(self, sim_data):
        protos, vectors = sim_data
        config = DistributedConfig(lease_timeout=0.2, run_timeout=0.5)
        with Coordinator(config) as coordinator:
            with pytest.raises(TimeoutError, match="incomplete"):
                coordinator.best_similarities(protos, vectors, row_tile=4)


class TestSessionRegistry:
    #: Families the broker, autotuner and queue count into the
    #: coordinator's registry.
    FAMILIES = (
        "goggles_broker_connections_total",
        "goggles_broker_streamed_results_total",
        "goggles_broker_stream_errors_total",
        "goggles_broker_lease_batches_total",
        "goggles_broker_report_batches_total",
        "goggles_broker_telemetry_errors_total",
        "goggles_autotuner_lease_seconds_ewma",
        "goggles_shard_failures_total",
        "goggles_shard_requeues_total",
    )

    def _process_wide(self) -> dict:
        registry = default_registry()
        return {
            name: registry.get(name).series() if registry.get(name) is not None else {}
            for name in self.FAMILIES
        }

    def test_runtime_counts_land_in_the_coordinator_registry_only(self, sim_data):
        """Broker, autotuner and queue count into the coordinator's own
        registry, and the process-wide registry does not move."""
        protos, vectors = sim_data
        before = self._process_wide()
        with thread_cluster(0) as coordinator:
            registry = coordinator.registry
            assert registry is not default_registry()
            with thread_workers(coordinator, 2):
                out = coordinator.best_similarities(protos, vectors, row_tile=4, col_tile=6)
            # Leaving thread_workers parked the workers, so the
            # hand-rolled client below is the only one that can lease.
            task = make_task()
            coordinator.queue.add(task)
            conn = Client(coordinator.address, authkey=coordinator.config.authkey.encode())
            conn.send(("lease_many", "flaky", 1))
            op, [leased] = conn.recv()
            assert op == "tasks" and leased.task_id == task.task_id
            conn.send(("fail", "flaky", task.task_id, "RuntimeError: boom"))
            assert conn.recv() == ("ok",)
            conn.send(("bye", "flaky"))
            conn.close()
            assert [name for name in self.FAMILIES if registry.get(name) is None] == []
            assert counted(coordinator, "goggles_broker_connections_total") >= 1
            assert registry.get("goggles_autotuner_lease_seconds_ewma").series()
            assert counted(coordinator, "goggles_shard_failures_total", kind=task.kind) == 1
            assert counted(coordinator, "goggles_shard_requeues_total", kind=task.kind) == 1
            assert coordinator.queue.stats()["failed"] == 1
            assert coordinator.queue.stats()["requeued"] == 1
        np.testing.assert_array_equal(out, best_similarities(protos, vectors, row_tile=4, col_tile=6))
        assert self._process_wide() == before


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
    # row_tile=8 forces a real multi-shard similarity grid and
    # batch_size=8 a real multi-shard extraction on the 24-image corpus,
    # so the distributed path exercises every stage.  A coordinator
    # passed to Goggles runs every stage.
    CONFIG = GogglesConfig(
        n_classes=2, seed=0, top_z=3, layers=(1, 2), engine=EngineConfig(row_tile=8, batch_size=8)
    )

    def test_goggles_distributed_bit_identical_to_serial(self, vgg, small_surface):
        images = small_surface.images
        n0 = images.shape[0] - 6
        dev = _prefix_dev(small_surface, n0, per_class=3)

        serial = Goggles(self.CONFIG, model=vgg)
        serial_full = serial.label(images[:n0], dev)
        serial_inc = serial.label_incremental(images[n0:], dev)

        with thread_cluster(2) as coordinator:
            distributed = Goggles(self.CONFIG, model=vgg, coordinator=coordinator)
            dist_full = distributed.label(images[:n0], dev)
            dist_inc = distributed.label_incremental(images[n0:], dev)

        # Build, incremental extension, and warm-started inference all
        # route through the cluster — and all match serial exactly.
        np.testing.assert_array_equal(dist_full.affinity.values, serial_full.affinity.values)
        np.testing.assert_array_equal(dist_full.probabilistic_labels, serial_full.probabilistic_labels)
        np.testing.assert_array_equal(dist_inc.affinity.values, serial_inc.affinity.values)
        np.testing.assert_array_equal(dist_inc.probabilistic_labels, serial_inc.probabilistic_labels)

    def test_sparse_build_bit_identical_to_local(self, vgg, small_surface):
        """The sparse path keeps similarities in float32: float32 shards
        assemble a float32 table with no cast, and every top-k block
        equals a local build's."""
        engine = replace(self.CONFIG.engine, affinity_mode="sparse")
        config = replace(self.CONFIG, engine=engine)
        local = Goggles(config, model=vgg).build_affinity_matrix(small_surface.images)
        with thread_cluster(2) as coordinator:
            distributed = Goggles(config, model=vgg, coordinator=coordinator).build_affinity_matrix(
                small_surface.images
            )
        assert distributed.data.dtype == np.float32
        for name in ("data", "indices", "fill"):
            np.testing.assert_array_equal(getattr(distributed, name), getattr(local, name))

    def test_process_workers_bit_identical(self, random_affinity):
        """One ``goggles-repro worker`` process over the full wire
        protocol.  Its counts ship back with its reports, so the
        session's per-worker completions reconcile with the queue."""
        config = HierarchicalConfig(n_classes=2, seed=0)
        lp_serial, _ = fit_all_base_functions(random_affinity, config)
        with thread_cluster(0) as coordinator, process_workers(coordinator.address, 1):
            results = coordinator.fit_base_models(random_affinity, config)
            completed = coordinator.queue.stats()["completed"]
        lp = np.concatenate([r.responsibilities for r in results], axis=1)
        np.testing.assert_array_equal(lp, lp_serial)
        assert completed == random_affinity.n_functions
        assert counted(coordinator, "goggles_worker_shards_completed_total") == completed

    def test_trace_id_propagates_to_process_worker_spans(self, random_affinity):
        """A submit's trace id crosses the wire: shards planned inside a
        trace context carry the id to a ``goggles-repro worker``
        *process*, whose ``shard.*`` spans ship back and stitch into the
        local ring."""
        from repro.obs import clear_spans, new_trace_id, recent_spans, trace_context

        clear_spans()
        trace_id = new_trace_id()
        config = HierarchicalConfig(n_classes=2, seed=0)
        with thread_cluster(0) as coordinator, process_workers(coordinator.address, 1):
            with trace_context(trace_id):
                coordinator.fit_base_models(random_affinity, config)
        records = recent_spans(trace_id=trace_id)
        shard_spans = [r for r in records if r.name.startswith("shard.")]
        assert shard_spans, "no worker-side shard spans arrived for the traced submit"
        assert all(r.name == "shard.base-fit" for r in shard_spans)
        assert all(r.outcome == "ok" for r in shard_spans)
        # Merged spans are attributed to the worker that ran them.
        assert all(r.worker for r in shard_spans)

    def test_trace_id_propagates_to_thread_worker_spans(self, random_affinity):
        """Thread workers record spans directly (no shipping): same
        stitched timeline contract as process mode."""
        from repro.obs import MetricsRegistry, clear_spans, new_trace_id, recent_spans, trace_context

        clear_spans()
        trace_id = new_trace_id()
        config = HierarchicalConfig(n_classes=2, seed=0)
        with thread_cluster(2) as coordinator:
            assert coordinator.registry is not None
            with trace_context(trace_id):
                coordinator.fit_base_models(random_affinity, config)
        shard_spans = [
            r for r in recent_spans(trace_id=trace_id) if r.name.startswith("shard.")
        ]
        assert shard_spans
        assert all(r.name == "shard.base-fit" for r in shard_spans)

    def test_goggles_runs_on_a_passed_in_session(self, vgg, sim_data, tmp_path):
        """Both engines hold the caller's coordinator, a cacheless one
        takes the engine cache, and the session stays the caller's to
        use and close: Goggles has nothing to close."""
        protos, vectors = sim_data
        config = GogglesConfig(cache_dir=str(tmp_path))
        with thread_cluster(1) as coordinator:
            assert coordinator.cache is None
            goggles = Goggles(config, model=vgg, coordinator=coordinator)
            assert goggles.engine.coordinator is coordinator is goggles.inference.coordinator
            assert coordinator.cache is goggles.engine.cache is not None
            out = coordinator.best_similarities(protos, vectors, row_tile=4)
        np.testing.assert_array_equal(out, best_similarities(protos, vectors, row_tile=4))
        assert not hasattr(goggles, "close")

    def test_worker_process_labels_bit_identical(self, vgg, tmp_path):
        """One ``goggles-repro worker`` process serves every stage of
        ``Goggles.label``, and the affinity and posteriors equal the
        thread path's.  The worker mounts the run's cache directory
        (``--cache-dir``), so it stores every shard result itself and
        the coordinator writes none back."""
        dataset = make_dataset("surface", n_per_class=6, image_size=64, seed=1)
        dev = dataset.sample_dev_set(2, seed=0)
        config = GogglesConfig(n_classes=2, top_z=2, layers=(1,), engine=EngineConfig(row_tile=8))
        expected = Goggles(config, model=vgg).label(dataset.images, dev)
        cached = replace(config, engine=replace(config.engine, cache_dir=str(tmp_path)))
        with thread_cluster(0) as coordinator, process_workers(coordinator.address, 1, cache=tmp_path):
            result = Goggles(cached, model=vgg, coordinator=coordinator).label(dataset.images, dev)
        for kind in ("extraction", "similarity", "base-fit"):
            assert counted(coordinator, "goggles_coordinator_shards_completed_total", kind=kind) > 0
        assert counted(coordinator, "goggles_pool_cache_writebacks_total") == 0
        np.testing.assert_array_equal(result.affinity.values, expected.affinity.values)
        np.testing.assert_array_equal(result.probabilistic_labels, expected.probabilistic_labels)

    def test_compute_affinity_matches_legacy_kernel(self, vgg, tiny_images):
        """Distributed similarity equals the legacy whole-corpus kernel
        through the engine path (same guarantee the tiled kernel has)."""
        legacy = compute_affinity_matrix(vgg, tiny_images, top_z=2, layers=(1,))
        engine = EngineConfig(row_tile=2, precision="float64")
        config = GogglesConfig(n_classes=2, seed=0, top_z=2, layers=(1,), engine=engine)
        with thread_cluster(2) as coordinator:
            built = Goggles(config, model=vgg, coordinator=coordinator).build_affinity_matrix(tiny_images)
        np.testing.assert_allclose(built.values, legacy.values, atol=1e-12)

    def test_out_of_range_layer_rejected_before_any_shard(self, vgg):
        """A bad layer fails where the source is built, with the local
        error, instead of as extraction shards failing on the workers
        until the build is poisoned."""
        config = GogglesConfig(layers=(7,))
        with thread_cluster(2) as coordinator:
            with pytest.raises(ValueError, match=r"layer 7 out of range \[0, 5\)"):
                Goggles(config, model=vgg, coordinator=coordinator)
            assert counted(coordinator, "goggles_coordinator_shards_planned_total") == 0
            stats = coordinator.queue.stats()
            assert stats["completed"] == stats["failed"] == stats["requeued"] == 0
