"""Distributed hot-path v2: warm pools, batched RPC, binary wire, autotuner.

Covers the constant-factor rework of the coordinator↔broker↔worker
path (see ENGINE.md, "Distributed stages"):

* wire format v2 — raw npy buffers behind a framed header, decoded
  zero-copy, with every malformed payload rejected loudly;
* ``lease_many`` / ``report_many`` — one round-trip for a whole
  autotuned batch of shards and one for all their results;
* the :class:`ShardAutotuner` — calibration grants, EWMA estimates,
  and the ~100ms-of-compute-per-lease plan;
* idle polling backoff — exponential with jitter, reset on a grant;
* warm sessions — a caller-held :class:`Coordinator` reused across
  consecutive ``Goggles`` runs with bit-identical output;
* coordinator restart recovery — a half-finished plan resumes from
  content-addressed ``shard`` cache hits.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
from multiprocessing.connection import Client

import numpy as np
import pytest

from repro.core import Goggles, GogglesConfig
from repro.distributed import (
    Coordinator,
    DistributedConfig,
    ShardAutotuner,
    TaskQueue,
    Worker,
    wire,
)
from repro.engine import ArtifactCache, EngineConfig
from repro.engine.tiling import best_similarities
from repro.obs import MetricsRegistry
from repro.utils.rng import derive_seed

from local_workers import thread_workers
from test_distributed import _prefix_dev, counted, make_task, sim_data, thread_cluster  # noqa: F401


# ----------------------------------------------------------------------
# Wire format v2
# ----------------------------------------------------------------------
class TestWireFormat:
    def roundtrip(self, arrays: dict) -> dict:
        buffers = wire.encode_arrays(arrays)
        return wire.decode_arrays(b"".join(bytes(b) for b in buffers))

    def test_roundtrip_preserves_values_dtypes_shapes(self):
        rng = np.random.default_rng(derive_seed(0, "wire-roundtrip"))
        arrays = {
            "f64": rng.normal(size=(7, 3)),
            "f32": rng.normal(size=(2, 5, 4)).astype(np.float32),
            "i64": rng.integers(-9, 9, size=(11,)),
            "u8": rng.integers(0, 255, size=(3, 3)).astype(np.uint8),
            "scalar": np.float64(1.25),
            "flag": np.bool_(True),
            "empty": np.zeros((0, 4), dtype=np.int32),
        }
        decoded = self.roundtrip(arrays)
        assert set(decoded) == set(arrays)
        for name, value in arrays.items():
            expected = np.asarray(value)
            np.testing.assert_array_equal(decoded[name], expected)
            assert decoded[name].dtype == expected.dtype
            assert decoded[name].shape == expected.shape

    def test_noncontiguous_inputs_roundtrip_by_value(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        arrays = {"strided": base[:, ::2], "fortran": np.asfortranarray(base)}
        decoded = self.roundtrip(arrays)
        np.testing.assert_array_equal(decoded["strided"], base[:, ::2])
        np.testing.assert_array_equal(decoded["fortran"], base)

    def test_decoded_arrays_are_zero_copy_readonly_views(self):
        decoded = self.roundtrip({"a": np.arange(6, dtype=np.float64)})
        assert not decoded["a"].flags.writeable
        with pytest.raises(ValueError):
            decoded["a"][0] = 99.0

    def test_frames_cover_payload_exactly_at_any_frame_size(self):
        arrays = {"a": np.arange(100, dtype=np.float64), "b": np.ones((3, 3), dtype=np.float32)}
        buffers = wire.encode_arrays(arrays)
        blob = b"".join(bytes(b) for b in buffers)
        for frame_bytes in (1, 7, 64, 10**6):
            frames = list(wire.iter_frames(buffers, frame_bytes))
            assert all(len(f) <= frame_bytes for f in frames)
            assert b"".join(bytes(f) for f in frames) == blob
        assert wire.encoded_nbytes(buffers) == len(blob)

    def test_object_dtype_is_refused(self):
        with pytest.raises(wire.WireFormatError, match="object dtype"):
            wire.encode_arrays({"bad": np.array([object()])})

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda blob: b"NOPE" + blob[4:], "bad magic"),
            (lambda blob: blob[:2], "shorter than the preamble"),
            (lambda blob: blob[:-3], "truncated payload"),
            (lambda blob: blob + b"xx", "trailing bytes"),
        ],
    )
    def test_malformed_payloads_raise(self, mutate, match):
        buffers = wire.encode_arrays({"a": np.arange(5, dtype=np.float64)})
        blob = b"".join(bytes(b) for b in buffers)
        with pytest.raises(wire.WireFormatError, match=match):
            wire.decode_arrays(mutate(blob))

    def test_shape_length_disagreement_raises(self):
        # Forge a header claiming 3 elements but deliver data_len for 2.
        buffers = wire.encode_arrays({"a": np.arange(3, dtype=np.float64)})
        header = bytearray(bytes(buffers[0]))
        # data_len is the trailing u64 of the single entry's header.
        header[-8:] = (16).to_bytes(8, "little")
        blob = bytes(header) + bytes(buffers[1])
        with pytest.raises(wire.WireFormatError, match="implies"):
            wire.decode_arrays(blob)


# ----------------------------------------------------------------------
# Shard autotuner
# ----------------------------------------------------------------------
class TestShardAutotuner:
    def test_uncalibrated_kind_gets_a_lone_calibration_grant(self):
        tuner = ShardAutotuner(target_lease_seconds=0.1)
        assert tuner.estimate("similarity") is None
        assert tuner.plan(["similarity"] * 10, 32) == 1

    def test_calibrated_tiny_shards_batch_to_the_target(self):
        tuner = ShardAutotuner(target_lease_seconds=0.1)
        tuner.observe("similarity", 0.01)
        assert tuner.plan(["similarity"] * 50, 32) == 10
        assert tuner.plan(["similarity"] * 50, 4) == 4  # worker appetite caps

    def test_heavy_shards_stay_one_per_lease(self):
        tuner = ShardAutotuner(target_lease_seconds=0.1)
        tuner.observe("extraction", 2.0)
        assert tuner.plan(["extraction"] * 8, 32) == 1

    def test_mixed_queue_stops_at_the_first_uncalibrated_kind(self):
        tuner = ShardAutotuner(target_lease_seconds=0.1)
        tuner.observe("similarity", 0.01)
        kinds = ["similarity", "similarity", "extraction", "similarity"]
        # The two calibrated shards are granted; the uncalibrated kind
        # waits for its own calibration grant.
        assert tuner.plan(kinds, 32) == 2

    def test_ewma_tracks_drift(self):
        tuner = ShardAutotuner(target_lease_seconds=1.0, smoothing=0.5)
        tuner.observe("k", 0.1)
        tuner.observe("k", 0.3)
        assert tuner.estimate("k") == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardAutotuner(target_lease_seconds=0.0)
        with pytest.raises(ValueError):
            ShardAutotuner(smoothing=0.0)

    def test_queue_feeds_observed_seconds_into_the_tuner(self):
        registry = MetricsRegistry()
        queue = TaskQueue(lease_timeout=10.0, registry=registry)
        task = make_task()
        queue.add(task)
        [granted] = queue.lease_many("w", 4)
        assert granted.task_id == task.task_id
        queue.complete(task.task_id, "w", {"best": np.zeros((2, 2))}, seconds=0.02)
        assert queue.autotuner.estimate(task.kind) == pytest.approx(0.02)
        gauge = registry.get("goggles_autotuner_lease_seconds_ewma")
        assert gauge.value(kind=task.kind) == pytest.approx(0.02)


# ----------------------------------------------------------------------
# Batched lease/report RPC over the real broker
# ----------------------------------------------------------------------
class TestBatchedOps:
    def test_lease_many_report_many_roundtrip(self):
        with thread_cluster(0, lease_timeout=30.0) as coordinator:
            coordinator.start()
            tasks = [make_task(i) for i in range(6)]
            for task in tasks:
                coordinator.queue.add(task)
            # Calibrate so the autotuner batches all six in one grant.
            coordinator.queue.autotuner.observe(tasks[0].kind, 0.001)
            conn = Client(coordinator.address, authkey=coordinator.config.authkey.encode())
            conn.send(("lease_many", "batcher", 32))
            op, granted = conn.recv()
            assert op == "tasks"
            assert [t.task_id for t in granted] == [t.task_id for t in tasks]
            reports = [
                (t.task_id, {"best": np.full((2, 2), float(i))}, 0.001)
                for i, t in enumerate(granted)
            ]
            conn.send(("report_many", "batcher", reports))
            assert conn.recv() == ("ok", len(tasks))
            for i, task in enumerate(tasks):
                result = coordinator.queue.result(task.task_id)
                np.testing.assert_array_equal(result["best"], np.full((2, 2), float(i)))
            assert counted(coordinator, "goggles_broker_lease_batches_total") == 1
            assert counted(coordinator, "goggles_broker_report_batches_total") == 1
            # An idle queue replies ("idle",) to lease_many too.
            conn.send(("lease_many", "batcher", 32))
            assert conn.recv() == ("idle",)
            conn.send(("bye", "batcher"))
            conn.close()

    def test_report_many_duplicates_are_idempotent(self):
        with thread_cluster(0, lease_timeout=30.0) as coordinator:
            coordinator.start()
            task = make_task()
            coordinator.queue.add(task)
            conn = Client(coordinator.address, authkey=coordinator.config.authkey.encode())
            conn.send(("lease_many", "dup", 4))
            op, [granted] = conn.recv()
            assert op == "tasks"
            report = [(granted.task_id, {"best": np.ones((2, 2))}, 0.001)]
            conn.send(("report_many", "dup", report))
            assert conn.recv() == ("ok", 1)
            conn.send(("report_many", "dup", report))  # late duplicate
            assert conn.recv() == ("ok", 0)
            assert coordinator.queue.stats()["completed"] == 1
            conn.send(("bye", "dup"))
            conn.close()

    def test_npy_streamed_results_bit_identical_to_serial(self, sim_data):
        """stream_threshold=0 pushes every result through the framed
        wire-v2 path; the merged output still matches serial exactly."""
        protos, vectors = sim_data
        with thread_cluster(2, stream_threshold=0, frame_bytes=256) as coordinator:
            out = coordinator.best_similarities(protos, vectors, row_tile=4, col_tile=6)
            assert counted(coordinator, "goggles_broker_streamed_results_total") > 0
            assert counted(coordinator, "goggles_broker_stream_errors_total") == 0
        np.testing.assert_array_equal(
            out, best_similarities(protos, vectors, row_tile=4, col_tile=6)
        )

    def test_npy_framing_matches_report_many_bit_for_bit(self, sim_data):
        """The same cluster work routed through streamed wire-v2 frames
        and through batched ``report_many`` uploads yields identical
        bytes."""
        protos, vectors = sim_data
        with thread_cluster(1, stream_threshold=0, frame_bytes=128) as c_npy:
            via_npy = c_npy.best_similarities(protos, vectors, row_tile=4)
            assert counted(c_npy, "goggles_broker_streamed_results_total") > 0
        with thread_cluster(1, stream_threshold=1 << 30) as c_batched:
            via_reports = c_batched.best_similarities(protos, vectors, row_tile=4)
            assert counted(c_batched, "goggles_broker_streamed_results_total") == 0
            assert counted(c_batched, "goggles_broker_report_batches_total") > 0
        np.testing.assert_array_equal(via_npy, via_reports)
        assert via_npy.tobytes() == via_reports.tobytes()

    def test_malformed_npy_frames_burn_a_retry_not_a_completion(self):
        """Garbage bytes in a streamed result must queue.fail the shard
        (requeue/poison semantics), never complete it."""
        with thread_cluster(0, lease_timeout=30.0) as coordinator:
            coordinator.start()
            task = make_task()
            coordinator.queue.add(task)
            conn = Client(coordinator.address, authkey=coordinator.config.authkey.encode())
            conn.send(("lease_many", "liar", 1))
            assert conn.recv()[0] == "tasks"
            garbage = b"\x00" * 64  # length-consistent, structurally void
            conn.send(("result-begin", "liar", task.task_id, 1, len(garbage)))
            conn.send(("frame", "liar", task.task_id, 0, garbage))
            conn.send(("result-end", "liar", task.task_id, 0.01))
            op, reason = conn.recv()
            assert op == "error"
            assert "wire v2 decode failed" in reason
            assert coordinator.queue.result(task.task_id) is None
            assert coordinator.queue.stats()["failed"] == 1
            assert counted(coordinator, "goggles_broker_stream_errors_total") == 1
            # A pickle blob is rejected the same way (the broker never
            # unpickles a streamed payload).
            conn.send(("lease_many", "liar", 1))
            assert conn.recv()[0] == "tasks"
            blob = pickle.dumps({"best": np.zeros((2, 2))})
            conn.send(("result-begin", "liar", task.task_id, 1, len(blob)))
            conn.send(("frame", "liar", task.task_id, 0, blob))
            conn.send(("result-end", "liar", task.task_id, 0.01))
            assert conn.recv()[0] == "error"
            assert coordinator.queue.stats()["failed"] == 2
            conn.send(("bye", "liar"))
            conn.close()

    def test_v1_single_shard_ops_are_unknown(self):
        """The v1 ``lease`` and ``result`` ops are gone: the broker
        answers each with an error, grants and completes nothing, and
        the same connection still serves the batched protocol."""
        with thread_cluster(0, lease_timeout=30.0) as coordinator:
            coordinator.start()
            task = make_task()
            coordinator.queue.add(task)
            conn = Client(coordinator.address, authkey=coordinator.config.authkey.encode())
            conn.send(("lease", "old"))
            assert conn.recv() == ("error", "unknown op 'lease'")
            conn.send(("result", "old", task.task_id, {"best": np.zeros((2, 2))}))
            assert conn.recv() == ("error", "unknown op 'result'")
            assert coordinator.queue.result(task.task_id) is None
            conn.send(("lease_many", "old", 4))
            op, [granted] = conn.recv()
            assert op == "tasks"
            assert granted.task_id == task.task_id
            conn.send(("bye", "old"))
            conn.close()

    def test_unencodable_streamed_result_is_a_failure_not_a_pickle(self, monkeypatch):
        """A streamed result wire v2 cannot carry (object dtype) is
        reported through ``fail`` — burning a retry — instead of being
        pickled, and the worker keeps serving."""
        from repro.distributed import worker as worker_module

        real_execute = worker_module.execute_shard
        calls: list[str] = []

        def unencodable_once(task, cache=None):
            calls.append(task.task_id)
            if len(calls) == 1:
                return {"best": np.array([object()], dtype=object)}
            return real_execute(task, cache=cache)

        monkeypatch.setattr(worker_module, "execute_shard", unencodable_once)
        with thread_cluster(0, lease_timeout=30.0) as coordinator:
            coordinator.start()
            task = make_task()
            coordinator.queue.add(task)
            worker = Worker(
                coordinator.address, coordinator.config.authkey,
                poll_interval=0.01, stream_threshold=0, registry=coordinator.registry,
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            deadline = time.monotonic() + 30.0
            while coordinator.queue.result(task.task_id) is None:
                assert time.monotonic() < deadline, "the requeued shard never completed"
                time.sleep(0.01)
            worker.stop()
            thread.join(timeout=10.0)
            assert calls == [task.task_id, task.task_id]  # failed, then retried
            assert coordinator.queue.stats()["failed"] == 1
            worker_id = worker.worker_id
            assert counted(coordinator, "goggles_worker_shards_failed_total", worker=worker_id) == 1
            # The retry streamed as wire v2, and nothing bad was sent.
            assert counted(coordinator, "goggles_worker_results_streamed_total", worker=worker_id) == 1
            assert counted(coordinator, "goggles_broker_stream_errors_total") == 0
            np.testing.assert_array_equal(
                coordinator.queue.result(task.task_id)["best"], real_execute(task)["best"]
            )


# ----------------------------------------------------------------------
# Idle polling backoff
# ----------------------------------------------------------------------
class TestIdleBackoff:
    def test_backoff_grows_exponentially_and_caps(self):
        worker = Worker(("127.0.0.1", 1), poll_interval=0.01, poll_interval_max=0.08)
        waits = [worker._next_idle_wait() for _ in range(8)]
        # Jitter is multiplicative in [0.5, 1.0]: each wait sits inside
        # the jitter band of its doubling step, capped at the max.
        bases = [min(0.01 * 2**i, 0.08) for i in range(8)]
        for wait, base in zip(waits, bases):
            assert 0.5 * base <= wait <= base
        assert worker.idle_polls == 8
        # The last waits are capped (within jitter of the ceiling).
        assert all(w <= 0.08 for w in waits)

    def test_grant_resets_the_streak(self):
        worker = Worker(("127.0.0.1", 1), poll_interval=0.01, poll_interval_max=1.0)
        for _ in range(6):
            worker._next_idle_wait()
        assert worker._idle_streak == 6
        worker._idle_streak = 0  # what run() does on a granted lease
        assert worker._next_idle_wait() <= 0.01

    def test_validation(self):
        with pytest.raises(ValueError, match="poll_interval_max"):
            Worker(("127.0.0.1", 1), poll_interval=0.5, poll_interval_max=0.1)
        with pytest.raises(ValueError, match="lease_batch"):
            Worker(("127.0.0.1", 1), lease_batch=0)

    def test_idle_worker_backs_off_against_a_live_broker(self):
        """An idle cluster's workers poll a handful of times, not
        hundreds: the backoff visibly caps the lease chatter."""
        with thread_cluster(0) as coordinator:
            coordinator.start()
            worker = Worker(
                coordinator.address,
                coordinator.config.authkey,
                poll_interval=0.005,
                poll_interval_max=0.3,
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            time.sleep(1.0)
            worker.stop()
            thread.join(timeout=5.0)
            # A fixed 5ms period would poll ~200 times in a second; the
            # exponential schedule stays far below that.
            assert 0 < worker.idle_polls < 30


# ----------------------------------------------------------------------
# Warm worker pools: a Coordinator the caller keeps open
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_pool_serves_consecutive_goggles_runs(self, vgg, small_surface):
        """Two consecutive Goggles runs on one caller-held session:
        bit-identical output, and the session stays open between them."""
        images = small_surface.images
        dev = _prefix_dev(small_surface, images.shape[0], per_class=3)
        config = GogglesConfig(
            n_classes=2, seed=0, top_z=3, layers=(1, 2), engine=EngineConfig(row_tile=8, batch_size=8)
        )
        expected = Goggles(config, model=vgg).label(images, dev)
        with thread_cluster(2) as pool:
            out1 = Goggles(config, model=vgg, coordinator=pool).label(images, dev)
            assert pool.started and not pool._closed
            out2 = Goggles(config, model=vgg, coordinator=pool).label(images, dev)
        np.testing.assert_array_equal(out1.probabilistic_labels, expected.probabilistic_labels)
        np.testing.assert_array_equal(out2.probabilistic_labels, expected.probabilistic_labels)
        np.testing.assert_array_equal(out1.affinity.values, expected.affinity.values)
        np.testing.assert_array_equal(out2.affinity.values, expected.affinity.values)

    def test_pool_close_survives_dead_broker(self):
        """Closing a session whose broker already died returns promptly,
        and its worker stops within thread_workers' bound."""
        coordinator = Coordinator(DistributedConfig(), registry=MetricsRegistry())
        with thread_workers(coordinator, 1):
            coordinator._broker.close()  # broker dies behind the session's back
            start = time.perf_counter()
            coordinator.close()
            assert time.perf_counter() - start < 30.0
        assert coordinator._closed

    def test_stop_interrupts_a_connect_stuck_in_the_handshake(self):
        """A peer that accepts the TCP connect and never sends the auth
        challenge (what a just-closed broker's port can look like)
        holds the worker in its handshake; stop() still ends it."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            worker = Worker(listener.getsockname(), "secret", registry=MetricsRegistry())
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            peer, _ = listener.accept()  # the worker is past its stop check, awaiting the challenge
            with peer:
                worker.stop()
                thread.join(timeout=5.0)
                assert not thread.is_alive(), "worker still in its handshake 5 s after stop()"


# ----------------------------------------------------------------------
# Coordinator restart recovery
# ----------------------------------------------------------------------
class TestRestartRecovery:
    def _tasks(self, n: int) -> list:
        return [make_task(i) for i in range(n)]

    def test_restarted_coordinator_resumes_half_finished_plan(self, tmp_path):
        """Shards completed before a coordinator 'crash' are cache hits
        on restart: only the remainder is planned and computed."""
        cache = ArtifactCache(str(tmp_path / "cache"))
        tasks = self._tasks(6)
        with thread_cluster(1, lease_timeout=10.0) as first:
            first.cache = cache
            done = first.run(tasks[:3])  # the half that finished
            assert len(done) == 3
        # "Restart": a brand-new coordinator over the same cache dir.
        with thread_cluster(1, lease_timeout=10.0) as second:
            second.cache = ArtifactCache(str(tmp_path / "cache"))
            results = second.run(tasks)
            assert len(results) == 6
            # The finished half hits the cache; only the rest is planned.
            assert counted(second, "goggles_coordinator_shard_cache_hits_total") == 3
            assert counted(second, "goggles_coordinator_shards_planned_total") == 3
            for task in tasks[:3]:
                np.testing.assert_array_equal(
                    results[task.task_id]["best"], done[task.task_id]["best"]
                )

    def test_cacheless_worker_results_are_written_back(self, tmp_path):
        """With a coordinator-side cache but cacheless workers, results
        are persisted by the coordinator — so recovery does not depend
        on every worker mounting the shared cache."""
        cache = ArtifactCache(str(tmp_path / "cache"))
        tasks = self._tasks(4)
        with thread_cluster(0, lease_timeout=10.0) as coordinator:
            coordinator.cache = cache
            coordinator.start()
            worker = Worker(  # no cache mounted
                coordinator.address, coordinator.config.authkey, poll_interval=0.01
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            coordinator.run(tasks)
            worker.stop()
            thread.join(timeout=10.0)
            assert counted(coordinator, "goggles_pool_cache_writebacks_total") == len(tasks)
            for task in tasks:
                assert cache.has("shard", task.task_id)
        # The written-back artifacts satisfy a cold rerun entirely.
        with thread_cluster(0, lease_timeout=10.0) as rerun:  # zero workers: must not need any
            rerun.cache = ArtifactCache(str(tmp_path / "cache"))
            results = rerun.run(tasks)
            assert len(results) == len(tasks)
            assert counted(rerun, "goggles_coordinator_shard_cache_hits_total") == len(tasks)
            assert not rerun.started  # never even bound the broker
