"""The worker loop: pull shards, compute, report; survive restarts.

A worker is deliberately dumb: it holds no job state beyond the shard
it is currently computing.  Everything value-affecting travels in the
task payload, and the result travels back over the same authenticated
connection (plus into the shared :class:`~repro.engine.cache.ArtifactCache`
when one is mounted, so identical reruns are disk hits for the whole
cluster).  Crash tolerance therefore costs nothing here — a worker that
dies mid-shard is simply a lease the coordinator reassigns.

The hot path is *batched*: one ``lease_many`` round-trip pulls a whole
autotuned batch of shards, each shard's compute is timed, and every
small result rides back in a single ``report_many`` message whose
measured seconds feed the broker-side autotuner.  Results above
``stream_threshold`` payload bytes are *streamed* instead: the worker
sends a ``result-begin`` header, then ``frame_bytes``-sized ``frame``
sub-messages of wire format v2 (raw npy buffers framed without a
monolithic pickle, see :mod:`repro.distributed.wire`), then
``result-end``, and the broker reassembles them.  A disconnect
mid-stream simply discards the partial frames and releases the lease.
A large result that cannot travel as raw buffers (an object dtype) is
reported as a shard failure, like a compute error.

An idle worker backs off exponentially (with jitter, so a fleet that
went idle together does not re-poll in lockstep) instead of hammering
the broker at a fixed period; the first granted lease resets the
backoff.

Workers connect with patience (the coordinator may not be up yet) and
reconnect after connection loss; once the retry budget is exhausted the
loop returns, which is how a worker notices the coordinator is gone.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
from multiprocessing import AuthenticationError
from multiprocessing.connection import Connection, answer_challenge, deliver_challenge

import numpy as np

from repro.distributed import wire
from repro.distributed.tasks import ShardTask, execute_shard
from repro.engine.cache import ArtifactCache
from repro.obs import MetricsRegistry, TelemetryShipper, default_registry, span, trace_context

__all__ = [
    "DEFAULT_STREAM_THRESHOLD",
    "DEFAULT_FRAME_BYTES",
    "DEFAULT_LEASE_BATCH",
    "DEFAULT_POLL_INTERVAL_MAX",
    "Worker",
]

#: Result payload bytes above which a shard result streams as frames.
DEFAULT_STREAM_THRESHOLD = 4 * 1024 * 1024
#: Frame size of a streamed result.
DEFAULT_FRAME_BYTES = 1024 * 1024
#: Shards one lease_many round-trip may carry (the autotuner may grant fewer).
DEFAULT_LEASE_BATCH = 32
#: Ceiling of the idle-poll exponential backoff.
DEFAULT_POLL_INTERVAL_MAX = 1.0


class Worker:
    """A single-threaded shard worker.

    Parameters:
        address: the coordinator's (host, port).
        authkey: shared connection secret (str or bytes).
        cache: optional shared artifact cache; computed shards are
            written there (kind ``"shard"``) and looked up before
            computing, so a re-run of known content is a disk hit.
        worker_id: stable identity used for leases; defaults to
            ``{hostname}-{pid}``-based and unique per instance.
        poll_interval: initial sleep between lease attempts while the
            queue is idle; consecutive idle polls back off
            exponentially (with jitter) up to ``poll_interval_max``,
            and the next granted lease resets the schedule.
        poll_interval_max: ceiling of the idle backoff.
        lease_batch: most shards one ``lease_many`` round-trip may
            request; the broker's autotuner may grant fewer.  1 keeps
            the chatty one-shard-per-round-trip behaviour.
        connect_retries / retry_delay: patience for the initial connect
            and for reconnects after a dropped connection; once
            exhausted, :meth:`run` returns.
        stream_threshold: result size (total array bytes) above which
            the result is streamed as framed sub-messages; 0 streams
            every result, a huge value keeps everything single-message.
        frame_bytes: chunk size of a streamed result blob.
        registry: the one store of the worker's counts, the
            ``goggles_worker_*{worker}`` families (default: the
            process-wide one; a worker running in the coordinator's
            process may share the coordinator's).
        ship_telemetry: piggyback registry deltas + fresh span records
            on outgoing reports (``report_many`` / ``result-end`` /
            ``bye``) so the coordinator can merge them into its scrape
            registry.  On for ``goggles-repro worker`` processes, whose
            registry the coordinator cannot otherwise reach; off for a
            worker sharing the coordinator's registry (shipping would
            double-count).
    """

    _instances = 0

    def __init__(
        self,
        address: tuple[str, int],
        authkey: str | bytes = "goggles-repro",
        *,
        cache: ArtifactCache | None = None,
        worker_id: str | None = None,
        poll_interval: float = 0.05,
        poll_interval_max: float = DEFAULT_POLL_INTERVAL_MAX,
        lease_batch: int = DEFAULT_LEASE_BATCH,
        connect_retries: int = 40,
        retry_delay: float = 0.25,
        stream_threshold: int = DEFAULT_STREAM_THRESHOLD,
        frame_bytes: int = DEFAULT_FRAME_BYTES,
        registry: MetricsRegistry | None = None,
        ship_telemetry: bool = False,
    ):
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0, got {poll_interval}")
        if poll_interval_max < poll_interval:
            raise ValueError(
                f"poll_interval_max ({poll_interval_max}) must be >= poll_interval ({poll_interval})"
            )
        if lease_batch < 1:
            raise ValueError(f"lease_batch must be >= 1, got {lease_batch}")
        if stream_threshold < 0:
            raise ValueError(f"stream_threshold must be >= 0, got {stream_threshold}")
        if frame_bytes < 1:
            raise ValueError(f"frame_bytes must be >= 1, got {frame_bytes}")
        self.address = (str(address[0]), int(address[1]))
        self.authkey = authkey.encode() if isinstance(authkey, str) else bytes(authkey)
        self.cache = cache
        Worker._instances += 1
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}-w{Worker._instances}"
        self.poll_interval = float(poll_interval)
        self.poll_interval_max = float(poll_interval_max)
        self.lease_batch = int(lease_batch)
        self.connect_retries = int(connect_retries)
        self.retry_delay = float(retry_delay)
        self.stream_threshold = int(stream_threshold)
        self.frame_bytes = int(frame_bytes)
        # Counters keyed by the worker's own id.  A worker sharing the
        # coordinator's registry writes them there directly; a worker
        # process writes its own registry and (with ``ship_telemetry``)
        # ships deltas for the coordinator to merge — the ``worker``
        # label makes both paths land as distinct series of the same
        # families.
        self.registry = registry if registry is not None else default_registry()
        self._m_completed = self.registry.counter(
            "goggles_worker_shards_completed_total",
            "Shards computed successfully, by worker.",
            labelnames=("worker",),
        )
        self._m_failed = self.registry.counter(
            "goggles_worker_shards_failed_total",
            "Shards that raised during worker compute, by worker.",
            labelnames=("worker",),
        )
        self._m_streamed = self.registry.counter(
            "goggles_worker_results_streamed_total",
            "Large results streamed as framed buffers, by worker.",
            labelnames=("worker",),
        )
        self._shipper = (
            TelemetryShipper(self.worker_id, self.registry) if ship_telemetry else None
        )
        self.idle_polls = 0
        self._idle_streak = 0
        self._rng = random.Random()
        self._stop = threading.Event()
        # The socket of a connect in progress, which stop() shuts down.
        self._connecting: socket.socket | None = None
        self._connecting_lock = threading.Lock()

    def stop(self) -> None:
        """Ask the loop to exit at the next opportunity.

        A connect waiting on the peer's auth handshake is woken at once:
        a port that accepts but never sends the challenge (a just-closed
        broker's, say) would otherwise hold the worker forever.
        """
        self._stop.set()
        with self._connecting_lock:
            if self._connecting is not None:
                try:
                    self._connecting.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # not connected (yet): the stop check after connect catches it

    # ------------------------------------------------------------------
    def _open(self) -> Connection:
        """One connect plus the authkey handshake — what
        ``multiprocessing.connection.Client`` does, with the socket held
        where :meth:`stop` can shut it down."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        with self._connecting_lock:
            self._connecting = sock
        try:
            sock.connect(self.address)
            if self._stop.is_set():
                raise EOFError("worker stopped while connecting")
            conn = Connection(sock.dup().detach())
            try:
                answer_challenge(conn, self.authkey)
                deliver_challenge(conn, self.authkey)
            except BaseException:
                conn.close()
                raise
            return conn
        finally:
            with self._connecting_lock:
                self._connecting = None
            sock.close()

    def _connect(self) -> Connection | None:
        for _ in range(self.connect_retries):
            if self._stop.is_set():
                return None
            try:
                return self._open()
            except (OSError, EOFError, AuthenticationError):
                # Coordinator not up (yet), just went away, or closed
                # mid-handshake; be patient — the budget bounds us.
                self._stop.wait(self.retry_delay)
        return None

    def _next_idle_wait(self) -> float:
        """One idle sleep: exponential in the idle streak, jittered.

        Starts at ``poll_interval`` and doubles per consecutive idle
        reply up to ``poll_interval_max``; the multiplicative jitter
        (uniform in [0.5, 1.0]) de-synchronises a fleet of workers
        that went idle on the same queue drain.  Timing only — never
        value-affecting — so plain :mod:`random` is fine here.
        """
        base = min(self.poll_interval * (2.0 ** self._idle_streak), self.poll_interval_max)
        self._idle_streak += 1
        self.idle_polls += 1
        return base * self._rng.uniform(0.5, 1.0)

    def _telemetry_blob(self) -> bytes | None:
        """The next encoded telemetry frame, or ``None`` (idle/off)."""
        if self._shipper is None:
            return None
        try:
            payload = self._shipper.collect()
            return wire.encode_telemetry(payload) if payload is not None else None
        except wire.WireFormatError:  # pragma: no cover - defensive: never block reports
            return None

    def _stream_result(self, conn: Connection, task: ShardTask, buffers: list, seconds: float) -> None:
        """Stream one large result, already encoded as wire-v2 buffers."""
        total = wire.encoded_nbytes(buffers)
        n_frames = max(1, -(-total // self.frame_bytes))
        conn.send(("result-begin", self.worker_id, task.task_id, n_frames, total))
        for index, frame in enumerate(wire.iter_frames(buffers, self.frame_bytes)):
            conn.send(("frame", self.worker_id, task.task_id, index, bytes(frame)))
        self._m_streamed.inc(worker=self.worker_id)
        blob = self._telemetry_blob()
        if blob is not None:
            conn.send(("result-end", self.worker_id, task.task_id, seconds, blob))
        else:
            conn.send(("result-end", self.worker_id, task.task_id, seconds))
        conn.recv()  # ack; ("error", ...) means the broker burned a retry

    def _flush_reports(self, conn: Connection, reports: list[tuple[str, dict, float]]) -> None:
        """Upload a batch of small results in one ``report_many``.

        The telemetry frame (registry deltas + fresh spans) rides the
        same message, so the counters covering these completions are
        merged atomically with them — lost together or applied
        together, which is what keeps worker/coordinator counts in
        exact reconciliation.
        """
        blob = self._telemetry_blob()
        if blob is not None:
            conn.send(("report_many", self.worker_id, reports, blob))
        else:
            conn.send(("report_many", self.worker_id, reports))
        conn.recv()

    def _process_tasks(self, conn: Connection, tasks: list[ShardTask]) -> None:
        """Compute a leased batch, timing each shard for the autotuner.

        Small results accumulate into one ``report_many`` (flushed
        early if they outgrow ``stream_threshold``); large results
        stream individually.  Failures — including a large result that
        wire v2 cannot encode — report immediately so the queue can
        requeue while the rest of the batch still computes.
        """
        reports: list[tuple[str, dict, float]] = []
        pending_bytes = 0
        for task in tasks:
            started = time.perf_counter()
            try:
                # Install the submitting request's trace id around the
                # compute, so the shard's span record carries it and the
                # shipped telemetry stitches into that request's
                # timeline on the coordinator.
                with trace_context(task.trace_id), span(f"shard.{task.kind}", self.registry):
                    arrays = execute_shard(task, cache=self.cache)
                seconds = time.perf_counter() - started
                # Size gate on the raw byte footprint — cheap to compute and
                # within a constant of the encoded size.
                nbytes = sum(int(np.asarray(value).nbytes) for value in arrays.values())
                buffers = wire.encode_arrays(arrays) if nbytes > self.stream_threshold else None
            except Exception as error:  # noqa: BLE001 - report, don't die
                self._m_failed.inc(worker=self.worker_id)
                conn.send(("fail", self.worker_id, task.task_id, f"{type(error).__name__}: {error}"))
                conn.recv()
                continue
            self._m_completed.inc(worker=self.worker_id)
            if buffers is not None:
                self._stream_result(conn, task, buffers, seconds)
                continue
            reports.append((task.task_id, arrays, seconds))
            pending_bytes += nbytes
            if pending_bytes > self.stream_threshold:
                self._flush_reports(conn, reports)
                reports, pending_bytes = [], 0
        if reports:
            self._flush_reports(conn, reports)

    def run(self) -> None:
        """Poll/compute until stopped or the coordinator goes away."""
        conn = self._connect()
        while conn is not None and not self._stop.is_set():
            try:
                conn.send(("lease_many", self.worker_id, self.lease_batch))
                reply = conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                conn.close()
                conn = self._connect()
                continue
            kind = reply[0]
            if kind == "tasks":
                self._idle_streak = 0  # work granted: reset the backoff
                try:
                    self._process_tasks(conn, list(reply[1]))
                except (EOFError, OSError, BrokenPipeError):
                    # Unreported shards of this batch are rescued by
                    # release_worker / the lease timeout.
                    conn.close()
                    conn = self._connect()
            elif kind == "idle":
                self._stop.wait(self._next_idle_wait())
            elif kind == "stop":
                break
            else:  # pragma: no cover - protocol drift guard
                break
        if conn is not None:
            try:
                # Final telemetry (e.g. failure counters with no report
                # to ride on) leaves with the goodbye.
                blob = self._telemetry_blob()
                if blob is not None:
                    conn.send(("bye", self.worker_id, blob))
                else:
                    conn.send(("bye", self.worker_id))
            except (EOFError, OSError, BrokenPipeError):
                pass
            conn.close()
