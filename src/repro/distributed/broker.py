"""The broker: the coordinator's network front door.

Stdlib-only transport: a :class:`multiprocessing.connection.Listener`
bound to a TCP address, so workers may live in other processes *or on
other machines*; the connection handshake is HMAC-authenticated with a
shared ``authkey``.  One daemon thread accepts connections; each worker
connection gets its own handler thread that translates wire messages
into :class:`~repro.distributed.queue.TaskQueue` calls:

    ("lease_many", worker_id, limit)         -> ("tasks", [ShardTask, ...]) | ("idle",) | ("stop",)
    ("report_many", worker_id, [(task_id, arrays, seconds), ...][, telemetry]) -> ("ok", n_accepted)
    ("fail", worker_id, task_id, error_str)  -> ("ok",)
    ("bye", worker_id[, telemetry])          -> connection closed

Any other op is answered ``("error", "unknown op ...")`` and the
connection keeps serving.

The optional trailing ``telemetry`` field (also accepted on
``result-end``) is an encoded frame of worker-side registry deltas and
span records (:func:`repro.distributed.wire.encode_telemetry`), merged
into the queue's registry by the broker's
:class:`~repro.obs.ship.TelemetryMerger` *before* the completions the
same message carries — so worker-shipped counters reconcile exactly
with coordinator-observed completions the moment a run unblocks.
Malformed frames are counted and dropped, never failing the op.

``lease_many`` grants up to ``limit`` shards in one round-trip — the
actual batch size is planned by the queue's shard autotuner toward a
target of compute-per-lease, so chatty per-shard polling collapses into
a handful of messages.  ``report_many`` is the symmetric upload: many
small results (each with its measured compute seconds, which feed the
autotuner) in one message and one ack.

Results above the worker's ``stream_threshold`` arrive as a *framed
stream* instead of one monolithic message::

    ("result-begin", worker_id, task_id, n_frames, total_bytes)  (no reply)
    ("frame", worker_id, task_id, index, bytes)                  (no reply) ×n_frames
    ("result-end", worker_id, task_id, seconds[, telemetry])   -> ("ok",) | ("error", reason)

The reassembled blob is wire format v2 — raw npy buffers behind a small
framed header, decoded zero-copy by
:func:`repro.distributed.wire.decode_arrays` and never unpickled.

The handler buffers frames per task in thread-local state and only
hands the reassembled result to the queue on a complete, length-checked
``result-end``; a connection that dies mid-stream discards its partial
frames on the spot and releases the worker's leases, so a reassigned
shard can never be completed by garbage.  A malformed stream (missing
header, out-of-order frame, length mismatch) is reported to the queue
as a shard *failure* — burning a retry — rather than poisoning state.

Fault tolerance is layered: a broken connection releases the worker's
leases immediately (fast crash detection), and the queue's lease
timeout catches workers that stay connected but stop responding.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, Listener

from repro.distributed.queue import TaskQueue
from repro.distributed.wire import WireFormatError, decode_arrays, decode_telemetry
from repro.obs import TelemetryMerger

__all__ = ["Broker", "DEFAULT_PORT"]

#: Default TCP port of the `goggles-repro coordinator` verb.
DEFAULT_PORT = 41817


@dataclass
class _ResultStream:
    """Reassembly state of one in-flight streamed result."""

    worker_id: str
    n_frames: int
    total_bytes: int
    frames: list[bytes] = field(default_factory=list)

    def error(self) -> str | None:
        """Why the stream is malformed, or ``None`` if it is complete."""
        if len(self.frames) != self.n_frames:
            return f"expected {self.n_frames} frames, received {len(self.frames)}"
        received = sum(len(frame) for frame in self.frames)
        if received != self.total_bytes:
            return f"expected {self.total_bytes} bytes, received {received}"
        return None


class Broker:
    """Serves a :class:`TaskQueue` to workers over authenticated TCP.

    Every event the broker counts, and every worker telemetry frame it
    merges, lands in ``queue.registry``; it keeps no counts of its own.
    """

    def __init__(
        self,
        queue: TaskQueue,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        authkey: str | bytes = "goggles-repro",
    ):
        self.queue = queue
        self._authkey = authkey.encode() if isinstance(authkey, str) else bytes(authkey)
        self._listener = Listener(tuple(bind), authkey=self._authkey)
        self._closing = threading.Event()
        self._lock = threading.Lock()
        self._connections: list[Connection] = []
        self._handlers: list[threading.Thread] = []
        self._handler_ids = itertools.count(1)  # names goggles-broker-conn-<n>
        registry = queue.registry
        self._merger = TelemetryMerger(registry)
        self._m_connections = registry.counter(
            "goggles_broker_connections_total", "Worker connections ever accepted by brokers."
        )
        self._m_streamed = registry.counter(
            "goggles_broker_streamed_results_total", "Results reassembled from framed streams."
        )
        self._m_stream_errors = registry.counter(
            "goggles_broker_stream_errors_total", "Malformed result streams turned into failures."
        )
        self._m_lease_batches = registry.counter(
            "goggles_broker_lease_batches_total", "lease_many grants of more than one shard."
        )
        self._m_report_batches = registry.counter(
            "goggles_broker_report_batches_total", "report_many uploads received."
        )
        self._m_telemetry_errors = registry.counter(
            "goggles_broker_telemetry_errors_total",
            "Telemetry frames dropped as undecodable or malformed.",
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="goggles-broker-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        """The actually bound (host, port) — resolves ephemeral ports."""
        host, port = self._listener.address
        return str(host), int(port)

    # ------------------------------------------------------------------
    # Accept / serve
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn = self._listener.accept()
            except Exception:
                # Auth failure or a probe that vanished: keep serving.
                # A closed listener lands here too — then we are done.
                if self._closing.is_set():
                    return
                continue
            with self._lock:
                if self._closing.is_set():
                    conn.close()
                    return
                self._connections.append(conn)
                self._m_connections.inc()
                handler = threading.Thread(
                    target=self._serve,
                    args=(conn,),
                    name=f"goggles-broker-conn-{next(self._handler_ids)}",
                    daemon=True,
                )
                self._handlers.append(handler)
            handler.start()

    def _serve(self, conn: Connection) -> None:
        worker_id: str | None = None
        # In-flight streamed results of THIS connection only.  Local by
        # design: when the connection dies, partial frames die with it —
        # a reassigned lease can never be completed by stale garbage.
        streams: dict[str, _ResultStream] = {}
        try:
            while not self._closing.is_set():
                message = conn.recv()
                op = message[0]
                if op == "lease_many":
                    _, worker_id, limit = message
                    if self._closing.is_set():
                        conn.send(("stop",))
                        break
                    tasks = self.queue.lease_many(worker_id, int(limit))
                    if len(tasks) > 1:
                        self._m_lease_batches.inc()
                    conn.send(("tasks", tasks) if tasks else ("idle",))
                elif op == "report_many":
                    _, worker_id, reports, *rest = message
                    # Merge the piggybacked telemetry BEFORE the
                    # completions it covers, so a caller unblocked by
                    # the final complete() already sees the merged
                    # worker counters (exact reconciliation).
                    if rest:
                        self._merge_telemetry(rest[0])
                    accepted = 0
                    for task_id, arrays, seconds in reports:
                        if self.queue.complete(
                            task_id, worker_id, arrays,
                            None if seconds is None else float(seconds),
                        ):
                            accepted += 1
                    self._m_report_batches.inc()
                    conn.send(("ok", accepted))
                elif op == "result-begin":
                    _, worker_id, task_id, n_frames, total_bytes = message
                    streams[task_id] = _ResultStream(
                        worker_id=worker_id,
                        n_frames=int(n_frames),
                        total_bytes=int(total_bytes),
                    )
                elif op == "frame":
                    _, worker_id, task_id, index, frame = message
                    stream = streams.get(task_id)
                    if stream is not None and index == len(stream.frames):
                        stream.frames.append(frame)
                    elif stream is not None:
                        # Out-of-order frame: poison the reassembly so
                        # result-end reports a failure, not bad data.
                        stream.n_frames = -1
                elif op == "result-end":
                    _, worker_id, task_id, seconds, *rest = message
                    if rest:
                        self._merge_telemetry(rest[0])
                    conn.send(self._finish_stream(streams, task_id, worker_id, float(seconds)))
                elif op == "fail":
                    _, worker_id, task_id, error = message
                    self.queue.fail(task_id, worker_id, error)
                    conn.send(("ok",))
                elif op == "bye":
                    if len(message) > 2:
                        self._merge_telemetry(message[2])
                    break
                else:
                    conn.send(("error", f"unknown op {op!r}"))
        except (EOFError, OSError, TypeError, ValueError):
            # Worker vanished, sent a malformed message, or close() shut
            # the socket down under this thread's recv().  Either way:
            # leases released below.
            pass
        finally:
            if worker_id is not None:
                # Fast crash detection: a broken connection hands the
                # worker's in-flight shards straight back to the queue
                # instead of waiting out the lease timeout.
                self.queue.release_worker(worker_id)
            with self._lock:
                if conn in self._connections:
                    self._connections.remove(conn)
                # Prune this handler too, or a long-lived coordinator
                # with flapping workers accumulates dead Thread objects.
                current = threading.current_thread()
                if current in self._handlers:
                    self._handlers.remove(current)
                # Closed under the lock, so close() never shuts down a
                # descriptor number that was closed and reused.
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass

    def _merge_telemetry(self, blob: object) -> None:
        """Fold one piggybacked telemetry frame into the queue's registry.

        Telemetry is freight, never protocol: a malformed frame is
        counted and dropped without failing the op it rode on.
        """
        try:
            if not isinstance(blob, (bytes, bytearray, memoryview)):
                raise WireFormatError(
                    f"telemetry field must be bytes, got {type(blob).__name__}"
                )
            self._merger.merge(decode_telemetry(blob))
        except (WireFormatError, ValueError):
            self._m_telemetry_errors.inc()

    def _finish_stream(
        self,
        streams: dict[str, _ResultStream],
        task_id: str,
        worker_id: str,
        seconds: float,
    ) -> tuple:
        """Reassemble a completed stream into a queue completion.

        Returns the reply to send: ``("ok",)`` on success, or
        ``("error", reason)`` after reporting a malformed stream to the
        queue as a shard failure (requeue/poison semantics apply).
        """
        stream = streams.pop(task_id, None)
        if stream is None:
            reason = f"result-end for {task_id[:12]} without result-begin"
        else:
            reason = stream.error()
        if reason is None:
            try:
                arrays = decode_arrays(b"".join(stream.frames))
            except WireFormatError as error:
                reason = f"wire v2 decode failed: {error}"
        if reason is not None:
            self._m_stream_errors.inc()
            self.queue.fail(task_id, worker_id, f"streamed result discarded: {reason}")
            return ("error", reason)
        self.queue.complete(task_id, worker_id, arrays, seconds)
        self._m_streamed.inc()
        return ("ok",)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting, drop every worker connection. Idempotent.

        Closing a socket does not wake a thread blocked on it, so every
        socket is shut down first: the accept thread's ``accept()`` and
        each handler's ``recv()`` return at once, and each handler then
        closes its own connection on the way out.
        """
        if self._closing.is_set():
            return
        self._closing.set()
        # multiprocessing's Listener exposes no fileno(); its socket does.
        _shutdown(self._listener._listener._socket.fileno())
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - platform-dependent
            pass
        with self._lock:
            # A handler closes its connection under this lock, so every
            # connection still listed here is open.
            for conn in self._connections:
                _shutdown(conn.fileno())
            self._connections = []
            handlers, self._handlers = self._handlers, []
        self._accept_thread.join(timeout=5.0)
        for handler in handlers:
            handler.join(timeout=5.0)


def _shutdown(fd: int) -> None:
    """``shutdown(SHUT_RDWR)`` the socket behind ``fd``, leaving ``fd``
    open: any thread blocked on it wakes up, and its owner still closes
    it."""
    try:
        with socket.socket(fileno=os.dup(fd)) as sock:
            sock.shutdown(socket.SHUT_RDWR)
    except OSError:  # already shut down, or never connected
        pass
