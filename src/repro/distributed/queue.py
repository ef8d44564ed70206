"""Lease-based fault-tolerant task queue (the broker's bookkeeping).

Workers *lease* shards rather than take them: every lease carries a
deadline, and a worker that dies, hangs, or disconnects mid-shard
simply lets its lease expire (disconnects release it immediately),
after which the shard goes back to the pending queue for the next
worker that asks.  Each grant consumes one unit of the shard's retry
budget; a shard that keeps burning budget is declared *poisoned* and
surfaced as a :class:`PoisonShardError` instead of being retried
forever — the escape hatch that turns a deterministic crash into a
clear, actionable error rather than a silently hung cluster.

Because shard tasks are pure and content-addressed, the at-least-once
execution this protocol implies is safe: a lease that expired because
its worker was merely *slow* may still complete later, and the (by
construction identical) result is accepted or ignored idempotently.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.distributed.tasks import ShardTask
from repro.obs import MetricsRegistry, default_registry

__all__ = ["PoisonShardError", "ShardAutotuner", "TaskQueue"]

logger = logging.getLogger(__name__)


class ShardAutotuner:
    """Calibrates how many shards one lease round-trip should carry.

    The per-shard compute of a run is unknown until shards complete, so
    the tuner starts conservative — one shard per lease — and re-plans
    from measurements: workers report each shard's compute seconds with
    its result, the tuner keeps a per-kind exponential moving average,
    and :meth:`plan` grants shards until their *estimated* combined
    compute reaches ``target_lease_seconds`` (default 100ms).  Tiny
    shards therefore batch aggressively (one round-trip carries dozens)
    while heavyweight extraction shards stay near one per lease, and a
    mixed queue gets a mixed batch that still lands near the target.

    Thread-safety is the caller's: :class:`TaskQueue` drives the tuner
    under its own condition lock, and publishes each new estimate as
    the ``goggles_autotuner_lease_seconds_ewma{kind}`` gauge.
    """

    def __init__(self, target_lease_seconds: float = 0.1, smoothing: float = 0.3):
        if target_lease_seconds <= 0:
            raise ValueError(f"target_lease_seconds must be > 0, got {target_lease_seconds}")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        self.target_lease_seconds = float(target_lease_seconds)
        self.smoothing = float(smoothing)
        self._seconds: dict[str, float] = {}  # kind -> EWMA of compute seconds

    def observe(self, kind: str, seconds: float) -> None:
        """Fold one completed shard's measured compute into the EWMA."""
        seconds = max(float(seconds), 0.0)
        previous = self._seconds.get(kind)
        if previous is None:
            self._seconds[kind] = seconds
        else:
            self._seconds[kind] = previous + self.smoothing * (seconds - previous)

    def estimate(self, kind: str) -> float | None:
        """EWMA compute seconds of one ``kind`` shard (``None`` = uncalibrated)."""
        return self._seconds.get(kind)

    def plan(self, kinds: Iterable[str], limit: int) -> int:
        """How many of the next pending shards to grant in one lease.

        ``kinds`` lists the pending shards in grant order; the count
        returned is the longest prefix whose estimated compute stays
        within ``target_lease_seconds`` — always at least one, never
        more than ``limit``, and exactly one for any kind that has no
        measurement yet (the calibration grant that produces one).
        """
        granted = 0
        budget = self.target_lease_seconds
        for kind in kinds:
            if granted >= limit:
                break
            estimate = self._seconds.get(kind)
            if estimate is None:
                # Uncalibrated kind: grant it alone so its measurement
                # arrives before anything batches behind a guess.
                return granted if granted else 1
            if granted and estimate > budget:
                break
            granted += 1
            budget -= estimate
        return max(granted, 1)


class PoisonShardError(RuntimeError):
    """A shard exhausted its retry budget; carries the failure history."""

    def __init__(self, task: ShardTask, attempts: int, errors: list[str]):
        self.task = task
        self.attempts = attempts
        self.errors = list(errors)
        last = self.errors[-1] if self.errors else "lease expired"
        super().__init__(
            f"shard {task.task_id[:12]} ({task.kind}) exceeded its retry budget "
            f"({attempts} attempts); last error: {last}"
        )


@dataclass
class _Tracked:
    """Book-keeping of one shard not yet completed.

    ``queued_at``/``leased_at`` are the shard's timeline: enqueue (or
    most recent requeue) and most recent lease grant, on the queue's
    clock.  Together with the worker-reported compute seconds they
    decompose a shard's life into queue-wait / compute / transfer.
    """

    task: ShardTask
    attempts: int = 0
    worker: str | None = None
    deadline: float | None = None
    errors: list[str] = field(default_factory=list)
    queued_at: float | None = None
    leased_at: float | None = None

    @property
    def leased(self) -> bool:
        return self.worker is not None


class TaskQueue:
    """Thread-safe shard queue with leases, retries, and poison shards.

    Parameters:
        lease_timeout: seconds a worker may hold a shard before it is
            presumed dead and the shard is reassigned.
        max_attempts: lease grants per shard before it is poisoned.
        clock: monotonic time source (injectable for tests).
        registry: the one store of this queue's counts (timeline
            histograms, completion/requeue/failure/straggler counters,
            the autotuner gauge) and its broker's (default: process-wide).
        straggler_factor: a completed shard whose compute exceeded
            ``straggler_factor ×`` the autotuner's EWMA estimate for
            its kind (taken *before* folding in the new measurement) is
            counted in ``goggles_stragglers_total{kind}`` and logged
            with shard id and worker.
        straggler_min_seconds: absolute floor below which a shard is
            never a straggler (scheduler jitter on micro-shards is
            noise, not a sick worker).
    """

    def __init__(
        self,
        lease_timeout: float = 30.0,
        max_attempts: int = 3,
        clock: Callable[[], float] = time.monotonic,
        autotuner: ShardAutotuner | None = None,
        registry: MetricsRegistry | None = None,
        straggler_factor: float = 4.0,
        straggler_min_seconds: float = 0.05,
    ):
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got {lease_timeout}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if straggler_factor <= 1.0:
            raise ValueError(f"straggler_factor must be > 1, got {straggler_factor}")
        self.lease_timeout = float(lease_timeout)
        self.max_attempts = int(max_attempts)
        self.autotuner = autotuner or ShardAutotuner()
        self.straggler_factor = float(straggler_factor)
        self.straggler_min_seconds = float(straggler_min_seconds)
        self._clock = clock
        self._cond = threading.Condition()
        self._tracked: dict[str, _Tracked] = {}
        self._pending: deque[str] = deque()
        self._results: dict[str, dict] = {}
        self._poisoned: dict[str, _Tracked] = {}
        self.registry = registry = registry if registry is not None else default_registry()
        self._m_queue_wait = registry.histogram(
            "goggles_shard_queue_wait_seconds",
            "Enqueue (or requeue) to lease grant, per shard, by kind.",
            labelnames=("kind",),
        )
        self._m_compute = registry.histogram(
            "goggles_shard_compute_seconds",
            "Worker-measured compute seconds per completed shard, by kind.",
            labelnames=("kind",),
        )
        self._m_transfer = registry.histogram(
            "goggles_shard_transfer_seconds",
            "Lease-to-report wall time minus worker compute (wire + scheduling), by kind.",
            labelnames=("kind",),
        )
        self._m_stragglers = registry.counter(
            "goggles_stragglers_total",
            "Completed shards whose compute exceeded the straggler threshold, by kind.",
            labelnames=("kind",),
        )
        self._m_completed = registry.counter(
            "goggles_coordinator_shards_completed_total",
            "Shards the coordinator accepted a completion for, by kind.",
            labelnames=("kind",),
        )
        self._m_requeued = registry.counter(
            "goggles_shard_requeues_total",
            "Shards put back in the queue after a failure, expiry or disconnect, by kind.",
            labelnames=("kind",),
        )
        self._m_failed = registry.counter(
            "goggles_shard_failures_total",
            "Shard failures reported by the worker holding the lease, by kind.",
            labelnames=("kind",),
        )
        self._m_ewma = registry.gauge(
            "goggles_autotuner_lease_seconds_ewma",
            "Autotuner EWMA of per-shard compute seconds, by shard kind.",
            labelnames=("kind",),
        )

    # ------------------------------------------------------------------
    # Producer side (coordinator)
    # ------------------------------------------------------------------
    def add(self, task: ShardTask) -> bool:
        """Enqueue a shard; ``False`` if its id is already known."""
        with self._cond:
            tid = task.task_id
            if tid in self._tracked or tid in self._results or tid in self._poisoned:
                return False
            self._tracked[tid] = _Tracked(task=task, queued_at=self._clock())
            self._pending.append(tid)
            self._cond.notify_all()
            return True

    def wait(self, task_ids: Iterable[str], timeout: float | None = None) -> bool:
        """Block until every listed shard is done *or any is poisoned*.

        Returns ``False`` only on timeout.  Re-checks lease deadlines
        while waiting, so dead workers are detected even when no live
        worker is polling.
        """
        ids = set(task_ids)
        deadline = None if timeout is None else self._clock() + timeout
        # Wake often enough to reap expired leases promptly.
        step = max(min(1.0, self.lease_timeout / 4.0), 0.01)
        with self._cond:
            while True:
                self._reap(self._clock())
                if any(tid in self._poisoned for tid in ids):
                    return True
                if all(tid in self._results for tid in ids):
                    return True
                now = self._clock()
                if deadline is not None and now >= deadline:
                    return False
                remaining = step if deadline is None else min(step, deadline - now)
                self._cond.wait(remaining)

    def result(self, task_id: str) -> dict | None:
        with self._cond:
            return self._results.get(task_id)

    def poisoned_among(self, task_ids: Iterable[str]) -> list[_Tracked]:
        with self._cond:
            return [self._poisoned[tid] for tid in task_ids if tid in self._poisoned]

    def outstanding(self, task_ids: Iterable[str]) -> int:
        """How many of the listed shards are still pending or leased."""
        with self._cond:
            return sum(1 for tid in task_ids if tid in self._tracked)

    def forget(self, task_ids: Iterable[str]) -> None:
        """Drop every trace of the listed shards (end of a run)."""
        with self._cond:
            for tid in task_ids:
                self._tracked.pop(tid, None)
                self._results.pop(tid, None)
                self._poisoned.pop(tid, None)
            # _pending entries pointing at forgotten ids are skipped
            # lazily by lease().

    # ------------------------------------------------------------------
    # Worker side (via the broker)
    # ------------------------------------------------------------------
    def lease(self, worker_id: str) -> ShardTask | None:
        """Grant the next pending shard to ``worker_id`` (or ``None``)."""
        granted = self.lease_many(worker_id, 1)
        return granted[0] if granted else None

    def lease_many(self, worker_id: str, limit: int) -> list[ShardTask]:
        """Grant up to ``limit`` pending shards in one call.

        The actual grant size is the smaller of ``limit`` (the worker's
        appetite) and the :class:`ShardAutotuner`'s plan for the shards
        at the head of the queue — about ``target_lease_seconds`` of
        estimated compute, so one round-trip carries many tiny shards
        but a single heavyweight one.  Every granted shard burns one
        unit of its retry budget and carries the usual lease deadline.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        now = self._clock()
        granted: list[ShardTask] = []
        with self._cond:
            self._reap(now)
            pending: list[_Tracked] = []
            while self._pending and len(pending) < limit:
                tid = self._pending.popleft()
                tracked = self._tracked.get(tid)
                if tracked is None or tracked.leased:
                    continue  # completed elsewhere or stale entry
                pending.append(tracked)
            take = (
                self.autotuner.plan((t.task.kind for t in pending), limit) if pending else 0
            )
            # Ungranted overflow returns to the head, original order kept.
            for tracked in reversed(pending[take:]):
                self._pending.appendleft(tracked.task.task_id)
            for tracked in pending[:take]:
                tracked.attempts += 1
                tracked.worker = worker_id
                tracked.deadline = now + self.lease_timeout
                tracked.leased_at = now
                if tracked.queued_at is not None:
                    self._m_queue_wait.observe(
                        max(now - tracked.queued_at, 0.0), kind=tracked.task.kind
                    )
                granted.append(tracked.task)
        return granted

    def complete(
        self, task_id: str, worker_id: str, result: dict, seconds: float | None = None
    ) -> bool:
        """Record a shard result (idempotent; late duplicates ignored).

        Results are accepted even from expired or reassigned leases —
        shards are pure and content-addressed, so any completion is the
        right answer.  A late completion even rescues a poisoned shard.
        """
        now = self._clock()
        with self._cond:
            tracked = self._tracked.pop(task_id, None)
            if tracked is None:
                tracked = self._poisoned.pop(task_id, None)
                if tracked is None:
                    return False  # already done or never known
            kind = tracked.task.kind
            if seconds is not None:
                # Straggler check against the estimate *before* this
                # measurement folds in, or the straggler drags its own
                # threshold up.
                estimate = self.autotuner.estimate(kind)
                threshold = max(
                    self.straggler_factor * estimate if estimate is not None else float("inf"),
                    self.straggler_min_seconds,
                )
                if estimate is not None and seconds > threshold:
                    self._m_stragglers.inc(kind=kind)
                    logger.warning(
                        "straggler shard %s (%s): %.3fs compute on worker %s "
                        "(EWMA estimate %.3fs, factor %.1f)",
                        task_id[:12], kind, seconds, worker_id, estimate, self.straggler_factor,
                    )
                self.autotuner.observe(kind, seconds)
                self._m_ewma.set(self.autotuner.estimate(kind), kind=kind)
                self._m_compute.observe(max(float(seconds), 0.0), kind=kind)
            if tracked.leased_at is not None:
                elapsed = max(now - tracked.leased_at, 0.0)
                overhead = elapsed - (seconds or 0.0)
                self._m_transfer.observe(max(overhead, 0.0), kind=kind)
            self._m_completed.inc(kind=kind)
            self._results[task_id] = result
            self._cond.notify_all()
            return True

    def fail(self, task_id: str, worker_id: str, error: str) -> None:
        """Record a worker-reported failure; requeue or poison."""
        with self._cond:
            tracked = self._tracked.get(task_id)
            if tracked is None or tracked.worker != worker_id:
                return  # stale report from an expired lease
            self._m_failed.inc(kind=tracked.task.kind)
            tracked.errors.append(error)
            self._requeue_or_poison(tracked)

    def release_worker(self, worker_id: str) -> int:
        """Requeue every shard leased by a worker (disconnect detection)."""
        released = 0
        with self._cond:
            for tracked in list(self._tracked.values()):
                if tracked.worker == worker_id:
                    tracked.errors.append(f"worker {worker_id} disconnected mid-lease")
                    self._requeue_or_poison(tracked)
                    released += 1
        return released

    # ------------------------------------------------------------------
    # Internals (condition held)
    # ------------------------------------------------------------------
    def _requeue_or_poison(self, tracked: _Tracked) -> None:
        tid = tracked.task.task_id
        tracked.worker = None
        tracked.deadline = None
        tracked.leased_at = None
        if tracked.attempts >= self.max_attempts:
            self._tracked.pop(tid, None)
            self._poisoned[tid] = tracked
        else:
            self._m_requeued.inc(kind=tracked.task.kind)
            tracked.queued_at = self._clock()  # wait clock restarts on requeue
            self._pending.append(tid)
        self._cond.notify_all()

    def _reap(self, now: float) -> None:
        for tracked in list(self._tracked.values()):
            if tracked.leased and tracked.deadline is not None and tracked.deadline < now:
                tracked.errors.append(f"lease expired after {self.lease_timeout}s (worker {tracked.worker})")
                self._requeue_or_poison(tracked)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """This queue's live shard counts, plus the event totals of the
        registry it counts into (summed over every queue sharing it)."""
        with self._cond:
            leased = sum(1 for t in self._tracked.values() if t.leased)
            pending = len(self._tracked) - leased
            poisoned = len(self._poisoned)
        return {
            "pending": pending,
            "leased": leased,
            "completed": int(self._m_completed.total()),
            "requeued": int(self._m_requeued.total()),
            "failed": int(self._m_failed.total()),
            "poisoned": poisoned,
            "stragglers": int(self._m_stragglers.total()),
        }
