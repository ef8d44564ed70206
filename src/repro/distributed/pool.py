"""Warm worker pools: one cluster, many runs, zero re-spawns.

Cold-starting a distributed run pays for everything that is *not*
compute: spawning worker processes, re-importing numpy and the repro
package in each, re-binding the broker socket, re-running the HMAC
handshakes, and re-memoising the deterministic VGG backbone per
process.  At small N those costs dwarf the shard work — the committed
benchmark showed distributed 7–10× *slower* than serial at N=80 almost
entirely because of them.  None of that work changes between runs, so
a :class:`WorkerPool` pays it once and keeps the cluster warm.

A pool wraps a ``persistent`` :class:`~repro.distributed.coordinator.Coordinator`:
``Goggles``/engine teardown between runs calls plain ``close()``, which
a persistent coordinator ignores, so the workers, their warmed imports
and backbones, and the broker socket all survive until the *pool* is
closed (explicitly, via ``with``, or at garbage collection).  Reuse is
observable: :attr:`workers_spawned` counts the coordinator's worker
handles, and the coordinator never respawns, so a test can assert a
second run spawned zero new workers.

Usage::

    with WorkerPool(n_workers=4) as pool:
        for config in experiments:
            with Goggles(config, coordinator=pool) as goggles:
                labels = goggles.label(images)   # warm after run 1

Everything that accepts a coordinator also accepts a pool — the
engines unwrap it through the duck-typed ``as_coordinator()`` method.
"""

from __future__ import annotations

from repro.distributed.coordinator import Coordinator, DistributedConfig
from repro.engine.cache import ArtifactCache
from repro.obs import MetricsRegistry

__all__ = ["WorkerPool", "as_coordinator"]


def as_coordinator(candidate):
    """Unwrap a Coordinator-or-WorkerPool into the Coordinator inside.

    Duck-typed (anything exposing ``as_coordinator()`` qualifies) so
    call sites in the engines need no import of this module — and no
    isinstance ladder — to accept either shape.  Plain coordinators
    pass through unchanged; ``None`` stays ``None``.
    """
    unwrap = getattr(candidate, "as_coordinator", None)
    return unwrap() if callable(unwrap) else candidate


class WorkerPool:
    """A persistent local cluster shared across runs in one process.

    Parameters:
        config: full session configuration; mutually exclusive with the
            ``n_workers``/``worker_mode`` shorthand.
        n_workers: local workers to keep warm (shorthand for a default
            loopback :class:`DistributedConfig`).
        worker_mode: ``"process"`` or ``"thread"`` (shorthand only).
        cache: optional shared artifact cache mounted on the
            coordinator (and on thread workers).
        registry: the session's one counter store (shard timelines,
            broker and coordinator counters, merged worker telemetry);
            default process-wide.
    """

    def __init__(
        self,
        config: DistributedConfig | None = None,
        *,
        n_workers: int = 2,
        worker_mode: str = "process",
        cache: ArtifactCache | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if config is None:
            config = DistributedConfig(n_workers=n_workers, worker_mode=worker_mode)
        elif config.n_workers == 0:
            raise ValueError(
                "a WorkerPool exists to keep local workers warm; config.n_workers "
                "must be >= 1 (use a bare Coordinator for external-worker sessions)"
            )
        self._coordinator = Coordinator(config, cache=cache, persistent=True, registry=registry)
        self._closed = False

    # ------------------------------------------------------------------
    # The unwrap protocol (what Goggles / the engines call)
    # ------------------------------------------------------------------
    def as_coordinator(self) -> Coordinator:
        """The persistent coordinator this pool keeps warm."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        return self._coordinator

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> DistributedConfig:
        return self._coordinator.config

    @property
    def started(self) -> bool:
        """Whether the broker is bound and workers are live."""
        return self._coordinator.started

    @property
    def workers_spawned(self) -> int:
        """Worker processes/threads the open pool's coordinator holds.

        A per-pool number, not a registry total: the coordinator spawns
        each worker once and never respawns, so this stays flat across
        warm runs — run twice, expect the same number you started with.
        """
        coordinator = self._coordinator
        return len(coordinator._thread_workers) + len(coordinator._processes)

    def warm_up(self) -> "WorkerPool":
        """Bind the broker and spawn the workers now, not at first use.

        Lets callers pay the cold start at a time of their choosing
        (service startup, before a benchmark's timed region).
        """
        self._coordinator.start()
        return self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Really shut the cluster down. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._coordinator.close(force=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
