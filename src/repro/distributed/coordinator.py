"""The coordinator: plan shards, serve workers, merge bit-identical results.

The coordinator is the distributed runtime's only stateful piece.  It
owns the lease-based :class:`~repro.distributed.queue.TaskQueue`, binds
the :class:`~repro.distributed.broker.Broker` socket that workers
(``goggles-repro worker``) join, and exposes the three stage-level
operations the engines need:

* :meth:`Coordinator.extract_pool_features` — stage 1: the corpus is
  cut at the serial chunked-batch boundaries, shipped as
  ``"extraction"`` shards (the worker rebuilds the deterministic
  backbone from its config), and the pool-feature chunks are
  concatenated back in corpus order — bit-identical to the serial
  chunked extraction.
* :meth:`Coordinator.best_similarities` — stage 2: the (images ×
  prototype-rows) grid is cut at the serial tile boundaries, shipped as
  ``"similarity"`` shards, and merged back into the exact array the
  serial kernel produces.
* :meth:`Coordinator.fit_base_models` — stage 4: one ``"base-fit"``
  shard per affinity function; every shard derives the same per-function
  seed stream as a serial fit, so posteriors are bit-identical no matter
  how many workers computed them, in what order, or after how many
  lease reassignments.

Construction is lazy and cheap — no socket is bound until the first
:meth:`run` or :attr:`Coordinator.address` (a fully cache-hot rerun
never binds one at all), so a ``Goggles`` handed a coordinator costs
nothing until it actually labels.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.core.inference.base_gmm import GMMFitResult
from repro.core.inference.hierarchical import HierarchicalConfig
from repro.distributed.broker import Broker
from repro.distributed.queue import PoisonShardError, ShardAutotuner, TaskQueue
from repro.distributed.tasks import (
    ShardPlanner,
    ShardTask,
    load_shard_result,
    unpack_gmm_result,
)
from repro.engine.cache import ArtifactCache
from repro.nn.vgg import VGGConfig
from repro.obs import MetricsRegistry, default_registry

__all__ = [
    "DEFAULT_AUTHKEY",
    "default_authkey",
    "require_safe_authkey",
    "parse_address",
    "DistributedConfig",
    "Coordinator",
]

DEFAULT_AUTHKEY = "goggles-repro"


def default_authkey() -> str:
    """The shared connection secret (override with ``GOGGLES_AUTHKEY``)."""
    return os.environ.get("GOGGLES_AUTHKEY", DEFAULT_AUTHKEY)


_LOOPBACK_HOSTS = ("127.0.0.1", "localhost", "::1")


def require_safe_authkey(host: str, authkey: str) -> None:
    """Refuse a routable endpoint secured only by the public default key.

    The transport unpickles peer messages after the HMAC handshake, so
    anyone who knows the authkey can execute code on the peer.  On
    loopback that is the local user either way; on a routable address
    the well-known built-in default would hand that power to the whole
    network, so a real secret is mandatory there.
    """
    if host not in _LOOPBACK_HOSTS and authkey == DEFAULT_AUTHKEY:
        raise ValueError(
            f"refusing the built-in default authkey on routable address {host!r}: "
            "the connection handshake gates arbitrary (pickle) payloads, so a "
            "public key means remote code execution — set GOGGLES_AUTHKEY or "
            "pass an explicit secret (CLI: --authkey)"
        )


def parse_address(spec: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (port 0 = ephemeral)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"broker address must look like host:port, got {spec!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"broker address must look like host:port, got {spec!r}") from None


@dataclass(frozen=True)
class DistributedConfig:
    """Configuration of one coordinator session.

    Attributes:
        bind: ``host:port`` the broker listens on; port 0 binds an
            ephemeral port (read it back from ``Coordinator.address``).
            Bind a routable host to accept workers from other machines.
        authkey: shared HMAC secret for connection authentication;
            defaults to ``$GOGGLES_AUTHKEY`` or ``"goggles-repro"``.
        lease_timeout: seconds before an unresponsive worker's shard is
            reassigned.
        max_attempts: lease grants per shard before it is poisoned.
        run_timeout: overall deadline for one :meth:`Coordinator.run`;
            ``None`` waits forever.
        lease_target_seconds: compute seconds one lease grant aims to
            carry once the autotuner has calibrated a shard kind.
        straggler_factor: a completed shard whose worker-measured
            compute exceeded this multiple of the autotuner's EWMA
            estimate for its kind is counted as a straggler
            (``goggles_stragglers_total{kind}``) and logged with shard
            id and worker.
    """

    bind: str = "127.0.0.1:0"
    authkey: str = field(default_factory=default_authkey)
    lease_timeout: float = 30.0
    max_attempts: int = 3
    run_timeout: float | None = 600.0
    lease_target_seconds: float = 0.1
    straggler_factor: float = 4.0

    def __post_init__(self) -> None:
        parse_address(self.bind)  # fail fast on malformed addresses
        if self.run_timeout is not None and self.run_timeout <= 0:
            raise ValueError(f"run_timeout must be > 0, got {self.run_timeout}")
        if self.lease_target_seconds <= 0:
            raise ValueError(f"lease_target_seconds must be > 0, got {self.lease_target_seconds}")
        if self.straggler_factor <= 1.0:
            raise ValueError(f"straggler_factor must be > 1, got {self.straggler_factor}")


class Coordinator:
    """Coordinator session over the fault-tolerant task queue.

    The caller opens a coordinator and closes it; nothing else does.
    Workers join it from outside, as ``goggles-repro worker --connect
    HOST:PORT`` processes on this machine or any other that reaches
    :attr:`address`.  A coordinator kept open across consecutive
    ``Goggles`` runs is a warm pool: the broker socket and the connected
    workers survive between runs, and each worker process keeps its
    imported modules and memoised VGG backbone, which is most of what a
    cold run pays for.

    ``registry`` (default: process-wide) is the session's one counter
    store: the coordinator, queue, broker and merged worker telemetry
    count into it, so a count read through any of them is that
    registry's total.  Tests asserting exact counts pass a fresh one.
    """

    def __init__(
        self,
        config: DistributedConfig | None = None,
        *,
        cache: ArtifactCache | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.config = config or DistributedConfig()
        self.cache = cache
        self.registry = registry if registry is not None else default_registry()
        self.queue = TaskQueue(
            lease_timeout=self.config.lease_timeout,
            max_attempts=self.config.max_attempts,
            autotuner=ShardAutotuner(target_lease_seconds=self.config.lease_target_seconds),
            registry=self.registry,
            straggler_factor=self.config.straggler_factor,
        )
        self._broker: Broker | None = None
        self._closed = False
        self._m_planned = self.registry.counter(
            "goggles_coordinator_shards_planned_total",
            "Shards enqueued for workers after the cache lookup.",
        )
        self._m_cache_hits = self.registry.counter(
            "goggles_coordinator_shard_cache_hits_total",
            "Shards resolved from the artifact cache without enqueueing.",
        )
        self._m_writebacks = self.registry.counter(
            "goggles_pool_cache_writebacks_total", "Shard results written back into the artifact cache."
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._broker is not None

    @property
    def address(self) -> tuple[str, int]:
        """The broker's bound (host, port); starts the session."""
        self.start()
        assert self._broker is not None
        return self._broker.address

    def start(self) -> "Coordinator":
        """Bind the broker socket. Idempotent."""
        if self._closed:
            raise RuntimeError("coordinator is closed")
        if self._broker is not None:
            return self
        bind = parse_address(self.config.bind)
        require_safe_authkey(bind[0], self.config.authkey)
        self._broker = Broker(self.queue, bind=bind, authkey=self.config.authkey)
        return self

    def close(self) -> None:
        """Close the broker and its socket. Idempotent.

        Connected workers see the connection drop and exit once their
        reconnect budget runs out.
        """
        if self._closed:
            return
        self._closed = True
        if self._broker is not None:
            self._broker.close()

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Running shards
    # ------------------------------------------------------------------
    def run(self, tasks: list[ShardTask]) -> dict[str, dict]:
        """Execute shards on the cluster; returns ``{task_id: arrays}``.

        Shards whose content-addressed result already sits in the
        shared cache are resolved locally without touching the queue —
        a fully warm rerun never even binds the broker socket.  Raises
        :class:`PoisonShardError` when a shard exhausts its retry
        budget and :class:`TimeoutError` when ``run_timeout`` passes
        with shards incomplete (e.g. no worker ever connected).
        """
        if self._closed:
            raise RuntimeError("coordinator is closed")
        results: dict[str, dict] = {}
        outstanding: list[ShardTask] = []
        seen: set[str] = set()
        for task in tasks:
            if task.task_id in seen or task.task_id in results:
                continue
            seen.add(task.task_id)
            if self.cache is not None:
                cached = load_shard_result(self.cache, task)
                if cached is not None:
                    results[task.task_id] = cached
                    self._m_cache_hits.inc()
                    continue
            outstanding.append(task)
        self._m_planned.inc(len(outstanding))
        if not outstanding:
            return results
        self.start()
        for task in outstanding:
            self.queue.add(task)
        ids = [task.task_id for task in outstanding]
        finished = self.queue.wait(ids, timeout=self.config.run_timeout)
        poisoned = self.queue.poisoned_among(ids)
        if poisoned:
            worst = poisoned[0]
            self.queue.forget(ids)
            raise PoisonShardError(worst.task, worst.attempts, worst.errors)
        if not finished:
            incomplete = self.queue.outstanding(ids)
            self.queue.forget(ids)
            raise TimeoutError(
                f"distributed run timed out after {self.config.run_timeout}s with "
                f"{incomplete} shard(s) incomplete — are any workers connected to "
                f"{self._broker.address if self._broker else self.config.bind}?"
            )
        for task in outstanding:
            result = self.queue.result(task.task_id)
            assert result is not None
            results[task.task_id] = result
            if self.cache is not None and not self.cache.has("shard", task.task_id):
                # Coordinator-side write-back: workers with a mounted
                # cache already saved this, but cacheless (e.g. remote)
                # workers did not — persisting here makes a coordinator
                # restart resume a half-finished plan from `shard` cache
                # hits instead of recomputing.
                self.cache.save_arrays("shard", task.task_id, result)
                self._m_writebacks.inc()
        self.queue.forget(ids)
        return results

    # ------------------------------------------------------------------
    # Stage-level operations (what the engines call)
    # ------------------------------------------------------------------
    def extract_pool_features(
        self,
        vgg_config: VGGConfig,
        images: np.ndarray,
        *,
        layers: tuple[int, ...],
        batch_size: int | None = 32,
    ) -> dict[int, np.ndarray]:
        """Distributed drop-in for :func:`repro.engine.features.extract_pool_features`.

        Merge invariant: the corpus is cut at the serial chunked-batch
        boundaries, every shard runs the serial per-chunk forward pass
        (the backbone is per-sample independent), and the chunks are
        concatenated back in corpus order — so the assembled
        ``{layer: (N, C_L, H_L, W_L)}`` mapping is bit-identical to a
        serial extraction at the same ``batch_size``, *strides
        included*: channels-last chunks travel as their contiguous
        ``(N, H, W, C)`` form and are re-viewed here, because the
        downstream similarity GEMM rounds by operand layout (see
        :func:`repro.distributed.tasks.extraction_task`).
        """
        layers = tuple(int(layer) for layer in layers)
        planner = ShardPlanner()
        tasks, order = planner.extraction_shards(vgg_config, images, layers, batch_size)
        results = self.run(tasks)
        chunks: dict[int, list[np.ndarray]] = {layer: [] for layer in layers}
        for task_id in order:
            arrays = results[task_id]
            for layer in layers:
                part = np.asarray(arrays[f"pool_{layer}"])
                if bool(arrays[f"channels_last_{layer}"]):
                    part = part.transpose(0, 3, 1, 2)  # restore the serial view
                chunks[layer].append(part)
        return {
            layer: parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
            for layer, parts in chunks.items()
        }

    def best_similarities(
        self,
        prototypes: np.ndarray,
        unit_vectors: np.ndarray,
        *,
        row_tile: int | None = 32,
        col_tile: int | None = None,
        dtype: np.dtype | type = np.float64,
        out_dtype: np.dtype | type | None = None,
    ) -> np.ndarray:
        """Distributed drop-in for :func:`repro.engine.tiling.best_similarities`.

        Merge invariant: shards are cut at the serial tile boundaries
        and each computes the serial kernel's exact per-image matmuls,
        so the assembled array is bit-identical to a serial call.
        Shards return their blocks in the compute dtype; ``out_dtype``
        is the table's, as in the local kernel (``None``: float64).
        """
        planner = ShardPlanner(row_tile=row_tile, col_tile=col_tile)
        tasks, targets = planner.similarity_shards(prototypes, unit_vectors, dtype)
        results = self.run(tasks)
        out = np.empty(
            (prototypes.shape[0], unit_vectors.shape[0]),
            dtype=np.float64 if out_dtype is None else np.dtype(out_dtype),
        )
        for task_id, slots in targets.items():
            best = results[task_id]["best"]
            for (i0, i1), (j0, j1) in slots:
                out[j0:j1, i0:i1] = best
        return out

    def fit_base_models(
        self,
        affinity,
        config: HierarchicalConfig,
        initializers: list[np.ndarray] | None = None,
    ) -> tuple[GMMFitResult, ...]:
        """Distributed stage-1 inference: one base-fit shard per function."""
        planner = ShardPlanner()
        tasks = planner.base_fit_shards(affinity, config, initializers)
        results = self.run(tasks)
        return tuple(unpack_gmm_result(results[task.task_id]) for task in tasks)
