"""The staged affinity engine: orchestration, caching, incremental runs.

Stage graph (each stage's product is cacheable and reusable)::

    images ──(1) chunked extraction──> pool features
           ──(2) prototypes + tiled similarity──> affinity matrix
           ──(3) artifact cache──> {affinity, corpus state} on disk
    new images ──(4) incremental──> extended matrix (new rows/cols only)

The engine owns the runtime knobs (``batch_size``, tile sizes,
``n_jobs``, precision, ``cache_dir``) and delegates the math to an
:class:`~repro.engine.source.AffinitySource`.  Given a distributed
``coordinator``, it sends stages 1 and 2 to that session's workers; it
never opens or closes one.  Cache keys cover every value-affecting
input — the image bytes, the source signature, and the compute
precision — so a key hit is always safe to reuse and any other change
is an automatic miss.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.core.affinity import AffinityMatrix, SparseAffinityMatrix
from repro.engine.cache import ArtifactCache, MemmapBlockStore, hash_arrays
from repro.engine.source import AffinitySource, CorpusState, EngineRuntime
from repro.engine.tiling import topk_block
from repro.obs import span
from repro.utils.threads import usable_cores
from repro.utils.validation import check_images

__all__ = ["EngineConfig", "AffinityEngine"]

_PRECISIONS = {"float64": np.float64, "float32": np.float32}


@dataclass(frozen=True)
class EngineConfig:
    """Runtime configuration of the affinity engine.

    Attributes:
        batch_size: images per backbone forward pass (memory bound);
            ``None`` runs the whole corpus in one pass.
        row_tile / col_tile: similarity tile sizes over (images ×
            prototype rows); ``None`` disables that tiling axis.
            ``row_tile`` never changes values.  ``col_tile`` sets the
            row count of each similarity GEMM, and BLAS may round a
            small product differently, so a column-tiled table can be
            an ulp off the untiled one.  Column tiles are balanced, so
            only ``col_tile=1``, and ``2`` on an odd number of
            prototype rows, make one-row tiles, whose matmul is a
            matrix-vector product that BLAS always sums in another
            order.
        n_jobs: threads that extraction chunks and similarity tiles
            fan out over (and, downstream, base-model fits); defaults
            to the usable core count.  Above 1, opening the pool pins
            the process to one BLAS thread and one malloc arena
            (:func:`repro.utils.threads.pin_thread_budget`), so the
            pool, not OpenBLAS, owns the cores.  Values are identical
            at any width.
        precision: the dtype the backbone, prototypes and similarity
            run in; affinities are stored float64 on the dense path
            either way.  ``"float32"`` (default) keeps the labels:
            against ``"float64"`` it gives ≥ 99% posterior agreement
            and exact hard labels (tier-1 and ``bench_table1_labeling``
            check it), though a near-tie can flip one prototype and
            move single affinities by far more than float32 rounding.
            ``"float64"`` is the exact path, within ``atol=1e-12`` of
            the direct per-image form of Eq. 2 kept in
            ``tests/reference_affinity.py``.
        cache_dir: artifact cache directory; ``None`` disables caching.
        cache_max_bytes: size budget for the artifact cache; writes
            that push the directory above it evict least-recently-used
            entries.  ``None`` means unbounded.
        affinity_mode: ``"dense"`` (the bit-identity path, default) or
            ``"sparse"`` — keep only the ``top_k`` largest affinities
            per row per function block (exact blocked top-k; accuracy
            contract "≥ 99% posterior agreement and exact labels vs
            dense", enforced by ``bench_sparse_affinity``).
        top_k: kept entries per row on the sparse path; ``None`` means
            ``ceil(N / 4)``.  Sparse mode only.
        memmap: densify sparse blocks into memory-mapped ``.npy``
            files instead of fresh in-RAM arrays, so N can exceed RAM.
            Sparse mode only.
    """

    batch_size: int | None = 32
    row_tile: int | None = 32
    col_tile: int | None = None
    n_jobs: int = field(default_factory=usable_cores)
    precision: str = "float32"
    cache_dir: str | None = None
    cache_max_bytes: int | None = None
    affinity_mode: str = "dense"
    top_k: int | None = None
    memmap: bool = False

    def __post_init__(self) -> None:
        if self.precision not in _PRECISIONS:
            raise ValueError(f"precision must be one of {sorted(_PRECISIONS)}, got {self.precision!r}")
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.affinity_mode not in ("dense", "sparse"):
            raise ValueError(f"affinity_mode must be 'dense' or 'sparse', got {self.affinity_mode!r}")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.affinity_mode != "sparse" and (self.top_k is not None or self.memmap):
            raise ValueError("top_k and memmap require affinity_mode='sparse'")

    @property
    def dtype(self) -> type:
        return _PRECISIONS[self.precision]

    def runtime(self) -> EngineRuntime:
        return EngineRuntime(
            batch_size=self.batch_size,
            row_tile=self.row_tile,
            col_tile=self.col_tile,
            n_jobs=self.n_jobs,
            dtype=self.dtype,
        )


class AffinityEngine:
    """Builds, caches, and incrementally extends affinity matrices.

    ``coordinator`` (a :class:`repro.distributed.Coordinator`, or
    ``None``) is a plain attribute: with a session, extraction chunks
    and similarity tiles run as shards on its workers; without one,
    on the local ``n_jobs`` pool.  Whoever opened the session closes it.
    """

    def __init__(
        self,
        source: AffinitySource,
        config: EngineConfig | None = None,
        coordinator: "object | None" = None,
    ):
        self.source = source
        self.config = config or EngineConfig()
        self.cache = (
            ArtifactCache(self.config.cache_dir, max_bytes=self.config.cache_max_bytes)
            if self.config.cache_dir
            else None
        )
        self.coordinator = coordinator
        self._state: CorpusState | None = None
        self._state_key: str | None = None

    def _runtime(self) -> EngineRuntime:
        return dataclasses.replace(self.config.runtime(), coordinator=self.coordinator)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def _params(self) -> dict[str, object]:
        params = {**self.source.signature(), "precision": self.config.precision}
        if self.config.affinity_mode == "sparse":
            # The *configured* top_k addresses the artifact (None =
            # "ceil(N/4)" as a policy, resolved per corpus; the image
            # hash already covers N, so the resolved k is covered too).
            params["affinity_mode"] = "sparse"
            params["top_k"] = self.config.top_k
        return params

    def _corpus_key(self, data_hash: str) -> str:
        assert self.cache is not None
        return self.cache.key(data_hash, self._params())

    @property
    def state(self) -> CorpusState | None:
        """The in-memory corpus state of the last build/extend, if any."""
        return self._state

    @property
    def state_key(self) -> str | None:
        """Cache key of the current corpus state (``None`` when uncached)."""
        return self._state_key

    def restore_state(self, state: CorpusState | None, key: str | None) -> None:
        """Reinstall a previously captured ``(state, state_key)`` pair.

        The rollback half of an extend-then-infer transaction: a caller
        that snapshots ``(engine.state, engine.state_key)`` before
        :meth:`extend` can undo the extension if downstream work fails,
        so a failed batch never leaves its images in the corpus.
        """
        if state is None:
            self._forget()
        else:
            self._remember(state, key)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(
        self, images: np.ndarray, keep_state: bool | None = None
    ) -> AffinityMatrix | SparseAffinityMatrix:
        """Affinity matrix for ``images``; cache-aware.

        ``keep_state`` (default: on the dense path) additionally
        retains/caches the corpus state that :meth:`extend` needs.
        With ``affinity_mode="sparse"`` the result is a
        :class:`SparseAffinityMatrix` (same ``block(f)`` accessor) and
        corpus state is not kept — the sparse path is build-only.
        """
        with span("engine.build"):
            return self._build(images, keep_state)

    def _build(
        self, images: np.ndarray, keep_state: bool | None
    ) -> AffinityMatrix | SparseAffinityMatrix:
        images = check_images(images)
        if self.config.affinity_mode == "sparse":
            if keep_state:
                raise ValueError(
                    "affinity_mode='sparse' cannot keep corpus state: the sparse "
                    "path is build-only (incremental extension stays dense)"
                )
            return self._build_sparse(images)
        keep_state = True if keep_state is None else keep_state
        key = None
        if self.cache is not None:
            key = self._corpus_key(hash_arrays(images))
            cached = self._load_cached(key, need_state=keep_state)
            if cached is not None:
                return cached
        if not keep_state:
            self._forget()
        state = self.source.build_state(images, self._runtime())
        if keep_state:
            self._remember(state, key)
        if self.cache is not None and key is not None:
            self.cache.save_affinity(key, state.affinity)
            if keep_state:
                self._save_state(key, state)
        return state.affinity

    def _build_sparse(self, images: np.ndarray) -> SparseAffinityMatrix:
        """The sparse build path: stream blocks, top-k each, never hold
        the dense matrix (peak memory is one layer's blocks)."""
        key = None
        if self.cache is not None:
            key = self._corpus_key(hash_arrays(images))
            cached = self.cache.load_affinity_csr(key)
            if cached is not None:
                self._forget()
                return self._attach_store(cached, key)
        self._forget()
        cfg = self.config
        runtime = dataclasses.replace(self._runtime(), out_dtype=cfg.dtype)
        n = int(images.shape[0])
        k = min(cfg.top_k if cfg.top_k is not None else max(1, -(-n // 4)), n)
        data_parts: list[np.ndarray] = []
        index_parts: list[np.ndarray] = []
        fill_parts: list[np.ndarray] = []
        ids: list[object] = []
        for fid, block in self.source.iter_function_blocks(images, runtime):
            data, indices, fill = topk_block(block, k, row_tile=cfg.row_tile)
            data_parts.append(data)
            index_parts.append(indices)
            fill_parts.append(fill)
            ids.append(fid)
        sparse = SparseAffinityMatrix(
            data=np.stack(data_parts),
            indices=np.stack(index_parts),
            fill=np.stack(fill_parts),
            function_ids=tuple(ids),
        )
        if self.cache is not None and key is not None:
            self.cache.save_affinity_csr(key, sparse)
        return self._attach_store(sparse, key)

    def _attach_store(self, sparse: SparseAffinityMatrix, key: str | None) -> SparseAffinityMatrix:
        """Attach the out-of-core block store when ``memmap`` is on."""
        if not self.config.memmap:
            return sparse
        base_key = key if key is not None else sparse.content_hash()
        store = MemmapBlockStore(cache=self.cache, base_key=base_key)
        return sparse.with_store(store)

    def extend(self, new_images: np.ndarray) -> AffinityMatrix:
        """Extend the last built corpus with ``new_images``.

        Only the new rows and new column blocks are computed; the old
        N×N quadrant of every affinity block is reused.  Requires a
        prior :meth:`build` (with state) in this engine, or a cache
        hit that restored the state.
        """
        with span("engine.extend"):
            return self._extend(new_images)

    def _extend(self, new_images: np.ndarray) -> AffinityMatrix:
        new_images = check_images(new_images)
        if self.config.affinity_mode != "dense":
            raise RuntimeError(
                "extend() requires affinity_mode='dense': the sparse path is "
                "build-only (serving and online labeling stay on the dense path)"
            )
        if self._state is None:
            raise RuntimeError(
                "no corpus state: call build() on the original corpus first "
                "(with cache_dir set and the corpus cached, that build is a "
                "cheap disk load that restores the state)"
            )
        key = None
        if self.cache is not None and self._state_key is not None:
            # Chain the key: extended corpus = previous corpus ⊕ new bytes.
            key = self.cache.key(hash_arrays(new_images), {"previous": self._state_key})
            cached = self._load_cached(key, need_state=True)
            if cached is not None:
                return cached  # _load_cached installed the extended state
        state = self.source.extend_state(self._state, new_images, self._runtime())
        if key is not None:
            self.cache.save_affinity(key, state.affinity)
            self._save_state(key, state)
        self._remember(state, key)
        return state.affinity

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _load_cached(self, key: str, need_state: bool) -> AffinityMatrix | None:
        assert self.cache is not None
        matrix = self.cache.load_affinity(key)
        if matrix is None:
            return None
        if not need_state:
            self._forget()
            return matrix
        state = self.cache.load_arrays(
            "state",
            key,
            lambda stored: CorpusState(affinity=matrix, n_images=int(stored.pop("n_images")), arrays=stored),
        )
        if state is None:
            return None  # affinity alone is not enough; rebuild with state
        self._remember(state, key)
        return matrix

    def _save_state(self, key: str, state: CorpusState) -> None:
        assert self.cache is not None
        arrays = dict(state.arrays)
        arrays["n_images"] = np.int64(state.n_images)
        self.cache.save_arrays("state", key, arrays)

    def _remember(self, state: CorpusState, key: str | None) -> None:
        self._state = state
        self._state_key = key

    def _forget(self) -> None:
        self._state = None
        self._state_key = None
