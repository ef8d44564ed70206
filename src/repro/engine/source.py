"""Interchangeable affinity backends (the ``AffinitySource`` protocol).

The paper's core signal is VGG prototype affinity, but §5.1.5 ablates
the representation (HOG descriptors, VGG logits) through the *same*
class-inference module.  The engine therefore talks to an abstract
source:

* :class:`PrototypeAffinitySource` — the paper's §3 pipeline (chunked
  VGG pool extraction → tiled prototype affinity), the only builder of
  the prototype matrix.
* :class:`FeatureCosineSource` — any flat feature extractor compared
  with pair-wise cosine (α = 1); its corpus state is just the feature
  table.
* :func:`hog_source` / :func:`logits_source` — the two ablation
  backends of §5.1.5 as ready-made sources.

A source produces bit-identical matrices regardless of ``batch_size``
/ ``row_tile`` / ``n_jobs``; only ``dtype`` (precision) may change
values, which is why the engine folds precision — and nothing else
about the runtime — into cache keys.  (``col_tile`` can move a value
by an ulp, see :class:`~repro.engine.engine.EngineConfig`; it is not
part of the key either.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

import numpy as np

from repro.core.affinity import (
    AffinityFunctionId,
    AffinityMatrix,
    affinity_from_features,
    cosine_similarity,
)
from repro.engine.features import extract_pool_features, iter_batches
from repro.engine.tiling import (
    LayerPrototypes,
    assemble_blocks,
    best_similarities,
    tile_executor,
    unique_unit_prototypes,
    unit_location_vectors,
)
from repro.nn.vgg import VGG16
from repro.utils.validation import check_images

__all__ = [
    "EngineRuntime",
    "CorpusState",
    "AffinitySource",
    "PrototypeAffinitySource",
    "FeatureCosineSource",
    "hog_source",
    "logits_source",
]


@dataclass(frozen=True)
class EngineRuntime:
    """Execution knobs handed from the engine to a source.

    None of these change output values except ``dtype`` (and
    ``col_tile``, by an ulp on some shapes).
    ``n_jobs`` is the width of the :func:`tile_executor` pool each build
    or extend opens for extraction chunks and similarity tiles (1 = no
    pool); opening it pins the process to one BLAS thread.
    ``coordinator`` (a :class:`repro.distributed.Coordinator`, when the
    engine was given one) reroutes the feature extraction and
    similarity stages to the shard cluster; it is value-neutral
    because extraction shards are cut at the serial
    chunked-batch boundaries, similarity shards at the serial tile
    boundaries, and both merge back bit-identically.
    """

    batch_size: int | None = 32
    row_tile: int | None = 32
    col_tile: int | None = None
    n_jobs: int = 1
    dtype: type = np.float64
    coordinator: object | None = None
    # Storage dtype of the similarity *output* (None = historical
    # float64, whatever the compute dtype).  The sparse path sets this
    # to float32 so blocks are stored at half width end-to-end; compute
    # precision is still governed by ``dtype``.
    out_dtype: type | None = None

    @property
    def local_jobs(self) -> int:
        """Thread-pool width for local tile fan-out: 1 (no pool) when a
        coordinator handles the similarity stage instead."""
        return 1 if self.coordinator is not None else self.n_jobs

    def pool_features(
        self, model: VGG16, images: np.ndarray, layers: tuple[int, ...], pool=None
    ) -> dict[int, np.ndarray]:
        """Stage-1 extraction under this runtime: chunked local forward
        passes fanned over ``pool``, or ``"extraction"`` shards leased to
        the distributed cluster (workers rebuild the deterministic
        backbone from ``model.config``, so only image chunks travel).

        Under ``dtype=float32`` the batch is cast up front so the whole
        backbone forward runs at half width (``check_images`` preserves
        float32 and the layers follow the activation dtype).  Shard
        payloads carry the cast batch, so distributed extraction runs
        the same float32 forward as a local one."""
        if np.dtype(self.dtype) == np.float32:
            images = images.astype(np.float32, copy=False)
        if self.coordinator is not None:
            return self.coordinator.extract_pool_features(
                model.config, images, layers=layers, batch_size=self.batch_size
            )
        return extract_pool_features(
            model, images, layers=layers, batch_size=self.batch_size, executor=pool
        )

    def similarities(self, prototypes: np.ndarray, vectors: np.ndarray, pool) -> np.ndarray:
        """``best_similarities`` under this runtime: local tiles fanned
        over ``pool``, or shard tasks leased to the distributed cluster."""
        if self.coordinator is not None:
            return self.coordinator.best_similarities(
                prototypes,
                vectors,
                row_tile=self.row_tile,
                col_tile=self.col_tile,
                dtype=self.dtype,
                out_dtype=self.out_dtype,
            )
        return best_similarities(
            prototypes,
            vectors,
            row_tile=self.row_tile,
            col_tile=self.col_tile,
            executor=pool,
            dtype=self.dtype,
            out_dtype=self.out_dtype,
        )


@dataclass(frozen=True)
class CorpusState:
    """Everything a source needs to extend a built corpus incrementally.

    Attributes:
        affinity: the corpus affinity matrix built so far.
        n_images: corpus size N.
        arrays: backend-specific reusable artifacts (npz-serialisable
            flat ``{name: array}`` mapping so the engine can persist
            state in the artifact cache).
    """

    affinity: AffinityMatrix
    n_images: int
    arrays: dict[str, np.ndarray]


class AffinitySource(Protocol):
    """An interchangeable affinity-matrix backend.

    The engine calls every method: :meth:`build_state` on dense builds
    (dropping the state when it is not kept), :meth:`iter_function_blocks`
    on sparse builds, :meth:`extend_state` on ``extend`` and
    :meth:`extend_rows` on online absorbs.
    """

    name: str

    def signature(self) -> dict[str, object]:
        """Value-affecting parameters, folded into cache keys."""
        ...

    def build_state(self, images: np.ndarray, runtime: EngineRuntime) -> CorpusState:
        """The corpus affinity matrix plus the state that extends it."""
        ...

    def iter_function_blocks(
        self, images: np.ndarray, runtime: EngineRuntime
    ) -> Iterator[tuple[AffinityFunctionId, np.ndarray]]:
        """The blocks of :meth:`build_state`, in order, bit for bit."""
        ...

    def extend_rows(
        self, state: CorpusState, new_images: np.ndarray, runtime: EngineRuntime
    ) -> list[np.ndarray]:
        """The ``[n:, :n]`` quadrant of :meth:`extend_state`, one block per function."""
        ...

    def extend_state(
        self, state: CorpusState, new_images: np.ndarray, runtime: EngineRuntime
    ) -> CorpusState: ...


# ----------------------------------------------------------------------
# VGG prototype affinity (the paper's §3 pipeline)
# ----------------------------------------------------------------------
class PrototypeAffinitySource:
    """Staged VGG prototype affinity: extract → prototype → tile.

    The incremental state keeps, per layer, the corpus' unit location
    vectors and unique unit prototypes, so adding M images costs only
    the new rows (new images × all prototypes) and the new column
    blocks (all images × new prototypes) — the N×N old-old quadrant of
    every block is copied from the previous matrix.
    """

    def __init__(self, model: VGG16, top_z: int = 10, layers: tuple[int, ...] | None = None):
        self.model = model
        self.top_z = int(top_z)
        self.layers = tuple(layers) if layers is not None else tuple(range(model.N_POOL_LAYERS))
        if self.top_z < 1:
            raise ValueError(f"top_z must be >= 1, got {top_z}")
        if not self.layers:
            raise ValueError("need at least one layer")
        for layer in self.layers:
            if not 0 <= layer < model.N_POOL_LAYERS:
                raise ValueError(f"layer {layer} out of range [0, {model.N_POOL_LAYERS})")
        self.name = "vgg-prototypes"

    def signature(self) -> dict[str, object]:
        return {
            "source": self.name,
            "vgg": repr(self.model.config),
            "top_z": self.top_z,
            "layers": self.layers,
        }

    def _layer_blocks(self, images: np.ndarray, runtime: EngineRuntime, pool):
        """Per layer, ``(layer, unit vectors, prototypes, (Z, N, N) blocks)``.

        Each layer's filter maps are dropped as soon as they are
        consumed, so only the layers not yet reached stay in memory.
        """
        pools = runtime.pool_features(self.model, images, self.layers, pool)
        for layer in self.layers:
            filter_maps = pools.pop(layer)
            vectors = unit_location_vectors(filter_maps)
            prototypes = unique_unit_prototypes(filter_maps, self.top_z)
            del filter_maps
            best = runtime.similarities(prototypes.vectors, vectors, pool)
            yield layer, vectors, prototypes, assemble_blocks(best, prototypes.rank_rows)

    def build_state(self, images: np.ndarray, runtime: EngineRuntime) -> CorpusState:
        images = check_images(images)
        blocks: list[np.ndarray] = []
        arrays: dict[str, np.ndarray] = {}
        with tile_executor(runtime.local_jobs) as pool:
            for layer, vectors, prototypes, layer_blocks in self._layer_blocks(images, runtime, pool):
                blocks.extend(layer_blocks)
                arrays[f"uv_{layer}"] = vectors
                arrays[f"proto_{layer}"] = prototypes.vectors
                arrays[f"rank_{layer}"] = prototypes.rank_rows
        ids = tuple(
            AffinityFunctionId(layer=layer, z=rank)
            for layer in self.layers
            for rank in range(self.top_z)
        )
        matrix = AffinityMatrix(values=np.concatenate(blocks, axis=1), function_ids=ids)
        return CorpusState(affinity=matrix, n_images=images.shape[0], arrays=arrays)

    def iter_function_blocks(self, images: np.ndarray, runtime: EngineRuntime):
        """Stream ``(function_id, dense N×N block)`` pairs, one layer at
        a time, in the same function order :meth:`build_state`
        concatenates.

        The sparse build path consumes this: only one layer's Z blocks
        are dense at any moment, so peak memory is O(Z·N²) instead of
        the full matrix's O(α·N²) — which is the point of building
        sparse in the first place.  Both walk the same per-layer loop,
        so each block is bit-identical to the corresponding
        ``build_state`` block under the same runtime.
        """
        images = check_images(images)
        with tile_executor(runtime.local_jobs) as pool:
            for layer, _, _, layer_blocks in self._layer_blocks(images, runtime, pool):
                for rank in range(self.top_z):
                    yield AffinityFunctionId(layer=layer, z=rank), layer_blocks[rank]

    def _check_state_alpha(self, state: CorpusState) -> None:
        expected_alpha = len(self.layers) * self.top_z
        if state.affinity.n_functions != expected_alpha:
            raise ValueError(
                f"corpus state has {state.affinity.n_functions} affinity functions, "
                f"source produces {expected_alpha}"
            )

    def extend_rows(
        self, state: CorpusState, new_images: np.ndarray, runtime: EngineRuntime
    ) -> list[np.ndarray]:
        """Affinity rows of ``new_images`` against the *frozen* corpus only.

        Returns one ``(M, N)`` block per affinity function, in function
        order — exactly the ``[n:, :n]`` quadrant :meth:`extend_state`
        would produce, bit-identically, but computing *only* it: no new
        prototypes are extracted from the arrivals, no (old images ×
        new prototypes) columns, no (N+M)² assembly.  This is the
        online serving loop's hot path (``OnlineSession.absorb``),
        where the corpus is deliberately not extended.
        """
        new_images = check_images(new_images)
        self._check_state_alpha(state)
        rows: list[np.ndarray] = []
        with tile_executor(runtime.local_jobs) as pool:
            pools = runtime.pool_features(self.model, new_images, self.layers, pool)
            for layer in self.layers:
                old_protos = LayerPrototypes(
                    vectors=state.arrays[f"proto_{layer}"],
                    rank_rows=state.arrays[f"rank_{layer}"],
                )
                new_vectors = unit_location_vectors(pools[layer])
                best_old_new = runtime.similarities(old_protos.vectors, new_vectors, pool)
                rows.extend(assemble_blocks(best_old_new, old_protos.rank_rows))
        return rows

    def extend_state(self, state: CorpusState, new_images: np.ndarray, runtime: EngineRuntime) -> CorpusState:
        new_images = check_images(new_images)
        n, m = state.n_images, new_images.shape[0]
        self._check_state_alpha(state)
        blocks: list[np.ndarray] = []
        arrays: dict[str, np.ndarray] = {}
        with tile_executor(runtime.local_jobs) as pool:
            pools = runtime.pool_features(self.model, new_images, self.layers, pool)
            for layer_pos, layer in enumerate(self.layers):
                old_vectors = state.arrays[f"uv_{layer}"]
                old_protos = LayerPrototypes(
                    vectors=state.arrays[f"proto_{layer}"],
                    rank_rows=state.arrays[f"rank_{layer}"],
                )
                new_vectors = unit_location_vectors(pools[layer])
                new_protos = unique_unit_prototypes(pools[layer], self.top_z)
                all_vectors = np.concatenate([old_vectors, new_vectors], axis=0)
                # Old prototypes × new images: the new rows of old column blocks.
                best_old_new = runtime.similarities(old_protos.vectors, new_vectors, pool)
                rows_old_cols = assemble_blocks(best_old_new, old_protos.rank_rows)  # (Z, M, N)
                # New prototypes × all images: the entirely new column blocks.
                best_new_all = runtime.similarities(new_protos.vectors, all_vectors, pool)
                new_cols = assemble_blocks(best_new_all, new_protos.rank_rows)  # (Z, N+M, M)
                for rank in range(self.top_z):
                    old_block = state.affinity.block(layer_pos * self.top_z + rank)
                    block = np.empty((n + m, n + m))
                    block[:n, :n] = old_block
                    block[n:, :n] = rows_old_cols[rank]
                    block[:, n:] = new_cols[rank]
                    blocks.append(block)
                arrays[f"uv_{layer}"] = all_vectors
                arrays[f"proto_{layer}"] = np.concatenate([old_protos.vectors, new_protos.vectors], axis=0)
                arrays[f"rank_{layer}"] = np.concatenate(
                    [old_protos.rank_rows, new_protos.shifted(old_protos.n_rows).rank_rows], axis=0
                )
        matrix = AffinityMatrix(
            values=np.concatenate(blocks, axis=1), function_ids=state.affinity.function_ids
        )
        return CorpusState(affinity=matrix, n_images=n + m, arrays=arrays)


# ----------------------------------------------------------------------
# Flat-feature cosine sources (§5.1.5 ablations and custom backends)
# ----------------------------------------------------------------------
class FeatureCosineSource:
    """α=1 affinity from any flat feature extractor via pairwise cosine.

    ``extractor(images) -> (n, D)`` is applied in ``batch_size`` chunks;
    the incremental state is the feature table itself, so extension
    only runs the extractor on the new images (the cosine grid is cheap
    relative to feature extraction and is recomputed exactly).
    """

    def __init__(
        self,
        extractor: Callable[[np.ndarray], np.ndarray],
        name: str,
        params: dict[str, object] | None = None,
    ):
        self.extractor = extractor
        self.name = name
        self.params = dict(params or {})

    def signature(self) -> dict[str, object]:
        return {"source": self.name, **self.params}

    def _features(self, images: np.ndarray, runtime: EngineRuntime) -> np.ndarray:
        images = check_images(images)
        parts = [self.extractor(images[batch]) for batch in iter_batches(images.shape[0], runtime.batch_size)]
        features = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
        return np.asarray(features, dtype=np.float64)

    def build_state(self, images: np.ndarray, runtime: EngineRuntime) -> CorpusState:
        features = self._features(images, runtime)
        return CorpusState(
            affinity=affinity_from_features(features),
            n_images=features.shape[0],
            arrays={"features": features},
        )

    def iter_function_blocks(self, images: np.ndarray, runtime: EngineRuntime):
        """Stream the single cosine block (α = 1 for this source)."""
        features = self._features(images, runtime)
        sims = cosine_similarity(features, features)
        if runtime.out_dtype is not None:
            sims = sims.astype(runtime.out_dtype, copy=False)
        yield AffinityFunctionId(layer=-1, z=0), sims

    def extend_rows(
        self, state: CorpusState, new_images: np.ndarray, runtime: EngineRuntime
    ) -> list[np.ndarray]:
        """Cosine rows of the new images against the frozen corpus only."""
        new_features = self._features(new_images, runtime)
        return [cosine_similarity(new_features, state.arrays["features"])]

    def extend_state(self, state: CorpusState, new_images: np.ndarray, runtime: EngineRuntime) -> CorpusState:
        features = np.concatenate([state.arrays["features"], self._features(new_images, runtime)], axis=0)
        return CorpusState(
            affinity=affinity_from_features(features),
            n_images=features.shape[0],
            arrays={"features": features},
        )


def hog_source(config: object | None = None) -> FeatureCosineSource:
    """The HOG-descriptor ablation backend (§5.1.5)."""
    from repro.vision.hog import HOGConfig, hog_batch

    hog_config = config if config is not None else HOGConfig()
    return FeatureCosineSource(
        lambda images: hog_batch(images, hog_config), "hog", {"config": repr(hog_config)}
    )


def logits_source(model: VGG16) -> FeatureCosineSource:
    """The VGG-logits ablation backend (§5.1.5)."""
    return FeatureCosineSource(model.logits, "vgg-logits", {"vgg": repr(model.config)})
