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
about the runtime — into cache keys.  The prototype source stores its
table in ``dtype`` and writes each build or extension into one
preallocated table; the flat-feature sources compute and store
float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

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

    None of these change output values except ``dtype``, the dtype the
    backbone and similarities compute in and the affinity table is
    stored in.  ``n_jobs`` is the width of the :func:`tile_executor`
    pool each build or extend opens for extraction chunks and similarity
    tiles (1 = no pool); opening it pins the process to one BLAS thread.
    """

    batch_size: int | None = 32
    row_tile: int | None = 32
    n_jobs: int = 1
    dtype: type = np.float64

    def pool_features(
        self, model: VGG16, images: np.ndarray, layers: tuple[int, ...], pool=None
    ) -> dict[int, np.ndarray]:
        """Stage-1 extraction under this runtime: chunked forward passes
        fanned over ``pool``.

        Under ``dtype=float32`` the batch is cast up front so the whole
        backbone forward runs at half width (``check_images`` preserves
        float32 and the layers follow the activation dtype)."""
        if np.dtype(self.dtype) == np.float32:
            images = images.astype(np.float32, copy=False)
        return extract_pool_features(
            model, images, layers=layers, batch_size=self.batch_size, executor=pool
        )

    def similarities(self, prototypes: np.ndarray, vectors: np.ndarray, pool) -> np.ndarray:
        """``best_similarities`` under this runtime: row tiles fanned over ``pool``."""
        return best_similarities(
            prototypes,
            vectors,
            row_tile=self.row_tile,
            executor=pool,
            dtype=self.dtype,
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

    The engine calls every method: :meth:`build_state` on builds
    (dropping the state when it is not kept), :meth:`extend_state` on
    ``extend`` and :meth:`extend_rows` on online absorbs.
    """

    name: str

    def signature(self) -> dict[str, object]:
        """Value-affecting parameters, folded into cache keys."""
        ...

    def build_state(self, images: np.ndarray, runtime: EngineRuntime) -> CorpusState:
        """The corpus affinity matrix plus the state that extends it."""
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
        """The ``(N, α·N)`` table, in the compute dtype, plus the per-layer
        vectors and prototypes that extend it.

        Each layer's Z blocks are written into one preallocated table as
        soon as they are assembled, so the table exists once.
        """
        images = check_images(images)
        n, z = images.shape[0], self.top_z
        values = np.empty((n, len(self.layers) * z * n), dtype=runtime.dtype)
        # (N, α, N) view: ``by_function[:, f]`` is block f.
        by_function = values.reshape(n, -1, n)
        arrays: dict[str, np.ndarray] = {}
        with tile_executor(runtime.n_jobs) as pool:
            layer_blocks = self._layer_blocks(images, runtime, pool)
            for layer_pos, (layer, vectors, prototypes, blocks) in enumerate(layer_blocks):
                by_function[:, layer_pos * z : (layer_pos + 1) * z] = blocks.transpose(1, 0, 2)
                arrays[f"uv_{layer}"] = vectors
                arrays[f"proto_{layer}"] = prototypes.vectors
                arrays[f"rank_{layer}"] = prototypes.rank_rows
        ids = tuple(AffinityFunctionId(layer=layer, z=rank) for layer in self.layers for rank in range(z))
        matrix = AffinityMatrix(values=values, function_ids=ids)
        return CorpusState(affinity=matrix, n_images=n, arrays=arrays)

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
        with tile_executor(runtime.n_jobs) as pool:
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
        """The ``(N+M, α·(N+M))`` table of the grown corpus, in the compute
        dtype, written into one preallocated table: the old quadrant of
        every block is copied from ``state``, and only the new rows and
        column blocks are computed."""
        new_images = check_images(new_images)
        n, m, z = state.n_images, new_images.shape[0], self.top_z
        self._check_state_alpha(state)
        values = np.empty((n + m, state.affinity.n_functions * (n + m)), dtype=runtime.dtype)
        by_function = values.reshape(n + m, -1, n + m)
        by_function[:n, :, :n] = state.affinity.values.reshape(n, -1, n)
        arrays: dict[str, np.ndarray] = {}
        with tile_executor(runtime.n_jobs) as pool:
            pools = runtime.pool_features(self.model, new_images, self.layers, pool)
            for layer_pos, layer in enumerate(self.layers):
                functions = slice(layer_pos * z, (layer_pos + 1) * z)
                old_vectors = state.arrays[f"uv_{layer}"]
                old_protos = LayerPrototypes(
                    vectors=state.arrays[f"proto_{layer}"],
                    rank_rows=state.arrays[f"rank_{layer}"],
                )
                new_vectors = unit_location_vectors(pools[layer])
                new_protos = unique_unit_prototypes(pools[layer], z)
                # In the backbone's channels-last layout even when the old
                # vectors come back C-ordered from the cache: the GEMM's
                # summation order, so its last bits, follow the layout.
                all_vectors = np.empty_like(new_vectors, shape=(n + m, *new_vectors.shape[1:]))
                all_vectors[:n] = old_vectors
                all_vectors[n:] = new_vectors
                # Old prototypes × new images: the new rows of old column blocks.
                best_old_new = runtime.similarities(old_protos.vectors, new_vectors, pool)
                rows_old_cols = assemble_blocks(best_old_new, old_protos.rank_rows)  # (Z, M, N)
                by_function[n:, functions, :n] = rows_old_cols.transpose(1, 0, 2)
                # New prototypes × all images: the entirely new column blocks.
                best_new_all = runtime.similarities(new_protos.vectors, all_vectors, pool)
                new_cols = assemble_blocks(best_new_all, new_protos.rank_rows)  # (Z, N+M, M)
                by_function[:, functions, n:] = new_cols.transpose(1, 0, 2)
                arrays[f"uv_{layer}"] = all_vectors
                arrays[f"proto_{layer}"] = np.concatenate([old_protos.vectors, new_protos.vectors], axis=0)
                arrays[f"rank_{layer}"] = np.concatenate(
                    [old_protos.rank_rows, new_protos.shifted(old_protos.n_rows).rank_rows], axis=0
                )
        matrix = AffinityMatrix(values=values, function_ids=state.affinity.function_ids)
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
