"""The staged affinity engine (see ENGINE.md).

Splits the monolithic image→affinity-matrix path into reusable stages:

* :mod:`repro.engine.features` — chunked backbone feature extraction.
* :mod:`repro.engine.tiling` — tiled, de-duplicated, thread-parallel
  affinity construction.
* :mod:`repro.engine.cache` — content-addressed on-disk artifact cache.
* :mod:`repro.engine.source` — interchangeable affinity backends
  (VGG prototypes, HOG, raw-feature cosine).
* :mod:`repro.engine.engine` — the orchestrator, including the
  incremental corpus-extension path.
* :mod:`repro.engine.inference` — the staged inference engine
  (thread-parallel or distributed base fits, warm-started EM, cached
  parameters).
"""

from repro.engine.cache import ArtifactCache, CacheStats, MemmapBlockStore, hash_arrays, hash_params
from repro.engine.engine import AffinityEngine, EngineConfig
from repro.engine.features import extract_pool_features, iter_batches
from repro.engine.inference import (
    EXECUTORS,
    InferenceEngine,
    InferenceState,
    warm_start_responsibilities,
)
from repro.engine.source import (
    AffinitySource,
    CorpusState,
    EngineRuntime,
    FeatureCosineSource,
    IncrementalAffinitySource,
    PrototypeAffinitySource,
    hog_source,
    logits_source,
)
from repro.engine.tiling import (
    LayerPrototypes,
    assemble_blocks,
    best_similarities,
    sparsify_affinity,
    tile_bounds,
    tile_executor,
    tiled_affinity_matrix,
    tiled_layer_affinity_blocks,
    topk_block,
    unique_unit_prototypes,
    unit_location_vectors,
)

__all__ = [
    "AffinityEngine",
    "EngineConfig",
    "EXECUTORS",
    "InferenceEngine",
    "InferenceState",
    "warm_start_responsibilities",
    "ArtifactCache",
    "CacheStats",
    "MemmapBlockStore",
    "hash_arrays",
    "hash_params",
    "extract_pool_features",
    "iter_batches",
    "AffinitySource",
    "IncrementalAffinitySource",
    "CorpusState",
    "EngineRuntime",
    "FeatureCosineSource",
    "PrototypeAffinitySource",
    "hog_source",
    "logits_source",
    "LayerPrototypes",
    "assemble_blocks",
    "best_similarities",
    "sparsify_affinity",
    "tile_bounds",
    "tile_executor",
    "tiled_affinity_matrix",
    "tiled_layer_affinity_blocks",
    "topk_block",
    "unique_unit_prototypes",
    "unit_location_vectors",
]
