"""The staged affinity engine (see ENGINE.md).

Splits the monolithic image→affinity-matrix path into reusable stages:

* :mod:`repro.engine.features` — chunked backbone feature extraction.
* :mod:`repro.engine.tiling` — the tiled, de-duplicated,
  thread-parallel similarity kernels and the top-k kernel of the
  sparse path.
* :mod:`repro.engine.cache` — content-addressed on-disk artifact cache.
* :mod:`repro.engine.source` — the ``AffinitySource`` protocol and its
  backends: :class:`PrototypeAffinitySource`, the only builder of the
  paper's prototype matrix, and flat-feature cosine (HOG, logits).
* :mod:`repro.engine.engine` — the orchestrator, including the
  incremental corpus-extension path.
* :mod:`repro.engine.inference` — the staged inference engine
  (thread-parallel base fits, warm-started EM, cached parameters).
"""

from repro.engine.cache import ArtifactCache, MemmapBlockStore, hash_arrays, hash_params
from repro.engine.engine import AffinityEngine, EngineConfig
from repro.engine.features import extract_pool_features, iter_batches
from repro.engine.inference import InferenceEngine, InferenceState, warm_start_responsibilities
from repro.engine.source import (
    AffinitySource,
    CorpusState,
    EngineRuntime,
    FeatureCosineSource,
    PrototypeAffinitySource,
    hog_source,
    logits_source,
)
from repro.engine.tiling import (
    LayerPrototypes,
    assemble_blocks,
    best_similarities,
    tile_bounds,
    tile_executor,
    topk_block,
    unique_unit_prototypes,
    unit_location_vectors,
)

__all__ = [
    "AffinityEngine",
    "EngineConfig",
    "InferenceEngine",
    "InferenceState",
    "warm_start_responsibilities",
    "ArtifactCache",
    "MemmapBlockStore",
    "hash_arrays",
    "hash_params",
    "extract_pool_features",
    "iter_batches",
    "AffinitySource",
    "CorpusState",
    "EngineRuntime",
    "FeatureCosineSource",
    "PrototypeAffinitySource",
    "hog_source",
    "logits_source",
    "LayerPrototypes",
    "assemble_blocks",
    "best_similarities",
    "tile_bounds",
    "tile_executor",
    "topk_block",
    "unique_unit_prototypes",
    "unit_location_vectors",
]
