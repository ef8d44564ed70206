"""End-to-end GOGGLES system facade (paper Figure 3).

Step 1: build the affinity matrix of all instances (unlabeled + dev)
under the library of VGG-16 prototype affinity functions.
Step 2: run the hierarchical generative model, then map clusters to
classes with the development set.

Typical usage::

    from repro.core import Goggles, GogglesConfig
    from repro.datasets import make_cub

    dataset = make_cub(n_per_class=50)
    dev = dataset.sample_dev_set(per_class=5, seed=0)
    result = Goggles(GogglesConfig(seed=0)).label(dataset.images, dev)
    accuracy = (result.predictions == dataset.labels).mean()
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.affinity import AffinityMatrix
from repro.core.inference.hierarchical import (
    HierarchicalConfig,
    HierarchicalResult,
)
from repro.core.inference.mapping import ClusterMapping, apply_mapping, map_clusters_to_classes
from repro.datasets.base import DevSet
from repro.engine.engine import AffinityEngine, EngineConfig
from repro.engine.inference import InferenceEngine, InferenceState
from repro.engine.source import PrototypeAffinitySource
from repro.nn.vgg import VGG16, VGGConfig
from repro.obs import span
from repro.utils.threads import usable_cores

if TYPE_CHECKING:  # runtime import would cycle (repro.online builds on the engines)
    from repro.online import OnlineConfig

__all__ = ["GogglesConfig", "GogglesResult", "Goggles"]


@dataclass(frozen=True)
class GogglesConfig:
    """Configuration of the full GOGGLES pipeline.

    Attributes:
        n_classes: K, number of classes in the labeling task.
        top_z: prototypes per max-pool layer (paper: 10).
        layers: which of the 5 max-pool layers to use (paper: all).
        seed: root seed for inference initialisation.
        n_jobs: threads shared by backbone chunks, affinity tiles
            and the base-model fits ("we can parallelize all of the
            base models", §5.3); defaults to the usable core count.
            Above 1 the engines' pools pin the process to one BLAS
            thread (see :class:`~repro.engine.engine.EngineConfig`).
            Results are identical at any width.
        batch_size: images per backbone forward pass in the affinity
            engine; bounds peak memory, never changes values.
        cache_dir: artifact-cache directory shared by the affinity and
            inference engines; ``None`` disables on-disk caching.
        cache_max_bytes: size budget for the artifact cache (LRU
            eviction on write); ``None`` means unbounded.
        keep_corpus_state: retain the engine's corpus state (per-layer
            location vectors and prototypes, roughly the size of the
            pool feature maps) after :meth:`Goggles.label` so
            :meth:`Goggles.label_incremental` can extend it.  Set to
            ``False`` to free that memory when incremental labeling is
            not needed.  The affinity table itself is returned either
            way, in the engine's compute dtype.
        vgg: configuration of the surrogate-pretrained backbone.
        inference: hierarchical-model hyper-parameters (n_classes and
            seed fields here take precedence).
        engine: full engine override (tile sizes, precision, which is
            also the affinity table's dtype).  When
            given, its ``n_jobs``/``batch_size``/``cache_dir`` win over
            the top-level convenience fields.
        online: knobs of the online serving loop
            (:class:`~repro.online.OnlineConfig` — step-size schedule,
            drift threshold, refit cadence) picked up by
            ``LabelingService(mode="online")``; ``None`` means the
            online defaults.
    """

    n_classes: int = 2
    top_z: int = 10
    layers: tuple[int, ...] = (0, 1, 2, 3, 4)
    seed: int = 0
    n_jobs: int = field(default_factory=usable_cores)
    batch_size: int | None = 32
    cache_dir: str | None = None
    cache_max_bytes: int | None = None
    keep_corpus_state: bool = True
    vgg: VGGConfig = field(default_factory=VGGConfig)
    inference: HierarchicalConfig = field(default_factory=HierarchicalConfig)
    engine: EngineConfig | None = None
    online: OnlineConfig | None = None

    def hierarchical_config(self) -> HierarchicalConfig:
        """The inference config with n_classes/seed overridden."""
        return replace(self.inference, n_classes=self.n_classes, seed=self.seed)

    def engine_config(self) -> EngineConfig:
        """The affinity-engine config implied by this pipeline config."""
        if self.engine is not None:
            return self.engine
        return EngineConfig(
            batch_size=self.batch_size,
            n_jobs=self.n_jobs,
            cache_dir=self.cache_dir,
            cache_max_bytes=self.cache_max_bytes,
        )


@dataclass(frozen=True)
class GogglesResult:
    """Output of one GOGGLES labeling run.

    Attributes:
        probabilistic_labels: ``(N, K)`` class-aligned probabilistic
            labels ỹ (§2.1) for *all* N instances, dev set included.
        affinity: the affinity matrix built in step 1.
        hierarchical: the raw inference result (cluster space).
        mapping: the dev-set cluster→class mapping used.
    """

    probabilistic_labels: np.ndarray
    affinity: AffinityMatrix
    hierarchical: HierarchicalResult
    mapping: ClusterMapping

    @property
    def predictions(self) -> np.ndarray:
        """Hard labels: argmax of the probabilistic labels."""
        return self.probabilistic_labels.argmax(axis=1)

    def accuracy(self, true_labels: np.ndarray, exclude: np.ndarray | None = None) -> float:
        """Labeling accuracy, optionally excluding dev-set indices.

        The paper "reports the performance of GOGGLES on the remaining
        images from each dataset" (§5.1.1), i.e. dev images excluded.
        """
        true_labels = np.asarray(true_labels)
        mask = np.ones(true_labels.shape[0], dtype=bool)
        if exclude is not None and np.asarray(exclude).size:
            mask[np.asarray(exclude, dtype=np.int64)] = False
        return float((self.predictions[mask] == true_labels[mask]).mean())


class Goggles:
    """The GOGGLES automatic image-labeling system.

    Every stage — extraction chunks, affinity tiles and base fits — runs
    on the ``n_jobs`` pool, and results are identical at any width.
    """

    def __init__(self, config: GogglesConfig | None = None, model: VGG16 | None = None):
        self.config = config or GogglesConfig()
        self.model = model if model is not None else VGG16(self.config.vgg)
        engine_config = self.config.engine_config()
        self.engine = AffinityEngine(
            PrototypeAffinitySource(self.model, top_z=self.config.top_z, layers=self.config.layers),
            engine_config,
        )
        # Step 2 mirrors step 1: a staged engine sharing the same cache,
        # so fitted inference parameters persist next to the corpus state.
        self.inference = InferenceEngine(
            self.config.hierarchical_config(),
            n_jobs=engine_config.n_jobs,
            cache=self.engine.cache,
        )

    def build_affinity_matrix(self, images: np.ndarray) -> AffinityMatrix:
        """Step 1 (Figure 3): affinity matrix construction.

        Runs through the staged engine: chunked feature extraction,
        tiled similarity, artifact caching.  Unless
        ``config.keep_corpus_state`` is off, the corpus state is kept
        so :meth:`label_incremental` can extend it later.
        """
        return self.engine.build(images, keep_state=self.config.keep_corpus_state)

    def infer_labels(
        self,
        affinity: AffinityMatrix,
        dev_set: DevSet,
        warm_start: InferenceState | None = None,
    ) -> GogglesResult:
        """Step 2 (Figure 3): class inference on a prebuilt matrix.

        Runs through the staged inference engine.  ``warm_start``
        resumes EM from a previous fit's state instead of refitting
        cold.
        """
        if dev_set.indices.size and dev_set.indices.max() >= affinity.n_examples:
            raise ValueError("dev-set indices exceed the number of instances")
        hierarchical = self.inference.fit(affinity, warm_start=warm_start)
        mapping = map_clusters_to_classes(hierarchical.posterior, dev_set, self.config.n_classes)
        probabilistic_labels = apply_mapping(hierarchical.posterior, mapping)
        return GogglesResult(
            probabilistic_labels=probabilistic_labels,
            affinity=affinity,
            hierarchical=hierarchical,
            mapping=mapping,
        )

    def label(self, images: np.ndarray, dev_set: DevSet) -> GogglesResult:
        """Run the full pipeline: images + tiny dev set -> probabilistic labels."""
        affinity = self.build_affinity_matrix(images)
        return self.infer_labels(affinity, dev_set)

    def label_incremental(
        self, new_images: np.ndarray, dev_set: DevSet, warm_start: bool = True
    ) -> GogglesResult:
        """Label a corpus grown by ``new_images`` without rebuilding it.

        The affinity engine reuses the prototypes and location vectors
        retained by a prior :meth:`label` / :meth:`build_affinity_matrix`
        call *on this object* and computes only the new rows and column
        blocks of the affinity matrix.  (In a fresh process, re-run
        :meth:`label` on the original corpus first — with ``cache_dir``
        set that rebuild is a cheap disk load that also restores the
        inference state.)  ``dev_set`` indices refer to the *combined*
        corpus (existing images first, then ``new_images``); inference
        reruns on the extended matrix so every posterior can absorb the
        new evidence.

        With ``warm_start`` (default), that rerun resumes EM from the
        previous fit — old rows keep their posterior, new rows are
        seeded by affinity-weighted propagation, and the ensemble
        resumes from its parameters — converging in a fraction of the
        cold iterations while agreeing with a cold refit within the
        tolerance documented in ENGINE.md.  ``warm_start=False`` is the
        escape hatch that forces the from-scratch refit.

        Atomic with respect to the corpus: if inference fails after the
        affinity extension succeeded, the extension is rolled back, so
        a failed call never leaves its images in the corpus and can be
        retried without duplicating rows.
        """
        with span("label_incremental"):
            previous = self.inference.state if warm_start else None
            saved_state, saved_key = self.engine.state, self.engine.state_key
            affinity = self.engine.extend(new_images)
            try:
                return self.infer_labels(affinity, dev_set, warm_start=previous)
            except Exception:
                self.engine.restore_state(saved_state, saved_key)
                raise
