"""Experiment harness: one runner per table/figure of the paper's §5.

Every benchmark in ``benchmarks/`` and several examples call into this
module, so the exact experiment protocol lives in one place:

* :func:`run_table1_row` / :func:`run_table1` — labeling accuracy of
  GOGGLES, Snorkel, Snuba and the ablation baselines (Table 1).
* :func:`run_table2_row` / :func:`run_table2` — end-model accuracy of
  FSL, Snorkel, Snuba, GOGGLES and the supervised bound (Table 2).
* :func:`run_fig2` — per-affinity-function same/different-class score
  separation (Figure 2).
* :func:`run_fig5` — affinity-matrix block structure (Figure 5).
* :func:`run_fig7` — dev-set size theory curves (Figure 7).
* :func:`run_fig8` — accuracy vs. development-set size (Figure 8).
* :func:`run_fig9` — accuracy vs. number of affinity functions (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clustering import FullCovarianceGMM, KMeans, SpectralCoclustering, optimal_mapping_accuracy
from repro.core.affinity import AffinityMatrix, affinity_from_features
from repro.core.goggles import Goggles, GogglesConfig
from repro.engine import EngineConfig, InferenceEngine
from repro.core.inference.bernoulli import BernoulliMixture, one_hot_encode_lp
from repro.core.inference.hierarchical import HierarchicalConfig, HierarchicalModel
from repro.core.inference.mapping import apply_mapping, map_clusters_to_classes
from repro.core.inference.theory import p_mapping_correct_lower_bound
from repro.datasets import make_dataset
from repro.datasets.base import DevSet, LabeledImageDataset
from repro.endmodel import TrainConfig, one_hot, train_head
from repro.eval.metrics import labeling_accuracy, mask_excluding, roc_auc
from repro.fsl import FSLBaseline, FSLConfig
from repro.labeling import LabelModel, Snuba, apply_labeling_functions, attribute_lfs_from_dataset
from repro.labeling.primitives import extract_snuba_primitives
from repro.nn.vgg import VGG16, VGGConfig
from repro.utils.rng import derive_seed
from repro.utils.threads import usable_cores
from repro.vision.hog import hog_batch
from repro.vision.pca import PCA

__all__ = [
    "ExperimentSettings",
    "shared_model",
    "build_affinity",
    "table1_corpus",
    "run_table1_row",
    "run_table1",
    "run_table2_row",
    "run_table2",
    "run_fig2",
    "run_fig5",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_inference_ablation",
]


@dataclass(frozen=True)
class ExperimentSettings:
    """Shared experiment protocol (paper §5.1).

    Attributes:
        n_per_class: images generated per class per run.
        image_size: square image side.
        dev_per_class: labeled dev examples per class (paper: 5).
        n_seeds: independent runs averaged per cell ("all experiments
            ... are conducted 10 times, and we report the average";
            smaller default keeps CPU benchmarks affordable).
        vgg_seed: seed of the surrogate-pretrained backbone.
        seed: root seed for everything else.
        n_jobs: threads for feature extraction, affinity
            tiling and base-model fitting; defaults to the usable core
            count, like :class:`~repro.core.goggles.GogglesConfig`.
            Results are identical at any width.
        batch_size: images per backbone forward pass in the affinity
            engine (memory bound, value-neutral).
        precision: engine compute precision and affinity-table dtype,
            ``"float32"`` (default; ≥ 99% posterior agreement and
            exact labels against float64) or ``"float64"`` (exact; see
            :class:`~repro.engine.engine.EngineConfig`).  The runners
            cast the table to float64 before any arithmetic on it.
        cache_dir: artifact cache shared across the harness' runs;
            ``None`` disables on-disk caching.
        cache_max_bytes: size budget for that cache (LRU eviction);
            ``None`` means unbounded.
    """

    n_per_class: int = 40
    image_size: int = 64
    dev_per_class: int = 5
    n_seeds: int = 5
    vgg_seed: int = 0
    seed: int = 0
    n_jobs: int = field(default_factory=usable_cores)
    batch_size: int | None = 32
    precision: str = "float32"
    cache_dir: str | None = None
    cache_max_bytes: int | None = None

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            batch_size=self.batch_size,
            n_jobs=self.n_jobs,
            precision=self.precision,
            cache_dir=self.cache_dir,
            cache_max_bytes=self.cache_max_bytes,
        )

    def goggles_config(self, **fields: object) -> GogglesConfig:
        """The pipeline config of one run under these settings."""
        return GogglesConfig(engine=self.engine_config(), **fields)


_MODEL_CACHE: dict[tuple, VGG16] = {}


def shared_model(settings: ExperimentSettings) -> VGG16:
    """A process-wide cached backbone (it is frozen, so sharing is safe)."""
    key = (settings.vgg_seed,)
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = VGG16(VGGConfig(seed=settings.vgg_seed))
    return _MODEL_CACHE[key]


def build_affinity(
    model: VGG16,
    images: np.ndarray,
    settings: ExperimentSettings,
    top_z: int = 10,
) -> AffinityMatrix:
    """Affinity construction for harness runs, through the staged engine.

    Chunked extraction + tiled similarity + (when ``settings.cache_dir``
    is set) the content-addressed artifact cache, so sweep experiments
    that revisit the same corpus skip step 1 entirely.
    """
    goggles = Goggles(settings.goggles_config(top_z=top_z, keep_corpus_state=False), model=model)
    return goggles.build_affinity_matrix(images)


def _infer_with_affinity(
    affinity: AffinityMatrix,
    dev: DevSet,
    n_classes: int,
    seed: int,
    n_jobs: int,
) -> np.ndarray:
    """Hierarchical inference + dev mapping on a prebuilt affinity matrix."""
    engine = InferenceEngine(HierarchicalConfig(n_classes=n_classes, seed=seed), n_jobs=n_jobs)
    result = engine.fit(affinity)
    mapping = map_clusters_to_classes(result.posterior, dev, n_classes)
    return apply_mapping(result.posterior, mapping)


# ----------------------------------------------------------------------
# Table 1: labeling accuracy
# ----------------------------------------------------------------------
def table1_corpus(
    dataset_name: str, settings: ExperimentSettings, run_seed: int
) -> tuple[LabeledImageDataset, DevSet]:
    """The corpus and dev set of one seed of the Table-1 protocol."""
    dataset = make_dataset(
        dataset_name,
        n_per_class=settings.n_per_class,
        image_size=settings.image_size,
        seed=derive_seed(settings.seed, "table1", dataset_name, run_seed),
        pair_seed=run_seed,
    )
    dev = dataset.sample_dev_set(settings.dev_per_class, seed=derive_seed(settings.seed, "dev", run_seed))
    return dataset, dev


def run_table1_row(
    dataset_name: str,
    settings: ExperimentSettings,
    run_seed: int,
    methods: tuple[str, ...] = ("goggles", "snorkel", "snuba", "hog", "logits", "kmeans", "gmm", "spectral"),
) -> dict[str, float | None]:
    """One seed of the Table-1 protocol for one dataset.

    Returns labeling accuracy (%) per method; ``None`` where the method
    is not applicable (Snorkel outside CUB).
    """
    model = shared_model(settings)
    dataset, dev = table1_corpus(dataset_name, settings, run_seed)
    k = dataset.n_classes
    out: dict[str, float | None] = {}

    affinity: AffinityMatrix | None = None
    if any(m in methods for m in ("goggles", "kmeans", "gmm", "spectral")):
        affinity = build_affinity(model, dataset.images, settings)

    if "goggles" in methods:
        assert affinity is not None
        config = settings.goggles_config(n_classes=k, seed=derive_seed(settings.seed, "goggles", run_seed))
        result = Goggles(config, model=model).infer_labels(affinity, dev)
        out["goggles"] = 100 * result.accuracy(dataset.labels, exclude=dev.indices)

    if "snorkel" in methods:
        if dataset.attributes is None:
            out["snorkel"] = None
        else:
            lfs = attribute_lfs_from_dataset(dataset)
            votes = apply_labeling_functions(lfs, dataset.n_examples)
            lm = LabelModel(n_classes=k, seed=derive_seed(settings.seed, "snorkel", run_seed)).fit(votes)
            out["snorkel"] = 100 * labeling_accuracy(
                lm.probabilistic_labels, dataset.labels, exclude=dev.indices
            )

    if "snuba" in methods:
        primitives = extract_snuba_primitives(model, dataset.images, n_components=10)
        snuba = Snuba(n_classes=k, seed=derive_seed(settings.seed, "snuba", run_seed))
        result_snuba = snuba.fit(primitives, dev.indices, dev.labels)
        out["snuba"] = 100 * labeling_accuracy(
            result_snuba.probabilistic_labels, dataset.labels, exclude=dev.indices
        )

    if "hog" in methods:
        descriptors = hog_batch(dataset.images)
        posterior = _infer_with_affinity(
            affinity_from_features(descriptors),
            dev,
            k,
            derive_seed(settings.seed, "hog", run_seed),
            n_jobs=settings.n_jobs,
        )
        out["hog"] = 100 * labeling_accuracy(posterior, dataset.labels, exclude=dev.indices)

    if "logits" in methods:
        logits = model.logits(dataset.images)
        posterior = _infer_with_affinity(
            affinity_from_features(logits),
            dev,
            k,
            derive_seed(settings.seed, "logits", run_seed),
            n_jobs=settings.n_jobs,
        )
        out["logits"] = 100 * labeling_accuracy(posterior, dataset.labels, exclude=dev.indices)

    score_mask = mask_excluding(dataset.n_examples, dev.indices)
    if "kmeans" in methods:
        assert affinity is not None
        kmeans = KMeans(k, seed=derive_seed(settings.seed, "kmeans", run_seed))
        clustering = kmeans.fit_predict(affinity.values)
        acc, _ = optimal_mapping_accuracy(clustering.labels[score_mask], dataset.labels[score_mask], k)
        out["kmeans"] = 100 * acc

    if "gmm" in methods:
        assert affinity is not None
        # Full-covariance GMM is intractable at αN dimensions (§4's
        # point); following standard practice we give it the top
        # principal components of the affinity features.
        n_components = min(8, affinity.n_examples - 1)
        reduced = PCA(n_components).fit_transform(affinity.values)
        gmm_result = FullCovarianceGMM(
            k, shrinkage=0.9, seed=derive_seed(settings.seed, "gmm", run_seed)
        ).fit(reduced)
        acc, _ = optimal_mapping_accuracy(gmm_result.labels[score_mask], dataset.labels[score_mask], k)
        out["gmm"] = 100 * acc

    if "spectral" in methods:
        assert affinity is not None
        shifted = (affinity.values.astype(np.float64) + 1.0) / 2.0
        coclustering = SpectralCoclustering(k, seed=derive_seed(settings.seed, "spectral", run_seed))
        spectral = coclustering.fit_predict(shifted)
        acc, _ = optimal_mapping_accuracy(spectral.row_labels[score_mask], dataset.labels[score_mask], k)
        out["spectral"] = 100 * acc

    return out


def run_table1(
    settings: ExperimentSettings,
    datasets: tuple[str, ...] = ("cub", "gtsrb", "surface", "tbxray", "pnxray"),
    methods: tuple[str, ...] = ("goggles", "snorkel", "snuba", "hog", "logits", "kmeans", "gmm", "spectral"),
) -> dict[str, dict[str, float | None]]:
    """Full Table 1: mean over ``settings.n_seeds`` runs per dataset."""
    table: dict[str, dict[str, float | None]] = {}
    for dataset_name in datasets:
        rows = [run_table1_row(dataset_name, settings, s, methods) for s in range(settings.n_seeds)]
        merged: dict[str, float | None] = {}
        for method in methods:
            values = [row[method] for row in rows if row.get(method) is not None]
            merged[method] = float(np.mean(values)) if values else None
        table[dataset_name] = merged
    return table


# ----------------------------------------------------------------------
# Table 2: end-model accuracy
# ----------------------------------------------------------------------
def _train_and_score(
    features_train: np.ndarray,
    soft_labels: np.ndarray,
    features_test: np.ndarray,
    test_labels: np.ndarray,
    seed: int,
) -> float:
    result = train_head(features_train, soft_labels, TrainConfig(seed=seed))
    return 100 * float((result.head.predict(features_test) == test_labels).mean())


def run_table2_row(
    dataset_name: str,
    settings: ExperimentSettings,
    run_seed: int,
    methods: tuple[str, ...] = ("fsl", "snorkel", "snuba", "goggles", "upper_bound"),
) -> dict[str, float | None]:
    """One seed of the Table-2 protocol (train labels -> end model -> test)."""
    model = shared_model(settings)
    # Generate train+test pools; the paper uses each dataset's original
    # split, we generate both splits from the same distribution.
    dataset = make_dataset(
        dataset_name,
        n_per_class=settings.n_per_class + settings.n_per_class // 2,
        image_size=settings.image_size,
        seed=derive_seed(settings.seed, "table2", dataset_name, run_seed),
        pair_seed=run_seed,
    )
    train, test = dataset.split(train_fraction=2 / 3, seed=derive_seed(settings.seed, "split", run_seed))
    dev = train.sample_dev_set(settings.dev_per_class, seed=derive_seed(settings.seed, "dev2", run_seed))
    k = dataset.n_classes
    features_train = model.embed(train.images)
    features_test = model.embed(test.images)
    out: dict[str, float | None] = {}

    if "fsl" in methods:
        fsl = FSLBaseline(model, k, FSLConfig(seed=derive_seed(settings.seed, "fsl", run_seed)))
        fsl.fit(train.images, dev)
        out["fsl"] = 100 * float((fsl.predict(test.images) == test.labels).mean())

    if "snorkel" in methods:
        if train.attributes is None:
            out["snorkel"] = None
        else:
            lfs = attribute_lfs_from_dataset(train)
            votes = apply_labeling_functions(lfs, train.n_examples)
            lm = LabelModel(n_classes=k, seed=derive_seed(settings.seed, "snorkel2", run_seed)).fit(votes)
            out["snorkel"] = _train_and_score(
                features_train,
                lm.probabilistic_labels,
                features_test,
                test.labels,
                derive_seed(settings.seed, "end-snorkel", run_seed),
            )

    if "snuba" in methods:
        primitives = extract_snuba_primitives(model, train.images, n_components=10)
        snuba_result = Snuba(n_classes=k, seed=derive_seed(settings.seed, "snuba2", run_seed)).fit(
            primitives, dev.indices, dev.labels
        )
        out["snuba"] = _train_and_score(
            features_train,
            snuba_result.probabilistic_labels,
            features_test,
            test.labels,
            derive_seed(settings.seed, "end-snuba", run_seed),
        )

    if "goggles" in methods:
        config = settings.goggles_config(
            n_classes=k,
            seed=derive_seed(settings.seed, "goggles2", run_seed),
            keep_corpus_state=False,  # one-shot label, no incremental
        )
        goggles_result = Goggles(config, model=model).label(train.images, dev)
        out["goggles"] = _train_and_score(
            features_train,
            goggles_result.probabilistic_labels,
            features_test,
            test.labels,
            derive_seed(settings.seed, "end-goggles", run_seed),
        )

    if "upper_bound" in methods:
        out["upper_bound"] = _train_and_score(
            features_train,
            one_hot(train.labels, k),
            features_test,
            test.labels,
            derive_seed(settings.seed, "end-upper", run_seed),
        )

    return out


def run_table2(
    settings: ExperimentSettings,
    datasets: tuple[str, ...] = ("cub", "gtsrb", "surface", "tbxray", "pnxray"),
    methods: tuple[str, ...] = ("fsl", "snorkel", "snuba", "goggles", "upper_bound"),
) -> dict[str, dict[str, float | None]]:
    """Full Table 2: mean over ``settings.n_seeds`` runs per dataset."""
    table: dict[str, dict[str, float | None]] = {}
    for dataset_name in datasets:
        rows = [run_table2_row(dataset_name, settings, s, methods) for s in range(settings.n_seeds)]
        merged: dict[str, float | None] = {}
        for method in methods:
            values = [row[method] for row in rows if row.get(method) is not None]
            merged[method] = float(np.mean(values)) if values else None
        table[dataset_name] = merged
    return table


# ----------------------------------------------------------------------
# Figure 2 & 5: affinity score distributions and matrix structure
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AffinityFunctionStats:
    """Separation statistics of one affinity function (Figure 2/5).

    Attributes:
        auc: AUC of same-class vs different-class pair scores.
        same_mean / diff_mean: class-conditional score means (the block
            contrast visible in Figure 5's heatmap).
    """

    function_index: int
    auc: float
    same_mean: float
    diff_mean: float

    @property
    def separation(self) -> float:
        return self.same_mean - self.diff_mean


def affinity_function_stats(affinity: AffinityMatrix, labels: np.ndarray) -> list[AffinityFunctionStats]:
    """Per-function separation stats over all off-diagonal pairs, summed
    in float64 whatever the table's dtype."""
    n = affinity.n_examples
    same = np.equal.outer(labels, labels)
    off_diag = ~np.eye(n, dtype=bool)
    pair_labels = same[off_diag].astype(np.int64)
    stats: list[AffinityFunctionStats] = []
    for f in range(affinity.n_functions):
        scores = affinity.block(f)[off_diag].astype(np.float64)
        stats.append(
            AffinityFunctionStats(
                function_index=f,
                auc=roc_auc(scores, pair_labels),
                same_mean=float(scores[pair_labels == 1].mean()),
                diff_mean=float(scores[pair_labels == 0].mean()),
            )
        )
    return stats


def run_fig2(settings: ExperimentSettings, dataset_name: str = "cub", run_seed: int = 0) -> dict:
    """Figure 2: affinity-score distribution separation per function.

    The paper shows three functions: one highly discriminative (f1),
    one weak (f2), one useless (f3).  We report the AUC of every
    function plus the best/median/worst trio.
    """
    model = shared_model(settings)
    dataset = make_dataset(
        dataset_name,
        n_per_class=settings.n_per_class,
        image_size=settings.image_size,
        seed=derive_seed(settings.seed, "fig2", run_seed),
        pair_seed=run_seed,
    )
    affinity = build_affinity(model, dataset.images, settings)
    stats = affinity_function_stats(affinity, dataset.labels)
    by_auc = sorted(stats, key=lambda s: s.auc, reverse=True)
    return {
        "all": stats,
        "best": by_auc[0],
        "median": by_auc[len(by_auc) // 2],
        "worst": by_auc[-1],
        "n_discriminative": sum(s.auc > 0.6 for s in stats),
    }


def run_fig5(settings: ExperimentSettings, dataset_name: str = "cub", run_seed: int = 0) -> dict:
    """Figure 5: class-sorted affinity-matrix block structure.

    For the best/median/worst functions (by AUC), return the 2x2 matrix
    of within/cross-class mean affinities whose contrast is what the
    paper's heatmap shows.
    """
    model = shared_model(settings)
    dataset = make_dataset(
        dataset_name,
        n_per_class=settings.n_per_class,
        image_size=settings.image_size,
        seed=derive_seed(settings.seed, "fig5", run_seed),
        pair_seed=run_seed,
    )
    affinity = build_affinity(model, dataset.images, settings)
    stats = affinity_function_stats(affinity, dataset.labels)
    by_auc = sorted(stats, key=lambda s: s.auc, reverse=True)
    picks = {"best": by_auc[0], "median": by_auc[len(by_auc) // 2], "worst": by_auc[-1]}
    labels = dataset.labels
    k = dataset.n_classes
    blocks: dict[str, np.ndarray] = {}
    for name, stat in picks.items():
        block = affinity.block(stat.function_index).astype(np.float64)
        means = np.empty((k, k))
        for a in range(k):
            for b in range(k):
                sub = block[np.ix_(labels == a, labels == b)]
                if a == b:
                    off = ~np.eye(sub.shape[0], dtype=bool)
                    means[a, b] = float(sub[off].mean())
                else:
                    means[a, b] = float(sub.mean())
        blocks[name] = means
    return {"blocks": blocks, "picks": picks}


# ----------------------------------------------------------------------
# Figure 7: theory curves
# ----------------------------------------------------------------------
def run_fig7(
    etas: tuple[float, ...] = (0.6, 0.7, 0.8, 0.9, 0.95),
    d_values: tuple[int, ...] = tuple(range(1, 26)),
    n_classes: int = 2,
) -> dict[float, np.ndarray]:
    """Figure 7: Theorem-1 lower bound vs dev-set size per class."""
    return {
        eta: np.array([p_mapping_correct_lower_bound(d, n_classes, eta) for d in d_values])
        for eta in etas
    }


# ----------------------------------------------------------------------
# Figure 8: accuracy vs dev-set size
# ----------------------------------------------------------------------
def run_fig8(
    settings: ExperimentSettings,
    dataset_name: str,
    dev_sizes: tuple[int, ...] = (0, 2, 4, 8, 12, 20, 30, 40),
    run_seed: int = 0,
) -> dict[int, float]:
    """Figure 8: labeling accuracy as the dev set grows (total size).

    The hierarchical fit is independent of the dev set, so it runs once
    and only the cluster→class mapping is recomputed per size.  Size 0
    uses the identity mapping (no information), matching the paper's
    near-chance leftmost points.
    """
    model = shared_model(settings)
    dataset = make_dataset(
        dataset_name,
        n_per_class=settings.n_per_class,
        image_size=settings.image_size,
        seed=derive_seed(settings.seed, "fig8", dataset_name, run_seed),
        pair_seed=run_seed,
    )
    k = dataset.n_classes
    affinity = build_affinity(model, dataset.images, settings)
    hierarchical = HierarchicalModel(
        HierarchicalConfig(n_classes=k, seed=derive_seed(settings.seed, "fig8-inf", run_seed))
    ).fit(affinity, n_jobs=settings.n_jobs)
    out: dict[int, float] = {}
    for size in dev_sizes:
        per_class = size // k
        dev = dataset.sample_dev_set(per_class, seed=derive_seed(settings.seed, "fig8-dev", run_seed, size))
        mapping = map_clusters_to_classes(hierarchical.posterior, dev, k)
        posterior = apply_mapping(hierarchical.posterior, mapping)
        out[size] = 100 * labeling_accuracy(posterior, dataset.labels, exclude=dev.indices)
    return out


# ----------------------------------------------------------------------
# Figure 9: accuracy vs number of affinity functions
# ----------------------------------------------------------------------
def run_fig9(
    settings: ExperimentSettings,
    dataset_name: str,
    function_counts: tuple[int, ...] = (5, 10, 20, 30, 40, 50),
    run_seed: int = 0,
) -> dict[int, float]:
    """Figure 9: labeling accuracy as the affinity library grows.

    Base models are fitted once for all 50 functions; each sweep point
    re-runs only the ensemble on a random function subset.
    """
    model = shared_model(settings)
    dataset = make_dataset(
        dataset_name,
        n_per_class=settings.n_per_class,
        image_size=settings.image_size,
        seed=derive_seed(settings.seed, "fig9", dataset_name, run_seed),
        pair_seed=run_seed,
    )
    k = dataset.n_classes
    dev = dataset.sample_dev_set(
        settings.dev_per_class, seed=derive_seed(settings.seed, "fig9-dev", run_seed)
    )
    affinity = build_affinity(model, dataset.images, settings)
    hier = HierarchicalModel(
        HierarchicalConfig(n_classes=k, seed=derive_seed(settings.seed, "fig9-inf", run_seed))
    )
    label_predictions, _ = hier.fit_base_models(affinity, n_jobs=settings.n_jobs)
    alpha = affinity.n_functions
    rng = np.random.default_rng(derive_seed(settings.seed, "fig9-subsets", run_seed))
    out: dict[int, float] = {}
    for count in function_counts:
        chosen = np.sort(rng.choice(alpha, size=min(count, alpha), replace=False))
        columns = np.concatenate([np.arange(f * k, (f + 1) * k) for f in chosen])
        lp_subset = label_predictions[:, columns]
        ensemble = BernoulliMixture(
            n_components=k, seed=derive_seed(settings.seed, "fig9-ens", run_seed, int(count))
        )
        fit = ensemble.fit(one_hot_encode_lp(lp_subset, k))
        mapping = map_clusters_to_classes(fit.responsibilities, dev, k)
        posterior = apply_mapping(fit.responsibilities, mapping)
        out[count] = 100 * labeling_accuracy(posterior, dataset.labels, exclude=dev.indices)
    return out


# ----------------------------------------------------------------------
# Inference-design ablation (§4.1 design choices)
# ----------------------------------------------------------------------
def run_inference_ablation(
    settings: ExperimentSettings,
    dataset_name: str = "cub",
    run_seed: int = 0,
) -> dict[str, float]:
    """Ablate the hierarchical model's design choices on one dataset.

    Variants:
        * ``hierarchical`` — the paper's model (diag GMM + one-hot +
          Bernoulli ensemble).
        * ``soft_ensemble`` — skip one-hot encoding (Bernoulli on soft
          LP is invalid, so this uses a diagonal GMM ensemble), testing
          the "convert LP to one-hot" choice.
        * ``single_gmm`` — the naive flat model of §4: one GMM on the
          concatenated affinity features (PCA-reduced for tractability).
    """
    from repro.core.inference.base_gmm import DiagonalGMM

    model = shared_model(settings)
    dataset = make_dataset(
        dataset_name,
        n_per_class=settings.n_per_class,
        image_size=settings.image_size,
        seed=derive_seed(settings.seed, "ablation", dataset_name, run_seed),
        pair_seed=run_seed,
    )
    k = dataset.n_classes
    dev = dataset.sample_dev_set(settings.dev_per_class, seed=derive_seed(settings.seed, "abl-dev", run_seed))
    affinity = build_affinity(model, dataset.images, settings)
    out: dict[str, float] = {}

    hier = HierarchicalModel(
        HierarchicalConfig(n_classes=k, seed=derive_seed(settings.seed, "abl-h", run_seed))
    )
    result = hier.fit(affinity, n_jobs=settings.n_jobs)
    mapping = map_clusters_to_classes(result.posterior, dev, k)
    out["hierarchical"] = 100 * labeling_accuracy(
        apply_mapping(result.posterior, mapping), dataset.labels, exclude=dev.indices
    )

    soft_ensemble = DiagonalGMM(k, seed=derive_seed(settings.seed, "abl-soft", run_seed))
    soft_fit = soft_ensemble.fit(result.label_predictions)
    mapping = map_clusters_to_classes(soft_fit.responsibilities, dev, k)
    out["soft_ensemble"] = 100 * labeling_accuracy(
        apply_mapping(soft_fit.responsibilities, mapping), dataset.labels, exclude=dev.indices
    )

    reduced = PCA(min(32, affinity.n_examples - 1)).fit_transform(affinity.values)
    flat = DiagonalGMM(k, seed=derive_seed(settings.seed, "abl-flat", run_seed)).fit(reduced)
    mapping = map_clusters_to_classes(flat.responsibilities, dev, k)
    out["single_gmm"] = 100 * labeling_accuracy(
        apply_mapping(flat.responsibilities, mapping), dataset.labels, exclude=dev.indices
    )
    return out
