"""The hierarchical generative model (paper §4.1, Figure 6).

Layer 1 — *base models*: one diagonal-covariance GMM per affinity
function, fit on that function's ``N×N`` block of the affinity matrix;
each emits a label-prediction matrix ``LP_f ∈ R^{N×K}``.

Layer 2 — *ensemble*: the α matrices are concatenated, one-hot encoded,
and modelled by a K-component multivariate-Bernoulli mixture whose
posterior is the final (cluster-space) label distribution.

The hierarchy fixes both §4 challenges: parameters drop from
``K(C(αN,2)+αN)`` to ``2αKN + αK``, and the ensemble learns per-function
reliabilities, performing implicit affinity-function selection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from repro.core.affinity import AffinityMatrix
from repro.core.inference.base_gmm import DiagonalGMM, GMMFitResult, GMMParams
from repro.core.inference.bernoulli import (
    BernoulliFitResult,
    BernoulliMixture,
    BernoulliParams,
    one_hot_encode_lp,
)
from repro.utils.rng import derive_seed
from repro.utils.threads import pin_thread_budget

__all__ = [
    "HierarchicalConfig",
    "HierarchicalResult",
    "HierarchicalModel",
    "fit_base_function",
    "fit_all_base_functions",
    "fit_ensemble",
    "complete_hierarchy",
    "warn_if_reinitialized",
    "naive_parameter_count",
    "hierarchical_parameter_count",
]


@dataclass(frozen=True)
class HierarchicalConfig:
    """Hyper-parameters of the hierarchical model.

    Attributes:
        n_classes: K.
        base_max_iter / base_tol: EM schedule for the per-function GMMs.
        ensemble_max_iter / ensemble_tol: EM schedule for the ensemble.
        ensemble_n_init: random restarts for the Bernoulli mixture.
        variance_floor: variance clamp inside the base GMMs.
        seed: root seed; every base model derives an independent stream.
    """

    n_classes: int = 2
    base_max_iter: int = 100
    base_tol: float = 1e-6
    ensemble_max_iter: int = 200
    ensemble_tol: float = 1e-7
    ensemble_n_init: int = 4
    variance_floor: float = 1e-6
    seed: int = 0


@dataclass(frozen=True)
class HierarchicalResult:
    """Everything the hierarchical model produced.

    Attributes:
        posterior: ``(N, K)`` final ensemble posterior, in *cluster*
            space (columns not yet aligned to classes — see
            ``repro.core.inference.mapping``).
        label_predictions: ``(N, α·K)`` concatenated soft base-model
            predictions (LP before one-hot encoding).
        one_hot: the one-hot encoded LP actually given to the ensemble.
        base_results: per-function GMM fit results (order = function order).
        ensemble_result: the Bernoulli-mixture fit result.
    """

    posterior: np.ndarray
    label_predictions: np.ndarray
    one_hot: np.ndarray
    base_results: tuple[GMMFitResult, ...]
    ensemble_result: BernoulliFitResult

    @property
    def n_functions(self) -> int:
        return len(self.base_results)

    @property
    def reinitialized_functions(self) -> tuple[int, ...]:
        """Functions whose base GMM collapsed and was refit from a derived seed."""
        return tuple(f for f, r in enumerate(self.base_results) if r.reinitialized)

    @property
    def total_em_iterations(self) -> int:
        """EM iterations across all base models plus the ensemble (the
        quantity warm-started inference reduces)."""
        return sum(r.n_iterations for r in self.base_results) + self.ensemble_result.n_iterations

    def function_informativeness(self) -> np.ndarray:
        """Per-function usefulness learned by the ensemble, in [0, 1].

        For affinity function f the ensemble holds Bernoulli parameters
        ``b[k, fK:(f+1)K]`` describing how each final class votes in
        f's block.  A useless function votes identically regardless of
        class; an informative one votes differently.  We report the
        mean total-variation distance between class rows, which is the
        quantity Figure 5's visual contrast illustrates.
        """
        n, width = self.one_hot.shape
        k = self.posterior.shape[1]
        alpha = width // k
        # Recover per-class vote profiles from the one-hot LP weighted
        # by the posterior (equivalent to the fitted b up to clamping).
        nk = np.maximum(self.posterior.sum(axis=0), 1e-10)
        b = (self.posterior.T @ self.one_hot) / nk[:, None]  # (K, α·K)
        scores = np.empty(alpha)
        for f in range(alpha):
            block = b[:, f * k : (f + 1) * k]
            total_variation = 0.0
            pairs = 0
            for a in range(k):
                for c in range(a + 1, k):
                    total_variation += 0.5 * np.abs(block[a] - block[c]).sum()
                    pairs += 1
            scores[f] = total_variation / max(pairs, 1)
        return scores


def fit_base_function(
    block: np.ndarray,
    config: HierarchicalConfig,
    function_index: int,
    init: GMMParams | np.ndarray | None = None,
) -> GMMFitResult:
    """Fit the base GMM of one affinity function (module-level, so
    distributed base-fit shards run it too — see ``repro.distributed.tasks``).

    A degenerate fit (every posterior argmax in one component — a
    collapsed EM run carrying no class signal) is detected and retried
    once from a derived seed; the outcome carries ``reinitialized=True``
    either way so callers can surface a warning.  If the retry collapses
    too, the higher-likelihood run is kept.
    """

    def make(seed: int) -> DiagonalGMM:
        return DiagonalGMM(
            n_components=config.n_classes,
            max_iter=config.base_max_iter,
            tol=config.base_tol,
            variance_floor=config.variance_floor,
            seed=seed,
        )

    result = make(derive_seed(config.seed, "base", function_index)).fit(block, init=init)
    if not result.degenerate:
        return result
    retry = make(derive_seed(config.seed, "base-reinit", function_index)).fit(block)
    if retry.degenerate and retry.log_likelihood <= result.log_likelihood:
        return replace(result, reinitialized=True)
    return replace(retry, reinitialized=True)


def fit_all_base_functions(
    affinity: AffinityMatrix,
    config: HierarchicalConfig,
    n_jobs: int = 1,
    initializers: "list[np.ndarray] | None" = None,
) -> tuple[np.ndarray, tuple[GMMFitResult, ...]]:
    """Fit every base GMM (serial or thread fan-out) and concatenate LP.

    The single serial/thread implementation shared by
    :class:`HierarchicalModel` and ``repro.engine.inference`` (which
    adds a distributed branch on top).  ``initializers`` optionally
    warm-starts function f from ``initializers[f]`` responsibilities.
    Collapsed fits warn here, once, whatever the caller.
    """
    alpha = affinity.n_functions

    def fit_one(f: int) -> GMMFitResult:
        init = initializers[f] if initializers is not None else None
        return fit_base_function(affinity.block(f), config, f, init=init)

    if n_jobs > 1 and alpha > 1:
        from concurrent.futures import ThreadPoolExecutor

        pin_thread_budget()  # each fit is a loop of small GEMMs: the pool owns the cores
        with ThreadPoolExecutor(max_workers=min(n_jobs, alpha)) as pool:
            results = tuple(pool.map(fit_one, range(alpha)))
    else:
        results = tuple(fit_one(f) for f in range(alpha))
    warn_if_reinitialized(results)
    label_predictions = np.concatenate([r.responsibilities for r in results], axis=1)
    assert label_predictions.shape == (affinity.n_examples, alpha * config.n_classes)
    return label_predictions, results


def fit_ensemble(
    one_hot: np.ndarray, config: HierarchicalConfig, init: BernoulliParams | None = None
) -> BernoulliFitResult:
    """Fit the Bernoulli ensemble with the hierarchy's seed stream.

    The single place that derives the ensemble seed — both
    :class:`HierarchicalModel` and ``repro.engine.inference`` go
    through it, so the staged engine can never desync from the
    monolithic path.
    """
    ensemble = BernoulliMixture(
        n_components=config.n_classes,
        max_iter=config.ensemble_max_iter,
        tol=config.ensemble_tol,
        n_init=config.ensemble_n_init,
        seed=derive_seed(config.seed, "ensemble"),
    )
    return ensemble.fit(one_hot, init=init)


def complete_hierarchy(
    label_predictions: np.ndarray,
    base_results: tuple[GMMFitResult, ...],
    config: HierarchicalConfig,
    ensemble_init: BernoulliParams | None = None,
) -> HierarchicalResult:
    """Layer 2: one-hot encode LP, fit the ensemble, assemble the result.

    Shared tail of the hierarchy — both :meth:`HierarchicalModel.fit`
    and the staged ``InferenceEngine`` end here, so the two paths
    cannot drift apart.
    """
    one_hot = one_hot_encode_lp(label_predictions, config.n_classes)
    ensemble_result = fit_ensemble(one_hot, config, init=ensemble_init)
    return HierarchicalResult(
        posterior=ensemble_result.responsibilities,
        label_predictions=label_predictions,
        one_hot=one_hot,
        base_results=base_results,
        ensemble_result=ensemble_result,
    )


def warn_if_reinitialized(results: tuple[GMMFitResult, ...]) -> None:
    """Surface a RuntimeWarning when any base GMM had to be re-initialised."""
    reinitialized = tuple(f for f, r in enumerate(results) if r.reinitialized)
    if reinitialized:
        warnings.warn(
            f"base GMM(s) {reinitialized} collapsed (all responsibility in one "
            "component) and were re-initialized from a derived seed; the affected "
            "affinity functions may be uninformative on this corpus",
            RuntimeWarning,
            stacklevel=3,
        )


def naive_parameter_count(n_examples: int, n_functions: int, n_classes: int) -> int:
    """Parameters of a full-covariance GMM on all of A: K(C(αN,2)+αN) (§4)."""
    d = n_functions * n_examples
    return n_classes * (d * (d - 1) // 2 + d)


def hierarchical_parameter_count(n_examples: int, n_functions: int, n_classes: int) -> int:
    """Parameters of the hierarchical model: 2αKN + αK (§4.1)."""
    return 2 * n_functions * n_classes * n_examples + n_functions * n_classes


class HierarchicalModel:
    """Fits the two-layer generative model on an affinity matrix."""

    def __init__(self, config: HierarchicalConfig | None = None):
        self.config = config or HierarchicalConfig()
        if self.config.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.config.n_classes}")

    def fit_base_models(
        self, affinity: AffinityMatrix, n_jobs: int = 1
    ) -> tuple[np.ndarray, tuple[GMMFitResult, ...]]:
        """Fit one diagonal GMM per affinity function.

        Returns the concatenated soft LP matrix ``(N, α·K)`` and the
        per-function fit results.  Base models are independent — "in
        practice ... we can parallelize all of the base models using
        different slices of the affinity matrix" (§5.3) — so
        ``n_jobs > 1`` fans the loop out over a thread pool (the EM
        inner loops are numpy-bound and release the GIL).
        """
        return fit_all_base_functions(affinity, self.config, n_jobs=n_jobs)

    def fit(self, affinity: AffinityMatrix, n_jobs: int = 1) -> HierarchicalResult:
        """Run the full hierarchy: base GMMs -> one-hot -> ensemble."""
        label_predictions, base_results = self.fit_base_models(affinity, n_jobs=n_jobs)
        return complete_hierarchy(label_predictions, base_results, self.config)
