"""The staged inference engine: parallel base fits, warm starts, caching.

Mirrors the affinity engine on step 2 of the pipeline (the hierarchical
generative model of paper §4.1)::

    affinity ──(1) per-function base GMM fits──> label predictions LP
             ──(2) one-hot + Bernoulli ensemble──> posterior
             ──(3) artifact cache──> fitted parameters + posterior on disk
    extended affinity ──(4) warm start──> EM resumes from the previous fit

Stage 1 is embarrassingly parallel — "we can parallelize all of the
base models using different slices of the affinity matrix" (§5.3).
``n_jobs > 1`` fans the fits over a thread pool (the EM inner loops are
BLAS-bound and release the GIL; ``n_jobs=1`` fits serially).  Every
fit consumes its own ``derive_seed`` stream, so posteriors are
**bit-identical** at any ``n_jobs``.

Stage 4 is the incremental-inference path: instead of refitting from
scratch, the base GMMs resume from the previous run's posterior (old
rows keep their responsibilities; new rows are initialised by
affinity-weighted propagation of the old posterior) and the ensemble
resumes from its previous parameters — its dimension α·K does not
change when the corpus grows.  Warm-started EM converges in a fraction
of the cold iterations while landing in the same basin; agreement with
a cold refit is checked in the test suite and benchmarks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.core.affinity import AffinityMatrix
from repro.core.inference.base_gmm import GMMFitResult
from repro.core.inference.bernoulli import (
    BernoulliFitResult,
    BernoulliParams,
    one_hot_encode_lp,
)
from repro.core.inference.hierarchical import (
    HierarchicalConfig,
    HierarchicalResult,
    complete_hierarchy,
    fit_all_base_functions,
    warn_if_reinitialized,
)
from repro.engine.cache import ArtifactCache, hash_arrays
from repro.obs import span

__all__ = ["InferenceState", "InferenceEngine", "warm_start_responsibilities"]


@dataclass(frozen=True)
class InferenceState:
    """Everything a fit leaves behind for warm-starting the next one.

    Attributes:
        label_predictions: ``(N, α·K)`` concatenated soft base-model
            posteriors of the previous fit (the per-function
            responsibilities, which survive corpus growth — unlike the
            GMM means, whose dimension is N).
        ensemble: fitted Bernoulli-mixture parameters (dimension α·K,
            unchanged by corpus growth).
        n_examples: corpus size N of the previous fit.
        n_classes: K.
    """

    label_predictions: np.ndarray
    ensemble: BernoulliParams
    n_examples: int
    n_classes: int

    @property
    def n_functions(self) -> int:
        return int(self.label_predictions.shape[1] // self.n_classes)

    def compatible_with(self, affinity: AffinityMatrix, n_classes: int) -> bool:
        """Whether this state can warm-start a fit on ``affinity``."""
        return (
            self.n_classes == n_classes
            and self.n_functions == affinity.n_functions
            and self.n_examples <= affinity.n_examples
            and self.ensemble.probs.shape == (n_classes, affinity.n_functions * n_classes)
        )


def warm_start_responsibilities(state: InferenceState, affinity: AffinityMatrix) -> list[np.ndarray]:
    """Per-function initial responsibilities for a (possibly grown) corpus.

    Rows present in the previous fit reuse their posterior verbatim.
    New rows are initialised by affinity-weighted propagation: the new
    instance's affinities to the old corpus (shifted from [-1, 1] to
    [0, 1]) average the old responsibilities — instances similar to a
    cluster start in that cluster.  This is the "new rows initialized
    from posterior responsibilities" seed that EM then refines.  The
    shift runs in float64 whatever the table's dtype, so a float32
    table seeds the same values as its float64 copy.
    """
    n_prev, k = state.n_examples, state.n_classes
    n = affinity.n_examples
    inits: list[np.ndarray] = []
    for f in range(affinity.n_functions):
        old = state.label_predictions[:, f * k : (f + 1) * k]
        if n == n_prev:
            inits.append(old)
            continue
        rows = affinity.block(f)[n_prev:, :n_prev].astype(np.float64)
        weights = (rows + 1.0) / 2.0  # (M, N_prev), >= 0
        new = weights @ old
        norm = new.sum(axis=1, keepdims=True)
        new = np.where(norm > 1e-12, new / np.maximum(norm, 1e-12), 1.0 / k)
        inits.append(np.concatenate([old, new], axis=0))
    return inits


class InferenceEngine:
    """Fits the hierarchical model with staged, cache-aware execution.

    Parameters:
        config: hierarchical-model hyper-parameters (the engine derives
            the exact same seed streams as
            :class:`~repro.core.inference.hierarchical.HierarchicalModel`,
            so results match the monolithic path bit-for-bit).
        n_jobs: threads the base-model fits fan out over (1 = serial).
            Above 1, the pool pins the process to one BLAS thread and
            one malloc arena
            (:func:`repro.utils.threads.pin_thread_budget`): each fit
            is a loop of small GEMMs, which a multi-threaded OpenBLAS
            would split over the cores the pool already keeps busy.
        cache: optional artifact cache; fitted parameters and the
            posterior are persisted next to the corpus state, so a
            fresh process can restore the warm-start state from disk.
    """

    def __init__(
        self,
        config: HierarchicalConfig | None = None,
        *,
        n_jobs: int = 1,
        cache: ArtifactCache | None = None,
    ):
        self.config = config or HierarchicalConfig()
        if self.config.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.config.n_classes}")
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        self.n_jobs = n_jobs
        self.cache = cache
        self._state: InferenceState | None = None

    # ------------------------------------------------------------------
    # State & keys
    # ------------------------------------------------------------------
    @property
    def state(self) -> InferenceState | None:
        """The warm-start state of the last fit (or cache restore), if any."""
        return self._state

    def _params(self, warm: InferenceState | None) -> dict[str, object]:
        # Every value-affecting input: the full hyper-parameter set and,
        # for warm starts, the content of the initialisation (a warm fit
        # may settle in a slightly different optimum than a cold one, so
        # the two must never share a key).  ``n_jobs`` is deliberately
        # excluded: it cannot change values.
        params: dict[str, object] = {"stage": "inference", **asdict(self.config)}
        if warm is not None:
            params["warm"] = hash_arrays(warm.label_predictions, warm.ensemble.weights, warm.ensemble.probs)
        return params

    def _key(self, affinity: AffinityMatrix, warm: InferenceState | None) -> str | None:
        if self.cache is None:
            return None
        return self.cache.key(hash_arrays(affinity.values), self._params(warm))

    # ------------------------------------------------------------------
    # Full fit
    # ------------------------------------------------------------------
    def fit(self, affinity: AffinityMatrix, warm_start: InferenceState | None = None) -> HierarchicalResult:
        """Run the staged hierarchy: base fits → one-hot → ensemble.

        ``warm_start`` resumes EM from a previous fit's state (silently
        ignored when incompatible — different K, α, or a shrunk corpus).
        Cache-aware: an identical (affinity, config, warm-start) triple
        is a disk load that also restores the warm-start state.
        """
        with span("inference.fit"):
            return self._fit(affinity, warm_start)

    def _fit(self, affinity: AffinityMatrix, warm_start: InferenceState | None) -> HierarchicalResult:
        cfg = self.config
        if warm_start is not None and not warm_start.compatible_with(affinity, cfg.n_classes):
            warm_start = None
        key = self._key(affinity, warm_start)
        if key is not None:
            cached = self._load_cached(key, affinity)
            if cached is not None:
                return cached

        inits = warm_start_responsibilities(warm_start, affinity) if warm_start else None
        label_predictions, base_results = fit_all_base_functions(
            affinity, cfg, n_jobs=self.n_jobs, initializers=inits
        )
        result = complete_hierarchy(
            label_predictions,
            base_results,
            cfg,
            ensemble_init=warm_start.ensemble if warm_start else None,
        )
        assert result.ensemble_result.params is not None
        self._state = InferenceState(
            label_predictions=label_predictions,
            ensemble=result.ensemble_result.params,
            n_examples=affinity.n_examples,
            n_classes=cfg.n_classes,
        )
        if key is not None:
            self._save_cached(key, result)
        return result

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _save_cached(self, key: str, result: HierarchicalResult) -> None:
        assert self.cache is not None
        base = result.base_results
        arrays = {
            "posterior": result.posterior,
            "label_predictions": result.label_predictions,
            "ens_weights": result.ensemble_result.params.weights,
            "ens_probs": result.ensemble_result.params.probs,
            "base_ll": np.array([r.log_likelihood for r in base]),
            "base_iters": np.array([r.n_iterations for r in base], dtype=np.int64),
            "base_converged": np.array([r.converged for r in base], dtype=bool),
            "base_reinit": np.array([r.reinitialized for r in base], dtype=bool),
            "base_degenerate": np.array([r.degenerate for r in base], dtype=bool),
            "ens_ll": np.float64(result.ensemble_result.log_likelihood),
            "ens_iters": np.int64(result.ensemble_result.n_iterations),
            "ens_converged": np.bool_(result.ensemble_result.converged),
            "n_classes": np.int64(self.config.n_classes),
        }
        self.cache.save_arrays("inference", key, arrays)

    def _load_cached(self, key: str, affinity: AffinityMatrix) -> HierarchicalResult | None:
        assert self.cache is not None
        n, alpha, k = affinity.n_examples, affinity.n_functions, self.config.n_classes

        def parse(stored: dict[str, np.ndarray]) -> HierarchicalResult:
            label_predictions = stored["label_predictions"]
            if int(stored["n_classes"]) != k or label_predictions.shape != (n, alpha * k):
                raise ValueError("cached fit is for another K or affinity shape")
            base_names = ("base_ll", "base_iters", "base_converged", "base_degenerate", "base_reinit")
            if any(stored[name].shape != (alpha,) for name in base_names):
                raise ValueError("cached fit holds a base-fit array of the wrong length")
            base_results = tuple(
                GMMFitResult(
                    responsibilities=label_predictions[:, f * k : (f + 1) * k],
                    log_likelihood=float(stored["base_ll"][f]),
                    n_iterations=int(stored["base_iters"][f]),
                    converged=bool(stored["base_converged"][f]),
                    degenerate=bool(stored["base_degenerate"][f]),
                    reinitialized=bool(stored["base_reinit"][f]),
                )
                for f in range(alpha)
            )
            ensemble_result = BernoulliFitResult(
                responsibilities=stored["posterior"],
                log_likelihood=float(stored["ens_ll"]),
                n_iterations=int(stored["ens_iters"]),
                converged=bool(stored["ens_converged"]),
                params=BernoulliParams(weights=stored["ens_weights"], probs=stored["ens_probs"]),
            )
            return HierarchicalResult(
                posterior=stored["posterior"],
                label_predictions=label_predictions,
                one_hot=one_hot_encode_lp(label_predictions, k),
                base_results=base_results,
                ensemble_result=ensemble_result,
            )

        result = self.cache.load_arrays("inference", key, parse)
        if result is None:
            return None
        # A cached replay keeps its diagnostics: collapsed base fits
        # warn exactly as the original fit did.
        warn_if_reinitialized(result.base_results)
        self._state = InferenceState(
            label_predictions=result.label_predictions,
            ensemble=result.ensemble_result.params,
            n_examples=n,
            n_classes=k,
        )
        return result
