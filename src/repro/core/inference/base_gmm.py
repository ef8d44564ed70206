"""Diagonal-covariance Gaussian mixture base model (paper §4.1–4.2).

Each base model fits one affinity function's block ``A_f ∈ R^{N×N}``
with a K-component GMM whose covariances are **diagonal** — the key
simplification that reduces parameters from O(N²) to O(N) per class
("Instead of using the full covariance matrix Σ_k ... we use the
diagonal covariance matrix", §4.1).  EM updates follow Eq. 8/10.

EM runs on centred sufficient statistics.  Once per fit the input is
copied C-contiguous, its column mean m subtracted, and
``F = [x − m, (x − m)²]`` built, shape ``(N, 2D)``.  With δ_k = μ_k − m,

    Σ_j (x_j − μ_kj)² / σ²_kj = F · [−2δ_k/σ²_k ; 1/σ²_k] + Σ_j δ²_kj / σ²_kj,

so an E-step is one GEMM ``F·W`` plus a per-component constant, and an
M-step is one GEMM ``Rᵀ·F`` giving Σγ(x−m) and Σγ(x−m)², from which
δ_k = Σγ(x−m)/n_k and σ²_k = Σγ(x−m)²/n_k − δ²_k.  Centring is what
keeps the expansion exact enough: affinity columns sit near 0.99 with
variances down to 1e-6, and the uncentred ``x²/σ²`` terms would cancel
away the digits EM needs.  Copying first also makes a fit independent
of its input's memory layout (a strided block of the affinity matrix
and its contiguous copy fit bit-identically).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.utils.rng import spawn_rng
from repro.utils.validation import check_array

__all__ = ["DiagonalGMM", "GMMFitResult", "GMMParams", "gmm_posterior", "kmeans_plusplus_init"]

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class GMMParams:
    """The fitted parameters of a diagonal GMM (a warm-start seed).

    Attributes:
        weights: ``(K,)`` mixing weights π.
        means: ``(K, D)`` component means μ.
        variances: ``(K, D)`` diagonal covariances Σ.

    A stack of α models holds the same fields with a leading axis:
    ``(α, K)``, ``(α, K, D)`` and ``(α, K, D)``.  :func:`gmm_posterior`
    scores such a stack in one call.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray


@dataclass(frozen=True)
class GMMFitResult:
    """Outcome of one EM run.

    Attributes:
        responsibilities: ``(N, K)`` posterior P(y_i = k | s_i) (Eq. 8).
        log_likelihood: final data log-likelihood (Eq. 5).
        n_iterations: EM iterations executed.
        converged: whether the tolerance was reached before max_iter.
        params: the fitted parameters (warm-start seed for a later fit).
        degenerate: every instance's posterior argmax landed in a single
            component — the fit collapsed and carries no class signal.
        reinitialized: the fit collapsed once and was retried from a
            derived seed (see ``fit_base_function``).
    """

    responsibilities: np.ndarray
    log_likelihood: float
    n_iterations: int
    converged: bool
    params: GMMParams | None = None
    degenerate: bool = False
    reinitialized: bool = False


def kmeans_plusplus_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: returns ``(K, D)`` initial means."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    closest_sq = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 1e-12:
            centers[j] = x[int(rng.integers(n))]
            continue
        probs = closest_sq / total
        choice = int(rng.choice(n, p=probs))
        centers[j] = x[choice]
        closest_sq = np.minimum(closest_sq, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


class _Centred(NamedTuple):
    """One fit's input, prepared once: ``x`` as a C-contiguous copy, its
    column mean ``centre`` and ``features = [x − centre, (x − centre)²]``."""

    x: np.ndarray
    centre: np.ndarray
    features: np.ndarray


def _features(x: np.ndarray, centre: np.ndarray) -> np.ndarray:
    """``[x − centre, (x − centre)²]`` as one ``(..., N, 2D)`` array."""
    d = x.shape[-1]
    features = np.empty((*x.shape[:-1], 2 * d))
    diff = np.subtract(x, centre, out=features[..., :d])
    np.square(diff, out=features[..., d:])
    return features


def _centre(x: np.ndarray) -> _Centred:
    x = np.array(x, dtype=np.float64, order="C")
    centre = x.mean(axis=0)
    return _Centred(x, centre, _features(x, centre))


def _log_joint(features: np.ndarray, centre: np.ndarray, params: GMMParams) -> np.ndarray:
    """Per-component joint log density log π_k + log N(x | μ_k, Σ_k), ``(..., N, K)``.

    Leading axes stack models: each slice is one GEMM of the same shape
    as a single model's, so a stacked call equals its per-model calls
    bit for bit.
    """
    precision = 1.0 / params.variances
    offset = params.means - centre
    coefficients = np.concatenate([-2.0 * offset * precision, precision], axis=-1)
    constant = (
        centre.shape[-1] * _LOG_2PI
        + np.log(params.variances).sum(axis=-1)
        + (offset * offset * precision).sum(axis=-1)
    )
    log_weights = np.log(np.maximum(params.weights, 1e-300))
    scaled = features @ np.swapaxes(coefficients, -1, -2) + constant[..., None, :]
    return log_weights[..., None, :] - 0.5 * scaled


def _normalise(log_joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior rows and their ``(..., N, 1)`` log normaliser (max-shifted)."""
    shift = log_joint.max(axis=-1, keepdims=True)
    log_norm = shift + np.log(np.exp(log_joint - shift).sum(axis=-1, keepdims=True))
    return np.exp(log_joint - log_norm), log_norm


def gmm_posterior(x: np.ndarray, params: GMMParams) -> np.ndarray:
    """Posterior P(y = k | x) of rows ``x`` under a fitted diagonal GMM.

    Centred on the mixture mean Σπ_kμ_k, which equals the training
    column mean after any M-step, so new rows score through the same
    kernel, with the same conditioning, as the fit's own E-step.

    ``x`` of shape ``(α, M, D)`` under a stack of α models (see
    :class:`GMMParams`) gives the ``(α, M, K)`` posteriors, each slice
    equal to the single-model call on ``x[f]``.
    """
    centre = params.weights[..., None, :] @ params.means
    return _normalise(_log_joint(_features(x, centre), centre, params))[0]


class DiagonalGMM:
    """K-component Gaussian mixture with diagonal covariances.

    Parameters:
        n_components: K, the number of classes/clusters.
        max_iter: EM iteration cap.
        tol: convergence threshold on the log-likelihood increase.
        variance_floor: lower bound applied to every variance, guarding
            against singular components on (near-)duplicated columns.
        seed: RNG seed for the k-means++ initialisation.
    """

    def __init__(
        self,
        n_components: int,
        max_iter: int = 100,
        tol: float = 1e-6,
        variance_floor: float = 1e-6,
        seed: int | np.random.Generator = 0,
    ):
        if n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {n_components}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.n_components = n_components
        self.max_iter = max_iter
        self.tol = tol
        self.variance_floor = variance_floor
        self.seed = seed
        self.weights_: np.ndarray | None = None
        self.means_: np.ndarray | None = None
        self.variances_: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _params(self) -> GMMParams:
        assert self.means_ is not None and self.variances_ is not None and self.weights_ is not None
        return GMMParams(weights=self.weights_, means=self.means_, variances=self.variances_)

    def _e_step(self, data: _Centred) -> tuple[np.ndarray, float]:
        responsibilities, log_norm = _normalise(_log_joint(data.features, data.centre, self._params()))
        return responsibilities, float(log_norm.sum())

    def _m_step(self, data: _Centred, responsibilities: np.ndarray, rng: np.random.Generator) -> None:
        x, centre, features = data
        n, d = x.shape
        nk = responsibilities.sum(axis=0)
        empty = nk < 1e-10
        mass = np.where(empty, 1.0, nk)[:, None]
        sums = responsibilities.T @ features  # (K, 2D): Σγ(x−m) | Σγ(x−m)²
        offset = sums[:, :d] / mass
        means = centre + offset
        variances = np.maximum(sums[:, d:] / mass - offset * offset, self.variance_floor)
        weights = nk / n
        for k in np.flatnonzero(empty):
            # Re-seed an empty component at a random data point.
            means[k] = x[int(rng.integers(n))]
            variances[k] = np.maximum(x.var(axis=0), self.variance_floor)
            weights[k] = 1.0 / n
        self.weights_, self.means_, self.variances_ = weights / weights.sum(), means, variances

    def _initialise(
        self, data: _Centred, init: GMMParams | np.ndarray | None, rng: np.random.Generator
    ) -> None:
        """Set the starting parameters for EM.

        ``init`` may be ``None`` (k-means++ initialisation, the cold
        path), a :class:`GMMParams` (resume EM from those parameters —
        only valid while the feature dimension is unchanged), or an
        ``(N, K)`` responsibility matrix (one M-step from the given
        posterior — the portable warm start, since responsibilities
        survive a change of feature dimension while means do not).
        """
        x = data.x
        n, d = x.shape
        k = self.n_components
        if init is None:
            self.means_ = kmeans_plusplus_init(x, k, rng)
            global_var = np.maximum(x.var(axis=0), self.variance_floor)
            self.variances_ = np.tile(global_var, (k, 1))
            self.weights_ = np.full(k, 1.0 / k)
            return
        if isinstance(init, GMMParams):
            if init.means.shape != (k, d) or init.variances.shape != (k, d) or init.weights.shape != (k,):
                raise ValueError(
                    f"init params shaped {init.weights.shape}/{init.means.shape}/"
                    f"{init.variances.shape} do not match (K={k}, D={d})"
                )
            self.weights_ = np.asarray(init.weights, dtype=np.float64).copy()
            self.weights_ /= self.weights_.sum()
            self.means_ = np.asarray(init.means, dtype=np.float64).copy()
            self.variances_ = np.maximum(np.asarray(init.variances, dtype=np.float64), self.variance_floor)
            return
        responsibilities = check_array(
            np.asarray(init, dtype=np.float64), name="init responsibilities", ndim=2
        )
        if responsibilities.shape != (n, k):
            raise ValueError(f"init responsibilities shaped {responsibilities.shape}, expected ({n}, {k})")
        self._m_step(data, responsibilities, rng)

    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, init: GMMParams | np.ndarray | None = None) -> GMMFitResult:
        """Run EM on ``x`` of shape ``(N, D)`` and return the fit result.

        ``init`` warm-starts EM (see :meth:`_initialise`); warm-started
        runs typically converge in a fraction of the cold iterations.
        """
        x = check_array(np.asarray(x, dtype=np.float64), name="x", ndim=2)
        n = x.shape[0]
        if n < self.n_components:
            raise ValueError(f"need at least {self.n_components} examples, got {n}")
        rng = spawn_rng(self.seed, "diag-gmm")
        data = _centre(x)
        self._initialise(data, init, rng)

        previous_ll = -np.inf
        responsibilities = np.full((n, self.n_components), 1.0 / self.n_components)
        converged = False
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            responsibilities, log_likelihood = self._e_step(data)
            self._m_step(data, responsibilities, rng)
            if log_likelihood - previous_ll < self.tol and iteration > 1:
                converged = True
                previous_ll = log_likelihood
                break
            previous_ll = log_likelihood
        # Final E-step so responsibilities match the last parameters.
        responsibilities, log_likelihood = self._e_step(data)
        hard = responsibilities.argmax(axis=1)
        return GMMFitResult(
            responsibilities=responsibilities,
            log_likelihood=log_likelihood,
            n_iterations=iteration,
            converged=converged,
            params=GMMParams(
                weights=self.weights_.copy(),
                means=self.means_.copy(),
                variances=self.variances_.copy(),
            ),
            degenerate=self.n_components > 1 and np.unique(hard).size == 1,
        )

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Posterior P(y = k | x) for new rows under the fitted model."""
        if self.means_ is None:
            raise RuntimeError("DiagonalGMM must be fitted before predict_proba")
        return gmm_posterior(check_array(np.asarray(x, dtype=np.float64), name="x", ndim=2), self._params())
