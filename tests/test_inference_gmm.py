"""Tests for the diagonal-covariance GMM base model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from repro.core import GogglesConfig
from repro.core.inference import hierarchical
from repro.core.inference.base_gmm import (
    DiagonalGMM,
    GMMFitResult,
    GMMParams,
    _centre,
    gmm_posterior,
    kmeans_plusplus_init,
)
from repro.utils.rng import spawn_rng
from repro.utils.validation import check_array


def _two_blobs(n_per=40, d=5, gap=6.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per, d))
    b = rng.standard_normal((n_per, d)) + gap
    labels = np.repeat([0, 1], n_per)
    return np.concatenate([a, b]), labels


class TestKMeansPlusPlus:
    def test_centers_are_data_points(self):
        x = np.random.default_rng(0).standard_normal((20, 3))
        centers = kmeans_plusplus_init(x, 4, np.random.default_rng(1))
        for center in centers:
            assert any(np.allclose(center, row) for row in x)

    def test_degenerate_data(self):
        x = np.zeros((10, 2))
        centers = kmeans_plusplus_init(x, 3, np.random.default_rng(2))
        assert centers.shape == (3, 2)


class TestDiagonalGMM:
    def test_recovers_separated_blobs(self):
        x, labels = _two_blobs()
        result = DiagonalGMM(2, seed=0).fit(x)
        hard = result.responsibilities.argmax(axis=1)
        accuracy = max((hard == labels).mean(), (1 - hard == labels).mean())
        assert accuracy > 0.95

    def test_responsibilities_are_distributions(self):
        x, _ = _two_blobs(seed=1)
        result = DiagonalGMM(2, seed=0).fit(x)
        np.testing.assert_allclose(result.responsibilities.sum(axis=1), 1.0, atol=1e-9)
        assert result.responsibilities.min() >= 0

    def test_log_likelihood_increases(self):
        """EM's defining property: the likelihood never decreases."""
        x, _ = _two_blobs(gap=2.0, seed=2)
        lls = []
        gmm = DiagonalGMM(2, max_iter=1, seed=3)
        # Manually run EM steps on the centred statistics and track the
        # likelihood trajectory.
        data = _centre(x)
        rng = spawn_rng(3, "diag-gmm")
        gmm.means_ = kmeans_plusplus_init(data.x, 2, rng)
        var = np.maximum(x.var(axis=0), gmm.variance_floor)
        gmm.variances_ = np.tile(var, (2, 1))
        gmm.weights_ = np.array([0.5, 0.5])
        for _ in range(15):
            resp, ll = gmm._e_step(data)
            lls.append(ll)
            gmm._m_step(data, resp, rng)
        assert all(b >= a - 1e-7 for a, b in zip(lls, lls[1:]))
        assert lls[-1] > lls[0]

    def test_convergence_flag(self):
        x, _ = _two_blobs(seed=4)
        result = DiagonalGMM(2, max_iter=200, seed=0).fit(x)
        assert result.converged
        assert result.n_iterations < 200

    def test_variance_floor_respected(self):
        # Duplicated points would drive variance to zero without the floor.
        x = np.tile(np.array([[1.0, 2.0]]), (30, 1))
        x[15:] += 5.0
        gmm = DiagonalGMM(2, variance_floor=1e-4, seed=0)
        gmm.fit(x)
        assert gmm.variances_.min() >= 1e-4

    def test_predict_proba_consistent_with_fit(self):
        x, _ = _two_blobs(seed=5)
        gmm = DiagonalGMM(2, seed=0)
        result = gmm.fit(x)
        np.testing.assert_allclose(gmm.predict_proba(x), result.responsibilities, atol=1e-9)
        np.testing.assert_array_equal(gmm.predict_proba(x), gmm_posterior(x, result.params))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            DiagonalGMM(2).predict_proba(np.zeros((2, 2)) + 1.0)

    def test_too_few_examples(self):
        with pytest.raises(ValueError, match="at least"):
            DiagonalGMM(3).fit(np.ones((2, 2)))

    def test_deterministic_given_seed(self):
        x, _ = _two_blobs(seed=6)
        a = DiagonalGMM(2, seed=9).fit(x).responsibilities
        b = DiagonalGMM(2, seed=9).fit(x).responsibilities
        np.testing.assert_array_equal(a, b)

    def test_weights_sum_to_one(self):
        x, _ = _two_blobs(seed=7)
        gmm = DiagonalGMM(2, seed=0)
        gmm.fit(x)
        np.testing.assert_allclose(gmm.weights_.sum(), 1.0)

    @given(st.integers(min_value=2, max_value=4))
    @settings(max_examples=8, deadline=None)
    def test_k_components_posterior_shape(self, k):
        x = np.random.default_rng(k).standard_normal((30, 4))
        result = DiagonalGMM(k, seed=0).fit(x)
        assert result.responsibilities.shape == (30, k)
        np.testing.assert_allclose(result.responsibilities.sum(axis=1), 1.0, atol=1e-8)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DiagonalGMM(0)
        with pytest.raises(ValueError):
            DiagonalGMM(2, max_iter=0)


class TestStackedPosterior:
    """``gmm_posterior`` over a stack of α models equals the per-model
    calls bit for bit: each slice runs the same kernel on the same shapes."""

    @pytest.mark.parametrize("m", [1, 5])
    def test_stack_equals_each_model(self, m):
        rng = np.random.default_rng(11)
        alpha, n, d, k = 4, 40, 16, 3
        # Affinity-like columns: near 0.99 with small variances.
        fits = [
            DiagonalGMM(k, seed=f).fit(0.99 + 1e-3 * rng.standard_normal((n, d))).params
            for f in range(alpha)
        ]
        stacked = GMMParams(
            weights=np.stack([p.weights for p in fits]),
            means=np.stack([p.means for p in fits]),
            variances=np.stack([p.variances for p in fits]),
        )
        rows = 0.99 + 1e-3 * rng.standard_normal((alpha, m, d))
        posterior = gmm_posterior(rows, stacked)
        assert posterior.shape == (alpha, m, k)
        for f in range(alpha):
            np.testing.assert_array_equal(posterior[f], gmm_posterior(rows[f], fits[f]))


# ----------------------------------------------------------------------
# Reference: the per-component EM the centred kernel replaced
# ----------------------------------------------------------------------
class ReferenceDiagonalGMM(DiagonalGMM):
    """The EM that ran before the centred sufficient-statistics kernel.

    Kept as a numerical reference: a per-component E-step over
    ``(x − μ_k)²`` normalised by scipy's ``logsumexp``, and a
    per-component M-step ``responsibilities[:, k] @ x``.  It fits the
    caller's array as given (no contiguous copy, no centring).
    """

    _LOG_2PI = np.log(2.0 * np.pi)

    def _log_prob(self, x):
        n, d = x.shape
        log_probs = np.empty((n, self.n_components))
        for k in range(self.n_components):
            diff_sq = (x - self.means_[k]) ** 2
            log_det = np.log(self.variances_[k]).sum()
            quad = (diff_sq / self.variances_[k]).sum(axis=1)
            log_probs[:, k] = -0.5 * (d * self._LOG_2PI + log_det + quad)
        return log_probs + np.log(np.maximum(self.weights_, 1e-300))

    def _e_step(self, x):
        log_joint = self._log_prob(x)
        log_norm = logsumexp(log_joint, axis=1, keepdims=True)
        return np.exp(log_joint - log_norm), float(log_norm.sum())

    def _m_step(self, x, responsibilities, rng):
        n, d = x.shape
        nk = responsibilities.sum(axis=0)
        for k in range(self.n_components):
            if nk[k] < 1e-10:
                idx = int(rng.integers(n))
                self.means_[k] = x[idx]
                self.variances_[k] = np.maximum(x.var(axis=0), self.variance_floor)
                self.weights_[k] = 1.0 / n
                continue
            self.weights_[k] = nk[k] / n
            self.means_[k] = responsibilities[:, k] @ x / nk[k]
            diff_sq = (x - self.means_[k]) ** 2
            self.variances_[k] = np.maximum(responsibilities[:, k] @ diff_sq / nk[k], self.variance_floor)
        self.weights_ /= self.weights_.sum()

    def fit(self, x, init=None):
        assert init is None, "the reference runs cold fits only"
        x = check_array(np.asarray(x, dtype=np.float64), name="x", ndim=2)
        k = self.n_components
        rng = spawn_rng(self.seed, "diag-gmm")
        self.means_ = kmeans_plusplus_init(x, k, rng)
        self.variances_ = np.tile(np.maximum(x.var(axis=0), self.variance_floor), (k, 1))
        self.weights_ = np.full(k, 1.0 / k)
        previous_ll = -np.inf
        converged = False
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            responsibilities, log_likelihood = self._e_step(x)
            self._m_step(x, responsibilities, rng)
            if log_likelihood - previous_ll < self.tol and iteration > 1:
                converged = True
                break
            previous_ll = log_likelihood
        responsibilities, log_likelihood = self._e_step(x)
        hard = responsibilities.argmax(axis=1)
        return GMMFitResult(
            responsibilities=responsibilities,
            log_likelihood=log_likelihood,
            n_iterations=iteration,
            converged=converged,
            params=GMMParams(self.weights_.copy(), self.means_.copy(), self.variances_.copy()),
            degenerate=k > 1 and np.unique(hard).size == 1,
        )


# Set before measuring: the kernel and the reference differ only in
# the order and grouping of float64 sums (measured ≤ 1.1e-13 on three
# 320-image corpora), so 1e-10 leaves margin without hiding a change of
# basin or of iteration count.
RESPONSIBILITY_ATOL = 1e-10


def _fit_both(affinity, config):
    """Every base fit plus the ensemble, through the kernel and the reference."""
    fitted = {}
    for name, model in (("kernel", DiagonalGMM), ("reference", ReferenceDiagonalGMM)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hierarchical, "DiagonalGMM", model)
            lp, results = hierarchical.fit_all_base_functions(affinity, config)
        fitted[name] = hierarchical.complete_hierarchy(lp, results, config)
    return fitted["kernel"], fitted["reference"]


def _fit_flags(result: GMMFitResult) -> tuple:
    return result.n_iterations, result.converged, result.degenerate, result.reinitialized


class TestAgainstReferenceEM:
    """The centred kernel reproduces the per-component EM it replaced."""

    @pytest.fixture(scope="class")
    def fitted(self, small_surface_affinity):
        return _fit_both(small_surface_affinity, GogglesConfig().hierarchical_config())

    def test_same_iterations_and_flags_per_function(self, fitted):
        kernel, reference = fitted
        assert kernel.n_functions == reference.n_functions == 50
        assert [_fit_flags(r) for r in kernel.base_results] == [_fit_flags(r) for r in reference.base_results]

    def test_responsibilities_within_tolerance(self, fitted):
        kernel, reference = fitted
        np.testing.assert_allclose(
            kernel.label_predictions, reference.label_predictions, rtol=0, atol=RESPONSIBILITY_ATOL
        )

    def test_one_hot_lp_identical(self, fitted):
        kernel, reference = fitted
        np.testing.assert_array_equal(kernel.one_hot, reference.one_hot)

    def test_ensemble_posterior_identical(self, fitted):
        kernel, reference = fitted
        np.testing.assert_array_equal(kernel.posterior, reference.posterior)

    def test_empty_component_reseeded_like_reference(self):
        x = np.random.default_rng(0).normal(size=(20, 4)) + 0.9
        resp = np.zeros((20, 3))
        resp[:, 0], resp[:, 2] = 0.3, 0.7  # component 1 holds no mass
        kernel = DiagonalGMM(3)
        kernel._m_step(_centre(x), resp, spawn_rng(5, "reseed"))
        reference = ReferenceDiagonalGMM(3)
        reference.means_, reference.variances_ = np.empty((3, 4)), np.empty((3, 4))
        reference.weights_ = np.empty(3)
        reference._m_step(x, resp, spawn_rng(5, "reseed"))
        assert any(np.array_equal(kernel.means_[1], row) for row in x)
        np.testing.assert_allclose(kernel.means_, reference.means_, rtol=0, atol=1e-12)
        np.testing.assert_allclose(kernel.variances_, reference.variances_, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(kernel.weights_, reference.weights_)

    def test_affinity_regime(self):
        """Columns near 0.99 with variances near the 1e-6 floor: the
        regime where an uncentred expansion loses the digits EM needs."""
        for seed in range(4):
            # Two overlapping classes, so the posterior stays soft and
            # EM runs tens of iterations: rounding has room to compound.
            rng = np.random.default_rng(seed)
            n, d = 100, 100
            centre = 0.99 + rng.uniform(-0.005, 0.005, size=d)
            scale = rng.uniform(1e-3, 1.5e-3, size=d)
            labels = rng.integers(0, 2, size=n)
            x = centre + np.where(labels[:, None] == 1, 0.2, -0.2) * scale
            x = x + scale * rng.standard_normal((n, d))
            kernel = DiagonalGMM(2, seed=seed).fit(x)
            reference = ReferenceDiagonalGMM(2, seed=seed).fit(x)
            assert _fit_flags(kernel) == _fit_flags(reference)
            np.testing.assert_allclose(
                kernel.responsibilities, reference.responsibilities, rtol=0, atol=RESPONSIBILITY_ATOL
            )
