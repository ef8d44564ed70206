"""Sufficient-statistics accumulators for the mixture models.

Both layers of the hierarchical model (paper §4.1) are exponential-family
mixtures, so a fitted model is fully described by its expected
sufficient statistics — per-component responsibility mass and weighted
first (and, for the Gaussians, second) moments.  Summarising a fit this
way costs O(K·d) memory regardless of how many rows produced it, which
is what lets the online serving loop absorb arrivals without holding —
or revisiting — the corpus.

Two combination rules are provided:

* :meth:`merge` — exact additive pooling: merging the statistics of two
  batches equals computing the statistics of the concatenated data
  (the property test hammers this).  Used to seed a session from a
  finished fit.
* :meth:`blend` — the stepwise-EM update of Cappé & Moulines (2009):
  ``s ← (1-ρ_t)·s + ρ_t·ŝ_batch`` over *per-row-normalised* statistics,
  with a decaying step size ``ρ_t = (t₀+t)^{-κ}``, κ ∈ (0.5, 1].  Each
  mini-batch moves the parameters O(ρ_t), so the update cost per step
  is O(batch·d) — independent of the corpus size.

Statistics are stored per-row-normalised (``nk`` sums to 1): the M-step
formulas are scale-invariant, and normalised statistics make the blend
a plain convex combination.

:class:`GMMStats` also holds a stack of α base models at once — every
array gains a leading ``(α,)`` axis — so the online session updates all
of them in one call.  Each slice of a stacked result equals the
single-model result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.inference.base_gmm import GMMParams
from repro.core.inference.bernoulli import BernoulliParams

__all__ = ["GMMStats", "BernoulliStats", "step_size"]


def step_size(step: int, decay: float, delay: float) -> float:
    """Cappé–Moulines step size ``ρ_t = (t₀ + t)^{-κ}`` for step ``t >= 1``."""
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    return float((delay + step) ** (-decay))


def _check_responsibilities(x: np.ndarray, resp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` ``(..., N, D)`` and ``resp`` ``(..., N, K)`` as float64, leading axes equal."""
    x = np.asarray(x, dtype=np.float64)
    resp = np.asarray(resp, dtype=np.float64)
    if x.ndim < 2 or resp.ndim != x.ndim or x.shape[:-1] != resp.shape[:-1]:
        raise ValueError(f"rows {x.shape} and responsibilities {resp.shape} do not align")
    if x.shape[-2] == 0:
        raise ValueError("need at least one row")
    return x, resp


@dataclass(frozen=True)
class GMMStats:
    """Per-row-normalised sufficient statistics of a diagonal GMM.

    Attributes:
        nk: ``(K,)`` mean responsibility mass per component (sums to 1).
        sx: ``(K, D)`` mean responsibility-weighted rows ``E[γ_k·x]``.
        sxx: ``(K, D)`` mean responsibility-weighted squares ``E[γ_k·x²]``.
        n: rows that contributed (bookkeeping; the statistics are
            already normalised, so ``n`` never enters the M-step).

    A stack of α models, each fed the same rows, holds ``nk`` as
    ``(α, K)`` and ``sx``/``sxx`` as ``(α, K, D)``, with one ``n``.
    """

    nk: np.ndarray
    sx: np.ndarray
    sxx: np.ndarray
    n: float

    @classmethod
    def from_responsibilities(cls, x: np.ndarray, resp: np.ndarray) -> "GMMStats":
        """Statistics of ``x`` under soft assignments ``resp`` (one E-step's output).

        ``x`` ``(α, N, D)`` with ``resp`` ``(α, N, K)`` gives the stacked
        statistics of α models.
        """
        x, resp = _check_responsibilities(x, resp)
        n = x.shape[-2]
        resp_t = np.swapaxes(resp, -1, -2)
        return cls(
            nk=resp.sum(axis=-2) / n,
            sx=(resp_t @ x) / n,
            sxx=(resp_t @ np.square(x)) / n,
            n=float(n),
        )

    @classmethod
    def stack(cls, models: "list[GMMStats]") -> "GMMStats":
        """α single-model statistics of the same rows as one stack."""
        return cls(
            nk=np.stack([model.nk for model in models]),
            sx=np.stack([model.sx for model in models]),
            sxx=np.stack([model.sxx for model in models]),
            n=models[0].n,
        )

    def merge(self, other: "GMMStats") -> "GMMStats":
        """Exact pooling: equals the statistics of the concatenated data."""
        total = self.n + other.n
        a, b = self.n / total, other.n / total
        return GMMStats(
            nk=a * self.nk + b * other.nk,
            sx=a * self.sx + b * other.sx,
            sxx=a * self.sxx + b * other.sxx,
            n=total,
        )

    def blend(self, batch: "GMMStats", rho: float) -> "GMMStats":
        """Stepwise-EM update: ``s ← (1-ρ)·s + ρ·ŝ_batch``."""
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"rho must be in (0, 1], got {rho}")
        return GMMStats(
            nk=(1.0 - rho) * self.nk + rho * batch.nk,
            sx=(1.0 - rho) * self.sx + rho * batch.sx,
            sxx=(1.0 - rho) * self.sxx + rho * batch.sxx,
            n=self.n + batch.n,
        )

    def params(self, variance_floor: float) -> GMMParams:
        """The M-step: parameters maximising the expected log-likelihood.

        The same formulas as :class:`repro.core.inference.base_gmm.DiagonalGMM`'s
        M-step, which takes its moments about the column mean m
        (``σ² = Σγ(x-m)²/nk - (μ-m)²``) where this takes them about
        zero (``sxx/nk - μ²``); the two are equal algebraically, so a
        fit summarised by its statistics and a fit on the raw data
        produce the same parameters.
        """
        nk = np.maximum(self.nk, 1e-10)
        means = self.sx / nk[..., None]
        variances = np.maximum(self.sxx / nk[..., None] - np.square(means), variance_floor)
        weights = nk / nk.sum(axis=-1, keepdims=True)
        return GMMParams(weights=weights, means=means, variances=variances)

    def arrays(self, prefix: str) -> dict[str, np.ndarray]:
        """Flat npz-serialisable view (see ``OnlineSession`` persistence)."""
        return {
            f"{prefix}_nk": self.nk,
            f"{prefix}_sx": self.sx,
            f"{prefix}_sxx": self.sxx,
            f"{prefix}_n": np.float64(self.n),
        }

    @classmethod
    def from_arrays(cls, stored: dict[str, np.ndarray], prefix: str) -> "GMMStats":
        return cls(
            nk=np.asarray(stored[f"{prefix}_nk"], dtype=np.float64),
            sx=np.asarray(stored[f"{prefix}_sx"], dtype=np.float64),
            sxx=np.asarray(stored[f"{prefix}_sxx"], dtype=np.float64),
            n=float(stored[f"{prefix}_n"]),
        )


@dataclass(frozen=True)
class BernoulliStats:
    """Per-row-normalised sufficient statistics of a Bernoulli mixture.

    Attributes:
        nk: ``(K,)`` mean responsibility mass per component (sums to 1).
        sx: ``(K, D)`` mean responsibility-weighted one-hot rows.
        n: rows that contributed (bookkeeping only).
    """

    nk: np.ndarray
    sx: np.ndarray
    n: float

    @classmethod
    def from_responsibilities(cls, x: np.ndarray, resp: np.ndarray) -> "BernoulliStats":
        x, resp = _check_responsibilities(x, resp)
        n = x.shape[-2]
        return cls(nk=resp.sum(axis=-2) / n, sx=(np.swapaxes(resp, -1, -2) @ x) / n, n=float(n))

    def merge(self, other: "BernoulliStats") -> "BernoulliStats":
        """Exact pooling: equals the statistics of the concatenated data."""
        total = self.n + other.n
        a, b = self.n / total, other.n / total
        return BernoulliStats(nk=a * self.nk + b * other.nk, sx=a * self.sx + b * other.sx, n=total)

    def blend(self, batch: "BernoulliStats", rho: float) -> "BernoulliStats":
        """Stepwise-EM update: ``s ← (1-ρ)·s + ρ·ŝ_batch``."""
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"rho must be in (0, 1], got {rho}")
        return BernoulliStats(
            nk=(1.0 - rho) * self.nk + rho * batch.nk,
            sx=(1.0 - rho) * self.sx + rho * batch.sx,
            n=self.n + batch.n,
        )

    def params(self, param_floor: float) -> BernoulliParams:
        """The M-step (Eq. 11), with the same clamp as ``BernoulliMixture``."""
        nk = np.maximum(self.nk, 1e-10)
        probs = np.clip(self.sx / nk[:, None], param_floor, 1.0 - param_floor)
        return BernoulliParams(weights=nk / nk.sum(), probs=probs)

    def arrays(self, prefix: str) -> dict[str, np.ndarray]:
        return {
            f"{prefix}_nk": self.nk,
            f"{prefix}_sx": self.sx,
            f"{prefix}_n": np.float64(self.n),
        }

    @classmethod
    def from_arrays(cls, stored: dict[str, np.ndarray], prefix: str) -> "BernoulliStats":
        return cls(
            nk=np.asarray(stored[f"{prefix}_nk"], dtype=np.float64),
            sx=np.asarray(stored[f"{prefix}_sx"], dtype=np.float64),
            n=float(stored[f"{prefix}_n"]),
        )
