"""Input validation helpers shared across the library.

All public entry points validate their inputs eagerly and raise
``ValueError``/``TypeError`` with actionable messages, so that failures
surface at the API boundary rather than deep inside EM iterations.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_array", "check_images", "check_labels", "check_probabilities"]


def check_array(
    x: np.ndarray,
    *,
    name: str = "array",
    ndim: int | None = None,
    dtype: type | None = None,
    allow_empty: bool = False,
) -> np.ndarray:
    """Validate that ``x`` is a finite ndarray with the expected rank.

    Returns the array converted to ``dtype`` (if given) so callers can
    use the checked result directly.
    """
    if not isinstance(x, np.ndarray):
        raise TypeError(f"{name} must be a numpy.ndarray, got {type(x).__name__}")
    if ndim is not None and x.ndim != ndim:
        raise ValueError(f"{name} must have ndim={ndim}, got shape {x.shape}")
    if not allow_empty and x.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if np.issubdtype(x.dtype, np.floating) and not np.isfinite(x).all():
        raise ValueError(f"{name} contains NaN or infinity")
    if dtype is not None and x.dtype != dtype:
        x = x.astype(dtype)
    return x


def check_images(images: np.ndarray, *, name: str = "images") -> np.ndarray:
    """Validate a batch of images shaped ``(N, C, H, W)`` with C in {1, 3}.

    Every dtype is canonicalised to float64 except float32, which is
    preserved: at ``precision="float32"`` the engine casts batches to
    float32 before extraction so the whole backbone forward runs at
    half width (the layers follow the activation dtype).
    """
    images = check_array(images, name=name, ndim=4)
    n, c, h, w = images.shape
    if c not in (1, 3):
        raise ValueError(f"{name} must have 1 or 3 channels, got {c}")
    if h < 8 or w < 8:
        raise ValueError(f"{name} must be at least 8x8 pixels, got {h}x{w}")
    if images.dtype == np.float32:
        return images
    return images.astype(np.float64, copy=False)


def check_labels(labels: np.ndarray, *, n_classes: int | None = None, name: str = "labels") -> np.ndarray:
    """Validate an integer label vector; optionally bound by ``n_classes``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {labels.shape}")
    if labels.size and not np.issubdtype(labels.dtype, np.integer):
        if not np.all(labels == labels.astype(np.int64)):
            raise ValueError(f"{name} must be integers")
    labels = labels.astype(np.int64)
    if labels.size and labels.min() < 0:
        raise ValueError(f"{name} must be non-negative")
    if n_classes is not None and labels.size and labels.max() >= n_classes:
        raise ValueError(f"{name} contains label {labels.max()} >= n_classes={n_classes}")
    return labels


def check_probabilities(
    p: np.ndarray, *, axis: int = -1, name: str = "probabilities", atol: float = 1e-6
) -> np.ndarray:
    """Validate that ``p`` is a valid probability array summing to 1 on ``axis``."""
    p = check_array(np.asarray(p, dtype=np.float64), name=name)
    if p.min() < -atol or p.max() > 1 + atol:
        raise ValueError(f"{name} must lie in [0, 1]")
    sums = p.sum(axis=axis)
    if not np.allclose(sums, 1.0, atol=max(atol, 1e-5)):
        raise ValueError(f"{name} must sum to 1 along axis {axis}; sums range [{sums.min()}, {sums.max()}]")
    return p
