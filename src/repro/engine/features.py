"""Stage 1 of the affinity engine: chunked feature extraction.

``VGG16.forward_pools`` materialises every intermediate activation of
the conv stack for the whole batch at once, so its working set grows
linearly with N.  The engine instead drives the backbone in fixed-size
chunks: peak memory is bounded by ``batch_size`` images per thread
running chunks (plus the retained pool outputs, which are the stage's
product), and the results are bitwise identical because every layer of
the backbone is per-sample independent (conv / ReLU / max-pool, no
batch statistics).
"""

from __future__ import annotations

from concurrent.futures import Executor
from typing import Iterator

import numpy as np

from repro.nn.vgg import VGG16
from repro.utils.validation import check_images

__all__ = ["iter_batches", "extract_pool_features"]


def iter_batches(n: int, batch_size: int | None) -> Iterator[slice]:
    """Yield contiguous index slices covering ``range(n)``.

    ``batch_size=None`` (or >= n) yields a single slice — the legacy
    whole-corpus behaviour.

    These boundaries are also the distributed runtime's extraction
    shard unit (:meth:`repro.distributed.ShardPlanner.extraction_shards`
    cuts the corpus at exactly these slices), which is what makes the
    cluster merge bit-identical to a local chunked extraction.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if batch_size is None:
        yield slice(0, n)
        return
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    for start in range(0, n, batch_size):
        yield slice(start, min(start + batch_size, n))


def extract_pool_features(
    model: VGG16,
    images: np.ndarray,
    layers: tuple[int, ...] | None = None,
    batch_size: int | None = None,
    executor: Executor | None = None,
) -> dict[int, np.ndarray]:
    """Max-pool filter maps for ``images``, computed ``batch_size`` at a time.

    Args:
        model: the frozen backbone.
        layers: which max-pool layers to keep (default: all five).
            Layers not requested are discarded chunk-by-chunk, so they
            never occupy memory for more than one chunk.
        batch_size: images per forward pass; ``None`` = single pass.
        executor: fans the chunks out over its threads (the forward
            pass keeps no state, so threads share ``model``); ``None``,
            or a single chunk, runs on the calling thread.  Chunks are
            concatenated in corpus order, so values do not depend on it.

    Returns:
        ``{layer: (N, C_L, H_L, W_L)}`` for each requested layer.
    """
    images = check_images(images)
    if layers is None:
        layers = tuple(range(model.N_POOL_LAYERS))
    if len(layers) == 0:
        raise ValueError("need at least one layer")
    for layer in layers:
        if not 0 <= layer < model.N_POOL_LAYERS:
            raise ValueError(f"layer {layer} out of range [0, {model.N_POOL_LAYERS})")

    def forward(batch: slice) -> list[np.ndarray]:
        pools = model.forward_pools(images[batch])
        return [pools[layer] for layer in layers]

    batches = list(iter_batches(images.shape[0], batch_size))
    if executor is not None and len(batches) > 1:
        chunks = list(executor.map(forward, batches))
    else:
        chunks = [forward(batch) for batch in batches]
    return {
        layer: chunks[0][k] if len(chunks) == 1 else np.concatenate([chunk[k] for chunk in chunks], axis=0)
        for k, layer in enumerate(layers)
    }
