"""Stage 2 of the affinity engine: the tiled affinity kernels.

:class:`~repro.engine.source.PrototypeAffinitySource` composes these
per layer: :func:`unit_location_vectors`, :func:`unique_unit_prototypes`,
:func:`best_similarities`, then :func:`assemble_blocks`.  The direct
form of Eq. 2 (``tests/reference_affinity.py``, test-only) walks the
corpus image by image in Python, scoring *all* ``N·Z`` padded
prototype rows against each image.  Two observations make a faster,
exactly equivalent kernel possible:

1. **Prototype de-duplication.**  Top-Z selection pads each image to Z
   rows by *cycling* its unique prototypes, so rank ``r >= u_j`` of
   image j is a bitwise copy of rank ``r % u_j``.  Scoring only the
   unique rows and replicating the results afterwards removes 30–60 %
   of the similarity work (deeper layers have as few as 4 candidate
   locations) without changing a single output bit.

2. **Tiling.**  The similarity computation decomposes into independent
   tiles of images, each scored against every prototype row.  Tiles
   are embarrassingly parallel, so they fan out over a thread pool
   (the matmul/max inner ops are BLAS/numpy-bound and release the GIL).
   Inside a tile, prototype rows are scored in ~1 MB chunks through one
   reused scratch, which keeps the ``(rows, P)`` similarity product
   inside the CPU cache.

The kernel computes in ``dtype`` (float32 is the engine default) and
reduces each tile's maxima in that dtype; the dense path stores the
table as float64.  Float32 is not allclose-equal to float64: a near-tie
can select a different prototype and move single affinities by ~0.2.
Its contract is at label level — ≥ 99% posterior agreement and exact
hard labels against float64 (see
:class:`~repro.engine.engine.EngineConfig`).
"""

from __future__ import annotations

from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.affinity import _EPS
from repro.utils.threads import pin_thread_budget

__all__ = [
    "tile_executor",
    "tile_bounds",
    "LayerPrototypes",
    "unit_location_vectors",
    "unique_unit_prototypes",
    "best_similarities",
    "assemble_blocks",
    "topk_block",
]


#: Bytes of ``(rows, P)`` similarities a tile task computes at a time:
#: 256 float32 (128 float64) prototype rows at L0 of a 64×64 image
#: (1024 positions).
_SCRATCH_BYTES = 1 << 20

#: Layers with at most this many positions reduce a chunk's similarities
#: by elementwise maxima (:func:`_fold_max`) instead of ``max(axis=1)``,
#: which is faster only over longer rows (P = 256 and up).
_FOLD_MAX_POSITIONS = 64
#: Columns of the buffer :func:`_fold_max` folds a chunk's positions into.
_FOLD_WIDTH = 16


@contextmanager
def tile_executor(n_jobs: int) -> Iterator[Executor | None]:
    """The thread pool for extraction chunks and similarity tiles: a pool
    for ``n_jobs > 1``, ``None`` (serial execution) otherwise.

    Opening a pool pins the process to one BLAS thread
    (:func:`~repro.utils.threads.pin_thread_budget`), so the pool's
    threads, not OpenBLAS's, share the cores.
    """
    if n_jobs > 1:
        pin_thread_budget()
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            yield pool
    else:
        yield None


@dataclass(frozen=True)
class LayerPrototypes:
    """Unique unit prototypes of one layer for a whole corpus.

    Attributes:
        vectors: ``(U, C)`` L2-normalised unique prototype vectors, the
            per-image unique sets concatenated in corpus order.
        rank_rows: ``(N, Z)`` row index into ``vectors`` answering "which
            unique row realises rank z of image j" (the padding cycle).
    """

    vectors: np.ndarray
    rank_rows: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def n_images(self) -> int:
        return int(self.rank_rows.shape[0])

    @property
    def top_z(self) -> int:
        return int(self.rank_rows.shape[1])

    def shifted(self, row_offset: int) -> "LayerPrototypes":
        """The same prototypes addressed inside a larger stacked table."""
        return LayerPrototypes(vectors=self.vectors, rank_rows=self.rank_rows + row_offset)


def unit_location_vectors(filter_maps: np.ndarray) -> np.ndarray:
    """L2-normalised location vectors of a layer: ``(N, C, H, W)`` -> ``(N, C, P)``."""
    n, c, h, w = filter_maps.shape
    vectors = filter_maps.reshape(n, c, h * w)
    norms = np.maximum(np.linalg.norm(vectors, axis=1, keepdims=True), _EPS)
    return vectors / norms


def unique_unit_prototypes(filter_maps: np.ndarray, z: int) -> LayerPrototypes:
    """Unique unit prototypes of every image plus the rank→row map.

    Matches the per-image ``select_top_z`` of ``tests/reference_affinity.py``
    exactly — same channel ranking (activation descending, channel
    ascending on ties), same argmax locations, same first-seen
    de-duplication — but ranks channels and finds argmax locations for
    the whole batch in one vectorised pass.  Normalising a vector and
    its padded copies yields identical rows, so the cycle map
    ``rank_rows[j, r] = offset_j + r % u_j`` reproduces exactly the
    reference's ``padded_vectors`` layout.
    """
    if z < 1:
        raise ValueError(f"z must be >= 1, got {z}")
    n, c, h, w = filter_maps.shape
    flat = filter_maps.reshape(n, c, h * w)
    locations = flat.argmax(axis=2)  # (N, C) flat argmax per channel
    # A channel's activation is its value at the argmax: the same maximum
    # without a second pass over positions strided by C.
    channel_activation = np.take_along_axis(flat, locations[:, :, None], axis=2)[:, :, 0]
    # Stable ranking per image: activation descending, channel ascending
    # on ties (argsort of the negated maxima with a stable kind).
    ranked = np.argsort(-channel_activation, axis=1, kind="stable")[:, : min(z, c)]
    vectors: list[np.ndarray] = []
    rank_rows = np.empty((n, z), dtype=np.int64)
    offset = 0
    for j in range(n):
        seen: set[int] = set()
        keep: list[int] = []
        image_locations = locations[j]
        for channel in ranked[j]:
            location = image_locations[channel]
            if location not in seen:
                seen.add(location)
                keep.append(location)
        unique = flat[j, :, keep]  # (U, C): the full channel vector per location
        norms = np.maximum(np.linalg.norm(unique, axis=1, keepdims=True), _EPS)
        vectors.append(unique / norms)
        rank_rows[j] = offset + np.arange(z) % len(keep)
        offset += len(keep)
    return LayerPrototypes(vectors=np.concatenate(vectors, axis=0), rank_rows=rank_rows)


def tile_bounds(n: int, tile: int | None) -> list[tuple[int, int]]:
    """``[start, end)`` bounds cutting ``range(n)`` into the fewest tiles
    of at most ``tile``, balanced to within one element (``None``: one
    tile).

    There is no short remainder: a lone trailing prototype row would
    make its matmul a matrix-vector product, which BLAS sums in a
    different order than the matrix product every other row goes
    through.  The image tiles of :func:`best_similarities`, the scratch
    chunks inside each tile, and the row tiles of :func:`topk_block`
    are all cut this way.
    """
    if tile is None or tile >= n:
        return [(0, n)]
    if tile < 1:
        raise ValueError(f"tile size must be >= 1, got {tile}")
    count = -(-n // tile)
    edges = [-(-n * c // count) for c in range(count + 1)]  # the first tile is the largest
    return list(zip(edges[:-1], edges[1:]))


def _fold_max(similarities: np.ndarray, fold: np.ndarray, out: np.ndarray) -> None:
    """``out[r] = similarities[r].max()`` by elementwise maxima over long runs.

    ``max(axis=1)`` runs its inner loop over one row of P positions and
    pays about 70 ns a row, more than the GEMM costs at P ≤ 64.  Here
    the positions fold into the first ``_FOLD_WIDTH`` columns of
    ``fold`` by ``np.maximum`` over slabs of that width (the last slab
    short when the width does not divide P), and those columns fold
    into ``out`` one at a time.  A max is exact, so the result is the
    same bits as ``max(axis=1)``.
    """
    rows, positions = similarities.shape
    columns = similarities
    if positions > _FOLD_WIDTH:
        columns = fold[:rows]
        np.copyto(columns, similarities[:, :_FOLD_WIDTH])
        for p0 in range(_FOLD_WIDTH, positions, _FOLD_WIDTH):
            width = min(_FOLD_WIDTH, positions - p0)
            np.maximum(columns[:, :width], similarities[:, p0 : p0 + width], out=columns[:, :width])
    np.copyto(out, columns[:, 0])
    for p in range(1, columns.shape[1]):
        np.maximum(out, columns[:, p], out=out)


def best_similarities(
    prototypes: np.ndarray,
    unit_vectors: np.ndarray,
    *,
    row_tile: int | None = 32,
    executor: Executor | None = None,
    dtype: np.dtype | type = np.float64,
    out_dtype: np.dtype | type | None = None,
) -> np.ndarray:
    """``B[r, i] = max_p <prototypes[r], unit_vectors[i, :, p]>`` (Eq. 2).

    Tiles of ``row_tile`` images are fanned out over ``executor`` when
    given; each task scores its images against every prototype row
    with per-image matmuls (the cache-optimal blocking for the small
    channel counts of a width-scaled VGG).  Within a task the prototype
    rows are scored about ``_SCRATCH_BYTES`` of similarities at a time,
    through one ``(chunk, P)`` scratch the task reuses for every image,
    so the product the max reduces never leaves the cache and is never
    allocated per image.  Chunks are balanced to within one row, so
    every chunk is a matrix product like the unchunked call and the
    output is bit-identical to it (``tests/test_thread_budget.py``
    holds it to the unchunked per-image kernel).  At P ≤ 64 positions
    a chunk's maxima are folded by elementwise ``np.maximum``
    (:func:`_fold_max`), which is exact.  A task's maxima gather in a
    block of the compute dtype, written into the table once.

    ``out_dtype`` controls the dtype of the returned table; ``None``
    keeps a float64 table (what every dense consumer stores, even when
    computing in float32).  The sparse path passes
    ``out_dtype=np.float32`` so similarity values stay float32
    end-to-end instead of being cast back.
    """
    dtype = np.dtype(dtype)
    protos = prototypes.astype(dtype, copy=False)
    vectors = unit_vectors.astype(dtype, copy=False)
    n_rows, n_images, positions = protos.shape[0], vectors.shape[0], vectors.shape[2]
    out = np.empty((n_rows, n_images), dtype=np.float64 if out_dtype is None else np.dtype(out_dtype))
    chunk_rows = max(1, _SCRATCH_BYTES // (positions * dtype.itemsize))
    folded = positions <= _FOLD_MAX_POSITIONS
    chunks = tile_bounds(n_rows, chunk_rows)

    def score_tile(bounds: tuple[int, int]) -> None:
        i0, i1 = bounds
        scratch = np.empty((chunks[0][1] - chunks[0][0], positions), dtype=dtype)
        fold = np.empty((len(scratch), _FOLD_WIDTH), dtype=dtype) if folded else None
        # Maxima reduce into a buffer of the compute dtype: a reduction
        # into a wider ``out`` column casts every element and is slower
        # at float32 than at float64.  A max is exact, so casting the
        # block once on the way out gives the same values.
        best = np.empty((i1 - i0, n_rows), dtype=dtype)
        for i in range(i0, i1):
            for r0, r1 in chunks:
                similarities = scratch[: r1 - r0]
                np.matmul(protos[r0:r1], vectors[i], out=similarities)
                if folded:
                    _fold_max(similarities, fold, best[i - i0, r0:r1])
                else:
                    similarities.max(axis=1, out=best[i - i0, r0:r1])
        out[:, i0:i1] = best.T

    tiles = tile_bounds(n_images, row_tile)
    if executor is not None and len(tiles) > 1:
        list(executor.map(score_tile, tiles))
    else:
        for tile in tiles:
            score_tile(tile)
    return out


def assemble_blocks(best: np.ndarray, rank_rows: np.ndarray) -> np.ndarray:
    """Expand a unique-row similarity table into the ``(Z, N_i, N_j)`` blocks.

    ``out[z, i, j] = best[rank_rows[j, z], i]`` — pure replication, the
    inverse of the de-duplication step.
    """
    return best[rank_rows.T].transpose(0, 2, 1)


# ----------------------------------------------------------------------
# Blocked top-k sparsification (the exact kernel of the sparse path)
# ----------------------------------------------------------------------
def topk_block(
    block: np.ndarray, k: int, *, row_tile: int | None = 32
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact per-row top-k of one affinity block, row-tile blocked.

    Returns ``(data, indices, fill)``: the ``min(k, C)`` largest values
    of every row (column-ascending, CSR discipline), their column ids,
    and the per-row mean of the dropped entries.  Deterministic under
    ties — the stable sort keeps the lowest column index — so sparse
    matrices are content-addressable like everything else the engine
    produces.  ``row_tile`` bounds the argsort scratch to one tile of
    rows (the same tiling axis the similarity kernel uses); results are
    identical at any tile size.  ``data``/``fill`` keep the block's
    dtype, so a float32 block stays float32.
    """
    block = np.asarray(block)
    if block.ndim != 2:
        raise ValueError(f"block must be 2-D, got shape {block.shape}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_rows, n_cols = block.shape
    kept = min(k, n_cols)
    data = np.empty((n_rows, kept), dtype=block.dtype)
    indices = np.empty((n_rows, kept), dtype=np.int64)
    fill = np.zeros(n_rows, dtype=block.dtype)
    for r0, r1 in tile_bounds(n_rows, row_tile):
        tile = block[r0:r1]
        # Stable argsort of the negated tile: value descending, column
        # ascending on ties — then re-sorted ascending for CSR layout.
        order = np.argsort(-tile, axis=1, kind="stable")[:, :kept]
        order.sort(axis=1)
        kept_values = np.take_along_axis(tile, order, axis=1)
        data[r0:r1] = kept_values
        indices[r0:r1] = order
        if kept < n_cols:
            # Mean of the dropped tail (float64 accumulation, stored in
            # the block dtype): densified rows keep their overall mass.
            dropped = tile.sum(axis=1, dtype=np.float64) - kept_values.sum(axis=1, dtype=np.float64)
            fill[r0:r1] = (dropped / (n_cols - kept)).astype(block.dtype)
    return data, indices, fill
