"""Affinity functions and the affinity-matrix containers (paper §2.2, §3.2).

An affinity function ``f^z_L(x_i, x_j)`` scores how strongly image
``x_i`` contains the z-th most informative prototype of image ``x_j``
at max-pool layer L:

    f^z_L(x_i, x_j) = max_{h,w} sim(v^z_j, v^{(h,w)}_i)        (Eq. 2)

with cosine similarity (Eq. 3).  With 5 max-pool layers and Z=10
prototypes per layer GOGGLES has α = 50 affinity functions.

The affinity matrix ``A ∈ R^{N × αN}`` (N = n unlabeled + m dev) uses
the paper's exact column layout: ``A[i, j] = f_{j // N}(x_i, x_{j % N})``
— i.e. α contiguous blocks of N columns, one block per function.  The
prototype matrix is built by
:class:`repro.engine.source.PrototypeAffinitySource` through
:class:`repro.engine.AffinityEngine`.

Both containers turn into flat array bundles and back
(``arrays``/``from_arrays``); :class:`repro.engine.ArtifactCache` is the
only code that writes those bundles to disk or reads them back.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from repro.utils.validation import check_array

__all__ = [
    "AffinityFunctionId",
    "AffinityMatrix",
    "SparseAffinityMatrix",
    "densify_topk_rows",
    "cosine_similarity",
    "affinity_from_features",
]

_EPS = 1e-12


@dataclass(frozen=True)
class AffinityFunctionId:
    """Identity of one affinity function: (max-pool layer, prototype rank)."""

    layer: int
    z: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"f[L={self.layer},z={self.z}]"


@dataclass(frozen=True)
class AffinityMatrix:
    """The affinity matrix plus its block structure.

    Attributes:
        values: ``(N, α·N)`` array, block ``f`` in columns
            ``[f·N, (f+1)·N)`` (paper layout ``A[i, j] =
            f_{j//N}(x_i, x_{j%N})``).
        function_ids: length-α description of each block's function.
    """

    values: np.ndarray
    function_ids: tuple[AffinityFunctionId, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        values = check_array(self.values, name="affinity matrix", ndim=2)
        n = values.shape[0]
        if values.shape[1] % n != 0:
            raise ValueError(f"affinity matrix width {values.shape[1]} is not a multiple of N={n}")
        alpha = values.shape[1] // n
        if self.function_ids and len(self.function_ids) != alpha:
            raise ValueError(f"{len(self.function_ids)} function ids for {alpha} column blocks")
        object.__setattr__(self, "values", values)

    @property
    def n_examples(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_functions(self) -> int:
        return int(self.values.shape[1] // self.values.shape[0])

    def block(self, f: int) -> np.ndarray:
        """``A_f ∈ R^{N×N}``: the columns generated by affinity function f."""
        if not 0 <= f < self.n_functions:
            raise ValueError(f"function index {f} out of range [0, {self.n_functions})")
        n = self.n_examples
        return self.values[:, f * n : (f + 1) * n]

    def subset_functions(self, function_indices: np.ndarray | list[int]) -> "AffinityMatrix":
        """Restrict to a subset of affinity functions (Figure 9 sweep)."""
        function_indices = np.asarray(function_indices, dtype=np.int64)
        if function_indices.size == 0:
            raise ValueError("cannot keep zero affinity functions")
        blocks = [self.block(int(f)) for f in function_indices]
        ids = (tuple(self.function_ids[int(f)] for f in function_indices) if self.function_ids else ())
        return AffinityMatrix(values=np.concatenate(blocks, axis=1), function_ids=ids)

    def subset_examples(self, indices: np.ndarray) -> "AffinityMatrix":
        """Restrict rows *and* per-block columns to ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        blocks = [self.block(f)[np.ix_(indices, indices)] for f in range(self.n_functions)]
        return AffinityMatrix(values=np.concatenate(blocks, axis=1), function_ids=self.function_ids)

    def arrays(self) -> dict[str, np.ndarray]:
        """The arrays that store this matrix (see :meth:`from_arrays`).

        Affinity matrices are the expensive artifact of step 1, worth
        caching across experiments (the original GOGGLES release caches
        them the same way).  Alongside the values the arrays record the
        block count and whether the matrix carried function ids.
        """
        return {
            "values": self.values,
            **_encode_function_ids(self.function_ids),
            "n_functions": np.int64(self.n_functions),
        }

    @classmethod
    def from_arrays(cls, stored: dict[str, np.ndarray]) -> "AffinityMatrix":
        """The matrix :meth:`arrays` stored.

        Raises:
            KeyError: if an array is missing.
            ValueError: if the values are not ``(N, α·N)``, or the
                recorded block count or function ids disagree with
                them, instead of silently dropping the ids.
        """
        values = stored["values"]
        if values.ndim != 2 or values.shape[0] == 0 or values.shape[1] % values.shape[0]:
            raise ValueError(f"values shaped {values.shape} are not a valid (N, alpha*N) affinity matrix")
        alpha = values.shape[1] // values.shape[0]
        if "n_functions" in stored and int(stored["n_functions"]) != alpha:
            raise ValueError(
                f"{int(stored['n_functions'])} affinity functions recorded but the values "
                f"form {alpha} column blocks; the arrays are corrupt or truncated"
            )
        return cls(values=values, function_ids=_decode_function_ids(stored, alpha))


def _encode_function_ids(ids: tuple[AffinityFunctionId, ...]) -> dict[str, np.ndarray]:
    """The stored form of a matrix's function ids, shared by both containers.

    ``has_function_ids`` lets a reader tell "built without ids" from
    "ids were lost".
    """
    return {
        "layers": np.array([fid.layer for fid in ids], dtype=np.int64),
        "zs": np.array([fid.z for fid in ids], dtype=np.int64),
        "has_function_ids": np.bool_(bool(ids)),
    }


def _decode_function_ids(stored: dict[str, np.ndarray], alpha: int) -> tuple[AffinityFunctionId, ...]:
    """The ids :func:`_encode_function_ids` stored for ``alpha`` blocks.

    Raises:
        ValueError: if the ids disagree with the block count, or are
            absent while the marker does not say the matrix had none.
    """
    ids = tuple(
        AffinityFunctionId(layer=int(layer), z=int(z)) for layer, z in zip(stored["layers"], stored["zs"])
    )
    if ids and len(ids) != alpha:
        raise ValueError(
            f"{len(ids)} function ids stored for {alpha} blocks; the arrays are corrupt "
            "or came from an inconsistent matrix"
        )
    if not ids and alpha > 0 and stored.get("has_function_ids", True):
        # Legacy entries carry no marker; α>0 blocks without ids are
        # only legitimate when the matrix was explicitly built without them.
        raise ValueError(f"{alpha} affinity-function blocks but no function ids (a legacy entry)")
    return ids


def densify_topk_rows(
    data: np.ndarray,
    indices: np.ndarray,
    fill: np.ndarray,
    n_cols: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Scatter per-row top-k entries into a dense ``(R, n_cols)`` block.

    Every column a row dropped takes that row's ``fill`` value.  Shared
    by all sparse-block consumers (in-RAM densification and memory-mapped
    block assembly) so densified blocks are
    bitwise identical no matter where they are materialised.
    """
    if out is None:
        out = np.empty((data.shape[0], n_cols), dtype=data.dtype)
    out[:] = fill[:, None]
    np.put_along_axis(out, indices, data, axis=1)
    return out


@dataclass(frozen=True)
class SparseAffinityMatrix:
    """Top-k sparse companion of :class:`AffinityMatrix`.

    Keeps only the k largest affinities of every row of every function
    block, in a uniform-row CSR layout (each row holds exactly
    ``k = min(top_k, N)`` entries, so the row pointer is implicit —
    see :attr:`indptr`).  The dropped entries of a row are summarised
    by their mean (:attr:`fill`), so a densified block preserves each
    row's overall mass instead of collapsing the tail to zero.

    Consumers densify lazily per block through :meth:`block` — the
    same accessor :class:`AffinityMatrix` exposes, so the inference
    stack (all executors) consumes either matrix unchanged.  With a
    block store attached (see
    :class:`repro.engine.cache.MemmapBlockStore`) densified blocks are
    memory-mapped ``.npy`` files and N can exceed RAM.

    Attributes:
        data: ``(α, N, k)`` top-k affinity values per row, storage
            dtype (float32 on the default sparse path).
        indices: ``(α, N, k)`` column ids of those values, ascending
            per row (CSR discipline).
        fill: ``(α, N)`` per-row mean of the dropped entries (0 when
            k = N and nothing was dropped).
        function_ids: length-α description of each block's function.
        store: optional out-of-core block store; excluded from
            equality and from :meth:`content_hash` (it is a cache of
            this matrix's content, not content itself).
    """

    data: np.ndarray
    indices: np.ndarray
    fill: np.ndarray
    function_ids: tuple[AffinityFunctionId, ...] = field(default_factory=tuple)
    store: "object | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        data, indices, fill = (np.asarray(a) for a in (self.data, self.indices, self.fill))
        if data.ndim != 3:
            raise ValueError(f"data must be (alpha, N, k), got shape {data.shape}")
        alpha, n, k = data.shape
        if alpha < 1 or n < 1 or k < 1:
            raise ValueError(f"data must be non-empty in every axis, got shape {data.shape}")
        if k > n:
            raise ValueError(f"top-k width {k} exceeds the corpus size {n}")
        if indices.shape != data.shape:
            raise ValueError(f"indices shaped {indices.shape} do not match data {data.shape}")
        if not np.issubdtype(indices.dtype, np.integer):
            raise ValueError(f"indices must be integers, got {indices.dtype}")
        if fill.shape != (alpha, n):
            raise ValueError(f"fill shaped {fill.shape}, expected ({alpha}, {n})")
        if self.function_ids and len(self.function_ids) != alpha:
            raise ValueError(f"{len(self.function_ids)} function ids for {alpha} blocks")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "fill", fill)

    @property
    def n_examples(self) -> int:
        return int(self.data.shape[1])

    @property
    def n_functions(self) -> int:
        return int(self.data.shape[0])

    @property
    def top_k(self) -> int:
        return int(self.data.shape[2])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def indptr(self) -> np.ndarray:
        """The (implicit) CSR row pointer: rows are uniformly k wide."""
        return np.arange(self.n_examples + 1, dtype=np.int64) * self.top_k

    def _check_function(self, f: int) -> None:
        if not 0 <= f < self.n_functions:
            raise ValueError(f"function index {f} out of range [0, {self.n_functions})")

    def block(self, f: int) -> np.ndarray:
        """``A_f ∈ R^{N×N}`` densified lazily (memory-mapped when a
        block store is attached; a fresh in-RAM array otherwise)."""
        self._check_function(f)
        if self.store is not None:
            return self.store.block(self, f)
        return self.densify_block(f)

    def densify_block(self, f: int) -> np.ndarray:
        """One function block as a fresh dense in-RAM array."""
        self._check_function(f)
        return densify_topk_rows(self.data[f], self.indices[f], self.fill[f], self.n_examples)

    def densify(self) -> AffinityMatrix:
        """The equivalent dense :class:`AffinityMatrix` (for agreement
        checks and small corpora; costs the full O(α·N²))."""
        values = np.concatenate([self.densify_block(f) for f in range(self.n_functions)], axis=1)
        return AffinityMatrix(values=values, function_ids=self.function_ids)

    def with_store(self, store: "object | None") -> "SparseAffinityMatrix":
        """The same matrix with an out-of-core block store attached."""
        return replace(self, store=store)

    def content_hash(self) -> str:
        """Stable content address (dtype + shape + bytes of every
        array); independent of any attached store."""
        digest = hashlib.sha256(b"sparse-affinity-csr")
        for array in (self.data, self.indices, self.fill):
            contiguous = np.ascontiguousarray(array)
            digest.update(str(contiguous.dtype).encode())
            digest.update(str(contiguous.shape).encode())
            digest.update(contiguous.tobytes())
        return digest.hexdigest()

    def arrays(self) -> dict[str, np.ndarray]:
        """The arrays that store this matrix (the function-id encoding
        of :meth:`AffinityMatrix.arrays`; the store is not stored)."""
        return {
            "data": self.data,
            "indices": self.indices,
            "fill": self.fill,
            **_encode_function_ids(self.function_ids),
        }

    @classmethod
    def from_arrays(cls, stored: dict[str, np.ndarray]) -> "SparseAffinityMatrix":
        """The matrix :meth:`arrays` stored.

        Raises:
            KeyError: if an array is missing.
            ValueError: if the arrays are not consistent ``(α, N, k)``
                blocks with matching function ids.
        """
        data = stored["data"]
        if data.ndim != 3:
            raise ValueError(f"data shaped {data.shape} are not (alpha, N, k) sparse affinity blocks")
        ids = _decode_function_ids(stored, data.shape[0])
        return cls(data=data, indices=stored["indices"], fill=stored["fill"], function_ids=ids)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity between rows of ``a`` (n, d) and ``b`` (m, d) -> (n, m)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    a_unit = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), _EPS)
    b_unit = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), _EPS)
    return a_unit @ b_unit.T


def affinity_from_features(features: np.ndarray) -> AffinityMatrix:
    """Single-function affinity matrix from flat feature vectors.

    Used by the representation ablations (§5.1.5): HOG descriptors or
    VGG logits are compared with pair-wise cosine similarity, giving an
    α=1 affinity matrix fed to the same class-inference module.
    """
    features = check_array(np.asarray(features, dtype=np.float64), name="features", ndim=2)
    sims = cosine_similarity(features, features)
    return AffinityMatrix(values=sims, function_ids=(AffinityFunctionId(layer=-1, z=0),))
