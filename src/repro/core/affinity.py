"""Affinity functions and the affinity-matrix container (paper §2.2, §3.2).

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

The table holds its values in the engine's compute dtype (float32 by
default, float64 at ``precision="float64"``); every consumer that does
arithmetic on it casts a block to float64 first.  The matrix turns into
a flat array bundle and back (``arrays``/``from_arrays``);
:class:`repro.engine.ArtifactCache` is the only code that writes those
bundles to disk or reads them back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import check_array

__all__ = [
    "AffinityFunctionId",
    "AffinityMatrix",
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
            f_{j//N}(x_i, x_{j%N})``), in the dtype it was built in.
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
        block count and whether the matrix carried function ids
        (``has_function_ids`` tells "built without ids" from "ids were
        lost").
        """
        return {
            "values": self.values,
            "layers": np.array([fid.layer for fid in self.function_ids], dtype=np.int64),
            "zs": np.array([fid.z for fid in self.function_ids], dtype=np.int64),
            "has_function_ids": np.bool_(bool(self.function_ids)),
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
        ids = tuple(
            AffinityFunctionId(layer=int(layer), z=int(z)) for layer, z in zip(stored["layers"], stored["zs"])
        )
        if ids and len(ids) != alpha:
            raise ValueError(
                f"{len(ids)} function ids stored for {alpha} blocks; the arrays are corrupt "
                "or came from an inconsistent matrix"
            )
        if not ids and alpha > 0 and stored.get("has_function_ids", True):
            # Legacy entries carry no marker; blocks without ids are only
            # legitimate when the matrix was explicitly built without them.
            raise ValueError(f"{alpha} affinity-function blocks but no function ids (a legacy entry)")
        return cls(values=values, function_ids=ids)


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
