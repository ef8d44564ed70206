"""Test-only reference for the prototype affinity matrix (paper §3.1–3.2).

The library builds the matrix in one place:
:class:`repro.engine.source.PrototypeAffinitySource`, driven by
:class:`repro.engine.AffinityEngine`, over the de-duplicated, tiled
kernels of :mod:`repro.engine.tiling`.  This module keeps the direct,
per-image form of the same math so tests (and
``benchmarks/bench_runtime_scaling.py``, which times it as its naive
side) can hold the production path to it:

* prototype extraction and top-Z selection (§3.1, Algorithm 1).  A
  *prototype* is a channel-axis vector ``v^{(h,w)} ∈ R^C`` of a CNN
  filter map; it encodes the semantic concept present in the image
  patch that is its receptive field.  For each image and each max-pool
  layer, GOGGLES keeps the top-Z most "activated" prototypes:

  1. rank channels by activation = the channel's 2-D global max (§3.1);
  2. for each of the top-Z channels ``c_z``, take the location
     ``(h, w) = argmax F[c_z]`` and read the full C-vector there (Eq. 1);
  3. drop duplicate ``(h, w)`` locations, keeping unique prototypes.

  Example 4 of the paper is reproduced verbatim in the unit tests.
* the per-image affinity loop (Eq. 2) and the whole-matrix builder in
  the paper's column layout.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.affinity import _EPS, AffinityFunctionId, AffinityMatrix
from repro.nn.vgg import VGG16
from repro.utils.validation import check_array, check_images

__all__ = [
    "PrototypeSet",
    "extract_prototypes",
    "select_top_z",
    "all_location_vectors",
    "_layer_affinity_blocks",
    "compute_affinity_matrix",
    "FLOAT32_ATOL",
]

#: Bound on a float32 engine build's error in a property that is exact
#: in real arithmetic (a cosine within [-1, 1], ``extend`` equal to a
#: from-scratch ``build``): a few float32 ulps at unit scale.  The
#: float64 path keeps the bounds its tests have always used.
FLOAT32_ATOL = 8 * float(np.finfo(np.float32).eps)


@dataclass(frozen=True)
class PrototypeSet:
    """Top-Z prototypes of one image at one layer.

    Attributes:
        vectors: ``(Z', C)`` unique prototype vectors, most-activated
            channel first (``Z' <= Z`` after de-duplication).
        locations: ``(Z', 2)`` integer ``(h, w)`` coordinates of each
            prototype in the filter map (for receptive-field lookups).
        channels: ``(Z',)`` the channel index that selected each
            prototype (the top-Z channel ranking).
    """

    vectors: np.ndarray
    locations: np.ndarray
    channels: np.ndarray

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2:
            raise ValueError(f"vectors must be (Z, C), got shape {self.vectors.shape}")
        if self.locations.shape != (self.vectors.shape[0], 2):
            raise ValueError("locations must be (Z, 2) aligned with vectors")
        if self.channels.shape != (self.vectors.shape[0],):
            raise ValueError("channels must be (Z,) aligned with vectors")

    @property
    def n_prototypes(self) -> int:
        return int(self.vectors.shape[0])

    def padded_vectors(self, z: int) -> np.ndarray:
        """Exactly ``z`` rows: unique prototypes, cycled if fewer exist.

        The affinity matrix has a fixed width of Z functions per layer;
        when de-duplication leaves fewer than Z unique prototypes the
        remaining slots repeat existing ones (the duplicated columns
        carry no extra information and are down-weighted by the
        ensemble model, §4.1).
        """
        if z < 1:
            raise ValueError(f"z must be >= 1, got {z}")
        reps = int(np.ceil(z / self.n_prototypes))
        return np.tile(self.vectors, (reps, 1))[:z]


def all_location_vectors(filter_map: np.ndarray) -> np.ndarray:
    """All prototypes ``ρ_i`` of one image: ``(C, H, W)`` -> ``(H*W, C)``.

    This is the full prototype set of Algorithm 1 line 2 (every spatial
    location), used as the search space on the ``x_i`` side of Eq. 2.
    """
    filter_map = check_array(filter_map, name="filter_map", ndim=3)
    c = filter_map.shape[0]
    return filter_map.reshape(c, -1).T


def select_top_z(filter_map: np.ndarray, z: int) -> PrototypeSet:
    """Select the top-Z most informative prototypes of one filter map.

    Follows §3.1 exactly: channels are ranked by their global max
    activation; each selected channel contributes the prototype at its
    argmax location; duplicate locations are dropped (Example 4).
    """
    filter_map = check_array(filter_map, name="filter_map", ndim=3)
    if z < 1:
        raise ValueError(f"z must be >= 1, got {z}")
    c, h, w = filter_map.shape
    flat = filter_map.reshape(c, h * w)
    channel_activation = flat.max(axis=1)
    # Stable ordering: activation descending, channel index ascending on ties.
    ranked_channels = np.lexsort((np.arange(c), -channel_activation))[: min(z, c)]

    vectors: list[np.ndarray] = []
    locations: list[tuple[int, int]] = []
    channels: list[int] = []
    seen: set[tuple[int, int]] = set()
    for channel in ranked_channels:
        flat_idx = int(np.argmax(flat[channel]))
        location = (flat_idx // w, flat_idx % w)
        if location in seen:
            continue
        seen.add(location)
        vectors.append(filter_map[:, location[0], location[1]])
        locations.append(location)
        channels.append(int(channel))
    return PrototypeSet(
        vectors=np.stack(vectors),
        locations=np.asarray(locations, dtype=np.int64),
        channels=np.asarray(channels, dtype=np.int64),
    )


def extract_prototypes(filter_maps: np.ndarray, z: int) -> list[PrototypeSet]:
    """Top-Z prototypes for a batch of filter maps ``(N, C, H, W)``."""
    filter_maps = check_array(filter_maps, name="filter_maps", ndim=4)
    return [select_top_z(filter_map, z) for filter_map in filter_maps]


def _layer_affinity_blocks(filter_maps: np.ndarray, z: int) -> np.ndarray:
    """All Z affinity blocks for one layer: returns ``(Z, N, N)``.

    ``out[rank, i, j] = f^rank_L(x_i, x_j)`` — the maximum cosine
    similarity between prototype ``rank`` of image j and any location
    vector of image i (Eq. 2).
    """
    n, c, h, w = filter_maps.shape
    # Unit location vectors per image: (N, C, P).
    vectors = filter_maps.reshape(n, c, h * w)
    norms = np.maximum(np.linalg.norm(vectors, axis=1, keepdims=True), _EPS)
    unit_vectors = vectors / norms
    # Unit prototypes per image: (N, Z, C), padded to exactly Z rows.
    prototype_sets = extract_prototypes(filter_maps, z)
    prototypes = np.stack([p.padded_vectors(z) for p in prototype_sets])
    proto_norms = np.maximum(np.linalg.norm(prototypes, axis=2, keepdims=True), _EPS)
    unit_prototypes = (prototypes / proto_norms).reshape(n * z, c)

    out = np.empty((z, n, n))
    for i in range(n):
        # (N*Z, C) @ (C, P) -> (N*Z, P); max over locations of image i.
        sims = unit_prototypes @ unit_vectors[i]
        best = sims.max(axis=1).reshape(n, z)  # best[j, rank]
        out[:, i, :] = best.T
    return out


def compute_affinity_matrix(
    model: VGG16,
    images: np.ndarray,
    top_z: int = 10,
    layers: tuple[int, ...] | None = None,
) -> AffinityMatrix:
    """Build the GOGGLES affinity matrix for a batch of images.

    Args:
        model: the (frozen) VGG-16 feature extractor.
        images: ``(N, C, H, W)`` batch — unlabeled *and* dev images
            together, as in §2.2 step 1.
        top_z: prototypes per layer (paper default 10).
        layers: which max-pool layers to use (default: all five).

    Returns:
        An :class:`AffinityMatrix` with α = len(layers) · top_z blocks.
    """
    images = check_images(images)
    if layers is None:
        layers = tuple(range(model.N_POOL_LAYERS))
    if len(layers) == 0:
        raise ValueError("need at least one layer")
    if top_z < 1:
        raise ValueError(f"top_z must be >= 1, got {top_z}")
    pools = model.forward_pools(images)
    blocks: list[np.ndarray] = []
    ids: list[AffinityFunctionId] = []
    for layer in layers:
        if not 0 <= layer < len(pools):
            raise ValueError(f"layer {layer} out of range [0, {len(pools)})")
        layer_blocks = _layer_affinity_blocks(pools[layer], top_z)
        for rank in range(top_z):
            blocks.append(layer_blocks[rank])
            ids.append(AffinityFunctionId(layer=layer, z=rank))
    return AffinityMatrix(values=np.concatenate(blocks, axis=1), function_ids=tuple(ids))
