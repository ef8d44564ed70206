"""The paper's primary contribution: affinity coding and GOGGLES.

* :mod:`repro.core.affinity` — affinity functions and the matrix
  containers (§2.2, §3.2); the prototype matrix itself (§3.1–3.2) is
  built by :mod:`repro.engine`.
* :mod:`repro.core.inference` — hierarchical generative model (§4).
* :mod:`repro.core.goggles` — the end-to-end system facade (Figure 3).
"""

from repro.core.affinity import (
    AffinityFunctionId,
    AffinityMatrix,
    affinity_from_features,
    cosine_similarity,
)
from repro.core.goggles import Goggles, GogglesConfig, GogglesResult

__all__ = [
    "AffinityFunctionId",
    "AffinityMatrix",
    "affinity_from_features",
    "cosine_similarity",
    "Goggles",
    "GogglesConfig",
    "GogglesResult",
]
