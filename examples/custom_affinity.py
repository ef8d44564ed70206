"""Extending GOGGLES with custom affinity sources.

The paper notes "GOGGLES can be easily extended to use any other
representation learning techniques" (§3.2).  The class-inference module
accepts *any* affinity matrix, so this example plugs three alternative
affinity sources into the same inference stack and compares them:

1. the standard VGG-16 prototype functions,
2. HOG-descriptor cosine similarity (classical vision),
3. a combined matrix using both (the affinity library is open-ended).

Run:  python examples/custom_affinity.py
"""

from __future__ import annotations

import numpy as np

from repro import make_dataset
from repro.core import AffinityMatrix, affinity_from_features
from repro.core.inference import HierarchicalConfig, HierarchicalModel, apply_mapping, map_clusters_to_classes
from repro.eval.harness import ExperimentSettings, build_affinity, shared_model
from repro.eval.metrics import labeling_accuracy
from repro.vision.hog import hog_batch


def infer(affinity: AffinityMatrix, dataset, dev) -> float:
    model = HierarchicalModel(HierarchicalConfig(n_classes=2, seed=0))
    result = model.fit(affinity)
    mapping = map_clusters_to_classes(result.posterior, dev, 2)
    posterior = apply_mapping(result.posterior, mapping)
    return labeling_accuracy(posterior, dataset.labels, exclude=dev.indices)


def main() -> None:
    settings = ExperimentSettings()
    model = shared_model(settings)
    dataset = make_dataset("surface", n_per_class=40, seed=5)
    dev = dataset.sample_dev_set(per_class=5, seed=0)

    prototype_affinity = build_affinity(model, dataset.images, settings, top_z=10)
    print(f"prototype affinity functions ({prototype_affinity.n_functions}): "
          f"{100 * infer(prototype_affinity, dataset, dev):.1f}%")

    hog_affinity = affinity_from_features(hog_batch(dataset.images))
    print(f"HOG cosine affinity (1 function):  {100 * infer(hog_affinity, dataset, dev):.1f}%")

    # The affinity library is open: concatenating column blocks adds
    # functions, and the ensemble learns which sources to trust.
    combined = AffinityMatrix(
        values=np.concatenate([prototype_affinity.values, hog_affinity.values], axis=1),
        function_ids=prototype_affinity.function_ids + hog_affinity.function_ids,
    )
    print(f"combined ({combined.n_functions} functions):        "
          f"{100 * infer(combined, dataset, dev):.1f}%")


if __name__ == "__main__":
    main()
