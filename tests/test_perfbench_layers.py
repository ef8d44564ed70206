"""The traced benchmark still finds every library name it wraps.

``perfbench.tracer.install_layers`` wraps functions and methods by name
(``ArtifactCache.save_arrays``, ``repro.engine.source.best_similarities``,
...), so a rename in ``src/`` breaks the next traced run.  Installing the
wrappers here catches that in tier-1; ``restore`` must then put every
original back, or later tests would run traced code.
"""

from __future__ import annotations

import repro.engine.source as source
from perfbench.tracer import Tracer, install_layers
from repro.engine.cache import ArtifactCache

# The cache methods the tracer times as cache.read / cache.write spans.
CACHE_METHODS = ("save_affinity", "save_arrays", "load_affinity", "load_arrays")


def test_install_layers_wraps_every_name_and_restores_them():
    originals = {name: ArtifactCache.__dict__[name] for name in CACHE_METHODS}
    original_similarities = source.best_similarities
    tracer = Tracer()
    try:
        install_layers(tracer)  # a wrapped name that is gone raises here
        for name in CACHE_METHODS:
            assert ArtifactCache.__dict__[name].__wrapped__ is originals[name]
        assert source.best_similarities.__wrapped__ is original_similarities
    finally:
        tracer.restore()
    assert {name: ArtifactCache.__dict__[name] for name in CACHE_METHODS} == originals
    assert source.best_similarities is original_similarities
