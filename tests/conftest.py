"""Shared test fixtures.

The surrogate VGG-16 is expensive enough to build (calibration forward
passes) that tests share one session-scoped instance; it is frozen, so
sharing is safe.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np
import pytest

from repro.core import Goggles, GogglesConfig
from repro.core.affinity import AffinityMatrix
from repro.datasets import make_dataset
from repro.nn import VGG16, VGGConfig
from repro.obs import default_registry

_cache_labels = itertools.count()


@pytest.fixture(scope="session")
def vgg() -> VGG16:
    """A small shared backbone (width 1/8, seed 0)."""
    return VGG16(VGGConfig(seed=0))


@pytest.fixture(scope="session")
def tiny_images() -> np.ndarray:
    """A tiny deterministic RGB batch for shape/determinism tests."""
    rng = np.random.default_rng(42)
    return rng.random((4, 3, 32, 32))


@pytest.fixture(scope="session")
def small_cub():
    """A small CUB dataset shared by integration tests."""
    return make_dataset("cub", n_per_class=12, image_size=64, seed=1, pair_seed=0)


@pytest.fixture(scope="session")
def small_surface():
    """A small Surface dataset shared by integration tests."""
    return make_dataset("surface", n_per_class=12, image_size=64, seed=1)


@pytest.fixture(scope="session")
def small_surface_affinity(vgg, small_surface) -> AffinityMatrix:
    """The default (computed and stored in float32, α=50) affinity
    matrix of ``small_surface``.

    Real affinities sit near 1 with tiny column variances, the regime
    where base-fit numerics and memory layout matter; a uniform random
    matrix does not exercise either.
    """
    return Goggles(GogglesConfig(), model=vgg).build_affinity_matrix(small_surface.images)


class CacheCounts(NamedTuple):
    hits: dict[str, int]
    misses: dict[str, int]
    evictions: int


@pytest.fixture
def cache_label() -> str:
    """A ``tenant`` label no other test stamps on a cache.

    Set ``cache.tenant = cache_label`` before the traffic a test counts:
    the cache counts only into the process-wide metrics registry, so
    its label is what separates this test's counts from the rest.
    """
    return f"cache-test-{next(_cache_labels)}"


@pytest.fixture
def cache_counts():
    """``cache_counts(cache)``: the hits and misses by kind, and the
    evictions, that the process registry holds under ``cache.tenant``."""
    registry = default_registry()

    def counts(cache) -> CacheCounts:
        assert cache.tenant != "default", "stamp cache.tenant = cache_label first"

        def by_kind(name: str) -> dict[str, int]:
            series = registry.get(name).series()
            return {kind: int(value) for (kind, tenant), value in series.items() if tenant == cache.tenant}

        evictions = registry.get("goggles_cache_evictions_total").value(tenant=cache.tenant)
        return CacheCounts(
            by_kind("goggles_cache_hits_total"), by_kind("goggles_cache_misses_total"), int(evictions)
        )

    return counts
