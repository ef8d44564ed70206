"""Runtime scaling of the hierarchical model (§5.3's running-time note).

The paper: "without parallelization, our generative model is α (the
number of base models) slower than the GMM model ... in practice we can
parallelize all of the base models".  We measure inference wall time vs
the number of affinity functions and vs the number of instances, and
check the α-linearity claim.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest
from reference_affinity import _layer_affinity_blocks

from repro.core import Goggles, GogglesConfig
from repro.core.inference.hierarchical import HierarchicalConfig, HierarchicalModel
from repro.datasets import make_dataset
from repro.engine import (
    AffinityEngine,
    EngineConfig,
    PrototypeAffinitySource,
    assemble_blocks,
    best_similarities,
    tile_executor,
    unique_unit_prototypes,
    unit_location_vectors,
)
from repro.eval.harness import build_affinity, shared_model
from repro.eval.tables import format_curve


@pytest.mark.benchmark(group="runtime")
def test_runtime_scales_linearly_with_functions(benchmark, settings, record_result):
    model = shared_model(settings)
    dataset = make_dataset("cub", n_per_class=settings.n_per_class, seed=0, pair_seed=0)
    affinity = build_affinity(model, dataset.images, settings, top_z=10)

    def measure():
        timings = {}
        for alpha in (5, 10, 25, 50):
            subset = affinity.subset_functions(np.arange(alpha))
            start = time.perf_counter()
            HierarchicalModel(HierarchicalConfig(n_classes=2, seed=0)).fit(subset)
            timings[alpha] = time.perf_counter() - start
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_result(
        format_curve({k: round(v, 3) for k, v in timings.items()},
                     "Inference wall time vs alpha (seconds)", "alpha", "seconds")
        + "\npaper claim: hierarchical cost is ~alpha x one base GMM (base models parallelisable)"
    )
    # Linearity check with generous tolerance: 50 functions should cost
    # clearly more than 5, but not super-linearly more.
    ratio = timings[50] / max(timings[5], 1e-9)
    assert 2 <= ratio <= 40, f"cost should grow roughly linearly in alpha, got ratio {ratio:.1f}"


@pytest.mark.benchmark(group="runtime")
def test_affinity_construction_scaling(benchmark, settings, record_result):
    model = shared_model(settings)

    def measure():
        timings = {}
        for n in (10, 20, 40):
            dataset = make_dataset("surface", n_per_class=n, seed=0)
            start = time.perf_counter()
            build_affinity(model, dataset.images, settings, top_z=10)
            timings[2 * n] = time.perf_counter() - start
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_result(
        format_curve({k: round(v, 3) for k, v in timings.items()},
                     "Affinity matrix construction vs N (seconds)", "N", "seconds")
    )
    assert timings[80] > timings[20], "larger datasets must cost more"


@pytest.mark.benchmark(group="runtime")
def test_tiled_vs_naive_affinity_construction(benchmark, settings, record_result, tmp_path):
    """Tiled kernels vs the per-image reference loop, N=80, affinity stage.

    Measures the similarity-construction stage (pool features are the
    previous stage's product and identical in both paths): the naive
    side is ``tests/reference_affinity.py``, the tiled side the
    production kernels composed as ``PrototypeAffinitySource`` does.
    Then the end-to-end engine with a cold and a warm artifact cache.
    """
    model = shared_model(settings)
    dataset = make_dataset("surface", n_per_class=settings.n_per_class, seed=0)
    n = dataset.n_examples
    layers = tuple(range(model.N_POOL_LAYERS))
    pools = model.forward_pools(dataset.images)

    def tiled(dtype=np.float64):
        blocks = []
        with tile_executor(4) as pool:
            for layer in layers:
                prototypes = unique_unit_prototypes(pools[layer], 10)
                vectors = unit_location_vectors(pools[layer])
                best = best_similarities(prototypes.vectors, vectors, executor=pool, dtype=dtype)
                blocks.extend(assemble_blocks(best, prototypes.rank_rows))
        return np.concatenate(blocks, axis=1)

    def timed(fn):
        # min over 2 runs: one-core CI boxes are noisy enough to matter
        best, result = np.inf, None
        for _ in range(2):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return best, result

    def measure():
        timings: dict[str, float] = {}
        timings["naive"], naive_blocks = timed(
            lambda: [_layer_affinity_blocks(pools[layer], 10) for layer in layers]
        )
        naive = np.concatenate([b for lb in naive_blocks for b in lb], axis=1)

        timings["tiled_f64"], tiled64 = timed(tiled)
        timings["tiled_f32"], tiled32 = timed(lambda: tiled(np.float32))

        # float64 tiling agrees to the last ulp (BLAS kernel choice may
        # round differently for different GEMM shapes); float32 to ~1e-6.
        assert np.allclose(naive, tiled64, atol=1e-12, rtol=0.0)
        assert np.allclose(naive, tiled32), "float32 tiling must stay within allclose"

        engine = AffinityEngine(
            PrototypeAffinitySource(model, top_z=10),
            EngineConfig(batch_size=32, n_jobs=4, precision="float32", cache_dir=str(tmp_path)),
        )
        start = time.perf_counter()
        cold = engine.build(dataset.images, keep_state=False)
        timings["engine_cold"] = time.perf_counter() - start
        start = time.perf_counter()
        warm = engine.build(dataset.images, keep_state=False)
        timings["engine_warm"] = time.perf_counter() - start
        assert np.array_equal(cold.values, warm.values), "warm rerun must load the cached bytes"
        assert np.allclose(naive, cold.values)
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = timings["naive"] / max(timings["tiled_f32"], 1e-9)
    record_result(
        format_curve({1: round(timings["naive"], 3), 2: round(timings["tiled_f64"], 3),
                      3: round(timings["tiled_f32"], 3)},
                     f"Affinity construction stage at N={n} (1=naive, 2=tiled f64, 3=tiled f32; seconds)",
                     "variant", "seconds")
        + f"\ntiled (float32, n_jobs=4) speedup over naive: {speedup:.2f}x"
        + f"\nengine end-to-end: cold cache {timings['engine_cold']:.3f}s, "
          f"warm cache {timings['engine_warm']:.3f}s"
    )
    if n >= 80:
        # The >=2x claim is for the paper-scale protocol; at smoke sizes
        # fixed per-call overhead dominates and the ratio is meaningless.
        assert speedup >= 2.0, f"tiled affinity construction should be >=2x naive, got {speedup:.2f}x"
    assert timings["engine_warm"] < timings["engine_cold"], "cache-warm rerun must be faster"


@pytest.mark.benchmark(group="runtime")
def test_cached_label_overhead(benchmark, settings, record_result, tmp_path):
    """What an artifact cache costs a cold ``Goggles.label``.

    One ``surface`` corpus, labelled by a fresh ``Goggles`` per call
    (library defaults) with a fresh ``cache_dir`` and without one, in
    alternating pairs after one uncached warm-up call.  A cold cached
    call writes the affinity, corpus-state and inference entries and
    reads none.  The gate is the ratio of the two medians.
    """
    model = shared_model(settings)
    dataset = make_dataset("surface", n_per_class=settings.n_per_class, seed=0)
    dev = dataset.sample_dev_set(per_class=5, seed=0)
    n_pairs = 4

    def label(cache_dir):
        goggles = Goggles(GogglesConfig(n_classes=2, cache_dir=cache_dir), model=model)
        start = time.perf_counter()
        result = goggles.label(dataset.images, dev)
        return time.perf_counter() - start, result.probabilistic_labels

    def measure():
        _, reference = label(None)  # warm-up: thread pool, BLAS, allocator
        timings: dict[str, list[float]] = {"uncached": [], "cached": []}
        for pair in range(n_pairs):
            order = ("uncached", "cached") if pair % 2 == 0 else ("cached", "uncached")
            for side in order:
                cache_dir = str(tmp_path / f"cache-{pair}") if side == "cached" else None
                seconds, labels = label(cache_dir)
                np.testing.assert_array_equal(labels, reference)
                timings[side].append(seconds)
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    uncached = statistics.median(timings["uncached"])
    cached = statistics.median(timings["cached"])
    ratio = cached / uncached
    record_result(
        f"Cold Goggles.label at N={dataset.n_examples}, median of {n_pairs} alternating pairs "
        f"(n_samples={n_pairs} per side):\n"
        f"  no cache {uncached:.3f}s, fresh cache_dir {cached:.3f}s, ratio {ratio:.2f}x"
    )
    assert ratio <= 1.25, f"a cold cached label should cost at most 1.25x an uncached one, got {ratio:.2f}x"
