"""Tests for the thread budget: one BLAS thread, work fanned over ``n_jobs``.

The contract under test: labeling gives the same bits whatever the
thread budget — BLAS at its starting thread count, or pinned to one
while extraction chunks, similarity tiles and base fits fan out over
``n_jobs`` threads, even oversubscribed with the interpreter switching
threads every microsecond.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import Goggles, GogglesConfig
from repro.engine import (
    best_similarities,
    extract_pool_features,
    tiling,
    unique_unit_prototypes,
    unit_location_vectors,
)
from repro.eval import ExperimentSettings
from repro.utils import threads
from repro.utils.threads import blas_threads, pin_thread_budget, set_blas_threads, usable_cores

#: BLAS threads of the process before any engine pinned them (read at
#: collection, which imports every test module before a test runs).
STARTING_BLAS_THREADS = blas_threads()

#: Generous bound on one label call of ``small_surface`` (about a second
#: on two cores, even oversubscribed); a lost wake-up would hang instead.
LABEL_SECONDS = 120.0


@pytest.fixture(autouse=True)
def restore_blas_threads():
    """Put back the BLAS thread count each test found."""
    found = blas_threads()
    yield
    if found is not None:
        set_blas_threads(found)


def reference_best_similarities(prototypes, unit_vectors, dtype=np.float64, out_dtype=None):
    """The per-image kernel before prototype rows were chunked: one
    ``(rows, P)`` product per image, reduced by a fresh max."""
    protos = prototypes.astype(dtype, copy=False)
    vectors = unit_vectors.astype(dtype, copy=False)
    out = np.empty(
        (protos.shape[0], vectors.shape[0]), dtype=np.float64 if out_dtype is None else out_dtype
    )
    for i in range(vectors.shape[0]):
        out[:, i] = (protos @ vectors[i]).max(axis=1)
    return out


@pytest.fixture(scope="module")
def pool_maps(vgg, small_surface) -> list[np.ndarray]:
    """Real channels-last pool maps: the layout the engine scores."""
    return vgg.forward_pools(small_surface.images[:6])


class TestLabelAcrossThreadBudgets:
    def test_bit_identical_at_every_budget(self, vgg, small_surface):
        dev = small_surface.sample_dev_set(2, seed=0)

        def label(n_jobs: int):
            goggles = Goggles(GogglesConfig(n_classes=2, n_jobs=n_jobs), model=vgg)
            results = []
            caller = threading.Thread(
                target=lambda: results.append(goggles.label(small_surface.images, dev)), daemon=True
            )
            caller.start()
            caller.join(timeout=LABEL_SECONDS)
            assert not caller.is_alive(), f"label at n_jobs={n_jobs} still running after {LABEL_SECONDS} s"
            assert len(results) == 1, "label raised (see the thread exception warning)"
            return results[0]

        if STARTING_BLAS_THREADS is not None:
            set_blas_threads(STARTING_BLAS_THREADS)
        reference = label(1)
        results = [label(2)]
        if STARTING_BLAS_THREADS is not None:
            assert blas_threads() == 1  # n_jobs > 1 pinned BLAS
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results.append(label(4))
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert np.array_equal(result.affinity.values, reference.affinity.values)
            assert np.array_equal(result.probabilistic_labels, reference.probabilistic_labels)


class TestChunkedSimilarities:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("out_dtype", [None, np.float32])
    def test_matches_per_image_kernel(self, pool_maps, dtype, out_dtype):
        rng = np.random.default_rng(5)
        for filter_maps in pool_maps:
            vectors = unit_location_vectors(filter_maps)
            real = unique_unit_prototypes(filter_maps, 10).vectors
            positions = vectors.shape[2]
            chunk = max(1, tiling._SCRATCH_BYTES // (positions * np.dtype(dtype).itemsize))
            # Row counts around the chunk, none a multiple of it (bar 1):
            # a naive remainder chunk of one row would be a matrix-vector
            # product, which BLAS sums in another order.
            for rows in (1, 2, chunk - 1, chunk + 1, 2 * chunk + 3):
                prototypes = real[rng.integers(0, real.shape[0], rows)]
                if STARTING_BLAS_THREADS is not None:
                    set_blas_threads(STARTING_BLAS_THREADS)
                expected = reference_best_similarities(prototypes, vectors, dtype, out_dtype)
                set_blas_threads(1)
                got = best_similarities(prototypes, vectors, dtype=dtype, out_dtype=out_dtype)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), (positions, rows)

    def test_fanned_tiles_match_per_image_kernel(self, pool_maps):
        filter_maps = pool_maps[0]
        vectors = unit_location_vectors(filter_maps)
        real = unique_unit_prototypes(filter_maps, 10).vectors
        prototypes = np.concatenate([real] * 8)[:301]
        # float64 throughout, then float32 compute into a float64 and
        # into a float32 table: each tile's maxima reduce in the
        # compute dtype and are cast once on the way out.
        for dtype, out_dtype in ((np.float64, None), (np.float32, None), (np.float32, np.float32)):
            expected = reference_best_similarities(prototypes, vectors, dtype, out_dtype)
            with ThreadPoolExecutor(max_workers=3) as pool:
                for col_tile in (None, 97):
                    got = best_similarities(
                        prototypes, vectors, row_tile=2, col_tile=col_tile, executor=pool,
                        dtype=dtype, out_dtype=out_dtype,
                    )
                    assert got.dtype == expected.dtype
                    assert np.array_equal(got, expected), (dtype, out_dtype, col_tile)


class TestFoldedMaxima:
    """At P <= 64 positions a chunk's maxima fold by elementwise
    ``np.maximum`` over 16-column slabs; the table must stay the
    per-image kernel's ``max(axis=1)`` on both sides of the fold
    threshold and at every slab remainder."""

    #: (H, W) of each position count.  P = 1 is left out: a 1×1 map's
    #: matmul is a matrix-vector product, which BLAS sums in another
    #: order than the unchunked reference above one chunk.
    SHAPES = {3: (1, 3), 17: (1, 17), 49: (7, 7), 63: (7, 9), 65: (5, 13), 100: (10, 10)}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("positions", sorted(SHAPES))
    def test_matches_per_image_kernel(self, positions, dtype):
        rng = np.random.default_rng(positions)
        h, w = self.SHAPES[positions]
        # ReLU-like maps, channels-last in memory like the backbone's.
        filter_maps = np.maximum(rng.standard_normal((4, h, w, 16)), 0.0).transpose(0, 3, 1, 2)
        vectors = unit_location_vectors(filter_maps)
        real = unique_unit_prototypes(filter_maps, 10).vectors
        chunk = max(1, tiling._SCRATCH_BYTES // (positions * np.dtype(dtype).itemsize))
        for rows in (1, 2, 5, chunk - 1, chunk + 1):
            prototypes = real[rng.integers(0, real.shape[0], rows)]
            if STARTING_BLAS_THREADS is not None:
                set_blas_threads(STARTING_BLAS_THREADS)
            expected = reference_best_similarities(prototypes, vectors, dtype)
            set_blas_threads(1)
            got = best_similarities(prototypes, vectors, dtype=dtype)
            assert np.array_equal(got, expected), (positions, rows)


class TestExtractionFanOut:
    def test_executor_equals_serial(self, vgg, small_surface):
        images = small_surface.images[:8]
        serial = extract_pool_features(vgg, images, batch_size=3)
        with ThreadPoolExecutor(max_workers=2) as pool:
            fanned = extract_pool_features(vgg, images, batch_size=3, executor=pool)
        assert sorted(fanned) == sorted(serial)
        for layer, maps in serial.items():
            assert np.array_equal(fanned[layer], maps)
            assert fanned[layer].strides == maps.strides  # same layout for the similarity GEMMs


class _NoOpenBLAS:
    """A loaded library that exports none of OpenBLAS's symbols."""

    def __init__(self, *args, **kwargs):
        pass


class _Unloadable:
    def __init__(self, *args, **kwargs):
        raise OSError("cannot load library")


class TestHelper:
    @pytest.mark.parametrize("library", [_NoOpenBLAS, _Unloadable])
    def test_noop_when_symbol_lookup_fails(self, monkeypatch, library):
        found = blas_threads()
        with monkeypatch.context() as patch:
            patch.setattr(threads.ctypes, "CDLL", library)
            assert blas_threads() is None
            assert set_blas_threads(1) is False
            pin_thread_budget()
        assert blas_threads() == found

    def test_pin_sets_one_thread(self):
        if blas_threads() is None:
            pytest.skip("numpy does not link a known OpenBLAS")
        set_blas_threads(2)
        pin_thread_budget()
        assert blas_threads() == 1

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            set_blas_threads(0)

    def test_defaults_follow_usable_cores(self):
        assert usable_cores() >= 1
        assert GogglesConfig().n_jobs == usable_cores()
        assert GogglesConfig().engine_config().n_jobs == usable_cores()
        assert ExperimentSettings().n_jobs == usable_cores()
