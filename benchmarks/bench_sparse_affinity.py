"""Sparse top-k affinity vs dense: wall clock, peak memory, agreement.

The sparse path stores each affinity function block as uniform-row CSR
(top-k per row plus a per-row fill value) in float32 and densifies
blocks lazily — optionally through memory-mapped files so N can exceed
RAM.  Its acceptance contract (ENGINE.md) is accuracy-first: posterior
agreement ≥ 99% and *exact* label agreement with the dense path (both
at the float32 default), alongside a measured peak-memory reduction and
the dense/sparse wall-clock ratio.  This benchmark checks the contract
at N ∈ {2·n_per_class, 4·n_per_class} (80 and 160 at the default
protocol scale) and writes a ``sparse`` section into
``BENCH_inference.json`` for the CI regression gate
(``scripts/check_bench.py`` fails the build if an agreement flag flips
or the speedup ratio shrinks by more than 25%).

Two memory numbers are recorded.  Whole-run peak heap comes from
:mod:`tracemalloc` (NumPy registers its allocations with it; a
portable peak-RSS proxy needing no extra dependency) — informational,
because at benchmark scale it is dominated by the backbone's pooled
feature maps, which both modes pay identically.  The *gated* reduction
is the affinity-resident footprint: the α·N² term the sparse path
shrinks to α·N·k CSR (and off-loads to file-backed memmaps), which is
what remains resident through inference and what grows quadratically
with corpus size.
"""

from __future__ import annotations

import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from trajectory import update_trajectory

from repro.core import Goggles, GogglesConfig
from repro.datasets import make_dataset
from repro.eval.harness import shared_model
from repro.eval.metrics import MIN_POSTERIOR_AGREEMENT, posterior_agreement

# Trajectory artifacts live at the repo root so the BENCH_*.json series
# is tracked in one place across PRs (not buried under benchmarks/).
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_inference.json"


def _affinity_bytes(affinity) -> int:
    """Resident bytes of the affinity coding (dense values or CSR arrays)."""
    if hasattr(affinity, "values"):
        return affinity.values.nbytes
    return affinity.data.nbytes + affinity.indices.nbytes + affinity.fill.nbytes


def _run(config: GogglesConfig, model, images, dev):
    """One traced run for the heap peak, then an untraced timed run.

    tracemalloc taxes every allocation, and not uniformly across code
    paths — timing under it would distort the dense/sparse ratio — so
    the peak comes from a separate traced pass (which doubles as
    warmup) and the wall clock from a clean one.
    """
    tracemalloc.start()
    try:
        Goggles(config, model=model).label(images, dev)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    goggles = Goggles(config, model=model)
    start = time.perf_counter()
    result = goggles.label(images, dev)
    elapsed = time.perf_counter() - start
    return result, elapsed, peak


@pytest.mark.benchmark(group="inference")
def test_sparse_affinity_vs_dense(benchmark, settings, record_result):
    model = shared_model(settings)
    rows: list[dict] = []

    def measure() -> list[dict]:
        rows.clear()
        for n_per_class in (settings.n_per_class, 2 * settings.n_per_class):
            dataset = make_dataset("surface", n_per_class=n_per_class, seed=0)
            dev = dataset.sample_dev_set(settings.dev_per_class, seed=0)
            # keep_corpus_state off for both modes: the sparse path is
            # build-only, so the dense run must not carry corpus state
            # the sparse run cannot.
            base = dict(n_classes=2, seed=0, n_jobs=settings.n_jobs, keep_corpus_state=False)
            dense_result, dense_s, dense_peak = _run(
                GogglesConfig(**base), model, dataset.images, dev
            )
            sparse_result, sparse_s, sparse_peak = _run(
                GogglesConfig(**base, affinity_mode="sparse", memmap=True),
                model, dataset.images, dev,
            )

            agreement = posterior_agreement(
                dense_result.probabilistic_labels, sparse_result.probabilistic_labels
            )
            labels_exact = bool(
                np.array_equal(dense_result.predictions, sparse_result.predictions)
            )
            agreement_ok = agreement >= MIN_POSTERIOR_AGREEMENT
            assert agreement_ok, (
                f"sparse posterior agreement {agreement:.6f} below the "
                f"{MIN_POSTERIOR_AGREEMENT:.0%} contract at N={dataset.n_examples}"
            )
            assert labels_exact, f"sparse labels diverged from dense at N={dataset.n_examples}"
            dense_bytes = _affinity_bytes(dense_result.affinity)
            sparse_bytes = _affinity_bytes(sparse_result.affinity)
            assert sparse_bytes < dense_bytes, (
                f"sparse coding must shrink the affinity footprint at N={dataset.n_examples} "
                f"({sparse_bytes / 2**20:.2f} MiB vs {dense_bytes / 2**20:.2f} MiB)"
            )
            rows.append(
                {
                    "n": dataset.n_examples,
                    "top_k": sparse_result.affinity.top_k,
                    "dense_seconds": round(dense_s, 4),
                    "sparse_seconds": round(sparse_s, 4),
                    "speedup": round(dense_s / sparse_s, 4),
                    "dense_affinity_mb": round(dense_bytes / 2**20, 3),
                    "sparse_affinity_mb": round(sparse_bytes / 2**20, 3),
                    "memory_ratio": round(sparse_bytes / dense_bytes, 4),
                    "dense_peak_mb": round(dense_peak / 2**20, 2),
                    "sparse_peak_mb": round(sparse_peak / 2**20, 2),
                    "posterior_agreement": round(agreement, 6),
                    "posterior_agreement_ok": agreement_ok,
                    "labels_exact": labels_exact,
                }
            )
        return rows

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    # Merge: BENCH_inference.json is shared with the other inference
    # benchmarks, so this one only rewrites its own "sparse" section.
    update_trajectory(JSON_PATH, "sparse", measured)

    lines = []
    for row in measured:
        lines.append(
            f"N={row['n']} (top_k={row['top_k']}): dense {row['dense_seconds']:.3f}s"
            f"/{row['dense_affinity_mb']:.2f} MiB affinity, sparse {row['sparse_seconds']:.3f}s"
            f"/{row['sparse_affinity_mb']:.2f} MiB ({row['speedup']:.2f}x, "
            f"{100 * (1 - row['memory_ratio']):.0f}% smaller affinity footprint), "
            f"posterior agreement {row['posterior_agreement']:.4%}, "
            f"labels {'exact' if row['labels_exact'] else 'DIVERGED'}"
        )
    record_result(
        "Sparse top-k affinity vs dense (accuracy contract + cost)\n"
        + "\n".join(lines)
        + f"\ntrajectory artifact: {JSON_PATH.name}"
    )
