"""Incremental inference: cold refit vs warm start.

The staged inference engine claims (a) warm-started incremental
labeling beats a cold refit — fewer total EM iterations on the same
extended matrix — while agreeing within the ENGINE.md tolerance, and
(b) fanning the base fits over threads (``n_jobs=2``) is value-neutral.  This benchmark checks both
at N ∈ {2·n_per_class, 4·n_per_class} (80 and 160 at the default
protocol scale) and emits a ``BENCH_inference.json`` trajectory
artifact for CI to archive.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest
from trajectory import update_trajectory

from repro.core import Goggles, GogglesConfig
from repro.core.inference.hierarchical import HierarchicalConfig
from repro.datasets import make_dataset
from repro.engine import InferenceEngine
from repro.eval.harness import shared_model
from repro.eval.tables import format_curve

# Trajectory artifacts live at the repo root so the BENCH_*.json series
# is tracked in one place across PRs (not buried under benchmarks/).
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_inference.json"
WARM_ATOL = 1e-3  # documented warm-vs-cold posterior tolerance (ENGINE.md)


def _hold_out(n: int) -> int:
    """Arrivals streamed after the initial corpus (~10%, at least 4)."""
    return max(4, n // 10)


@pytest.mark.benchmark(group="inference")
def test_incremental_inference_modes(benchmark, settings, record_result):
    model = shared_model(settings)
    rows: list[dict] = []

    def measure() -> list[dict]:
        rows.clear()
        for n_per_class in (settings.n_per_class, 2 * settings.n_per_class):
            dataset = make_dataset("surface", n_per_class=n_per_class, seed=0)
            n = dataset.n_examples
            n0 = n - _hold_out(n)
            dev = dataset.sample_dev_set(settings.dev_per_class, seed=0)
            assert dev.indices.max() < n0, "dev set must live in the seed corpus"
            config = GogglesConfig(n_classes=2, seed=0, n_jobs=settings.n_jobs)

            # Seed corpus + incremental extension (shared by both modes).
            goggles = Goggles(config, model=model)
            goggles.label(dataset.images[:n0], dev)
            state = goggles.inference.state
            extended = goggles.engine.extend(dataset.images[n0:])

            hier_config = HierarchicalConfig(n_classes=2, seed=config.seed)
            start = time.perf_counter()
            cold = InferenceEngine(hier_config).fit(extended)
            cold_s = time.perf_counter() - start
            start = time.perf_counter()
            warm = InferenceEngine(hier_config).fit(extended, warm_start=state)
            warm_s = time.perf_counter() - start
            thread = InferenceEngine(hier_config, n_jobs=2).fit(extended)

            assert np.array_equal(thread.posterior, cold.posterior), (
                "thread-pool fit must be bit-identical to serial"
            )
            assert np.allclose(warm.posterior, cold.posterior, atol=WARM_ATOL), (
                "warm start must stay within the documented tolerance"
            )
            assert warm.total_em_iterations < cold.total_em_iterations, (
                f"warm start must save EM iterations at N={n} "
                f"({warm.total_em_iterations} vs {cold.total_em_iterations})"
            )
            rows.append(
                {
                    "n": n,
                    "n_new": n - n0,
                    "cold_seconds": round(cold_s, 4),
                    "warm_seconds": round(warm_s, 4),
                    "cold_em_iterations": cold.total_em_iterations,
                    "warm_em_iterations": warm.total_em_iterations,
                    "posterior_max_abs_diff": float(np.abs(warm.posterior - cold.posterior).max()),
                }
            )
        return rows

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    # Merge: BENCH_inference.json is shared with bench_online_inference.py
    # ("online" section), so each benchmark only rewrites its own rows.
    update_trajectory(JSON_PATH, "rows", measured)

    lines = []
    for row in measured:
        saved = 100 * (1 - row["warm_em_iterations"] / row["cold_em_iterations"])
        lines.append(
            f"N={row['n']} (+{row['n_new']} arrivals): cold {row['cold_seconds']:.3f}s"
            f"/{row['cold_em_iterations']} EM iters, warm {row['warm_seconds']:.3f}s"
            f"/{row['warm_em_iterations']} iters ({saved:.0f}% iterations saved)"
        )
    record_result(
        format_curve(
            {row["n"]: row["warm_em_iterations"] for row in measured},
            "Warm-started EM iterations vs N",
            "N",
            "EM iters",
        )
        + "\n" + "\n".join(lines)
        + f"\ntrajectory artifact: {JSON_PATH.name}"
    )
