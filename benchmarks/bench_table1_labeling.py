"""Table 1: labeling accuracy of GOGGLES vs all baselines on 5 datasets.

Paper reference (Table 1): GOGGLES averages 81.76% and beats Snuba
(58.88%) by ~23 points; GMM is the best clustering baseline (76.35%);
prototype affinities beat HOG (69.30%) and Logits (70.71%).

GOGGLES' per-dataset accuracy is merged into the ``accuracy`` section of
``BENCH_inference.json``, each row with the precision it was measured
at; ``scripts/check_bench.py`` fails the build when any of those
``*_accuracy`` values drops by more than one point.  The ``precision``
section holds the float32 contract on the same corpora: the default
float32 path's posteriors agree with float64 at ≥ 99% and its labels
are exact, and the gate fails if either flag flips.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from bench_distributed import update_trajectory
from bench_incremental_inference import JSON_PATH

from repro.core import Goggles
from repro.eval.harness import run_table1, shared_model, table1_corpus
from repro.eval.metrics import MIN_POSTERIOR_AGREEMENT, posterior_agreement
from repro.eval.paper import TABLE1_METHODS, TABLE1_PAPER
from repro.eval.tables import format_comparison_table
from repro.utils.rng import derive_seed


@pytest.mark.benchmark(group="table1")
def test_table1_labeling_accuracy(benchmark, settings, record_result):
    table = benchmark.pedantic(lambda: run_table1(settings), rounds=1, iterations=1)
    record_result(
        format_comparison_table(
            table, TABLE1_PAPER, TABLE1_METHODS, "Table 1: labeling accuracy (%) on the train split"
        )
    )
    update_trajectory(
        JSON_PATH,
        "accuracy",
        [
            {
                "dataset": dataset,
                "n_per_class": settings.n_per_class,
                "seeds": settings.n_seeds,
                "precision": settings.precision,
                "goggles_accuracy": round(row["goggles"], 4),
            }
            for dataset, row in table.items()
        ],
    )

    def mean_of(method: str) -> float:
        values = [row[method] for row in table.values() if row.get(method) is not None]
        return float(np.mean(values))

    # Shape checks mirroring the paper's headline claims.
    goggles = mean_of("goggles")
    assert goggles - mean_of("snuba") > 10, "GOGGLES should beat Snuba by a wide margin"
    assert goggles > mean_of("hog"), "prototype affinities should beat HOG on average"
    assert goggles > mean_of("logits"), "prototype affinities should beat Logits on average"
    # The clustering baselines receive the ORACLE cluster-to-class
    # mapping (§5.1.6) while GOGGLES must infer it from 10 dev labels
    # and occasionally flips (§4.4); allow that asymmetry a small slack.
    assert goggles >= mean_of("spectral") - 3, "GOGGLES should match spectral co-clustering"
    assert goggles >= mean_of("kmeans") - 3, "GOGGLES should match k-means"
    assert 65 <= goggles <= 100, "GOGGLES average should be in the paper's band"


@pytest.mark.benchmark(group="table1")
def test_float32_labels_match_float64(benchmark, settings, record_result):
    """GOGGLES at float32 and at float64 on each Table 1 corpus (run seed 0)."""
    model = shared_model(settings)

    def measure() -> list[dict]:
        rows = []
        for name in TABLE1_PAPER:
            dataset, dev = table1_corpus(name, settings, run_seed=0)
            results = {}
            for precision in ("float32", "float64"):
                config = replace(settings, precision=precision).goggles_config(
                    n_classes=dataset.n_classes,
                    seed=derive_seed(settings.seed, "goggles", 0),
                    keep_corpus_state=False,
                )
                results[precision] = Goggles(config, model=model).label(dataset.images, dev)
            half, exact = results["float32"], results["float64"]
            agreement = posterior_agreement(half.probabilistic_labels, exact.probabilistic_labels)
            rows.append(
                {
                    "dataset": name,
                    "n": dataset.n_examples,
                    "posterior_agreement": round(agreement, 6),
                    "posterior_agreement_ok": agreement >= MIN_POSTERIOR_AGREEMENT,
                    "labels_exact": bool(np.array_equal(half.predictions, exact.predictions)),
                }
            )
        return rows

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    update_trajectory(JSON_PATH, "precision", measured)
    record_result(
        "float32 vs float64 GOGGLES labels (Table 1 corpora, run seed 0)\n"
        + "\n".join(
            f"{row['dataset']} (N={row['n']}): posterior agreement {row['posterior_agreement']:.4%}, "
            f"labels {'exact' if row['labels_exact'] else 'DIVERGED'}"
            for row in measured
        )
    )
    for row in measured:
        assert row["posterior_agreement_ok"], f"float32 posterior agreement below 99% on {row['dataset']}"
        assert row["labels_exact"], f"float32 labels diverged from float64 on {row['dataset']}"
