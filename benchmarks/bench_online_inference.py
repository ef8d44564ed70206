"""Online absorb vs full warm refit: throughput and the accuracy contract.

The online subsystem claims (a) ``OnlineSession.absorb`` is O(batch)
per step — its wall-clock tracks the batch, not the corpus, so per-row
throughput stays roughly flat as N grows while a full refit's cost
grows with N — and (b) the online posteriors match a full warm-started
refit on the shapes corpora at ≥99% posterior agreement (1 − mean
total variation) with *exact* hard-label agreement.  This benchmark
enforces both at N ∈ {2·n_per_class, 4·n_per_class} (80 and 160 at the
default protocol scale) and merges an ``online`` section into the
``BENCH_inference.json`` trajectory the regression gate snapshots.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from bench_incremental_inference import JSON_PATH
from trajectory import update_trajectory

from repro.core import Goggles, GogglesConfig
from repro.core.inference.hierarchical import HierarchicalConfig
from repro.core.inference.mapping import apply_mapping, map_clusters_to_classes
from repro.datasets.base import DevSet
from repro.datasets.shapes import make_shapes
from repro.engine import InferenceEngine
from repro.eval.harness import shared_model
from repro.eval.metrics import MIN_POSTERIOR_AGREEMENT, posterior_agreement
from repro.online import OnlineConfig, OnlineSession
from repro.utils.rng import derive_seed

STREAM_BATCH = 4


def _dev_from_seed(labels: np.ndarray, n0: int, per_class: int, n_classes: int) -> DevSet:
    """A dev set drawn from the seed prefix only (shapes are shuffled,
    so ``sample_dev_set`` could pick indices beyond the seed corpus)."""
    rng = np.random.default_rng(derive_seed(0, "bench-online-dev"))
    chosen: list[int] = []
    for c in range(n_classes):
        pool = np.flatnonzero(labels[:n0] == c)
        assert pool.size >= per_class, f"seed corpus holds too few images of class {c}"
        chosen.extend(rng.choice(pool, size=per_class, replace=False).tolist())
    indices = np.array(sorted(chosen))
    return DevSet(indices=indices, labels=labels[indices])


@pytest.mark.benchmark(group="inference")
def test_online_absorb_vs_full_refit(benchmark, settings, record_result):
    model = shared_model(settings)
    rows: list[dict] = []

    def measure() -> list[dict]:
        rows.clear()
        for n_per_class in (settings.n_per_class, 2 * settings.n_per_class):
            dataset = make_shapes(n_classes=2, n_per_class=n_per_class, image_size=64, seed=0)
            n = dataset.n_examples
            arrivals = max(8, n // 5)
            n0 = n - arrivals
            dev = _dev_from_seed(dataset.labels, n0, settings.dev_per_class, 2)
            config = GogglesConfig(n_classes=2, seed=0, n_jobs=settings.n_jobs)

            # --- online path: seed fit, then absorb the arrivals in
            # stream batches.  Affinity rows are prebuilt once so the
            # timed loop isolates the O(batch·d) inference step (the
            # quantity the refit comparison is about).
            goggles = Goggles(config, model=model)
            seed_result = goggles.label(dataset.images[:n0], dev)
            session = OnlineSession(
                goggles, dev, seed_result, OnlineConfig(drift_threshold=100.0, refit_every=0)
            )
            extended_state = goggles.engine.source.extend_state(
                goggles.engine.state, dataset.images[n0:], goggles.engine.config.runtime()
            )
            online_labels: list[np.ndarray] = []
            absorb_s = 0.0
            n_steps = 0
            for b0 in range(0, arrivals, STREAM_BATCH):
                b1 = min(b0 + STREAM_BATCH, arrivals)
                blocks = [
                    np.array(extended_state.affinity.block(f)[n0 + b0 : n0 + b1, :n0], copy=True)
                    for f in range(session.alpha)
                ]
                start = time.perf_counter()
                online_labels.append(session.absorb_rows(blocks))
                absorb_s += time.perf_counter() - start
                n_steps += 1
            online = np.concatenate(online_labels, axis=0)

            # --- reference path: the same arrivals through a full
            # warm-started refit over the extended N×N matrix.
            reference = Goggles(config, model=model)
            reference.label(dataset.images[:n0], dev)
            warm_state = reference.inference.state
            extended = reference.engine.extend(dataset.images[n0:])
            hier = HierarchicalConfig(n_classes=2, seed=0)
            start = time.perf_counter()
            refit = InferenceEngine(hier).fit(extended, warm_start=warm_state)
            refit_s = time.perf_counter() - start
            mapping = map_clusters_to_classes(refit.posterior, dev, 2)
            refit_labels = apply_mapping(refit.posterior, mapping)[n0:]

            agreement = posterior_agreement(online, refit_labels)
            labels_exact = bool((online.argmax(axis=1) == refit_labels.argmax(axis=1)).all())
            absorb_step_s = absorb_s / n_steps
            assert labels_exact, "online hard labels must match the full warm refit exactly"
            assert agreement >= MIN_POSTERIOR_AGREEMENT, (
                f"online posterior agreement {agreement:.4f} below the "
                f"{MIN_POSTERIOR_AGREEMENT:.0%} contract at N={n}"
            )
            assert absorb_step_s < refit_s, (
                f"an O(batch) absorb step ({absorb_step_s:.4f}s) must beat a full "
                f"warm refit ({refit_s:.4f}s) at N={n}"
            )
            rows.append(
                {
                    "n": n,
                    "n_arrivals": arrivals,
                    "stream_batch": STREAM_BATCH,
                    "absorb_total_seconds": round(absorb_s, 4),
                    "absorb_step_seconds": round(absorb_step_s, 4),
                    "absorb_rows_per_second": round(arrivals / absorb_s, 1),
                    "refit_seconds": round(refit_s, 4),
                    "posterior_agreement": round(agreement, 6),
                    "posterior_agreement_ok": True,
                    "labels_exact": labels_exact,
                }
            )
        return rows

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    update_trajectory(JSON_PATH, "online", measured)

    lines = []
    for row in measured:
        lines.append(
            f"N={row['n']} (+{row['n_arrivals']} arrivals in batches of "
            f"{row['stream_batch']}): absorb {row['absorb_step_seconds']:.4f}s/step "
            f"({row['absorb_rows_per_second']:.0f} rows/s) vs full warm refit "
            f"{row['refit_seconds']:.4f}s; posterior agreement "
            f"{row['posterior_agreement']:.4f}, labels exact"
        )
    throughputs = [row["absorb_rows_per_second"] for row in measured]
    lines.append(
        f"absorb throughput across N: {' vs '.join(f'{t:.0f}' for t in throughputs)} rows/s "
        "(flat = O(batch) per step)"
    )
    lines.append(f"trajectory artifact: {JSON_PATH.name} (section 'online')")
    record_result("Online absorb vs full warm refit\n" + "\n".join(lines))
