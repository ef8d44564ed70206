"""Distributed shard runtime: cluster vs the local thread path.

Two benchmarks share the repo-root ``BENCH_distributed.json``, one
section each.  Their workers are ``goggles-repro worker`` processes
started through ``tests/local_workers.py`` (``conftest.py`` puts
``tests/`` on ``sys.path``).

* ``test_distributed_extraction_bit_identical_at_any_worker_count`` —
  cold clusters of 1, 2 and 4 worker processes with result streaming
  forced on (``--stream-threshold 0``), so the framed path runs under
  load.  At every worker count the merged pool features (values
  *and* strides: the downstream GEMM rounds by operand layout), the
  assembled :class:`AffinityMatrix` and the class-aligned labels must
  be **bit-identical** (atol=0) to the serial path.  Written as the
  ``extraction`` section; each cluster counts into its own registry, so
  every row's counts are that cluster's.  The ``serial_*`` keys keep
  their names so the committed baselines stay comparable key for key,
  but they time the library default: extraction chunks, similarity
  tiles and base fits all fan out over ``n_jobs`` local threads.
* ``test_distributed_telemetry_reconciliation`` — the cluster-wide
  telemetry contract: two worker processes ship their
  ``goggles_worker_shards_completed_total`` deltas over the wire, and
  the sum of the merged per-worker series must reconcile **exactly**
  with the coordinator queue's completed-shard count (telemetry rides
  the same messages as the completion reports, so in a clean run the
  books balance to the shard).  Written as the ``telemetry`` section,
  with the shard queue-wait p99 gated like the serving latencies.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest
from local_workers import process_workers

from repro.core import Goggles, GogglesConfig
from repro.datasets import make_dataset
from repro.distributed import Coordinator, DistributedConfig
from repro.engine.features import extract_pool_features
from repro.eval.harness import shared_model
from repro.obs import MetricsRegistry

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_distributed.json"
N_WORKERS = 2
#: Extraction cells: worker counts, pool layers and chunk size.
EXTRACTION_WORKERS = (1, 2, 4)
EXTRACTION_LAYERS = (0, 1, 2, 3, 4)
EXTRACTION_BATCH_SIZE = 32


def update_trajectory(path: Path, key: str, rows: list[dict] | dict) -> None:
    """Merge one section into the shared trajectory JSON.

    ``BENCH_distributed.json`` holds one section per benchmark in this
    file (``extraction``, ``telemetry``); merging instead
    of rewriting lets the benchmarks run in any order — or alone —
    without erasing each other's numbers.
    """
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError):
        document = {}
    if not isinstance(document, dict):
        document = {}
    document[key] = rows
    path.write_text(json.dumps(document, indent=2) + "\n")


@pytest.mark.benchmark(group="distributed")
def test_distributed_extraction_bit_identical_at_any_worker_count(benchmark, settings, record_result):
    model = shared_model(settings)
    dataset = make_dataset("surface", n_per_class=settings.n_per_class, seed=0)
    dev = dataset.sample_dev_set(settings.dev_per_class, seed=0)
    layers, batch_size = EXTRACTION_LAYERS, EXTRACTION_BATCH_SIZE
    rows: list[dict] = []

    def measure() -> list[dict]:
        rows.clear()
        start = time.perf_counter()
        serial_pools = extract_pool_features(model, dataset.images, layers=layers, batch_size=batch_size)
        serial_extract_s = time.perf_counter() - start
        start = time.perf_counter()
        config = GogglesConfig(n_classes=2, seed=0, batch_size=batch_size)
        serial = Goggles(config, model=model).label(dataset.images, dev)
        serial_s = time.perf_counter() - start

        for n_workers in EXTRACTION_WORKERS:
            start = time.perf_counter()
            coordinator = Coordinator(DistributedConfig(), registry=MetricsRegistry())
            with coordinator, process_workers(coordinator.address, n_workers, "--stream-threshold", "0"):
                distributed = Goggles(config, model=model, coordinator=coordinator).label(
                    dataset.images, dev
                )
                labeled_s = time.perf_counter() - start
                start = time.perf_counter()
                merged_pools = coordinator.extract_pool_features(
                    model.config, dataset.images, layers=layers, batch_size=batch_size
                )
                extract_s = time.perf_counter() - start
                streamed = coordinator.registry.get("goggles_broker_streamed_results_total")
                queue_stats = coordinator.queue.stats()

            features_identical = all(
                np.array_equal(merged_pools[layer], serial_pools[layer])
                and merged_pools[layer].strides == serial_pools[layer].strides
                for layer in layers
            )
            affinity_identical = np.array_equal(distributed.affinity.values, serial.affinity.values)
            labels_identical = np.array_equal(
                distributed.probabilistic_labels, serial.probabilistic_labels
            ) and np.array_equal(distributed.predictions, serial.predictions)
            # The acceptance contract, enforced here so CI fails loudly.
            assert features_identical, f"{n_workers}-worker pool features diverged"
            assert affinity_identical, f"{n_workers}-worker affinity diverged"
            assert labels_identical, f"{n_workers}-worker labels diverged"

            rows.append(
                {
                    "n": dataset.n_examples,
                    "workers": n_workers,
                    "serial_extraction_seconds": round(serial_extract_s, 4),
                    "distributed_extraction_seconds": round(extract_s, 4),
                    "serial_pipeline_seconds": round(serial_s, 4),
                    "distributed_pipeline_seconds": round(labeled_s, 4),
                    "streamed_results": int(streamed.total()) if streamed is not None else 0,
                    "shards_completed": queue_stats["completed"],
                    "features_bit_identical": features_identical,
                    "affinity_bit_identical": affinity_identical,
                    "labels_bit_identical": labels_identical,
                }
            )
        return rows

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    update_trajectory(JSON_PATH, "extraction", measured)

    lines = [
        f"Distributed feature extraction (N={measured[0]['n']}, layers={list(layers)}, "
        f"batch_size={batch_size}, streaming forced on)"
    ]
    for row in measured:
        lines.append(
            f"  {row['workers']} worker(s): extraction {row['distributed_extraction_seconds']:.2f}s "
            f"(serial {row['serial_extraction_seconds']:.2f}s), pipeline "
            f"{row['distributed_pipeline_seconds']:.2f}s (serial {row['serial_pipeline_seconds']:.2f}s), "
            f"{row['streamed_results']} streamed results — features/affinity/labels "
            f"bit-identical: {row['features_bit_identical']}/{row['affinity_bit_identical']}"
            f"/{row['labels_bit_identical']}"
        )
    lines.append(f"trajectory artifact: {JSON_PATH.name} (section 'extraction')")
    record_result("\n".join(lines))


@pytest.mark.benchmark(group="distributed")
def test_distributed_telemetry_reconciliation(benchmark, settings, record_result):
    """Worker-shipped telemetry must reconcile exactly with the queue.

    Two ``goggles-repro worker`` processes each keep their own registry
    and ship counter deltas piggybacked on their completion reports; the
    broker merges each frame before applying the completions it rode
    with, so when the run returns, the per-worker
    ``goggles_worker_shards_completed_total`` series must sum to the
    coordinator's completed-shard count — exactly, not approximately.
    """
    model = shared_model(settings)
    dataset = make_dataset("surface", n_per_class=settings.n_per_class, seed=0)
    dev = dataset.sample_dev_set(settings.dev_per_class, seed=0)
    section: dict = {}

    def measure() -> dict:
        section.clear()
        registry = MetricsRegistry()
        start = time.perf_counter()
        coordinator = Coordinator(DistributedConfig(), registry=registry)
        with coordinator, process_workers(coordinator.address, N_WORKERS):
            Goggles(GogglesConfig(n_classes=2, seed=0), model=model, coordinator=coordinator).label(
                dataset.images, dev
            )
            queue_stats = coordinator.queue.stats()
        elapsed = time.perf_counter() - start

        workers = registry.get("goggles_worker_shards_completed_total")
        series = workers.series() if workers is not None else {}
        shipped = int(sum(series.values()))
        completed = int(queue_stats["completed"])
        assert shipped == completed, (
            f"worker-shipped completions ({shipped}) must reconcile exactly with "
            f"the coordinator's completed-shard count ({completed}); series: {series}"
        )

        wait = registry.get("goggles_shard_queue_wait_seconds")
        p99 = 0.0
        if wait is not None:
            for key in wait.raw_series():
                quantile = wait.quantile(0.99, **dict(zip(wait.labelnames, key)))
                if quantile is not None:
                    p99 = max(p99, quantile)
        merged = registry.get("goggles_telemetry_frames_merged_total")
        section.update(
            {
                "n": dataset.n_examples,
                "workers": N_WORKERS,
                "seconds": round(elapsed, 4),
                "shards_completed": completed,
                "worker_shipped_completions": shipped,
                # Per-worker counts, largest first. Worker ids embed host
                # and pid, so keying by them would give every run new keys
                # and fail check_bench.py's coverage rule.
                "worker_series": sorted((int(value) for value in series.values()), reverse=True),
                "reconciled": shipped == completed,
                "telemetry_frames_merged": int(merged.total()) if merged is not None else 0,
                "stragglers": int(queue_stats.get("stragglers", 0)),
                "shard_queue_wait_p99_seconds": round(p99, 4),
            }
        )
        return section

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    update_trajectory(JSON_PATH, "telemetry", measured)

    record_result(
        f"Distributed telemetry reconciliation (N={measured['n']}, "
        f"{measured['workers']} process workers)\n"
        f"  worker-shipped completions {measured['worker_shipped_completions']} "
        f"== queue completed {measured['shards_completed']}: {measured['reconciled']}\n"
        f"  per-worker series: {measured['worker_series']}\n"
        f"  telemetry frames merged: {measured['telemetry_frames_merged']}, "
        f"stragglers: {measured['stragglers']}, "
        f"queue-wait p99: {measured['shard_queue_wait_p99_seconds']:.4f}s\n"
        f"trajectory artifact: {JSON_PATH.name}"
    )

