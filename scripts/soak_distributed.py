#!/usr/bin/env python
"""Distributed soak: a 4-worker cluster under lease-expiry crash injection.

Runs the full labeling pipeline on a coordinator/worker session for
several rounds while a chaos thread repeatedly *steals leases*: it
leases shards from the coordinator's queue under a fake worker identity
and never reports back, so every stolen shard must be recovered by the
queue's deadline machinery (the existing ``lease_timeout`` /
``max_attempts`` knobs — no special test hooks).  Every round asserts
the distributed result is still **bit-identical** to a local reference
run at the library defaults, and the run fails loudly if no lease was
ever reassigned (i.e. the chaos did not actually bite) or if a shard
exhausted its retry budget.

Each round's workers are ``goggles-repro worker`` processes started
through ``tests/local_workers.py``.  All rounds share one
:class:`~repro.obs.MetricsRegistry`, so the telemetry those processes
ship over the wire accumulates across rounds, and so do the queue
counts ``stats()`` reads from it: each round prints its own deltas, and
the totals come from the last round.  The soak asserts the merged per-worker
``goggles_worker_shards_completed_total`` series stay **monotone
non-decreasing** round over round even while chaos steals leases
(lost frames lose their completions too — totals may lag, never
regress), and ``--metrics-dump PATH`` appends each round's merged
registry exposition to a file CI uploads as an artifact.

The scheduled (cron) CI soak job runs 4 workers for 3 rounds, outside
the PR-blocking path, with its log uploaded as an artifact; the tests
job runs a short 2-worker, 2-round pass.  Locally::

    PYTHONPATH=src python scripts/soak_distributed.py --workers 4 --rounds 3
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.core import Goggles, GogglesConfig
from repro.datasets import make_dataset
from repro.distributed import Coordinator, DistributedConfig, PoisonShardError
from repro.nn.vgg import VGG16, VGGConfig
from repro.obs import MetricsRegistry

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from local_workers import process_workers  # noqa: E402


class LeaseThief(threading.Thread):
    """Chaos agent: leases shards under a doomed identity, never reports.

    Every theft forces the shard through the full crash-recovery path —
    the lease expires after ``lease_timeout`` and the queue requeues it
    for a live worker.  Throttled so the retry budget (``max_attempts``)
    is never exhausted by chaos alone, and it never takes the last
    pending shard: an expired lease counts as leased until some
    ``lease()`` call reaps it onto the queue's tail, so with nothing
    else pending the thief's own next call would be granted the same
    shard again, until its budget was gone.
    """

    def __init__(self, coordinator: Coordinator, interval: float):
        super().__init__(name="lease-thief", daemon=True)
        self.coordinator = coordinator
        self.interval = interval
        self.thefts = 0
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()

    def run(self) -> None:
        queue = self.coordinator.queue
        while not self._halt.is_set():
            if queue.stats()["pending"] >= 2 and queue.lease(f"doomed-{self.thefts}") is not None:
                self.thefts += 1
            self._halt.wait(self.interval)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4, help="worker processes per round")
    parser.add_argument("--rounds", type=int, default=3, help="labeling rounds to soak")
    parser.add_argument("--n-per-class", type=int, default=24, help="corpus scale per round")
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=2.0,
        help="seconds before a stolen/stuck lease is reassigned (the knob under test)",
    )
    parser.add_argument(
        "--theft-interval",
        type=float,
        default=1.0,
        help="seconds between lease thefts by the chaos thread",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=6,
        help="retry budget per shard (headroom for chaos-induced expiries)",
    )
    parser.add_argument(
        "--metrics-dump",
        default=None,
        metavar="PATH",
        help="append each round's merged registry (Prometheus text) to this file "
        "(CI uploads it as an artifact)",
    )
    args = parser.parse_args(argv)

    print(
        f"soak: {args.workers} workers, {args.rounds} rounds, "
        f"n_per_class={args.n_per_class}, lease_timeout={args.lease_timeout}s, "
        f"theft every {args.theft_interval}s"
    )
    model = VGG16(VGGConfig(seed=0))
    # One registry across every round: worker-shipped telemetry merges
    # into it cumulatively, so per-worker counters must only ever grow.
    registry = MetricsRegistry()
    previous_worker_totals: dict[tuple[str, ...], float] = {}
    total_thefts = 0
    stats = {"completed": 0, "requeued": 0}
    # A coordinator passed to Goggles runs every stage on its workers.
    config = GogglesConfig(n_classes=2, seed=0)
    for round_index in range(args.rounds):
        dataset = make_dataset("surface", n_per_class=args.n_per_class, seed=round_index)
        dev = dataset.sample_dev_set(5, seed=round_index)
        reference = Goggles(config, model=model).label(dataset.images, dev)

        coordinator = Coordinator(
            DistributedConfig(
                lease_timeout=args.lease_timeout,
                max_attempts=args.max_attempts,
                run_timeout=900.0,
            ),
            registry=registry,
        )
        thief = LeaseThief(coordinator, interval=args.theft_interval)
        start = time.perf_counter()
        with coordinator, process_workers(coordinator.address, args.workers):
            thief.start()
            try:
                distributed = Goggles(config, model=model, coordinator=coordinator).label(
                    dataset.images, dev
                )
            except PoisonShardError as error:
                print(f"FAIL: round {round_index}: {error}")
                return 1
            finally:
                thief.stop()
                thief.join(timeout=10.0)
            elapsed = time.perf_counter() - start
            previous, stats = stats, coordinator.queue.stats()

        affinity_ok = np.array_equal(distributed.affinity.values, reference.affinity.values)
        labels_ok = np.array_equal(distributed.probabilistic_labels, reference.probabilistic_labels)
        total_thefts += thief.thefts
        print(
            f"round {round_index}: {elapsed:.1f}s, "
            f"{stats['completed'] - previous['completed']} shards completed, "
            f"{thief.thefts} leases stolen, {stats['requeued'] - previous['requeued']} requeued, "
            f"{stats['poisoned']} poisoned — affinity bit-identical: {affinity_ok}, "
            f"labels bit-identical: {labels_ok}"
        )
        if not (affinity_ok and labels_ok):
            print("FAIL: distributed result diverged from the local run under crash injection")
            return 1
        if stats["poisoned"]:
            print("FAIL: chaos exhausted a shard's retry budget (tune knobs)")
            return 1

        if args.metrics_dump:
            with open(args.metrics_dump, "a", encoding="utf-8") as dump:
                dump.write(f"# soak round {round_index}\n{registry.render()}\n")
        workers = registry.get("goggles_worker_shards_completed_total")
        worker_totals = dict(workers.series()) if workers is not None else {}
        for key, value in previous_worker_totals.items():
            if worker_totals.get(key, 0.0) < value:
                print(
                    f"FAIL: worker-shipped counter regressed for {key}: "
                    f"{value} -> {worker_totals.get(key, 0.0)} (counters must be "
                    "monotone across rounds even under chaos)"
                )
                return 1
        shipped = int(sum(worker_totals.values()))
        print(
            f"round {round_index}: merged worker-shipped completions now {shipped} "
            f"across {len(worker_totals)} worker series (monotone ok)"
        )
        previous_worker_totals = worker_totals

    total_requeued = stats["requeued"]
    if total_thefts == 0 or total_requeued == 0:
        print(
            f"FAIL: chaos never bit (thefts={total_thefts}, requeued={total_requeued}) "
            "— the soak exercised nothing; lower --theft-interval"
        )
        return 1
    print(
        f"soak passed: {args.rounds} rounds bit-identical under {total_thefts} stolen "
        f"leases ({total_requeued} deadline-recovered requeues)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
