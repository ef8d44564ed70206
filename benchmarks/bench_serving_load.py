"""Serving load test: open-loop HTTP workload against the labeling service.

A stdlib-only workload generator hammers a real ``serve_http`` front-end
the way a fleet of stochastic users would: arrivals are open-loop
Poisson (exponential inter-arrival at a configured offered rate, drawn
independently of completions, so the generator keeps offering load even
while the service falls behind), each arrival runs one submit →
poll-until-resolved session on its own thread, and every cell of the
sweep — back-pressure bound × submit batch size × batch-vs-online
mode — gets a fresh service wired to a fresh metrics registry.

Each cell records client-observed percentiles (p50/p95/p99 of the 202
submit round-trip and of submit→resolved end-to-end latency), the shed
rate at that offered load, and a ``reconciled`` flag asserting the
scraped ``/metrics`` counters agree exactly with what the clients saw:
202s with ``goggles_http_requests_total{route="/v1/tenants/{id}/submit",status="202"}``
and ``goggles_service_submits_total``, 429s with
``goggles_http_shed_total`` and ``goggles_service_shed_total``.  Rows
merge into the repo-root ``BENCH_serving.json`` trajectory
(``load`` + ``summary`` sections here, ``smoke`` from the CI matrix's
short run), which ``scripts/check_bench.py`` gates on p99 growth and
shed-rate increase.

Scale knobs (environment):

* ``REPRO_BENCH_LOAD_SECONDS`` — offered-load window per cell (default 5)
* ``REPRO_BENCH_LOAD_RPS``     — offered arrivals per second (default 3)
* ``REPRO_BENCH_LOAD_N``       — seed-corpus images per class (default 12)
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from bench_distributed import update_trajectory

from repro.core import GogglesConfig
from repro.datasets import make_dataset
from repro.datasets.base import DevSet
from repro.eval.harness import shared_model
from repro.obs import MetricsRegistry
from repro.online import OnlineConfig
from repro.serving import TenantConfig, TenantRegistry, serve_http
from repro.utils.rng import derive_seed

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"
METRICS_DUMP_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving_metrics.prom"

LOAD_SECONDS = float(os.environ.get("REPRO_BENCH_LOAD_SECONDS", "5"))
OFFERED_RPS = float(os.environ.get("REPRO_BENCH_LOAD_RPS", "3"))
N_PER_CLASS = int(os.environ.get("REPRO_BENCH_LOAD_N", "12"))
RESOLVE_TIMEOUT = 120.0
POLL_INTERVAL = 0.02

#: The sweep: back-pressure bound (pixels; None = never shed) ×
#: rows per submission × service mode.  ``tight`` is sized in units of
#: one submission so shedding actually engages under backlog.
SWEEP = (
    {"mode": "batch", "bound_batches": None, "batch_rows": 1},
    {"mode": "batch", "bound_batches": None, "batch_rows": 4},
    {"mode": "batch", "bound_batches": 2, "batch_rows": 1},
    {"mode": "batch", "bound_batches": 2, "batch_rows": 4},
    {"mode": "online", "bound_batches": None, "batch_rows": 1},
    {"mode": "online", "bound_batches": None, "batch_rows": 4},
    {"mode": "online", "bound_batches": 2, "batch_rows": 1},
    {"mode": "online", "bound_batches": 2, "batch_rows": 4},
)


def percentile(sorted_values: list[float], q: float) -> float | None:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return None
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def _dev_from_seed(labels: np.ndarray, n0: int, per_class: int, n_classes: int) -> DevSet:
    """A dev set drawn from the seed prefix only, indices sorted."""
    rng = np.random.default_rng(derive_seed(0, "bench-serving-dev"))
    chosen: list[int] = []
    for c in range(n_classes):
        pool = np.flatnonzero(labels[:n0] == c)
        assert pool.size >= per_class, f"seed corpus holds too few images of class {c}"
        chosen.extend(rng.choice(pool, size=per_class, replace=False).tolist())
    indices = np.array(sorted(chosen))
    return DevSet(indices=indices, labels=labels[indices])


class _Session:
    """One user's submit → poll-until-resolved interaction."""

    __slots__ = ("outcome", "submit_seconds", "e2e_seconds")

    def __init__(self):
        self.outcome = "error"
        self.submit_seconds: float | None = None
        self.e2e_seconds: float | None = None


def _run_session(url: str, body: bytes, session: _Session, tenant: str = "default") -> None:
    request = urllib.request.Request(
        f"{url}/v1/tenants/{tenant}/submit", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    started = time.perf_counter()
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            payload = json.loads(response.read())
    except urllib.error.HTTPError as error:
        error.read()
        session.submit_seconds = time.perf_counter() - started
        session.outcome = "shed" if error.code == 429 else "error"
        return
    except OSError:
        return
    session.submit_seconds = time.perf_counter() - started
    ticket = payload["ticket"]
    poll_url = f"{url}/v1/tenants/{tenant}/poll/{ticket}"
    deadline = time.monotonic() + RESOLVE_TIMEOUT
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(poll_url, timeout=30.0) as response:
                status = json.loads(response.read())
        except OSError:
            return
        if status["state"] != "pending":
            session.e2e_seconds = time.perf_counter() - started
            session.outcome = "done" if status["state"] == "done" else "error"
            return
        time.sleep(POLL_INTERVAL)


def _scrape(url: str) -> dict[str, float]:
    """Parse a ``/metrics`` exposition into ``{name{labels}: value}``."""
    with urllib.request.urlopen(f"{url}/metrics", timeout=30.0) as response:
        text = response.read().decode("utf-8")
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


def _drive_cell(
    url: str,
    images: np.ndarray,
    batch_rows: int,
    seconds: float,
    rps: float,
    seed: int,
    tenant: str = "default",
) -> list[_Session]:
    """Offer open-loop Poisson load for ``seconds``; join every session."""
    rng = random.Random(seed)
    pool = images.shape[0]
    sessions: list[_Session] = []
    threads: list[threading.Thread] = []
    deadline = time.monotonic() + seconds
    next_arrival = time.monotonic()
    while True:
        next_arrival += rng.expovariate(rps)
        if next_arrival > deadline:
            break
        delay = next_arrival - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        start = rng.randrange(max(1, pool - batch_rows))
        body = json.dumps({"images": images[start : start + batch_rows].tolist()}).encode()
        session = _Session()
        sessions.append(session)
        thread = threading.Thread(
            target=_run_session, args=(url, body, session, tenant), daemon=True
        )
        threads.append(thread)
        thread.start()
    for thread in threads:
        thread.join(timeout=RESOLVE_TIMEOUT)
    return sessions


def _cell_row(
    cell: dict,
    sessions: list[_Session],
    registry: MetricsRegistry,
    url: str,
    tenant: str = "default",
) -> dict:
    """Client percentiles + shed rate + metrics reconciliation for one cell."""
    done = [s for s in sessions if s.outcome == "done"]
    shed = [s for s in sessions if s.outcome == "shed"]
    submits = sorted(s.submit_seconds for s in sessions if s.submit_seconds is not None)
    e2e = sorted(s.e2e_seconds for s in done if s.e2e_seconds is not None)

    # Post-reply counter updates race the last client read by a hair;
    # wait for the registry to go quiescent before reconciling.
    expected_202 = float(len(done))
    route = "/v1/tenants/{id}/submit"
    http_submits = registry.get("goggles_http_requests_total")
    quiesce = time.monotonic() + 5.0
    while (
        http_submits.value(route=route, status="202", tenant=tenant) < expected_202
        and time.monotonic() < quiesce
    ):
        time.sleep(0.02)

    samples = _scrape(url)
    scraped_202 = samples.get(
        f'goggles_http_requests_total{{route="{route}",status="202",tenant="{tenant}"}}', 0.0
    )
    scraped_shed = samples.get(f'goggles_http_shed_total{{tenant="{tenant}"}}', 0.0)
    service_submits = samples.get(f'goggles_service_submits_total{{tenant="{tenant}"}}', 0.0)
    service_shed = samples.get(f'goggles_service_shed_total{{tenant="{tenant}"}}', 0.0)
    reconciled = (
        scraped_202 == len(done)
        and service_submits == len(done)
        and scraped_shed == len(shed)
        and service_shed == len(shed)
    )
    return {
        "mode": cell["mode"],
        "batch_rows": cell["batch_rows"],
        "max_queued_pixels": cell["_bound"],
        "offered_rps": OFFERED_RPS,
        "offered": len(sessions),
        "accepted": len(done),
        "shed": len(shed),
        "errors": len(sessions) - len(done) - len(shed),
        "shed_rate": (len(shed) / len(sessions)) if sessions else 0.0,
        "submit_p50_seconds": percentile(submits, 0.50),
        "submit_p95_seconds": percentile(submits, 0.95),
        "submit_p99_seconds": percentile(submits, 0.99),
        "e2e_p50_seconds": percentile(e2e, 0.50),
        "e2e_p95_seconds": percentile(e2e, 0.95),
        "e2e_p99_seconds": percentile(e2e, 0.99),
        "reconciled": reconciled,
    }


def _serving_corpus(settings):
    """Seed corpus + dev set + arrival pool, shared across cells."""
    model = shared_model(settings)
    dataset = make_dataset("surface", n_per_class=N_PER_CLASS, image_size=64, seed=1)
    n = dataset.n_examples
    n0 = n - max(4, n // 4)
    dev = _dev_from_seed(dataset.labels, n0, 3, 2)
    return model, dataset, n0, dev


def _start_cell(cell: dict, serving_corpus, tmp_path) -> tuple:
    """Fresh tenant ``default`` + HTTP server + isolated registry for one cell."""
    model, dataset, n0, dev = serving_corpus
    registry = MetricsRegistry()
    config = GogglesConfig(
        n_classes=2, seed=0, top_z=3, layers=(1, 2),
        cache_dir=str(tmp_path / "cache"),
    )
    if cell["mode"] == "online":
        config = GogglesConfig(
            n_classes=2, seed=0, top_z=3, layers=(1, 2),
            cache_dir=str(tmp_path / "cache"),
            online=OnlineConfig(drift_threshold=100.0, refit_every=0),
        )
    pixel_cost = int(np.prod(dataset.images[:1].shape)) * cell["batch_rows"]
    bound = None if cell["bound_batches"] is None else cell["bound_batches"] * pixel_cost
    cell = dict(cell, _bound=bound)
    tenants = TenantRegistry(base_config=config, model=model, metrics=registry)
    tenants.register(
        "default", dataset.images[:n0], dev,
        TenantConfig(mode=cell["mode"], max_queued_pixels=bound),
    )
    server = serve_http(tenants)
    return cell, tenants, server, registry


@pytest.mark.benchmark(group="serving")
def test_serving_load_sweep(settings, record_result, tmp_path_factory):
    """The full sweep: every cell's percentiles + shed rate + reconciliation."""
    corpus = _serving_corpus(settings)
    tmp_path = tmp_path_factory.mktemp("serving-load")
    rows: list[dict] = []
    for index, cell in enumerate(SWEEP):
        cell, tenants, server, registry = _start_cell(cell, corpus, tmp_path)
        try:
            sessions = _drive_cell(
                server.url, corpus[1].images[corpus[2]:], cell["batch_rows"],
                LOAD_SECONDS, OFFERED_RPS, seed=1000 + index,
            )
            rows.append(_cell_row(cell, sessions, registry, server.url))
        finally:
            server.shutdown()
            tenants.close()
    assert rows, "sweep produced no cells"
    # Every accepted submission resolved and every counter reconciled.
    assert all(row["errors"] == 0 for row in rows), rows
    assert all(row["reconciled"] for row in rows), rows
    # Unbounded cells never shed; bounded cells may.
    for row in rows:
        if row["max_queued_pixels"] is None:
            assert row["shed"] == 0, row

    summary = {
        "cells": len(rows),
        "total_offered": sum(row["offered"] for row in rows),
        "total_accepted": sum(row["accepted"] for row in rows),
        "total_shed": sum(row["shed"] for row in rows),
        "worst_e2e_p99_seconds": max(
            (row["e2e_p99_seconds"] for row in rows if row["e2e_p99_seconds"] is not None),
            default=None,
        ),
        "all_reconciled": all(row["reconciled"] for row in rows),
    }
    update_trajectory(JSON_PATH, "load", rows)
    update_trajectory(JSON_PATH, "summary", summary)

    lines = ["Serving load sweep (open-loop Poisson @ %.1f rps, %.0fs/cell)" % (OFFERED_RPS, LOAD_SECONDS)]
    header = f"{'mode':>7} {'rows':>4} {'bound':>9} {'off':>4} {'acc':>4} {'shed':>5} {'p50':>7} {'p99':>7}"
    lines.append(header)
    for row in rows:
        lines.append(
            f"{row['mode']:>7} {row['batch_rows']:>4} "
            f"{str(row['max_queued_pixels']):>9} {row['offered']:>4} {row['accepted']:>4} "
            f"{row['shed_rate']:>5.2f} "
            f"{row['e2e_p50_seconds'] if row['e2e_p50_seconds'] is not None else float('nan'):>7.3f} "
            f"{row['e2e_p99_seconds'] if row['e2e_p99_seconds'] is not None else float('nan'):>7.3f}"
        )
    record_result("\n".join(lines))


@pytest.mark.benchmark(group="serving")
def test_serving_load_tenants(settings, record_result, tmp_path_factory):
    """Two tenants with different label spaces driven concurrently
    through the ``/v1`` API: per-tenant percentiles, shed rate, and a
    per-tenant metrics reconciliation (one registry, labeled series).
    Both tenants are unbounded, so the committed ``shed_rate`` baseline
    is 0.0 and any cross-tenant shedding regression trips the gate."""
    model, surface, n0, surface_dev = _serving_corpus(settings)
    cub = make_dataset("cub", n_per_class=N_PER_CLASS, image_size=64, seed=1, pair_seed=0)
    cub_n0 = cub.n_examples - max(4, cub.n_examples // 4)
    cub_dev = _dev_from_seed(cub.labels, cub_n0, 3, 2)
    tmp_path = tmp_path_factory.mktemp("serving-tenants")
    metrics = MetricsRegistry()
    config = GogglesConfig(
        n_classes=2, seed=0, top_z=3, layers=(1, 2), cache_dir=str(tmp_path / "cache")
    )
    tenants = TenantRegistry(base_config=config, model=model, metrics=metrics)
    tenants.register("surface", surface.images[:n0], surface_dev)
    tenants.register("cub", cub.images[:cub_n0], cub_dev)
    server = serve_http(tenants, registry=metrics)
    pools = {"surface": surface.images[n0:], "cub": cub.images[cub_n0:]}
    sessions: dict[str, list[_Session]] = {}
    rows: list[dict] = []
    try:
        drivers = [
            threading.Thread(
                target=lambda t=tenant, s=seed: sessions.__setitem__(
                    t,
                    _drive_cell(
                        server.url, pools[t], 1, min(LOAD_SECONDS, 3.0),
                        OFFERED_RPS, seed=s, tenant=t,
                    ),
                ),
                daemon=True,
            )
            for seed, tenant in enumerate(("surface", "cub"), start=2000)
        ]
        for driver in drivers:
            driver.start()
        for driver in drivers:
            driver.join(timeout=RESOLVE_TIMEOUT)
        for tenant in ("surface", "cub"):
            cell = {"mode": "batch", "batch_rows": 1, "_bound": None}
            row = _cell_row(cell, sessions[tenant], metrics, server.url, tenant=tenant)
            rows.append({"tenant": tenant, **row})
    finally:
        server.shutdown()
        tenants.close()
    assert all(row["errors"] == 0 for row in rows), rows
    assert all(row["shed"] == 0 for row in rows), rows
    assert all(row["reconciled"] for row in rows), rows
    update_trajectory(JSON_PATH, "tenants", rows)
    record_result(
        "Serving 2-tenant cell: "
        + "; ".join(
            "%s %d offered, %d accepted, e2e p99 %s s"
            % (row["tenant"], row["offered"], row["accepted"], row["e2e_p99_seconds"])
            for row in rows
        )
    )


@pytest.mark.benchmark(group="serving")
def test_serving_load_smoke(settings, record_result, tmp_path_factory):
    """One short cell for the CI test matrix: merges a ``smoke`` section
    and dumps the scraped metrics for artifact upload."""
    corpus = _serving_corpus(settings)
    tmp_path = tmp_path_factory.mktemp("serving-smoke")
    cell, tenants, server, registry = _start_cell(
        {"mode": "batch", "bound_batches": None, "batch_rows": 1}, corpus, tmp_path
    )
    try:
        sessions = _drive_cell(
            server.url, corpus[1].images[corpus[2]:], 1,
            min(LOAD_SECONDS, 3.0), OFFERED_RPS, seed=7,
        )
        row = _cell_row(cell, sessions, registry, server.url)
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=30.0) as response:
            METRICS_DUMP_PATH.write_text(response.read().decode("utf-8"))
    finally:
        server.shutdown()
        tenants.close()
    assert row["errors"] == 0, row
    assert row["shed"] == 0, row
    assert row["reconciled"], row
    update_trajectory(JSON_PATH, "smoke", [row])
    record_result(
        "Serving smoke: %d offered, %d accepted, e2e p99 %s s (metrics dump: %s)"
        % (row["offered"], row["accepted"], row["e2e_p99_seconds"], METRICS_DUMP_PATH.name)
    )
