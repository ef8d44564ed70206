"""Command-line interface: run any paper experiment from the shell.

Examples::

    goggles-repro label --dataset cub --n-per-class 40
    goggles-repro table1 --seeds 3
    goggles-repro fig8 --dataset surface
    goggles-repro serve --http-port 8080 --max-queued-pixels 2000000

Every other command runs on this machine's ``--n-jobs`` threads.  The
one distributed form takes two commands: terminal 1 runs the
coordinator, which shards feature extraction, affinity tiles and base
fits over its task queue, and terminal 2+ run workers — on this machine
or any other that can reach the broker::

    goggles-repro coordinator --dataset surface --bind 127.0.0.1:41817
    goggles-repro worker --connect 127.0.0.1:41817
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from repro.core import Goggles, GogglesConfig
from repro.datasets import DATASET_NAMES, make_dataset
from repro.engine import ArtifactCache
from repro.eval.harness import (
    ExperimentSettings,
    run_fig2,
    run_fig7,
    run_fig8,
    run_fig9,
    run_table1,
    run_table2,
)
from repro.eval.paper import TABLE1_METHODS, TABLE1_PAPER, TABLE2_METHODS, TABLE2_PAPER
from repro.eval.tables import format_comparison_table, format_curve
from repro.nn import VGG16
from repro.obs import default_registry, filter_exposition
from repro.serving import TenantConfig, TenantRegistry, serve_http
from repro.utils.rng import derive_seed
from repro.utils.threads import usable_cores

__all__ = ["main"]


def _batch_size(args: argparse.Namespace) -> int | None:
    return None if args.batch_size == 0 else args.batch_size


def _settings(args: argparse.Namespace) -> ExperimentSettings:
    return ExperimentSettings(
        n_per_class=args.n_per_class,
        n_seeds=args.seeds,
        dev_per_class=args.dev_per_class,
        seed=args.seed,
        n_jobs=args.n_jobs,
        batch_size=_batch_size(args),
        precision=args.precision,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
        affinity_mode=args.affinity_mode,
        top_k=args.top_k,
        memmap=args.memmap,
    )


def _goggles_config(args: argparse.Namespace, n_classes: int, keep_corpus_state: bool) -> GogglesConfig:
    """The pipeline config implied by the global CLI flags."""
    return _settings(args).goggles_config(
        n_classes=n_classes, seed=args.seed, keep_corpus_state=keep_corpus_state
    )


def _cmd_label(args: argparse.Namespace) -> int:
    dataset = make_dataset(args.dataset, n_per_class=args.n_per_class, seed=args.seed)
    dev = dataset.sample_dev_set(args.dev_per_class, seed=args.seed)
    # One-shot command: retaining the corpus state only pays off when a
    # cache directory persists it for a later incremental/serve run.
    keep_state = args.cache_dir is not None and not args.no_keep_corpus_state
    goggles = Goggles(_goggles_config(args, dataset.n_classes, keep_corpus_state=keep_state))
    before = None if goggles.engine.cache is None else _cache_counts()
    result = goggles.label(dataset.images, dev)
    accuracy = result.accuracy(dataset.labels, exclude=dev.indices)
    print(f"dataset: {dataset.name}")
    print(f"instances: {dataset.n_examples} (dev {dev.size})")
    print(f"labeling accuracy (dev excluded): {100 * accuracy:.2f}%")
    if before is not None:
        hits, misses, evictions = (now - then for now, then in zip(_cache_counts(), before))
        print(f"engine cache: {hits} hits, {misses} misses, {evictions} evictions")
    return 0


def _cache_counts() -> list[int]:
    """The artifact-cache hits, misses and evictions this process has counted."""
    registry = default_registry()
    names = ("hits", "misses", "evictions")
    return [int(registry.get(f"goggles_cache_{name}_total").total()) for name in names]


def _cmd_serve(args: argparse.Namespace) -> int:
    """Streaming demo: register the seed corpus as one tenant, then stream.

    Simulates a live deployment: the initial fraction of the dataset is
    labeled up front as the seed corpus of tenant ``--tenant``, then the
    rest arrives in ``--stream-batch``-sized batches through
    ``submit``/``result``, each an incremental (warm-started by default)
    run instead of a rebuild.  With ``--http-port`` the tenant is served
    over the ``/v1`` API until Ctrl-C instead; it can be evicted and
    transparently reloaded like any tenant that joins over
    ``POST /v1/tenants``.
    """
    dataset = make_dataset(args.dataset, n_per_class=args.n_per_class, seed=args.seed)
    n = dataset.n_examples
    k = dataset.n_classes
    n0 = max(k * args.dev_per_class, int(n * args.initial_fraction))
    if n0 >= n:
        raise SystemExit("initial fraction leaves no images to stream; lower --initial-fraction")

    # Dev set drawn from the seed corpus only (indices must stay valid
    # as the corpus grows, and arrivals append after existing rows).
    rng = np.random.default_rng(derive_seed(args.seed, "serve-dev"))
    indices = []
    for c in range(k):
        pool = np.flatnonzero(dataset.labels[:n0] == c)
        if pool.size < args.dev_per_class:
            raise SystemExit(f"seed corpus holds only {pool.size} images of class {c}")
        indices.extend(rng.choice(pool, size=args.dev_per_class, replace=False).tolist())
    from repro.datasets.base import DevSet

    dev = DevSet(indices=np.array(sorted(indices)), labels=dataset.labels[np.array(sorted(indices))])

    config = _goggles_config(args, k, keep_corpus_state=True)
    mode = "batch"
    if args.online:
        from repro.online import OnlineConfig

        mode = "online"
        config = replace(
            config,
            online=OnlineConfig(
                drift_threshold=args.drift_threshold,
                refit_every=args.refit_every,
            ),
        )
    # Further tenants joining over POST /v1/tenants inherit the CLI's
    # engine flags through base_config.
    tenants = TenantRegistry(base_config=config, model=VGG16(config.vgg))
    tenant_config = TenantConfig(
        mode=mode,
        max_queued_pixels=args.max_queued_pixels,
        warm_start=not args.no_warm_start,
        online=config.online,
    )
    with tenants:
        start = time.perf_counter()
        service = tenants.register(args.tenant, dataset.images[:n0], dev, tenant_config).service
        print(f"seed corpus: {n0} images labeled in {time.perf_counter() - start:.2f}s")
        if service.online_stats is not None:
            resumed = "resumed from cached online state" if service.session.resumed else "fresh online state"
            print(f"online mode: {resumed} (step {service.online_stats['step']})")

        if args.http_port is not None:
            server = serve_http(tenants, host=args.http_host, port=args.http_port)
            print(
                f"HTTP front-end on {server.url} serving tenant {args.tenant!r}  "
                "(POST /v1/tenants, POST /v1/tenants/<id>/submit, "
                "GET /v1/tenants/<id>/poll/<ticket>, GET /healthz, GET /metrics)"
            )
            print("Ctrl-C to stop")
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                pass
            finally:
                server.shutdown()
                server.server_close()
            return 0

        correct = 0
        streamed = 0
        position = n0
        while position < n:
            end = min(position + args.stream_batch, n)
            batch_start = time.perf_counter()
            ticket = tenants.submit(args.tenant, dataset.images[position:end])
            status = tenants.result(args.tenant, ticket, timeout=600.0)
            latency = time.perf_counter() - batch_start
            if status.state != "done":
                raise SystemExit(f"ticket {ticket} failed: {status.error}")
            truth = dataset.labels[position:end]
            hits = int((status.predictions == truth).sum())
            correct += hits
            streamed += end - position
            print(
                f"  {ticket}: {end - position} images in {latency:.2f}s "
                f"({hits}/{end - position} correct)"
            )
            position = end
        accuracy = 100 * correct / max(streamed, 1)
        print(f"streamed: {streamed} images in {service.n_batches} incremental runs")
        print(f"streaming accuracy: {accuracy:.2f}%  (corpus now {service.corpus_size} images)")
        stats = service.online_stats
        if stats is not None:
            print(
                f"online session: {stats['step']} absorb steps, {stats['refits']} refit(s), "
                f"drift {stats['drift']:.4f} nats (threshold {stats['drift_threshold']:g})"
            )
    return 0


def _cmd_coordinator(args: argparse.Namespace) -> int:
    """Run a labeling job as the cluster coordinator.

    Binds the broker, then shards feature extraction, affinity tiles and
    base fits over whichever workers connect; the job waits for them.
    Workers join with ``goggles-repro worker --connect HOST:PORT``.
    """
    from repro.distributed import Coordinator, DistributedConfig

    dataset = make_dataset(args.dataset, n_per_class=args.n_per_class, seed=args.seed)
    dev = dataset.sample_dev_set(args.dev_per_class, seed=args.seed)
    coordinator = Coordinator(
        DistributedConfig(
            bind=args.bind,
            authkey=args.authkey,
            lease_timeout=args.lease_timeout,
            max_attempts=args.max_attempts,
            lease_target_seconds=args.lease_target_seconds,
        )
    )
    config = _goggles_config(args, dataset.n_classes, keep_corpus_state=False)
    with coordinator:
        goggles = Goggles(config, coordinator=coordinator)
        host, port = coordinator.address
        # Flushed, so a script piping the output sees where to point its
        # workers before the job blocks on them.
        print(f"coordinator listening on {host}:{port}", flush=True)
        start = time.perf_counter()
        result = goggles.label(dataset.images, dev)
        elapsed = time.perf_counter() - start
        accuracy = result.accuracy(dataset.labels, exclude=dev.indices)
        queue_stats = coordinator.queue.stats()
        planned = coordinator.registry.get("goggles_coordinator_shards_planned_total")
        cache_hits = coordinator.registry.get("goggles_coordinator_shard_cache_hits_total")
        print(f"dataset: {dataset.name} ({dataset.n_examples} instances, dev {dev.size})")
        print(f"labeling accuracy (dev excluded): {100 * accuracy:.2f}%  in {elapsed:.2f}s")
        print(
            f"shards: {int(planned.total())} planned, "
            f"{queue_stats['completed']} completed, {queue_stats['requeued']} requeued, "
            f"{int(cache_hits.total())} cache hits"
        )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Serve shards to a coordinator until it goes away."""
    from repro.distributed import Worker, parse_address, require_safe_authkey

    host, port = parse_address(args.connect)
    # Shard payloads are unpickled: never trust a routable coordinator
    # that is "authenticated" only by the public built-in key.
    require_safe_authkey(host, args.authkey)
    cache = ArtifactCache(args.cache_dir, max_bytes=args.cache_max_bytes) if args.cache_dir else None
    worker = Worker(
        (host, port), args.authkey, cache=cache,
        stream_threshold=args.stream_threshold, lease_batch=args.lease_batch,
        # This process' registry is out of the coordinator's reach, so
        # its counts and spans ride the reports back for merging.
        ship_telemetry=True,
    )
    print(f"worker {worker.worker_id} polling {args.connect}")
    worker.run()
    completed = worker.registry.get("goggles_worker_shards_completed_total")
    failed = worker.registry.get("goggles_worker_shards_failed_total")
    print(
        f"worker exiting (coordinator gone): {int(completed.value(worker=worker.worker_id))} "
        f"shard(s) computed, {int(failed.value(worker=worker.worker_id))} failed"
    )
    return 0


def _cmd_cache_info(args: argparse.Namespace) -> int:
    """Inspect a shared artifact-cache directory."""
    if args.cache_dir is None:
        raise SystemExit("cache-info needs --cache-dir")
    if not os.path.isdir(args.cache_dir):
        # Building the cache would create the directory it was asked to inspect.
        raise SystemExit(f"cache-info: no cache directory at {args.cache_dir}")
    cache = ArtifactCache(args.cache_dir, max_bytes=args.cache_max_bytes)
    kinds: dict[str, tuple[int, int]] = {}
    for name in sorted(os.listdir(cache.cache_dir)):
        # .npz bundles (affinity, affinity-csr, state, inference, ...)
        # plus the raw .npy memmap blocks of the sparse path.
        if not name.endswith((".npz", ".npy")):
            continue
        kind = name.rsplit("-", 1)[0]
        size = os.path.getsize(os.path.join(cache.cache_dir, name))
        count, total = kinds.get(kind, (0, 0))
        kinds[kind] = (count + 1, total + size)
    print(f"cache dir: {cache.cache_dir}")
    for kind, (count, total) in sorted(kinds.items()):
        print(f"  {kind:>10}: {count} entries, {total} bytes")
    print(f"total: {sum(c for c, _ in kinds.values())} entries, {cache.total_bytes()} bytes"
          + (f" (budget {cache.max_bytes})" if cache.max_bytes is not None else " (unbounded)"))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Dump metrics in Prometheus text format.

    With ``--url`` the dump is scraped from a running server's
    ``/metrics`` route; without, it renders this process's registry
    (useful after an in-process run, or to check instrument wiring).
    ``--tenant`` keeps only that tenant's series either way.
    """
    if args.url:
        import urllib.parse
        import urllib.request

        url = args.url.rstrip("/") + "/metrics"
        if args.tenant:
            url += "?tenant=" + urllib.parse.quote(args.tenant)
        try:
            with urllib.request.urlopen(url, timeout=args.timeout) as response:
                sys.stdout.write(response.read().decode("utf-8"))
        except OSError as error:  # URLError/HTTPError/timeout/refused all land here
            print(f"error: cannot scrape {url}: {error}", file=sys.stderr)
            return 1
        return 0
    text = default_registry().render()
    if args.tenant:
        text = filter_exposition(text, tenant=args.tenant)
    sys.stdout.write(text)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render the cross-process span timeline of one trace id.

    With ``--url`` the spans come from a running server's
    ``GET /v1/traces/<id>``; without, from this process's span ring —
    which, after a distributed run, already holds the worker-side spans
    the telemetry merger re-recorded.  Exits non-zero when the trace is
    unknown (spans may also have aged out of the bounded ring).
    """
    if args.url:
        import urllib.error
        import urllib.parse
        import urllib.request

        url = args.url.rstrip("/") + "/v1/traces/" + urllib.parse.quote(args.trace_id)
        try:
            with urllib.request.urlopen(url, timeout=args.timeout) as response:
                spans = json.loads(response.read())["spans"]
        except urllib.error.HTTPError as error:
            if error.code == 404:
                print(f"error: no spans recorded for trace {args.trace_id!r}", file=sys.stderr)
            else:
                print(f"error: cannot fetch {url}: {error}", file=sys.stderr)
            return 1
        except OSError as error:
            print(f"error: cannot fetch {url}: {error}", file=sys.stderr)
            return 1
    else:
        from repro.obs import recent_spans

        records = sorted(recent_spans(trace_id=args.trace_id), key=lambda r: r.started_at)
        if not records:
            print(
                f"error: no spans recorded for trace {args.trace_id!r} "
                "(wrong id, or the spans aged out of the ring)",
                file=sys.stderr,
            )
            return 1
        base = records[0].started_at
        spans = [
            {
                "name": record.name,
                "worker": record.worker,
                "seconds": record.seconds,
                "outcome": record.outcome,
                "offset_seconds": max(record.started_at - base, 0.0),
            }
            for record in records
        ]
    print(f"trace {args.trace_id}: {len(spans)} span(s)")
    print(f"{'offset':>10} {'duration':>10} {'location':<16} {'span':<28} outcome")
    for entry in spans:
        location = entry.get("worker") or "local"
        print(
            f"{entry['offset_seconds']:>9.3f}s {entry['seconds']:>9.3f}s "
            f"{location:<16} {entry['name']:<28} {entry['outcome']}"
        )
    return 0


def _cmd_tenants(args: argparse.Namespace) -> int:
    """List — or evict / remove — the tenants of a running server.

    ``goggles-repro tenants --url http://host:port`` prints one row per
    tenant from ``GET /v1/tenants``; ``--evict ID`` drains it via
    ``DELETE /v1/tenants/ID`` (its next submit reloads it; add
    ``--forget`` to drop the registration too).
    """
    import urllib.parse
    import urllib.request

    base = args.url.rstrip("/")
    if args.evict is not None:
        url = f"{base}/v1/tenants/{urllib.parse.quote(args.evict)}"
        if args.forget:
            url += "?forget=true"
        request = urllib.request.Request(url, method="DELETE")
        with urllib.request.urlopen(request, timeout=args.timeout) as response:
            payload = json.loads(response.read())
        print(f"tenant {payload['tenant']}: {payload['state']}")
        return 0
    if args.forget:
        raise SystemExit("--forget needs --evict ID")
    with urllib.request.urlopen(f"{base}/v1/tenants", timeout=args.timeout) as response:
        rows = json.loads(response.read())["tenants"]
    if not rows:
        print("no tenants registered")
        return 0
    print(f"{'tenant':<20} {'state':<8} {'mode':<7} {'queued_px':>10} {'resident_mb':>12}")
    for row in rows:
        print(
            f"{row['id']:<20} {row['state']:<8} {row['mode']:<7} "
            f"{row.get('queued_pixels', '-'):>10} "
            f"{row['resident_bytes'] / 1e6:>12.1f}"
        )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    table = run_table1(_settings(args))
    print(format_comparison_table(table, TABLE1_PAPER, TABLE1_METHODS, "Table 1: labeling accuracy (%)"))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    table = run_table2(_settings(args))
    print(format_comparison_table(table, TABLE2_PAPER, TABLE2_METHODS, "Table 2: end-model accuracy (%)"))
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    result = run_fig2(_settings(args), dataset_name=args.dataset)
    print(f"Figure 2 analogue on {args.dataset}: per-function separation (AUC)")
    for name in ("best", "median", "worst"):
        stat = result[name]
        print(
            f"  {name:>6}: f{stat.function_index:02d}  AUC={stat.auc:.3f}  "
            f"same={stat.same_mean:.3f}  diff={stat.diff_mean:.3f}"
        )
    print(f"  functions with AUC > 0.6: {result['n_discriminative']} / {len(result['all'])}")
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    curves = run_fig7()
    for eta, values in curves.items():
        points = {d + 1: v for d, v in enumerate(values)}
        print(format_curve(points, f"Figure 7: P(correct mapping) bound, eta={eta}", "d/class", "P"))
        print()
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    curve = run_fig8(_settings(args), args.dataset)
    print(format_curve(curve, f"Figure 8: accuracy vs dev-set size ({args.dataset})", "dev size", "acc %"))
    return 0


def _cmd_fig9(args: argparse.Namespace) -> int:
    curve = run_fig9(_settings(args), args.dataset)
    title = f"Figure 9: accuracy vs #affinity functions ({args.dataset})"
    print(format_curve(curve, title, "alpha", "acc %"))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="goggles-repro", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-per-class", type=int, default=40)
    parser.add_argument("--dev-per-class", type=int, default=5)
    parser.add_argument("--seeds", type=int, default=3, help="runs averaged per experiment cell")
    parser.add_argument(
        "--n-jobs", type=int, default=usable_cores(),
        help="threads for backbone chunks, affinity tiles and base-model fits; above 1, BLAS "
             "runs on one thread (default: usable cores, %(default)s here)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=32,
        help="images per backbone forward pass (0 = whole corpus)",
    )
    parser.add_argument(
        "--precision", choices=("float64", "float32"), default="float32",
        help="engine compute precision (default float32: >=99%% posterior agreement and "
        "exact labels vs float64; float64 is the exact path)",
    )
    parser.add_argument(
        "--affinity-mode", choices=("dense", "sparse"), default="dense",
        help="dense (bit-identity discipline) or sparse top-k affinity "
        "(>=99%% posterior agreement, exact labels vs dense)",
    )
    parser.add_argument(
        "--top-k", type=int, default=None,
        help="kept affinities per row with --affinity-mode sparse (default ceil(N/4))",
    )
    parser.add_argument(
        "--memmap", action="store_true",
        help="with --affinity-mode sparse, densify blocks into memory-mapped "
        "files so the corpus can exceed RAM",
    )
    parser.add_argument("--cache-dir", default=None, help="engine artifact cache directory")
    parser.add_argument(
        "--cache-max-bytes", type=int, default=None,
        help="cache size budget in bytes (LRU eviction on write; default unbounded)",
    )
    parser.add_argument(
        "--no-keep-corpus-state", action="store_true",
        help="never retain/persist the incremental corpus state (saves memory; "
        "`label` keeps it only when --cache-dir is set, `serve` needs it)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    label = sub.add_parser("label", help="label one dataset with GOGGLES")
    label.add_argument("--dataset", choices=DATASET_NAMES, default="cub")
    label.set_defaults(fn=_cmd_label)

    serve = sub.add_parser("serve", help="streaming labeling-service demo")
    serve.add_argument("--dataset", choices=DATASET_NAMES, default="surface")
    serve.add_argument(
        "--initial-fraction", type=float, default=0.6,
        help="fraction of the dataset labeled up front as the seed corpus",
    )
    serve.add_argument("--stream-batch", type=int, default=4, help="images per streamed arrival batch")
    serve.add_argument(
        "--no-warm-start", action="store_true",
        help="cold-refit inference on every batch (the warm-start escape hatch)",
    )
    serve.add_argument(
        "--online", action="store_true",
        help="absorb arrivals with O(batch) mini-batch EM over sufficient statistics "
        "instead of a full incremental run per batch (escalates to a warm refit on "
        "drift; with --cache-dir the online state persists across restarts)",
    )
    serve.add_argument(
        "--drift-threshold", type=float, default=1.0,
        help="nats/row the held-out log-likelihood EWMA may fall below the seed "
        "baseline before --online escalates to a full warm refit",
    )
    serve.add_argument(
        "--refit-every", type=int, default=0,
        help="with --online, force a full warm refit every this many absorbed "
        "batches regardless of drift (0 = only on drift / mapping instability)",
    )
    serve.add_argument(
        "--http-port", type=int, default=None,
        help="serve the tenant over HTTP on this port instead of streaming locally "
        "(POST /v1/tenants/<id>/submit, GET /v1/tenants/<id>/poll/<ticket>, GET /healthz)",
    )
    serve.add_argument("--http-host", default="127.0.0.1", help="HTTP bind host")
    serve.add_argument(
        "--max-queued-pixels", type=int, default=None,
        help="the tenant's back-pressure bound: submissions pushing its queued pixels "
        "above this are shed (429 + Retry-After over HTTP; default unbounded)",
    )
    serve.add_argument(
        "--tenant", default="default",
        help="tenant id the seed corpus registers under (tickets read <id>-t...); with "
        "--http-port its routes are /v1/tenants/<id>/... and more tenants can join via "
        "POST /v1/tenants",
    )
    serve.set_defaults(fn=_cmd_serve)

    from repro.distributed import (
        DEFAULT_LEASE_BATCH,
        DEFAULT_PORT,
        DEFAULT_STREAM_THRESHOLD,
        default_authkey,
    )

    coordinator = sub.add_parser(
        "coordinator",
        help="run a labeling job as a cluster coordinator (shards feature extraction, "
        "affinity tiles and base fits to the workers that connect)",
    )
    coordinator.add_argument("--dataset", choices=DATASET_NAMES, default="surface")
    coordinator.add_argument(
        "--bind", default=f"127.0.0.1:{DEFAULT_PORT}",
        help="host:port the broker listens on (port 0 = ephemeral); bind a routable "
        "host to accept workers from other machines",
    )
    coordinator.add_argument(
        "--authkey", default=default_authkey(),
        help="shared connection secret (default $GOGGLES_AUTHKEY or built-in)",
    )
    coordinator.add_argument(
        "--lease-timeout", type=float, default=30.0,
        help="seconds before an unresponsive worker's shard is reassigned",
    )
    coordinator.add_argument(
        "--max-attempts", type=int, default=3,
        help="lease grants per shard before it is poisoned (clear error, no hang)",
    )
    coordinator.add_argument(
        "--lease-target-seconds", type=float, default=0.1,
        help="estimated compute seconds one lease grant aims to carry once the "
        "shard autotuner has calibrated a shard kind",
    )
    coordinator.set_defaults(fn=_cmd_coordinator)

    worker = sub.add_parser("worker", help="serve shards to a coordinator")
    worker.add_argument("--connect", required=True, help="coordinator host:port to pull shards from")
    worker.add_argument(
        "--authkey", default=default_authkey(),
        help="shared connection secret (default $GOGGLES_AUTHKEY or built-in)",
    )
    worker.add_argument(
        "--stream-threshold", type=int, default=DEFAULT_STREAM_THRESHOLD,
        help="result bytes above which shard results stream as framed "
        "sub-messages instead of one message (0 = always stream)",
    )
    worker.add_argument(
        "--lease-batch", type=int, default=DEFAULT_LEASE_BATCH,
        help="most shards one lease round-trip may request (the coordinator's "
        "autotuner usually grants fewer; 1 = one shard per round-trip)",
    )
    worker.set_defaults(fn=_cmd_worker)

    cache_info = sub.add_parser(
        "cache-info", help="inspect the shared artifact cache (entries, bytes, budget)"
    )
    cache_info.set_defaults(fn=_cmd_cache_info)

    metrics = sub.add_parser(
        "metrics", help="dump metrics in Prometheus text format (local registry or a server's /metrics)"
    )
    metrics.add_argument(
        "--url", default=None,
        help="base URL of a running serve --http-port instance; scrapes <url>/metrics "
        "(default: render this process's registry)",
    )
    metrics.add_argument("--timeout", type=float, default=5.0, help="scrape timeout in seconds")
    metrics.add_argument(
        "--tenant", default=None,
        help="keep only this tenant's series (filters locally, or scrapes "
        "<url>/metrics?tenant=... when --url is set)",
    )
    metrics.set_defaults(fn=_cmd_metrics)

    trace = sub.add_parser(
        "trace", help="render the span timeline of one trace id (local ring or a server's /v1/traces)"
    )
    trace.add_argument("trace_id", help="the trace id to follow (as echoed in X-Trace-Id)")
    trace.add_argument(
        "--url", default=None,
        help="base URL of a running serve --http-port instance; fetches "
        "<url>/v1/traces/<id> (default: read this process's span ring)",
    )
    trace.add_argument("--timeout", type=float, default=5.0, help="request timeout in seconds")
    trace.set_defaults(fn=_cmd_trace)

    tenants = sub.add_parser(
        "tenants", help="list or evict the tenants of a running serve --http-port instance"
    )
    tenants.add_argument("--url", required=True, help="base URL of the running server")
    tenants.add_argument("--evict", default=None, metavar="ID", help="evict this tenant (drain + drop state)")
    tenants.add_argument(
        "--forget", action="store_true",
        help="with --evict, drop the registration too (no transparent reload)",
    )
    tenants.add_argument("--timeout", type=float, default=5.0, help="request timeout in seconds")
    tenants.set_defaults(fn=_cmd_tenants)

    sub.add_parser("table1", help="reproduce Table 1").set_defaults(fn=_cmd_table1)
    sub.add_parser("table2", help="reproduce Table 2").set_defaults(fn=_cmd_table2)

    fig2 = sub.add_parser("fig2", help="reproduce Figure 2 statistics")
    fig2.add_argument("--dataset", choices=DATASET_NAMES, default="cub")
    fig2.set_defaults(fn=_cmd_fig2)

    sub.add_parser("fig7", help="reproduce Figure 7 theory curves").set_defaults(fn=_cmd_fig7)

    fig8 = sub.add_parser("fig8", help="reproduce Figure 8 sweep")
    fig8.add_argument("--dataset", choices=DATASET_NAMES, default="cub")
    fig8.set_defaults(fn=_cmd_fig8)

    fig9 = sub.add_parser("fig9", help="reproduce Figure 9 sweep")
    fig9.add_argument("--dataset", choices=DATASET_NAMES, default="cub")
    fig9.set_defaults(fn=_cmd_fig9)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
