"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re
import time
import urllib.request

import pytest

from repro import cli
from repro.cli import main
from repro.core import GogglesConfig


class TestCli:
    def test_label_command(self, capsys):
        code = main(["--n-per-class", "8", "--dev-per-class", "2", "label", "--dataset", "surface"])
        assert code == 0
        out = capsys.readouterr().out
        assert "labeling accuracy" in out

    def test_fig7_command(self, capsys):
        code = main(["fig7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "eta=0.8" in out

    def test_fig2_command(self, capsys):
        code = main(["--n-per-class", "8", "--seeds", "1", "fig2", "--dataset", "surface"])
        assert code == 0
        assert "AUC" in capsys.readouterr().out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["label", "--dataset", "imagenet"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_label_with_engine_knobs(self, capsys, tmp_path):
        """--precision/--cache knobs reach the engine."""
        code = main([
            "--n-per-class",
            "8",
            "--dev-per-class",
            "2",
            "--precision",
            "float64",
            "--cache-dir",
            str(tmp_path),
            "--cache-max-bytes",
            "100000000",
            "--no-keep-corpus-state",
            "label",
            "--dataset",
            "surface",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "labeling accuracy" in out
        assert "evictions" in out  # cache stats line includes the new counter

    def test_n_jobs_defaults_to_library_default(self, monkeypatch):
        """Omitting --n-jobs runs at ``GogglesConfig().n_jobs`` (the usable cores)."""
        seen = []

        def capture(args) -> int:
            seen.append(cli._settings(args).n_jobs)
            return 0

        monkeypatch.setattr(cli, "_cmd_label", capture)
        assert main(["label"]) == 0
        assert main(["--n-jobs", "1", "label"]) == 0
        assert seen == [GogglesConfig().n_jobs, 1]

    def test_invalid_precision_rejected(self):
        with pytest.raises(SystemExit):
            main(["--precision", "float16", "label", "--dataset", "surface"])

    def test_serve_command(self, capsys):
        code = main([
            "--n-per-class",
            "8",
            "--dev-per-class",
            "2",
            "serve",
            "--dataset",
            "surface",
            "--stream-batch",
            "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed corpus" in out
        assert "streaming accuracy" in out
        assert "incremental runs" in out

    def test_serve_online_command(self, capsys):
        """--online streams through the O(batch) mini-batch EM loop and
        reports the session's drift/refit stats."""
        code = main([
            "--n-per-class",
            "8",
            "--dev-per-class",
            "2",
            "serve",
            "--dataset",
            "surface",
            "--stream-batch",
            "3",
            "--online",
            "--drift-threshold",
            "50.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "online mode: fresh online state" in out
        assert "streaming accuracy" in out
        assert "online session:" in out and "drift" in out

    def test_serve_online_refit_every(self, capsys):
        code = main([
            "--n-per-class",
            "8",
            "--dev-per-class",
            "2",
            "serve",
            "--dataset",
            "surface",
            "--stream-batch",
            "4",
            "--online",
            "--refit-every",
            "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "refit(s)" in out

    def test_serve_tenant_flag_namespaces_tickets(self, capsys):
        code = main([
            "--n-per-class",
            "8",
            "--dev-per-class",
            "2",
            "serve",
            "--dataset",
            "surface",
            "--stream-batch",
            "4",
            "--tenant",
            "acme",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "acme-t" in out  # streamed tickets carry the tenant namespace

    def test_serve_over_http_registers_its_tenant(self, capsys, monkeypatch):
        """``serve --http-port`` registers its tenant and serves it until Ctrl-C."""
        rows: list[dict] = []
        sleep = time.sleep

        def interrupt(seconds: float) -> None:
            if seconds != 3600:  # only the serve loop's wait is the operator's Ctrl-C
                return sleep(seconds)
            url = re.search(r"HTTP front-end on (\S+)", capsys.readouterr().out).group(1)
            with urllib.request.urlopen(f"{url}/v1/tenants", timeout=30.0) as response:
                rows.extend(json.loads(response.read())["tenants"])
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.time, "sleep", interrupt)
        code = main([
            "--n-per-class",
            "8",
            "--dev-per-class",
            "2",
            "serve",
            "--dataset",
            "surface",
            "--http-port",
            "0",
            "--tenant",
            "acme",
        ])
        assert code == 0
        assert [(row["id"], row["state"]) for row in rows] == [("acme", "active")]

    def test_metrics_tenant_filter(self, capsys):
        from repro.obs import default_registry

        counter = default_registry().counter(
            "goggles_cli_test_total", "CLI filter probe.", labelnames=("tenant",)
        )
        counter.inc(tenant="acme")
        counter.inc(tenant="other")
        code = main(["metrics", "--tenant", "acme"])
        assert code == 0
        out = capsys.readouterr().out
        samples = [line for line in out.splitlines() if not line.startswith("#")]
        assert any('goggles_cli_test_total{tenant="acme"}' in line for line in samples)
        assert all('tenant="acme"' in line for line in samples)

    def test_tenants_command_lists_and_evicts(self, capsys, vgg, small_surface):
        import numpy as np

        from repro.core import GogglesConfig
        from repro.datasets.base import DevSet
        from repro.obs import MetricsRegistry
        from repro.serving import TenantRegistry, serve_http

        images = small_surface.images
        n0 = images.shape[0] - 6
        labels = small_surface.labels[:n0]
        indices = np.concatenate([np.flatnonzero(labels == k)[:3] for k in range(2)])
        dev = DevSet(indices=indices, labels=labels[indices])
        config = GogglesConfig(n_classes=2, seed=0, top_z=3, layers=(1, 2), n_jobs=2)
        registry = TenantRegistry(base_config=config, model=vgg, metrics=MetricsRegistry())
        registry.register("acme", images[:n0], dev)
        server = serve_http(registry)
        try:
            assert main(["tenants", "--url", server.url]) == 0
            out = capsys.readouterr().out
            assert "acme" in out and "active" in out
            assert main(["tenants", "--url", server.url, "--evict", "acme"]) == 0
            assert "acme: evicted" in capsys.readouterr().out
            assert main(["tenants", "--url", server.url, "--evict", "acme", "--forget"]) == 0
            assert "acme: removed" in capsys.readouterr().out
            assert main(["tenants", "--url", server.url]) == 0
            assert "no tenants registered" in capsys.readouterr().out
        finally:
            server.shutdown()
            registry.close()

    def test_tenants_forget_requires_evict(self):
        with pytest.raises(SystemExit, match="--forget needs --evict"):
            main(["tenants", "--url", "http://127.0.0.1:1", "--forget"])

    def test_serve_initial_fraction_validated(self):
        with pytest.raises(SystemExit, match="initial"):
            main([
                "--n-per-class",
                "8",
                "--dev-per-class",
                "2",
                "serve",
                "--dataset",
                "surface",
                "--initial-fraction",
                "1.0",
            ])


class TestDistributedCli:
    """``cache-info``: the report on a ``--cache-dir`` that separate
    processes share."""

    def test_cache_info_reports_entries(self, capsys, tmp_path):
        import numpy as np

        from repro.engine import ArtifactCache

        cache = ArtifactCache(str(tmp_path))
        cache.save_arrays("state", "a" * 64, {"uv_0": np.zeros((2, 2))})
        cache.save_arrays("affinity", "b" * 64, {"values": np.ones(3)})
        code = main(["--cache-dir", str(tmp_path), "cache-info"])
        assert code == 0
        out = capsys.readouterr().out
        assert "state: 1 entries" in out and "affinity: 1 entries" in out
        assert "2 entries" in out  # the total line
        assert "(unbounded)" in out  # the budget line

    def test_cache_info_on_a_missing_directory_creates_nothing(self, tmp_path):
        missing = tmp_path / "absent"
        with pytest.raises(SystemExit, match="no cache directory"):
            main(["--cache-dir", str(missing), "cache-info"])
        assert not missing.exists()

    def test_cache_info_requires_cache_dir(self):
        with pytest.raises(SystemExit, match="cache-dir"):
            main(["cache-info"])


class TestMetricsAndTrace:
    def test_metrics_unreachable_url_exits_nonzero_with_one_line(self, capsys):
        # Port 1 is never listening; must not traceback, must not exit 0.
        code = main(["metrics", "--url", "http://127.0.0.1:1", "--timeout", "0.5"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line]
        assert len(errors) == 1
        assert errors[0].startswith("error: cannot scrape")

    def test_trace_renders_local_timeline(self, capsys):
        from repro.obs import MetricsRegistry, clear_spans, new_trace_id, span, trace_context

        clear_spans()
        trace_id = new_trace_id()
        registry = MetricsRegistry()
        with trace_context(trace_id):
            with span("http.submit", registry):
                pass
            with span("service.batch", registry):
                pass
        code = main(["trace", trace_id])
        assert code == 0
        out = capsys.readouterr().out
        assert trace_id in out and "2 span(s)" in out
        assert "http.submit" in out and "service.batch" in out

    def test_trace_unknown_id_exits_nonzero(self, capsys):
        from repro.obs import clear_spans

        clear_spans()
        code = main(["trace", "no-such-trace"])
        assert code == 1
        assert "no spans recorded" in capsys.readouterr().err

    def test_trace_against_server(self, capsys):
        from repro.obs import (
            MetricsRegistry,
            clear_spans,
            new_trace_id,
            record_span,
            span,
            trace_context,
        )
        from repro.obs.trace import SpanRecord
        from repro.serving import TenantRegistry, serve_http

        clear_spans()
        trace_id = new_trace_id()
        with trace_context(trace_id), span("http.submit", MetricsRegistry()):
            pass
        # A span recorded as a finished record joins the same timeline.
        record_span(
            SpanRecord(name="inference.fit", trace_id=trace_id, seconds=0.5, outcome="ok", started_at=0.0)
        )
        server = serve_http(TenantRegistry(metrics=MetricsRegistry()))
        try:
            code = main(["trace", trace_id, "--url", server.url])
            assert code == 0
            out = capsys.readouterr().out
            assert "inference.fit" in out
            assert main(["trace", "missing", "--url", server.url]) == 1
            assert "no spans recorded" in capsys.readouterr().err
        finally:
            server.shutdown()
