"""Tests for the streaming LabelingService (submit/poll round trips)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import Goggles, GogglesConfig
from repro.obs import MetricsRegistry
from repro.serving import LabelingService

TIMEOUT = 120.0  # generous per-ticket wait; CI boxes can be slow


@pytest.fixture()
def service_setup(vgg, small_surface):
    """A service seeded with most of the surface corpus, plus holdout."""
    images = small_surface.images
    n0 = images.shape[0] - 6
    dev = small_surface.sample_dev_set(per_class=3, seed=0)
    assert dev.indices.max() < n0  # dev must live in the seed corpus
    config = GogglesConfig(n_classes=2, seed=0, top_z=3, layers=(1, 2), n_jobs=2)
    goggles = Goggles(config, model=vgg)
    # n_labeled reads the metrics registry: a fresh one counts this service only.
    service = LabelingService(goggles, dev, registry=MetricsRegistry())
    yield service, images, n0, dev, config
    service.stop()


class TestRoundTrip:
    def test_submit_poll_matches_direct_incremental(self, vgg, service_setup):
        """End-to-end: build corpus → submit → poll returns class-aligned
        labels identical to a direct label_incremental call."""
        service, images, n0, dev, config = service_setup
        service.start(images[:n0])
        ticket = service.submit(images[n0:])
        status = service.result(ticket, timeout=TIMEOUT)
        assert status.done
        assert status.probabilistic_labels.shape == (images.shape[0] - n0, 2)
        np.testing.assert_allclose(status.probabilistic_labels.sum(axis=1), 1.0, atol=1e-8)

        direct = Goggles(config, model=vgg)
        direct.label(images[:n0], dev)
        expected = direct.label_incremental(images[n0:], dev)
        np.testing.assert_array_equal(status.probabilistic_labels, expected.probabilistic_labels[n0:])

    def test_sequential_submissions_extend_corpus(self, service_setup):
        service, images, n0, dev, _ = service_setup
        service.start(images[:n0])
        first = service.result(service.submit(images[n0 : n0 + 3]), timeout=TIMEOUT)
        second = service.result(service.submit(images[n0 + 3 :]), timeout=TIMEOUT)
        assert first.done and second.done
        assert first.probabilistic_labels.shape[0] == 3
        assert second.probabilistic_labels.shape[0] == images.shape[0] - n0 - 3
        assert service.corpus_size == images.shape[0]
        assert service.n_labeled == images.shape[0] - n0

    def test_poll_states(self, service_setup):
        service, images, n0, _, _ = service_setup
        service.start(images[:n0])
        ticket = service.submit(images[n0 : n0 + 2])
        # pending or done depending on scheduling; never an error
        assert service.poll(ticket).state in ("pending", "done")
        status = service.result(ticket, timeout=TIMEOUT)
        assert service.poll(ticket).state == "done"
        np.testing.assert_array_equal(status.predictions, status.probabilistic_labels.argmax(axis=1))


class TestLifecycle:
    def test_submit_before_start_raises(self, service_setup):
        service, images, n0, _, _ = service_setup
        with pytest.raises(RuntimeError, match="start"):
            service.submit(images[n0:])

    def test_start_twice_raises(self, service_setup):
        service, images, n0, _, _ = service_setup
        service.start(images[:n0])
        with pytest.raises(RuntimeError, match="once"):
            service.start(images[:n0])

    def test_submit_after_stop_raises(self, service_setup):
        service, images, n0, _, _ = service_setup
        service.start(images[:n0])
        service.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            service.submit(images[n0:])

    def test_stop_drains_queued_work(self, service_setup):
        service, images, n0, _, _ = service_setup
        service.start(images[:n0])
        ticket = service.submit(images[n0:])
        service.stop(wait=True)  # drain, not abort
        assert service.result(ticket, timeout=0.0).done

    def test_unknown_ticket(self, service_setup):
        service, images, n0, _, _ = service_setup
        service.start(images[:n0])
        with pytest.raises(KeyError, match="t999999"):
            service.poll("t999999")

    def test_context_manager_stops(self, service_setup):
        service, images, n0, _, _ = service_setup
        with service:
            service.start(images[:n0])
        assert not service.running


class TestFailureIsolation:
    def test_bad_batch_fails_its_ticket_only(self, service_setup):
        """A malformed submission fails its ticket; the worker survives."""
        service, images, n0, _, _ = service_setup
        service.start(images[:n0])
        bad = service.submit(np.ones((2, 3, 8, 8)))  # wrong image size for the corpus
        status = service.result(bad, timeout=TIMEOUT)
        assert status.state == "failed"
        assert status.error
        with pytest.raises(RuntimeError, match="failed"):
            status.predictions
        good = service.result(service.submit(images[n0:]), timeout=TIMEOUT)
        assert good.done

    def test_rejects_malformed_shapes_eagerly(self, service_setup):
        service, images, n0, _, _ = service_setup
        service.start(images[:n0])
        with pytest.raises(ValueError, match="batch"):
            service.submit(images[n0][0])  # not 4-D
        with pytest.raises(ValueError, match="batch"):
            service.submit(images[:0])  # empty

    def test_failed_inference_rolls_back_corpus(self, monkeypatch, service_setup):
        """If inference dies after the affinity extension succeeded, the
        extension is rolled back — a failed ticket's images never enter
        the corpus and the submission can be retried."""
        service, images, n0, _, _ = service_setup
        service.start(images[:n0])
        goggles = service.goggles

        def boom(*args, **kwargs):
            raise MemoryError("simulated EM blow-up")

        monkeypatch.setattr(goggles.inference, "fit", boom)
        failed = service.result(service.submit(images[n0:]), timeout=TIMEOUT)
        assert failed.state == "failed"
        assert service.corpus_size == n0  # rolled back
        monkeypatch.undo()
        retried = service.result(service.submit(images[n0:]), timeout=TIMEOUT)
        assert retried.done
        assert service.corpus_size == images.shape[0]  # no duplicated rows

    def test_resolved_tickets_release_images_and_expire(self, vgg, small_surface):
        config = GogglesConfig(n_classes=2, seed=0, top_z=3, layers=(1, 2))
        dev = small_surface.sample_dev_set(per_class=3, seed=0)
        images = small_surface.images
        n0 = images.shape[0] - 4
        service = LabelingService(Goggles(config, model=vgg), dev, ticket_retention=2)
        with service:
            service.start(images[:n0])
            tickets, statuses = [], []
            for i in range(n0, n0 + 4):  # sequential: read each before the
                ticket = service.submit(images[i : i + 1])  # next can expire it
                tickets.append(ticket)
                statuses.append(service.result(ticket, timeout=TIMEOUT))
        assert all(s.done for s in statuses)
        # Oldest resolved tickets expired beyond the retention bound ...
        assert len(service._tickets) == 2
        with pytest.raises(KeyError):
            service.poll(tickets[0])
        # ... and the retained ones hold labels but no pixels.
        kept = service._tickets[tickets[-1]]
        assert kept.images is None
        assert kept.status.probabilistic_labels is not None

    def test_requires_corpus_state(self, vgg, small_surface):
        config = GogglesConfig(n_classes=2, top_z=2, layers=(1,), keep_corpus_state=False)
        dev = small_surface.sample_dev_set(per_class=2, seed=0)
        with pytest.raises(ValueError, match="keep_corpus_state"):
            LabelingService(Goggles(config, model=vgg), dev)


class TestConcurrentSubmitters:
    """The ticket table under concurrent submitters (the threaded HTTP
    front-end's traffic shape): every submission resolves exactly once,
    and expiry honours ``ticket_retention`` without losing labels for
    retained tickets."""

    def _start_service(self, vgg, small_surface, ticket_retention):
        images = small_surface.images
        n0 = images.shape[0] - 6
        dev = small_surface.sample_dev_set(per_class=3, seed=0)
        config = GogglesConfig(n_classes=2, seed=0, top_z=3, layers=(1, 2))
        service = LabelingService(
            Goggles(config, model=vgg), dev, ticket_retention=ticket_retention,
            registry=MetricsRegistry(),  # n_labeled counts this service only
        )
        service.start(images[:n0])
        return service, images, n0

    def _submit_concurrently(self, service, images, n0, n_threads):
        """Each thread submits one 1-image batch and waits for its result."""
        outcomes: list[tuple[int, object]] = []
        lock = threading.Lock()
        barrier = threading.Barrier(n_threads)

        def submitter(i: int) -> None:
            barrier.wait()
            try:
                ticket = service.submit(images[n0 + i : n0 + i + 1])
                status = service.result(ticket, timeout=TIMEOUT)
                outcome: object = status
            except KeyError as error:  # resolved then expired before the read
                outcome = error
            with lock:
                outcomes.append((i, outcome))

        threads = [threading.Thread(target=submitter, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outcomes

    def test_all_tickets_resolve_within_retention(self, vgg, small_surface):
        service, images, n0 = self._start_service(vgg, small_surface, ticket_retention=64)
        with service:
            outcomes = self._submit_concurrently(service, images, n0, n_threads=6)
        assert len(outcomes) == 6
        for _, status in outcomes:
            assert not isinstance(status, KeyError)
            assert status.done
            assert status.probabilistic_labels.shape == (1, 2)
        assert service.n_labeled == 6
        assert service.corpus_size == images.shape[0]
        assert service.tickets_outstanding == 0
        # Every resolved submission released its pixels.
        assert all(s.images is None for s in service._tickets.values())

    def test_expiry_under_concurrent_submitters(self, vgg, small_surface):
        """With retention below the submission count, some tickets may
        expire before their submitter polls — but every image is still
        labeled exactly once and the table never exceeds the bound."""
        service, images, n0 = self._start_service(vgg, small_surface, ticket_retention=2)
        with service:
            outcomes = self._submit_concurrently(service, images, n0, n_threads=6)
        assert len(outcomes) == 6
        resolved = [s for _, s in outcomes if not isinstance(s, KeyError)]
        for status in resolved:
            assert status.done
        # All six images were absorbed regardless of ticket visibility ...
        assert service.n_labeled == 6
        assert service.corpus_size == images.shape[0]
        # ... and the resolved-ticket table respects the retention bound.
        assert len(service._tickets) <= 2
        assert service.tickets_outstanding == 0
