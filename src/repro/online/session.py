"""The online labeling session: mini-batch EM, drift detection, refits.

Batch GOGGLES refits the whole hierarchy per arrival batch; warm starts
(ENGINE.md, "Warm-start semantics") cut *iterations* but every
iteration still touches all N corpus rows.  The :class:`OnlineSession`
removes N from the serving path entirely:

* the seed fit is summarised as O(K·d) sufficient statistics per
  mixture (:mod:`repro.online.stats`) with the feature space frozen at
  the seed corpus — a new arrival is described by its affinity row to
  the *frozen* corpus, so dimensions never grow between refits;
* :meth:`absorb_rows` folds a batch of affinity rows into those
  statistics with a stepwise (Cappé–Moulines) EM update and a
  ``tol``-driven local refinement loop — O(batch·d) per step, whatever
  the corpus size;
* a drift monitor tracks the prequential (scored-before-updated)
  per-row ensemble log-likelihood as an EWMA and re-derives the
  dev-set cluster→class vote each step; when the EWMA falls
  ``drift_threshold`` nats below the seed baseline, the vote flips, or
  ``refit_every`` batches have passed, the session escalates to a full
  warm-started refit through the existing engines
  (:meth:`~repro.core.goggles.Goggles.label_incremental`) and
  re-freezes itself on the grown corpus;
* memory stays bounded: between refits the corpus does not grow, the
  online state is O(α·K·d), and arrivals awaiting the next refit are
  buffered up to ``buffer_cap`` rows (older arrivals are dropped from
  the refit buffer — their labels were already served and their
  influence lives on in the statistics).

The α base models' statistics and parameters are held stacked —
``(α, K)`` and ``(α, K, d)`` arrays, one :class:`GMMStats` and one
:class:`GMMParams` — so each scoring or update step is one batched call
over all functions instead of α calls.

The mutable online state (accumulators, step counter, drift EWMA)
persists through the :class:`~repro.engine.cache.ArtifactCache` as an
``online-*.npz`` entry of 16 arrays (``base_{nk,sx,sxx,n}``,
``ens_{nk,sx,n}``, eight scalars and the mapping) keyed by the seed
fit's identity, so a restarted service resumes mid-stream instead of
starting the schedule over.  The batches each refit absorbed into the
corpus persist alongside it as an ``online-replay-*.npz`` log; a
restarted session replays them through ``label_incremental`` (cache
hits make the replay a cheap bit-identical re-derivation) to regrow the
corpus, so it resumes even *after* refits instead of cold-starting in
that case.  A write that fails with an ``OSError`` is counted
(``goggles_online_persist_errors_total``) and does not fail the batch:
writes publish by rename, so the previous entry stays intact.

Accuracy contract: on the shapes corpora the online path must agree
with a full warm refit at ≥99% posterior agreement (1 − mean total
variation) and *exact* hard-label agreement —
``benchmarks/bench_online_inference.py`` enforces both in CI.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import logsumexp

from repro.core.inference.base_gmm import GMMParams, gmm_posterior
from repro.core.inference.bernoulli import BernoulliParams, one_hot_encode_lp
from repro.core.inference.mapping import apply_mapping, map_clusters_to_classes
from repro.datasets.base import DevSet
from repro.engine.cache import hash_arrays
from repro.obs import MetricsRegistry, default_registry, span
from repro.online.stats import BernoulliStats, GMMStats, step_size
from repro.utils.validation import check_images

if TYPE_CHECKING:  # imported lazily to keep core/goggles import-cycle free
    from repro.core.goggles import Goggles, GogglesResult

__all__ = ["OnlineConfig", "OnlineSession"]

# Clamp applied to the ensemble's Bernoulli parameters, matching the
# default of repro.core.inference.bernoulli.BernoulliMixture.
_ENSEMBLE_PARAM_FLOOR = 1e-3


@dataclass(frozen=True)
class OnlineConfig:
    """Knobs of the online mini-batch EM serving loop.

    Attributes:
        step_decay: κ of the Cappé–Moulines step size
            ``ρ_t = (t₀+t)^{-κ}``; must lie in (0.5, 1] for the
            stepwise-EM convergence guarantees.
        step_delay: t₀, damping the earliest (largest) steps.
        refine_tol: the local refinement loop re-scores the batch under
            the candidate parameters until the posterior moves less
            than this (max abs change), up to ``refine_max_iter``.
        refine_max_iter: cap on refinement passes per absorbed batch.
        drift_threshold: nats/row the prequential log-likelihood EWMA
            may fall below the seed baseline before a full refit is
            forced.
        drift_alpha: EWMA smoothing factor in (0, 1].
        refit_every: escalate to a full warm-started refit every this
            many absorbed batches regardless of drift (0 = only on
            drift / mapping instability).
        buffer_cap: max arrival rows retained for the next refit;
            older arrivals beyond the cap are dropped from the buffer
            (bounded memory — their statistics contribution remains).
    """

    step_decay: float = 0.7
    step_delay: float = 2.0
    refine_tol: float = 1e-4
    refine_max_iter: int = 3
    drift_threshold: float = 1.0
    drift_alpha: float = 0.2
    refit_every: int = 0
    buffer_cap: int = 256

    def __post_init__(self) -> None:
        if not 0.5 < self.step_decay <= 1.0:
            raise ValueError(f"step_decay must be in (0.5, 1], got {self.step_decay}")
        if self.step_delay < 0:
            raise ValueError(f"step_delay must be >= 0, got {self.step_delay}")
        if self.refine_tol <= 0:
            raise ValueError(f"refine_tol must be > 0, got {self.refine_tol}")
        if self.refine_max_iter < 1:
            raise ValueError(f"refine_max_iter must be >= 1, got {self.refine_max_iter}")
        if self.drift_threshold <= 0:
            raise ValueError(f"drift_threshold must be > 0, got {self.drift_threshold}")
        if not 0.0 < self.drift_alpha <= 1.0:
            raise ValueError(f"drift_alpha must be in (0, 1], got {self.drift_alpha}")
        if self.refit_every < 0:
            raise ValueError(f"refit_every must be >= 0, got {self.refit_every}")
        if self.buffer_cap < 1:
            raise ValueError(f"buffer_cap must be >= 1, got {self.buffer_cap}")


class OnlineSession:
    """Owns the accumulators, the frozen mapping, and the drift monitor.

    Parameters:
        goggles: the pipeline whose engines back this session.  Its
            affinity engine must hold the corpus state of the seed fit
            (``keep_corpus_state=True`` and a prior ``label`` call).
        dev_set: the cluster→class development set; indices refer to
            the seed corpus and stay valid as refits grow it.
        result: the seed fit (what ``goggles.label`` returned).
        config: online knobs; defaults to :class:`OnlineConfig`.
        resume: with the engine's artifact cache configured, try to
            restore a previously persisted online state for the same
            seed fit (accumulators + step counter + drift EWMA) so a
            restarted service continues mid-stream.
        tenant: tenant id stamped on the ``goggles_online_*`` metric
            families, so a multi-tenant process can attribute drift and
            absorb throughput per tenant.

    Thread contract: like the engines, the session is driven by a
    single worker thread (``LabelingService``'s); it has no internal
    locking.
    """

    def __init__(
        self,
        goggles: "Goggles",
        dev_set: "DevSet",
        result: "GogglesResult",
        config: OnlineConfig | None = None,
        *,
        resume: bool = True,
        registry: MetricsRegistry | None = None,
        tenant: str = "default",
    ):
        if goggles.engine.state is None:
            raise ValueError(
                "OnlineSession needs the engine's corpus state: run goggles.label "
                "first with keep_corpus_state=True"
            )
        self.goggles = goggles
        self.dev_set = dev_set
        self.config = config or OnlineConfig()
        hier = goggles.config.hierarchical_config()
        self.n_classes = hier.n_classes
        self._variance_floor = hier.variance_floor
        self.n_refits = 0
        self.n_absorbed = 0
        self.n_batches = 0
        self.n_buffer_dropped = 0
        self.resumed = False
        self.replayed = 0
        # Every batch a refit ever absorbed into the corpus, in refit
        # order — persisted (kind "online-replay") so a restarted
        # process can re-derive the grown corpus from the seed fit.
        self._replay_log: list[np.ndarray] = []
        self.registry = registry or default_registry()
        self.tenant = tenant
        self._init_metrics()
        self._session_key = self._make_key(result)
        self._freeze(result)
        if resume:
            self._try_replay()
            self._try_resume()

    def _init_metrics(self) -> None:
        """Declare the online metric family (see ENGINE.md catalogue)."""
        reg = self.registry
        self._m_steps = reg.counter(
            "goggles_online_steps_total", "Stepwise-EM absorb steps executed.",
            labelnames=("tenant",),
        )
        self._m_rows = reg.counter(
            "goggles_online_absorbed_rows_total", "Arrival rows folded into the online statistics.",
            labelnames=("tenant",),
        )
        self._m_refits = reg.counter(
            "goggles_online_refits_total", "Escalations to a full warm-started refit.",
            labelnames=("tenant",),
        )
        self._m_dropped = reg.counter(
            "goggles_online_buffer_dropped_total",
            "Buffered arrival rows dropped past buffer_cap.",
            labelnames=("tenant",),
        )
        # Drift and buffer fill are session state: read lazily at scrape
        # time so absorb never pays for gauge bookkeeping.
        reg.gauge(
            "goggles_online_drift_nats",
            "Nats/row the prequential log-likelihood EWMA sits below the seed baseline.",
            labelnames=("tenant",),
        ).set_function(lambda: self.drift, tenant=self.tenant)
        reg.gauge(
            "goggles_online_buffer_rows",
            "Arrival rows buffered for the next refit.",
            labelnames=("tenant",),
        ).set_function(lambda: sum(batch.shape[0] for batch in self._buffer), tenant=self.tenant)
        self._m_persist_errors = reg.counter(
            "goggles_online_persist_errors_total",
            "Online state writes that failed with an OSError (the batch was still served).",
            labelnames=("kind", "tenant"),
        )

    # ------------------------------------------------------------------
    # Seed snapshot
    # ------------------------------------------------------------------
    def _freeze(self, result: "GogglesResult") -> None:
        """(Re)build the frozen snapshot and fresh online state from a fit.

        Parameters are *derived from the statistics* (one M-step over
        the fit's final responsibilities) rather than copied from the
        fit, so the fresh-fit and cache-restored paths — where the
        fitted parameters are not persisted — are one code path.
        """
        state = self.goggles.engine.state
        assert state is not None
        affinity = state.affinity
        k = self.n_classes
        lp = result.hierarchical.label_predictions
        self.n_seed = affinity.n_examples
        self.alpha = affinity.n_functions
        # One function at a time, then stacked: squaring all blocks at
        # once would build an (α, N, N) temporary.
        self._base_stats = GMMStats.stack(
            [
                GMMStats.from_responsibilities(affinity.block(f), lp[:, f * k : (f + 1) * k])
                for f in range(self.alpha)
            ]
        )
        self._base_params = self._base_stats.params(self._variance_floor)
        one_hot = result.hierarchical.one_hot
        posterior = result.hierarchical.posterior
        self._ensemble_stats = BernoulliStats.from_responsibilities(one_hot, posterior)
        self._ensemble_params = self._ensemble_stats.params(_ENSEMBLE_PARAM_FLOOR)
        self.mapping = result.mapping
        # Dev rows in the frozen feature space, (α, n_dev, n_seed), for
        # the vote-stability check.
        self._dev_rows = (
            np.stack([affinity.block(f)[self.dev_set.indices, :] for f in range(self.alpha)])
            if self.dev_set.size
            else None
        )
        self._baseline_ll = self._mean_log_likelihood(one_hot, self._ensemble_params)
        self._ewma_ll = self._baseline_ll
        self._step = 0
        self._buffer: list[np.ndarray] = []

    def _make_key(self, result: "GogglesResult") -> str | None:
        """Content address of this session's persisted state.

        Keyed by the seed fit's identity — the cached corpus-state key
        plus the seed posterior hash — and the online config, so a
        restarted service (which replays the seed fit bit-identically
        from the cache) derives the same key, while any change to the
        corpus, the inference config, or the online knobs misses.
        """
        cache = self.goggles.engine.cache
        state_key = self.goggles.engine.state_key
        if cache is None or state_key is None:
            return None
        data_hash = hash_arrays(result.hierarchical.posterior)
        params = {"stage": "online", "seed_state": state_key, **asdict(self.config)}
        return cache.key(data_hash, params)

    # ------------------------------------------------------------------
    # Scoring under the current parameters
    # ------------------------------------------------------------------
    @staticmethod
    def _ensemble_log_joint(one_hot: np.ndarray, params: BernoulliParams) -> np.ndarray:
        log_b = np.log(params.probs)
        log_1mb = np.log1p(-params.probs)
        log_lik = one_hot @ log_b.T + (1.0 - one_hot) @ log_1mb.T
        return log_lik + np.log(np.maximum(params.weights, 1e-300))

    def _mean_log_likelihood(self, one_hot: np.ndarray, params: BernoulliParams) -> float:
        log_joint = self._ensemble_log_joint(one_hot, params)
        return float(logsumexp(log_joint, axis=1).mean())

    def _score_batch(
        self, rows: np.ndarray, base_params: GMMParams, ens_params: BernoulliParams
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """One hierarchical E-step on ``(α, M, d)`` rows.

        Returns the base posteriors ``(α, M, K)``, the one-hot LP, the
        ensemble posterior and its mean log-likelihood.
        """
        base = gmm_posterior(rows, base_params)
        # LP (M, α·K): function f's posterior in columns [f·K, (f+1)·K).
        lp = np.swapaxes(base, 0, 1).reshape(base.shape[1], -1)
        one_hot = one_hot_encode_lp(lp, self.n_classes)
        log_joint = self._ensemble_log_joint(one_hot, ens_params)
        log_norm = logsumexp(log_joint, axis=1, keepdims=True)
        posterior = np.exp(log_joint - log_norm)
        return base, one_hot, posterior, float(log_norm.mean())

    # ------------------------------------------------------------------
    # The O(batch) absorb step
    # ------------------------------------------------------------------
    def absorb_rows(self, rows: list[np.ndarray]) -> np.ndarray:
        """Fold one batch of affinity rows into the online model.

        ``rows[f]`` holds the batch's affinities to the frozen corpus
        under function f, shape ``(M, n_seed)``.  Returns the
        class-aligned probabilistic labels ``(M, K)`` for the batch.
        Cost is O(M·d) per refinement pass — the corpus size never
        appears.  Pure math: no refit escalation happens here (see
        :meth:`absorb`), but the drift monitor is updated.
        """
        if len(rows) != self.alpha:
            raise ValueError(f"expected {self.alpha} per-function row blocks, got {len(rows)}")
        for f, block in enumerate(rows):
            if block.ndim != 2 or block.shape[1] != self.n_seed or block.shape[0] == 0:
                raise ValueError(f"rows[{f}] shaped {block.shape}, expected (M > 0, {self.n_seed})")
        with span("absorb", self.registry):
            return self._absorb_rows(np.stack(rows))

    def _absorb_rows(self, rows: np.ndarray) -> np.ndarray:
        config = self.config
        self._step += 1
        rho = step_size(self._step, config.step_decay, config.step_delay)

        # Local refinement: re-score the batch under the candidate
        # parameters until its posterior settles (or the pass cap).
        # Every candidate re-blends from the *committed* statistics
        # with the same ρ, so one batch's influence stays one ρ-step.
        base_params, ens_params = self._base_params, self._ensemble_params
        cand_base_stats, cand_ens_stats = self._base_stats, self._ensemble_stats
        previous_posterior: np.ndarray | None = None
        base, one_hot, posterior, mean_ll = self._score_batch(rows, base_params, ens_params)
        # Prequential drift signal: the score under the *committed*
        # (pre-update) parameters, captured before the refinement loop
        # adapts them to this batch — a distribution shift must show up
        # as a held-out log-likelihood drop, not be masked by the very
        # update it should trigger on.
        prequential_ll = mean_ll
        for _ in range(config.refine_max_iter):
            cand_base_stats = self._base_stats.blend(GMMStats.from_responsibilities(rows, base), rho)
            cand_ens_stats = self._ensemble_stats.blend(
                BernoulliStats.from_responsibilities(one_hot, posterior), rho
            )
            base_params = cand_base_stats.params(self._variance_floor)
            ens_params = cand_ens_stats.params(_ENSEMBLE_PARAM_FLOOR)
            previous_posterior = posterior
            base, one_hot, posterior, mean_ll = self._score_batch(rows, base_params, ens_params)
            if np.abs(posterior - previous_posterior).max() < config.refine_tol:
                break

        self._base_stats, self._ensemble_stats = cand_base_stats, cand_ens_stats
        self._base_params, self._ensemble_params = base_params, ens_params
        self._ewma_ll = (
            1.0 - config.drift_alpha
        ) * self._ewma_ll + config.drift_alpha * prequential_ll
        self.n_batches += 1
        self.n_absorbed += int(posterior.shape[0])
        self._m_steps.inc(tenant=self.tenant)
        self._m_rows.inc(int(posterior.shape[0]), tenant=self.tenant)
        return apply_mapping(posterior, self.mapping)

    # ------------------------------------------------------------------
    # Drift / escalation state machine
    # ------------------------------------------------------------------
    @property
    def drift(self) -> float:
        """Nats/row the prequential log-likelihood EWMA sits below baseline."""
        return self._baseline_ll - self._ewma_ll

    def mapping_stable(self) -> bool:
        """Whether the dev set still votes for the frozen cluster→class map."""
        if self._dev_rows is None:
            return True
        _, _, posterior, _ = self._score_batch(self._dev_rows, self._base_params, self._ensemble_params)
        local = DevSet(indices=np.arange(self.dev_set.size), labels=self.dev_set.labels)
        fresh = map_clusters_to_classes(posterior, local, self.n_classes)
        return bool(np.array_equal(fresh.cluster_to_class, self.mapping.cluster_to_class))

    def should_refit(self) -> bool:
        """Escalation predicate: schedule, drift, or an unstable mapping."""
        if self.config.refit_every and self._step >= self.config.refit_every:
            return True
        if self.drift > self.config.drift_threshold:
            return True
        return not self.mapping_stable()

    # ------------------------------------------------------------------
    # The serving-loop entry point
    # ------------------------------------------------------------------
    def absorb(self, images: np.ndarray) -> np.ndarray:
        """Label a batch of arrival images online.

        Computes the batch's affinity rows against the frozen corpus
        (rows only — the corpus state is *not* extended; O(M·d) for the
        unavoidable feature computation, where d = n_seed is the frozen
        feature dimension), folds them in via :meth:`absorb_rows`
        (O(M·d) per refinement pass), then runs the escalation check:
        when it trips, the buffered arrivals are absorbed into the
        corpus by a full warm-started refit and the session re-freezes
        on the grown corpus.  Returns the class-aligned probabilistic
        labels for exactly this batch.
        """
        images = check_images(images)
        rows = self._arrival_rows(images)
        # Atomic with respect to the session: if anything below fails
        # (including an escalated refit — label_incremental already
        # rolls the corpus back on its own), the statistics, schedule,
        # drift state, and buffer are restored, so a failed batch can
        # simply be resubmitted without being double-counted.
        snapshot = self._snapshot()
        try:
            labels = self.absorb_rows(rows)
            self._buffer.append(images)
            while (
                sum(batch.shape[0] for batch in self._buffer) > self.config.buffer_cap
                and len(self._buffer) > 1
            ):
                dropped = int(self._buffer.pop(0).shape[0])
                self.n_buffer_dropped += dropped
                self._m_dropped.inc(dropped, tenant=self.tenant)
            if self.should_refit():
                labels = self._refit()[-images.shape[0] :]
        except Exception:
            self._restore(snapshot)
            raise
        self._persist()
        return labels

    def _arrival_rows(self, images: np.ndarray) -> list[np.ndarray]:
        """The batch's ``(M, n_seed)`` affinity rows to the frozen corpus.

        ``extend_rows`` computes exactly these blocks — no new
        prototypes, no old-row columns, no (N+M)² assembly — and never
        touches the engine's corpus state.
        """
        engine = self.goggles.engine
        assert engine.state is not None
        return engine.source.extend_rows(engine.state, images, engine._runtime())

    def _snapshot(self) -> tuple:
        """The mutable online state (statistics are immutable — shallow is enough)."""
        return (
            self._base_stats,
            self._base_params,
            self._ensemble_stats,
            self._ensemble_params,
            self._step,
            self._ewma_ll,
            self.n_batches,
            self.n_absorbed,
            self.n_refits,
            self.n_buffer_dropped,
            list(self._buffer),
            list(self._replay_log),
        )

    def _restore(self, snapshot: tuple) -> None:
        (
            self._base_stats,
            self._base_params,
            self._ensemble_stats,
            self._ensemble_params,
            self._step,
            self._ewma_ll,
            self.n_batches,
            self.n_absorbed,
            self.n_refits,
            self.n_buffer_dropped,
            self._buffer,
            self._replay_log,
        ) = snapshot

    def _refit(self) -> np.ndarray:
        """Escalate: full warm-started refit over the buffered arrivals.

        Goes through ``Goggles.label_incremental`` — incremental
        affinity extension plus warm-started EM in the existing
        :class:`~repro.engine.inference.InferenceEngine` — permanently
        growing the corpus by the buffered rows, then re-freezes the
        session (new statistics, new baseline, step counter and EWMA
        reset).  Returns class-aligned labels for the whole corpus.
        """
        assert self._buffer, "refit requested with an empty arrival buffer"
        buffered = self._buffer[0] if len(self._buffer) == 1 else np.concatenate(self._buffer, axis=0)
        with span("online.refit", self.registry):
            result = self.goggles.label_incremental(buffered, self.dev_set, warm_start=True)
        self.n_refits += 1
        self._m_refits.inc(tenant=self.tenant)
        self._replay_log.append(buffered)
        self._persist_replay()
        self._freeze(result)
        return result.probabilistic_labels

    # ------------------------------------------------------------------
    # Persistence (kind "online" in the artifact cache)
    # ------------------------------------------------------------------
    def _save(self, kind: str, arrays: dict[str, np.ndarray]) -> None:
        """Write one entry of this session; an ``OSError`` is counted, not raised.

        A write follows work the session has already committed (an
        absorbed batch, a grown corpus), so raising would fail labels it
        holds, and a retry would count the batch twice.  Writes publish
        by rename, so the previous entry stays intact and a restart
        resumes from it.
        """
        if self._session_key is None:
            return
        cache = self.goggles.engine.cache
        assert cache is not None
        try:
            cache.save_arrays(kind, self._session_key, arrays)
        except OSError:
            self._m_persist_errors.inc(kind=kind, tenant=self.tenant)

    def _persist(self) -> None:
        """Write the mutable online state as one ``online-*.npz`` entry."""
        arrays: dict[str, np.ndarray] = {
            "step": np.int64(self._step),
            "ewma_ll": np.float64(self._ewma_ll),
            "baseline_ll": np.float64(self._baseline_ll),
            "n_seed": np.int64(self.n_seed),
            "n_refits": np.int64(self.n_refits),
            "n_absorbed": np.int64(self.n_absorbed),
            "n_batches": np.int64(self.n_batches),
            "n_buffer_dropped": np.int64(self.n_buffer_dropped),
            "mapping": self.mapping.cluster_to_class,
        }
        arrays.update(self._ensemble_stats.arrays("ens"))
        arrays.update(self._base_stats.arrays("base"))
        self._save("online", arrays)

    def _persist_replay(self) -> None:
        """Write the refit batches as one ``online-replay-*.npz`` entry.

        Keyed by the *seed* session key (fixed across refits — it is
        the session's lineage address), so a restarted process finds
        the log from the seed fit alone, before any replaying.
        """
        arrays: dict[str, np.ndarray] = {"n_entries": np.int64(len(self._replay_log))}
        for i, batch in enumerate(self._replay_log):
            arrays[f"entry_{i:03d}"] = batch
        self._save("online-replay", arrays)

    def _try_replay(self) -> None:
        """Re-absorb persisted refit batches into the corpus.

        A previous life of this session may have refit onto a grown
        corpus; this process starts from the seed fit, so without the
        replay the persisted online state (whose statistics live in the
        grown feature space) is unusable and the session cold-starts.
        Replaying each refit's buffered batch through
        ``label_incremental`` — cache hits make it a bit-identical,
        cheap re-derivation — regrows the corpus to where the previous
        life left it, after which :meth:`_try_resume` succeeds.

        Silently a no-op on any problem: no cache, no log, or a replay
        failure (the corpus is restored to the seed state so the
        session still serves, just cold).
        """
        if self._session_key is None:
            return
        cache = self.goggles.engine.cache
        assert cache is not None

        def parse(stored: dict[str, np.ndarray]) -> list[np.ndarray]:
            batches = [stored[f"entry_{i:03d}"] for i in range(int(stored["n_entries"]))]
            if any(batch.ndim != 4 for batch in batches):
                raise ValueError("a logged refit batch is not a 4-D image batch")
            return batches

        batches = cache.load_arrays("online-replay", self._session_key, parse)
        if not batches:
            return
        engine = self.goggles.engine
        saved_state, saved_key = engine.state, engine.state_key
        result = None
        try:
            for batch in batches:
                result = self.goggles.label_incremental(batch, self.dev_set, warm_start=True)
        except Exception:
            # A failed replay must not leave a half-grown corpus: the
            # failing call rolled itself back, restore the rest.
            engine.restore_state(saved_state, saved_key)
            return
        assert result is not None
        self.n_refits = len(batches)
        self._freeze(result)
        self._replay_log = batches
        self.replayed = len(batches)

    def _try_resume(self) -> None:
        """Restore persisted accumulators/step/EWMA for this seed fit.

        Silently a no-op when there is nothing usable: no cache, no
        entry, or an entry whose shapes no longer line up.  An entry
        without the stacked ``base_*`` arrays (per-function
        ``f{i:03d}_*`` names, as earlier versions wrote) fails the parse,
        so the cache evicts it and counts a miss.  A previous process
        that refit onto a grown corpus is handled by :meth:`_try_replay`
        (which re-derives that corpus from the persisted refit batches
        before this method runs).
        """
        if self._session_key is None:
            return
        cache = self.goggles.engine.cache
        assert cache is not None

        def parse(stored: dict[str, np.ndarray]) -> dict:
            # Every value a resume installs: a missing array is a miss.
            counts = ("n_refits", "n_absorbed", "n_batches", "n_buffer_dropped")
            return {
                "n_seed": int(stored["n_seed"]),
                "mapping": stored["mapping"],
                "base_stats": GMMStats.from_arrays(stored, "base"),
                "ensemble_stats": BernoulliStats.from_arrays(stored, "ens"),
                "step": int(stored["step"]),
                "ewma_ll": float(stored["ewma_ll"]),
                "baseline_ll": float(stored["baseline_ll"]),
                **{name: int(stored.get(name, 0)) for name in counts},
            }

        saved = cache.load_arrays("online", self._session_key, parse)
        if saved is None:
            return
        if saved["n_seed"] != self.n_seed:
            # The previous session refit onto a corpus this one does not
            # hold — normally prevented by the refit-buffer replay in
            # _try_replay (resume=False, a failed replay, or an evicted
            # replay log land here).
            return
        if not np.array_equal(saved["mapping"], self.mapping.cluster_to_class):
            return
        k = self.n_classes
        base_stats, ensemble_stats = saved["base_stats"], saved["ensemble_stats"]
        if base_stats.sx.shape != (self.alpha, k, self.n_seed) or base_stats.nk.shape != (self.alpha, k):
            return
        if ensemble_stats.sx.shape != (k, self.alpha * k):
            return
        self._base_stats = base_stats
        self._base_params = base_stats.params(self._variance_floor)
        self._ensemble_stats = ensemble_stats
        self._ensemble_params = ensemble_stats.params(_ENSEMBLE_PARAM_FLOOR)
        self._step = saved["step"]
        self._ewma_ll = saved["ewma_ll"]
        self._baseline_ll = saved["baseline_ll"]
        self.n_refits = saved["n_refits"]
        self.n_absorbed = saved["n_absorbed"]
        self.n_batches = saved["n_batches"]
        self.n_buffer_dropped = saved["n_buffer_dropped"]
        self.resumed = True

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-serialisable snapshot for healthz / the CLI demo."""
        return {
            "step": self._step,
            "batches": self.n_batches,
            "absorbed": self.n_absorbed,
            "refits": self.n_refits,
            "buffered_rows": int(sum(batch.shape[0] for batch in self._buffer)),
            "buffer_dropped": self.n_buffer_dropped,
            "drift": round(self.drift, 6),
            "drift_threshold": self.config.drift_threshold,
            "ewma_log_likelihood": round(self._ewma_ll, 6),
            "baseline_log_likelihood": round(self._baseline_ll, 6),
            "n_seed": self.n_seed,
            "resumed": self.resumed,
            "replayed": self.replayed,
            "persisted": self._session_key is not None,
        }
