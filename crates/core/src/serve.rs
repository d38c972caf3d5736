//! Concurrent query serving: work-stealing batch execution, expansion
//! caching, and injected-clock latency metrics.
//!
//! The ROADMAP's north star is serving SQE under heavy traffic "as fast
//! as the hardware allows" while staying bit-identical to the paper's
//! sequential pipeline. This module provides:
//!
//! * [`run_indexed`] — a work-stealing executor over `crossbeam`
//!   channels. Each query is one work item pulled by idle workers, so a
//!   pathological query no longer stalls its whole even-sized chunk (the
//!   previous behaviour of `rank_sqe_many` / `build_many`). Results are
//!   written into their input slot, so output order — and therefore every
//!   downstream run file — is independent of scheduling.
//! * [`QueryService`] — the serving facade over [`SqePipeline`](crate::pipeline::SqePipeline): an LRU
//!   [`ExpansionCache`] keyed by the sorted query-node set + motif-set
//!   fingerprint (motif traversal is the dominant per-query cost and is a
//!   pure function of exactly that key), per-worker reusable scratch buffers,
//!   and [`ServeMetrics`] recording cache traffic plus per-stage latency
//!   through an injected [`Clock`] (no wall-clock reads in library code;
//!   tests drive a `ManualClock`).
//!
//! # Determinism contract
//!
//! For any worker count and any cache state, [`QueryService`] output is
//! byte-identical to the sequential uncached [`SqePipeline`](crate::pipeline::SqePipeline): cached
//! expansions are exactly the `QueryGraph::expansions` a fresh build
//! returns (the cache key preserves query-node multiplicity), and a
//! racing double-compute of the same key inserts the same value twice.
//! `tests/serve_determinism.rs` enforces this end-to-end on run files.

use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};

use kbgraph::{ArticleId, KbGraph};
use searchlite::ql::{self, SearchHit};
use searchlite::{DocId, Index, IngestError, SealReport, Searcher, SegmentedIndex};
use sqe_admission::{
    select_rung, AdmissionConfig, AdmissionController, Deadline, RungId, ServeOutcome, ShedReason,
    Stage, Ticket,
};

use crate::cache::{CacheKey, CachedExpansions, ExpansionCache};
use crate::combine;
use crate::expand;
use crate::metrics::{Clock, MetricsSnapshot, NullClock, ServeMetrics};
use crate::pipeline::{SqeConfig, SqeScratch};
use crate::query_graph::QueryGraphBuilder;
use crate::spec::{MotifLadder, MotifSet};

/// Runs `f` over every item on `workers` threads with work stealing:
/// items are fed through an MPMC channel and idle workers pull the next
/// index, so load imbalance between items never idles a thread while work
/// remains. Each worker owns one scratch value from `make_scratch`.
/// Results keep input order (slot `i` holds `f(&items[i])`).
///
/// With `workers <= 1` or fewer than two items the items are processed
/// inline on the caller's thread (still through one scratch value), which
/// is the sequential reference behaviour.
pub fn run_indexed<T, R, S>(
    items: &[T],
    workers: usize,
    make_scratch: impl Fn() -> S + Sync,
    f: impl Fn(&T, &mut S) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    if workers <= 1 || items.len() <= 1 {
        let mut scratch = make_scratch();
        return items.iter().map(|item| f(item, &mut scratch)).collect();
    }
    let (job_tx, job_rx) = crossbeam::channel::unbounded::<usize>();
    for i in 0..items.len() {
        job_tx
            .send(i)
            .expect("invariant: unbounded channel send cannot fail");
    }
    // Close the job queue: workers drain it and then see disconnection.
    drop(job_tx);
    let (res_tx, res_rx) = crossbeam::channel::unbounded::<(usize, R)>();
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    crossbeam::thread::scope(|s| {
        for _ in 0..workers.min(items.len()) {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            let make_scratch = &make_scratch;
            let f = &f;
            s.spawn(move |_| {
                let mut scratch = make_scratch();
                while let Ok(i) = job_rx.recv() {
                    if let Some(item) = items.get(i) {
                        let r = f(item, &mut scratch);
                        res_tx
                            .send((i, r))
                            .expect("invariant: unbounded channel send cannot fail");
                    }
                }
            });
        }
        // Only workers hold result senders now: when they all finish (or
        // panic, which drops their sender), `recv` disconnects and this
        // loop ends — no deadlock, and the scope re-raises any panic.
        drop(res_tx);
        while let Ok((i, r)) = res_rx.recv() {
            if let Some(slot) = out.get_mut(i) {
                *slot = Some(r);
            }
        }
    })
    .expect("invariant: child panics re-raise inside the scope itself");
    out.into_iter()
        .map(|r| r.expect("invariant: every job index sent exactly one result"))
        .collect()
}

/// Configuration of a [`QueryService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads for batch entry points (1 = in-caller sequential).
    pub workers: usize,
    /// Seeded capacity of the expansion cache (0 disables caching).
    pub cache_capacity: usize,
    /// Admission policy for the deadline-aware `serve*` entry points
    /// (the plain `rank_sqe*` paths bypass admission entirely). The
    /// default is unlimited: every request is admitted.
    pub admission: AdmissionConfig,
    /// The degraded-mode ladder the deadline-aware `serve*` entry points
    /// walk: rung 0 is full quality, later rungs expand with cheaper
    /// motif sets (or not at all). The default is the paper's
    /// `SQE_T&S` → `SQE_T` → unexpanded ladder.
    pub ladder: MotifLadder,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            cache_capacity: 4096,
            admission: AdmissionConfig::unlimited(),
            ladder: MotifLadder::default_sqe(),
        }
    }
}

/// One request to the admission-controlled batch entry point
/// ([`QueryService::serve_batch`]): the query text, its linked KB
/// nodes, and an absolute completion deadline (use [`Deadline::NONE`]
/// for best-effort requests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRequest {
    /// The raw query text.
    pub text: String,
    /// KB nodes the entity linker resolved from the text.
    pub nodes: Vec<ArticleId>,
    /// Completion deadline on the service's injected clock.
    pub deadline: Deadline,
}

/// The concurrent SQE query service: [`SqePipeline`](crate::pipeline::SqePipeline) semantics behind an
/// expansion cache, a work-stealing batch executor, live ingestion, and
/// latency metrics.
///
/// # Live ingestion
///
/// The service owns a [`SegmentedIndex`]: [`QueryService::add_document`]
/// feeds its buffer (invisible to queries), [`QueryService::seal`]
/// freezes the buffer into a new immutable segment and atomically
/// publishes a refreshed [`Searcher`] view. Publication compares the
/// segment-set epoch, so each seal invalidates the expansion cache
/// **exactly once** — auto-merges triggered by the seal ride the same
/// epoch bump. Queries already in flight keep the view they started
/// with (a cheap `Arc` clone), so a seal never tears a batch.
pub struct QueryService<'a> {
    graph: &'a KbGraph,
    cfg: SqeConfig,
    serve_cfg: ServeConfig,
    /// Serializes maintenance (seal / force-merge) so expensive segment
    /// builds never race each other, while `live` stays free for
    /// ingestion. Lock order: `maint` → `live` → `view`, always.
    maint: Mutex<()>,
    /// The mutable corpus: sealed segments plus the live ingest buffer.
    /// Held only for cheap phases — segment builds and merges run on
    /// detached state (see [`QueryService::seal`]).
    live: Mutex<SegmentedIndex>,
    /// The published immutable view queries read (swapped on seal/merge).
    view: RwLock<Searcher>,
    cache: ExpansionCache,
    metrics: ServeMetrics,
    clock: Arc<dyn Clock>,
    /// Gatekeeper for the deadline-aware `serve*` entry points. Holds no
    /// clock of its own: every decision takes this service's clock
    /// reading as a parameter, keeping the whole path deterministic
    /// under a `ManualClock`.
    admission: AdmissionController,
}

impl<'a> QueryService<'a> {
    /// Creates a service with the no-op [`NullClock`] (counters work,
    /// latency histograms record zeros). The index is cloned in as
    /// segment 0 of the live corpus.
    pub fn new(graph: &'a KbGraph, index: &Index, cfg: SqeConfig, serve_cfg: ServeConfig) -> Self {
        QueryService::with_clock(graph, index, cfg, serve_cfg, Arc::new(NullClock))
    }

    /// Creates a service over a loaded binary snapshot — the cold-start
    /// path a restarting deployment takes. The snapshot's segments are
    /// adopted as-is (no merge, no re-analysis); the snapshot was fully
    /// verified and audited at decode time.
    pub fn from_snapshot(
        snapshot: &'a sqe_store::Snapshot,
        collection: &str,
        cfg: SqeConfig,
        serve_cfg: ServeConfig,
    ) -> Result<Self, sqe_store::StoreError> {
        let searcher = snapshot.searcher(collection)?;
        let live =
            SegmentedIndex::from_segments(searcher.analyzer().clone(), searcher.segments().to_vec());
        Ok(QueryService::from_segmented(snapshot.graph(), live, cfg, serve_cfg))
    }

    /// Creates a service with an injected clock — a `MonotonicClock` in
    /// the bench harness, a `ManualClock` in tests.
    pub fn with_clock(
        graph: &'a KbGraph,
        index: &Index,
        cfg: SqeConfig,
        serve_cfg: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        QueryService::from_segmented_with_clock(
            graph,
            SegmentedIndex::from_index(index.clone()),
            cfg,
            serve_cfg,
            clock,
        )
    }

    /// Creates a service over an existing segmented corpus (buffered
    /// documents stay buffered until the first [`QueryService::seal`]).
    pub fn from_segmented(
        graph: &'a KbGraph,
        live: SegmentedIndex,
        cfg: SqeConfig,
        serve_cfg: ServeConfig,
    ) -> Self {
        QueryService::from_segmented_with_clock(graph, live, cfg, serve_cfg, Arc::new(NullClock))
    }

    /// [`QueryService::from_segmented`] with an injected clock.
    pub fn from_segmented_with_clock(
        graph: &'a KbGraph,
        live: SegmentedIndex,
        cfg: SqeConfig,
        serve_cfg: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let view = live.searcher();
        #[cfg(all(debug_assertions, feature = "validate"))]
        {
            kbgraph::audit::GraphAudit::run(graph).assert_clean("QueryService");
            for seg in view.segments() {
                searchlite::audit::IndexAudit::run(seg.index()).assert_clean("QueryService");
            }
        }
        let cache = ExpansionCache::new(serve_cfg.cache_capacity);
        let metrics = ServeMetrics::new(serve_cfg.ladder.len());
        let admission = AdmissionController::new(serve_cfg.admission);
        QueryService {
            graph,
            cfg,
            serve_cfg,
            maint: Mutex::new(()),
            live: Mutex::new(live),
            view: RwLock::new(view),
            cache,
            metrics,
            clock,
            admission,
        }
    }

    /// Locks the maintenance mutex, serializing seal/merge against each
    /// other without blocking ingestion or queries. A poisoned lock means
    /// a previous maintenance op panicked mid-build; the corpus itself is
    /// still consistent (detached state was simply dropped), so proceed.
    fn maint_lock(&self) -> MutexGuard<'_, ()> {
        match self.maint.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Locks the live corpus; a poisoned mutex still yields usable state
    /// (the segmented index never holds partial updates across panics
    /// that matter to readers — sealed segments are immutable).
    fn live_lock(&self) -> MutexGuard<'_, SegmentedIndex> {
        match self.live.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Read-locks the published view.
    fn view_read(&self) -> RwLockReadGuard<'_, Searcher> {
        match self.view.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Swaps in a freshly published searcher. Invalidates the expansion
    /// cache exactly once per epoch advance: republishing the same epoch
    /// (or an older one) leaves the cache warm.
    fn publish(&self, searcher: Searcher) {
        let advanced = {
            let mut view = match self.view.write() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            let advanced = searcher.epoch() > view.epoch();
            if advanced || searcher.epoch() == view.epoch() {
                *view = searcher;
            }
            advanced
        };
        if advanced {
            self.cache.invalidate();
            self.metrics.invalidations.inc();
        }
    }

    /// The KB graph.
    pub fn graph(&self) -> &KbGraph {
        self.graph
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &SqeConfig {
        &self.cfg
    }

    /// The serving configuration.
    pub fn serve_config(&self) -> &ServeConfig {
        &self.serve_cfg
    }

    /// A clone of the currently published searcher view (cheap: one
    /// `Arc`). Queries served through it are stable across later seals.
    pub fn searcher(&self) -> Searcher {
        self.view_read().clone()
    }

    /// The segment-set epoch of the published view.
    pub fn epoch(&self) -> u64 {
        self.view_read().epoch()
    }

    /// Sealed segments visible to queries.
    pub fn num_segments(&self) -> usize {
        self.view_read().num_segments()
    }

    /// Documents waiting in the ingest buffer (invisible until sealed).
    pub fn num_buffered_docs(&self) -> usize {
        self.live_lock().num_buffered_docs()
    }

    // ------------------------------------------------------- ingestion --

    /// Adds a document to the live ingest buffer; it becomes searchable
    /// at the next [`QueryService::seal`]. Duplicate external ids are
    /// rejected against the whole corpus, sealed and buffered alike.
    pub fn add_document(&self, external_id: &str, text: &str) -> Result<DocId, IngestError> {
        let t0 = self.clock.now_nanos();
        let result = self.live_lock().add_document(external_id, text);
        if result.is_ok() {
            let t1 = self.clock.now_nanos();
            self.metrics.docs_ingested.inc();
            self.metrics.ingest.add.record(t1.saturating_sub(t0));
        }
        result
    }

    /// Seals the ingest buffer into a new immutable segment, runs the
    /// merge policy, and publishes the refreshed view. Returns `None`
    /// (and changes nothing) when the buffer is empty. The expansion
    /// cache is invalidated exactly once per successful seal.
    ///
    /// The expensive work — building the segment, running policy merges —
    /// happens on state detached from the `live` mutex, so concurrent
    /// `add_document` calls and queries never block behind it. Only the
    /// cheap begin/commit/install phases take the lock; `maint`
    /// serializes whole maintenance ops against each other, so the merge
    /// outcome is never stale.
    pub fn seal(&self) -> Option<SealReport> {
        let t0 = self.clock.now_nanos();
        let _maint = self.maint_lock();
        let pending = self.live_lock().begin_seal()?;
        // lint:allow(must-audit-after-mutation) — IndexAudit runs inside PendingSeal::build
        let built = pending.build();
        let (mut report, task) = {
            let mut live = self.live_lock();
            let report = live.commit_seal(built);
            (report, live.merge_task())
        };
        let outcome = task.run_policy();
        let searcher = {
            let mut live = self.live_lock();
            if let Some(merges) = live.install_merge(outcome) {
                report.merges = merges;
            }
            live.searcher()
        };
        self.publish(searcher);
        self.metrics.seals.inc();
        self.metrics
            .merges
            .add(u64::try_from(report.merges).expect("invariant: merge count fits in u64"));
        let t1 = self.clock.now_nanos();
        self.metrics.ingest.seal.record(t1.saturating_sub(t0));
        Some(report)
    }

    /// Compacts every sealed segment into one and publishes the merged
    /// view. Returns `false` (a no-op) with fewer than two segments.
    /// Like [`QueryService::seal`], the merge itself runs on a detached
    /// snapshot under `maint` only — the `live` mutex is held just to
    /// snapshot and to install the result.
    pub fn force_merge(&self) -> bool {
        let t0 = self.clock.now_nanos();
        let _maint = self.maint_lock();
        let task = self.live_lock().merge_task();
        let Some(outcome) = task.run_full() else {
            return false;
        };
        let searcher = {
            let mut live = self.live_lock();
            if live.install_merge(outcome).is_none() {
                // Unreachable while `maint` serializes maintenance, but a
                // stale outcome must never clobber a newer segment set.
                return false;
            }
            live.searcher()
        };
        self.publish(searcher);
        self.metrics.merges.inc();
        let t1 = self.clock.now_nanos();
        self.metrics.ingest.merge.record(t1.saturating_sub(t0));
        true
    }

    /// Converts hits to external document ids (against the currently
    /// published view).
    pub fn external_ids(&self, hits: &[SearchHit]) -> Vec<String> {
        let view = self.view_read();
        ids_of(&view, hits)
    }

    /// Bumps the cache generation: every cached expansion becomes stale.
    /// Call when the graph content behind the service changes out of
    /// band; seals and merges invalidate automatically.
    pub fn invalidate_cache(&self) {
        self.cache.invalidate();
        self.metrics.invalidations.inc();
    }

    /// Occupied cache entries (live and stale-but-unreclaimed).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Point-in-time copy of every metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot(self.cache.evictions(), self.epoch())
    }

    /// Zeroes counters and histograms without touching the cache: the
    /// bench harness resets between its cold and warm phases so the warm
    /// numbers are not polluted by cold-phase latencies.
    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }

    /// The expansion features for one query under one motif set:
    /// cache hit, or a fresh motif traversal that seeds the cache. Two
    /// workers racing on the same cold key both compute the same value,
    /// so the outcome is order-independent.
    fn expansions_for(
        &self,
        nodes: &[ArticleId],
        motifs: &MotifSet,
        scratch: &mut SqeScratch,
    ) -> CachedExpansions {
        let key = CacheKey::new(nodes, motifs.fingerprint());
        if let Some(hit) = self.cache.get(&key) {
            self.metrics.cache_hits.inc();
            return hit;
        }
        self.metrics.cache_misses.inc();
        let builder = QueryGraphBuilder::from_set(self.graph, motifs);
        let qg = builder.build_with_scratch(nodes, &mut scratch.qg);
        let expansions: CachedExpansions = Arc::new(qg.expansions);
        self.cache.insert(key, Arc::clone(&expansions));
        expansions
    }

    /// Expand + rank for one motif set, recording the two stage
    /// histograms but not the per-query totals (SQE_C runs this three
    /// times per query). `searcher` is the view pinned at query entry,
    /// so a concurrent seal cannot change the corpus mid-query.
    fn stage_run(
        &self,
        searcher: &Searcher,
        text: &str,
        nodes: &[ArticleId],
        motifs: &MotifSet,
        scratch: &mut SqeScratch,
    ) -> Vec<SearchHit> {
        let cfg = &self.cfg;
        let t0 = self.clock.now_nanos();
        let expansions = self.expansions_for(nodes, motifs, scratch);
        let t1 = self.clock.now_nanos();
        let query = expand::build_query(
            self.graph,
            text,
            nodes,
            &expansions,
            searcher.analyzer(),
            &cfg.expand,
        );
        let hits = ql::rank_with_scratch(searcher, &query, cfg.ql, cfg.depth, &mut scratch.ql);
        let t2 = self.clock.now_nanos();
        self.metrics.stages.expand.record(t1.saturating_sub(t0));
        self.metrics.stages.rank.record(t2.saturating_sub(t1));
        hits
    }

    /// Retrieval with an arbitrary [`MotifSet`] through the cache;
    /// identical output to [`crate::pipeline::SqePipeline::rank_sqe`].
    pub fn rank_sqe(&self, text: &str, nodes: &[ArticleId], motifs: &MotifSet) -> Vec<SearchHit> {
        let searcher = self.searcher();
        self.rank_sqe_with_scratch(&searcher, text, nodes, motifs, &mut SqeScratch::new())
    }

    fn rank_sqe_with_scratch(
        &self,
        searcher: &Searcher,
        text: &str,
        nodes: &[ArticleId],
        motifs: &MotifSet,
        scratch: &mut SqeScratch,
    ) -> Vec<SearchHit> {
        let t0 = self.clock.now_nanos();
        let hits = self.stage_run(searcher, text, nodes, motifs, scratch);
        let t1 = self.clock.now_nanos();
        self.metrics.stages.total.record(t1.saturating_sub(t0));
        self.metrics.queries.inc();
        hits
    }

    /// `SQE_C` rank-range combination through the cache; identical output
    /// to [`SqePipeline::rank_sqe_c`].
    pub fn rank_sqe_c(&self, text: &str, nodes: &[ArticleId]) -> Vec<String> {
        let searcher = self.searcher();
        self.rank_sqe_c_with_scratch(&searcher, text, nodes, &mut SqeScratch::new())
    }

    fn rank_sqe_c_with_scratch(
        &self,
        searcher: &Searcher,
        text: &str,
        nodes: &[ArticleId],
        scratch: &mut SqeScratch,
    ) -> Vec<String> {
        let t0 = self.clock.now_nanos();
        let t = self.stage_run(searcher, text, nodes, &MotifSet::triangular(), scratch);
        let ts = self.stage_run(searcher, text, nodes, &MotifSet::t_and_s(), scratch);
        let s = self.stage_run(searcher, text, nodes, &MotifSet::square(), scratch);
        let c0 = self.clock.now_nanos();
        let docs = combine::sqe_c(&doc_ids(&t), &doc_ids(&ts), &doc_ids(&s), self.cfg.depth);
        let ids = docs
            .into_iter()
            .map(|d| searcher.external_id(d).to_owned())
            .collect();
        let c1 = self.clock.now_nanos();
        self.metrics.stages.combine.record(c1.saturating_sub(c0));
        self.metrics.stages.total.record(c1.saturating_sub(t0));
        self.metrics.queries.inc();
        ids
    }

    /// Batch `SQE` retrieval over the configured worker pool; results
    /// keep input order and match [`crate::pipeline::SqePipeline::rank_sqe_many`]. The
    /// whole batch is served from one pinned view: a seal landing
    /// mid-batch affects the *next* batch, never this one.
    pub fn run_batch(
        &self,
        queries: &[(String, Vec<ArticleId>)],
        motifs: &MotifSet,
    ) -> Vec<Vec<SearchHit>> {
        let searcher = self.searcher();
        run_indexed(
            queries,
            self.serve_cfg.workers,
            SqeScratch::new,
            |(text, nodes), scratch| {
                self.rank_sqe_with_scratch(&searcher, text, nodes, motifs, scratch)
            },
        )
    }

    /// Batch `SQE_C` retrieval over the configured worker pool; results
    /// keep input order (same pinned-view guarantee as
    /// [`QueryService::run_batch`]).
    pub fn run_batch_sqe_c(&self, queries: &[(String, Vec<ArticleId>)]) -> Vec<Vec<String>> {
        let searcher = self.searcher();
        run_indexed(
            queries,
            self.serve_cfg.workers,
            SqeScratch::new,
            |(text, nodes), scratch| self.rank_sqe_c_with_scratch(&searcher, text, nodes, scratch),
        )
    }

    // ------------------------------------ admission & degraded serving --

    /// The admission controller guarding the `serve*` entry points.
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Asks the admission controller for a ticket at the current clock
    /// reading — the first thing that happens to a request, before any
    /// work is enqueued. Rejections are counted in `sheds`.
    pub fn admit(&self) -> Result<Ticket, ShedReason> {
        let decision = self.admission.try_admit(self.clock.now_nanos());
        if decision.is_err() {
            self.metrics.sheds.inc();
        }
        decision
    }

    /// Feeds one cost observation into the degraded-mode ladder's
    /// per-rung estimates — the same thing every served request does.
    /// Benchmarks and tests use this to prime the selector before the
    /// first real traffic arrives.
    pub fn record_ladder_cost(&self, rung: usize, nanos: u64) {
        self.metrics.ladder.record_cost(rung, nanos);
    }

    /// Admission-controlled, deadline-aware serve of one request:
    /// admit, pick the highest ladder rung that fits the remaining
    /// budget, execute it with deadline checks at stage boundaries.
    pub fn serve(
        &self,
        text: &str,
        nodes: &[ArticleId],
        deadline: Deadline,
    ) -> ServeOutcome<Vec<SearchHit>> {
        match self.admit() {
            Err(reason) => ServeOutcome::Shed(reason),
            Ok(ticket) => self.serve_admitted(ticket, text, nodes, deadline),
        }
    }

    /// Serves a request that already holds an admission ticket (the
    /// open-loop bench admits at arrival time on its dispatcher thread,
    /// then starts work on a pool thread).
    pub fn serve_admitted(
        &self,
        ticket: Ticket,
        text: &str,
        nodes: &[ArticleId],
        deadline: Deadline,
    ) -> ServeOutcome<Vec<SearchHit>> {
        let searcher = self.searcher();
        self.serve_admitted_with_scratch(
            &searcher,
            ticket,
            text,
            nodes,
            deadline,
            &mut SqeScratch::new(),
        )
    }

    fn serve_admitted_with_scratch(
        &self,
        searcher: &Searcher,
        ticket: Ticket,
        text: &str,
        nodes: &[ArticleId],
        deadline: Deadline,
        scratch: &mut SqeScratch,
    ) -> ServeOutcome<Vec<SearchHit>> {
        let now = self.clock.now_nanos();
        if let Err(reason) = self.admission.on_start(ticket, now) {
            self.metrics.sheds.inc();
            return ServeOutcome::Shed(reason);
        }
        let remaining = deadline.remaining(now);
        if remaining == Some(0) {
            self.metrics.deadline_exceeded.inc();
            return ServeOutcome::DeadlineExceeded(Stage::Queue);
        }
        let Some(rung) = select_rung(remaining, &self.metrics.ladder.cost_estimates()) else {
            self.metrics.sheds.inc();
            return ServeOutcome::Shed(ShedReason::BudgetExhausted);
        };
        self.run_rung(searcher, rung, text, nodes, deadline, scratch)
    }

    /// Runs one request at a forced ladder rung with no admission and no
    /// deadline — the calibration entry benchmarks use to measure (and
    /// prime, via the recorded cost histogram) per-rung costs.
    pub fn serve_at_rung(&self, rung: usize, text: &str, nodes: &[ArticleId]) -> Vec<SearchHit> {
        let searcher = self.searcher();
        self.run_rung(&searcher, rung, text, nodes, Deadline::NONE, &mut SqeScratch::new())
            .into_value()
            .unwrap_or_default()
    }

    /// Executes one ladder rung under `deadline`. The elapsed cost is
    /// recorded into the rung's histogram even when the deadline blows
    /// mid-run: a too-slow attempt is exactly the observation the
    /// estimator needs to stop selecting that rung.
    fn run_rung(
        &self,
        searcher: &Searcher,
        rung: usize,
        text: &str,
        nodes: &[ArticleId],
        deadline: Deadline,
        scratch: &mut SqeScratch,
    ) -> ServeOutcome<Vec<SearchHit>> {
        let rung_def = self
            .serve_cfg
            .ladder
            .rung(rung)
            .expect("invariant: rung index is within the configured ladder");
        let t0 = self.clock.now_nanos();
        let staged = match rung_def.motifs() {
            Some(motifs) => {
                self.stage_run_deadline(searcher, text, nodes, motifs, deadline, scratch)
            }
            None => {
                // No expansion: rank the user part of the query directly
                // (the paper's unexpanded QL baseline).
                let query = expand::user_part(text, searcher.analyzer());
                let hits =
                    ql::rank_with_scratch(searcher, &query, self.cfg.ql, self.cfg.depth, &mut scratch.ql);
                let t1 = self.clock.now_nanos();
                self.metrics.stages.rank.record(t1.saturating_sub(t0));
                Ok(hits)
            }
        };
        let t1 = self.clock.now_nanos();
        let elapsed = t1.saturating_sub(t0);
        self.metrics.ladder.record_cost(rung, elapsed);
        self.metrics.stages.total.record(elapsed);
        self.metrics.queries.inc();
        let hits = match staged {
            Ok(hits) => hits,
            Err(stage) => {
                self.metrics.deadline_exceeded.inc();
                return ServeOutcome::DeadlineExceeded(stage);
            }
        };
        if deadline.expired(t1) {
            self.metrics.deadline_exceeded.inc();
            return ServeOutcome::DeadlineExceeded(Stage::Rank);
        }
        if let Some(counter) = self.metrics.ladder.served.get(rung) {
            counter.inc();
        }
        if rung == 0 {
            ServeOutcome::Ok(hits)
        } else {
            ServeOutcome::Degraded(RungId::new(rung, Arc::clone(rung_def.name())), hits)
        }
    }

    /// [`QueryService::stage_run`] with a deadline check between the
    /// expand and rank stages: when expansion alone blows the deadline,
    /// ranking is skipped entirely.
    #[allow(clippy::too_many_arguments)]
    fn stage_run_deadline(
        &self,
        searcher: &Searcher,
        text: &str,
        nodes: &[ArticleId],
        motifs: &MotifSet,
        deadline: Deadline,
        scratch: &mut SqeScratch,
    ) -> Result<Vec<SearchHit>, Stage> {
        let cfg = &self.cfg;
        let t0 = self.clock.now_nanos();
        let expansions = self.expansions_for(nodes, motifs, scratch);
        let t1 = self.clock.now_nanos();
        self.metrics.stages.expand.record(t1.saturating_sub(t0));
        if deadline.expired(t1) {
            return Err(Stage::Expand);
        }
        let query = expand::build_query(
            self.graph,
            text,
            nodes,
            &expansions,
            searcher.analyzer(),
            &cfg.expand,
        );
        let hits = ql::rank_with_scratch(searcher, &query, cfg.ql, cfg.depth, &mut scratch.ql);
        let t2 = self.clock.now_nanos();
        self.metrics.stages.rank.record(t2.saturating_sub(t1));
        Ok(hits)
    }

    /// Admission-controlled batch serving. Admission decisions are taken
    /// in a **sequential pre-pass in input order on the caller's
    /// thread**: queue-bound and token-bucket state evolve with arrival
    /// order alone, never with worker scheduling, so for a fixed clock
    /// schedule the outcome sequence is byte-identical at any worker
    /// count (the determinism wall in `tests/serve_determinism.rs`
    /// enforces this). Execution then fans out over the worker pool into
    /// order-preserving slots, same as [`QueryService::run_batch`].
    pub fn serve_batch(&self, requests: &[ServeRequest]) -> Vec<ServeOutcome<Vec<SearchHit>>> {
        let searcher = self.searcher();
        let plans: Vec<(usize, Result<Ticket, ShedReason>)> = requests
            .iter()
            .enumerate()
            .map(|(i, _)| (i, self.admit()))
            .collect();
        run_indexed(
            &plans,
            self.serve_cfg.workers,
            SqeScratch::new,
            |(i, plan), scratch| {
                let req = requests
                    .get(*i)
                    .expect("invariant: plans index requests one-to-one");
                match plan {
                    Err(reason) => ServeOutcome::Shed(*reason),
                    Ok(ticket) => self.serve_admitted_with_scratch(
                        &searcher,
                        *ticket,
                        &req.text,
                        &req.nodes,
                        req.deadline,
                        scratch,
                    ),
                }
            },
        )
    }
}

/// The doc ids of `hits`, in rank order: what `SQE_C` combines on, so
/// only the combined list is mapped to external ids.
pub(crate) fn doc_ids(hits: &[SearchHit]) -> Vec<DocId> {
    hits.iter().map(|h| h.doc).collect()
}

/// External ids of `hits` against one pinned searcher view.
fn ids_of(searcher: &Searcher, hits: &[SearchHit]) -> Vec<String> {
    hits.iter()
        .map(|h| searcher.external_id(h.doc).to_owned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ManualClock;
    use crate::pipeline::SqePipeline;
    use kbgraph::GraphBuilder;
    use searchlite::{Analyzer, IndexBuilder};

    fn world() -> (KbGraph, Index, ArticleId) {
        let mut b = GraphBuilder::new();
        let cable = b.add_article("cable car");
        let funi = b.add_article("funicular");
        let cat = b.add_category("mountain railways");
        b.add_mutual_link(cable, funi);
        b.add_membership(cable, cat);
        b.add_membership(funi, cat);
        let graph = b.build();

        let mut ib = IndexBuilder::new(Analyzer::plain());
        ib.add_document("d-cable-0", "cable car climbing the peak").expect("unique test ids");
        ib.add_document("d-funi-0", "old funicular near the village").expect("unique test ids");
        ib.add_document("d-funi-1", "the funicular station entrance").expect("unique test ids");
        ib.add_document("d-noise-0", "a market square with fruit").expect("unique test ids");
        let index = ib.build();
        (graph, index, cable)
    }

    fn queries(cable: ArticleId) -> Vec<(String, Vec<ArticleId>)> {
        vec![
            ("cable car".into(), vec![cable]),
            ("funicular station".into(), vec![cable]),
            ("market fruit".into(), vec![]),
            ("cable car".into(), vec![cable]), // repeat: cache hit
        ]
    }

    #[test]
    fn run_indexed_keeps_input_order_at_any_worker_count() {
        let items: Vec<u32> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3).collect();
        for workers in [0, 1, 2, 8, 64] {
            let got = run_indexed(&items, workers, || (), |&x, ()| u64::from(x) * 3);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn run_indexed_empty_and_singleton() {
        let none: Vec<u8> = Vec::new();
        assert!(run_indexed(&none, 4, || (), |&x, ()| x).is_empty());
        assert_eq!(run_indexed(&[9u8], 4, || (), |&x, ()| x), vec![9]);
    }

    #[test]
    fn run_indexed_scratch_is_per_worker_state() {
        // Scratch values accumulate across items without cross-talk: the
        // per-item result only depends on the item, never on scheduling.
        let items: Vec<u32> = (0..16).collect();
        let got = run_indexed(
            &items,
            4,
            Vec::<u32>::new,
            |&x, scratch: &mut Vec<u32>| {
                scratch.push(x);
                x + 1
            },
        );
        assert_eq!(got, (1..=16).collect::<Vec<u32>>());
    }

    #[test]
    fn service_matches_pipeline_for_each_motif_config() {
        let (graph, index, cable) = world();
        let pipeline = SqePipeline::from_index(&graph, &index, SqeConfig::default());
        let service = QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        for motifs in [MotifSet::triangular(), MotifSet::square(), MotifSet::t_and_s()] {
            for (text, nodes) in queries(cable) {
                let want = pipeline.rank_sqe(&text, &nodes, &motifs).0;
                // Twice: cold then warm cache.
                assert_eq!(service.rank_sqe(&text, &nodes, &motifs), want);
                assert_eq!(service.rank_sqe(&text, &nodes, &motifs), want);
            }
        }
    }

    #[test]
    fn service_sqe_c_matches_pipeline() {
        let (graph, index, cable) = world();
        let pipeline = SqePipeline::from_index(&graph, &index, SqeConfig::default());
        let service = QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        for (text, nodes) in queries(cable) {
            let want = pipeline.rank_sqe_c(&text, &nodes);
            assert_eq!(service.rank_sqe_c(&text, &nodes), want);
            assert_eq!(service.rank_sqe_c(&text, &nodes), want, "warm");
        }
    }

    #[test]
    fn batch_matches_sequential_at_every_worker_count() {
        let (graph, index, cable) = world();
        let pipeline = SqePipeline::from_index(&graph, &index, SqeConfig::default());
        let qs = queries(cable);
        let want: Vec<Vec<SearchHit>> = qs
            .iter()
            .map(|(text, nodes)| pipeline.rank_sqe(text, nodes, &MotifSet::t_and_s()).0)
            .collect();
        for workers in [1, 2, 8] {
            let serve_cfg = ServeConfig {
                workers,
                ..ServeConfig::default()
            };
            let service = QueryService::new(&graph, &index, SqeConfig::default(), serve_cfg);
            assert_eq!(service.run_batch(&qs, &MotifSet::t_and_s()), want, "cold workers={workers}");
            assert_eq!(service.run_batch(&qs, &MotifSet::t_and_s()), want, "warm workers={workers}");
        }
    }

    #[test]
    fn cache_counters_track_hits_and_misses() {
        let (graph, index, cable) = world();
        let service = QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        let qs = queries(cable);
        service.run_batch(&qs, &MotifSet::triangular());
        let snap = service.metrics_snapshot();
        // 4 queries but only 2 distinct keys: the key is the node set +
        // motif config, so the three `[cable]` queries share one entry
        // regardless of their text.
        assert_eq!(snap.queries, 4);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.cache_hits, 2);
        service.run_batch(&qs, &MotifSet::triangular());
        let snap = service.metrics_snapshot();
        assert_eq!(snap.cache_misses, 2, "second pass is fully warm");
        assert_eq!(snap.cache_hits, 6);
        assert!(snap.cache_hit_rate > 0.7);
    }

    #[test]
    fn invalidation_forces_recompute() {
        let (graph, index, cable) = world();
        let service = QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        let hits = service.rank_sqe("cable car", &[cable], &MotifSet::triangular());
        service.invalidate_cache();
        assert_eq!(service.rank_sqe("cable car", &[cable], &MotifSet::triangular()), hits);
        let snap = service.metrics_snapshot();
        assert_eq!(snap.cache_misses, 2, "post-invalidation lookup misses");
        assert_eq!(snap.invalidations, 1);
    }

    #[test]
    fn zero_capacity_cache_still_serves_correctly() {
        let (graph, index, cable) = world();
        let pipeline = SqePipeline::from_index(&graph, &index, SqeConfig::default());
        let serve_cfg = ServeConfig {
            workers: 1,
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        let service = QueryService::new(&graph, &index, SqeConfig::default(), serve_cfg);
        for _ in 0..2 {
            assert_eq!(
                service.rank_sqe("cable car", &[cable], &MotifSet::t_and_s()),
                pipeline.rank_sqe("cable car", &[cable], &MotifSet::t_and_s()).0
            );
        }
        let snap = service.metrics_snapshot();
        assert_eq!(snap.cache_hits, 0, "capacity 0 never hits");
        assert_eq!(snap.cache_misses, 2);
    }

    #[test]
    fn manual_clock_drives_stage_histograms() {
        let (graph, index, cable) = world();
        let clock = Arc::new(ManualClock::new());
        // Tick 100ns at every read. One rank_sqe reads five times (outer
        // t0, stage t0/t1/t2, outer t1): expand = 100, rank = 100,
        // total = 400 (spans the four inner ticks).
        struct Ticking(Arc<ManualClock>);
        impl Clock for Ticking {
            fn now_nanos(&self) -> u64 {
                self.0.advance(100);
                self.0.now_nanos()
            }
        }
        let service = QueryService::with_clock(
            &graph,
            &index,
            SqeConfig::default(),
            ServeConfig::default(),
            Arc::new(Ticking(Arc::clone(&clock))),
        );
        service.rank_sqe("cable car", &[cable], &MotifSet::triangular());
        let snap = service.metrics_snapshot();
        let stage = |i: usize| snap.stages.get(i).copied().expect("four stages");
        assert_eq!(stage(0).count, 1); // expand
        assert_eq!(stage(0).sum_nanos, 100);
        assert_eq!(stage(1).sum_nanos, 100); // rank
        assert_eq!(stage(3).sum_nanos, 400); // total spans 4 ticks
        assert_eq!(stage(2).count, 0, "no combine stage for plain SQE");
    }

    #[test]
    fn seal_publishes_and_invalidates_exactly_once() {
        let (graph, index, cable) = world();
        let service = QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        assert_eq!(service.epoch(), 0);
        assert_eq!(service.num_segments(), 1);

        // Warm the cache, then ingest: the buffered doc stays invisible.
        let before = service.rank_sqe("funicular", &[cable], &MotifSet::triangular());
        service
            .add_document("d-funi-2", "a brand new funicular carriage")
            .expect("fresh external id");
        assert_eq!(service.num_buffered_docs(), 1);
        assert_eq!(service.searcher().num_docs(), 4);
        assert_eq!(
            service.rank_sqe("funicular", &[cable], &MotifSet::triangular()),
            before,
            "buffered documents must not affect results"
        );

        // Seal: one epoch bump, one invalidation, doc becomes visible.
        let report = service.seal().expect("non-empty buffer seals");
        assert_eq!(report.epoch, 1);
        assert_eq!(service.epoch(), 1);
        assert_eq!(service.num_buffered_docs(), 0);
        assert_eq!(service.searcher().num_docs(), 5);
        let snap = service.metrics_snapshot();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.docs_ingested, 1);
        assert_eq!(snap.seals, 1);
        assert_eq!(snap.invalidations, 1, "exactly one invalidation per seal");
        assert_eq!(snap.ingest[0].count, 1, "one add recorded");
        assert_eq!(snap.ingest[1].count, 1, "one seal recorded");

        // The post-seal query sees the new doc and recomputes expansions.
        let after = service.rank_sqe("funicular", &[cable], &MotifSet::triangular());
        assert_eq!(after.len(), before.len() + 1);
        assert!(service.external_ids(&after).contains(&"d-funi-2".to_owned()));

        // Empty-buffer seal: no epoch bump, no invalidation.
        assert!(service.seal().is_none());
        let snap = service.metrics_snapshot();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.invalidations, 1, "no-op seal must not invalidate");

        // Duplicate ids are rejected against the sealed corpus.
        assert!(service.add_document("d-funi-2", "again").is_err());
        assert_eq!(service.metrics_snapshot().docs_ingested, 1);
    }

    #[test]
    fn force_merge_compacts_without_changing_results() {
        let (graph, index, cable) = world();
        let service = QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        // Two seals on top of segment 0 → 3 segments (default merge
        // factor 4 leaves them unmerged).
        for (id, text) in [
            ("d-extra-0", "another cable car story"),
            ("d-extra-1", "the funicular opens at dawn"),
        ] {
            service.add_document(id, text).expect("fresh external id");
            service.seal().expect("seals");
        }
        assert_eq!(service.num_segments(), 3);
        let before = service.rank_sqe("cable car funicular", &[cable], &MotifSet::triangular());
        let epoch_before = service.epoch();

        assert!(service.force_merge());
        assert_eq!(service.num_segments(), 1);
        assert_eq!(service.epoch(), epoch_before + 1);
        let after = service.rank_sqe("cable car funicular", &[cable], &MotifSet::triangular());
        assert_eq!(before, after, "merge must not change scores or order");
        let snap = service.metrics_snapshot();
        assert_eq!(snap.merges, 1);
        assert_eq!(snap.ingest[2].count, 1, "one merge recorded");
        assert!(!service.force_merge(), "single segment: no-op");
        assert_eq!(snap.epoch, service.epoch(), "no-op merge keeps the epoch");
    }

    #[test]
    fn serve_unbounded_matches_rank_sqe_full() {
        let (graph, index, cable) = world();
        let service = QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        let want = service.rank_sqe("cable car", &[cable], &MotifSet::t_and_s());
        match service.serve("cable car", &[cable], Deadline::NONE) {
            ServeOutcome::Ok(hits) => assert_eq!(hits, want),
            other => panic!("expected Ok, got {}", other.label()),
        }
        let snap = service.metrics_snapshot();
        assert_eq!(snap.ladder_served, [1, 0, 0]);
        assert_eq!(snap.sheds, 0);
    }

    #[test]
    fn ladder_selection_degrades_with_budget() {
        let (graph, index, cable) = world();
        let clock = Arc::new(ManualClock::new());
        let service = QueryService::with_clock(
            &graph,
            &index,
            SqeConfig::default(),
            ServeConfig::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        // Prime per-rung cost estimates: full 10µs, triangular 4µs,
        // unexpanded 1µs. (The frozen clock records no real costs, so
        // these stay authoritative.)
        service.record_ladder_cost(0, 10_000);
        service.record_ladder_cost(1, 4_000);
        service.record_ladder_cost(2, 1_000);
        // Estimates are bucket upper bounds, so re-read them to pick
        // budgets on either side of each rung.
        let est: Vec<u64> = service
            .metrics_snapshot()
            .ladder_cost
            .iter()
            .map(|h| h.p99_nanos)
            .collect();
        let serve_with = |budget: u64| {
            service
                .serve("cable car", &[cable], Deadline::within(clock.now_nanos(), budget))
                .label()
        };
        assert_eq!(serve_with(est[0] + 1), "ok");
        assert_eq!(serve_with(est[0]), "ok", "exact fit still takes the rung");
        assert_eq!(serve_with(est[1]), "degraded:triangular");
        assert_eq!(serve_with(est[2]), "degraded:unexpanded");
        assert_eq!(serve_with(est[2] - 1), "shed:budget_exhausted");
        assert_eq!(serve_with(0), "deadline:queue", "zero budget is dead on arrival");
        let snap = service.metrics_snapshot();
        assert_eq!(snap.ladder_served, [2, 1, 1]);
        assert_eq!(snap.sheds, 1);
        assert_eq!(snap.deadline_exceeded, 1);
    }

    #[test]
    fn queue_and_rate_sheds_are_deterministic() {
        let (graph, index, cable) = world();
        let clock = Arc::new(ManualClock::new());
        let serve_cfg = ServeConfig {
            admission: AdmissionConfig {
                queue_capacity: 2,
                rate_per_sec: 10,
                burst: 2,
                ..AdmissionConfig::unlimited()
            },
            ..ServeConfig::default()
        };
        let service = QueryService::with_clock(
            &graph,
            &index,
            SqeConfig::default(),
            serve_cfg,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        // Two tokens, two queue slots: third admit sheds on the queue
        // bound (checked first).
        let a = service.admit().expect("invariant: first admit fits");
        let _b = service.admit().expect("invariant: second admit fits");
        assert_eq!(service.admit(), Err(ShedReason::QueueFull));
        // Starting one frees its slot, but the bucket is empty now.
        let out = service.serve_admitted(a, "cable car", &[cable], Deadline::NONE);
        assert_eq!(out.label(), "ok");
        assert_eq!(service.admit(), Err(ShedReason::RateLimited));
        // 100ms at 10/s refills one token.
        clock.advance(100_000_000);
        assert!(service.admit().is_ok());
        assert_eq!(service.metrics_snapshot().sheds, 2);
    }

    #[test]
    fn deadline_blows_at_expand_boundary_with_ticking_clock() {
        let (graph, index, cable) = world();
        let clock = Arc::new(ManualClock::new());
        struct Ticking(Arc<ManualClock>);
        impl Clock for Ticking {
            fn now_nanos(&self) -> u64 {
                self.0.advance(100);
                self.0.now_nanos()
            }
        }
        let service = QueryService::with_clock(
            &graph,
            &index,
            SqeConfig::default(),
            ServeConfig::default(),
            Arc::new(Ticking(Arc::clone(&clock))),
        );
        // Every clock read ticks 100ns. A 150ns budget survives the
        // queue check but is expired by the post-expand read; a 10µs
        // budget survives the whole pipeline.
        let t = service.admit().expect("invariant: unlimited admission");
        let out = service.serve_admitted(t, "cable car", &[cable], Deadline::within(clock.now_nanos(), 150));
        assert_eq!(out.label(), "deadline:expand");
        let t = service.admit().expect("invariant: unlimited admission");
        let out = service.serve_admitted(t, "cable car", &[cable], Deadline::within(clock.now_nanos(), 10_000));
        assert_eq!(out.label(), "ok");
        let snap = service.metrics_snapshot();
        assert_eq!(snap.deadline_exceeded, 1);
        // The blown attempt still recorded a full-rung cost observation.
        assert_eq!(snap.ladder_cost[0].count, 2);
    }

    #[test]
    fn serve_batch_outcomes_identical_across_worker_counts() {
        let (graph, index, cable) = world();
        let requests: Vec<ServeRequest> = (0..12)
            .map(|i| ServeRequest {
                text: "cable car".to_owned(),
                nodes: vec![cable],
                deadline: if i % 3 == 2 { Deadline::at(0) } else { Deadline::NONE },
            })
            .collect();
        let mut reference: Option<Vec<String>> = None;
        for workers in [1, 2, 8] {
            let serve_cfg = ServeConfig {
                workers,
                admission: AdmissionConfig {
                    queue_capacity: 5,
                    ..AdmissionConfig::unlimited()
                },
                ..ServeConfig::default()
            };
            let service = QueryService::new(&graph, &index, SqeConfig::default(), serve_cfg);
            let labels: Vec<String> =
                service.serve_batch(&requests).iter().map(|o| o.label()).collect();
            // NullClock: every deadline of 0 at now=0 has remaining 0.
            assert!(labels.iter().any(|l| l == "shed:queue_full"));
            assert!(labels.iter().any(|l| l == "deadline:queue"));
            assert!(labels.iter().any(|l| l == "ok"));
            match &reference {
                None => reference = Some(labels),
                Some(want) => assert_eq!(&labels, want, "workers={workers}"),
            }
        }
    }

    #[test]
    fn batch_pins_view_across_concurrent_seal() {
        // run_batch clones the view once: results match the pre-seal
        // corpus even if a seal lands between construction and the batch.
        let (graph, index, cable) = world();
        let service = QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        let qs = queries(cable);
        let want = service.run_batch(&qs, &MotifSet::triangular());
        service.add_document("d-late-0", "late funicular arrival").expect("fresh");
        // The searcher grabbed before the seal keeps serving the old corpus.
        let pinned = service.searcher();
        service.seal().expect("seals");
        assert_eq!(pinned.num_docs(), 4, "pinned view is immutable");
        assert_eq!(service.searcher().num_docs(), 5);
        let again = service.run_batch(&qs, &MotifSet::triangular());
        // Ranked lists may grow by the new doc but the old docs' relative
        // order is stable; spot-check the first query's top hit.
        let top_before = want[0].first().map(|h| h.doc);
        let top_after = again[0].first().map(|h| h.doc);
        assert_eq!(top_before, top_after, "top hit survives the seal");
    }
}
