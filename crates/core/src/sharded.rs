//! Sharded scatter-gather serving: N independent shards behind one
//! service, bit-identical to a single-shard build.
//!
//! [`ShardedService`] routes every document to one of N shards by a
//! deterministic hash of its external id ([`ShardRouter`]); each shard
//! is its own [`SegmentedIndex`] with its own seal/merge lifecycle and
//! its own published [`Searcher`] view. A query is *scattered*: each
//! shard resolves it locally and reports integer statistic
//! contributions; the *gather* step sums those integers into the exact
//! global statistics a monolithic index would hold, derives the f64
//! smoothing terms once, scores per shard, and merges the per-shard
//! top-k lists under the `scorecmp` total order (see
//! [`searchlite::shard`]). Run files written from the merged ranking
//! are therefore byte-identical for any shard count and any routing.
//!
//! # Identity of results
//!
//! Hits carry the **global ingest ordinal** as their [`DocId`]: the
//! position the document would occupy in a monolithic build ingesting
//! the same sequence. Per-shard local ids are monotone in that ordinal
//! (documents append in arrival order), so per-shard top-k lists mapped
//! through each shard's ordinal table merge into exactly the monolithic
//! top-k, ties and all.
//!
//! # Epoch vector
//!
//! Each shard publishes independently; [`ShardedService::epoch_vector`]
//! exposes the per-shard segment-set epochs. Sealing one shard bumps
//! exactly one vector entry and invalidates the shared expansion cache
//! exactly once — republishing an unchanged shard leaves the cache warm
//! (the same exactly-once contract [`QueryService`](crate::serve::QueryService) has, per shard).

use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};

use kbgraph::{ArticleId, KbGraph};
use searchlite::bm25::Bm25Params;
use searchlite::ql::{QlScratch, SearchHit};
use searchlite::shard::{
    bm25_global_stats, bm25_rank_shard, bm25_resolve_shard, merge_top_k, ql_global_pcs,
    ql_rank_shard, ql_resolve_shard, Bm25ShardResolve, QlShardResolve,
};
use searchlite::{Analyzer, DocId, IngestError, Query, SealReport, Searcher, SegmentedIndex, ShardRouter};
use sqe_admission::{
    select_rung, AdmissionController, Deadline, RungId, ServeOutcome, ShedReason, Stage, Ticket,
};

use crate::cache::{CacheKey, CachedExpansions, ExpansionCache};
use crate::combine;
use crate::expand;
use crate::metrics::{Clock, MetricsSnapshot, NullClock, ServeMetrics};
use crate::pipeline::{SqeConfig, SqeScratch};
use crate::query_graph::QueryGraphBuilder;
use crate::serve::{doc_ids, run_indexed, ServeConfig, ServeRequest};
use crate::spec::MotifSet;

/// The mutable side of a shard set: per-shard corpora plus the global
/// ordinal assignment. Lock order matches [`QueryService`](crate::serve::QueryService):
/// `maint` → `live` → `views`, always.
struct ShardedLive {
    shards: Vec<SegmentedIndex>,
    /// Per shard: local doc id → global ingest ordinal. Strictly
    /// increasing per shard (documents append in global arrival order).
    ordinals: Vec<Vec<u32>>,
    next_ordinal: u32,
}

/// One shard's published immutable view: a pinned [`Searcher`] plus the
/// ordinal table snapshot that maps its local doc ids to global
/// ordinals.
#[derive(Clone)]
struct ShardView {
    searcher: Searcher,
    ordinals: Arc<Vec<u32>>,
}

/// The sharded SQE query service: scatter-gather over N shards with
/// exact-integer global statistics, a shared expansion cache, the
/// work-stealing batch executor, and per-shard live ingestion.
pub struct ShardedService<'a> {
    graph: &'a KbGraph,
    cfg: SqeConfig,
    serve_cfg: ServeConfig,
    router: ShardRouter,
    /// Serializes maintenance (seals/merges) across all shards.
    maint: Mutex<()>,
    live: Mutex<ShardedLive>,
    /// The published per-shard views, swapped as one `Arc` so a query
    /// (or batch) pins a consistent shard set for its whole lifetime.
    views: RwLock<Arc<Vec<ShardView>>>,
    cache: ExpansionCache,
    metrics: ServeMetrics,
    clock: Arc<dyn Clock>,
    /// Gatekeeper for the deadline-aware `serve*` entry points; same
    /// clock-free, deterministic contract as the single-shard service.
    admission: AdmissionController,
}

impl<'a> ShardedService<'a> {
    /// Creates an empty service with `router.shards()` empty shards and
    /// the no-op [`NullClock`].
    pub fn new(
        graph: &'a KbGraph,
        analyzer: Analyzer,
        router: ShardRouter,
        cfg: SqeConfig,
        serve_cfg: ServeConfig,
    ) -> Self {
        ShardedService::with_clock(graph, analyzer, router, cfg, serve_cfg, Arc::new(NullClock))
    }

    /// [`ShardedService::new`] with an injected clock.
    pub fn with_clock(
        graph: &'a KbGraph,
        analyzer: Analyzer,
        router: ShardRouter,
        cfg: SqeConfig,
        serve_cfg: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let shards: Vec<SegmentedIndex> = (0..router.shards())
            .map(|_| SegmentedIndex::new(analyzer.clone()))
            .collect();
        let ordinals = vec![Vec::new(); shards.len()];
        ShardedService::from_shards_with_clock(graph, router, shards, ordinals, cfg, serve_cfg, clock)
    }

    /// Creates a service over existing per-shard corpora — the reopen
    /// path after loading one snapshot per shard. `ordinals` must map
    /// each shard's local doc ids to the global ingest ordinals of the
    /// original run (each vector strictly increasing); the caller
    /// recovers them from its ingest manifest. `shards` takes
    /// precedence over the router's count: the router is re-derived
    /// over `shards.len()` with the same salt.
    pub fn from_shards(
        graph: &'a KbGraph,
        router: ShardRouter,
        shards: Vec<SegmentedIndex>,
        ordinals: Vec<Vec<u32>>,
        cfg: SqeConfig,
        serve_cfg: ServeConfig,
    ) -> Self {
        ShardedService::from_shards_with_clock(
            graph,
            router,
            shards,
            ordinals,
            cfg,
            serve_cfg,
            Arc::new(NullClock),
        )
    }

    /// [`ShardedService::from_shards`] with an injected clock.
    pub fn from_shards_with_clock(
        graph: &'a KbGraph,
        router: ShardRouter,
        mut shards: Vec<SegmentedIndex>,
        mut ordinals: Vec<Vec<u32>>,
        cfg: SqeConfig,
        serve_cfg: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        if shards.is_empty() {
            // Degenerate input: serve an empty single-shard corpus
            // rather than a service that cannot answer anything.
            shards.push(SegmentedIndex::new(Analyzer::english()));
        }
        ordinals.resize(shards.len(), Vec::new());
        let router = ShardRouter::with_salt(shards.len(), router.salt());
        let next_ordinal = ordinals
            .iter()
            .flat_map(|o| o.iter().copied())
            .max()
            .map_or(0, |m| m.saturating_add(1));
        let views: Vec<ShardView> = shards
            .iter()
            .zip(&ordinals)
            .map(|(shard, ords)| ShardView {
                searcher: shard.searcher(),
                ordinals: Arc::new(ords.clone()),
            })
            .collect();
        #[cfg(all(debug_assertions, feature = "validate"))]
        {
            kbgraph::audit::GraphAudit::run(graph).assert_clean("ShardedService");
            for view in &views {
                for seg in view.searcher.segments() {
                    searchlite::audit::IndexAudit::run(seg.index()).assert_clean("ShardedService");
                }
            }
        }
        let cache = ExpansionCache::new(serve_cfg.cache_capacity);
        let metrics = ServeMetrics::new(serve_cfg.ladder.len());
        let admission = AdmissionController::new(serve_cfg.admission);
        ShardedService {
            graph,
            cfg,
            serve_cfg,
            router,
            maint: Mutex::new(()),
            live: Mutex::new(ShardedLive {
                shards,
                ordinals,
                next_ordinal,
            }),
            views: RwLock::new(Arc::new(views)),
            cache,
            metrics,
            clock,
            admission,
        }
    }

    /// Reopens a sharded deployment from one store snapshot per shard
    /// (each holding the collection under `collection`); see
    /// [`ShardedService::from_shards`] for the `ordinals` contract.
    pub fn from_shard_snapshots(
        graph: &'a KbGraph,
        snapshots: &[sqe_store::Snapshot],
        collection: &str,
        router: ShardRouter,
        ordinals: Vec<Vec<u32>>,
        cfg: SqeConfig,
        serve_cfg: ServeConfig,
    ) -> Result<Self, sqe_store::StoreError> {
        let mut shards = Vec::with_capacity(snapshots.len());
        for snap in snapshots {
            let searcher = snap.searcher(collection)?;
            shards.push(SegmentedIndex::from_segments(
                searcher.analyzer().clone(),
                searcher.segments().to_vec(),
            ));
        }
        Ok(ShardedService::from_shards(
            graph, router, shards, ordinals, cfg, serve_cfg,
        ))
    }

    fn maint_lock(&self) -> MutexGuard<'_, ()> {
        match self.maint.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn live_lock(&self) -> MutexGuard<'_, ShardedLive> {
        match self.live.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn views_read(&self) -> RwLockReadGuard<'_, Arc<Vec<ShardView>>> {
        match self.views.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Pins the current shard set (one `Arc` clone).
    fn pinned_views(&self) -> Arc<Vec<ShardView>> {
        Arc::clone(&self.views_read())
    }

    /// Publishes a refreshed view for one shard. Invalidates the shared
    /// expansion cache exactly once per epoch advance of that shard;
    /// republishing the same epoch leaves the cache warm.
    fn publish_shard(&self, shard: usize, searcher: Searcher, ordinals: Arc<Vec<u32>>) {
        // The successor vector is built outside the write lock; the
        // maintenance mutex (held by the only caller, `seal_shard`)
        // serializes publishes, so no concurrent publish can be lost.
        let current = self.pinned_views();
        let mut next: Vec<ShardView> = current.as_ref().clone();
        let Some(slot) = next.get_mut(shard) else {
            return;
        };
        let advanced = searcher.epoch() > slot.searcher.epoch();
        if advanced || searcher.epoch() == slot.searcher.epoch() {
            *slot = ShardView { searcher, ordinals };
            let next = Arc::new(next);
            let mut views = match self.views.write() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            *views = next;
        }
        if advanced {
            self.cache.invalidate();
            self.metrics.invalidations.inc();
        }
    }

    // ----------------------------------------------------- accessors --

    /// The KB graph.
    pub fn graph(&self) -> &KbGraph {
        self.graph
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &SqeConfig {
        &self.cfg
    }

    /// The document router.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.router.shards()
    }

    /// The per-shard segment-set epochs of the published views. Sealing
    /// shard `s` bumps exactly entry `s`.
    pub fn epoch_vector(&self) -> Vec<u64> {
        self.views_read().iter().map(|v| v.searcher.epoch()).collect()
    }

    /// A pinned clone of one shard's published searcher.
    pub fn shard_searcher(&self, shard: usize) -> Option<Searcher> {
        self.views_read().get(shard).map(|v| v.searcher.clone())
    }

    /// One shard's local-id → global-ordinal table (pinned snapshot).
    pub fn shard_ordinals(&self, shard: usize) -> Option<Arc<Vec<u32>>> {
        self.views_read().get(shard).map(|v| Arc::clone(&v.ordinals))
    }

    /// Documents waiting in shard buffers (invisible until sealed).
    pub fn num_buffered_docs(&self) -> usize {
        self.live_lock().shards.iter().map(SegmentedIndex::num_buffered_docs).sum()
    }

    /// Searchable documents across all shards.
    pub fn num_docs(&self) -> usize {
        self.views_read().iter().map(|v| v.searcher.num_docs()).sum()
    }

    /// Occupied cache entries (live and stale-but-unreclaimed).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Bumps the cache generation out of band; seals invalidate
    /// automatically.
    pub fn invalidate_cache(&self) {
        self.cache.invalidate();
        self.metrics.invalidations.inc();
    }

    /// Point-in-time copy of every metric. The snapshot's scalar epoch
    /// is the *sum* of the epoch vector — monotone under any seal or
    /// merge on any shard.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let epoch: u64 = self.epoch_vector().iter().sum();
        self.metrics.snapshot(self.cache.evictions(), epoch)
    }

    /// Zeroes counters and histograms without touching the cache.
    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }

    // ----------------------------------------------------- ingestion --

    /// Routes the document to its shard and buffers it there; it becomes
    /// searchable when that shard seals. Returns the **global ingest
    /// ordinal** as the document id — the id a monolithic build would
    /// have assigned. Duplicate external ids are rejected across the
    /// *whole* deployment: the owning shard checks its own corpus, and
    /// every other shard is probed too, so an id that routed differently
    /// in a previous life (different shard count or salt) still cannot
    /// be ingested twice.
    pub fn add_document(&self, external_id: &str, text: &str) -> Result<DocId, IngestError> {
        let t0 = self.clock.now_nanos();
        let result = {
            let mut live = self.live_lock();
            let target = self.router.route(external_id);
            let ShardedLive {
                shards,
                ordinals,
                next_ordinal,
            } = &mut *live;
            let duplicate_elsewhere = shards
                .iter()
                .enumerate()
                .any(|(s, shard)| s != target && shard.contains_external_id(external_id));
            if duplicate_elsewhere {
                Err(IngestError::DuplicateExternalId {
                    external_id: external_id.to_owned(),
                })
            } else {
                let shard = shards
                    .get_mut(target)
                    .expect("invariant: router output bounded by shard count");
                shard.add_document(external_id, text).map(|_local| {
                    let global = *next_ordinal;
                    ordinals
                        .get_mut(target)
                        .expect("invariant: one ordinal table per shard")
                        .push(global);
                    *next_ordinal = next_ordinal.saturating_add(1);
                    DocId(global)
                })
            }
        };
        if result.is_ok() {
            let t1 = self.clock.now_nanos();
            self.metrics.docs_ingested.inc();
            self.metrics.ingest.add.record(t1.saturating_sub(t0));
        }
        result
    }

    /// Seals one shard's ingest buffer into a new immutable segment,
    /// runs that shard's merge policy, and publishes its refreshed view.
    /// Returns `None` (and changes nothing) when the buffer is empty or
    /// the shard index is out of range. Exactly one epoch-vector entry
    /// advances and the shared cache is invalidated exactly once.
    ///
    /// Split-phase like [`QueryService::seal`](crate::serve::QueryService::seal): segment builds and
    /// merges run on detached state, so ingestion into *other* shards
    /// and all queries proceed concurrently.
    pub fn seal_shard(&self, shard: usize) -> Option<SealReport> {
        let t0 = self.clock.now_nanos();
        let _maint = self.maint_lock();
        let pending = self.live_lock().shards.get_mut(shard)?.begin_seal()?;
        // lint:allow(must-audit-after-mutation) — IndexAudit runs inside PendingSeal::build
        let built = pending.build();
        let (mut report, task) = {
            let mut live = self.live_lock();
            let s = live
                .shards
                .get_mut(shard)
                .expect("invariant: shard index validated by begin_seal above");
            let report = s.commit_seal(built);
            (report, s.merge_task())
        };
        let outcome = task.run_policy();
        let (searcher, ords) = {
            let mut live = self.live_lock();
            let ords = live.ordinals.get(shard).cloned().unwrap_or_default();
            let s = live
                .shards
                .get_mut(shard)
                .expect("invariant: shard index validated by begin_seal above");
            if let Some(merges) = s.install_merge(outcome) {
                report.merges = merges;
            }
            (s.searcher(), ords)
        };
        self.publish_shard(shard, searcher, Arc::new(ords));
        self.metrics.seals.inc();
        self.metrics
            .merges
            .add(u64::try_from(report.merges).expect("invariant: merge count fits in u64"));
        let t1 = self.clock.now_nanos();
        self.metrics.ingest.seal.record(t1.saturating_sub(t0));
        Some(report)
    }

    /// Seals every shard with a non-empty buffer; returns how many
    /// sealed.
    pub fn seal_all(&self) -> usize {
        (0..self.num_shards())
            .filter(|&s| self.seal_shard(s).is_some())
            .count()
    }

    // ------------------------------------------------ scatter-gather --

    /// Scatter-gather QL over a raw structured query: phase-1 resolve on
    /// every shard, exact-integer gather, phase-2 scoring, ordinal
    /// mapping, `scorecmp` merge. Hit ids are global ingest ordinals.
    pub fn rank_ql(&self, query: &Query, k: usize) -> Vec<SearchHit> {
        let views = self.pinned_views();
        scatter_ql(&views, query, self.cfg.ql, k, &mut QlScratch::new())
    }

    /// Scatter-gather BM25 over a raw structured query (global `N`, df
    /// and avgdl from exact integer sums). Hit ids are global ordinals.
    pub fn rank_bm25(&self, query: &Query, params: Bm25Params, k: usize) -> Vec<SearchHit> {
        let views = self.pinned_views();
        let partials: Vec<Bm25ShardResolve> = views
            .iter()
            .map(|v| bm25_resolve_shard(&v.searcher, query))
            .collect();
        let globals = bm25_global_stats(&partials);
        let mut all: Vec<(u32, f64)> = Vec::new();
        for (view, partial) in views.iter().zip(&partials) {
            for (local, score) in bm25_rank_shard(&view.searcher, partial, &globals, params, k) {
                all.push((global_ordinal(view, local), score));
            }
        }
        merge_top_k(all, k)
    }

    /// External ids of `hits` (global-ordinal ids) against the current
    /// views.
    pub fn external_ids(&self, hits: &[SearchHit]) -> Vec<String> {
        let views = self.pinned_views();
        ids_of_sharded(&views, hits)
    }

    /// The expansion features for one query under one motif set —
    /// shared LRU cache, same key and same exactly-once invalidation
    /// semantics as the single-shard service.
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

    /// Expand + scatter-gather rank for one motif set against a
    /// pinned shard set.
    fn stage_run(
        &self,
        views: &[ShardView],
        text: &str,
        nodes: &[ArticleId],
        motifs: &MotifSet,
        scratch: &mut SqeScratch,
    ) -> Vec<SearchHit> {
        let cfg = &self.cfg;
        let t0 = self.clock.now_nanos();
        let expansions = self.expansions_for(nodes, motifs, scratch);
        let t1 = self.clock.now_nanos();
        let analyzer = views
            .first()
            .map(|v| v.searcher.analyzer())
            .expect("invariant: a sharded service always has at least one shard");
        let query = expand::build_query(self.graph, text, nodes, &expansions, analyzer, &cfg.expand);
        let hits = scatter_ql(views, &query, cfg.ql, cfg.depth, &mut scratch.ql);
        let t2 = self.clock.now_nanos();
        self.metrics.stages.expand.record(t1.saturating_sub(t0));
        self.metrics.stages.rank.record(t2.saturating_sub(t1));
        hits
    }

    /// Retrieval with an arbitrary [`MotifSet`], scattered across shards;
    /// byte-identical to the single-shard [`QueryService::rank_sqe`](crate::serve::QueryService::rank_sqe)
    /// modulo hit ids being global ordinals.
    pub fn rank_sqe(&self, text: &str, nodes: &[ArticleId], motifs: &MotifSet) -> Vec<SearchHit> {
        let views = self.pinned_views();
        self.rank_sqe_with_scratch(&views, text, nodes, motifs, &mut SqeScratch::new())
    }

    fn rank_sqe_with_scratch(
        &self,
        views: &[ShardView],
        text: &str,
        nodes: &[ArticleId],
        motifs: &MotifSet,
        scratch: &mut SqeScratch,
    ) -> Vec<SearchHit> {
        let t0 = self.clock.now_nanos();
        let hits = self.stage_run(views, text, nodes, motifs, scratch);
        let t1 = self.clock.now_nanos();
        self.metrics.stages.total.record(t1.saturating_sub(t0));
        self.metrics.queries.inc();
        hits
    }

    /// `SQE_C` rank-range combination, scattered across shards; the
    /// combined external-id list is byte-identical to the single-shard
    /// service.
    pub fn rank_sqe_c(&self, text: &str, nodes: &[ArticleId]) -> Vec<String> {
        let views = self.pinned_views();
        self.rank_sqe_c_with_scratch(&views, text, nodes, &mut SqeScratch::new())
    }

    fn rank_sqe_c_with_scratch(
        &self,
        views: &[ShardView],
        text: &str,
        nodes: &[ArticleId],
        scratch: &mut SqeScratch,
    ) -> Vec<String> {
        let t0 = self.clock.now_nanos();
        let t = self.stage_run(views, text, nodes, &MotifSet::triangular(), scratch);
        let ts = self.stage_run(views, text, nodes, &MotifSet::t_and_s(), scratch);
        let s = self.stage_run(views, text, nodes, &MotifSet::square(), scratch);
        let c0 = self.clock.now_nanos();
        let docs = combine::sqe_c(&doc_ids(&t), &doc_ids(&ts), &doc_ids(&s), self.cfg.depth);
        let ids = docs.into_iter().map(|d| external_id_sharded(views, d)).collect();
        let c1 = self.clock.now_nanos();
        self.metrics.stages.combine.record(c1.saturating_sub(c0));
        self.metrics.stages.total.record(c1.saturating_sub(t0));
        self.metrics.queries.inc();
        ids
    }

    /// Batch `SQE` retrieval over the configured worker pool. The whole
    /// batch pins one shard-set view: a seal landing mid-batch affects
    /// the next batch, never this one. Results keep input order.
    pub fn run_batch(
        &self,
        queries: &[(String, Vec<ArticleId>)],
        motifs: &MotifSet,
    ) -> Vec<Vec<SearchHit>> {
        let views = self.pinned_views();
        run_indexed(
            queries,
            self.serve_cfg.workers,
            SqeScratch::new,
            |(text, nodes), scratch| {
                self.rank_sqe_with_scratch(&views, text, nodes, motifs, scratch)
            },
        )
    }

    /// Batch `SQE_C` retrieval over the configured worker pool (same
    /// pinned-view guarantee as [`ShardedService::run_batch`]).
    pub fn run_batch_sqe_c(&self, queries: &[(String, Vec<ArticleId>)]) -> Vec<Vec<String>> {
        let views = self.pinned_views();
        run_indexed(
            queries,
            self.serve_cfg.workers,
            SqeScratch::new,
            |(text, nodes), scratch| self.rank_sqe_c_with_scratch(&views, text, nodes, scratch),
        )
    }

    // ------------------------------------ admission & degraded serving --

    /// The admission controller guarding the `serve*` entry points.
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Asks the admission controller for a ticket at the current clock
    /// reading; rejections are counted in `sheds`. Mirrors
    /// [`QueryService::admit`](crate::serve::QueryService::admit).
    pub fn admit(&self) -> Result<Ticket, ShedReason> {
        let decision = self.admission.try_admit(self.clock.now_nanos());
        if decision.is_err() {
            self.metrics.sheds.inc();
        }
        decision
    }

    /// Feeds one cost observation into the degraded-mode ladder's
    /// per-rung estimates (benchmarks prime the selector through this).
    pub fn record_ladder_cost(&self, rung: usize, nanos: u64) {
        self.metrics.ladder.record_cost(rung, nanos);
    }

    /// Admission-controlled, deadline-aware serve of one request across
    /// all shards; hit ids are global ingest ordinals.
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

    /// Serves a request that already holds an admission ticket.
    pub fn serve_admitted(
        &self,
        ticket: Ticket,
        text: &str,
        nodes: &[ArticleId],
        deadline: Deadline,
    ) -> ServeOutcome<Vec<SearchHit>> {
        let views = self.pinned_views();
        self.serve_admitted_with_scratch(&views, ticket, text, nodes, deadline, &mut SqeScratch::new())
    }

    fn serve_admitted_with_scratch(
        &self,
        views: &[ShardView],
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
        self.run_rung(views, rung, text, nodes, deadline, scratch)
    }

    /// Runs one request at a forced ladder rung with no admission and no
    /// deadline (the calibration entry; primes the cost estimates).
    pub fn serve_at_rung(&self, rung: usize, text: &str, nodes: &[ArticleId]) -> Vec<SearchHit> {
        let views = self.pinned_views();
        self.run_rung(&views, rung, text, nodes, Deadline::NONE, &mut SqeScratch::new())
            .into_value()
            .unwrap_or_default()
    }

    /// Executes one ladder rung under `deadline` against a pinned shard
    /// set; same recording contract as the single-shard service (blown
    /// attempts still record their cost).
    fn run_rung(
        &self,
        views: &[ShardView],
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
                self.stage_run_deadline(views, text, nodes, motifs, deadline, scratch)
            }
            None => {
                let analyzer = views
                    .first()
                    .map(|v| v.searcher.analyzer())
                    .expect("invariant: a sharded service always has at least one shard");
                let query = expand::user_part(text, analyzer);
                let hits =
                    scatter_ql(views, &query, self.cfg.ql, self.cfg.depth, &mut scratch.ql);
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

    /// [`ShardedService::stage_run`] with a deadline check between the
    /// expand and scatter-gather rank stages.
    #[allow(clippy::too_many_arguments)]
    fn stage_run_deadline(
        &self,
        views: &[ShardView],
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
        let analyzer = views
            .first()
            .map(|v| v.searcher.analyzer())
            .expect("invariant: a sharded service always has at least one shard");
        let query = expand::build_query(self.graph, text, nodes, &expansions, analyzer, &cfg.expand);
        let hits = scatter_ql(views, &query, cfg.ql, cfg.depth, &mut scratch.ql);
        let t2 = self.clock.now_nanos();
        self.metrics.stages.rank.record(t2.saturating_sub(t1));
        Ok(hits)
    }

    /// Admission-controlled batch serving across shards. Admission
    /// decisions run as a sequential pre-pass in input order on the
    /// caller's thread — identical contract to
    /// [`QueryService::serve_batch`](crate::serve::QueryService::serve_batch), so the outcome
    /// sequence is byte-identical at any worker count and any shard
    /// count for a fixed clock schedule.
    pub fn serve_batch(&self, requests: &[ServeRequest]) -> Vec<ServeOutcome<Vec<SearchHit>>> {
        let views = self.pinned_views();
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
                        &views,
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

/// Maps a shard-local doc id to its global ingest ordinal.
fn global_ordinal(view: &ShardView, local: u32) -> u32 {
    view.ordinals
        .get(local as usize)
        .copied()
        .expect("invariant: every searchable doc has a recorded global ordinal")
}

/// The full sharded QL pipeline over a pinned shard set: resolve on
/// every shard, gather exact-integer global stats, score per shard, map
/// to global ordinals, merge under the `scorecmp` total order.
fn scatter_ql(
    views: &[ShardView],
    query: &Query,
    params: searchlite::ql::QlParams,
    k: usize,
    scratch: &mut QlScratch,
) -> Vec<SearchHit> {
    let partials: Vec<QlShardResolve> = views
        .iter()
        .map(|v| ql_resolve_shard(&v.searcher, query, scratch.positional()))
        .collect();
    let pcs = ql_global_pcs(&partials);
    let mut all: Vec<(u32, f64)> = Vec::new();
    for (view, partial) in views.iter().zip(&partials) {
        for (local, score) in ql_rank_shard(&view.searcher, partial, &pcs, params, k, scratch) {
            all.push((global_ordinal(view, local), score));
        }
    }
    merge_top_k(all, k)
}

/// External ids of global-ordinal hits.
fn ids_of_sharded(views: &[ShardView], hits: &[SearchHit]) -> Vec<String> {
    hits.iter().map(|h| external_id_sharded(views, h.doc)).collect()
}

/// The external id of a global ordinal: each shard's ordinal table is
/// strictly increasing, so the owning shard is found by binary search.
fn external_id_sharded(views: &[ShardView], doc: DocId) -> String {
    views
        .iter()
        .find_map(|v| {
            v.ordinals.binary_search(&doc.0).ok().map(|local| {
                let local =
                    u32::try_from(local).expect("invariant: per-shard doc count fits in u32");
                v.searcher.external_id(DocId(local)).to_owned()
            })
        })
        .expect("invariant: hit ordinals originate from these views")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::QueryService;
    use kbgraph::GraphBuilder;
    use searchlite::bm25;
    use searchlite::ql::QlParams;
    use searchlite::{Index, IndexBuilder};

    const DOCS: [(&str, &str); 8] = [
        ("d-cable-0", "cable car climbing the peak"),
        ("d-funi-0", "old funicular near the village"),
        ("d-funi-1", "the funicular station entrance"),
        ("d-noise-0", "a market square with fruit"),
        ("d-cable-1", "cable car cables over the gorge"),
        ("d-funi-2", "funicular rails in the fog"),
        ("d-noise-1", "street art on the plaza walls"),
        ("d-mixed-0", "cable car to the funicular museum"),
    ];

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
        for (id, text) in DOCS {
            ib.add_document(id, text).expect("unique test ids");
        }
        (graph, ib.build(), cable)
    }

    fn queries(cable: ArticleId) -> Vec<(String, Vec<ArticleId>)> {
        vec![
            ("cable car".into(), vec![cable]),
            ("funicular station".into(), vec![cable]),
            ("market fruit".into(), vec![]),
            ("cable car".into(), vec![cable]), // repeat: cache hit
        ]
    }

    /// Builds a sharded service by routing DOCS and sealing every shard.
    fn sharded_service<'g>(
        graph: &'g KbGraph,
        shards: usize,
        salt: u64,
        workers: usize,
    ) -> ShardedService<'g> {
        let service = ShardedService::new(
            graph,
            Analyzer::plain(),
            ShardRouter::with_salt(shards, salt),
            SqeConfig::default(),
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        );
        for (id, text) in DOCS {
            service.add_document(id, text).expect("unique test ids");
        }
        service.seal_all();
        service
    }

    #[test]
    fn sharded_sqe_matches_single_shard_service_externally() {
        let (graph, index, cable) = world();
        let mono = QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        for shards in [1usize, 2, 3, 5] {
            let service = sharded_service(&graph, shards, 0, 1);
            for motifs in [MotifSet::triangular(), MotifSet::square(), MotifSet::t_and_s()] {
                for (text, nodes) in queries(cable) {
                    let want = mono.rank_sqe(&text, &nodes, &motifs);
                    let want_ids = mono.external_ids(&want);
                    let got = service.rank_sqe(&text, &nodes, &motifs);
                    let got_ids = service.external_ids(&got);
                    assert_eq!(got_ids, want_ids, "shards={shards} motifs={}", motifs.name());
                    let want_scores: Vec<f64> = want.iter().map(|h| h.score).collect();
                    let got_scores: Vec<f64> = got.iter().map(|h| h.score).collect();
                    assert_eq!(got_scores, want_scores, "scores must be bit-identical");
                    // Global-ordinal ids equal the monolithic doc ids.
                    let want_docs: Vec<u32> = want.iter().map(|h| h.doc.0).collect();
                    let got_docs: Vec<u32> = got.iter().map(|h| h.doc.0).collect();
                    assert_eq!(got_docs, want_docs, "ordinals must match monolithic ids");
                }
            }
        }
    }

    #[test]
    fn sharded_sqe_c_matches_single_shard_service() {
        let (graph, index, cable) = world();
        let mono = QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        for shards in [1usize, 2, 4] {
            let service = sharded_service(&graph, shards, 0xfeed, 1);
            for (text, nodes) in queries(cable) {
                let want = mono.rank_sqe_c(&text, &nodes);
                assert_eq!(service.rank_sqe_c(&text, &nodes), want, "shards={shards}");
                assert_eq!(service.rank_sqe_c(&text, &nodes), want, "warm");
            }
        }
    }

    #[test]
    fn batches_are_order_stable_at_any_worker_count() {
        let (graph, _, cable) = world();
        let reference = sharded_service(&graph, 3, 0, 1);
        let qs = queries(cable);
        let want = reference.run_batch_sqe_c(&qs);
        for workers in [1usize, 2, 8] {
            let service = sharded_service(&graph, 3, 0, workers);
            assert_eq!(service.run_batch_sqe_c(&qs), want, "cold workers={workers}");
            assert_eq!(service.run_batch_sqe_c(&qs), want, "warm workers={workers}");
        }
    }

    #[test]
    fn raw_ql_and_bm25_match_monolithic() {
        let (graph, index, _) = world();
        let mono = Searcher::from_index(index);
        let service = sharded_service(&graph, 4, 0xabc, 1);
        let a = Analyzer::plain();
        for text in ["cable car", "funicular fog", "plaza", "zeppelin"] {
            let q = Query::parse_text(text, &a);
            let want = searchlite::ql::rank(&mono, &q, QlParams::default(), 5);
            assert_eq!(service.rank_ql(&q, 5), want, "QL {text:?}");
            let want = bm25::rank(&mono, &q, Bm25Params::default(), 5);
            assert_eq!(service.rank_bm25(&q, Bm25Params::default(), 5), want, "BM25 {text:?}");
        }
    }

    #[test]
    fn seal_bumps_exactly_one_epoch_entry_and_invalidates_once() {
        let (graph, _, cable) = world();
        let service = sharded_service(&graph, 3, 0, 1);
        let before = service.epoch_vector();
        let warm = service.rank_sqe("funicular", &[cable], &MotifSet::triangular());

        // Route a new doc, find its shard, seal only that shard.
        let id = "d-late-0";
        let shard = service.router().route(id);
        service.add_document(id, "a late funicular arrival").expect("fresh id");
        assert_eq!(service.num_buffered_docs(), 1);
        assert_eq!(
            service.rank_sqe("funicular", &[cable], &MotifSet::triangular()),
            warm,
            "buffered documents must stay invisible"
        );
        let invalidations_before = service.metrics_snapshot().invalidations;
        service.seal_shard(shard).expect("non-empty buffer seals");
        let after = service.epoch_vector();
        let bumped: Vec<usize> = (0..after.len())
            .filter(|&i| after[i] != before[i])
            .collect();
        assert_eq!(bumped, vec![shard], "exactly the sealed shard's epoch advances");
        assert_eq!(
            service.metrics_snapshot().invalidations,
            invalidations_before + 1,
            "exactly one invalidation per seal"
        );
        // Sealing an empty buffer changes nothing.
        assert!(service.seal_shard(shard).is_none());
        assert_eq!(service.epoch_vector(), after);
        assert_eq!(service.metrics_snapshot().invalidations, invalidations_before + 1);
    }

    #[test]
    fn duplicate_ids_rejected_across_shards() {
        let (graph, _, _) = world();
        // Same-shard duplicate: caught by the owning shard.
        let service = sharded_service(&graph, 4, 0, 1);
        assert!(matches!(
            service.add_document("d-cable-0", "again"),
            Err(IngestError::DuplicateExternalId { .. })
        ));

        // Cross-shard duplicate: the doc sits in a shard the router no
        // longer maps its id to (a re-routed corpus — e.g. restored with
        // a different salt). The probe across all shards must still
        // reject it.
        let mut wrong = ShardRouter::with_salt(4, 0);
        let id = "d-cable-0";
        let home = wrong.route(id);
        // Find a salt under which the id routes elsewhere.
        for salt in 1..u64::MAX {
            wrong = ShardRouter::with_salt(4, salt);
            if wrong.route(id) != home {
                break;
            }
        }
        let mut shards: Vec<SegmentedIndex> =
            (0..4).map(|_| SegmentedIndex::new(Analyzer::plain())).collect();
        let mut ordinals: Vec<Vec<u32>> = vec![Vec::new(); 4];
        shards[home].add_document(id, "the original").expect("fresh id");
        shards[home].seal().expect("seals");
        ordinals[home].push(0);
        let service = ShardedService::from_shards(
            &graph,
            wrong,
            shards,
            ordinals,
            SqeConfig::default(),
            ServeConfig::default(),
        );
        assert_ne!(service.router().route(id), home, "test needs a re-routed id");
        assert!(
            matches!(
                service.add_document(id, "a doppelganger"),
                Err(IngestError::DuplicateExternalId { .. })
            ),
            "duplicate in a non-owning shard must still be rejected"
        );
        assert_eq!(service.metrics_snapshot().docs_ingested, 0);
    }

    #[test]
    fn batch_pins_shard_set_across_concurrent_seal() {
        let (graph, _, cable) = world();
        let service = sharded_service(&graph, 2, 0, 2);
        let qs = queries(cable);
        let want = service.run_batch(&qs, &MotifSet::triangular());
        service.add_document("d-late-1", "late cable car news").expect("fresh id");
        let pinned = service.pinned_views();
        service.seal_all();
        let docs: usize = pinned.iter().map(|v| v.searcher.num_docs()).sum();
        assert_eq!(docs, DOCS.len(), "pinned views are immutable");
        assert_eq!(service.num_docs(), DOCS.len() + 1);
        let again = service.run_batch(&qs, &MotifSet::triangular());
        let top_before = want[0].first().map(|h| h.doc);
        let top_after = again[0].first().map(|h| h.doc);
        assert_eq!(top_before, top_after, "top hit survives the seal");
    }

    #[test]
    fn sharded_serve_matches_mono_and_degrades_identically() {
        let (graph, index, cable) = world();
        let mono = QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        for shards in [1usize, 2, 4] {
            let service = sharded_service(&graph, shards, 0, 1);
            // Unbounded deadline serves full quality, matching rank_sqe.
            let want = service.rank_sqe("cable car", &[cable], &MotifSet::t_and_s());
            match service.serve("cable car", &[cable], Deadline::NONE) {
                ServeOutcome::Ok(hits) => {
                    assert_eq!(hits, want, "shards={shards}");
                    assert_eq!(
                        service.external_ids(&hits),
                        mono.external_ids(&mono.rank_sqe("cable car", &[cable], &MotifSet::t_and_s())),
                        "shards={shards}"
                    );
                }
                other => panic!("expected Ok, got {}", other.label()),
            }
            // Primed costs + tight budget degrade to the unexpanded rung,
            // whose output matches the mono service's unexpanded rung.
            service.record_ladder_cost(0, 10_000);
            service.record_ladder_cost(1, 4_000);
            service.record_ladder_cost(2, 1_000);
            match service.serve("cable car", &[cable], Deadline::within(0, 2_000)) {
                ServeOutcome::Degraded(rung, hits) => {
                    assert_eq!(rung.name(), "unexpanded", "shards={shards}");
                    let mono_hits = mono.serve_at_rung(2, "cable car", &[cable]);
                    assert_eq!(
                        service.external_ids(&hits),
                        mono.external_ids(&mono_hits),
                        "shards={shards}: unexpanded rung must match mono"
                    );
                }
                other => panic!("expected degraded:unexpanded, got {}", other.label()),
            }
            let snap = service.metrics_snapshot();
            assert_eq!(snap.ladder_served, [1, 0, 1], "shards={shards}");
        }
    }

    #[test]
    fn empty_service_serves_empty_results() {
        let (graph, _, cable) = world();
        let service = ShardedService::new(
            &graph,
            Analyzer::plain(),
            ShardRouter::new(3),
            SqeConfig::default(),
            ServeConfig::default(),
        );
        assert!(service.rank_sqe("cable car", &[cable], &MotifSet::triangular()).is_empty());
        assert!(service.rank_sqe_c("cable car", &[cable]).is_empty());
        assert_eq!(service.epoch_vector(), vec![0, 0, 0]);
    }
}
