//! Concurrent query serving: one service over N ≥ 1 shards, with
//! work-stealing batch execution, expansion caching, admission and a
//! degraded-mode ladder, live ingestion, and injected-clock latency
//! metrics.
//!
//! * [`run_indexed`] — a work-stealing executor over `crossbeam`
//!   channels. Each query is one work item pulled by idle workers, so a
//!   pathological query never stalls a whole even-sized chunk. Results
//!   are written into their input slot, so output order — and therefore
//!   every downstream run file — is independent of scheduling.
//! * [`QueryService`] — the serving facade over
//!   [`SqePipeline`](crate::pipeline::SqePipeline): an LRU
//!   [`ExpansionCache`] keyed by the sorted query-node set + motif-set
//!   fingerprint (motif traversal is a pure function of exactly that
//!   key), a pool of reusable scratch buffers (one per worker in a
//!   batch), a per-article table of analyzed KB titles, and
//!   [`ServeMetrics`] recording cache traffic plus per-stage latency
//!   through an injected [`Clock`] (no wall-clock reads in library code;
//!   tests drive a `ManualClock`).
//!
//! # Shards
//!
//! A service routes every document to one of N shards by a
//! deterministic hash of its external id ([`ShardRouter`]); each shard
//! is its own [`SegmentedIndex`] with its own seal/merge lifecycle and
//! its own published [`Searcher`]. A single-index service is the N = 1
//! case and runs the same code. A query is *scattered*: each shard
//! resolves it locally and reports integer statistic contributions; the
//! *gather* step sums those integers into the exact global statistics a
//! monolithic index would hold, scores per shard, and merges the
//! per-shard top-k lists under the `scorecmp` total order (see
//! [`searchlite::shard`]).
//!
//! Public hits carry the **global ingest ordinal** as their [`DocId`]:
//! the position the document would occupy in a monolithic build
//! ingesting the same sequence. Each shard's ordinal table maps its
//! local ids to ordinals (monotone, since documents append in arrival
//! order), and one location table maps every ordinal back to its shard
//! and local id, so both directions are a single lookup. Inside a query
//! a hit carries its shard and local id: `SQE_C` combines on those and
//! names the combined list without a table lookup, and an ordinal is
//! read only to break a tie between shards or to build a [`SearchHit`].
//! With one shard built from an index, a snapshot or a segmented
//! corpus, ordinals equal the shard's own doc ids, so
//! [`QueryService::searcher`] resolves them directly.
//!
//! # Epoch vector
//!
//! Each shard publishes independently; [`QueryService::epoch_vector`]
//! holds the per-shard segment-set epochs and [`QueryService::epoch`] is
//! their sum. Sealing one shard bumps exactly one entry and invalidates
//! the shared expansion cache exactly once; republishing an unchanged
//! shard leaves the cache warm.
//!
//! # Determinism contract
//!
//! For any worker count, shard count, routing and cache state, the
//! service's output is byte-identical to the sequential uncached
//! [`SqePipeline`](crate::pipeline::SqePipeline): cached expansions are
//! exactly the `QueryGraph::expansions` a fresh build returns (the cache
//! key preserves query-node multiplicity), a racing double-compute of the
//! same key inserts the same value twice, and every global statistic is
//! an exact integer sum. `tests/serve_determinism.rs` enforces this
//! end-to-end on run files.

use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard};

use kbgraph::{ArticleId, KbGraph};
use searchlite::ql::{self, QlScratch, SearchHit};
use searchlite::shard::merge_top_k;
use searchlite::structured::Feature;
use searchlite::{
    Analyzer, DocId, Index, IngestError, PendingSeal, Query, SealReport, Searcher, SegmentedIndex,
    ShardRouter, StagedQuery,
};
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

/// Where a global ordinal lives: its shard and its shard-local doc id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DocLoc {
    shard: u32,
    local: u32,
}

/// One hit of a scatter, located in its shard: naming it needs no table
/// lookup, and its global ordinal is read only where a tie between
/// shards or the public [`SearchHit`] needs it.
#[derive(Debug, Clone, Copy)]
struct Hit {
    loc: DocLoc,
    score: f64,
}

/// The location of an ordinal no shard holds (a gap in caller-supplied
/// ordinal tables); never reached through a hit.
const NO_LOC: DocLoc = DocLoc {
    shard: u32::MAX,
    local: u32::MAX,
};

/// The mutable side of the service: per-shard corpora plus the global
/// ordinal assignment. The tables are shared with the published view
/// and copied on the first write after a publish.
struct Live {
    shards: Vec<SegmentedIndex>,
    /// Per shard: local doc id → global ingest ordinal, strictly
    /// increasing (documents append in global arrival order).
    ordinals: Vec<Arc<Vec<u32>>>,
    /// Global ingest ordinal → shard and local doc id; one entry per
    /// ordinal below `next_ordinal`.
    locations: Arc<Vec<DocLoc>>,
    next_ordinal: u32,
}

/// One shard's published immutable view: a pinned [`Searcher`] plus the
/// ordinal table that maps its local doc ids to global ordinals.
#[derive(Clone)]
struct ShardView {
    searcher: Searcher,
    ordinals: Arc<Vec<u32>>,
}

impl ShardView {
    /// The global ingest ordinal of a shard-local doc id.
    fn ordinal(&self, local: u32) -> u32 {
        self.ordinals
            .get(local as usize)
            .copied()
            .expect("invariant: every searchable doc has a recorded global ordinal")
    }
}

/// The published shard set a query (or batch) pins for its lifetime.
struct View {
    shards: Vec<ShardView>,
    locations: Arc<Vec<DocLoc>>,
}

impl View {
    /// The analyzer every shard shares.
    fn analyzer(&self) -> &Analyzer {
        self.shards
            .first()
            .map(|s| s.searcher.analyzer())
            .expect("invariant: a service always has at least one shard")
    }

    /// The global ingest ordinal of the document at `loc`.
    fn ordinal(&self, loc: DocLoc) -> u32 {
        self.shards
            .get(loc.shard as usize)
            .map(|s| s.ordinal(loc.local))
            .expect("invariant: a visible document's location names a shard")
    }

    /// The public form of `hits`: global ordinals and scores.
    fn search_hits(&self, hits: Vec<Hit>) -> Vec<SearchHit> {
        hits.into_iter()
            .map(|h| SearchHit {
                doc: DocId(self.ordinal(h.loc)),
                score: h.score,
            })
            .collect()
    }

    /// The external id of the document at `loc`.
    fn external_id(&self, loc: DocLoc) -> &str {
        self.shards
            .get(loc.shard as usize)
            .map(|s| s.searcher.external_id(DocId(loc.local)))
            .expect("invariant: a visible document's location names a shard")
    }

    /// External ids of global-ordinal hits.
    fn external_ids(&self, hits: &[SearchHit]) -> Vec<String> {
        hits.iter()
            .map(|h| {
                let loc = self
                    .locations
                    .get(h.doc.0 as usize)
                    .copied()
                    .expect("invariant: hit ordinals originate from this view");
                self.external_id(loc).to_owned()
            })
            .collect()
    }
}

/// The concurrent SQE query service: [`SqePipeline`](crate::pipeline::SqePipeline)
/// semantics over N ≥ 1 shards behind an expansion cache, a
/// work-stealing batch executor, admission control, live ingestion, and
/// latency metrics.
///
/// # Live ingestion
///
/// [`QueryService::add_document`] routes a document to its shard's
/// buffer (invisible to queries); [`QueryService::seal_shard`] freezes
/// one buffer into a new immutable segment and atomically publishes that
/// shard's refreshed [`Searcher`]. Publication compares the shard's
/// segment-set epoch, so each seal invalidates the expansion cache
/// **exactly once** — auto-merges triggered by the seal ride the same
/// epoch bump. Queries already in flight keep the view they started
/// with (a cheap `Arc` clone), so a seal never tears a batch.
pub struct QueryService<'a> {
    graph: &'a KbGraph,
    cfg: SqeConfig,
    serve_cfg: ServeConfig,
    router: ShardRouter,
    /// Serializes maintenance (seal / force-merge) so expensive segment
    /// builds never race each other, while `live` stays free for
    /// ingestion. Lock order: `maint` → `live` → `view`, always.
    maint: Mutex<()>,
    /// The mutable corpus: per-shard sealed segments and ingest buffers.
    /// Held only for cheap phases — segment builds and merges run on
    /// detached state (see [`QueryService::seal_shard`]).
    live: Mutex<Live>,
    /// The published per-shard views, swapped as one `Arc` so a query
    /// (or batch) pins a consistent shard set for its whole lifetime.
    view: RwLock<Arc<View>>,
    cache: ExpansionCache,
    metrics: ServeMetrics,
    clock: Arc<dyn Clock>,
    /// Gatekeeper for the deadline-aware `serve*` entry points. Holds no
    /// clock of its own: every decision takes this service's clock
    /// reading as a parameter, keeping the whole path deterministic
    /// under a `ManualClock`.
    admission: AdmissionController,
    /// Per KB article: the feature its title adds to an expanded query
    /// ([`expand::title_feature`]), analyzed on first use. The graph and
    /// the analyzer (the first shard's, which every published view
    /// keeps) are fixed for the life of the service, so a filled entry
    /// never changes. The table itself is allocated by the first
    /// expanded query, so building a service costs nothing for it.
    titles: OnceLock<Box<[OnceLock<Option<Feature>>]>>,
    /// Idle scratch buffers of the single-request entry points; grows to
    /// the peak number of concurrent callers.
    scratch: Mutex<Vec<SqeScratch>>,
}

/// One shard holding `live`, whose ordinals are its own doc ids.
fn one_shard(live: SegmentedIndex) -> (Vec<SegmentedIndex>, Vec<Vec<u32>>) {
    let docs = u32::try_from(live.num_sealed_docs() + live.num_buffered_docs())
        .expect("invariant: doc count fits in u32 ids");
    (vec![live], vec![(0..docs).collect()])
}

impl<'a> QueryService<'a> {
    /// Creates a one-shard service with the no-op [`NullClock`] (counters
    /// work, latency histograms record zeros). The index is cloned in as
    /// segment 0 of the live corpus.
    pub fn new(graph: &'a KbGraph, index: &Index, cfg: SqeConfig, serve_cfg: ServeConfig) -> Self {
        QueryService::with_clock(graph, index, cfg, serve_cfg, Arc::new(NullClock))
    }

    /// [`QueryService::new`] with an injected clock — a `MonotonicClock`
    /// to record real latencies, a `ManualClock` in tests.
    pub fn with_clock(
        graph: &'a KbGraph,
        index: &Index,
        cfg: SqeConfig,
        serve_cfg: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let (shards, ordinals) = one_shard(SegmentedIndex::from_index(index.clone()));
        let router = ShardRouter::new(1);
        QueryService::from_shards_with_clock(graph, router, shards, ordinals, cfg, serve_cfg, clock)
    }

    /// Creates a one-shard service over a loaded binary snapshot — the
    /// cold-start path a restarting deployment takes. The snapshot's
    /// segments are adopted as-is (no merge, no re-analysis); the
    /// snapshot was fully verified and audited at decode time.
    pub fn from_snapshot(
        snapshot: &'a sqe_store::Snapshot,
        collection: &str,
        cfg: SqeConfig,
        serve_cfg: ServeConfig,
    ) -> Result<Self, sqe_store::StoreError> {
        let searcher = snapshot.searcher(collection)?;
        let live = SegmentedIndex::from_segments(
            searcher.analyzer().clone(),
            searcher.segments().to_vec(),
        );
        Ok(QueryService::from_segmented(
            snapshot.graph(),
            live,
            cfg,
            serve_cfg,
        ))
    }

    /// Creates a one-shard service over an existing segmented corpus
    /// (buffered documents stay buffered until the first seal).
    pub fn from_segmented(
        graph: &'a KbGraph,
        live: SegmentedIndex,
        cfg: SqeConfig,
        serve_cfg: ServeConfig,
    ) -> Self {
        let (shards, ordinals) = one_shard(live);
        QueryService::from_shards(graph, ShardRouter::new(1), shards, ordinals, cfg, serve_cfg)
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
        let clock = Arc::new(NullClock);
        QueryService::from_shards_with_clock(graph, router, shards, ordinals, cfg, serve_cfg, clock)
    }

    /// [`QueryService::from_shards`] with an injected clock.
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
        let mut locations = vec![NO_LOC; next_ordinal as usize];
        for (shard, ords) in (0u32..).zip(&ordinals) {
            for (local, &ordinal) in (0u32..).zip(ords) {
                if let Some(slot) = locations.get_mut(ordinal as usize) {
                    *slot = DocLoc { shard, local };
                }
            }
        }
        let ordinals: Vec<Arc<Vec<u32>>> = ordinals.into_iter().map(Arc::new).collect();
        let locations = Arc::new(locations);
        let view = View {
            shards: shards
                .iter()
                .zip(&ordinals)
                .map(|(shard, ords)| ShardView {
                    searcher: shard.searcher(),
                    ordinals: Arc::clone(ords),
                })
                .collect(),
            locations: Arc::clone(&locations),
        };
        #[cfg(all(debug_assertions, feature = "validate"))]
        {
            kbgraph::audit::GraphAudit::run(graph).assert_clean("QueryService");
            for shard in &view.shards {
                for seg in shard.searcher.segments() {
                    searchlite::audit::IndexAudit::run(seg.index()).assert_clean("QueryService");
                }
            }
        }
        let cache = ExpansionCache::new(serve_cfg.cache_capacity);
        let metrics = ServeMetrics::new(serve_cfg.ladder.len());
        let admission = AdmissionController::new(serve_cfg.admission);
        QueryService {
            graph,
            cfg,
            serve_cfg,
            router,
            maint: Mutex::new(()),
            live: Mutex::new(Live {
                shards,
                ordinals,
                locations,
                next_ordinal,
            }),
            view: RwLock::new(Arc::new(view)),
            cache,
            metrics,
            clock,
            admission,
            titles: OnceLock::new(),
            scratch: Mutex::new(Vec::new()),
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
    /// (the segmented indexes never hold partial updates across panics
    /// that matter to readers — sealed segments are immutable).
    fn live_lock(&self) -> MutexGuard<'_, Live> {
        match self.live.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Runs `f` with a scratch from the pool, or a fresh one when every
    /// pooled scratch is in use, and returns it to the pool afterwards.
    /// Every query overwrites the scratch buffers it reads, so nothing
    /// carries over from one request to the next.
    fn with_scratch<R>(&self, f: impl FnOnce(&mut SqeScratch) -> R) -> R {
        let mut scratch = self.scratch_pool().pop().unwrap_or_default();
        let out = f(&mut scratch);
        self.scratch_pool().push(scratch);
        out
    }

    /// Locks the scratch pool. A poisoned lock is recovered: the pool
    /// holds no invariant (each entry is a whole idle scratch, and a push
    /// or pop either happened or did not), and the scratch of a request
    /// that panicked is never returned to it.
    fn scratch_pool(&self) -> MutexGuard<'_, Vec<SqeScratch>> {
        match self.scratch.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Read-locks the published view.
    fn view_read(&self) -> RwLockReadGuard<'_, Arc<View>> {
        match self.view.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Pins the current shard set (one `Arc` clone).
    fn pinned(&self) -> Arc<View> {
        Arc::clone(&self.view_read())
    }

    /// Publishes a refreshed view for one shard. Invalidates the shared
    /// expansion cache exactly once per epoch advance of that shard;
    /// republishing the same epoch (or an older one) leaves the cache
    /// warm.
    fn publish_shard(&self, shard: usize, view: ShardView, locations: Arc<Vec<DocLoc>>) {
        // The successor view is built outside the write lock; the
        // maintenance mutex (held by every caller) serializes publishes,
        // so no concurrent publish can be lost.
        let current = self.pinned();
        let mut shards = current.shards.clone();
        let Some(slot) = shards.get_mut(shard) else {
            return;
        };
        let advanced = view.searcher.epoch() > slot.searcher.epoch();
        if advanced || view.searcher.epoch() == slot.searcher.epoch() {
            *slot = view;
            let next = Arc::new(View { shards, locations });
            let mut published = match self.view.write() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            *published = next;
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

    /// The serving configuration.
    pub fn serve_config(&self) -> &ServeConfig {
        &self.serve_cfg
    }

    /// The document router.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.router.shards()
    }

    /// A clone of the first shard's published searcher (cheap: one
    /// `Arc`); queries served through it are stable across later seals.
    /// With one shard it is the whole corpus and hit ids are its doc ids.
    pub fn searcher(&self) -> Searcher {
        self.view_read()
            .shards
            .first()
            .map(|s| s.searcher.clone())
            .expect("invariant: a service always has at least one shard")
    }

    /// A pinned clone of one shard's published searcher.
    pub fn shard_searcher(&self, shard: usize) -> Option<Searcher> {
        self.view_read()
            .shards
            .get(shard)
            .map(|s| s.searcher.clone())
    }

    /// The per-shard segment-set epochs of the published views. Sealing
    /// shard `s` bumps exactly entry `s`.
    pub fn epoch_vector(&self) -> Vec<u64> {
        self.view_read()
            .shards
            .iter()
            .map(|s| s.searcher.epoch())
            .collect()
    }

    /// The scalar epoch: the sum of the epoch vector, monotone under any
    /// seal or merge on any shard.
    pub fn epoch(&self) -> u64 {
        self.view_read()
            .shards
            .iter()
            .map(|s| s.searcher.epoch())
            .sum()
    }

    /// Sealed segments visible to queries, over all shards.
    pub fn num_segments(&self) -> usize {
        self.view_read()
            .shards
            .iter()
            .map(|s| s.searcher.num_segments())
            .sum()
    }

    /// Searchable documents, over all shards.
    pub fn num_docs(&self) -> usize {
        self.view_read()
            .shards
            .iter()
            .map(|s| s.searcher.num_docs())
            .sum()
    }

    /// Documents waiting in shard buffers (invisible until sealed).
    pub fn num_buffered_docs(&self) -> usize {
        self.live_lock()
            .shards
            .iter()
            .map(SegmentedIndex::num_buffered_docs)
            .sum()
    }

    /// Converts hits (global-ordinal ids) to external document ids
    /// against the currently published view.
    pub fn external_ids(&self, hits: &[SearchHit]) -> Vec<String> {
        self.pinned().external_ids(hits)
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

    /// Point-in-time copy of every metric; its epoch is
    /// [`QueryService::epoch`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot(self.cache.evictions(), self.epoch())
    }

    // ------------------------------------------------------- ingestion --

    /// Routes the document to its shard and buffers it there; it becomes
    /// searchable when that shard seals. Returns the **global ingest
    /// ordinal** as the document id — the id a monolithic build would
    /// have assigned. Duplicate external ids are rejected across the
    /// *whole* service: the owning shard checks its own corpus, and
    /// every other shard is probed too, so an id that routed differently
    /// in a previous life (different shard count or salt) still cannot
    /// be ingested twice.
    pub fn add_document(&self, external_id: &str, text: &str) -> Result<DocId, IngestError> {
        let t0 = self.clock.now_nanos();
        let result = {
            let mut live = self.live_lock();
            let target = self.router.route(external_id);
            let Live {
                shards,
                ordinals,
                locations,
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
                shard.add_document(external_id, text).map(|local| {
                    let global = *next_ordinal;
                    Arc::make_mut(
                        ordinals
                            .get_mut(target)
                            .expect("invariant: one ordinal table per shard"),
                    )
                    .push(global);
                    let shard = u32::try_from(target).expect("invariant: shard index fits in u32");
                    Arc::make_mut(locations).push(DocLoc {
                        shard,
                        local: local.0,
                    });
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
    /// The expensive work — building the segment, running policy merges —
    /// happens on state detached from the `live` mutex, so concurrent
    /// `add_document` calls and queries never block behind it. Only the
    /// cheap begin/commit/install phases take the lock; `maint`
    /// serializes whole maintenance ops against each other, so the merge
    /// outcome is never stale.
    pub fn seal_shard(&self, shard: usize) -> Option<SealReport> {
        let t0 = self.clock.now_nanos();
        let _maint = self.maint_lock();
        let pending = self.live_lock().shards.get_mut(shard)?.begin_seal()?;
        // lint:allow(must-audit-after-mutation) — IndexAudit runs inside PendingSeal::build
        let built = PendingSeal::build(pending);
        let t1 = self.clock.now_nanos();
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
        let (view, locations, t2) = {
            let mut live = self.live_lock();
            if let Some(merges) = live
                .shards
                .get_mut(shard)
                .and_then(|s| s.install_merge(outcome))
            {
                report.merges = merges;
            }
            let t2 = self.clock.now_nanos();
            let (view, locations) = live.shard_view(shard);
            (view, locations, t2)
        };
        self.publish_shard(shard, view, locations);
        self.metrics.seals.inc();
        self.metrics
            .merges
            .add(u64::try_from(report.merges).expect("invariant: merge count fits in u64"));
        let t3 = self.clock.now_nanos();
        let ingest = &self.metrics.ingest;
        ingest.build.record(t1.saturating_sub(t0));
        ingest.commit.record(t2.saturating_sub(t1));
        ingest.publish.record(t3.saturating_sub(t2));
        Some(report)
    }

    /// Seals every shard with a non-empty buffer; returns the report of
    /// the last one sealed (with one shard, the corpus's seal report), or
    /// `None` when every buffer was empty.
    pub fn seal(&self) -> Option<SealReport> {
        (0..self.num_shards()).fold(None, |last, s| self.seal_shard(s).or(last))
    }

    /// Seals every shard with a non-empty buffer; returns how many
    /// sealed.
    pub fn seal_all(&self) -> usize {
        (0..self.num_shards())
            .filter(|&s| self.seal_shard(s).is_some())
            .count()
    }

    /// Compacts every shard's sealed segments into one and publishes the
    /// merged views. Returns `false` (a no-op) when no shard has two or
    /// more segments. Like [`QueryService::seal_shard`], each merge runs
    /// on a detached snapshot under `maint` only — the `live` mutex is
    /// held just to snapshot and to install the result.
    pub fn force_merge(&self) -> bool {
        (0..self.num_shards())
            .filter(|&s| self.merge_shard(s))
            .count()
            > 0
    }

    /// [`QueryService::force_merge`] for one shard.
    fn merge_shard(&self, shard: usize) -> bool {
        let t0 = self.clock.now_nanos();
        let _maint = self.maint_lock();
        let Some(task) = self
            .live_lock()
            .shards
            .get(shard)
            .map(SegmentedIndex::merge_task)
        else {
            return false;
        };
        let Some(outcome) = task.run_full() else {
            return false;
        };
        let (view, locations) = {
            let mut live = self.live_lock();
            if live
                .shards
                .get_mut(shard)
                .and_then(|s| s.install_merge(outcome))
                .is_none()
            {
                // Unreachable while `maint` serializes maintenance, but a
                // stale outcome must never clobber a newer segment set.
                return false;
            }
            live.shard_view(shard)
        };
        self.publish_shard(shard, view, locations);
        self.metrics.merges.inc();
        let t1 = self.clock.now_nanos();
        self.metrics.ingest.merge.record(t1.saturating_sub(t0));
        true
    }

    // ------------------------------------------------------- querying --

    /// Scatter-gather QL over a raw structured query: phase-1 resolve on
    /// every shard, exact-integer gather, phase-2 scoring, ordinal
    /// mapping, `scorecmp` merge. Hit ids are global ingest ordinals.
    pub fn rank_ql(&self, query: &Query, k: usize) -> Vec<SearchHit> {
        let view = self.pinned();
        view.search_hits(self.with_scratch(|s| self.scatter_ql(&view, query, k, &mut s.ql)))
    }

    /// The QL pipeline of every stage of `staged` over a pinned shard
    /// set ([`ql::rank_stages`]: resolve the feature union on every
    /// shard, gather exact-integer global stats, one kernel pass per
    /// shard), then, per stage, a merge of the shards' lists at the
    /// stage's depth under the `scorecmp` total order on global
    /// ordinals. Records the kernel's work counters.
    fn scatter(
        &self,
        view: &View,
        staged: &StagedQuery<'_>,
        depths: &[usize],
        scratch: &mut QlScratch,
    ) -> Vec<Vec<Hit>> {
        let searchers = view.shards.iter().map(|s| &s.searcher);
        let stages = ql::rank_stages(searchers, staged, self.cfg.ql, depths, scratch);
        let work = scratch.take_work();
        self.metrics
            .ql_features_resolved
            .add(work.features_resolved);
        self.metrics
            .ql_candidates_scored
            .add(work.candidates_scored);
        stages
            .into_iter()
            .zip(depths)
            .map(|(lists, &k)| {
                let lists = (0u32..)
                    .zip(lists)
                    .map(|(shard, list)| {
                        list.into_iter()
                            .map(|(local, score)| Hit {
                                loc: DocLoc { shard, local },
                                score,
                            })
                            .collect()
                    })
                    .collect();
                merge_top_k(lists, k, |a, b| {
                    scorecmp::cmp_scores_desc(a.score, b.score)
                        .then_with(|| view.ordinal(a.loc).cmp(&view.ordinal(b.loc)))
                })
            })
            .collect()
    }

    /// [`QueryService::scatter`] of one query: its best `k` hits.
    fn scatter_ql(
        &self,
        view: &View,
        query: &Query,
        k: usize,
        scratch: &mut QlScratch,
    ) -> Vec<Hit> {
        self.scatter(view, &StagedQuery::single(query), &[k], scratch)
            .pop()
            .unwrap_or_default()
    }

    /// The feature `article`'s title adds to an expanded query, analyzed
    /// on the first call for that article; `None` when the title
    /// analyzes to nothing, or for an id outside the graph.
    fn title_feature(&self, article: ArticleId, analyzer: &Analyzer) -> Option<&Feature> {
        self.titles
            .get_or_init(|| {
                (0..self.graph.num_articles())
                    .map(|_| OnceLock::new())
                    .collect()
            })
            .get(article.index())?
            .get_or_init(|| {
                self.metrics.titles_analyzed.inc();
                expand::title_feature(self.graph.article_title(article), analyzer)
            })
            .as_ref()
    }

    /// A query part of KB-article titles at their weights, as
    /// [`Query::push_phrase_text`] would build it: titles that analyze to
    /// nothing and non-positive weights add no feature.
    fn title_part(
        &self,
        articles: impl Iterator<Item = (ArticleId, f64)>,
        analyzer: &Analyzer,
    ) -> Vec<(&Feature, f64)> {
        articles
            .filter(|&(_, weight)| weight > 0.0)
            .filter_map(|(article, weight)| Some((self.title_feature(article, analyzer)?, weight)))
            .collect()
    }

    /// Ranks the expanded queries of `text` and `nodes`, one stage per
    /// entry of `expansions`, as one staged query ([`QueryService::scatter`]):
    /// stage `s` is the query [`expand::build_query`] builds with
    /// `expansions[s]`, ranked to `depths[s]`. The user and query-entity
    /// parts are built once, from title features analyzed once per
    /// service.
    fn rank_expanded(
        &self,
        view: &View,
        text: &str,
        nodes: &[ArticleId],
        expansions: &[CachedExpansions],
        depths: &[usize],
        scratch: &mut QlScratch,
    ) -> Vec<Vec<Hit>> {
        let (analyzer, cfg) = (view.analyzer(), &self.cfg.expand);
        let user_query = expand::user_part(text, analyzer);
        let user: Vec<(&Feature, f64)> = user_query.weighted().collect();
        let entities = self.title_part(nodes.iter().map(|&n| (n, 1.0)), analyzer);
        let parts: Vec<Vec<(&Feature, f64)>> = expansions
            .iter()
            .map(|e| self.title_part(expand::expansion_weights(e, cfg.max_expansions), analyzer))
            .collect();
        let mut staged = StagedQuery::new();
        for part in &parts {
            expand::push_stage(&mut staged, &user, &entities, part, cfg);
        }
        self.scatter(view, &staged, depths, scratch)
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
    /// times per query). `view` is the shard set pinned at query entry,
    /// so a concurrent seal cannot change the corpus mid-query.
    fn stage_run(
        &self,
        view: &View,
        text: &str,
        nodes: &[ArticleId],
        motifs: &MotifSet,
        scratch: &mut SqeScratch,
    ) -> Vec<Hit> {
        self.stage_run_deadline(view, text, nodes, motifs, Deadline::NONE, scratch)
            .unwrap_or_default()
    }

    /// [`QueryService::stage_run`] with a deadline check between the
    /// expand and rank stages: when expansion alone blows the deadline,
    /// ranking is skipped entirely.
    #[allow(clippy::too_many_arguments)]
    fn stage_run_deadline(
        &self,
        view: &View,
        text: &str,
        nodes: &[ArticleId],
        motifs: &MotifSet,
        deadline: Deadline,
        scratch: &mut SqeScratch,
    ) -> Result<Vec<Hit>, Stage> {
        let cfg = &self.cfg;
        let t0 = self.clock.now_nanos();
        let expansions = self.expansions_for(nodes, motifs, scratch);
        let t1 = self.clock.now_nanos();
        self.metrics.stages.expand.record(t1.saturating_sub(t0));
        if deadline.expired(t1) {
            return Err(Stage::Expand);
        }
        let expansions = std::slice::from_ref(&expansions);
        let hits = self
            .rank_expanded(view, text, nodes, expansions, &[cfg.depth], &mut scratch.ql)
            .pop()
            .unwrap_or_default();
        let t2 = self.clock.now_nanos();
        self.metrics.stages.rank.record(t2.saturating_sub(t1));
        Ok(hits)
    }

    /// Retrieval with an arbitrary [`MotifSet`] through the cache;
    /// identical output to [`crate::pipeline::SqePipeline::rank_sqe`]
    /// (hit ids are global ordinals).
    pub fn rank_sqe(&self, text: &str, nodes: &[ArticleId], motifs: &MotifSet) -> Vec<SearchHit> {
        let view = self.pinned();
        self.with_scratch(|s| self.rank_sqe_with_scratch(&view, text, nodes, motifs, s))
    }

    fn rank_sqe_with_scratch(
        &self,
        view: &View,
        text: &str,
        nodes: &[ArticleId],
        motifs: &MotifSet,
        scratch: &mut SqeScratch,
    ) -> Vec<SearchHit> {
        let t0 = self.clock.now_nanos();
        let hits = view.search_hits(self.stage_run(view, text, nodes, motifs, scratch));
        let t1 = self.clock.now_nanos();
        self.metrics.stages.total.record(t1.saturating_sub(t0));
        self.metrics.queries.inc();
        hits
    }

    /// `SQE_C` rank-range combination through the cache; identical output
    /// to [`crate::pipeline::SqePipeline::rank_sqe_c`]. The three stages
    /// are ranked as one staged query and combined on document
    /// locations; only the combined list is mapped to external ids.
    pub fn rank_sqe_c(&self, text: &str, nodes: &[ArticleId]) -> Vec<String> {
        let view = self.pinned();
        self.with_scratch(|s| self.rank_sqe_c_with_scratch(&view, text, nodes, s))
    }

    /// Expands under each of `SQE_T`, `SQE_T&S` and `SQE_S` (one `expand`
    /// record each), then ranks the three as one query (one `rank`
    /// record, [`QueryService::rank_expanded`]): the union of the stages'
    /// features is resolved once per shard, one kernel pass scores every
    /// stage, and each stage is ranked only as deep as
    /// [`combine::sqe_c`] reads it.
    fn rank_sqe_c_with_scratch(
        &self,
        view: &View,
        text: &str,
        nodes: &[ArticleId],
        scratch: &mut SqeScratch,
    ) -> Vec<String> {
        let t0 = self.clock.now_nanos();
        let expansions = [
            MotifSet::triangular(),
            MotifSet::t_and_s(),
            MotifSet::square(),
        ]
        .map(|motifs| {
            let e0 = self.clock.now_nanos();
            let expansions = self.expansions_for(nodes, &motifs, scratch);
            self.metrics
                .stages
                .expand
                .record(self.clock.now_nanos().saturating_sub(e0));
            expansions
        });
        let r0 = self.clock.now_nanos();
        let depths = combine::sqe_c_depths(self.cfg.depth);
        let mut runs = self
            .rank_expanded(view, text, nodes, &expansions, &depths, &mut scratch.ql)
            .into_iter()
            .map(|hits| locations(&hits));
        let (t, ts, s) = (
            runs.next().unwrap_or_default(),
            runs.next().unwrap_or_default(),
            runs.next().unwrap_or_default(),
        );
        let c0 = self.clock.now_nanos();
        self.metrics.stages.rank.record(c0.saturating_sub(r0));
        let docs = combine::sqe_c(&t, &ts, &s, self.cfg.depth);
        let ids = docs
            .into_iter()
            .map(|loc| view.external_id(loc).to_owned())
            .collect();
        let c1 = self.clock.now_nanos();
        self.metrics.stages.combine.record(c1.saturating_sub(c0));
        self.metrics.stages.total.record(c1.saturating_sub(t0));
        self.metrics.queries.inc();
        ids
    }

    /// Batch `SQE` retrieval over the configured worker pool; results
    /// keep input order and match [`crate::pipeline::SqePipeline::rank_sqe_many`].
    /// The whole batch is served from one pinned view: a seal landing
    /// mid-batch affects the *next* batch, never this one.
    pub fn run_batch(
        &self,
        queries: &[(String, Vec<ArticleId>)],
        motifs: &MotifSet,
    ) -> Vec<Vec<SearchHit>> {
        let view = self.pinned();
        run_indexed(
            queries,
            self.serve_cfg.workers,
            SqeScratch::new,
            |(text, nodes), scratch| {
                self.rank_sqe_with_scratch(&view, text, nodes, motifs, scratch)
            },
        )
    }

    /// Batch `SQE_C` retrieval over the configured worker pool; results
    /// keep input order (same pinned-view guarantee as
    /// [`QueryService::run_batch`]).
    pub fn run_batch_sqe_c(&self, queries: &[(String, Vec<ArticleId>)]) -> Vec<Vec<String>> {
        let view = self.pinned();
        run_indexed(
            queries,
            self.serve_cfg.workers,
            SqeScratch::new,
            |(text, nodes), scratch| self.rank_sqe_c_with_scratch(&view, text, nodes, scratch),
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

    /// Serves a request that already holds an admission ticket (an
    /// open-loop caller admits at arrival time, then starts the work,
    /// possibly on another thread).
    pub fn serve_admitted(
        &self,
        ticket: Ticket,
        text: &str,
        nodes: &[ArticleId],
        deadline: Deadline,
    ) -> ServeOutcome<Vec<SearchHit>> {
        let view = self.pinned();
        self.with_scratch(|s| {
            self.serve_admitted_with_scratch(&view, ticket, text, nodes, deadline, s)
        })
    }

    fn serve_admitted_with_scratch(
        &self,
        view: &View,
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
        self.run_rung(view, rung, text, nodes, deadline, scratch)
    }

    /// Runs one request at a forced ladder rung with no admission and no
    /// deadline — the calibration entry benchmarks use to measure (and
    /// prime, via the recorded cost histogram) per-rung costs.
    pub fn serve_at_rung(&self, rung: usize, text: &str, nodes: &[ArticleId]) -> Vec<SearchHit> {
        let view = self.pinned();
        self.with_scratch(|s| self.run_rung(&view, rung, text, nodes, Deadline::NONE, s))
            .into_value()
            .unwrap_or_default()
    }

    /// Executes one ladder rung under `deadline`. The elapsed cost is
    /// recorded into the rung's histogram even when the deadline blows
    /// mid-run: a too-slow attempt is exactly the observation the
    /// estimator needs to stop selecting that rung.
    fn run_rung(
        &self,
        view: &View,
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
            Some(motifs) => self.stage_run_deadline(view, text, nodes, motifs, deadline, scratch),
            None => {
                // No expansion: rank the user part of the query directly
                // (the paper's unexpanded QL baseline).
                let query = expand::user_part(text, view.analyzer());
                let hits = self.scatter_ql(view, &query, self.cfg.depth, &mut scratch.ql);
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
            Ok(hits) => view.search_hits(hits),
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

    /// Admission-controlled batch serving. Admission decisions are taken
    /// in a **sequential pre-pass in input order on the caller's
    /// thread**: queue-bound and token-bucket state evolve with arrival
    /// order alone, never with worker scheduling, so for a fixed clock
    /// schedule the outcome sequence is byte-identical at any worker
    /// count and any shard count (the determinism wall in
    /// `tests/serve_determinism.rs` enforces this). Execution then fans
    /// out over the worker pool into order-preserving slots, same as
    /// [`QueryService::run_batch`].
    pub fn serve_batch(&self, requests: &[ServeRequest]) -> Vec<ServeOutcome<Vec<SearchHit>>> {
        let view = self.pinned();
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
                        &view,
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

impl Live {
    /// Shard `shard`'s current view and the location table to publish
    /// with it.
    fn shard_view(&self, shard: usize) -> (ShardView, Arc<Vec<DocLoc>>) {
        let searcher = self
            .shards
            .get(shard)
            .map(SegmentedIndex::searcher)
            .expect("invariant: shard index validated by the caller");
        let ordinals = self.ordinals.get(shard).cloned().unwrap_or_default();
        (
            ShardView { searcher, ordinals },
            Arc::clone(&self.locations),
        )
    }
}

/// A [`QueryService`] made by the sharded constructors: empty shards
/// to ingest into, or one snapshot per shard. Every method is the one
/// service's (through `Deref`); this type keeps only its constructors,
/// because the benchmark package (`perfbench/`) and the tests name it.
pub struct ShardedService<'a>(QueryService<'a>);

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
        let shards = (0..router.shards())
            .map(|_| SegmentedIndex::new(analyzer.clone()))
            .collect();
        ShardedService(QueryService::from_shards(
            graph,
            router,
            shards,
            Vec::new(),
            cfg,
            serve_cfg,
        ))
    }

    /// Reopens a sharded deployment from one store snapshot per shard
    /// (each holding the collection under `collection`); see
    /// [`QueryService::from_shards`] for the `ordinals` contract.
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
        Ok(ShardedService(QueryService::from_shards(
            graph, router, shards, ordinals, cfg, serve_cfg,
        )))
    }
}

impl<'a> Deref for ShardedService<'a> {
    type Target = QueryService<'a>;

    fn deref(&self) -> &QueryService<'a> {
        &self.0
    }
}

/// The locations of `hits`, in rank order: what `SQE_C` combines on, so
/// only the combined list is mapped to external ids.
fn locations(hits: &[Hit]) -> Vec<DocLoc> {
    hits.iter().map(|h| h.loc).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{ManualClock, INGEST_STAGE_NAMES};
    use crate::pipeline::SqePipeline;
    use kbgraph::GraphBuilder;
    use searchlite::ql::QlParams;
    use searchlite::IndexBuilder;

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

    /// The KB graph, an index over `docs`, and the "cable car" node.
    fn world_of(docs: &[(&str, &str)]) -> (KbGraph, Index, ArticleId) {
        let mut b = GraphBuilder::new();
        let cable = b.add_article("cable car");
        let funi = b.add_article("funicular");
        let cat = b.add_category("mountain railways");
        b.add_mutual_link(cable, funi);
        b.add_membership(cable, cat);
        b.add_membership(funi, cat);
        let graph = b.build();

        let mut ib = IndexBuilder::new(Analyzer::plain());
        for (id, text) in docs {
            ib.add_document(id, text).expect("unique test ids");
        }
        (graph, ib.build(), cable)
    }

    /// The four-document world of the one-shard tests.
    fn world() -> (KbGraph, Index, ArticleId) {
        world_of(&DOCS[..4])
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
        let got = run_indexed(&items, 4, Vec::<u32>::new, |&x, scratch: &mut Vec<u32>| {
            scratch.push(x);
            x + 1
        });
        assert_eq!(got, (1..=16).collect::<Vec<u32>>());
    }

    #[test]
    fn service_matches_pipeline_for_each_motif_config() {
        let (graph, index, cable) = world();
        let pipeline = SqePipeline::from_index(&graph, &index, SqeConfig::default());
        let service =
            QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        for motifs in [
            MotifSet::triangular(),
            MotifSet::square(),
            MotifSet::t_and_s(),
        ] {
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
        let service =
            QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        for (text, nodes) in queries(cable) {
            let want = pipeline.rank_sqe_c(&text, &nodes);
            assert_eq!(service.rank_sqe_c(&text, &nodes), want);
            assert_eq!(service.rank_sqe_c(&text, &nodes), want, "warm");
        }
    }

    #[test]
    fn sqe_c_resolves_each_distinct_feature_once() {
        let (graph, index, cable) = world();
        let service =
            QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        let (text, nodes) = ("cable car funicular", vec![cable]);
        let searcher = service.searcher();
        let cfg = SqeConfig::default();
        let stages: Vec<Query> = [
            MotifSet::triangular(),
            MotifSet::t_and_s(),
            MotifSet::square(),
        ]
        .iter()
        .map(|motifs| {
            let qg = QueryGraphBuilder::from_set(&graph, motifs).build(&nodes);
            expand::build_query(
                &graph,
                text,
                &nodes,
                &qg.expansions,
                searcher.analyzer(),
                &cfg.expand,
            )
        })
        .collect();
        let features: Vec<usize> = stages.iter().map(Query::len).collect();
        let distinct: rustc_hash::FxHashSet<&searchlite::structured::Feature> = stages
            .iter()
            .flat_map(|q| q.features().iter().map(|f| &f.feature))
            .collect();
        let candidates: Vec<usize> = stages
            .iter()
            .map(|q| ql::rank(&searcher, q, cfg.ql, usize::MAX).len())
            .collect();
        // The stages share the user terms and the query-node title, and
        // the funicular expansion is also a user term; SQE_S finds no
        // square motif here.
        assert_eq!(features, [5, 5, 4]);
        assert_eq!(distinct.len(), 4);
        assert_eq!(candidates, [3, 3, 3]);

        service.rank_sqe_c(text, &nodes);
        let snap = service.metrics_snapshot();
        assert_eq!(
            snap.ql_features_resolved, 4,
            "the distinct features, once each"
        );
        assert_eq!(snap.ql_candidates_scored, 9, "each stage's candidates");
        let stage = |i: usize| snap.stages.get(i).map(|h| h.count).expect("four stages");
        assert_eq!([stage(0), stage(1), stage(2), stage(3)], [3, 1, 1, 1]);

        // Over two shards every shard resolves the union; the candidates
        // split between them.
        let sharded = ShardedService::new(
            &graph,
            Analyzer::plain(),
            ShardRouter::new(2),
            SqeConfig::default(),
            ServeConfig::default(),
        );
        for (id, text) in &DOCS[..4] {
            sharded.add_document(id, text).expect("unique test ids");
        }
        sharded.seal_all();
        assert_eq!(
            sharded.rank_sqe_c(text, &nodes),
            service.rank_sqe_c(text, &nodes)
        );
        let snap = sharded.metrics_snapshot();
        assert_eq!(
            (snap.ql_features_resolved, snap.ql_candidates_scored),
            (8, 9)
        );
    }

    #[test]
    fn each_title_is_analyzed_once_per_service() {
        let (graph, index, cable) = world();
        let service =
            QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        let (text, nodes) = ("cable car funicular", vec![cable]);
        let touched: rustc_hash::FxHashSet<ArticleId> = [
            MotifSet::triangular(),
            MotifSet::t_and_s(),
            MotifSet::square(),
        ]
        .iter()
        .flat_map(|motifs| {
            QueryGraphBuilder::from_set(&graph, motifs)
                .build(&nodes)
                .expansions
        })
        .map(|(article, _)| article)
        .chain(nodes.iter().copied())
        .collect();
        // The query node "cable car" and its expansion "funicular".
        assert_eq!(touched.len(), 2);
        let analyzed = || service.metrics_snapshot().titles_analyzed;
        service.rank_sqe_c(text, &nodes);
        assert_eq!(
            analyzed(),
            2,
            "each distinct title of the first request, once"
        );
        service.rank_sqe_c(text, &nodes);
        assert_eq!(analyzed(), 2, "a repeat analyzes no title");
        // Every other expanded path reads the same table.
        service.rank_sqe("funicular", &nodes, &MotifSet::t_and_s());
        service.serve_at_rung(1, text, &nodes);
        assert_eq!(analyzed(), 2);
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
            assert_eq!(
                service.run_batch(&qs, &MotifSet::t_and_s()),
                want,
                "cold workers={workers}"
            );
            assert_eq!(
                service.run_batch(&qs, &MotifSet::t_and_s()),
                want,
                "warm workers={workers}"
            );
        }
    }

    #[test]
    fn cache_counters_track_hits_and_misses() {
        let (graph, index, cable) = world();
        let service =
            QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
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
        let service =
            QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        let hits = service.rank_sqe("cable car", &[cable], &MotifSet::triangular());
        service.invalidate_cache();
        assert_eq!(
            service.rank_sqe("cable car", &[cable], &MotifSet::triangular()),
            hits
        );
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
                pipeline
                    .rank_sqe("cable car", &[cable], &MotifSet::t_and_s())
                    .0
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
        let service =
            QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
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
        for (stage, h) in INGEST_STAGE_NAMES.iter().zip(&snap.ingest).take(4).skip(1) {
            assert_eq!(h.count, 1, "one seal recorded in {stage}");
        }

        // The post-seal query sees the new doc and recomputes expansions.
        let after = service.rank_sqe("funicular", &[cable], &MotifSet::triangular());
        assert_eq!(after.len(), before.len() + 1);
        assert!(service
            .external_ids(&after)
            .contains(&"d-funi-2".to_owned()));

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
    fn manual_clock_splits_seal_into_build_commit_publish() {
        let (graph, index, _) = world();
        // The n-th clock read returns 10^n, so every interval between
        // two consecutive reads has its own size.
        struct Decades(ManualClock);
        impl Clock for Decades {
            fn now_nanos(&self) -> u64 {
                let now = self.0.now_nanos().max(1);
                self.0.set(now * 10);
                now
            }
        }
        let service = QueryService::with_clock(
            &graph,
            &index,
            SqeConfig::default(),
            ServeConfig::default(),
            Arc::new(Decades(ManualClock::new())),
        );
        service
            .add_document("d-split", "a funicular carriage")
            .expect("fresh external id");
        service.seal().expect("non-empty buffer seals");
        let snap = service.metrics_snapshot();
        let sums: Vec<(&str, u64, u64)> = INGEST_STAGE_NAMES
            .iter()
            .zip(&snap.ingest)
            .map(|(&name, h)| (name, h.count, h.sum_nanos))
            .collect();
        // add reads 1 and 10; the seal reads 100 (start), 1,000 (built),
        // 10,000 (committed) and 100,000 (published).
        assert_eq!(
            sums,
            [
                ("add", 1, 9),
                ("build", 1, 900),
                ("commit", 1, 9_000),
                ("publish", 1, 90_000),
                ("merge", 0, 0),
            ]
        );
    }

    #[test]
    fn force_merge_compacts_without_changing_results() {
        let (graph, index, cable) = world();
        let service =
            QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
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
        assert_eq!(snap.ingest[4].count, 1, "one merge recorded");
        assert!(!service.force_merge(), "single segment: no-op");
        assert_eq!(snap.epoch, service.epoch(), "no-op merge keeps the epoch");
    }

    #[test]
    fn serve_unbounded_matches_rank_sqe_full() {
        let (graph, index, cable) = world();
        let service =
            QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
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
                .serve(
                    "cable car",
                    &[cable],
                    Deadline::within(clock.now_nanos(), budget),
                )
                .label()
        };
        assert_eq!(serve_with(est[0] + 1), "ok");
        assert_eq!(serve_with(est[0]), "ok", "exact fit still takes the rung");
        assert_eq!(serve_with(est[1]), "degraded:triangular");
        assert_eq!(serve_with(est[2]), "degraded:unexpanded");
        assert_eq!(serve_with(est[2] - 1), "shed:budget_exhausted");
        assert_eq!(
            serve_with(0),
            "deadline:queue",
            "zero budget is dead on arrival"
        );
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
        let out = service.serve_admitted(
            t,
            "cable car",
            &[cable],
            Deadline::within(clock.now_nanos(), 150),
        );
        assert_eq!(out.label(), "deadline:expand");
        let t = service.admit().expect("invariant: unlimited admission");
        let out = service.serve_admitted(
            t,
            "cable car",
            &[cable],
            Deadline::within(clock.now_nanos(), 10_000),
        );
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
                deadline: if i % 3 == 2 {
                    Deadline::at(0)
                } else {
                    Deadline::NONE
                },
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
            let labels: Vec<String> = service
                .serve_batch(&requests)
                .iter()
                .map(|o| o.label())
                .collect();
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
        let service =
            QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        let qs = queries(cable);
        let want = service.run_batch(&qs, &MotifSet::triangular());
        service
            .add_document("d-late-0", "late funicular arrival")
            .expect("fresh");
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
    #[test]
    fn one_shard_hit_ids_are_searcher_doc_ids() {
        // A one-shard service's hit ids are global ordinals; for every
        // one-shard constructor they must also be the published
        // searcher's own doc ids, so both resolve to the same name.
        fn check(service: &QueryService<'_>, cable: ArticleId, label: &str) {
            let searcher = service.searcher();
            for text in ["cable car", "funicular fog", "brand new funicular"] {
                let hits = service.rank_sqe(text, &[cable], &MotifSet::t_and_s());
                assert!(!hits.is_empty(), "{label}: {text:?} matches");
                let direct: Vec<String> = hits
                    .iter()
                    .map(|h| searcher.external_id(h.doc).to_owned())
                    .collect();
                assert_eq!(service.external_ids(&hits), direct, "{label}: {text:?}");
            }
        }
        let (graph, index, cable) = world_of(&DOCS);
        let cfg = SqeConfig::default;
        check(
            &QueryService::new(&graph, &index, cfg(), ServeConfig::default()),
            cable,
            "new",
        );

        let (first, second) = DOCS.split_at(3);
        let part = |docs: &[(&str, &str)]| world_of(docs).1;
        let (a, b) = (part(first), part(second));
        let segments: [&Index; 2] = [&a, &b];
        let collections: [(&str, &[&Index]); 1] = [("c", &segments)];
        let bytes = sqe_store::encode_snapshot(&sqe_store::SnapshotContents {
            graph: &graph,
            collections: &collections,
            dict: &entitylink::Dictionary::new(),
        })
        .expect("test world encodes");
        let snap = sqe_store::Snapshot::from_bytes(&bytes).expect("test snapshot decodes");
        let restored = QueryService::from_snapshot(&snap, "c", cfg(), ServeConfig::default())
            .expect("collection c exists");
        check(&restored, cable, "from_snapshot");

        // Sealed and buffered documents; the buffer seals later, then
        // everything merges into one segment.
        let mut live = SegmentedIndex::new(Analyzer::plain());
        for (i, (id, text)) in DOCS.iter().enumerate() {
            live.add_document(id, text).expect("unique test ids");
            if i % 3 == 2 {
                live.seal().expect("non-empty buffer seals");
            }
        }
        assert!(
            live.num_buffered_docs() > 0,
            "test needs buffered documents"
        );
        let service = QueryService::from_segmented(&graph, live, cfg(), ServeConfig::default());
        let late = service
            .add_document("d-late-0", "a brand new funicular")
            .expect("fresh id");
        assert_eq!(
            late,
            DocId(8),
            "ordinals continue after the buffered documents"
        );
        service.seal().expect("buffer seals");
        check(&service, cable, "from_segmented, sealed");
        assert!(service.force_merge());
        assert_eq!(service.num_segments(), 1);
        check(&service, cable, "from_segmented, merged");
    }

    #[test]
    fn sharded_sqe_matches_single_shard_service_externally() {
        let (graph, index, cable) = world_of(&DOCS);
        let mono = QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        for shards in [1usize, 2, 3, 5] {
            let service = sharded_service(&graph, shards, 0, 1);
            for motifs in [
                MotifSet::triangular(),
                MotifSet::square(),
                MotifSet::t_and_s(),
            ] {
                for (text, nodes) in queries(cable) {
                    let want = mono.rank_sqe(&text, &nodes, &motifs);
                    let want_ids = mono.external_ids(&want);
                    let got = service.rank_sqe(&text, &nodes, &motifs);
                    let got_ids = service.external_ids(&got);
                    assert_eq!(
                        got_ids,
                        want_ids,
                        "shards={shards} motifs={}",
                        motifs.name()
                    );
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
        let (graph, index, cable) = world_of(&DOCS);
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
        let (graph, _, cable) = world_of(&DOCS);
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
    fn raw_ql_matches_monolithic() {
        let (graph, index, _) = world_of(&DOCS);
        let mono = Searcher::from_index(index);
        let service = sharded_service(&graph, 4, 0xabc, 1);
        let a = Analyzer::plain();
        for text in ["cable car", "funicular fog", "plaza", "zeppelin"] {
            let q = Query::parse_text(text, &a);
            let want = searchlite::ql::rank(&mono, &q, QlParams::default(), 5);
            assert_eq!(service.rank_ql(&q, 5), want, "QL {text:?}");
        }
    }

    #[test]
    fn seal_bumps_exactly_one_epoch_entry_and_invalidates_once() {
        let (graph, _, cable) = world_of(&DOCS);
        let service = sharded_service(&graph, 3, 0, 1);
        let before = service.epoch_vector();
        let warm = service.rank_sqe("funicular", &[cable], &MotifSet::triangular());

        // Route a new doc, find its shard, seal only that shard.
        let id = "d-late-0";
        let shard = service.router().route(id);
        service
            .add_document(id, "a late funicular arrival")
            .expect("fresh id");
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
        assert_eq!(
            bumped,
            vec![shard],
            "exactly the sealed shard's epoch advances"
        );
        assert_eq!(
            service.metrics_snapshot().invalidations,
            invalidations_before + 1,
            "exactly one invalidation per seal"
        );
        // Sealing an empty buffer changes nothing.
        assert!(service.seal_shard(shard).is_none());
        assert_eq!(service.epoch_vector(), after);
        assert_eq!(
            service.metrics_snapshot().invalidations,
            invalidations_before + 1
        );
    }

    #[test]
    fn duplicate_ids_rejected_across_shards() {
        let (graph, _, _) = world_of(&DOCS);
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
        let mut shards: Vec<SegmentedIndex> = (0..4)
            .map(|_| SegmentedIndex::new(Analyzer::plain()))
            .collect();
        let mut ordinals: Vec<Vec<u32>> = vec![Vec::new(); 4];
        shards[home]
            .add_document(id, "the original")
            .expect("fresh id");
        shards[home].seal().expect("seals");
        ordinals[home].push(0);
        let service = QueryService::from_shards(
            &graph,
            wrong,
            shards,
            ordinals,
            SqeConfig::default(),
            ServeConfig::default(),
        );
        assert_ne!(
            service.router().route(id),
            home,
            "test needs a re-routed id"
        );
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
        let (graph, _, cable) = world_of(&DOCS);
        let service = sharded_service(&graph, 2, 0, 2);
        let qs = queries(cable);
        let want = service.run_batch(&qs, &MotifSet::triangular());
        service
            .add_document("d-late-1", "late cable car news")
            .expect("fresh id");
        let pinned = service.pinned();
        service.seal_all();
        let docs: usize = pinned.shards.iter().map(|s| s.searcher.num_docs()).sum();
        assert_eq!(docs, DOCS.len(), "pinned views are immutable");
        assert_eq!(service.num_docs(), DOCS.len() + 1);
        let again = service.run_batch(&qs, &MotifSet::triangular());
        let top_before = want[0].first().map(|h| h.doc);
        let top_after = again[0].first().map(|h| h.doc);
        assert_eq!(top_before, top_after, "top hit survives the seal");
    }

    #[test]
    fn sharded_serve_matches_mono_and_degrades_identically() {
        let (graph, index, cable) = world_of(&DOCS);
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
                        mono.external_ids(&mono.rank_sqe(
                            "cable car",
                            &[cable],
                            &MotifSet::t_and_s()
                        )),
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
        let (graph, _, cable) = world_of(&DOCS);
        let service = ShardedService::new(
            &graph,
            Analyzer::plain(),
            ShardRouter::new(3),
            SqeConfig::default(),
            ServeConfig::default(),
        );
        assert!(service
            .rank_sqe("cable car", &[cable], &MotifSet::triangular())
            .is_empty());
        assert!(service.rank_sqe_c("cable car", &[cable]).is_empty());
        assert_eq!(service.epoch_vector(), vec![0, 0, 0]);
    }
}
