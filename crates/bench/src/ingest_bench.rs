//! `experiments ingest-bench`: live-ingestion benchmark for the
//! segmented query service.
//!
//! Measures, per dataset, the three serving regimes of the segmented
//! architecture:
//!
//! * **static** — the corpus fully sealed into its initial segment, no
//!   writes: the pre-refactor baseline throughput;
//! * **ingest** — queries replayed *while* documents stream in and the
//!   buffer seals every `seal_every` additions: queries-per-second under
//!   write load, plus add/build/commit/publish/merge latency histograms
//!   from the service's [`sqe::IngestHistograms`];
//! * **merged** — after a final [`QueryService::force_merge`] compacts
//!   every segment into one: throughput once the corpus is monolithic
//!   again.
//!
//! Byte-identical scoring across the three regimes is already enforced
//! by the determinism wall (`tests/serve_determinism.rs`); this bench
//! only measures cost. The report is written to `BENCH_ingest.json`;
//! CI runs `--smoke` on the small bed and archives the file.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use kbgraph::ArticleId;
use searchlite::{Analyzer, QlParams, ShardRouter};
use serde::Serialize;
use sqe::{
    ExpandConfig, MonotonicClock, QueryService, ServeConfig, ShardedService, SqeConfig,
    INGEST_STAGE_NAMES,
};
use synthwiki::{TestBedConfig, TestBedPlan};

use crate::context::ExperimentContext;
use crate::serve_bench::StageStats;

/// Ingest-bench options.
#[derive(Debug, Clone, Copy)]
pub struct IngestBenchOptions {
    /// How many times the query set is replayed per measured batch.
    pub repeat: usize,
    /// Worker threads for the batch executor.
    pub workers: usize,
    /// Documents streamed in during the ingest phase.
    pub ingest_docs: usize,
    /// A seal is forced every this many added documents.
    pub seal_every: usize,
    /// Expansion-cache capacity handed to the service.
    pub cache_capacity: usize,
}

impl Default for IngestBenchOptions {
    fn default() -> Self {
        IngestBenchOptions {
            repeat: 4,
            workers: 4,
            ingest_docs: 400,
            seal_every: 50,
            cache_capacity: 4096,
        }
    }
}

impl IngestBenchOptions {
    /// The CI smoke preset: minimal load, same phase coverage.
    pub fn smoke() -> Self {
        IngestBenchOptions {
            repeat: 1,
            workers: 2,
            ingest_docs: 40,
            seal_every: 10,
            cache_capacity: 4096,
        }
    }
}

/// One measured regime (static, ingest or merged) of one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct IngestPhaseReport {
    /// `"static"`, `"ingest"` or `"merged"`.
    pub phase: String,
    /// Queries served in this phase.
    pub queries: u64,
    /// Wall-clock time of the whole phase (ms), including writes.
    pub wall_ms: f64,
    /// Queries per second over the phase wall time.
    pub throughput_qps: f64,
    /// Segment-set epoch at the end of the phase.
    pub epoch: u64,
    /// Segments at the end of the phase.
    pub segments: usize,
    /// Documents added in this phase.
    pub docs_ingested: u64,
    /// Seals performed in this phase.
    pub seals: u64,
    /// Merge operations performed in this phase.
    pub merges: u64,
    /// add/build/commit/publish/merge latency statistics for this phase.
    pub ingest_stages: Vec<StageStats>,
}

/// All three phases of one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct IngestCellReport {
    /// Dataset name.
    pub dataset: String,
    /// Queries per replayed batch.
    pub load: usize,
    /// static → ingest → merged, in order.
    pub phases: Vec<IngestPhaseReport>,
}

/// The whole ingest-bench report (`BENCH_ingest.json`).
#[derive(Debug, Clone, Serialize)]
pub struct IngestBenchReport {
    /// `"small"` or `"full"` test bed.
    pub context: String,
    /// Replays per measured batch.
    pub repeat: usize,
    /// Worker threads used by the batch executor.
    pub workers: usize,
    /// Documents streamed during each ingest phase.
    pub ingest_docs: usize,
    /// Forced seal cadence (documents per seal).
    pub seal_every: usize,
    /// One cell per dataset.
    pub cells: Vec<IngestCellReport>,
}

fn nanos_to_ms(n: u64) -> f64 {
    n as f64 / 1e6
}

/// Converts the phase-scoped metrics snapshot into a report entry.
fn phase_report(service: &QueryService<'_>, phase: &str, wall_ms: f64) -> IngestPhaseReport {
    let snap = service.metrics_snapshot();
    let ingest_stages = INGEST_STAGE_NAMES
        .iter()
        .zip(snap.ingest.iter())
        .map(|(name, h)| StageStats {
            stage: (*name).to_owned(),
            count: h.count,
            mean_ms: h.mean_nanos / 1e6,
            p50_ms: nanos_to_ms(h.p50_nanos),
            p95_ms: nanos_to_ms(h.p95_nanos),
            p99_ms: nanos_to_ms(h.p99_nanos),
            p999_ms: nanos_to_ms(h.p999_nanos),
        })
        .collect();
    IngestPhaseReport {
        phase: phase.to_owned(),
        queries: snap.queries,
        wall_ms,
        throughput_qps: if wall_ms > 0.0 {
            snap.queries as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
        epoch: snap.epoch,
        segments: service.num_segments(),
        docs_ingested: snap.docs_ingested,
        seals: snap.seals,
        merges: snap.merges,
        ingest_stages,
    }
}

/// Runs the three-regime measurement over every dataset.
pub fn run_ingest_bench(
    ctx: &ExperimentContext,
    context_name: &str,
    opts: &IngestBenchOptions,
) -> IngestBenchReport {
    let mut cells = Vec::new();
    for dataset in ["imageclef", "chic2012", "chic2013"] {
        let runner = ctx.runner(dataset);
        let ds = runner.dataset();
        let index = &ctx.indexes[ds.collection];
        let coll = ctx.bed.collection_of(ds);
        let mut load: Vec<(String, Vec<ArticleId>)> = Vec::new();
        for _ in 0..opts.repeat.max(1) {
            for q in &ds.queries {
                load.push((q.text.clone(), runner.manual_nodes(q)));
            }
        }
        let service = QueryService::with_clock(
            &ctx.bed.kb.graph,
            index,
            ctx.sqe_config,
            ServeConfig {
                workers: opts.workers,
                cache_capacity: opts.cache_capacity,
                ..ServeConfig::default()
            },
            Arc::new(MonotonicClock::new()),
        );

        // Phase 1: static — the sealed corpus, no writes.
        let start = Instant::now();
        std::hint::black_box(service.run_batch_sqe_c(&load).len());
        let static_phase = phase_report(&service, "static", start.elapsed().as_secs_f64() * 1e3);

        // Phase 2: ingest — queries interleaved with adds and seals.
        // Document text is recycled from the collection so the streamed
        // load is statistically representative of the corpus.
        service.reset_metrics();
        let start = Instant::now();
        let seal_every = opts.seal_every.max(1);
        let chunks = opts.ingest_docs.div_ceil(seal_every).max(1);
        let mut added = 0usize;
        for chunk in 0..chunks {
            for _ in 0..seal_every.min(opts.ingest_docs - added) {
                let text = &coll.docs[added % coll.docs.len()].text;
                service
                    .add_document(&format!("ingest-{dataset}-{added}"), text)
                    .expect("streamed ingest ids are unique");
                added += 1;
            }
            service.seal();
            std::hint::black_box(service.run_batch_sqe_c(&load).len());
            std::hint::black_box(chunk);
        }
        let ingest_phase = phase_report(&service, "ingest", start.elapsed().as_secs_f64() * 1e3);

        // Phase 3: merged — one compaction, then the same replay.
        service.reset_metrics();
        let start = Instant::now();
        service.force_merge();
        std::hint::black_box(service.run_batch_sqe_c(&load).len());
        let merged_phase = phase_report(&service, "merged", start.elapsed().as_secs_f64() * 1e3);

        cells.push(IngestCellReport {
            dataset: dataset.to_owned(),
            load: load.len(),
            phases: vec![static_phase, ingest_phase, merged_phase],
        });
    }
    IngestBenchReport {
        context: context_name.to_owned(),
        repeat: opts.repeat,
        workers: opts.workers,
        ingest_docs: opts.ingest_docs,
        seal_every: opts.seal_every,
        cells,
    }
}

/// Serializes the report to pretty JSON.
pub fn report_json(report: &IngestBenchReport) -> String {
    serde_json::to_string_pretty(report).unwrap_or_else(|_| "{}".to_owned())
}

/// Writes `BENCH_ingest.json` (or any other path).
pub fn write_report(report: &IngestBenchReport, path: &Path) -> io::Result<()> {
    std::fs::write(path, report_json(report))
}

/// A human-readable summary table of the report.
pub fn format_report(report: &IngestBenchReport) -> String {
    let mut s = format!(
        "=== ingest-bench ({} bed, x{} replay, {} docs, seal every {}) ===\n\
         {:<11}{:>8}  {:>9}{:>7}{:>6}{:>7}{:>12}{:>12}\n",
        report.context,
        report.repeat,
        report.ingest_docs,
        report.seal_every,
        "dataset",
        "phase",
        "qps",
        "segs",
        "epoch",
        "seals",
        "build p95 ms",
        "add p95 ms"
    );
    for cell in &report.cells {
        for phase in &cell.phases {
            let p95 = |n: &str| {
                phase
                    .ingest_stages
                    .iter()
                    .find(|st| st.stage == n)
                    .map_or(0.0, |st| st.p95_ms)
            };
            s.push_str(&format!(
                "{:<11}{:>8}  {:>9.1}{:>7}{:>6}{:>7}{:>12.3}{:>12.3}\n",
                cell.dataset,
                phase.phase,
                phase.throughput_qps,
                phase.segments,
                phase.epoch,
                phase.seals,
                p95("build"),
                p95("add")
            ));
        }
    }
    s
}

// ------------------------------------------------------------------
// Streaming sharded build: `experiments ingest-bench --articles=N
// --shards=M`. The corpus never exists in memory — the streaming
// generator hands each document straight to the router, which buffers
// it on its shard until the periodic seal.
// ------------------------------------------------------------------

/// Options for the streaming sharded build.
#[derive(Debug, Clone, Copy)]
pub struct StreamingIngestOptions {
    /// Total articles across both collections.
    pub articles: usize,
    /// Shards per collection service.
    pub shards: usize,
    /// Every shard of a collection is sealed after this many documents
    /// stream into that collection.
    pub seal_every: usize,
    /// Worker threads for the post-build query replay.
    pub workers: usize,
    /// Expansion-cache capacity per service.
    pub cache_capacity: usize,
}

impl StreamingIngestOptions {
    /// Full preset (used for the headline 1M-article build).
    pub fn new(articles: usize, shards: usize) -> Self {
        StreamingIngestOptions {
            articles,
            shards: shards.max(1),
            seal_every: 50_000,
            workers: 4,
            cache_capacity: 4096,
        }
    }

    /// CI smoke preset: tighter seal cadence so several epochs happen
    /// even on a small article budget.
    pub fn smoke(articles: usize, shards: usize) -> Self {
        StreamingIngestOptions {
            articles,
            shards: shards.max(1),
            seal_every: 10_000,
            workers: 2,
            cache_capacity: 4096,
        }
    }
}

/// Post-build query throughput over one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct StreamingServeCell {
    /// Dataset name.
    pub dataset: String,
    /// Queries replayed (SQE_C).
    pub queries: u64,
    /// Replay wall time (ms).
    pub wall_ms: f64,
    /// Queries per second.
    pub throughput_qps: f64,
}

/// The streaming-build report (`BENCH_ingest.json` in `--articles` mode).
#[derive(Debug, Clone, Serialize)]
pub struct StreamingIngestReport {
    /// Always `"streaming"`.
    pub context: String,
    /// Articles requested (and generated).
    pub articles: usize,
    /// Shards per collection service.
    pub shards: usize,
    /// Seal cadence (documents per collection between seal sweeps).
    pub seal_every: usize,
    /// Worker threads for the query replay.
    pub workers: usize,
    /// Wall time of KB + query-set planning (ms), before any document.
    pub plan_ms: f64,
    /// Wall time of the streamed generate-route-index-seal build (ms).
    pub build_ms: f64,
    /// Documents ingested across both collection services.
    pub docs_ingested: u64,
    /// Build throughput (documents per second).
    pub docs_per_sec: f64,
    /// Seals across all shards of both services.
    pub seals: u64,
    /// Merges across all shards of both services.
    pub merges: u64,
    /// Final per-shard epoch vector of each collection service.
    pub epoch_vectors: Vec<Vec<u64>>,
    /// Post-build SQE_C throughput per dataset.
    pub serve: Vec<StreamingServeCell>,
}

/// Generates `cfg`'s test bed with the streaming generator, routing
/// every document into one of two sharded services (one per
/// collection) as it is emitted, then replays every dataset's query
/// set through the sharded scatter-gather path.
pub fn run_streaming_ingest_bench(
    cfg: &TestBedConfig,
    opts: &StreamingIngestOptions,
) -> StreamingIngestReport {
    let plan_start = Instant::now();
    let plan = TestBedPlan::new(cfg);
    let plan_ms = plan_start.elapsed().as_secs_f64() * 1e3;

    let sqe_config = SqeConfig {
        expand: ExpandConfig::default(),
        ql: QlParams { mu: 15.0 },
        depth: 1000,
    };
    let serve_cfg = ServeConfig {
        workers: opts.workers,
        cache_capacity: opts.cache_capacity,
        ..ServeConfig::default()
    };
    let services: Vec<ShardedService<'_>> = (0..2)
        .map(|_| {
            ShardedService::with_clock(
                &plan.kb.graph,
                Analyzer::english(),
                ShardRouter::new(opts.shards.max(1)),
                sqe_config,
                serve_cfg.clone(),
                Arc::new(MonotonicClock::new()),
            )
        })
        .collect();

    let build_start = Instant::now();
    let seal_every = opts.seal_every.max(1);
    let mut counts = [0usize; 2];
    let (datasets, _doc_counts) = plan.stream_docs(cfg, &mut |coll, doc| {
        let service = services
            .get(coll)
            .expect("invariant: the generator emits exactly two collections");
        service
            .add_document(&doc.id, &doc.text)
            .expect("invariant: generated document ids are unique");
        let count = counts
            .get_mut(coll)
            .expect("invariant: the generator emits exactly two collections");
        *count += 1;
        if *count % seal_every == 0 {
            service.seal_all();
        }
    });
    for service in &services {
        service.seal_all();
    }
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;

    let mut docs_ingested = 0u64;
    let mut seals = 0u64;
    let mut merges = 0u64;
    let mut epoch_vectors = Vec::new();
    for service in &services {
        let snap = service.metrics_snapshot();
        docs_ingested += snap.docs_ingested;
        seals += snap.seals;
        merges += snap.merges;
        epoch_vectors.push(service.epoch_vector());
    }

    let mut serve = Vec::new();
    for ds in &datasets {
        let load: Vec<(String, Vec<ArticleId>)> = ds
            .queries
            .iter()
            .map(|q| {
                let nodes = q
                    .targets
                    .iter()
                    .filter_map(|&e| plan.kb.article_of.get(e).copied())
                    .collect();
                (q.text.clone(), nodes)
            })
            .collect();
        let Some(service) = services.get(ds.collection) else {
            continue;
        };
        service.reset_metrics();
        let start = Instant::now();
        std::hint::black_box(service.run_batch_sqe_c(&load).len());
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let queries = service.metrics_snapshot().queries;
        serve.push(StreamingServeCell {
            dataset: ds.name.clone(),
            queries,
            wall_ms,
            throughput_qps: if wall_ms > 0.0 {
                queries as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
        });
    }

    StreamingIngestReport {
        context: "streaming".to_owned(),
        articles: opts.articles,
        shards: opts.shards.max(1),
        seal_every,
        workers: opts.workers,
        plan_ms,
        build_ms,
        docs_ingested,
        docs_per_sec: if build_ms > 0.0 {
            docs_ingested as f64 / (build_ms / 1e3)
        } else {
            0.0
        },
        seals,
        merges,
        epoch_vectors,
        serve,
    }
}

/// Serializes the streaming report to pretty JSON.
pub fn streaming_report_json(report: &StreamingIngestReport) -> String {
    serde_json::to_string_pretty(report).unwrap_or_else(|_| "{}".to_owned())
}

/// Writes the streaming report to disk.
pub fn write_streaming_report(report: &StreamingIngestReport, path: &Path) -> io::Result<()> {
    std::fs::write(path, streaming_report_json(report))
}

/// A human-readable summary of the streaming build.
pub fn format_streaming_report(report: &StreamingIngestReport) -> String {
    let mut s = format!(
        "=== streaming ingest ({} articles, {} shards, seal every {}) ===\n\
         plan {:.0} ms | build {:.0} ms | {} docs @ {:.0} docs/s | {} seals, {} merges\n",
        report.articles,
        report.shards,
        report.seal_every,
        report.plan_ms,
        report.build_ms,
        report.docs_ingested,
        report.docs_per_sec,
        report.seals,
        report.merges,
    );
    for (i, epochs) in report.epoch_vectors.iter().enumerate() {
        s.push_str(&format!("collection {i} epochs: {epochs:?}\n"));
    }
    for cell in &report.serve {
        s.push_str(&format!(
            "{:<11}{:>6} queries  {:>9.1} qps\n",
            cell.dataset, cell.queries, cell.throughput_qps
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_covers_all_three_regimes() {
        let ctx = ExperimentContext::small();
        let opts = IngestBenchOptions::smoke();
        let report = run_ingest_bench(&ctx, "small", &opts);
        assert_eq!(report.cells.len(), 3);
        for cell in &report.cells {
            assert_eq!(cell.phases.len(), 3);
            let [st, ing, merged] = &cell.phases[..] else {
                unreachable!("three phases asserted above")
            };
            assert_eq!(st.phase, "static");
            assert_eq!(ing.phase, "ingest");
            assert_eq!(merged.phase, "merged");
            // Static: sealed single segment, no writes, epoch untouched.
            assert_eq!(st.segments, 1);
            assert_eq!(st.epoch, 0);
            assert_eq!(st.docs_ingested, 0);
            assert!(st.throughput_qps > 0.0);
            // Ingest: every streamed doc was added, every chunk sealed,
            // and the epoch is the number of seals.
            assert_eq!(ing.docs_ingested as usize, opts.ingest_docs);
            assert_eq!(
                ing.seals as usize,
                opts.ingest_docs.div_ceil(opts.seal_every)
            );
            assert_eq!(ing.epoch, ing.seals);
            let by_name = |n: &str| {
                ing.ingest_stages
                    .iter()
                    .find(|s| s.stage == n)
                    .cloned()
                    .expect("ingest stage present")
            };
            assert_eq!(by_name("add").count as usize, opts.ingest_docs);
            for stage in ["build", "commit", "publish"] {
                assert_eq!(by_name(stage).count, ing.seals, "{stage}");
            }
            assert!(by_name("build").mean_ms > 0.0);
            // Merged: one segment again, queries still flowing.
            assert_eq!(merged.segments, 1);
            assert!(merged.queries > 0);
            assert!(merged.throughput_qps > 0.0);
        }
        let json = report_json(&report);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("report JSON parses");
        assert!(parsed.get("cells").is_some());
        let table = format_report(&report);
        assert!(table.contains("ingest"));
        assert!(table.contains("merged"));
    }

    #[test]
    fn streaming_build_ingests_every_article_and_serves_queries() {
        let mut cfg = TestBedConfig::small();
        cfg.imageclef.total_docs = 900;
        cfg.chic.total_docs = 1_400;
        let mut opts = StreamingIngestOptions::smoke(2_300, 3);
        opts.seal_every = 500;
        opts.workers = 2;
        let report = run_streaming_ingest_bench(&cfg, &opts);
        assert_eq!(report.docs_ingested, 2_300);
        assert_eq!(report.shards, 3);
        assert!(report.docs_per_sec > 0.0);
        assert!(report.build_ms > 0.0);
        // Two collection services, three shards each; periodic + final
        // seals advanced at least one epoch per service.
        assert_eq!(report.epoch_vectors.len(), 2);
        for epochs in &report.epoch_vectors {
            assert_eq!(epochs.len(), 3);
            assert!(epochs.iter().sum::<u64>() > 0);
        }
        assert!(report.seals > 0);
        // All three datasets replayed their full query sets.
        assert_eq!(report.serve.len(), 3);
        for cell in &report.serve {
            assert!(cell.queries > 0);
            assert!(cell.throughput_qps > 0.0);
        }
        let json = streaming_report_json(&report);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("report JSON parses");
        assert_eq!(
            parsed.get("context").and_then(|c| c.as_str()),
            Some("streaming")
        );
        let table = format_streaming_report(&report);
        assert!(table.contains("docs/s"));
        assert!(table.contains("imageclef"));
    }
}
