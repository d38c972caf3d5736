//! `experiments serve-bench`: a load generator for the concurrent query
//! service.
//!
//! Replays every dataset's full query set (optionally repeated) through
//! [`QueryService::run_batch_sqe_c`] — the paper's headline SQE_C
//! configuration, which exercises all four timed stages — at several
//! worker counts, in two phases per service:
//!
//! * **cold**: a fresh service, empty expansion cache;
//! * **warm**: the same service replayed after [`QueryService::reset_metrics`],
//!   so the cache is fully populated but the latency histograms and cache
//!   counters contain only warm traffic.
//!
//! The report is written to `BENCH_serve.json` (see
//! [`write_report`]); CI runs the `--smoke` variant on the small test bed
//! and archives the file as an artifact so serving regressions show up in
//! review, not in production.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use kbgraph::ArticleId;
use searchlite::{Analyzer, ShardRouter};
use serde::Serialize;
use sqe::{
    MetricsSnapshot, MonotonicClock, QueryService, ServeConfig, ShardedService, STAGE_NAMES,
};

use crate::context::ExperimentContext;

/// Load-generator options.
#[derive(Debug, Clone)]
pub struct ServeBenchOptions {
    /// Worker counts to sweep.
    pub thread_counts: Vec<usize>,
    /// How many times the query set is replayed within one phase (larger
    /// = more load per measurement, smoother percentiles).
    pub repeat: usize,
    /// Expansion-cache capacity handed to every service.
    pub cache_capacity: usize,
    /// Shards to scatter over; 1 = the single-shard [`QueryService`].
    pub shards: usize,
}

impl Default for ServeBenchOptions {
    fn default() -> Self {
        ServeBenchOptions {
            thread_counts: vec![1, 2, 4, 8],
            repeat: 4,
            cache_capacity: 4096,
            shards: 1,
        }
    }
}

impl ServeBenchOptions {
    /// The CI smoke preset: minimal load, two worker counts.
    pub fn smoke() -> Self {
        ServeBenchOptions {
            thread_counts: vec![1, 2],
            repeat: 1,
            cache_capacity: 4096,
            shards: 1,
        }
    }
}

/// One stage's latency statistics in milliseconds.
#[derive(Debug, Clone, Serialize)]
pub struct StageStats {
    /// Stage name (one of [`STAGE_NAMES`]).
    pub stage: String,
    /// Recorded durations.
    pub count: u64,
    /// Exact mean latency (ms).
    pub mean_ms: f64,
    /// Median upper bound (ms, power-of-two bucket resolution).
    pub p50_ms: f64,
    /// 95th percentile upper bound (ms).
    pub p95_ms: f64,
    /// 99th percentile upper bound (ms).
    pub p99_ms: f64,
    /// 99.9th percentile upper bound (ms).
    pub p999_ms: f64,
}

/// One measured phase (cold or warm) of one (dataset, workers) cell.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseReport {
    /// `"cold"` or `"warm"`.
    pub phase: String,
    /// Queries served in this phase.
    pub queries: u64,
    /// Wall-clock time of the whole replay (ms).
    pub wall_ms: f64,
    /// Queries per second over the replay wall time.
    pub throughput_qps: f64,
    /// Expansion-cache hit rate within this phase.
    pub cache_hit_rate: f64,
    /// Cumulative cache evictions at the end of the phase.
    pub cache_evictions: u64,
    /// Σ in-service execution time / wall time — the concurrency the
    /// replay actually achieved, as opposed to the offered worker
    /// count. Comparable with `BENCH_load.json`'s field of the same
    /// name.
    pub achieved_concurrency: f64,
    /// Per-stage latency statistics.
    pub stages: Vec<StageStats>,
}

/// Cold + warm phases of one dataset at one worker count.
#[derive(Debug, Clone, Serialize)]
pub struct CellReport {
    /// Dataset name.
    pub dataset: String,
    /// Worker threads used by the batch executor.
    pub workers: usize,
    /// Shards the service scattered over (1 = monolithic).
    pub shards: usize,
    /// Queries per replay (query set × repeat).
    pub load: usize,
    /// The cold then warm phase.
    pub phases: Vec<PhaseReport>,
}

/// The whole serve-bench report (`BENCH_serve.json`).
#[derive(Debug, Clone, Serialize)]
pub struct ServeBenchReport {
    /// `"small"` or `"full"` test bed.
    pub context: String,
    /// Replays per phase.
    pub repeat: usize,
    /// Swept worker counts.
    pub thread_counts: Vec<usize>,
    /// Shards per service.
    pub shards: usize,
    /// One cell per (dataset, workers) pair.
    pub cells: Vec<CellReport>,
}

fn nanos_to_ms(n: u64) -> f64 {
    n as f64 / 1e6
}

/// Converts a post-replay metrics snapshot into a [`PhaseReport`].
fn phase_from_snapshot(snap: &MetricsSnapshot, wall_ms: f64, phase: &str) -> PhaseReport {
    let stages = STAGE_NAMES
        .iter()
        .zip(snap.stages.iter())
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
    let busy_nanos = snap.stages.last().map(|h| h.sum_nanos).unwrap_or(0);
    PhaseReport {
        phase: phase.to_owned(),
        queries: snap.queries,
        wall_ms,
        throughput_qps: if wall_ms > 0.0 {
            snap.queries as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
        cache_hit_rate: snap.cache_hit_rate,
        cache_evictions: snap.cache_evictions,
        achieved_concurrency: if wall_ms > 0.0 {
            busy_nanos as f64 / (wall_ms * 1e6)
        } else {
            0.0
        },
        stages,
    }
}

/// Runs one replay of `load` and converts the service metrics into a
/// [`PhaseReport`].
fn run_phase(
    service: &QueryService<'_>,
    load: &[(String, Vec<ArticleId>)],
    phase: &str,
) -> PhaseReport {
    let start = Instant::now();
    let out = service.run_batch_sqe_c(load);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(out.len());
    phase_from_snapshot(&service.metrics_snapshot(), wall_ms, phase)
}

/// Builds a sharded service over one collection of the test bed by
/// routing every document through the ingestion path and sealing once
/// at the end.
fn build_sharded_service<'a>(
    ctx: &'a ExperimentContext,
    collection: usize,
    shards: usize,
    serve_cfg: ServeConfig,
) -> ShardedService<'a> {
    let service = ShardedService::with_clock(
        &ctx.bed.kb.graph,
        Analyzer::english(),
        ShardRouter::new(shards),
        ctx.sqe_config,
        serve_cfg,
        Arc::new(MonotonicClock::new()),
    );
    if let Some(coll) = ctx.bed.collections.get(collection) {
        for doc in &coll.docs {
            service
                .add_document(&doc.id, &doc.text)
                .expect("invariant: test-bed document ids are unique");
        }
    }
    service.seal_all();
    service
}

/// Runs the load generator over the three datasets and the configured
/// worker counts.
pub fn run_serve_bench(
    ctx: &ExperimentContext,
    context_name: &str,
    opts: &ServeBenchOptions,
) -> ServeBenchReport {
    let mut cells = Vec::new();
    for dataset in ["imageclef", "chic2012", "chic2013"] {
        let runner = ctx.runner(dataset);
        let ds = runner.dataset();
        let index = &ctx.indexes[ds.collection];
        let mut load: Vec<(String, Vec<ArticleId>)> = Vec::new();
        for _ in 0..opts.repeat.max(1) {
            for q in &ds.queries {
                load.push((q.text.clone(), runner.manual_nodes(q)));
            }
        }
        for &workers in &opts.thread_counts {
            let serve_cfg = ServeConfig {
                workers,
                cache_capacity: opts.cache_capacity,
                ..ServeConfig::default()
            };
            let (sharded, mono);
            let service: &QueryService<'_> = if opts.shards > 1 {
                sharded = build_sharded_service(ctx, ds.collection, opts.shards, serve_cfg);
                sharded.reset_metrics(); // drop the ingest-phase counters
                &sharded
            } else {
                mono = QueryService::with_clock(
                    &ctx.bed.kb.graph,
                    index,
                    ctx.sqe_config,
                    serve_cfg,
                    Arc::new(MonotonicClock::new()),
                );
                &mono
            };
            let cold = run_phase(service, &load, "cold");
            // Same service: the cache stays hot, the metrics start over.
            service.reset_metrics();
            let warm = run_phase(service, &load, "warm");
            cells.push(CellReport {
                dataset: dataset.to_owned(),
                workers,
                shards: opts.shards.max(1),
                load: load.len(),
                phases: vec![cold, warm],
            });
        }
    }
    ServeBenchReport {
        context: context_name.to_owned(),
        repeat: opts.repeat,
        thread_counts: opts.thread_counts.clone(),
        shards: opts.shards.max(1),
        cells,
    }
}

/// Serializes the report to pretty JSON.
pub fn report_json(report: &ServeBenchReport) -> String {
    serde_json::to_string_pretty(report).unwrap_or_else(|_| "{}".to_owned())
}

/// Writes `BENCH_serve.json` (or any other path).
pub fn write_report(report: &ServeBenchReport, path: &Path) -> io::Result<()> {
    std::fs::write(path, report_json(report))
}

/// A human-readable summary table of the report.
pub fn format_report(report: &ServeBenchReport) -> String {
    let mut s = format!(
        "=== serve-bench ({} bed, x{} replay, {} shard(s)) ===\n{:<11}{:>4}{:>7}  {:>9}{:>11}{:>7}{:>10}{:>10}\n",
        report.context,
        report.repeat,
        report.shards,
        "dataset",
        "thr",
        "phase",
        "qps",
        "hit rate",
        "evict",
        "p95 ms",
        "p99 ms"
    );
    for cell in &report.cells {
        for phase in &cell.phases {
            let total = phase
                .stages
                .iter()
                .find(|st| st.stage == "total")
                .cloned()
                .unwrap_or(StageStats {
                    stage: "total".to_owned(),
                    count: 0,
                    mean_ms: 0.0,
                    p50_ms: 0.0,
                    p95_ms: 0.0,
                    p99_ms: 0.0,
                    p999_ms: 0.0,
                });
            s.push_str(&format!(
                "{:<11}{:>4}{:>7}  {:>9.1}{:>10.1}%{:>7}{:>10.3}{:>10.3}\n",
                cell.dataset,
                cell.workers,
                phase.phase,
                phase.throughput_qps,
                phase.cache_hit_rate * 100.0,
                phase.cache_evictions,
                total.p95_ms,
                total.p99_ms
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_reports_every_cell_and_phase() {
        let ctx = ExperimentContext::small();
        let opts = ServeBenchOptions::smoke();
        let report = run_serve_bench(&ctx, "small", &opts);
        assert_eq!(report.cells.len(), 3 * opts.thread_counts.len());
        for cell in &report.cells {
            assert_eq!(cell.phases.len(), 2);
            let cold = &cell.phases[0];
            let warm = &cell.phases[1];
            assert_eq!(cold.phase, "cold");
            assert_eq!(warm.phase, "warm");
            assert_eq!(cold.queries as usize, cell.load);
            assert_eq!(warm.queries as usize, cell.load);
            // Every SQE_C query is three expansion lookups; with a single
            // replay the cold phase misses every distinct (nodes, config)
            // key at least once, while the warm phase never misses.
            assert!(cold.cache_hit_rate < 1.0);
            assert!(
                (warm.cache_hit_rate - 1.0).abs() < 1e-12,
                "warm phase must be fully cached, got {}",
                warm.cache_hit_rate
            );
            // Stage histograms saw real (monotonic-clock) traffic.
            for phase in &cell.phases {
                let by_name = |n: &str| {
                    phase
                        .stages
                        .iter()
                        .find(|st| st.stage == n)
                        .cloned()
                        .expect("stage present")
                };
                assert_eq!(by_name("total").count as usize, cell.load);
                assert_eq!(by_name("expand").count as usize, 3 * cell.load);
                assert_eq!(by_name("combine").count as usize, cell.load);
                assert!(by_name("total").p99_ms >= by_name("total").p50_ms);
                assert!(by_name("total").p999_ms >= by_name("total").p99_ms);
                assert!(phase.throughput_qps > 0.0);
                // The replay keeps the pool busy: achieved concurrency
                // is positive and can't exceed the offered worker count
                // by more than measurement noise.
                assert!(phase.achieved_concurrency > 0.0);
            }
        }
        // The JSON round-trips through the vendored serde.
        let json = report_json(&report);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("report JSON parses");
        let warm_phase = parsed
            .get("cells")
            .and_then(|c| c.as_array())
            .and_then(|c| c.first())
            .and_then(|c| c.get("phases"))
            .and_then(|p| p.as_array())
            .and_then(|p| p.get(1))
            .and_then(|p| p.get("phase"))
            .and_then(|p| p.as_str());
        assert_eq!(warm_phase, Some("warm"));
        let table = format_report(&report);
        assert!(table.contains("imageclef"));
        assert!(table.contains("warm"));
    }

    #[test]
    fn sharded_smoke_bench_matches_cell_shape_and_warms_cache() {
        let ctx = ExperimentContext::small();
        let mut opts = ServeBenchOptions::smoke();
        opts.thread_counts = vec![2];
        opts.shards = 3;
        let report = run_serve_bench(&ctx, "small", &opts);
        assert_eq!(report.shards, 3);
        assert_eq!(report.cells.len(), 3);
        for cell in &report.cells {
            assert_eq!(cell.shards, 3);
            assert_eq!(cell.phases.len(), 2);
            let cold = &cell.phases[0];
            let warm = &cell.phases[1];
            assert_eq!(cold.queries as usize, cell.load);
            assert_eq!(warm.queries as usize, cell.load);
            assert!(cold.cache_hit_rate < 1.0);
            assert!(
                (warm.cache_hit_rate - 1.0).abs() < 1e-12,
                "warm sharded phase must be fully cached, got {}",
                warm.cache_hit_rate
            );
            for phase in &cell.phases {
                let total = phase
                    .stages
                    .iter()
                    .find(|st| st.stage == "total")
                    .expect("total stage present");
                assert_eq!(total.count as usize, cell.load);
                assert!(phase.throughput_qps > 0.0);
            }
        }
    }
}
