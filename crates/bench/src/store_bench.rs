//! `experiments store-bench`: cold-start measurement for the snapshot
//! store.
//!
//! Compares the three ways a service can obtain its working state:
//!
//! * **regenerate** — build the synthetic world from scratch
//!   (generation + indexing + linker dictionary), the pre-store status
//!   quo of every boot;
//! * **json** — decode the KB graph and every collection index from the
//!   JSON persistence strings (`KbGraph::from_json`,
//!   `Index::from_json`);
//! * **snapshot** — decode the single binary snapshot
//!   ([`sqe_store::Snapshot::from_bytes`]), which additionally restores
//!   the linker dictionary and runs the full structural audits.
//!
//! Timings use the warmup + median-of-k [`TimingProtocol`]. The report
//! is written to `BENCH_store.json`; CI runs `--smoke` on the small bed
//! and archives the file, and the acceptance bar is a ≥5× speedup of
//! the snapshot path over the JSON path on `TestBedConfig::small()`.

use std::io;
use std::path::Path;

use serde::Serialize;
use sqe_store::{encode_snapshot, Snapshot, SnapshotContents};
use synthwiki::TestBedConfig;

use crate::context::ExperimentContext;
use crate::timing::{measure_ms, TimingProtocol};

/// Store-bench options.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreBenchOptions {
    /// Timing protocol for every measured path.
    pub protocol: TimingProtocol,
}

impl StoreBenchOptions {
    /// The CI smoke preset: fewer samples, same coverage.
    pub fn smoke() -> Self {
        StoreBenchOptions {
            protocol: TimingProtocol {
                warmup: 1,
                samples: 3,
                inner_iters: 1,
            },
        }
    }
}

/// The whole store-bench report (`BENCH_store.json`).
#[derive(Debug, Clone, Serialize)]
pub struct StoreBenchReport {
    /// `"small"` or `"full"` test bed.
    pub context: String,
    /// Timed samples per path (median reported).
    pub samples: usize,
    /// Collections persisted.
    pub collections: Vec<String>,
    /// Milliseconds to regenerate the whole world from scratch.
    pub regenerate_ms: f64,
    /// Total bytes of the JSON persistence strings (graph + indexes).
    pub json_bytes: u64,
    /// Milliseconds to decode graph + all indexes from JSON.
    pub json_load_ms: f64,
    /// Bytes of the binary snapshot (graph + indexes + dictionary).
    pub snapshot_bytes: u64,
    /// Milliseconds to decode + audit the snapshot.
    pub snapshot_load_ms: f64,
    /// `json_load_ms / snapshot_load_ms`.
    pub speedup_vs_json: f64,
    /// `regenerate_ms / snapshot_load_ms`.
    pub speedup_vs_regenerate: f64,
}

/// Runs the cold-start comparison on the given test-bed config.
pub fn run_store_bench(
    cfg: &TestBedConfig,
    context_name: &str,
    opts: &StoreBenchOptions,
) -> StoreBenchReport {
    let protocol = opts.protocol;

    // Path 1: full regeneration (what every boot did before the store).
    let regenerate_ms = measure_ms(protocol, || {
        let ctx = ExperimentContext::from_config(cfg);
        std::hint::black_box(ctx.indexes.len());
    });

    // One context provides the state the persistence paths serialize.
    let ctx = ExperimentContext::from_config(cfg);
    let graph = &ctx.bed.kb.graph;
    let collections: Vec<String> = ctx.bed.collections.iter().map(|c| c.name.clone()).collect();

    // Path 2: the JSON strings (graph + one string per index).
    let graph_json = graph.to_json().expect("graph serializes to JSON");
    let index_jsons: Vec<String> = ctx
        .indexes
        .iter()
        .map(|i| i.to_json().expect("index serializes to JSON"))
        .collect();
    let json_bytes = (graph_json.len() + index_jsons.iter().map(String::len).sum::<usize>()) as u64;
    let json_load_ms = measure_ms(protocol, || {
        let g = kbgraph::KbGraph::from_json(&graph_json).expect("persisted graph decodes");
        std::hint::black_box(g.num_articles());
        for j in &index_jsons {
            let idx = searchlite::Index::from_json(j).expect("persisted index decodes");
            std::hint::black_box(idx.num_docs());
        }
    });

    // Path 3: the binary snapshot (graph + indexes + linker dictionary,
    // decoded with checksum verification and full audits).
    let segment_slices: Vec<Vec<&searchlite::Index>> =
        ctx.indexes.iter().map(|i| vec![i]).collect();
    let named: Vec<(&str, &[&searchlite::Index])> = collections
        .iter()
        .map(String::as_str)
        .zip(segment_slices.iter().map(Vec::as_slice))
        .collect();
    let snapshot = encode_snapshot(&SnapshotContents {
        graph,
        collections: &named,
        dict: ctx.linker.dictionary(),
    })
    .expect("snapshot encodes");
    let snapshot_bytes = snapshot.len() as u64;
    let snapshot_load_ms = measure_ms(protocol, || {
        let snap = Snapshot::from_bytes(&snapshot).expect("snapshot decodes");
        std::hint::black_box(snap.graph().num_articles());
    });

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    StoreBenchReport {
        context: context_name.to_owned(),
        samples: protocol.samples,
        collections,
        regenerate_ms,
        json_bytes,
        json_load_ms,
        snapshot_bytes,
        snapshot_load_ms,
        speedup_vs_json: ratio(json_load_ms, snapshot_load_ms),
        speedup_vs_regenerate: ratio(regenerate_ms, snapshot_load_ms),
    }
}

/// Serializes the report to pretty JSON.
pub fn report_json(report: &StoreBenchReport) -> String {
    serde_json::to_string_pretty(report).unwrap_or_else(|_| "{}".to_owned())
}

/// Writes `BENCH_store.json` (or any other path).
pub fn write_report(report: &StoreBenchReport, path: &Path) -> io::Result<()> {
    std::fs::write(path, report_json(report))
}

/// A human-readable summary of the report.
pub fn format_report(report: &StoreBenchReport) -> String {
    format!(
        "=== store-bench ({} bed, median of {}) ===\n\
         {:<12}{:>12}{:>14}\n\
         {:<12}{:>12}{:>14.2}\n\
         {:<12}{:>12}{:>14.2}\n\
         {:<12}{:>12}{:>14.2}\n\
         snapshot vs json: {:.1}x faster; vs regenerate: {:.1}x faster\n",
        report.context,
        report.samples,
        "path",
        "bytes",
        "cold ms",
        "regenerate",
        "-",
        report.regenerate_ms,
        "json",
        report.json_bytes,
        report.json_load_ms,
        "snapshot",
        report.snapshot_bytes,
        report.snapshot_load_ms,
        report.speedup_vs_json,
        report.speedup_vs_regenerate
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_reports_sane_numbers() {
        let report = run_store_bench(
            &TestBedConfig::small(),
            "small",
            &StoreBenchOptions::smoke(),
        );
        assert_eq!(report.collections.len(), 2);
        assert!(report.regenerate_ms > 0.0);
        assert!(report.json_load_ms > 0.0);
        assert!(report.snapshot_load_ms > 0.0);
        assert!(report.json_bytes > 0);
        assert!(report.snapshot_bytes > 0);
        // No relative-speed assertion: debug builds on a loaded machine
        // make such comparisons flaky. The ≥5x snapshot-vs-JSON bar is
        // enforced on the release-mode BENCH_store.json artifact.
        assert!(report.speedup_vs_json.is_finite() && report.speedup_vs_json > 0.0);
        assert!(report.speedup_vs_regenerate.is_finite() && report.speedup_vs_regenerate > 0.0);
        let json = report_json(&report);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("report JSON parses");
        assert!(parsed.get("speedup_vs_json").is_some());
        let table = format_report(&report);
        assert!(table.contains("snapshot vs json"));
    }
}
