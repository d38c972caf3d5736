//! Experiment harness: regenerates every table and figure of the paper.
//!
//! | Paper artifact | Harness entry point |
//! |---|---|
//! | Figure 2a–c (cycle analysis) | [`figures::figure2`] |
//! | Table 1 (ImageCLEF configurations + upper bound) | [`tables::table1`] |
//! | Figure 5 (% improvement of SQE_T / SQE_T&S / SQE_S) | [`figures::figure5`] |
//! | Table 2a–c (three datasets, manual/automatic linking) | [`tables::table2`] |
//! | Figure 6a–c (% improvement of SQE_C (M)/(A), QL_X) | [`figures::figure6`] |
//! | Table 3a–c (PRF and SQE_C/PRF) | [`tables::table3`] |
//! | Table 4 (query-graph construction times) | [`timing::table4`] |
//!
//! Beyond the paper's artifacts, [`motif_search`] scores the generalized
//! motif space against the planted optimal query graphs (`experiments
//! motif-search`, written to `BENCH_motif.json`), and `experiments
//! snapshot write|verify|info` manages the binary snapshot file. The
//! `experiments` binary drives everything; Criterion benches live under
//! `benches/`. Serving, ingest and cold-start speed are measured by the
//! separate `perfbench/` package.

pub mod context;
pub mod export;
pub mod motif_search;
pub mod report;
pub mod runs;
pub mod tables;
pub mod timing;

pub mod figures;

pub use context::ExperimentContext;
pub use runs::DatasetRunner;
