//! `experiments motif-search`: enumerate the generalized motif space
//! against the planted optimal query graphs.
//!
//! The paper fixes its two motifs (triangular, square) by hand from the
//! cycle analysis of Section 2.1. The generalized motif engine makes the
//! whole space enumerable — link reciprocity × category-containment
//! depth × multiplicity weighting — so this experiment asks the question
//! the paper answered by inspection: *which motif sets close the gap to
//! the structural upper bound `SQE^UB`?*
//!
//! For every candidate [`MotifSet`] and every dataset the search scores:
//!
//! * retrieval quality (`P@10` of the SQE run built from the set),
//! * the fraction of `SQE^UB`'s `P@10` the set achieves,
//! * expansion-node F1 against the planted optimal query graphs (the
//!   generator's relevance neighbourhoods — available by construction,
//!   like the ground truth reference \[10\] of the paper),
//! * the mean number of expansion features per query.
//!
//! Candidates are ranked per dataset by `P@10` (ties broken by name so
//! the report is deterministic). The report is written to
//! `BENCH_motif.json`; CI runs `--smoke` on the small bed and archives
//! the file as an artifact.

use std::collections::BTreeSet;
use std::io;
use std::path::Path;

use ireval::precision::mean_precision;
use serde::Serialize;
use sqe::{LinkCondition, MotifSet, MotifSpec};

use crate::context::ExperimentContext;

/// Motif-search options.
#[derive(Debug, Clone, Default)]
pub struct MotifSearchOptions {
    /// Restrict the singleton candidates to mutual-link motifs (the CI
    /// smoke preset; combos are always included).
    pub mutual_only: bool,
}

impl MotifSearchOptions {
    /// The CI smoke preset: mutual-link singletons plus every combo —
    /// still well above twelve distinct sets per dataset.
    pub fn smoke() -> Self {
        MotifSearchOptions { mutual_only: true }
    }
}

/// One (dataset, motif set) cell of the search.
#[derive(Debug, Clone, Serialize)]
pub struct MotifCell {
    /// Stable set name ([`MotifSet::name`]).
    pub motifs: String,
    /// Canonical fingerprint in text form (`m<hex>`), the expansion-cache
    /// key component.
    pub fingerprint: String,
    /// Number of specs in the set.
    pub specs: usize,
    /// Mean P@10 of the SQE run built from this set.
    pub p10: f64,
    /// `p10 / ub_p10` — how much of the upper bound the set achieves.
    pub ub_fraction: f64,
    /// `ub_p10 - p10` — the remaining gap to `SQE^UB`.
    pub gap_to_ub: f64,
    /// Mean expansion-node F1 against the planted optimal query graphs.
    pub expansion_f1: f64,
    /// Mean expansion features per query.
    pub avg_expansions: f64,
}

/// One dataset's ranked candidates.
#[derive(Debug, Clone, Serialize)]
pub struct DatasetMotifReport {
    /// Dataset name.
    pub dataset: String,
    /// `SQE^UB` P@10 (the target every candidate is measured against).
    pub ub_p10: f64,
    /// Unexpanded `QL_Q` P@10 (the floor).
    pub ql_q_p10: f64,
    /// Candidates ranked by P@10 descending, then by name.
    pub ranked: Vec<MotifCell>,
    /// Name of the top-ranked set.
    pub best: String,
}

/// The whole motif-search report (`BENCH_motif.json`).
#[derive(Debug, Clone, Serialize)]
pub struct MotifSearchReport {
    /// `"small"` or `"full"` test bed.
    pub context: String,
    /// Distinct candidate sets scored per dataset.
    pub candidates: usize,
    /// One ranked report per dataset.
    pub datasets: Vec<DatasetMotifReport>,
}

/// The candidate motif sets: every singleton spec in the enumerable
/// space plus the named multi-motif configurations (the paper's
/// `SQE_T&S` and its structural neighbours), deduplicated by
/// fingerprint.
pub fn candidate_sets(opts: &MotifSearchOptions) -> Vec<MotifSet> {
    let named = |name: &str| -> MotifSpec {
        MotifSpec::from_name(name).expect("invariant: candidate combo names are canonical")
    };
    let mut out: Vec<MotifSet> = MotifSpec::all()
        .into_iter()
        .filter(|s| !opts.mutual_only || s.link == LinkCondition::Mutual)
        .map(MotifSet::single)
        .collect();
    let combos = [
        // The paper's union.
        MotifSet::t_and_s(),
        // Shallower category condition next to the triangular one.
        MotifSet::new(vec![named("mutual+superset"), named("mutual+shared")]),
        // Extend the union one cycle deeper (the 5-cycles the paper
        // declined to traverse).
        MotifSet::new(vec![
            named("mutual+superset"),
            named("mutual+adjacent"),
            named("mutual+cousin"),
        ]),
        // T&S with the reciprocity requirement relaxed / reversed.
        MotifSet::new(vec![named("anylink+superset"), named("anylink+adjacent")]),
        MotifSet::new(vec![named("outlink+superset"), named("outlink+adjacent")]),
        // T&S with the |m_a| weighting flattened.
        MotifSet::new(vec![
            named("mutual+superset+unit"),
            named("mutual+adjacent+unit"),
        ]),
        // Square paired with the shallow triangle.
        MotifSet::new(vec![named("mutual+shared"), named("mutual+adjacent")]),
        // Everything mutual the engine can traverse, all cycle lengths.
        MotifSet::new(vec![
            named("mutual+superset"),
            named("mutual+shared"),
            named("mutual+adjacent"),
            named("mutual+cousin"),
        ]),
    ];
    for set in combos {
        if !out.contains(&set) {
            out.push(set);
        }
    }
    out
}

/// Mean expansion-node F1 of a motif set against the planted optimal
/// query graphs of one dataset.
fn mean_expansion_f1(ctx: &ExperimentContext, dataset: &str, motifs: &MotifSet) -> f64 {
    let r = ctx.runner(dataset);
    let p = r.pipeline();
    let gt = ctx.ground_truth(dataset);
    let queries = &r.dataset().queries;
    if queries.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for q in queries {
        let qg = p.build_query_graph(&r.manual_nodes(q), motifs);
        let pred: BTreeSet<usize> = qg.expansions.iter().map(|&(a, _)| a.index()).collect();
        let truth: BTreeSet<usize> = gt
            .graph(&q.id)
            .map(|g| g.expansion_nodes.iter().map(|a| a.index()).collect())
            .unwrap_or_default();
        total += f1(&pred, &truth);
    }
    total / queries.len() as f64
}

fn f1(pred: &BTreeSet<usize>, truth: &BTreeSet<usize>) -> f64 {
    if pred.is_empty() && truth.is_empty() {
        return 1.0;
    }
    let inter = pred.intersection(truth).count() as f64;
    if inter == 0.0 {
        return 0.0;
    }
    let precision = inter / pred.len() as f64;
    let recall = inter / truth.len() as f64;
    2.0 * precision * recall / (precision + recall)
}

/// Scores every candidate against one dataset and ranks them.
fn search_dataset(
    ctx: &ExperimentContext,
    dataset: &str,
    candidates: &[MotifSet],
) -> DatasetMotifReport {
    let r = ctx.runner(dataset);
    let qrels = ctx.qrels(dataset);
    let ub_p10 = mean_precision(&r.run_sqe_ub(), &qrels, 10);
    let ql_q_p10 = mean_precision(&r.run_ql_q(), &qrels, 10);
    let mut ranked: Vec<MotifCell> = candidates
        .iter()
        .map(|motifs| {
            let p10 = mean_precision(&r.run_sqe(motifs, false), &qrels, 10);
            MotifCell {
                motifs: motifs.name(),
                fingerprint: motifs.fingerprint().to_string(),
                specs: motifs.len(),
                p10,
                ub_fraction: if ub_p10 > 0.0 { p10 / ub_p10 } else { 0.0 },
                gap_to_ub: ub_p10 - p10,
                expansion_f1: mean_expansion_f1(ctx, dataset, motifs),
                avg_expansions: r.avg_expansion_features(motifs),
            }
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.p10
            .total_cmp(&a.p10)
            .then_with(|| a.motifs.cmp(&b.motifs))
    });
    let best = ranked.first().map(|c| c.motifs.clone()).unwrap_or_default();
    DatasetMotifReport {
        dataset: dataset.to_owned(),
        ub_p10,
        ql_q_p10,
        ranked,
        best,
    }
}

/// Runs the whole search over the three datasets.
pub fn run_motif_search(
    ctx: &ExperimentContext,
    context_name: &str,
    opts: &MotifSearchOptions,
) -> MotifSearchReport {
    let candidates = candidate_sets(opts);
    let datasets = ["imageclef", "chic2012", "chic2013"]
        .iter()
        .map(|d| search_dataset(ctx, d, &candidates))
        .collect();
    MotifSearchReport {
        context: context_name.to_owned(),
        candidates: candidates.len(),
        datasets,
    }
}

/// Serializes the report to pretty JSON.
pub fn report_json(report: &MotifSearchReport) -> String {
    serde_json::to_string_pretty(report).unwrap_or_else(|_| "{}".to_owned())
}

/// Writes `BENCH_motif.json` (or any other path).
pub fn write_report(report: &MotifSearchReport, path: &Path) -> io::Result<()> {
    std::fs::write(path, report_json(report))
}

/// A human-readable summary: the top candidates per dataset.
pub fn format_report(report: &MotifSearchReport) -> String {
    let mut s = format!(
        "=== motif-search ({} bed, {} candidate sets/dataset) ===\n",
        report.context, report.candidates
    );
    for ds in &report.datasets {
        s.push_str(&format!(
            "{}: SQE_UB P@10 {:.3}, QL_Q P@10 {:.3}\n{:<44}{:>7}{:>8}{:>8}{:>9}\n",
            ds.dataset, ds.ub_p10, ds.ql_q_p10, "motif set", "P@10", "%UB", "F1", "feats"
        ));
        for cell in ds.ranked.iter().take(8) {
            s.push_str(&format!(
                "  {:<42}{:>7.3}{:>7.1}%{:>8.3}{:>9.2}\n",
                cell.motifs,
                cell.p10,
                cell.ub_fraction * 100.0,
                cell.expansion_f1,
                cell.avg_expansions
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_space_is_distinct_and_large_enough() {
        for opts in [MotifSearchOptions::default(), MotifSearchOptions::smoke()] {
            let sets = candidate_sets(&opts);
            assert!(
                sets.len() >= 12,
                "need >= 12 candidates, got {}",
                sets.len()
            );
            let fps: BTreeSet<String> = sets.iter().map(|s| s.fingerprint().to_string()).collect();
            assert_eq!(
                fps.len(),
                sets.len(),
                "candidate fingerprints must be distinct"
            );
            assert!(sets.contains(&MotifSet::t_and_s()));
            assert!(sets.contains(&MotifSet::triangular()));
            assert!(sets.contains(&MotifSet::square()));
        }
    }

    #[test]
    fn smoke_search_ranks_candidates_against_the_upper_bound() {
        let ctx = ExperimentContext::small();
        let report = run_motif_search(&ctx, "small", &MotifSearchOptions::smoke());
        assert_eq!(report.datasets.len(), 3);
        for ds in &report.datasets {
            assert!(ds.ranked.len() >= 12, "{} ranks too few sets", ds.dataset);
            assert!(ds.ub_p10 > 0.0, "{}: upper bound must retrieve", ds.dataset);
            assert_eq!(ds.best, ds.ranked[0].motifs);
            // Ranking is monotone in P@10.
            for pair in ds.ranked.windows(2) {
                assert!(pair[0].p10 >= pair[1].p10);
            }
            // No candidate beats the planted upper bound.
            for cell in &ds.ranked {
                assert!(
                    cell.p10 <= ds.ub_p10 + 1e-9,
                    "{}: {} beats SQE_UB",
                    ds.dataset,
                    cell.motifs
                );
                assert!((0.0..=1.0 + 1e-9).contains(&cell.expansion_f1));
            }
        }
        let parsed: serde_json::Value =
            serde_json::from_str(&report_json(&report)).expect("report JSON parses");
        assert!(parsed.get("datasets").is_some());
        let table = format_report(&report);
        assert!(table.contains("motif-search"));
    }
}
