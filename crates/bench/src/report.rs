//! Row evaluation and table formatting.

use ireval::precision::{per_query_precision, PrecisionTable, TREC_CUTOFFS};
use ireval::{paired_t_test, Qrels, Run};

/// An evaluated run: mean precisions plus per-cutoff significance against
/// the best baseline (the paper's † marker, paired t-test p < 0.05).
#[derive(Debug, Clone)]
pub struct EvalRow {
    /// Run display name.
    pub name: String,
    /// Mean P@k at every default cutoff.
    pub values: [f64; TREC_CUTOFFS.len()],
    /// † per cutoff (meaningless for baseline rows; all false there).
    pub sig: [bool; TREC_CUTOFFS.len()],
}

impl EvalRow {
    /// Value at a default cutoff.
    pub fn at(&self, k: usize) -> f64 {
        let i = TREC_CUTOFFS.iter().position(|&c| c == k).expect("cutoff");
        self.values[i]
    }

    /// Significance marker at a default cutoff.
    pub fn sig_at(&self, k: usize) -> bool {
        let i = TREC_CUTOFFS.iter().position(|&c| c == k).expect("cutoff");
        self.sig[i]
    }
}

/// Evaluates a run; `baselines` drive the † test: at each cutoff the run
/// is compared against the *best* baseline (highest mean) at that cutoff.
pub fn eval_row(run: &Run, qrels: &Qrels, baselines: &[&Run]) -> EvalRow {
    let table = PrecisionTable::evaluate(run, qrels);
    let mut sig = [false; TREC_CUTOFFS.len()];
    for (i, &k) in TREC_CUTOFFS.iter().enumerate() {
        let treatment = per_query_precision(run, qrels, k);
        let mut best: Option<Vec<f64>> = None;
        let mut best_mean = f64::NEG_INFINITY;
        for b in baselines {
            let scores = per_query_precision(b, qrels, k);
            let mean = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
            if mean > best_mean {
                best_mean = mean;
                best = Some(scores);
            }
        }
        if let Some(base) = best {
            if let Some(t) = paired_t_test(&treatment, &base) {
                sig[i] = t.significant_improvement(0.05);
            }
        }
    }
    EvalRow {
        name: run.name().to_owned(),
        values: table.values,
        sig,
    }
}

/// Formats rows as a paper-style precision table.
pub fn format_precision_table(title: &str, rows: &[EvalRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!("=== {title} ===\n"));
    s.push_str(&format!("{:<14}", ""));
    for k in TREC_CUTOFFS {
        s.push_str(&format!("{:>9}", format!("P@{k}")));
    }
    s.push('\n');
    for row in rows {
        s.push_str(&format!("{:<14}", row.name));
        for i in 0..TREC_CUTOFFS.len() {
            let marker = if row.sig[i] { "†" } else { " " };
            s.push_str(&format!("{:>8.3}{marker}", row.values[i]));
        }
        s.push('\n');
    }
    s
}

/// Percentage improvement of `value` over `reference` (the paper's "%G").
pub fn pct_gain(value: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        if value == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (value - reference) / reference * 100.0
    }
}

/// Formats a percentage for display (the paper prints "-100" for full
/// collapse).
pub fn fmt_pct(p: f64) -> String {
    if p.is_infinite() {
        "+inf".to_owned()
    } else {
        format!("{p:+.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> (Qrels, Run, Run) {
        let mut qrels = Qrels::new();
        let mut good = Run::new("good");
        let mut bad = Run::new("bad");
        for qi in 0..12 {
            let qid = format!("q{qi}");
            qrels.add_judgment(&qid, "rel0");
            qrels.add_judgment(&qid, "rel1");
            good.set_ranking(&qid, vec!["rel0".into(), "rel1".into(), "x".into()]);
            bad.set_ranking(&qid, vec!["x".into(), "y".into(), "rel0".into()]);
        }
        (qrels, good, bad)
    }

    #[test]
    fn eval_row_marks_significance() {
        let (qrels, good, bad) = world();
        let row = eval_row(&good, &qrels, &[&bad]);
        assert!(row.sig_at(5), "consistent improvement must be significant");
        assert!(row.at(5) > 0.0);
    }

    #[test]
    fn baseline_not_significant_against_itself() {
        let (qrels, good, _) = world();
        let row = eval_row(&good, &qrels, &[&good]);
        assert!(!row.sig_at(5));
    }

    #[test]
    fn formatting_contains_all_rows_and_cutoffs() {
        let (qrels, good, bad) = world();
        let rows = vec![
            eval_row(&bad, &qrels, &[]),
            eval_row(&good, &qrels, &[&bad]),
        ];
        let s = format_precision_table("Table X", &rows);
        assert!(s.contains("Table X"));
        assert!(s.contains("P@1000"));
        assert!(s.contains("good"));
        assert!(s.contains('†'));
    }

    #[test]
    fn pct_gain_behaviour() {
        assert!((pct_gain(0.2, 0.1) - 100.0).abs() < 1e-9);
        assert!((pct_gain(0.0, 0.1) + 100.0).abs() < 1e-9);
        assert_eq!(pct_gain(0.0, 0.0), 0.0);
        assert!(pct_gain(0.1, 0.0).is_infinite());
        assert_eq!(fmt_pct(50.0), "+50.00");
        assert_eq!(fmt_pct(f64::INFINITY), "+inf");
    }
}
