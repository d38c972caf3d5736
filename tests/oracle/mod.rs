//! The token-scanning QL oracle the property tests share. It shares no
//! code with the scorer it checks: each document is a plain token list,
//! with no postings, term ids or scratch buffers. Term and exact phrase
//! occurrences are counted by scanning tokens, and
//! `Σ_f (λ_f/Σλ)·(ln(tf_f + μ·P(f|C)) − ln(|D| + μ))` is evaluated term
//! by term in query order.

use searchlite::structured::Feature;
use searchlite::Query;

/// Occurrences of `term` in `doc`.
fn term_count(doc: &[String], term: &str) -> u32 {
    let n = doc.iter().filter(|t| *t == term).count();
    u32::try_from(n).expect("short test documents")
}

/// Start positions where `phrase` occurs verbatim (occurrences may
/// overlap: `a a a` holds `a a` twice).
fn phrase_count(doc: &[String], phrase: &[String]) -> u32 {
    let n = doc.windows(phrase.len()).filter(|w| *w == phrase).count();
    u32::try_from(n).expect("short test documents")
}

fn feature_count(doc: &[String], feature: &Feature) -> u32 {
    match feature {
        Feature::Term(t) => term_count(doc, t),
        Feature::Phrase(ts) => phrase_count(doc, ts),
    }
}

/// The reference ranking: every document matching at least one feature,
/// best first, ties by ascending doc id, cut to `k`; scores as bits.
pub fn oracle(docs: &[Vec<String>], query: &Query, mu: f64, k: usize) -> Vec<(u32, u64)> {
    let features = query.features();
    let counts: Vec<Vec<u32>> = features
        .iter()
        .map(|f| docs.iter().map(|d| feature_count(d, &f.feature)).collect())
        .collect();
    let collection_len: usize = docs.iter().map(Vec::len).sum();
    let c = collection_len.max(1) as f64;
    let pcs: Vec<f64> = counts
        .iter()
        .map(|per_doc| {
            let cf: u64 = per_doc.iter().map(|&n| u64::from(n)).sum();
            (cf as f64).max(0.5) / c
        })
        .collect();
    let mut total = 0.0;
    for f in features {
        total += f.weight;
    }
    let mut ranked: Vec<(u32, f64)> = Vec::new();
    for (d, doc) in docs.iter().enumerate() {
        if counts.iter().all(|per_doc| per_doc[d] == 0) {
            continue;
        }
        let score = if total <= 0.0 {
            f64::NEG_INFINITY
        } else {
            let mut score = 0.0;
            for ((f, per_doc), pc) in features.iter().zip(&counts).zip(&pcs) {
                let tf = per_doc[d] as f64;
                score += f.weight / total * ((tf + mu * pc).ln() - (doc.len() as f64 + mu).ln());
            }
            score
        };
        ranked.push((u32::try_from(d).expect("few test documents"), score));
    }
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked.into_iter().map(|(d, s)| (d, s.to_bits())).collect()
}
