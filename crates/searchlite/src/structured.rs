//! Weighted structured queries.
//!
//! The paper's expanded query (Section 2.3) is "a three-part combination:
//! i) the user's query, ii) the titles of the query nodes, and iii) the
//! titles of the articles expansion nodes", where titles are matched as
//! n-grams of consecutive terms and expansion features are weighted by the
//! number of motifs `|m_a|` they appear in. This module models exactly
//! that: a flat list of weighted features, each either a single term or an
//! exact-phrase n-gram — the subset of Indri's `#weight`/`#combine`/`#1`
//! operators the paper uses.

use crate::analysis::Analyzer;

/// An atomic match feature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Feature {
    /// A single analyzed term.
    Term(String),
    /// An exact ordered n-gram of analyzed terms (Indri `#1(...)`).
    /// Single-token phrases are normalized to [`Feature::Term`] by the
    /// constructors.
    Phrase(Vec<String>),
}

impl Feature {
    /// The analyzed tokens of the feature.
    pub fn tokens(&self) -> &[String] {
        match self {
            Feature::Term(t) => std::slice::from_ref(t),
            Feature::Phrase(ts) => ts,
        }
    }
}

/// A feature with its query weight.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedFeature {
    /// The match feature.
    pub feature: Feature,
    /// Relative weight (normalized at scoring time, like Indri `#weight`).
    pub weight: f64,
}

/// A weighted structured query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    features: Vec<WeightedFeature>,
}

impl Query {
    /// An empty query (matches nothing).
    pub fn new() -> Self {
        Query::default()
    }

    /// Parses free text into unit-weight term features.
    pub fn parse_text(text: &str, analyzer: &Analyzer) -> Self {
        let mut q = Query::new();
        for tok in analyzer.analyze(text) {
            q.push_term(tok, 1.0);
        }
        q
    }

    /// Adds a single-term feature with a weight. Zero- or negative-weight
    /// features are ignored.
    pub fn push_term(&mut self, token: String, weight: f64) {
        if weight > 0.0 && !token.is_empty() {
            self.features.push(WeightedFeature {
                feature: Feature::Term(token),
                weight,
            });
        }
    }

    /// Adds an exact-phrase feature from raw text (e.g. an article title),
    /// analyzed with `analyzer`. Titles reduced to a single token become
    /// term features; titles analyzed to nothing are dropped.
    pub fn push_phrase_text(&mut self, text: &str, analyzer: &Analyzer, weight: f64) {
        if weight <= 0.0 {
            return;
        }
        let tokens = analyzer.analyze(text);
        match tokens.len() {
            0 => {}
            1 => self.push_term(tokens.into_iter().next().expect("len 1"), weight),
            _ => self.features.push(WeightedFeature {
                feature: Feature::Phrase(tokens),
                weight,
            }),
        }
    }

    /// Adds an already-analyzed phrase.
    pub fn push_phrase_tokens(&mut self, tokens: Vec<String>, weight: f64) {
        if weight <= 0.0 {
            return;
        }
        match tokens.len() {
            0 => {}
            1 => self.push_term(tokens.into_iter().next().expect("len 1"), weight),
            _ => self.features.push(WeightedFeature {
                feature: Feature::Phrase(tokens),
                weight,
            }),
        }
    }

    /// Combines sub-queries with outer weights: each part's features are
    /// first normalized within the part, then scaled by `weight` (Indri's
    /// nested `#weight( w1 #combine(...) w2 #combine(...) )`).
    pub fn combine(parts: &[(Query, f64)]) -> Query {
        let mut q = Query::new();
        for (part, weight) in parts {
            if *weight <= 0.0 || part.is_empty() {
                continue;
            }
            let inner: f64 = part.features.iter().map(|f| f.weight).sum();
            for f in &part.features {
                q.features.push(WeightedFeature {
                    feature: f.feature.clone(),
                    weight: weight * f.weight / inner,
                });
            }
        }
        q
    }

    /// The query's weighted features.
    pub fn features(&self) -> &[WeightedFeature] {
        &self.features
    }

    /// True when the query has no features.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Sum of all feature weights.
    pub fn total_weight(&self) -> f64 {
        self.features.iter().map(|f| f.weight).sum()
    }

    /// A human-readable Indri-like rendering (for logs and examples).
    pub fn render(&self) -> String {
        let mut s = String::from("#weight(");
        for f in &self.features {
            match &f.feature {
                Feature::Term(t) => {
                    s.push_str(&format!(" {:.3} {}", f.weight, t));
                }
                Feature::Phrase(ts) => {
                    s.push_str(&format!(" {:.3} #1({})", f.weight, ts.join(" ")));
                }
            }
        }
        s.push_str(" )");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_text_analyzes() {
        let q = Query::parse_text("The Cable Cars", &Analyzer::english());
        let toks: Vec<&str> = q
            .features()
            .iter()
            .flat_map(|f| f.feature.tokens())
            .map(|s| s.as_str())
            .collect();
        assert_eq!(toks, vec!["cabl", "car"]);
        assert!(q.features().iter().all(|f| f.weight == 1.0));
    }

    #[test]
    fn single_token_phrase_becomes_term() {
        let mut q = Query::new();
        q.push_phrase_text("Funicular", &Analyzer::english(), 2.0);
        assert_eq!(q.len(), 1);
        assert!(matches!(q.features()[0].feature, Feature::Term(_)));
    }

    #[test]
    fn multi_token_phrase_preserved() {
        let mut q = Query::new();
        q.push_phrase_text("cable car", &Analyzer::english(), 1.0);
        assert!(matches!(&q.features()[0].feature, Feature::Phrase(ts) if ts.len() == 2));
    }

    #[test]
    fn empty_title_dropped() {
        let mut q = Query::new();
        q.push_phrase_text("the of", &Analyzer::english(), 1.0);
        assert!(q.is_empty());
    }

    #[test]
    fn zero_weight_dropped() {
        let mut q = Query::new();
        q.push_term("x".into(), 0.0);
        q.push_phrase_text("cable car", &Analyzer::english(), -1.0);
        assert!(q.is_empty());
    }

    #[test]
    fn combine_normalizes_within_parts() {
        let a = Analyzer::plain();
        let q1 = Query::parse_text("x y", &a); // two unit features
        let q2 = Query::parse_text("z", &a); // one unit feature
        let c = Query::combine(&[(q1, 0.6), (q2, 0.4)]);
        assert_eq!(c.len(), 3);
        assert!((c.features()[0].weight - 0.3).abs() < 1e-12);
        assert!((c.features()[1].weight - 0.3).abs() < 1e-12);
        assert!((c.features()[2].weight - 0.4).abs() < 1e-12);
        assert!((c.total_weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn combine_skips_empty_parts() {
        let a = Analyzer::plain();
        let q1 = Query::parse_text("x", &a);
        let empty = Query::new();
        let c = Query::combine(&[(q1, 0.5), (empty, 0.5)]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn render_is_readable() {
        let mut q = Query::new();
        q.push_term("cabl".into(), 1.0);
        q.push_phrase_tokens(vec!["cabl".into(), "car".into()], 2.0);
        let r = q.render();
        assert!(r.contains("#1(cabl car)"));
        assert!(r.starts_with("#weight("));
    }
}
