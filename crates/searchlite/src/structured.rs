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

use rustc_hash::FxHashMap;

use crate::analysis::Analyzer;

/// An atomic match feature.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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
        self.push_phrase_tokens(analyzer.analyze(text), weight);
    }

    /// Adds an already-analyzed phrase.
    pub fn push_phrase_tokens(&mut self, mut tokens: Vec<String>, weight: f64) {
        if weight <= 0.0 {
            return;
        }
        match tokens.len() {
            0 => {}
            1 => self.push_term(tokens.pop().unwrap_or_default(), weight),
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
        Query {
            features: combined(
                parts
                    .iter()
                    .map(|(part, weight)| (part.weighted(), *weight)),
            )
            .map(|(feature, weight)| WeightedFeature {
                feature: feature.clone(),
                weight,
            })
            .collect(),
        }
    }

    /// The query's weighted features.
    pub fn features(&self) -> &[WeightedFeature] {
        &self.features
    }

    /// The query's features with their weights, by reference: the form
    /// [`StagedQuery::push_combined`] takes a part in.
    pub fn weighted(&self) -> impl Iterator<Item = (&Feature, f64)> + Clone + '_ {
        self.features.iter().map(|f| (&f.feature, f.weight))
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

/// The features of `parts` with their combined weights, in order: each
/// part's weights normalized within the part and scaled by the part's
/// outer weight, `w · λ / Σ_part λ`. Parts with no features or a
/// non-positive outer weight are skipped. A part is its `(feature,
/// weight)` pairs. The one weighting formula of [`Query::combine`] and
/// [`StagedQuery::push_combined`].
fn combined<'p, P>(
    parts: impl IntoIterator<Item = (P, f64)>,
) -> impl Iterator<Item = (&'p Feature, f64)>
where
    P: Iterator<Item = (&'p Feature, f64)> + Clone,
{
    parts
        .into_iter()
        .filter(|(part, weight)| !(*weight <= 0.0 || part.clone().next().is_none()))
        .flat_map(|(part, weight)| {
            let inner: f64 = part.clone().map(|(_, w)| w).sum();
            part.map(move |(feature, w)| (feature, weight * w / inner))
        })
}

/// One feature reference of a stage: its index in the union and its
/// weight in the stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StageTerm {
    pub(crate) feature: u32,
    pub(crate) weight: f64,
}

/// Several weighted queries ("stages") ranked together over one union of
/// their distinct features, so each distinct feature is resolved and
/// read once however many stages use it. Each stage keeps its own
/// `(union index, weight)` list in its own query order, so it scores
/// exactly as the [`Query`] it stands for. A single query is the
/// one-stage case.
#[derive(Debug, Default)]
pub struct StagedQuery<'q> {
    /// The distinct features of every stage, in first-use order.
    features: Vec<&'q Feature>,
    /// Union index of every feature in `features`.
    slots: FxHashMap<&'q Feature, u32>,
    /// Every stage's terms, stage after stage.
    terms: Vec<StageTerm>,
    /// End of each stage's run in `terms`.
    ends: Vec<usize>,
}

impl<'q> StagedQuery<'q> {
    /// The most stages one staged query holds (one bit each in the
    /// kernel's per-feature stage mask).
    const MAX_STAGES: usize = 64;

    /// A staged query with no stages.
    pub fn new() -> Self {
        StagedQuery::default()
    }

    /// The one-stage query that ranks exactly as `query`.
    pub fn single(query: &'q Query) -> Self {
        let mut staged = StagedQuery::new();
        staged.push_query(query);
        staged
    }

    /// Adds `query` as the next stage, with its own weights.
    pub fn push_query(&mut self, query: &'q Query) {
        self.push_stage(query.weighted());
    }

    /// Adds the stage [`Query::combine`] would build from `parts`, with
    /// the same weights, without copying a feature. Each part is its
    /// `(feature, weight)` pairs ([`Query::weighted`] of a query part).
    pub fn push_combined(&mut self, parts: &[(&[(&'q Feature, f64)], f64)]) {
        self.push_stage(combined(
            parts
                .iter()
                .map(|&(part, weight)| (part.iter().copied(), weight)),
        ));
    }

    fn push_stage(&mut self, features: impl Iterator<Item = (&'q Feature, f64)>) {
        assert!(
            self.ends.len() < Self::MAX_STAGES,
            "a staged query holds at most {} stages",
            Self::MAX_STAGES
        );
        for (feature, weight) in features {
            let next =
                u32::try_from(self.features.len()).expect("invariant: feature count fits in u32");
            let slot = *self.slots.entry(feature).or_insert(next);
            if slot == next {
                self.features.push(feature);
            }
            self.terms.push(StageTerm {
                feature: slot,
                weight,
            });
        }
        self.ends.push(self.terms.len());
    }

    /// The distinct features of every stage, in first-use order.
    pub fn features(&self) -> &[&'q Feature] {
        &self.features
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.ends.len()
    }

    /// The terms of every stage, in stage order, each stage in its own
    /// query order.
    pub(crate) fn stages(&self) -> impl Iterator<Item = &[StageTerm]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| self.terms.get(start..end).unwrap_or_default())
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
    fn staged_query_shares_features_and_keeps_stage_weights() {
        let a = Analyzer::plain();
        let user = Query::parse_text("x y", &a);
        let mut exp1 = Query::new();
        exp1.push_term("y".into(), 2.0);
        exp1.push_phrase_tokens(vec!["x".into(), "z".into()], 1.0);
        let exp2 = Query::parse_text("z x", &a);
        fn refs(q: &Query) -> Vec<(&Feature, f64)> {
            q.weighted().collect()
        }
        let (user_refs, exp1_refs, exp2_refs) = (refs(&user), refs(&exp1), refs(&exp2));
        let mut staged = StagedQuery::new();
        staged.push_combined(&[(&user_refs, 0.5), (&exp1_refs, 0.5)]);
        staged.push_combined(&[(&user_refs, 0.5), (&exp2_refs, 0.5)]);
        staged.push_query(&user);
        assert_eq!(staged.num_stages(), 3);
        // x, y, #1(x z), z: the repeats of x and y resolve once.
        assert_eq!(staged.features().len(), 4);
        let one = Query::combine(&[(user.clone(), 0.5), (exp1.clone(), 0.5)]);
        let two = Query::combine(&[(user.clone(), 0.5), (exp2.clone(), 0.5)]);
        for (stage, query) in staged.stages().zip([&one, &two, &user]) {
            let got: Vec<(&Feature, u64)> = stage
                .iter()
                .map(|t| (staged.features()[t.feature as usize], t.weight.to_bits()))
                .collect();
            let want: Vec<(&Feature, u64)> = query
                .features()
                .iter()
                .map(|f| (&f.feature, f.weight.to_bits()))
                .collect();
            assert_eq!(got, want);
        }
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
