//! Surface-form dictionary with commonness priors.

use std::collections::BTreeMap;

use kbgraph::ArticleId;
use searchlite::Analyzer;

/// One candidate meaning of a surface form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sense {
    /// The article this surface form may refer to.
    pub article: ArticleId,
    /// Prior probability-like weight of this sense (Dexter's commonness:
    /// how often the surface form links to this article in anchor text).
    pub commonness: f64,
}

/// A normalized surface form → senses dictionary.
///
/// Surface forms are analyzed with a non-stemming pipeline (lowercasing +
/// tokenization); "Cable-Car", "cable car" and "CABLE CAR" all hit the
/// same entry, while stemming is avoided because entity names are not
/// ordinary vocabulary.
#[derive(Debug)]
pub struct Dictionary {
    // BTreeMaps keep every dictionary traversal (debug dumps, future
    // persistence) in key order; lookups stay O(log n) on short keys.
    entries: BTreeMap<String, Vec<Sense>>,
    /// token → senses of entries whose surface contains the token
    /// (the Alchemy-style fallback index).
    containment: BTreeMap<String, Vec<Sense>>,
    /// Longest entry length in tokens (bounds the spotting window).
    max_tokens: usize,
    analyzer: Analyzer,
}

impl Default for Dictionary {
    fn default() -> Self {
        Dictionary::new()
    }
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Dictionary {
            entries: BTreeMap::new(),
            containment: BTreeMap::new(),
            max_tokens: 0,
            analyzer: Analyzer::plain(),
        }
    }

    /// Normalizes a surface form to its dictionary key.
    pub fn normalize(&self, surface: &str) -> String {
        self.analyzer.analyze(surface).join(" ")
    }

    /// Adds a sense for a surface form. Multiple senses per surface are
    /// kept sorted by descending commonness (ties by article id for
    /// determinism). Re-adding the same (surface, article) keeps the
    /// higher commonness.
    pub fn add(&mut self, surface: &str, article: ArticleId, commonness: f64) {
        let tokens = self.analyzer.analyze(surface);
        if tokens.is_empty() {
            return;
        }
        self.max_tokens = self.max_tokens.max(tokens.len());
        let key = tokens.join(" ");
        let senses = self.entries.entry(key).or_default();
        match senses.iter_mut().find(|s| s.article == article) {
            Some(s) => s.commonness = s.commonness.max(commonness),
            None => senses.push(Sense {
                article,
                commonness,
            }),
        }
        senses.sort_by(|a, b| {
            scorecmp::by_score_desc_then_id(a.commonness, b.commonness, a.article, b.article)
        });
        for tok in tokens {
            let bucket = self.containment.entry(tok).or_default();
            if !bucket.iter().any(|s| s.article == article) {
                bucket.push(Sense {
                    article,
                    commonness,
                });
                bucket.sort_by(|a, b| {
                    scorecmp::by_score_desc_then_id(
                        a.commonness,
                        b.commonness,
                        a.article,
                        b.article,
                    )
                });
            }
        }
    }

    /// Overrides the commonness of an existing `(surface, article)` sense
    /// (used by anchor-statistics re-estimation); senses are re-sorted.
    /// No-op when the pair is unknown.
    pub fn set_commonness(&mut self, surface: &str, article: ArticleId, commonness: f64) {
        let key = self.normalize(surface);
        if let Some(senses) = self.entries.get_mut(&key) {
            if let Some(s) = senses.iter_mut().find(|s| s.article == article) {
                s.commonness = commonness;
                senses.sort_by(|a, b| {
                    scorecmp::by_score_desc_then_id(
                        a.commonness,
                        b.commonness,
                        a.article,
                        b.article,
                    )
                });
            }
        }
    }

    /// Bulk-loads `(surface, article, commonness)` entries.
    pub fn extend<I: IntoIterator<Item = (String, ArticleId, f64)>>(&mut self, entries: I) {
        for (surface, article, commonness) in entries {
            self.add(&surface, article, commonness);
        }
    }

    /// Exact lookup of an *already normalized* key (space-joined analyzed
    /// tokens). Senses come back best-first.
    pub fn lookup(&self, key: &str) -> Option<&[Sense]> {
        self.entries.get(key).map(|v| v.as_slice())
    }

    /// Fallback lookup: senses of any entry containing `token`.
    pub fn lookup_containing(&self, token: &str) -> Option<&[Sense]> {
        self.containment.get(token).map(|v| v.as_slice())
    }

    /// Longest surface form length in tokens.
    pub fn max_tokens(&self) -> usize {
        self.max_tokens
    }

    /// Number of distinct surface forms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The analyzer used for normalization (queries must be tokenized the
    /// same way when spotting).
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Iterates `(normalized key, senses)` in key order — the persistence
    /// traversal. Keys are already analyzed, so rebuilding via
    /// [`Dictionary::from_entries`] reproduces this dictionary exactly.
    pub fn iter_entries(&self) -> impl Iterator<Item = (&str, &[Sense])> + '_ {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Rebuilds a dictionary from [`Dictionary::iter_entries`] output.
    /// Keys are re-analyzed on insertion; because they are already in
    /// normalized form this is a fixpoint, and the containment index and
    /// `max_tokens` are re-derived.
    pub fn from_entries<'a, I>(entries: I) -> Dictionary
    where
        I: IntoIterator<Item = (&'a str, Vec<Sense>)>,
    {
        let mut d = Dictionary::new();
        for (key, senses) in entries {
            for s in senses {
                d.add(key, s.article, s.commonness);
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_folds_case_and_punctuation() {
        let mut d = Dictionary::new();
        d.add("Cable-Car", ArticleId::new(1), 1.0);
        assert!(d.lookup("cable car").is_some());
        assert_eq!(d.normalize("CABLE  car!"), "cable car");
    }

    #[test]
    fn senses_sorted_by_commonness() {
        let mut d = Dictionary::new();
        d.add("jaguar", ArticleId::new(1), 0.3);
        d.add("jaguar", ArticleId::new(2), 0.7);
        let senses = d.lookup("jaguar").unwrap();
        assert_eq!(senses[0].article, ArticleId::new(2));
        assert_eq!(senses[1].article, ArticleId::new(1));
    }

    #[test]
    fn readding_keeps_max_commonness() {
        let mut d = Dictionary::new();
        d.add("x", ArticleId::new(1), 0.2);
        d.add("x", ArticleId::new(1), 0.8);
        d.add("x", ArticleId::new(1), 0.5);
        let senses = d.lookup("x").unwrap();
        assert_eq!(senses.len(), 1);
        assert!((senses[0].commonness - 0.8).abs() < 1e-12);
    }

    #[test]
    fn containment_index_finds_partial_titles() {
        let mut d = Dictionary::new();
        d.add("cable car", ArticleId::new(1), 1.0);
        let senses = d.lookup_containing("cable").unwrap();
        assert_eq!(senses[0].article, ArticleId::new(1));
        assert!(d.lookup("cable").is_none(), "exact lookup must not match");
    }

    #[test]
    fn max_tokens_tracks_longest_entry() {
        let mut d = Dictionary::new();
        assert_eq!(d.max_tokens(), 0);
        d.add("a b c", ArticleId::new(1), 1.0);
        d.add("q", ArticleId::new(2), 1.0);
        assert_eq!(d.max_tokens(), 3);
    }

    #[test]
    fn empty_surface_ignored() {
        let mut d = Dictionary::new();
        d.add("  --  ", ArticleId::new(1), 1.0);
        assert!(d.is_empty());
    }

    #[test]
    fn entries_roundtrip_reproduces_dictionary() {
        let mut d = Dictionary::new();
        d.add("Cable-Car", ArticleId::new(1), 0.9);
        d.add("jaguar", ArticleId::new(2), 0.7);
        d.add("jaguar", ArticleId::new(1), 0.3);
        d.add("san francisco cable car", ArticleId::new(1), 1.0);
        let rebuilt = Dictionary::from_entries(d.iter_entries().map(|(k, v)| (k, v.to_vec())));
        assert_eq!(rebuilt.len(), d.len());
        assert_eq!(rebuilt.max_tokens(), d.max_tokens());
        let pairs: Vec<_> = d.iter_entries().collect();
        let rebuilt_pairs: Vec<_> = rebuilt.iter_entries().collect();
        assert_eq!(pairs, rebuilt_pairs);
        assert_eq!(
            rebuilt.lookup_containing("cable").map(<[Sense]>::len),
            d.lookup_containing("cable").map(<[Sense]>::len)
        );
    }

    #[test]
    fn tie_broken_by_article_id() {
        let mut d = Dictionary::new();
        d.add("x", ArticleId::new(9), 0.5);
        d.add("x", ArticleId::new(3), 0.5);
        assert_eq!(d.lookup("x").unwrap()[0].article, ArticleId::new(3));
    }
}
