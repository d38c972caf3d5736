//! Shard-level scatter-gather scoring with exact-integer stat merging.
//!
//! A sharded deployment routes each document to one of N shards by a
//! deterministic hash of its external id; every shard is an independent
//! corpus (its own [`Searcher`]). Scoring a query then runs in two
//! phases, the same trick [`Searcher`] plays per-segment lifted one
//! level:
//!
//! 1. **Partial resolve** (per shard): map query tokens to shard-local
//!    term ids, run phrase intersections, and report the shard's
//!    *integer* contribution to every corpus statistic (collection
//!    length, per-feature collection counts, document frequencies,
//!    document counts).
//! 2. **Gather + score**: sum the integer contributions into the global
//!    statistics a monolithic index would report, derive the f64
//!    collection probabilities from those exact sums *once*, then score each shard's candidates locally with the global
//!    statistics and the shard-local term frequencies and doc lengths.
//!
//! Because a document lives wholly in one shard, its tf and |D| are
//! shard-local facts, and every global statistic is an exact integer sum
//! — so per-document scores are bit-identical to a monolithic build.
//! Per-shard top-k lists (local doc ids are assigned in arrival order,
//! hence monotone in the global ingest ordinal) are merged with the
//! `scorecmp` total order in [`merge_top_k`], making the final ranking —
//! and any run file written from it — byte-identical for any shard
//! count and any routing.

use std::cmp::Ordering;

use crate::index::{DocId, PositionalScratch, TermId};
use crate::ql::{QlParams, QlScratch};
use crate::searcher::Searcher;
use crate::structured::{Feature, Query};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Deterministic document→shard routing: FNV-1a over the external id
/// bytes, xor-folded with a salt, reduced modulo the shard count. The
/// salt lets tests sample many routings of the same corpus; production
/// uses the default salt 0 so routing is a pure function of the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
    salt: u64,
}

impl ShardRouter {
    /// A router over `shards` shards (at least 1) with salt 0.
    pub fn new(shards: usize) -> ShardRouter {
        ShardRouter::with_salt(shards, 0)
    }

    /// A router with an explicit salt, for sampling alternate routings.
    pub fn with_salt(shards: usize, salt: u64) -> ShardRouter {
        ShardRouter {
            shards: shards.max(1),
            salt,
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The routing salt.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// The shard owning `external_id`.
    pub fn route(&self, external_id: &str) -> usize {
        let mut h = FNV_OFFSET;
        for &b in external_id.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        usize::try_from((h ^ self.salt) % self.shards as u64)
            .expect("invariant: shard index bounded by shard count")
    }
}

// ------------------------------------------------------------- QL ----

/// The shard-local shape of one query feature.
pub(crate) enum ShardFeatureKind {
    /// Single term; `None` when the token is absent from this shard's
    /// vocabulary (it may still exist in other shards).
    Term(Option<TermId>),
    /// Phrase, pre-intersected against this shard:
    /// `(doc, positional frequency)` sorted by doc. Empty when any token
    /// is locally out of vocabulary or the pattern never matches here.
    Positional(Vec<(DocId, u32)>),
}

pub(crate) struct ShardFeature {
    pub(crate) kind: ShardFeatureKind,
    pub(crate) weight: f64,
    /// This shard's integer contribution to the feature's collection
    /// count (collection tf for terms, summed phrase frequency for
    /// phrases). Stays an integer until the gather step.
    count: u64,
}

/// One shard's partial resolution of a query: per-feature local postings
/// plus the shard's integer contributions to the global statistics.
pub struct QlShardResolve {
    pub(crate) features: Vec<ShardFeature>,
    collection_len: u64,
}

/// Phase 1 of QL scoring: resolves `query` against one shard (or the
/// whole corpus), computing local postings and integer stat
/// contributions. Every query feature yields exactly one entry, so
/// partials from all shards align by index.
pub fn ql_resolve_shard(
    searcher: &Searcher,
    query: &Query,
    pos: &mut PositionalScratch,
) -> QlShardResolve {
    let mut features = Vec::with_capacity(query.len());
    for wf in query.features() {
        let (kind, count) = match &wf.feature {
            Feature::Term(tok) => match searcher.term_id(tok) {
                Some(t) => (ShardFeatureKind::Term(Some(t)), searcher.collection_tf(t)),
                None => (ShardFeatureKind::Term(None), 0),
            },
            Feature::Phrase(tokens) => {
                let ids: Option<Vec<TermId>> =
                    tokens.iter().map(|t| searcher.term_id(t)).collect();
                positional_shard_feature(ids.map(|ids| searcher.phrase_postings_with(&ids, pos)))
            }
        };
        features.push(ShardFeature {
            kind,
            weight: wf.weight,
            count,
        });
    }
    QlShardResolve {
        features,
        collection_len: searcher.collection_len(),
    }
}

fn positional_shard_feature(postings: Option<Vec<(DocId, u32)>>) -> (ShardFeatureKind, u64) {
    // A locally out-of-vocabulary token: this shard holds no
    // occurrence, so it contributes 0 to the global count — exactly
    // what a monolithic index would count for these documents.
    let postings = postings.unwrap_or_default();
    let count: u64 = postings.iter().map(|&(_, tf)| u64::from(tf)).sum();
    (ShardFeatureKind::Positional(postings), count)
}

/// The gather step: sums every shard's integer contributions and derives
/// the per-feature collection probabilities from the exact global sums —
/// the same `max(count, 0.5) / max(|C|, 1)` floor as
/// [`Searcher::collection_prob`], applied to the global integers. A term absent from every shard sums to 0 and floors to the
/// monolithic out-of-vocabulary probability `0.5 / |C|`.
pub fn ql_global_pcs(partials: &[QlShardResolve]) -> Vec<f64> {
    let collection_len: u64 = partials.iter().map(|p| p.collection_len).sum();
    let c = collection_len.max(1) as f64;
    let n = partials.first().map_or(0, |p| p.features.len());
    (0..n)
        .map(|i| {
            let count: u64 = partials
                .iter()
                .map(|p| p.features.get(i).map_or(0, |f| f.count))
                .sum();
            (count as f64).max(0.5) / c
        })
        .collect()
}

/// Phase 2 of sharded QL: scores this shard's candidates with the
/// *global* collection probabilities and the shard-local tf / |D| —
/// the same kernel as [`crate::ql::rank_with_scratch`] — and keeps the
/// shard's top `k` as `(local doc id, score)` pairs. The caller maps
/// local ids to global ingest ordinals and merges with [`merge_top_k`].
pub fn ql_rank_shard(
    searcher: &Searcher,
    partial: &QlShardResolve,
    pcs: &[f64],
    params: QlParams,
    k: usize,
    scratch: &mut QlScratch,
) -> Vec<(u32, f64)> {
    scratch.rank_partial(searcher, partial, pcs, params.mu, k)
}

// ----------------------------------------------------- top-k gather --

/// Merges per-shard top-k lists, each ranked under `order`, and keeps
/// the best `k`. `order` is the `scorecmp` total order on *global* ids
/// (score descending, ties by ascending global id). Because each shard's
/// list is its true local top-k and local id order is monotone in the
/// global ordinal, the merged list equals the monolithic top-k exactly.
/// Lists are merged pairwise, so a single list is returned as it is.
pub fn merge_top_k<T: Copy>(
    lists: Vec<Vec<T>>,
    k: usize,
    order: impl Fn(&T, &T) -> Ordering,
) -> Vec<T> {
    let mut merged = lists
        .into_iter()
        .reduce(|a, b| merge_two(&a, &b, k, &order))
        .unwrap_or_default();
    merged.truncate(k);
    merged
}

/// The best `k` of two ranked lists, ranked; ties under `order` (none
/// between distinct documents) take from `a` first.
fn merge_two<T: Copy>(
    mut a: &[T],
    mut b: &[T],
    k: usize,
    order: &impl Fn(&T, &T) -> Ordering,
) -> Vec<T> {
    let mut out = Vec::with_capacity((a.len() + b.len()).min(k));
    while out.len() < k {
        match (a.split_first(), b.split_first()) {
            (Some((x, rest)), Some((y, _))) if order(x, y) != Ordering::Greater => {
                out.push(*x);
                a = rest;
            }
            (_, Some((y, rest))) => {
                out.push(*y);
                b = rest;
            }
            (Some((x, rest)), None) => {
                out.push(*x);
                a = rest;
            }
            (None, None) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use crate::index::IndexBuilder;
    use crate::ql::{self, QlScratch, SearchHit};

    const DOCS: [(&str, &str); 8] = [
        ("d0", "cable car climbs the hill"),
        ("d1", "cable car cable car"),
        ("d2", "the hill of graffiti"),
        ("d3", "funicular railway on the hill"),
        ("d4", "graffiti covers the cable"),
        ("d5", "car on the funicular railway"),
        ("d6", "painted walls near the station plaza"),
        ("d7", "cable stretched over the market square"),
    ];

    fn by_score_then_id(a: &(u32, f64), b: &(u32, f64)) -> Ordering {
        scorecmp::by_score_desc_then_id(a.1, b.1, a.0, b.0)
    }

    fn monolithic() -> Searcher {
        let mut b = IndexBuilder::new(Analyzer::plain());
        for (id, text) in DOCS {
            b.add_document(id, text).expect("unique test ids");
        }
        Searcher::from_index(b.build())
    }

    /// Builds one Searcher per shard under `router`, plus each shard's
    /// local-id → global-ordinal map (ordinal = position in DOCS).
    fn sharded(router: &ShardRouter) -> (Vec<Searcher>, Vec<Vec<u32>>) {
        let mut builders: Vec<IndexBuilder> = (0..router.shards())
            .map(|_| IndexBuilder::new(Analyzer::plain()))
            .collect();
        let mut ordinals: Vec<Vec<u32>> = vec![Vec::new(); router.shards()];
        for (ordinal, (id, text)) in DOCS.iter().enumerate() {
            let s = router.route(id);
            builders[s].add_document(id, text).expect("unique test ids");
            ordinals[s].push(u32::try_from(ordinal).expect("small test corpus"));
        }
        let searchers = builders
            .into_iter()
            .map(|b| Searcher::from_index(b.build()))
            .collect();
        (searchers, ordinals)
    }

    fn sharded_ql(router: &ShardRouter, query: &Query, params: QlParams, k: usize) -> Vec<SearchHit> {
        let (searchers, ordinals) = sharded(router);
        let mut pos = PositionalScratch::new();
        let partials: Vec<QlShardResolve> = searchers
            .iter()
            .map(|s| ql_resolve_shard(s, query, &mut pos))
            .collect();
        let pcs = ql_global_pcs(&partials);
        let mut scratch = QlScratch::new();
        let lists: Vec<Vec<(u32, f64)>> = searchers
            .iter()
            .zip(&partials)
            .zip(&ordinals)
            .map(|((searcher, partial), ords)| {
                ql_rank_shard(searcher, partial, &pcs, params, k, &mut scratch)
                    .into_iter()
                    .map(|(local, score)| (ords[local as usize], score))
                    .collect()
            })
            .collect();
        merge_top_k(lists, k, by_score_then_id)
            .into_iter()
            .map(|(doc, score)| SearchHit {
                doc: DocId(doc),
                score,
            })
            .collect()
    }

    fn test_queries() -> Vec<Query> {
        let a = Analyzer::plain();
        let mut queries = vec![
            Query::parse_text("cable car", &a),
            Query::parse_text("the hill", &a),
            Query::parse_text("graffiti funicular station", &a),
            Query::parse_text("zeppelin", &a),       // globally OOV
            Query::parse_text("cable zeppelin", &a), // mixed OOV
            Query::new(),                            // empty
        ];
        let mut phrase = Query::new();
        phrase.push_phrase_tokens(vec!["cable".into(), "car".into()], 2.0);
        phrase.push_term("hill".into(), 1.0);
        queries.push(phrase);
        let mut missing_phrase = Query::new();
        // All tokens in-vocabulary, but the exact phrase never occurs.
        missing_phrase.push_phrase_tokens(vec!["hill".into(), "cable".into()], 1.0);
        missing_phrase.push_term("car".into(), 0.5);
        queries.push(missing_phrase);
        let mut oov_phrase = Query::new();
        // One phrase token globally out of vocabulary.
        oov_phrase.push_phrase_tokens(vec!["cable".into(), "zeppelin".into()], 1.0);
        oov_phrase.push_term("graffiti".into(), 1.0);
        queries.push(oov_phrase);
        queries
    }

    #[test]
    fn router_is_deterministic_and_bounded() {
        for shards in 1..=8 {
            let r = ShardRouter::new(shards);
            for (id, _) in DOCS {
                let s = r.route(id);
                assert!(s < shards);
                assert_eq!(s, r.route(id), "same id must route identically");
            }
        }
        let r1 = ShardRouter::new(1);
        assert!(DOCS.iter().all(|(id, _)| r1.route(id) == 0));
    }

    #[test]
    fn salts_change_routing_but_stay_deterministic() {
        let a = ShardRouter::with_salt(4, 0x1234);
        let b = ShardRouter::with_salt(4, 0x1234);
        for (id, _) in DOCS {
            assert_eq!(a.route(id), b.route(id));
        }
    }

    #[test]
    fn sharded_ql_is_bit_identical_to_monolithic() {
        let mono = monolithic();
        let params = QlParams { mu: 10.0 };
        for shards in 1..=5 {
            for salt in [0u64, 0xdead_beef, 0x5eed_5eed_5eed_5eed] {
                let router = ShardRouter::with_salt(shards, salt);
                for (qi, q) in test_queries().iter().enumerate() {
                    let want = ql::rank(&mono, q, params, 5);
                    let got = sharded_ql(&router, q, params, 5);
                    assert_eq!(
                        got, want,
                        "shards={shards} salt={salt:#x} query #{qi}: sharded QL must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_shards_are_harmless() {
        // More shards than documents: some shards stay empty and must
        // contribute nothing (and never skew the global statistics).
        let mono = monolithic();
        let router = ShardRouter::with_salt(31, 7);
        let q = Query::parse_text("cable car hill", &Analyzer::plain());
        let params = QlParams { mu: 10.0 };
        assert_eq!(
            sharded_ql(&router, &q, params, 10),
            ql::rank(&mono, &q, params, 10)
        );
    }

    #[test]
    fn global_pcs_floor_oov_terms_like_the_monolithic_searcher() {
        let router = ShardRouter::new(3);
        let (searchers, _) = sharded(&router);
        let q = Query::parse_text("zeppelin", &Analyzer::plain());
        let mut pos = PositionalScratch::new();
        let partials: Vec<QlShardResolve> = searchers
            .iter()
            .map(|s| ql_resolve_shard(s, &q, &mut pos))
            .collect();
        let pcs = ql_global_pcs(&partials);
        let mono = monolithic();
        assert_eq!(pcs, vec![mono.collection_prob(None)]);
    }

    #[test]
    fn merge_top_k_breaks_ties_by_global_id() {
        let lists = vec![vec![(5, 2.0), (7, 1.0)], vec![], vec![(2, 1.0), (9, 0.5)]];
        let merged = merge_top_k(lists, 3, by_score_then_id);
        assert_eq!(merged, vec![(5, 2.0), (2, 1.0), (7, 1.0)]);
    }

    #[test]
    fn merge_top_k_of_one_list_is_its_prefix() {
        let list = vec![(3, 2.0), (1, 1.0), (4, 1.0), (0, -1.0)];
        let never = |_: &(u32, f64), _: &(u32, f64)| -> Ordering {
            unreachable!("one list needs no comparison")
        };
        assert_eq!(merge_top_k(vec![list.clone()], 3, never), list[..3]);
        assert!(merge_top_k(Vec::new(), 3, never).is_empty());
        assert!(merge_top_k(vec![list], 0, never).is_empty());
    }

    #[test]
    fn scratch_reuse_matches_fresh_resolve() {
        // The shared PositionalScratch across shards must not leak state
        // between shards or queries.
        let mono = monolithic();
        let router = ShardRouter::new(3);
        let params = QlParams { mu: 10.0 };
        let mut scratch = QlScratch::new();
        for q in test_queries() {
            let want = ql::rank_with_scratch(&mono, &q, params, 5, &mut scratch);
            assert_eq!(sharded_ql(&router, &q, params, 5), want);
        }
    }
}
