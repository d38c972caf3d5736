//! Dirichlet-smoothed query-likelihood retrieval.
//!
//! Implements the paper's retrieval model (Section 2.3): the query
//! likelihood `P(Q|D) = Π_i P(w_i|D)` with the Dirichlet-smoothed feature
//! function `P(w|D) = (tf_{w,D} + μ·P(w|C)) / (|D| + μ)`, generalized to
//! n-gram (exact phrase) features and per-feature weights:
//!
//! `score(D) = Σ_f (λ_f / Σλ) · log P(f|D)`.
//!
//! Documents are ranked among the candidates that match at least one query
//! feature (standard OR-mode evaluation). Scoring runs against a
//! [`Searcher`], whose merged statistics are exact integer sums over its
//! segments — so the scores (and therefore the ranking) are identical for
//! any partition of the same corpus.
//!
//! There is one scoring kernel, [`rank_stages`], for one query or several
//! ranked together ([`StagedQuery`]), on one searcher or on shards: it
//! resolves the union of the stages' distinct features on every shard
//! (`QlShardResolve`), derives the collection probabilities from exact
//! integer counts (`ql_global_pcs`), then walks per-segment postings
//! cursors document at a time, once for all stages. [`rank_with_scratch`]
//! is its one-stage, one-shard case. Term cursors read the segment's
//! postings in place; phrase cursors read the resolve's intersections.
//!
//! The logarithms are looked up, not recomputed: each feature's
//! `ln(tf + μ·P(f|C))` for `tf` below [`TF_LOGS`] (the absent-feature
//! term at `tf = 0`) is computed once per query, and `ln(|D| + μ)` once
//! per scratch for each length below [`LEN_LOGS`], keyed by the bits of
//! μ; larger values are computed where they occur. Each stage adds its
//! own terms `λ/Σλ · (log_num − ln(|D| + μ))` in its own query order.
//! Every value is the expression the plain formula evaluates, so each
//! score has the bits the plain formula gives.

use crate::index::{DocId, PositionalScratch, TermId, TermPostings};
use crate::searcher::Searcher;
use crate::shard::{ql_global_pcs, QlShardResolve, ShardFeatureKind};
use crate::structured::{Query, StagedQuery};

/// Parameters of the Dirichlet query-likelihood scorer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QlParams {
    /// Dirichlet smoothing mass μ. Indri's default is 2500; the paper's
    /// short caption-like documents favour a smaller value, configured by
    /// the experiment harness.
    pub mu: f64,
}

impl Default for QlParams {
    fn default() -> Self {
        QlParams { mu: 2500.0 }
    }
}

/// One ranked search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The matched document.
    pub doc: DocId,
    /// Weighted log query likelihood.
    pub score: f64,
}

/// Term frequencies whose log-numerator each feature tables per query.
/// On the full bed's SQE_C replay 91% of matched (document, feature)
/// pairs have `tf = 1` and 99% have `tf ≤ 2`.
const TF_LOGS: usize = 3;

/// Document lengths whose `ln(|D| + μ)` a scratch tables (the full
/// bed's captions are at most 34 tokens long).
const LEN_LOGS: usize = 1 << 10;

/// Per-query constants of one union feature's Dirichlet term.
#[derive(Debug, Clone, Copy)]
struct FeatureConst {
    /// `μ · P(f|C)`.
    mpc: f64,
    /// `ln(tf + μ·P(f|C))` for `tf` below [`TF_LOGS`]; at `tf = 0` the
    /// log-numerator of a document without `f`.
    logs: [f64; TF_LOGS],
    /// Bit `s` is set when stage `s` uses the feature.
    stages: u64,
}

impl FeatureConst {
    fn new(mpc: f64) -> Self {
        let mut logs = [0.0; TF_LOGS];
        for (tf, log) in (0u32..).zip(&mut logs) {
            *log = log_num(tf, mpc);
        }
        FeatureConst {
            mpc,
            logs,
            stages: 0,
        }
    }

    /// `ln(tf + μ·P(f|C))`.
    fn log_num(&self, tf: u32) -> f64 {
        match self.logs.get(tf as usize) {
            Some(&log) => log,
            None => log_num(tf, self.mpc),
        }
    }
}

/// One term of a stage: its union feature and `λ_f / Σλ` over the
/// stage's weights.
#[derive(Debug, Clone, Copy)]
struct TermConst {
    feature: usize,
    coef: f64,
}

/// One stage's run in the kernel's term list and whether its weights
/// sum to a positive total; a stage that is not live scores every
/// candidate `-inf`.
#[derive(Debug, Clone, Copy)]
struct StageConst {
    end: usize,
    live: bool,
}

/// Work one ranking call did, summed over shards: integers that timing
/// does not change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QlWork {
    /// Union features resolved, once per shard.
    pub features_resolved: u64,
    /// `(document, stage)` pairs scored.
    pub candidates_scored: u64,
}

/// Document-length part of the formula, `ln(|D| + μ)`.
fn log_denom(doc_len: u32, mu: f64) -> f64 {
    (f64::from(doc_len) + mu).ln()
}

/// Feature part of the formula, `ln(tf + μ·P(f|C))`.
fn log_num(tf: u32, mpc: f64) -> f64 {
    (f64::from(tf) + mpc).ln()
}

/// `ln(|D| + μ)` for each document length below [`LEN_LOGS`], filled up
/// to the longest length read, for one μ (compared by its bits).
#[derive(Debug, Default)]
struct LenLogs {
    mu: f64,
    logs: Vec<f64>,
}

impl LenLogs {
    /// Keys the table to `mu`, emptying it when μ changed.
    fn key(&mut self, mu: f64) {
        if self.mu.to_bits() != mu.to_bits() {
            self.mu = mu;
            self.logs.clear();
        }
    }

    /// `ln(len + μ)`.
    fn get(&mut self, len: u32) -> f64 {
        let (i, mu) = (len as usize, self.mu);
        if self.logs.len() <= i && i < LEN_LOGS {
            let from = u32::try_from(self.logs.len())
                .expect("invariant: the table is shorter than LEN_LOGS");
            self.logs.extend((from..=len).map(|l| log_denom(l, mu)));
        }
        match self.logs.get(i) {
            Some(&log) => log,
            None => log_denom(len, mu),
        }
    }
}

/// A ranking key: sorting keys ascending ranks by score descending, then
/// doc id ascending — the `scorecmp` order. The high 64 bits map the
/// score's bits onto `f64::total_cmp` order as an unsigned integer
/// (negative scores have every bit flipped, the others the sign bit),
/// then invert them for descending order; the low 32 bits hold the doc.
fn rank_key(score: f64, doc: u32) -> u128 {
    let bits = score.to_bits();
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    u128::from(!ascending) << 32 | u128::from(doc)
}

/// The `(doc, score)` a [`rank_key`] was made from, score bits exact.
fn from_rank_key(key: u128) -> (u32, f64) {
    let doc = (key & u128::from(u32::MAX)) as u32;
    let ascending = !((key >> 32) as u64);
    let bits = if ascending >> 63 == 1 {
        ascending & !(1 << 63)
    } else {
        !ascending
    };
    (doc, f64::from_bits(bits))
}

/// The best `k` of `keys` as a ranked `(doc, score)` list; empties
/// `keys`. Cuts to `k` with a selection, then sorts only what is kept.
fn take_top_k(keys: &mut Vec<u128>, k: usize) -> Vec<(u32, f64)> {
    if k == 0 {
        keys.clear();
        return Vec::new();
    }
    if keys.len() > k {
        keys.select_nth_unstable(k - 1);
        keys.truncate(k);
    }
    keys.sort_unstable();
    keys.drain(..).map(from_rank_key).collect()
}

/// Doc id of an exhausted cursor; real ids are below the doc count.
const END: u32 = u32::MAX;

/// The postings a cursor reads, in segment-local doc ids.
#[derive(Debug, Clone, Copy)]
enum Postings<'a> {
    /// A term's segment postings, read in place.
    Term { docs: &'a [u32], tfs: &'a [u32] },
    /// A phrase's run of the resolve's intersections, in searcher doc
    /// ids from the segment's `base`.
    Phrase { run: &'a [(DocId, u32)], base: u32 },
}

/// A feature's position in its postings: the current document and its
/// frequency, and the next unread entry.
#[derive(Debug, Clone, Copy)]
struct Cursor<'a> {
    doc: u32,
    tf: u32,
    next: usize,
    postings: Postings<'a>,
}

impl<'a> Cursor<'a> {
    /// A cursor on the first entry of `postings`.
    fn new(postings: Postings<'a>) -> Self {
        let mut cursor = Cursor {
            doc: END,
            tf: 0,
            next: 0,
            postings,
        };
        cursor.advance();
        cursor
    }

    fn advance(&mut self) {
        let entry = match self.postings {
            Postings::Term { docs, tfs } => docs
                .get(self.next)
                .zip(tfs.get(self.next))
                .map(|(&d, &tf)| (d, tf)),
            Postings::Phrase { run, base } => run.get(self.next).map(|&(d, tf)| (d.0 - base, tf)),
        };
        match entry {
            Some((doc, tf)) => {
                self.doc = doc;
                self.tf = tf;
                self.next += 1;
            }
            None => self.doc = END,
        }
    }
}

/// An empty vector on `v`'s allocation, for cursors of another lifetime:
/// the kernel keeps one cursor buffer across queries although each
/// query's cursors borrow that query's postings. Collecting an emptied
/// `IntoIter` into an element type of the same layout reuses its buffer
/// (the map never runs).
fn recycle<'b>(mut v: Vec<Cursor<'_>>) -> Vec<Cursor<'b>> {
    v.clear();
    v.into_iter()
        .map(|_| {
            Cursor::new(Postings::Term {
                docs: &[],
                tfs: &[],
            })
        })
        .collect()
}

/// Scores a single document, matching or not (used by tests that check
/// the formula against hand calculations).
pub fn score_document(searcher: &Searcher, query: &Query, doc: DocId, params: QlParams) -> f64 {
    let staged = StagedQuery::single(query);
    let mut scratch = QlScratch::new();
    scratch.prepare(std::iter::once(searcher), &staged, params.mu);
    let QlScratch {
        shards,
        consts,
        terms,
        stages,
        ..
    } = &scratch;
    let (Some(partial), Some(stage)) = (shards.first(), stages.first()) else {
        return f64::NEG_INFINITY;
    };
    if !stage.live {
        return f64::NEG_INFINITY;
    }
    let denom = log_denom(searcher.doc_len(doc), params.mu);
    let mut score = 0.0;
    for t in terms {
        let (Some(f), Some(fc)) = (partial.features.get(t.feature), consts.get(t.feature)) else {
            continue;
        };
        let tf = match f.kind {
            ShardFeatureKind::Term(Some(id)) => searcher.tf(id, doc),
            ShardFeatureKind::Term(None) => 0,
            ShardFeatureKind::Positional { start, end } => {
                let list = partial.positional(start, end);
                list.binary_search_by_key(&doc, |&(d, _)| d)
                    .ok()
                    .and_then(|i| list.get(i))
                    .map_or(0, |&(_, tf)| tf)
            }
        };
        score += t.coef * (fc.log_num(tf) - denom);
    }
    score
}

/// Reusable buffers for [`rank_stages`] and [`rank_with_scratch`]: the
/// per-shard resolves, the positional staging buffers and the kernel's
/// constants, cursors, logarithm tables and candidate keys survive
/// across queries, so serving does not reallocate them per query.
#[derive(Debug, Default)]
pub struct QlScratch {
    pos: PositionalScratch,
    /// A phrase's term ids during resolve.
    term_ids: Vec<TermId>,
    /// One resolve per shard of the current query.
    shards: Vec<QlShardResolve>,
    pcs: Vec<f64>,
    consts: Vec<FeatureConst>,
    /// Every stage's terms, stage after stage; `stages` closes each run.
    terms: Vec<TermConst>,
    stages: Vec<StageConst>,
    /// The current segment's cursors, one per feature; empty between
    /// segments (see [`recycle`]).
    cursors: Vec<Cursor<'static>>,
    /// The current document's `ln(tf + μ·P(f|C))` per feature (the
    /// absent term where the feature does not occur).
    log_nums: Vec<f64>,
    len_logs: LenLogs,
    /// Per stage: the current shard's candidates as [`rank_key`]s.
    candidates: Vec<Vec<u128>>,
    work: QlWork,
}

impl QlScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        QlScratch::default()
    }

    /// The work counted since the last call, summed over every ranking
    /// call made with this scratch; resets the count.
    pub fn take_work(&mut self) -> QlWork {
        std::mem::take(&mut self.work)
    }

    /// Resolves the union of `staged`'s features on every shard, gathers
    /// the collection probabilities, and computes the per-query
    /// constants: each feature's `μ·P(f|C)`, tabled log-numerators and
    /// stage mask, and each stage's terms with `λ/Σλ` over the stage's
    /// weights, stage after stage, each in its query order.
    fn prepare<'s>(
        &mut self,
        shards: impl Iterator<Item = &'s Searcher> + Clone,
        staged: &StagedQuery<'_>,
        mu: f64,
    ) {
        let n = shards.clone().count();
        let QlScratch {
            pos,
            term_ids,
            shards: partials,
            pcs,
            consts,
            terms,
            stages,
            work,
            ..
        } = self;
        partials.resize_with(n, QlShardResolve::default);
        for (partial, searcher) in partials.iter_mut().zip(shards) {
            partial.resolve(searcher, staged.features(), pos, term_ids);
        }
        work.features_resolved += (n * staged.features().len()) as u64;
        ql_global_pcs(partials, pcs);
        consts.clear();
        consts.extend(pcs.iter().map(|&pc| FeatureConst::new(mu * pc)));
        terms.clear();
        stages.clear();
        for (s, stage) in staged.stages().enumerate() {
            let total: f64 = stage.iter().map(|t| t.weight).sum();
            for t in stage {
                let feature = t.feature as usize;
                if let Some(fc) = consts.get_mut(feature) {
                    fc.stages |= 1 << s;
                }
                terms.push(TermConst {
                    feature,
                    coef: t.weight / total,
                });
            }
            stages.push(StageConst {
                end: terms.len(),
                live: total > 0.0,
            });
        }
    }

    /// The document-at-a-time kernel on one searcher (a shard, or the
    /// whole corpus), for every stage at once: walks the union of the
    /// features' postings once, looks up or computes `ln(tf + μ·P(f|C))`
    /// once per matched (document, feature) pair, and scores a document
    /// for each stage that uses one of its matched features, adding the
    /// stage's terms in its own order. Returns each stage's best `ks[s]` as
    /// `(searcher doc id, score)`, ranked. Segments are walked in doc
    /// order, and within a segment all cursors advance together over the
    /// union of their documents.
    fn rank_shard(
        &mut self,
        searcher: &Searcher,
        shard: usize,
        mu: f64,
        ks: &[usize],
    ) -> Vec<Vec<(u32, f64)>> {
        let QlScratch {
            shards,
            consts,
            terms,
            stages,
            cursors,
            log_nums,
            len_logs,
            candidates,
            work,
            ..
        } = self;
        let partial = shards
            .get(shard)
            .expect("invariant: every shard was resolved before scoring");
        log_nums.clear();
        log_nums.resize(consts.len(), 0.0);
        candidates.resize_with(stages.len(), Vec::new);
        len_logs.key(mu);
        let mut cursors = recycle(std::mem::take(cursors));
        for (segment, base, index) in searcher.segment_bases() {
            let docs =
                u32::try_from(index.num_docs()).expect("invariant: segment doc count fits in u32");
            cursors.clear();
            cursors.extend(partial.features.iter().map(|f| {
                Cursor::new(match f.kind {
                    ShardFeatureKind::Term(Some(t)) => {
                        let p = searcher.segment_postings(segment, t);
                        Postings::Term {
                            docs: p.map_or(&[], TermPostings::docs),
                            tfs: p.map_or(&[], TermPostings::tfs),
                        }
                    }
                    ShardFeatureKind::Term(None) => Postings::Term {
                        docs: &[],
                        tfs: &[],
                    },
                    ShardFeatureKind::Positional { start, end } => {
                        // The list is sorted by searcher doc id: this
                        // segment's run starts at the first id ≥ `base`.
                        let list = partial.positional(start, end);
                        let lo = list.partition_point(|&(d, _)| d.0 < base);
                        let rest = list.get(lo..).unwrap_or_default();
                        let len = rest.partition_point(|&(d, _)| d.0 - base < docs);
                        let run = rest.get(..len).unwrap_or_default();
                        Postings::Phrase { run, base }
                    }
                })
            }));
            let doc_lens = index.doc_lens();
            let mut doc = cursors.iter().map(|c| c.doc).min().unwrap_or(END);
            while doc != END {
                let len = doc_lens
                    .get(doc as usize)
                    .copied()
                    .expect("invariant: postings reference documents of their segment");
                let denom = len_logs.get(len);
                let mut matched = 0u64;
                let mut next = END;
                for ((c, fc), log_num) in cursors
                    .iter_mut()
                    .zip(consts.iter())
                    .zip(log_nums.iter_mut())
                {
                    if c.doc == doc {
                        *log_num = fc.log_num(c.tf);
                        matched |= fc.stages;
                        c.advance();
                    } else {
                        *log_num = fc.log_num(0);
                    }
                    next = next.min(c.doc);
                }
                let mut start = 0;
                for (s, (stage, keys)) in stages.iter().zip(candidates.iter_mut()).enumerate() {
                    let stage_terms = terms.get(start..stage.end).unwrap_or_default();
                    start = stage.end;
                    if matched >> s & 1 == 0 {
                        continue;
                    }
                    let mut score = 0.0;
                    for t in stage_terms {
                        let log_num = log_nums
                            .get(t.feature)
                            .copied()
                            .expect("invariant: stage terms index the feature union");
                        score += t.coef * (log_num - denom);
                    }
                    let score = if stage.live { score } else { f64::NEG_INFINITY };
                    work.candidates_scored += 1;
                    // NaN scores are skipped, as `TopK::push` skips them.
                    if !score.is_nan() {
                        keys.push(rank_key(score, base + doc));
                    }
                }
                doc = next;
            }
        }
        self.cursors = recycle(cursors);
        self.candidates
            .iter_mut()
            .zip(ks)
            .map(|(keys, &k)| take_top_k(keys, k))
            .collect()
    }
}

/// Ranks every stage of `staged` over `shards` (one searcher each; a
/// single corpus is the one-shard case). The union of the stages'
/// features is resolved once per shard, the collection probabilities
/// are gathered once from the shards' exact integer counts, and each
/// shard is walked once by the kernel for all stages. Returns, per
/// stage, per shard, that shard's best `ks[stage]` as `(shard-local doc
/// id, score)`, ranked; merge a stage's lists with
/// [`crate::shard::merge_top_k`] at the same `k`.
///
/// # Panics
///
/// When `ks` does not hold one depth per stage.
pub fn rank_stages<'s>(
    shards: impl Iterator<Item = &'s Searcher> + Clone,
    staged: &StagedQuery<'_>,
    params: QlParams,
    ks: &[usize],
    scratch: &mut QlScratch,
) -> Vec<Vec<Vec<(u32, f64)>>> {
    assert_eq!(ks.len(), staged.num_stages(), "one depth per stage");
    scratch.prepare(shards.clone(), staged, params.mu);
    let mut lists: Vec<Vec<Vec<(u32, f64)>>> = ks.iter().map(|_| Vec::new()).collect();
    for (shard, searcher) in shards.enumerate() {
        for (stage, list) in lists
            .iter_mut()
            .zip(scratch.rank_shard(searcher, shard, params.mu, ks))
        {
            stage.push(list);
        }
    }
    lists
}

/// Ranks the top `k` documents for `query`. Candidates are the documents
/// matching at least one in-vocabulary feature; they are scored with the
/// full weighted log-likelihood (absent features contribute their
/// background-smoothing mass).
pub fn rank(searcher: &Searcher, query: &Query, params: QlParams, k: usize) -> Vec<SearchHit> {
    rank_with_scratch(searcher, query, params, k, &mut QlScratch::new())
}

/// [`rank`] with caller-owned scratch buffers; identical output. The
/// one-stage, one-shard case of [`rank_stages`].
pub fn rank_with_scratch(
    searcher: &Searcher,
    query: &Query,
    params: QlParams,
    k: usize,
    scratch: &mut QlScratch,
) -> Vec<SearchHit> {
    let staged = StagedQuery::single(query);
    rank_stages(std::iter::once(searcher), &staged, params, &[k], scratch)
        .into_iter()
        .flatten()
        .flatten()
        .map(|(doc, score)| SearchHit {
            doc: DocId(doc),
            score,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use crate::index::IndexBuilder;
    use crate::ingest::SegmentedIndex;

    fn build(docs: &[(&str, &str)]) -> Searcher {
        let mut b = IndexBuilder::new(Analyzer::plain());
        for (id, text) in docs {
            b.add_document(id, text).expect("unique test ids");
        }
        Searcher::from_index(b.build())
    }

    const TINY: [(&str, &str); 3] = [
        ("d0", "cable car climbs the hill"), // len 5
        ("d1", "cable car cable car"),       // len 4
        ("d2", "graffiti on the wall"),      // len 4
    ];

    fn tiny() -> Searcher {
        build(&TINY)
    }

    #[test]
    fn dirichlet_formula_matches_hand_calculation() {
        let idx = tiny();
        let q = Query::parse_text("cable", &Analyzer::plain());
        let params = QlParams { mu: 10.0 };
        // P(cable|C) = 3/13; doc d0: tf=1, |D|=5.
        let expected = (1.0f64 + 10.0 * (3.0 / 13.0)).ln() - (5.0f64 + 10.0).ln();
        let got = score_document(&idx, &q, DocId(0), params);
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn higher_tf_scores_higher() {
        let idx = tiny();
        let q = Query::parse_text("cable car", &Analyzer::plain());
        let hits = rank(&idx, &q, QlParams { mu: 10.0 }, 10);
        assert_eq!(hits[0].doc, DocId(1), "doc with tf=2 per term wins");
        assert_eq!(hits.len(), 2, "only matching docs are candidates");
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn phrase_feature_rewards_adjacency() {
        let idx = build(&[
            ("adj", "cable car network"),
            ("sep", "cable network of the car"),
        ]);
        let mut q = Query::new();
        q.push_phrase_tokens(vec!["cable".into(), "car".into()], 1.0);
        let hits = rank(&idx, &q, QlParams { mu: 10.0 }, 10);
        assert_eq!(idx.external_id(hits[0].doc), "adj");
        // The separated doc still appears via background smoothing of the
        // phrase? No: it has phrase tf 0 and is not a candidate.
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn oov_query_returns_empty() {
        let idx = tiny();
        let q = Query::parse_text("zeppelin", &Analyzer::plain());
        assert!(rank(&idx, &q, QlParams::default(), 10).is_empty());
    }

    #[test]
    fn empty_query_returns_empty() {
        let idx = tiny();
        let q = Query::new();
        assert!(rank(&idx, &q, QlParams::default(), 10).is_empty());
    }

    #[test]
    fn weights_shift_ranking() {
        let idx = build(&[
            ("c", "cable cable cable"),
            ("g", "graffiti graffiti graffiti"),
        ]);
        let mut q = Query::new();
        q.push_term("cable".into(), 0.1);
        q.push_term("graffiti".into(), 0.9);
        let hits = rank(&idx, &q, QlParams { mu: 5.0 }, 10);
        assert_eq!(idx.external_id(hits[0].doc), "g");
        let mut q2 = Query::new();
        q2.push_term("cable".into(), 0.9);
        q2.push_term("graffiti".into(), 0.1);
        let hits2 = rank(&idx, &q2, QlParams { mu: 5.0 }, 10);
        assert_eq!(idx.external_id(hits2[0].doc), "c");
    }

    #[test]
    fn score_is_weight_normalized() {
        // Scaling all weights by a constant must not change scores.
        let idx = tiny();
        let mut q1 = Query::new();
        q1.push_term("cable".into(), 1.0);
        q1.push_term("hill".into(), 2.0);
        let mut q2 = Query::new();
        q2.push_term("cable".into(), 10.0);
        q2.push_term("hill".into(), 20.0);
        let s1 = score_document(&idx, &q1, DocId(0), QlParams::default());
        let s2 = score_document(&idx, &q2, DocId(0), QlParams::default());
        assert!((s1 - s2).abs() < 1e-12);
    }

    #[test]
    fn k_limits_results() {
        let idx = tiny();
        let q = Query::parse_text("the", &Analyzer::plain());
        let hits = rank(&idx, &q, QlParams::default(), 1);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn scratch_reuse_matches_fresh_rank() {
        let idx = tiny();
        let mut scratch = QlScratch::new();
        for text in ["cable car", "the hill", "graffiti", "cable"] {
            let q = Query::parse_text(text, &Analyzer::plain());
            let fresh = rank(&idx, &q, QlParams { mu: 10.0 }, 5);
            let reused = rank_with_scratch(&idx, &q, QlParams { mu: 10.0 }, 5, &mut scratch);
            assert_eq!(fresh, reused, "query {text:?}");
        }
    }

    #[test]
    fn reused_scratch_keeps_score_bits_across_mu() {
        // A document longer than the length table and frequencies past
        // each feature's table, on one index and on three segments.
        let long = ["cable car"; LEN_LOGS].join(" ");
        let docs = [
            ("d0", "cable car climbs the hill"),
            ("d1", "cable cable cable cable cable car hill"),
            ("d2", long.as_str()),
            ("d3", "the hill"),
        ];
        let mono = build(&docs);
        let mut seg = SegmentedIndex::new(Analyzer::plain());
        for (i, (id, text)) in docs.iter().enumerate() {
            seg.add_document(id, text).expect("unique test ids");
            if i % 2 == 0 {
                seg.seal().expect("non-empty buffer seals");
            }
        }
        seg.seal().expect("non-empty buffer seals");
        let segd = seg.searcher();
        let a = Analyzer::plain();
        let mut phrase = Query::parse_text("hill", &a);
        phrase.push_phrase_tokens(vec!["cable".into(), "car".into()], 2.0);
        let queries = [Query::parse_text("cable car", &a), phrase];
        let bits = |hits: Vec<SearchHit>| -> Vec<(DocId, u64)> {
            hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
        };
        let mut scratch = QlScratch::new();
        for mu in [0.5, 2500.0, 10.0, 0.5] {
            let params = QlParams { mu };
            for searcher in [&mono, &segd] {
                for q in &queries {
                    let fresh = bits(rank(searcher, q, params, 10));
                    let reused = bits(rank_with_scratch(searcher, q, params, 10, &mut scratch));
                    assert_eq!(reused, fresh, "mu {mu}, query {}", q.render());
                }
            }
        }
    }

    #[test]
    fn rank_keys_order_like_scorecmp_and_keep_score_bits() {
        let scores = [
            f64::NEG_INFINITY,
            -3.5,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            1.25,
            f64::MAX,
            f64::INFINITY,
        ];
        let mut pairs: Vec<(u32, f64)> = Vec::new();
        for (i, &score) in scores.iter().enumerate() {
            for doc in [0, 7, u32::MAX - 1] {
                pairs.push((doc ^ u32::try_from(i).expect("few scores"), score));
            }
        }
        for &(doc, score) in &pairs {
            let (d, s) = from_rank_key(rank_key(score, doc));
            assert_eq!((d, s.to_bits()), (doc, score.to_bits()));
        }
        let mut by_key = pairs.clone();
        by_key.sort_by_key(|&(doc, score)| rank_key(score, doc));
        let mut by_cmp = pairs;
        by_cmp.sort_by(|a, b| scorecmp::by_score_desc_then_id(a.1, b.1, a.0, b.0));
        let bits = |v: &[(u32, f64)]| -> Vec<(u32, u64)> {
            v.iter().map(|&(d, s)| (d, s.to_bits())).collect()
        };
        assert_eq!(bits(&by_key), bits(&by_cmp));
    }

    #[test]
    fn staged_ranking_matches_each_query_ranked_alone() {
        let idx = build(&[
            ("d0", "cable car climbs the hill"),
            ("d1", "cable car cable car"),
            ("d2", "graffiti on the wall"),
            ("d3", "the hill of graffiti"),
            ("d4", "car park near the wall"),
        ]);
        let a = Analyzer::plain();
        let mut phrase = Query::parse_text("hill", &a);
        phrase.push_phrase_tokens(vec!["cable".into(), "car".into()], 2.0);
        let mut zero = Query::new();
        zero.push_term("wall".into(), f64::from_bits(1));
        let zero = Query::combine(&[(zero, f64::from_bits(1))]);
        let queries = [
            Query::parse_text("cable car", &a),
            phrase,
            Query::parse_text("graffiti wall zeppelin", &a),
            Query::parse_text("car car", &a),
            zero,
            Query::new(),
        ];
        let mut staged = StagedQuery::new();
        for q in &queries {
            staged.push_query(q);
        }
        let params = QlParams { mu: 10.0 };
        let ks = [1, 3, 10, 2, 10, 4];
        let mut scratch = QlScratch::new();
        let got = rank_stages(std::iter::once(&idx), &staged, params, &ks, &mut scratch);
        for ((q, &k), lists) in queries.iter().zip(&ks).zip(&got) {
            let want: Vec<(u32, u64)> = rank(&idx, q, params, k)
                .iter()
                .map(|h| (h.doc.0, h.score.to_bits()))
                .collect();
            let [list] = lists.as_slice() else {
                panic!("one list per shard");
            };
            let list: Vec<(u32, u64)> = list.iter().map(|&(d, s)| (d, s.to_bits())).collect();
            assert_eq!(list, want, "query {}", q.render());
        }
        // cable, car, hill, #1(cable car), graffiti, wall, zeppelin.
        let work = scratch.take_work();
        assert_eq!(work.features_resolved, 7);
        // Matching documents per stage: 3 + 3 + 3 + 3 + 2 + 0.
        assert_eq!(work.candidates_scored, 14);
        assert_eq!(
            scratch.take_work(),
            QlWork::default(),
            "taking the work resets it"
        );
    }

    #[test]
    fn shorter_doc_wins_at_equal_tf() {
        // Same tf, shorter document ⇒ higher P(w|D).
        let idx = build(&[
            ("short", "cable hill"),
            ("long", "cable hill extra words here padding"),
        ]);
        let q = Query::parse_text("cable", &Analyzer::plain());
        let hits = rank(&idx, &q, QlParams { mu: 10.0 }, 10);
        assert_eq!(idx.external_id(hits[0].doc), "short");
    }

    #[test]
    fn segmented_scores_are_bit_identical_to_monolithic() {
        let mono = tiny();
        let mut seg = SegmentedIndex::new(Analyzer::plain());
        for (id, text) in TINY {
            seg.add_document(id, text).expect("unique test ids");
            seg.seal().expect("non-empty buffer seals");
        }
        let segd = seg.searcher();
        assert!(segd.num_segments() > 1, "test must exercise >1 segment");
        for text in ["cable car", "the hill", "cable", "graffiti wall"] {
            let q = Query::parse_text(text, &Analyzer::plain());
            let a = rank(&mono, &q, QlParams { mu: 10.0 }, 10);
            let b = rank(&segd, &q, QlParams { mu: 10.0 }, 10);
            assert_eq!(
                a, b,
                "query {text:?}: scores and order must be bit-identical"
            );
        }
        let mut q = Query::new();
        q.push_phrase_tokens(vec!["cable".into(), "car".into()], 1.0);
        assert_eq!(
            rank(&mono, &q, QlParams { mu: 10.0 }, 10),
            rank(&segd, &q, QlParams { mu: 10.0 }, 10)
        );
    }
}
