//! Document-collection generation.
//!
//! Collections imitate the paper's targets: short caption/metadata-style
//! records (Image CLEF image annotations, CHiC cultural-heritage entries).
//! Four document families are generated:
//!
//! 1. **relevant entity documents** — about entities in some query's
//!    relevance neighbourhood, sized so each query's relevant count lands
//!    near the configured mean;
//! 2. **hard negatives** — about same-topic entities *outside* the
//!    neighbourhood: lexically close, never relevant;
//! 3. **boilerplate** — per-domain catalogue records covering broad
//!    vocabulary with low per-word density; these are what pure
//!    pseudo-relevance feedback drifts onto (Section 4.3's PRF collapse);
//! 4. **background** — entity documents from unused topics plus pure
//!    noise, filling the collection to its configured size.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashMap;

use crate::concepts::ConceptSpace;
use crate::config::CollectionConfig;
use crate::queries::QuerySpec;

/// One generated document.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Document {
    /// Stable external id, e.g. `"chic-d001234"`.
    pub id: String,
    /// The caption-like text.
    pub text: String,
    /// The entity the document is about (None for boilerplate/noise).
    pub about: Option<usize>,
    /// Whether a relevance assessor would judge this document relevant to
    /// a query about its entity (documents about the right entity but the
    /// wrong aspect are judged non-relevant in real benchmarks).
    pub judged_relevant: bool,
}

/// Generates the documents of one collection, honouring every query set
/// that runs over it (the CHiC collection serves both 2012 and 2013).
pub fn generate_documents(
    space: &ConceptSpace,
    cfg: &CollectionConfig,
    query_sets: &[&[QuerySpec]],
) -> Vec<Document> {
    generate_documents_with_means(space, cfg, query_sets, &[])
}

/// Like [`generate_documents`], but with a per-query-set override of the
/// mean judged-relevant count (parallel to `query_sets`; missing or
/// non-positive entries fall back to the collection default). The CHiC
/// 2012 and 2013 query sets share one collection but have different
/// relevant-count profiles (31.32 vs 50.6).
pub fn generate_documents_with_means(
    space: &ConceptSpace,
    cfg: &CollectionConfig,
    query_sets: &[&[QuerySpec]],
    set_means: &[f64],
) -> Vec<Document> {
    let mut docs: Vec<Document> = Vec::with_capacity(cfg.total_docs);
    stream_documents_with_means(space, cfg, query_sets, set_means, &mut |d| docs.push(d));
    docs
}

/// Emits generated documents through a sink, tracking the generated
/// count. The planted quota phases may overshoot `total` (the in-memory
/// path used to truncate at the end); the emitter drops the overshoot
/// *after* its text was generated, so the RNG consumption — and hence
/// every surviving document — is identical to the in-memory path.
struct Emitter<'s> {
    name: &'s str,
    total: usize,
    counter: usize,
    sink: &'s mut dyn FnMut(Document),
}

impl Emitter<'_> {
    fn push(&mut self, text: String, about: Option<usize>, judged_relevant: bool) {
        if self.counter < self.total {
            (self.sink)(Document {
                id: format!("{}-d{:06}", self.name, self.counter),
                text,
                about,
                judged_relevant,
            });
        }
        self.counter += 1;
    }

    /// Documents generated so far (including dropped overshoot).
    fn generated(&self) -> usize {
        self.counter
    }
}

/// The streaming core behind [`generate_documents_with_means`]: emits
/// each document through `sink` the moment its text exists, holding no
/// document buffer — memory stays bounded by the quota bookkeeping
/// (proportional to the query sets, not to `total_docs`). Guaranteed to
/// emit exactly the documents the in-memory path returns, in the same
/// order: both paths drive one RNG through the identical call sequence.
pub fn stream_documents_with_means(
    space: &ConceptSpace,
    cfg: &CollectionConfig,
    query_sets: &[&[QuerySpec]],
    set_means: &[f64],
    sink: &mut dyn FnMut(Document),
) {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut em = Emitter {
        name: cfg.name,
        total: cfg.total_docs,
        counter: 0,
        sink,
    };

    // --- per-entity doc quotas from the queries -----------------------
    let mut quota: FxHashMap<usize, usize> = FxHashMap::default();
    let mut used_topics: Vec<usize> = Vec::new();
    let mut banned_topics: Vec<usize> = Vec::new();
    // topic → the aspect words of the query owning that topic.
    let mut topic_aspect: FxHashMap<usize, Vec<String>> = FxHashMap::default();
    // Expected judged-relevant fraction of a neighbourhood document.
    let blend = (cfg.p_aspect_in_doc * cfg.p_rel_with_aspect
        + (1.0 - cfg.p_aspect_in_doc) * cfg.p_rel_without_aspect)
        .clamp(0.05, 1.0);
    for (si, qs) in query_sets.iter().enumerate() {
        let mean = match set_means.get(si) {
            Some(&m) if m > 0.0 => m,
            _ => cfg.mean_relevant_per_query,
        };
        for q in *qs {
            used_topics.push(q.topic);
            topic_aspect.insert(q.topic, q.aspect_words.clone());
            if q.zero_relevant {
                banned_topics.push(q.topic);
                continue;
            }
            let spread = cfg.relevant_spread;
            let factor = 1.0 + rng.gen_range(-spread..spread);
            // Oversample by the expected judged fraction so the judged
            // relevant count lands near the configured mean.
            let oversample = 1.0 / blend;
            let n_q = ((mean * factor * oversample).round() as usize).max(3);
            // Distribute n_q documents over the neighbourhood entities,
            // with the *targets themselves* deliberately under-documented:
            // archives describe specific neighbourhood instances, not the
            // general concept the user names (the reason entity titles
            // alone cannot reach most of the relevant documents).
            let k = q.relevant_entities.len();
            for (i, &e) in q.relevant_entities.iter().enumerate() {
                let mut share = n_q / k + usize::from(i < n_q % k);
                if q.targets.contains(&e) {
                    share = (share as f64 * 0.35).round() as usize;
                }
                let slot = quota.entry(e).or_insert(0);
                *slot = (*slot).max(share);
            }
        }
    }

    // --- 1. relevant entity documents ---------------------------------
    let mut quota_entities: Vec<usize> = quota.keys().copied().collect();
    quota_entities.sort_unstable();
    for &e in &quota_entities {
        let aspect = topic_aspect.get(&space.entities[e].topic);
        let share = quota.get(&e).copied().unwrap_or(0);
        for _ in 0..share {
            let with_aspect = rng.gen_bool(cfg.p_aspect_in_doc.clamp(0.0, 1.0));
            let aspect_words: &[String] = match (with_aspect, aspect) {
                (true, Some(a)) => a.as_slice(),
                _ => &[],
            };
            let text = entity_document_with_aspect(space, cfg, e, aspect_words, &mut rng);
            let p_rel = if with_aspect && aspect.is_some() {
                cfg.p_rel_with_aspect
            } else {
                cfg.p_rel_without_aspect
            };
            let judged = rng.gen_bool(p_rel.clamp(0.0, 1.0));
            em.push(text, Some(e), judged);
        }
    }

    // --- 2. hard negatives --------------------------------------------
    for qs in query_sets {
        for q in *qs {
            if q.zero_relevant {
                continue;
            }
            for e in space.topic_entities(q.topic) {
                if q.relevant_entities.contains(&e) || quota.contains_key(&e) {
                    continue;
                }
                for _ in 0..cfg.hard_negative_docs {
                    let with_aspect = rng.gen_bool(0.2);
                    let aspect_words: &[String] = if with_aspect {
                        q.aspect_words.as_slice()
                    } else {
                        &[]
                    };
                    let text = entity_document_with_aspect(space, cfg, e, aspect_words, &mut rng);
                    em.push(text, Some(e), false);
                }
            }
        }
    }

    // --- 3. boilerplate ------------------------------------------------
    for (d, domain) in space.domains.iter().enumerate() {
        for _ in 0..cfg.boilerplate_per_domain {
            let text = boilerplate_document(space, cfg, d, &mut rng);
            let _ = domain;
            em.push(text, None, false);
        }
    }

    // --- 4. background fill ---------------------------------------------
    used_topics.sort_unstable();
    used_topics.dedup();
    let free_topics: Vec<usize> = (0..space.num_topics())
        .filter(|t| used_topics.binary_search(t).is_err())
        .collect();
    while em.generated() < cfg.total_docs {
        if !free_topics.is_empty() && rng.gen_bool(0.7) {
            let t = free_topics[rng.gen_range(0..free_topics.len())];
            let range = space.topic_entities(t);
            let e = rng.gen_range(range.start..range.end);
            let text = entity_document(space, cfg, e, &mut rng);
            em.push(text, Some(e), false);
        } else {
            let text = noise_document(space, cfg, &mut rng);
            em.push(text, None, false);
        }
    }
    let _ = banned_topics;
}

/// A caption-like document about entity `e`: the entity's title planted
/// contiguously (so phrase features can match), topic/domain words, some
/// global noise, and occasionally the alias or a related entity's title.
fn entity_document(
    space: &ConceptSpace,
    cfg: &CollectionConfig,
    e: usize,
    rng: &mut SmallRng,
) -> String {
    entity_document_with_aspect(space, cfg, e, &[], rng)
}

/// An entity document that additionally depicts the given aspect words.
fn entity_document_with_aspect(
    space: &ConceptSpace,
    cfg: &CollectionConfig,
    e: usize,
    aspect_words: &[String],
    rng: &mut SmallRng,
) -> String {
    let ent = &space.entities[e];
    let topic = &space.topics[ent.topic];
    let domain = &space.domains[ent.domain];
    // Segments keep multi-word units contiguous while their order varies.
    let mut segments: Vec<Vec<String>> = Vec::new();
    if ent.title_words.len() == 1 || rng.gen_bool(cfg.p_full_title) {
        segments.push(ent.title_words.clone());
    } else {
        // Partial reference: a single title word (vocabulary variation).
        let w = ent.title_words[rng.gen_range(0..ent.title_words.len())].clone();
        segments.push(vec![w]);
    }
    let n_topic = rng.gen_range(2..=3);
    for _ in 0..n_topic {
        segments.push(vec![
            topic.words[rng.gen_range(0..topic.words.len())].clone()
        ]);
    }
    let n_domain = rng.gen_range(1..=2);
    for _ in 0..n_domain {
        segments.push(vec![
            domain.words[rng.gen_range(0..domain.words.len())].clone()
        ]);
    }
    for a in aspect_words {
        // Vocabulary mismatch even on-aspect: captions usually express the
        // aspect in their own words; only sometimes in the user's.
        if rng.gen_bool(0.35) {
            segments.push(vec![a.clone()]);
        } else {
            segments.push(vec![paraphrase(a)]);
        }
    }
    if let Some(alias) = &ent.alias {
        if rng.gen_bool(cfg.p_alias_in_doc) {
            segments.push(vec![alias.clone()]);
        }
    }
    // Co-mentions: captions name associated entities, preferring the
    // semantically relevant ones. This is what gives aggregated expansion
    // features their consensus power: documents in the semantic
    // neighbourhood match *several* related titles at once.
    let mut mentions = 0;
    while mentions < 2
        && !ent.relations.is_empty()
        && rng.gen_bool(if mentions == 0 {
            cfg.p_mention_related
        } else {
            cfg.p_mention_related * 0.7
        })
    {
        let relevant: Vec<&crate::concepts::Relation> =
            ent.relations.iter().filter(|r| r.relevant).collect();
        let other = if !relevant.is_empty() && rng.gen_bool(0.75) {
            relevant[rng.gen_range(0..relevant.len())].other
        } else {
            ent.relations[rng.gen_range(0..ent.relations.len())].other
        };
        segments.push(space.entities[other].title_words.clone());
        mentions += 1;
    }
    // Caption function words / boilerplate fields: nearly every record
    // carries one or two, *repeated* (catalogue fields like media type or
    // institution recur within a record). The repetition concentrates
    // P(w|D) on them, which is what an unfiltered relevance model locks
    // onto — the paper's PRF collapse.
    let n_caption = rng.gen_range(1..=2);
    for _ in 0..n_caption {
        let w = space
            .caption_pool
            .get(rng.gen_range(0..space.caption_pool.len()));
        let reps = rng.gen_range(2..=3);
        segments.push(vec![w; reps]);
    }
    // Pad with global noise up to the target length.
    let (lo, hi) = cfg.doc_len;
    let target = rng.gen_range(lo..=hi);
    let mut len: usize = segments.iter().map(|s| s.len()).sum();
    while len < target {
        segments.push(vec![space
            .global_pool
            .get(rng.gen_range(0..space.global_pool.len()))]);
        len += 1;
    }
    shuffle(&mut segments, rng);
    let mut words = segments.concat();
    // Foreign-language document: every token is replaced by its
    // deterministic "translation", putting the document out of reach of
    // English query vocabulary while keeping it judged.
    if rng.gen_bool(cfg.p_foreign.clamp(0.0, 1.0)) {
        for w in &mut words {
            *w = translate(w);
        }
    }
    words.join(" ")
}

/// Deterministic word-level "translation" into the synthetic foreign
/// language. Injective: two words translate equally iff they are equal.
pub fn translate(word: &str) -> String {
    format!("{word}eth")
}

/// Deterministic paraphrase of an aspect word: the way captions express
/// the concept, distinct from the user's keyword. Injective, and can
/// never collide with a generator word (no pseudo-word syllable starts
/// with a bare vowel after another nucleus).
pub fn paraphrase(word: &str) -> String {
    format!("{word}en")
}

/// A boilerplate catalogue record: broad coverage of the domain's word
/// pool, each word at most twice, long relative to entity documents.
fn boilerplate_document(
    space: &ConceptSpace,
    cfg: &CollectionConfig,
    d: usize,
    rng: &mut SmallRng,
) -> String {
    let domain = &space.domains[d];
    let mut words: Vec<String> = Vec::with_capacity(cfg.boilerplate_len);
    for _ in 0..cfg.boilerplate_len {
        let r: f64 = rng.gen();
        let w = if r < 0.5 {
            domain.pool[rng.gen_range(0..domain.pool.len())].clone()
        } else if r < 0.72 {
            domain.words[rng.gen_range(0..domain.words.len())].clone()
        } else if r < 0.84 {
            space
                .caption_pool
                .get(rng.gen_range(0..space.caption_pool.len()))
        } else {
            space
                .global_pool
                .get(rng.gen_range(0..space.global_pool.len()))
        };
        words.push(w);
    }
    words.join(" ")
}

/// A pure-noise document of global words. Alias words deliberately do
/// NOT occur here: an alias is how the *user* names an entity, not how
/// captions describe it — the vocabulary-mismatch premise of the paper.
fn noise_document(space: &ConceptSpace, cfg: &CollectionConfig, rng: &mut SmallRng) -> String {
    let (lo, hi) = cfg.doc_len;
    let len = rng.gen_range(lo..=hi);
    let mut words: Vec<String> = (0..len)
        .map(|_| {
            space
                .global_pool
                .get(rng.gen_range(0..space.global_pool.len()))
        })
        .collect();
    let w = space
        .caption_pool
        .get(rng.gen_range(0..space.caption_pool.len()));
    let n_caption = rng.gen_range(2..=4).min(words.len());
    for slot in words.iter_mut().take(n_caption) {
        *slot = w.clone();
    }
    words.join(" ")
}

/// Fisher–Yates shuffle (avoids pulling in the `rand` shuffle trait for a
/// single call site).
fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestBedConfig;
    use crate::queries::generate_queries;

    fn setup() -> (ConceptSpace, Vec<QuerySpec>, Vec<Document>) {
        let cfg = TestBedConfig::small();
        let space = ConceptSpace::generate(&cfg.kb);
        let topics: Vec<usize> = (0..space.num_topics()).collect();
        let queries = generate_queries(&space, &cfg.imageclef_queries, &topics);
        let docs = generate_documents(&space, &cfg.imageclef, &[&queries]);
        (space, queries, docs)
    }

    #[test]
    fn collection_size_is_exact() {
        let cfg = TestBedConfig::small();
        let (_, _, docs) = setup();
        assert_eq!(docs.len(), cfg.imageclef.total_docs);
    }

    #[test]
    fn doc_ids_unique() {
        let (_, _, docs) = setup();
        let ids: std::collections::HashSet<&String> = docs.iter().map(|d| &d.id).collect();
        assert_eq!(ids.len(), docs.len());
    }

    #[test]
    fn relevant_counts_near_mean() {
        let cfg = TestBedConfig::small();
        let (_, queries, docs) = setup();
        let mut total = 0usize;
        let mut counted = 0usize;
        for q in &queries {
            if q.zero_relevant {
                continue;
            }
            let n = docs
                .iter()
                .filter(|d| {
                    d.judged_relevant && d.about.is_some_and(|e| q.relevant_entities.contains(&e))
                })
                .count();
            assert!(n > 0, "non-zero-relevant query must have relevant docs");
            total += n;
            counted += 1;
        }
        let mean = total as f64 / counted as f64;
        let want = cfg.imageclef.mean_relevant_per_query;
        assert!(
            (mean - want).abs() / want < 0.35,
            "mean relevant {mean} too far from {want}"
        );
    }

    #[test]
    fn entity_docs_reference_their_entity() {
        let (space, _, docs) = setup();
        let mut full_title = 0usize;
        let mut partial = 0usize;
        for d in docs.iter().take(2000) {
            if let Some(e) = d.about {
                let ent = &space.entities[e];
                // Every entity doc carries at least one title word.
                assert!(
                    ent.title_words.iter().any(|w| d.text.contains(w.as_str())),
                    "doc about {e} lacks any title word: {}",
                    d.text
                );
                if ent.title_words.len() > 1 {
                    if d.text.contains(&ent.title()) {
                        full_title += 1;
                    } else {
                        partial += 1;
                    }
                }
            }
        }
        // Both full-title (phrase-matchable) and partial-reference docs
        // must exist: that split is what keeps QL_E precision moderate.
        assert!(full_title > 0, "no full-title docs");
        assert!(partial > 0, "no partial-title docs");
    }

    #[test]
    fn hard_negatives_exist() {
        let (space, queries, docs) = setup();
        let q = queries.iter().find(|q| !q.zero_relevant).unwrap();
        let negatives = docs
            .iter()
            .filter(|d| {
                d.about.is_some_and(|e| {
                    space.entities[e].topic == q.topic && !q.relevant_entities.contains(&e)
                })
            })
            .count();
        assert!(negatives > 0, "same-topic non-relevant docs required");
    }

    #[test]
    fn boilerplate_docs_have_broad_low_density_vocabulary() {
        let cfg = TestBedConfig::small();
        let (_, _, docs) = setup();
        let boiler: Vec<&Document> = docs
            .iter()
            .filter(|d| {
                d.about.is_none() && d.text.split(' ').count() >= cfg.imageclef.boilerplate_len
            })
            .collect();
        assert!(!boiler.is_empty());
        // Broad coverage: plenty of distinct words per record.
        for d in boiler.iter().take(20) {
            let toks: Vec<&str> = d.text.split(' ').collect();
            let distinct: std::collections::HashSet<&&str> = toks.iter().collect();
            assert!(distinct.len() * 3 >= toks.len() * 2, "low repetition");
        }
    }

    #[test]
    fn zero_relevant_queries_have_no_relevant_docs() {
        let cfg = TestBedConfig::small();
        let space = ConceptSpace::generate(&cfg.kb);
        let topics: Vec<usize> = (0..space.num_topics()).collect();
        let queries = generate_queries(&space, &cfg.chic2012_queries, &topics);
        let docs = generate_documents(&space, &cfg.chic, &[&queries]);
        for q in queries.iter().filter(|q| q.zero_relevant) {
            let n = docs
                .iter()
                .filter(|d| d.about.is_some_and(|e| q.relevant_entities.contains(&e)))
                .count();
            assert_eq!(n, 0, "query {} must have zero relevant docs", q.id);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (_, _, d1) = setup();
        let (_, _, d2) = setup();
        for (a, b) in d1.iter().zip(d2.iter()).step_by(97) {
            assert_eq!(a.text, b.text);
        }
    }
}
