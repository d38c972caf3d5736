//! The synthetic concept space: domains → topics → subtopics → entities.
//!
//! Entities stand for Wikipedia articles; subtopics, topics and domains
//! become the category hierarchy. Semantic closeness is explicit here
//! (relations with kinds and relevance flags) and is *materialized twice*:
//! once as graph structure in [`crate::kb`] (reciprocal links, shared
//! categories — what the motifs detect) and once as text in
//! [`crate::docs`] (which documents are about which entities — what
//! relevance judgments reward). That co-design is exactly the paper's
//! premise: KB structure encodes semantics.

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::KbConfig;
use crate::words::WordPool;

/// How a related entity is connected to the source entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelKind {
    /// Same leaf category: the tightest association.
    SameSubtopic,
    /// Same topic, different subtopic.
    SameTopic,
    /// Same domain, different topic.
    SameDomain,
}

/// A directed semantic relation from one entity to another.
#[derive(Debug, Clone, Copy)]
pub struct Relation {
    /// Target entity index.
    pub other: usize,
    /// Closeness class.
    pub kind: RelKind,
    /// Whether the KB graph gets a reciprocal link pair for it.
    pub mutual: bool,
    /// Whether documents about `other` are relevant to queries targeting
    /// the source entity (same-subtopic relations always are; same-topic
    /// ones with probability `p_related_relevant`; same-domain never).
    pub relevant: bool,
}

/// A synthetic entity (future KB article).
#[derive(Debug, Clone)]
pub struct Entity {
    /// Dense entity index.
    pub id: usize,
    /// Owning domain index.
    pub domain: usize,
    /// Owning (global) topic index.
    pub topic: usize,
    /// Owning (global) subtopic index.
    pub subtopic: usize,
    /// Unique title words (1–3), used as the article title and planted
    /// contiguously in documents about the entity.
    pub title_words: Vec<String>,
    /// Optional ambiguous alias (shared pool ⇒ collisions across
    /// entities), the surface form queries use.
    pub alias: Option<String>,
    /// Outgoing semantic relations.
    pub relations: Vec<Relation>,
    /// Member of the topic category (in addition to the subtopic one).
    pub in_topic_cat: bool,
    /// Member of the domain category (hub article).
    pub in_domain_cat: bool,
}

impl Entity {
    /// The article title: title words joined by spaces.
    pub fn title(&self) -> String {
        self.title_words.join(" ")
    }
}

/// A domain: broad field with a general vocabulary and a shared word pool
/// that its topics sample from (creating cross-topic word collisions).
#[derive(Debug, Clone)]
pub struct Domain {
    /// Display name.
    pub name: String,
    /// General words used across the whole domain.
    pub words: Vec<String>,
    /// The pool topic vocabularies are sampled from.
    pub pool: Vec<String>,
    /// Global indices of the domain's topics.
    pub topic_range: Range<usize>,
}

/// A topic: the query-level subject unit. Each benchmark query targets
/// entities of exactly one topic.
#[derive(Debug, Clone)]
pub struct Topic {
    /// Owning domain.
    pub domain: usize,
    /// Display name.
    pub name: String,
    /// Specific vocabulary (sampled from the domain pool).
    pub words: Vec<String>,
    /// Global indices of the topic's subtopics.
    pub subtopic_range: Range<usize>,
    /// Global indices of the topic's entities.
    pub entity_range: Range<usize>,
}

/// A subtopic: the leaf category.
#[derive(Debug, Clone)]
pub struct Subtopic {
    /// Owning (global) topic.
    pub topic: usize,
    /// Display name.
    pub name: String,
    /// Entities assigned to this leaf.
    pub entities: Vec<usize>,
}

/// The full generated concept space.
#[derive(Debug, Clone)]
pub struct ConceptSpace {
    /// All domains.
    pub domains: Vec<Domain>,
    /// All topics (global indexing).
    pub topics: Vec<Topic>,
    /// All subtopics (global indexing).
    pub subtopics: Vec<Subtopic>,
    /// All entities.
    pub entities: Vec<Entity>,
    /// Global noise vocabulary.
    pub global_pool: WordPool,
    /// Alias vocabulary (deliberately small ⇒ ambiguous).
    pub alias_pool: WordPool,
    /// Caption "function words" ("view", "photo", "detail"): a tiny pool
    /// present in most documents. Too common to help retrieval — but
    /// exactly what an unfiltered relevance model drifts onto (the PRF
    /// collapse of Section 4.3).
    pub caption_pool: WordPool,
}

impl ConceptSpace {
    /// Generates the concept space deterministically from the config.
    pub fn generate(cfg: &KbConfig) -> ConceptSpace {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let num_topics = cfg.domains * cfg.topics_per_domain;
        let num_entities = num_topics * cfg.entities_per_topic;

        // Carve non-overlapping word-space regions. Title words come from
        // a pool of roughly one word per entity, so words collide across
        // entities (real names do: "Mercury", "cable") while full
        // multi-word titles stay unique; a reserve region disambiguates
        // the rare full-title collision ("Mercury (planet)" style).
        let title_pool = WordPool::new(0, (num_entities as u64 * 2).max(8));
        let title_reserve = WordPool::new(title_pool.end(), (num_entities as u64).max(8));
        let mut cursor = title_reserve.end();
        let per_domain = (cfg.domain_vocab + cfg.domain_pool) as u64;
        let domain_words_base = cursor;
        cursor += cfg.domains as u64 * per_domain;
        let name_pool = WordPool::new(cursor, (cfg.domains + num_topics * 4) as u64 + 16);
        cursor = name_pool.end();
        let alias_pool = WordPool::new(cursor, cfg.alias_pool as u64);
        cursor = alias_pool.end();
        let caption_pool = WordPool::new(cursor, 24);
        cursor = caption_pool.end();
        let global_pool = WordPool::new(cursor, cfg.global_vocab as u64);

        let mut domains = Vec::with_capacity(cfg.domains);
        let mut topics = Vec::with_capacity(num_topics);
        let mut subtopics = Vec::new();
        let mut entities: Vec<Entity> = Vec::with_capacity(num_entities);
        let mut used_titles: std::collections::HashSet<String> =
            std::collections::HashSet::with_capacity(num_entities);
        let mut name_idx = 0u64;
        let next_name = |n: &mut u64| {
            let w = name_pool.get(*n);
            *n += 1;
            w
        };

        for d in 0..cfg.domains {
            let base = domain_words_base + d as u64 * per_domain;
            let words: Vec<String> = (0..cfg.domain_vocab as u64)
                .map(|i| crate::words::word(base + i))
                .collect();
            let pool: Vec<String> = (0..cfg.domain_pool as u64)
                .map(|i| crate::words::word(base + cfg.domain_vocab as u64 + i))
                .collect();
            let topic_lo = topics.len();
            for _t in 0..cfg.topics_per_domain {
                let topic_gid = topics.len();
                // Sample the topic vocabulary from the domain pool without
                // replacement *within* the topic; across topics the pool is
                // shared, so words collide between sibling topics.
                let mut indices: Vec<usize> = (0..cfg.domain_pool).collect();
                for i in 0..cfg.topic_vocab.min(indices.len()) {
                    let j = rng.gen_range(i..indices.len());
                    indices.swap(i, j);
                }
                let topic_words: Vec<String> = indices
                    .iter()
                    .take(cfg.topic_vocab)
                    .map(|&i| pool[i].clone())
                    .collect();
                let sub_lo = subtopics.len();
                let ent_lo = entities.len();
                for s in 0..cfg.subtopics_per_topic {
                    subtopics.push(Subtopic {
                        topic: topic_gid,
                        name: format!("{}_{}", next_name(&mut name_idx), s),
                        entities: Vec::new(),
                    });
                }
                for e in 0..cfg.entities_per_topic {
                    let sub_gid = sub_lo + e % cfg.subtopics_per_topic;
                    let id = entities.len();
                    let n_title = match rng.gen_range(0..100) {
                        0..=9 => 1,
                        10..=69 => 2,
                        _ => 3,
                    };
                    let mut title_words: Vec<String> = (0..n_title)
                        .map(|_| title_pool.get(rng.gen_range(0..title_pool.len())))
                        .collect();
                    title_words.dedup();
                    let mut title = title_words.join(" ");
                    if used_titles.contains(&title) {
                        // Disambiguate with a reserved unique word.
                        title_words.push(title_reserve.get(id as u64));
                        title = title_words.join(" ");
                    }
                    used_titles.insert(title);
                    let alias = if rng.gen_bool(cfg.p_alias) {
                        Some(alias_pool.get(rng.gen_range(0..cfg.alias_pool) as u64))
                    } else {
                        None
                    };
                    subtopics[sub_gid].entities.push(id);
                    entities.push(Entity {
                        id,
                        domain: d,
                        topic: topic_gid,
                        subtopic: sub_gid,
                        title_words,
                        alias,
                        relations: Vec::new(),
                        in_topic_cat: rng.gen_bool(cfg.p_topic_membership),
                        in_domain_cat: rng.gen_bool(cfg.p_domain_membership),
                    });
                }
                topics.push(Topic {
                    domain: d,
                    name: next_name(&mut name_idx),
                    words: topic_words,
                    subtopic_range: sub_lo..subtopics.len(),
                    entity_range: ent_lo..entities.len(),
                });
            }
            domains.push(Domain {
                name: next_name(&mut name_idx),
                words,
                pool,
                topic_range: topic_lo..topics.len(),
            });
        }

        let mut space = ConceptSpace {
            domains,
            topics,
            subtopics,
            entities,
            global_pool,
            alias_pool,
            caption_pool,
        };
        space.wire_relations(cfg, &mut rng);
        space
    }

    /// Samples the semantic relations of every entity.
    ///
    /// Intra-topic mutual links follow an **odd-offset ring**: entity `i`
    /// links entities `i ± o (mod topic size)` for odd offsets `o`. Two
    /// link partners of the same entity then differ by an even offset, so
    /// they are never linked to each other — article-only triangles do
    /// not occur inside a topic. Every length-3 cycle through an entity
    /// therefore passes through a category, and no article-only
    /// length-5 cycle exists in a topic either (five odd offsets cannot
    /// sum to zero). This reproduces the paper's Figure 2 observation
    /// that short cycles mix articles *and* categories (≈⅓ categories).
    fn wire_relations(&mut self, cfg: &KbConfig, rng: &mut SmallRng) {
        let num_entities = self.entities.len();
        let subs = cfg.subtopics_per_topic.max(1);
        for id in 0..num_entities {
            let (topic, domain) = {
                let e = &self.entities[id];
                (e.topic, e.domain)
            };
            let topic_range = self.topics[topic].entity_range.clone();
            let size = topic_range.len();
            let base = topic_range.start;
            let pos = id - base;
            let mut relations = Vec::new();
            let partner = |off: i64| -> usize {
                let p = (pos as i64 + off).rem_euclid(size as i64) as usize;
                base + p
            };
            // Same subtopic: odd multiples of the subtopic count keep the
            // residue class (subtopics are assigned round-robin). Tight,
            // always relevant, always mutual.
            let mut sub_offsets: Vec<i64> = Vec::new();
            let mut k = 1i64;
            while sub_offsets.len() < cfg.mutual_same_subtopic * 2
                && (k * subs as i64) < size as i64
            {
                if (k * subs as i64) % 2 == 1 {
                    sub_offsets.push(k * subs as i64);
                    sub_offsets.push(-(k * subs as i64));
                }
                k += 2;
            }
            for &off in sub_offsets.iter().take(cfg.mutual_same_subtopic) {
                let other = partner(off);
                if other != id && self.entities[other].subtopic == self.entities[id].subtopic {
                    relations.push(Relation {
                        other,
                        kind: RelKind::SameSubtopic,
                        mutual: true,
                        relevant: true,
                    });
                }
            }
            // Same topic, other subtopics: odd offsets that are not
            // multiples of the subtopic count. Mutual, relevant with prob.
            let mut cross_offsets: Vec<i64> = Vec::new();
            let mut o = 1i64;
            while cross_offsets.len() < cfg.mutual_same_topic * 2 && o < size as i64 {
                if o % 2 == 1 && o % subs as i64 != 0 {
                    cross_offsets.push(o);
                    cross_offsets.push(-o);
                }
                o += 2;
            }
            // Deterministic per-entity subset keeps the ring irregular.
            let mut local = SmallRng::seed_from_u64(cfg.seed ^ ((id as u64) << 20));
            for i in (1..cross_offsets.len()).rev() {
                let j = local.gen_range(0..=i);
                cross_offsets.swap(i, j);
            }
            let p_rel = cfg.p_related_relevant;
            for &off in cross_offsets.iter().take(cfg.mutual_same_topic) {
                let other = partner(off);
                if other != id
                    && self.entities[other].topic == topic
                    && self.entities[other].subtopic != self.entities[id].subtopic
                    && !relations.iter().any(|r| r.other == other)
                {
                    relations.push(Relation {
                        other,
                        kind: RelKind::SameTopic,
                        mutual: true,
                        relevant: local.gen_bool(p_rel),
                    });
                }
            }
            // Same domain, other topics: mutual but never relevant.
            let dom_topics = self.domains[domain].topic_range.clone();
            let ent_lo = self.topics[dom_topics.start].entity_range.start;
            let ent_hi = self.topics[dom_topics.end - 1].entity_range.end;
            let cross: Vec<usize> = (ent_lo..ent_hi)
                .filter(|&o| o != id && self.entities[o].topic != topic)
                .collect();
            sample_into(
                rng,
                &cross,
                cfg.mutual_same_domain,
                &mut relations,
                |other| Relation {
                    other,
                    kind: RelKind::SameDomain,
                    mutual: true,
                    relevant: false,
                },
            );
            self.entities[id].relations = relations;
        }
    }

    /// Total number of topics.
    pub fn num_topics(&self) -> usize {
        self.topics.len()
    }

    /// Entities of a (global) topic index.
    pub fn topic_entities(&self, topic: usize) -> Range<usize> {
        self.topics[topic].entity_range.clone()
    }

    /// The relevance neighbourhood of a set of target entities: the
    /// targets, all their same-subtopic peers, and every related entity
    /// whose relation is flagged relevant. This is the generator's ground
    /// truth — both qrels and the paper's "optimal query graphs" \[10\]
    /// derive from it.
    pub fn relevance_neighborhood(&self, targets: &[usize]) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for &t in targets {
            out.push(t);
            let e = &self.entities[t];
            out.extend(
                self.subtopics[e.subtopic]
                    .entities
                    .iter()
                    .copied()
                    .filter(|&o| o != t),
            );
            out.extend(e.relations.iter().filter(|r| r.relevant).map(|r| r.other));
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Reservoir-free sampling of `k` distinct items from `pool` (partial
/// Fisher–Yates over a scratch copy).
fn sample_into<F: FnMut(usize) -> Relation>(
    rng: &mut SmallRng,
    pool: &[usize],
    k: usize,
    out: &mut Vec<Relation>,
    mut make: F,
) {
    if pool.is_empty() || k == 0 {
        return;
    }
    let k = k.min(pool.len());
    let mut scratch: Vec<usize> = pool.to_vec();
    for i in 0..k {
        let j = rng.gen_range(i..scratch.len());
        scratch.swap(i, j);
        out.push(make(scratch[i]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestBedConfig;

    fn small_space() -> ConceptSpace {
        ConceptSpace::generate(&TestBedConfig::small().kb)
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TestBedConfig::small().kb;
        let a = ConceptSpace::generate(&cfg);
        let b = ConceptSpace::generate(&cfg);
        assert_eq!(a.entities.len(), b.entities.len());
        for (x, y) in a.entities.iter().zip(b.entities.iter()) {
            assert_eq!(x.title_words, y.title_words);
            assert_eq!(x.alias, y.alias);
            assert_eq!(x.relations.len(), y.relations.len());
        }
    }

    #[test]
    fn counts_match_config() {
        let cfg = TestBedConfig::small().kb;
        let s = ConceptSpace::generate(&cfg);
        assert_eq!(s.domains.len(), cfg.domains);
        assert_eq!(s.topics.len(), cfg.domains * cfg.topics_per_domain);
        assert_eq!(s.entities.len(), s.topics.len() * cfg.entities_per_topic);
        assert_eq!(s.subtopics.len(), s.topics.len() * cfg.subtopics_per_topic);
    }

    #[test]
    fn titles_are_globally_unique() {
        let s = small_space();
        let mut titles: Vec<String> = s.entities.iter().map(|e| e.title()).collect();
        titles.sort_unstable();
        let before = titles.len();
        titles.dedup();
        assert_eq!(titles.len(), before);
    }

    #[test]
    fn aliases_collide_across_entities() {
        let s = small_space();
        let aliases: Vec<&String> = s.entities.iter().filter_map(|e| e.alias.as_ref()).collect();
        let distinct: std::collections::HashSet<&&String> = aliases.iter().collect();
        assert!(
            distinct.len() < aliases.len(),
            "alias pool must be ambiguous: {} aliases, {} distinct",
            aliases.len(),
            distinct.len()
        );
    }

    #[test]
    fn topic_vocabularies_overlap_within_domain() {
        let s = small_space();
        let d = &s.domains[0];
        let mut any_overlap = false;
        for t1 in d.topic_range.clone() {
            for t2 in d.topic_range.clone() {
                if t1 < t2 {
                    let w1: std::collections::HashSet<&String> =
                        s.topics[t1].words.iter().collect();
                    if s.topics[t2].words.iter().any(|w| w1.contains(w)) {
                        any_overlap = true;
                    }
                }
            }
        }
        assert!(any_overlap, "sibling topics must share general words");
    }

    #[test]
    fn relations_respect_kinds() {
        let s = small_space();
        for e in &s.entities {
            for r in &e.relations {
                let o = &s.entities[r.other];
                match r.kind {
                    RelKind::SameSubtopic => assert_eq!(o.subtopic, e.subtopic),
                    RelKind::SameTopic => {
                        assert_eq!(o.topic, e.topic);
                        assert_ne!(o.subtopic, e.subtopic);
                    }
                    RelKind::SameDomain => {
                        assert_eq!(o.domain, e.domain);
                        assert_ne!(o.topic, e.topic);
                    }
                }
                assert_ne!(r.other, e.id, "no self relations");
            }
        }
    }

    #[test]
    fn same_subtopic_relations_always_relevant() {
        let s = small_space();
        for e in &s.entities {
            for r in &e.relations {
                if r.kind == RelKind::SameSubtopic {
                    assert!(r.relevant);
                }
                if r.kind == RelKind::SameDomain {
                    assert!(!r.relevant);
                }
            }
        }
    }

    #[test]
    fn some_same_topic_relations_are_irrelevant() {
        let s = small_space();
        let (mut rel, mut irrel) = (0, 0);
        for e in &s.entities {
            for r in &e.relations {
                if r.kind == RelKind::SameTopic {
                    if r.relevant {
                        rel += 1;
                    } else {
                        irrel += 1;
                    }
                }
            }
        }
        assert!(rel > 0 && irrel > 0, "rel={rel} irrel={irrel}");
    }

    #[test]
    fn relevance_neighborhood_contains_targets_and_subtopic() {
        let s = small_space();
        let target = s.subtopics[0].entities[0];
        let hood = s.relevance_neighborhood(&[target]);
        assert!(hood.contains(&target));
        for &peer in &s.subtopics[0].entities {
            assert!(hood.contains(&peer), "subtopic peers are relevant");
        }
        // Everything in the neighbourhood shares the target's topic.
        let topic = s.entities[target].topic;
        for &e in &hood {
            assert_eq!(s.entities[e].topic, topic);
        }
    }

    #[test]
    fn neighborhood_of_two_targets_unions() {
        let s = small_space();
        let t1 = s.subtopics[0].entities[0];
        let t2 = s.subtopics[0].entities[1];
        let h1 = s.relevance_neighborhood(&[t1]);
        let h12 = s.relevance_neighborhood(&[t1, t2]);
        assert!(h12.len() >= h1.len());
        assert!(h12.contains(&t2));
    }
}
