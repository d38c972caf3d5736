//! Materializes the concept space as a knowledge-base graph.
//!
//! * every entity becomes an article titled with its title words;
//! * every subtopic, topic and domain becomes a category; subtopic
//!   categories are sub-categories of their topic, topics of their domain;
//! * mutual relations become reciprocal hyperlink pairs, the backbone the
//!   triangular and square motifs traverse;
//! * noise articles and one-directional noise links blur the structure the
//!   way real Wikipedia does (list pages, navigational links, hubs).

use kbgraph::{ArticleId, CategoryId, GraphBuilder, KbGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::concepts::ConceptSpace;
use crate::config::KbConfig;

/// The generated KB: the graph plus the entity ↔ article correspondence.
#[derive(Debug)]
pub struct SynthKb {
    /// The knowledge-base graph.
    pub graph: KbGraph,
    /// `article_of[entity] = ArticleId` for every concept-space entity.
    pub article_of: Vec<ArticleId>,
    /// Reverse map: article index → entity index (None for noise
    /// articles).
    pub entity_of: Vec<Option<usize>>,
    /// Subtopic categories, indexed by global subtopic id.
    pub subtopic_cat: Vec<CategoryId>,
    /// Topic categories, indexed by global topic id.
    pub topic_cat: Vec<CategoryId>,
    /// Domain categories.
    pub domain_cat: Vec<CategoryId>,
}

impl SynthKb {
    /// Builds the graph from a concept space.
    pub fn build(space: &ConceptSpace, cfg: &KbConfig) -> SynthKb {
        let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut b = GraphBuilder::with_capacity(
            space.entities.len() + cfg.noise_articles,
            space.subtopics.len() + space.topics.len() + space.domains.len(),
            space.entities.len() * 16,
        );

        // Articles for entities.
        let article_of: Vec<ArticleId> = space
            .entities
            .iter()
            .map(|e| b.add_article(&e.title()))
            .collect();

        // Category hierarchy.
        let domain_cat: Vec<CategoryId> = space
            .domains
            .iter()
            .map(|d| b.add_category(&format!("domain {}", d.name)))
            .collect();
        let topic_cat: Vec<CategoryId> = space
            .topics
            .iter()
            .map(|t| b.add_category(&format!("topic {}", t.name)))
            .collect();
        let subtopic_cat: Vec<CategoryId> = space
            .subtopics
            .iter()
            .map(|s| b.add_category(&format!("subtopic {}", s.name)))
            .collect();
        for (t, topic) in space.topics.iter().enumerate() {
            b.add_subcategory(topic_cat[t], domain_cat[topic.domain]);
            for s in topic.subtopic_range.clone() {
                b.add_subcategory(subtopic_cat[s], topic_cat[t]);
            }
        }

        // Memberships.
        for e in &space.entities {
            let a = article_of[e.id];
            b.add_membership(a, subtopic_cat[e.subtopic]);
            if e.in_topic_cat {
                b.add_membership(a, topic_cat[e.topic]);
            }
            if e.in_domain_cat {
                b.add_membership(a, domain_cat[e.domain]);
            }
        }

        // Semantic links.
        for e in &space.entities {
            let a = article_of[e.id];
            for r in &e.relations {
                let o = article_of[r.other];
                if r.mutual {
                    b.add_mutual_link(a, o);
                } else {
                    b.add_article_link(a, o);
                }
            }
            // One-directional noise links to arbitrary entities.
            for _ in 0..cfg.noise_links_per_entity {
                let target = rng.gen_range(0..space.entities.len());
                if target != e.id {
                    b.add_article_link(a, article_of[target]);
                    if rng.gen_bool(cfg.p_noise_reciprocal) {
                        b.add_article_link(article_of[target], a);
                    }
                }
            }
        }

        // Noise articles: list pages, hubs — random titles, random cats,
        // mostly one-way links.
        let mut entity_of: Vec<Option<usize>> = (0..space.entities.len()).map(Some).collect();
        for n in 0..cfg.noise_articles {
            let w1 = space
                .global_pool
                .get(rng.gen_range(0..space.global_pool.len()));
            let a = b.add_article(&format!("{w1} list {n}"));
            // Re-adding an article dedups by title; the counter in the
            // title makes noise articles unique, so `a` is always fresh.
            if a.index() >= entity_of.len() {
                entity_of.push(None);
            }
            if rng.gen_bool(0.5) {
                let t = rng.gen_range(0..topic_cat.len());
                b.add_membership(a, topic_cat[t]);
            }
            for _ in 0..cfg.noise_article_links {
                let target = rng.gen_range(0..space.entities.len());
                b.add_article_link(a, article_of[target]);
                if rng.gen_bool(cfg.p_noise_reciprocal) {
                    b.add_article_link(article_of[target], a);
                }
            }
        }

        let graph = b.build();
        SynthKb {
            graph,
            article_of,
            entity_of,
            subtopic_cat,
            topic_cat,
            domain_cat,
        }
    }

    /// Entity index of an article, if it corresponds to one.
    pub fn entity_of_article(&self, a: ArticleId) -> Option<usize> {
        self.entity_of.get(a.index()).copied().flatten()
    }

    /// Surface-form entries for an entity-linker dictionary:
    /// `(surface form, article, commonness)`. Every entity contributes its
    /// full title (commonness 1.0 — titles are unique) and, if present,
    /// its alias with a deterministic commonness in `(0, 1]`. Entities
    /// sharing an alias compete on commonness, which is exactly the
    /// ambiguity a Dexter-style linker has to resolve.
    pub fn linker_entries(&self, space: &ConceptSpace) -> Vec<(String, ArticleId, f64)> {
        let mut out = Vec::with_capacity(space.entities.len() * 2);
        for e in &space.entities {
            let a = self.article_of[e.id];
            out.push((e.title(), a, 1.0));
            if let Some(alias) = &e.alias {
                // splitmix-style hash of the entity id → stable commonness.
                let mut h = (e.id as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
                h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                h ^= h >> 31;
                let commonness = 0.05 + 0.95 * (h % 10_000) as f64 / 10_000.0;
                out.push((alias.clone(), a, commonness));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestBedConfig;
    use kbgraph::Node;

    fn build_small() -> (ConceptSpace, SynthKb) {
        let cfg = TestBedConfig::small().kb;
        let space = ConceptSpace::generate(&cfg);
        let kb = SynthKb::build(&space, &cfg);
        (space, kb)
    }

    #[test]
    fn every_entity_has_an_article() {
        let (space, kb) = build_small();
        assert_eq!(kb.article_of.len(), space.entities.len());
        for (i, e) in space.entities.iter().enumerate() {
            assert_eq!(kb.graph.article_title(kb.article_of[i]), e.title());
            assert_eq!(kb.entity_of_article(kb.article_of[i]), Some(i));
        }
    }

    #[test]
    fn noise_articles_present() {
        let (space, kb) = build_small();
        assert!(kb.graph.num_articles() > space.entities.len());
    }

    #[test]
    fn category_hierarchy_wired() {
        let (space, kb) = build_small();
        // Subtopic cat → topic cat → domain cat.
        let st = 0usize;
        let topic = space.subtopics[st].topic;
        let domain = space.topics[topic].domain;
        assert!(kb
            .graph
            .parents_of(kb.subtopic_cat[st])
            .contains(&kb.topic_cat[topic].raw()));
        assert!(kb
            .graph
            .parents_of(kb.topic_cat[topic])
            .contains(&kb.domain_cat[domain].raw()));
    }

    #[test]
    fn mutual_relations_become_reciprocal_links() {
        let (space, kb) = build_small();
        let mut checked = 0;
        for e in &space.entities {
            for r in &e.relations {
                if r.mutual {
                    assert!(kb
                        .graph
                        .doubly_linked(kb.article_of[e.id], kb.article_of[r.other]));
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "should have many mutual pairs: {checked}");
    }

    #[test]
    fn entities_belong_to_their_subtopic_category() {
        let (space, kb) = build_small();
        for e in &space.entities {
            assert!(kb
                .graph
                .belongs_to(kb.article_of[e.id], kb.subtopic_cat[e.subtopic]));
        }
    }

    #[test]
    fn graph_has_short_cycles_through_entities() {
        let (space, kb) = build_small();
        let mut finder = kbgraph::CycleFinder::new(
            &kb.graph,
            kbgraph::CycleLimits {
                max_len: 4,
                max_expand_degree: 64,
                max_cycles: 1000,
            },
        );
        let anchor = Node::Article(kb.article_of[space.subtopics[0].entities[0]]);
        let cycles = finder.cycles_through(anchor);
        assert!(
            !cycles.is_empty(),
            "entities must sit on length-3/4 cycles for motifs to fire"
        );
    }

    #[test]
    fn stats_reflect_reciprocity() {
        let (_, kb) = build_small();
        let stats = kb.graph.stats();
        assert!(stats.num_reciprocal_pairs > 0);
        assert!(stats.num_category_links > 0);
        assert!(stats.num_membership_links >= stats.num_articles / 2);
    }
}
