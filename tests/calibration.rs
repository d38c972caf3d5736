//! Calibration integration tests: the generated world must carry the
//! statistics the paper reports for its datasets (scaled), because those
//! statistics are what the substitution argument in DESIGN.md rests on.

use synthwiki::{TestBed, TestBedConfig};

fn bed() -> TestBed {
    TestBed::generate(&TestBedConfig::small())
}

#[test]
fn collection_sizes_match_config() {
    let cfg = TestBedConfig::small();
    let b = bed();
    assert_eq!(b.collections[0].docs.len(), cfg.imageclef.total_docs);
    assert_eq!(b.collections[1].docs.len(), cfg.chic.total_docs);
}

#[test]
fn chic_collection_is_shared_between_query_sets() {
    let b = bed();
    assert_eq!(
        b.dataset("chic2012").collection,
        b.dataset("chic2013").collection,
        "the paper's CHiC 2012 and 2013 share one collection"
    );
    assert_ne!(
        b.dataset("imageclef").collection,
        b.dataset("chic2012").collection
    );
}

#[test]
fn zero_relevant_counts_reproduced() {
    let cfg = TestBedConfig::small();
    let b = bed();
    assert_eq!(
        b.dataset("chic2012").num_zero_relevant(),
        cfg.chic2012_queries.zero_relevant_queries
    );
    assert_eq!(
        b.dataset("chic2013").num_zero_relevant(),
        cfg.chic2013_queries.zero_relevant_queries
    );
    assert_eq!(b.dataset("imageclef").num_zero_relevant(), 0);
}

#[test]
fn relevant_means_follow_dataset_ordering() {
    // Paper: ImageCLEF 68.8 > CHiC13 50.6 > CHiC12 31.32; the small
    // preset keeps the same ordering at reduced scale.
    let b = bed();
    let ic = b.dataset("imageclef").avg_relevant_per_query();
    let c13 = b.dataset("chic2013").avg_relevant_per_query();
    let c12 = b.dataset("chic2012").avg_relevant_per_query();
    assert!(ic > c13, "imageclef {ic:.1} vs chic13 {c13:.1}");
    assert!(c13 > c12, "chic13 {c13:.1} vs chic12 {c12:.1}");
}

#[test]
fn documents_are_caption_short() {
    let cfg = TestBedConfig::small();
    let b = bed();
    let (lo, hi) = cfg.imageclef.doc_len;
    let mut entity_docs = 0;
    for d in b.collections[0].docs.iter().take(3000) {
        if d.about.is_some() {
            let len = d.text.split(' ').count();
            assert!(
                len >= lo && len <= hi + 4,
                "entity doc length {len} outside [{lo}, {}]: {}",
                hi + 4,
                d.text
            );
            entity_docs += 1;
        }
    }
    assert!(entity_docs > 100);
}

#[test]
fn foreign_documents_exist_and_are_judged() {
    let b = bed();
    let ds = b.dataset("imageclef");
    let coll = b.collection_of(ds);
    let foreign_relevant = coll
        .docs
        .iter()
        .filter(|d| d.judged_relevant && d.text.split(' ').all(|w| w.ends_with("eth")))
        .count();
    assert!(
        foreign_relevant > 0,
        "some judged-relevant documents must be in the foreign language \
         (the multilingual recall ceiling)"
    );
}

#[test]
fn kb_structure_reproduces_wikipedia_shape() {
    let b = bed();
    let stats = b.kb.graph.stats();
    // Two node types, four edge families, substantial reciprocity.
    assert!(stats.num_articles > stats.num_categories);
    assert!(stats.num_article_links > stats.num_membership_links);
    assert!(stats.num_category_links > 0);
    let reciprocity = 2.0 * stats.num_reciprocal_pairs as f64 / stats.num_article_links as f64;
    assert!(
        reciprocity > 0.3,
        "motifs need substantial reciprocal linking: {reciprocity:.2}"
    );
    assert!(stats.avg_categories_per_article >= 1.0);
}

#[test]
fn no_intra_topic_article_triangles() {
    // The odd-offset ring guarantees the paper's Figure 2 structure: a
    // length-3 cycle through an entity always passes through a category.
    let b = bed();
    let g = &b.kb.graph;
    let mut checked = 0;
    for e in b.space.entities.iter().step_by(29).take(20) {
        let a = b.kb.article_of[e.id];
        for &m1 in &g.mutual_links(a) {
            for &m2 in &g.mutual_links(a) {
                if m1 >= m2 {
                    continue;
                }
                let (e1, e2) = (b.kb.entity_of_article(m1), b.kb.entity_of_article(m2));
                if let (Some(e1), Some(e2)) = (e1, e2) {
                    if b.space.entities[e1].topic == e.topic
                        && b.space.entities[e2].topic == e.topic
                    {
                        assert!(
                            !g.doubly_linked(m1, m2),
                            "intra-topic mutual triangle at entity {}",
                            e.id
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 10, "need real cases: {checked}");
}

#[test]
fn full_config_has_paper_statistics() {
    let cfg = TestBedConfig::full();
    assert_eq!(cfg.imageclef_queries.num_queries, 50);
    assert_eq!(cfg.chic2012_queries.num_queries, 50);
    assert_eq!(cfg.chic2013_queries.num_queries, 50);
    assert!((cfg.imageclef_queries.mean_relevant_per_query - 68.8).abs() < 1e-9);
    assert!((cfg.chic2012_queries.mean_relevant_per_query - 31.32).abs() < 1e-9);
    assert!((cfg.chic2013_queries.mean_relevant_per_query - 50.6).abs() < 1e-9);
    assert_eq!(cfg.chic2012_queries.zero_relevant_queries, 14);
    assert_eq!(cfg.chic2013_queries.zero_relevant_queries, 1);
}
