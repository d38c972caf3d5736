//! Property-based tests for the SQE core: motif semantics on random
//! graphs and rank-combination invariants.

use kbgraph::{ArticleId, CategoryId, GraphBuilder, KbGraph};
use proptest::prelude::*;
use sqe::combine::{combine_rankings, sqe_c, RankSegment};
use sqe::{MotifSet, MotifSpec, QueryGraphBuilder};

/// A random small KB: articles, categories, directed links, memberships,
/// subcategory edges.
#[derive(Debug, Clone)]
struct RandomKb {
    links: Vec<(u8, u8)>,
    memberships: Vec<(u8, u8)>,
    subcats: Vec<(u8, u8)>,
}

fn random_kb() -> impl Strategy<Value = RandomKb> {
    (
        prop::collection::vec((0u8..10, 0u8..10), 0..80),
        prop::collection::vec((0u8..10, 0u8..6), 0..30),
        prop::collection::vec((0u8..6, 0u8..6), 0..10),
    )
        .prop_map(|(links, memberships, subcats)| RandomKb {
            links,
            memberships,
            subcats,
        })
}

fn build(kb: &RandomKb) -> (KbGraph, Vec<ArticleId>) {
    let mut b = GraphBuilder::new();
    let arts: Vec<ArticleId> = (0..10).map(|i| b.add_article(&format!("a{i}"))).collect();
    let cats: Vec<CategoryId> = (0..6).map(|i| b.add_category(&format!("c{i}"))).collect();
    for &(s, d) in &kb.links {
        if s != d {
            b.add_article_link(arts[s as usize], arts[d as usize]);
        }
    }
    for &(a, c) in &kb.memberships {
        b.add_membership(arts[a as usize], cats[c as usize]);
    }
    for &(c, p) in &kb.subcats {
        b.add_subcategory(cats[c as usize], cats[p as usize]);
    }
    (b.build(), arts)
}

proptest! {
    /// Every motif expansion is doubly linked with the query node, never
    /// the query node itself, and satisfies the motif's category
    /// condition.
    #[test]
    fn motif_postconditions(kb in random_kb(), anchor in 0usize..10) {
        let (g, arts) = build(&kb);
        let qn = arts[anchor];
        for (a, m) in MotifSpec::triangular().expansions(&g, qn) {
            prop_assert!(m >= 1);
            prop_assert!(a != qn);
            prop_assert!(g.doubly_linked(qn, a));
            prop_assert!(g.categories_superset(qn, a));
            // The triangle count equals the anchor's category count.
            prop_assert_eq!(m as usize, g.categories_of(qn).len());
        }
        for (a, m) in MotifSpec::square().expansions(&g, qn) {
            prop_assert!(m >= 1);
            prop_assert!(a != qn);
            prop_assert!(g.doubly_linked(qn, a));
            // At least one hierarchy-adjacent category pair exists.
            let mut found = false;
            for &cq in g.categories_of(qn) {
                for &cc in g.categories_of(a) {
                    if cq != cc
                        && g.category_adjacent(CategoryId::new(cq), CategoryId::new(cc))
                    {
                        found = true;
                    }
                }
            }
            prop_assert!(found);
        }
    }

    /// T&S multiplicities decompose as T + S for every article.
    #[test]
    fn union_decomposes(kb in random_kb(), anchor in 0usize..10) {
        let (g, arts) = build(&kb);
        let qn = [arts[anchor]];
        let t = QueryGraphBuilder::from_set(&g, &MotifSet::triangular()).build(&qn);
        let s = QueryGraphBuilder::from_set(&g, &MotifSet::square()).build(&qn);
        let ts = QueryGraphBuilder::from_set(&g, &MotifSet::t_and_s()).build(&qn);
        let mut all: Vec<ArticleId> = t
            .expansions
            .iter()
            .chain(s.expansions.iter())
            .chain(ts.expansions.iter())
            .map(|&(a, _)| a)
            .collect();
        all.sort_unstable();
        all.dedup();
        for a in all {
            prop_assert_eq!(ts.multiplicity(a), t.multiplicity(a) + s.multiplicity(a));
        }
    }

    /// Motif expansion counts are monotone in query-node sets: more query
    /// nodes can only reach at least as many expansion articles (modulo
    /// the exclusion of the query nodes themselves).
    #[test]
    fn more_query_nodes_reach_no_fewer(kb in random_kb(), a1 in 0usize..10, a2 in 0usize..10) {
        prop_assume!(a1 != a2);
        let (g, arts) = build(&kb);
        let set = MotifSet::t_and_s();
        let builder = QueryGraphBuilder::from_set(&g, &set);
        let single = builder.build(&[arts[a1]]);
        let both = builder.build(&[arts[a1], arts[a2]]);
        for &(a, m1) in &single.expansions {
            if a != arts[a2] {
                prop_assert!(both.multiplicity(a) >= m1);
            }
        }
    }

    /// Combined rankings contain no duplicates, respect segment budget,
    /// and preserve each source's internal order.
    #[test]
    fn combination_invariants(
        a in prop::collection::vec(0u32..30, 0..30),
        b in prop::collection::vec(0u32..30, 0..30),
        cut in 1usize..20,
    ) {
        let dedup = |v: Vec<u32>| -> Vec<String> {
            let mut seen = std::collections::HashSet::new();
            v.into_iter().filter(|x| seen.insert(*x)).map(|x| format!("d{x}")).collect()
        };
        let ra = dedup(a);
        let rb = dedup(b);
        let combined = combine_rankings(&[
            RankSegment { run: &ra, until_rank: cut },
            RankSegment { run: &rb, until_rank: usize::MAX },
        ]);
        // No duplicates.
        let mut seen = std::collections::HashSet::new();
        prop_assert!(combined.iter().all(|d| seen.insert(d.clone())));
        // Union coverage: every combined doc comes from a source.
        for d in &combined {
            prop_assert!(ra.contains(d) || rb.contains(d));
        }
        // Source-order preservation within each segment's contribution.
        let positions: Vec<usize> = ra
            .iter()
            .filter_map(|d| combined.iter().position(|x| x == d))
            .collect();
        let head: Vec<usize> = positions.iter().copied().take_while(|&p| p < cut).collect();
        let mut sorted = head.clone();
        sorted.sort_unstable();
        prop_assert_eq!(head, sorted, "segment A order broken");
    }

    /// The paper's SQE_C stitching never exceeds its depth and starts
    /// with the SQE_T prefix.
    #[test]
    fn sqe_c_prefix_property(
        t in prop::collection::vec(0u32..50, 0..40),
        ts in prop::collection::vec(0u32..50, 0..40),
        s in prop::collection::vec(0u32..50, 0..40),
        depth in 1usize..30,
    ) {
        let dedup = |v: Vec<u32>| -> Vec<String> {
            let mut seen = std::collections::HashSet::new();
            v.into_iter().filter(|x| seen.insert(*x)).map(|x| format!("d{x}")).collect()
        };
        let (rt, rts, rs) = (dedup(t), dedup(ts), dedup(s));
        let combined = sqe_c(&rt, &rts, &rs, depth);
        prop_assert!(combined.len() <= depth);
        let prefix_len = combined.len().min(rt.len()).min(5).min(depth);
        for i in 0..prefix_len {
            prop_assert_eq!(&combined[i], &rt[i], "rank {} must come from SQE_T", i);
        }
    }

    /// Every enumerable [`MotifSpec`] round-trips through its index, its
    /// name, and the fingerprint of its singleton set.
    #[test]
    fn every_motif_spec_roundtrips_through_its_fingerprint(idx in 0usize..MotifSpec::COUNT) {
        let spec = MotifSpec::from_index(idx).expect("index is in range");
        prop_assert_eq!(spec.index(), idx);
        prop_assert_eq!(MotifSpec::from_name(&spec.name()), Some(spec));
        let set = MotifSet::single(spec);
        let fp = set.fingerprint();
        prop_assert_eq!(MotifSet::from_fingerprint(fp), set.clone());
        let parsed = sqe::MotifFingerprint::parse(&fp.to_string())
            .expect("fingerprint text form parses");
        prop_assert_eq!(fp, parsed);
        prop_assert_eq!(MotifSet::from_fingerprint(parsed), set);
    }

    /// Arbitrary motif sets (any subset of the spec space, in any input
    /// order, with duplicates) canonicalize and round-trip through their
    /// fingerprint and its textual form.
    #[test]
    fn motif_sets_roundtrip_through_fingerprints(
        indices in prop::collection::vec(0usize..MotifSpec::COUNT, 0..12),
    ) {
        let specs: Vec<MotifSpec> = indices
            .iter()
            .map(|&i| MotifSpec::from_index(i).expect("index is in range"))
            .collect();
        let set = MotifSet::new(specs);
        let fp = set.fingerprint();
        prop_assert_eq!(MotifSet::from_fingerprint(fp), set.clone());
        let parsed = sqe::MotifFingerprint::parse(&fp.to_string())
            .expect("fingerprint text form parses");
        prop_assert_eq!(MotifSet::from_fingerprint(parsed), set);
    }
}
