//! Property-based corruption tests for the structural auditor: every
//! mutation class applied to a valid graph must be flagged by
//! `GraphAudit`, and untouched graphs must audit clean.

#![cfg(feature = "validate")]

use kbgraph::audit::{CsrKind, GraphAudit, GraphViolation};
use kbgraph::{ArticleId, CategoryId, Csr, GraphBuilder, KbGraph};
use proptest::prelude::*;

/// Raw `(source, target)` pairs of one edge kind.
type Edges = Vec<(u32, u32)>;

/// Article links, memberships and category links of a random graph.
fn arb_graph(arts: u32, cats: u32) -> impl Strategy<Value = (Edges, Edges, Edges)> {
    (
        prop::collection::vec((0..arts, 0..arts), 0..60),
        prop::collection::vec((0..arts, 0..cats), 0..30),
        prop::collection::vec((0..cats, 0..cats), 0..20),
    )
}

/// Builds a consistent graph; category edges only go child → parent with
/// `child < parent` so the hierarchy is a DAG by construction.
fn build(
    arts: u32,
    cats: u32,
    links: &[(u32, u32)],
    memberships: &[(u32, u32)],
    subcats: &[(u32, u32)],
) -> KbGraph {
    let mut b = GraphBuilder::new();
    let a: Vec<ArticleId> = (0..arts).map(|i| b.add_article(&format!("a{i}"))).collect();
    let c: Vec<CategoryId> = (0..cats).map(|i| b.add_category(&format!("c{i}"))).collect();
    for &(s, d) in links {
        if s != d {
            b.add_article_link(a[s as usize], a[d as usize]);
        }
    }
    for &(art, cat) in memberships {
        b.add_membership(a[art as usize], c[cat as usize]);
    }
    for &(x, y) in subcats {
        if x < y {
            b.add_subcategory(c[x as usize], c[y as usize]);
        }
    }
    b.build()
}

/// Reassembles a graph with one adjacency substituted (index into the
/// order used by `KbGraph::from_parts`).
fn with_part(g: &KbGraph, slot: usize, part: Csr) -> KbGraph {
    let mut parts = [
        g.article_links().clone(),
        g.article_links_rev().clone(),
        g.memberships().clone(),
        g.members().clone(),
        g.subcategories().clone(),
        g.subcats_rev().clone(),
    ];
    parts[slot] = part;
    let [al, alr, mem, mbr, sc, scr] = parts;
    let article_titles = (0..g.num_articles() as u32)
        .map(|i| g.article_title(ArticleId::new(i)).to_owned())
        .collect();
    let category_titles = (0..g.num_categories() as u32)
        .map(|i| g.category_title(CategoryId::new(i)).to_owned())
        .collect();
    KbGraph::from_parts(article_titles, category_titles, al, alr, mem, mbr, sc, scr)
}

const ARTS: u32 = 12;
const CATS: u32 = 6;

proptest! {
    /// Anything the builder produces must audit clean.
    #[test]
    fn built_graphs_audit_clean(parts in arb_graph(ARTS, CATS)) {
        let (links, memberships, subcats) = parts;
        let g = build(ARTS, CATS, &links, &memberships, &subcats);
        let audit = GraphAudit::run(&g);
        prop_assert!(audit.is_clean(), "{}", audit.report());
    }

    /// Swapping two distinct offsets breaks monotonicity and is flagged.
    #[test]
    fn swapped_offsets_flagged(parts in arb_graph(ARTS, CATS)) {
        let (links, memberships, subcats) = parts;
        let g = build(ARTS, CATS, &links, &memberships, &subcats);
        let al = g.article_links();
        let mut offsets = al.offsets().to_vec();
        // Find adjacent unequal offsets (a non-empty row) to swap.
        let Some(row) = (0..offsets.len() - 1).find(|&i| offsets[i] != offsets[i + 1]) else {
            return Ok(()); // no edges at all: mutation not applicable
        };
        offsets.swap(row, row + 1);
        let bad = with_part(&g, 0, Csr::from_raw_parts(offsets, al.targets().to_vec()));
        let audit = GraphAudit::run(&bad);
        // Swapping at index 0 dethrones the leading 0 and reports as a
        // shape violation instead of lost monotonicity.
        prop_assert!(audit.violations().iter().any(|v| matches!(
            v,
            GraphViolation::OffsetsNotMonotonic { csr: CsrKind::ArticleLinks, .. }
                | GraphViolation::OffsetsShape { csr: CsrKind::ArticleLinks, .. }
        )), "{}", audit.report());
    }

    /// Rewriting a target out of the id space is flagged.
    #[test]
    fn out_of_bounds_target_flagged(parts in arb_graph(ARTS, CATS), which in 0..2usize) {
        let (links, memberships, subcats) = parts;
        let g = build(ARTS, CATS, &links, &memberships, &subcats);
        let (slot, kind, csr) = if which == 0 {
            (0, CsrKind::ArticleLinks, g.article_links())
        } else {
            (2, CsrKind::Memberships, g.memberships())
        };
        if csr.num_edges() == 0 {
            return Ok(());
        }
        let mut targets = csr.targets().to_vec();
        targets[0] = u32::MAX;
        let bad = with_part(&g, slot, Csr::from_raw_parts(csr.offsets().to_vec(), targets));
        let audit = GraphAudit::run(&bad);
        prop_assert!(audit.violations().iter().any(
            |v| matches!(v, GraphViolation::TargetOutOfBounds { csr: k, .. } if *k == kind)
        ), "{}", audit.report());
    }

    /// Dropping one edge from a reverse adjacency breaks reciprocity.
    #[test]
    fn dropped_reciprocal_edge_flagged(parts in arb_graph(ARTS, CATS), pick in 0..1000usize) {
        let (links, memberships, subcats) = parts;
        let g = build(ARTS, CATS, &links, &memberships, &subcats);
        let rev = g.article_links_rev();
        if rev.num_edges() == 0 {
            return Ok(());
        }
        let mut edges: Vec<(u32, u32)> = rev.iter_edges().collect();
        edges.remove(pick % edges.len());
        let bad = with_part(&g, 1, Csr::from_edges(g.num_articles(), &edges));
        let audit = GraphAudit::run(&bad);
        prop_assert!(audit.violations().iter().any(|v| matches!(
            v,
            GraphViolation::MissingReciprocal { forward: CsrKind::ArticleLinks, .. }
        )), "{}", audit.report());
    }

    /// Closing a loop in the child→parent hierarchy is flagged as a cycle.
    #[test]
    fn category_cycle_flagged(parts in arb_graph(ARTS, CATS), a in 0..CATS, b in 0..CATS) {
        let (links, memberships, subcats) = parts;
        prop_assume!(a != b);
        let g = build(ARTS, CATS, &links, &memberships, &subcats);
        let mut edges: Vec<(u32, u32)> = g.subcategories().iter_edges().collect();
        edges.push((a, b));
        edges.push((b, a));
        let sc = Csr::from_edges(CATS as usize, &edges);
        let scr = sc.reversed(CATS as usize);
        let bad = with_part(&with_part(&g, 4, sc), 5, scr);
        let audit = GraphAudit::run(&bad);
        prop_assert!(audit.violations().iter().any(
            |v| matches!(v, GraphViolation::CategoryCycle { .. })
        ), "{}", audit.report());
    }

    /// De-sorting a row breaks the binary-search invariant and is flagged.
    #[test]
    fn unsorted_row_flagged(parts in arb_graph(ARTS, CATS)) {
        let (links, memberships, subcats) = parts;
        let g = build(ARTS, CATS, &links, &memberships, &subcats);
        let al = g.article_links();
        let Some(row) = (0..al.num_rows() as u32).find(|&r| al.degree(r) >= 2) else {
            return Ok(()); // needs a row with two targets to swap
        };
        let mut targets = al.targets().to_vec();
        let lo = al.offsets()[row as usize] as usize;
        targets.swap(lo, lo + 1);
        let bad = with_part(&g, 0, Csr::from_raw_parts(al.offsets().to_vec(), targets));
        let audit = GraphAudit::run(&bad);
        prop_assert!(audit.violations().iter().any(|v| matches!(
            v,
            GraphViolation::RowNotStrictlySorted { csr: CsrKind::ArticleLinks, src } if *src == row
        )), "{}", audit.report());
    }

    /// Truncating the target array desynchronizes it from the offsets.
    #[test]
    fn truncated_targets_flagged(parts in arb_graph(ARTS, CATS)) {
        let (links, memberships, subcats) = parts;
        let g = build(ARTS, CATS, &links, &memberships, &subcats);
        let mem = g.memberships();
        if mem.num_edges() == 0 {
            return Ok(());
        }
        let mut targets = mem.targets().to_vec();
        targets.pop();
        let bad = with_part(&g, 2, Csr::from_raw_parts(mem.offsets().to_vec(), targets));
        let audit = GraphAudit::run(&bad);
        prop_assert!(audit.violations().iter().any(|v| matches!(
            v,
            GraphViolation::OffsetsEndMismatch { csr: CsrKind::Memberships, .. }
        )), "{}", audit.report());
    }
}
