//! Structural invariant auditor for [`KbGraph`] (feature `validate`).
//!
//! Every adjacency in the graph is a CSR whose correctness the query layer
//! assumes rather than checks: binary-search membership needs sorted rows,
//! slicing needs monotonic offsets, motif traversal needs the forward and
//! reverse CSRs to describe the same edge set, and cycle enumeration over
//! the category hierarchy assumes child→parent edges form a DAG. A graph
//! decoded from a snapshot (or assembled through [`Csr::from_raw_parts`])
//! can silently violate any of these. [`GraphAudit`] re-derives each
//! invariant from the raw arrays and reports every violation as a typed
//! [`GraphViolation`], so corruption is caught at load time instead of as
//! a panic or — worse — a wrong ranking deep inside retrieval.
//!
//! The audit is read-only and runs in `O(V + E)` except the reciprocity
//! check, which is `O(E log d)` for the binary searches.

use std::fmt;

use crate::csr::Csr;
use crate::graph::KbGraph;

/// Names one of the six adjacency structures of a [`KbGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrKind {
    /// article → article hyperlinks.
    ArticleLinks,
    /// Reverse hyperlinks (who links to me).
    ArticleLinksRev,
    /// article → category membership.
    Memberships,
    /// category → article membership (reverse).
    Members,
    /// child category → parent category.
    Subcats,
    /// parent category → child category.
    SubcatsRev,
}

impl CsrKind {
    /// Stable snake_case name (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            CsrKind::ArticleLinks => "article_links",
            CsrKind::ArticleLinksRev => "article_links_rev",
            CsrKind::Memberships => "memberships",
            CsrKind::Members => "members",
            CsrKind::Subcats => "subcats",
            CsrKind::SubcatsRev => "subcats_rev",
        }
    }
}

impl fmt::Display for CsrKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One violated structural invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphViolation {
    /// `offsets` does not have `rows + 1` entries starting at 0.
    OffsetsShape {
        /// Which adjacency.
        csr: CsrKind,
        /// Expected number of rows.
        rows: usize,
        /// Actual `offsets.len()`.
        offsets_len: usize,
    },
    /// `offsets[row + 1] < offsets[row]`.
    OffsetsNotMonotonic {
        /// Which adjacency.
        csr: CsrKind,
        /// Row whose end precedes its start.
        row: usize,
    },
    /// `offsets.last() != targets.len()`: the offsets describe a different
    /// edge count than the target array holds.
    OffsetsEndMismatch {
        /// Which adjacency.
        csr: CsrKind,
        /// Final offset value.
        last: u32,
        /// Actual `targets.len()`.
        targets_len: usize,
    },
    /// An edge points outside the target id space.
    TargetOutOfBounds {
        /// Which adjacency.
        csr: CsrKind,
        /// Source row of the bad edge.
        src: u32,
        /// The out-of-range target.
        dst: u32,
        /// Exclusive bound of the target id space.
        bound: usize,
    },
    /// A neighbour row is not strictly ascending (unsorted or duplicated),
    /// which breaks binary-search membership.
    RowNotStrictlySorted {
        /// Which adjacency.
        csr: CsrKind,
        /// The offending row.
        src: u32,
    },
    /// Edge present in the forward CSR but missing from its reverse twin
    /// (or vice versa — `forward` names the CSR that has the edge).
    MissingReciprocal {
        /// The CSR containing the unmatched edge.
        forward: CsrKind,
        /// The CSR the mirror edge is missing from.
        reverse: CsrKind,
        /// Source of the unmatched edge.
        src: u32,
        /// Target of the unmatched edge.
        dst: u32,
    },
    /// The child→parent category hierarchy contains a cycle through this
    /// category.
    CategoryCycle {
        /// A category on the cycle.
        category: u32,
    },
    /// Two articles share a title, breaking the title↔id bijection.
    DuplicateArticleTitle {
        /// The ambiguous title.
        title: String,
    },
    /// Two categories share a title, breaking the title↔id bijection.
    DuplicateCategoryTitle {
        /// The ambiguous title.
        title: String,
    },
}

impl fmt::Display for GraphViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphViolation::OffsetsShape {
                csr,
                rows,
                offsets_len,
            } => write!(
                f,
                "{csr}: offsets has {offsets_len} entries, want {} for {rows} rows",
                rows + 1
            ),
            GraphViolation::OffsetsNotMonotonic { csr, row } => {
                write!(f, "{csr}: offsets decrease at row {row}")
            }
            GraphViolation::OffsetsEndMismatch {
                csr,
                last,
                targets_len,
            } => write!(
                f,
                "{csr}: final offset {last} != target array length {targets_len}"
            ),
            GraphViolation::TargetOutOfBounds {
                csr,
                src,
                dst,
                bound,
            } => write!(f, "{csr}: edge {src} -> {dst} exceeds id space {bound}"),
            GraphViolation::RowNotStrictlySorted { csr, src } => {
                write!(f, "{csr}: row {src} is not sorted+deduplicated")
            }
            GraphViolation::MissingReciprocal {
                forward,
                reverse,
                src,
                dst,
            } => write!(
                f,
                "{forward}: edge {src} -> {dst} has no mirror in {reverse}"
            ),
            GraphViolation::CategoryCycle { category } => {
                write!(f, "subcats: category hierarchy cycles through {category}")
            }
            GraphViolation::DuplicateArticleTitle { title } => {
                write!(f, "article title {title:?} maps to multiple ids")
            }
            GraphViolation::DuplicateCategoryTitle { title } => {
                write!(f, "category title {title:?} maps to multiple ids")
            }
        }
    }
}

/// Per-CSR soundness summary used to decide which cross-structure checks
/// are safe to run on corrupted input.
#[derive(Clone, Copy)]
struct CsrHealth {
    /// Offsets are well-shaped and monotonic and match `targets.len()`:
    /// row slicing cannot panic.
    sliceable: bool,
    /// Additionally every target is in bounds: row lookups on the other
    /// side of an edge cannot go out of range.
    bounded: bool,
}

/// The result of auditing one [`KbGraph`].
#[derive(Debug, Clone)]
pub struct GraphAudit {
    violations: Vec<GraphViolation>,
}

impl GraphAudit {
    /// Audits every structural invariant of `graph`.
    pub fn run(graph: &KbGraph) -> Self {
        let mut v = Vec::new();
        let arts = graph.num_articles();
        let cats = graph.num_categories();
        let specs: [(CsrKind, &Csr, usize, usize); 6] = [
            (CsrKind::ArticleLinks, graph.article_links(), arts, arts),
            (
                CsrKind::ArticleLinksRev,
                graph.article_links_rev(),
                arts,
                arts,
            ),
            (CsrKind::Memberships, graph.memberships(), arts, cats),
            (CsrKind::Members, graph.members(), cats, arts),
            (CsrKind::Subcats, graph.subcategories(), cats, cats),
            (CsrKind::SubcatsRev, graph.subcats_rev(), cats, cats),
        ];
        let health: Vec<CsrHealth> = specs
            .iter()
            .map(|&(kind, csr, rows, bound)| audit_csr(kind, csr, rows, bound, &mut v))
            .collect();

        // Reciprocity: forward/reverse pairs must describe identical edge
        // sets. Only safe when both sides are sliceable; per-edge lookups
        // are skipped for targets that are out of range.
        for &(fi, ri) in &[(0usize, 1usize), (2, 3), (4, 5)] {
            if health[fi].sliceable && health[ri].sliceable {
                check_reciprocal(specs[fi].0, specs[fi].1, specs[ri].0, specs[ri].1, &mut v);
                check_reciprocal(specs[ri].0, specs[ri].1, specs[fi].0, specs[fi].1, &mut v);
            }
        }

        // Category DAG: the child→parent hierarchy must be acyclic or the
        // paper's motif traversals (and cycle statistics) diverge.
        if health[4].sliceable && health[4].bounded {
            if let Some(category) = find_cycle(specs[4].1) {
                v.push(GraphViolation::CategoryCycle { category });
            }
        }

        // Title↔id bijection: ids are dense by construction, so the only
        // way to break the bijection is two ids sharing a title.
        check_unique_titles(
            (0..arts as u32).map(|a| graph.article_title(crate::ids::ArticleId::new(a))),
            &mut v,
            true,
        );
        check_unique_titles(
            (0..cats as u32).map(|c| graph.category_title(crate::ids::CategoryId::new(c))),
            &mut v,
            false,
        );

        GraphAudit { violations: v }
    }

    /// All violations found (empty means the graph is sound).
    pub fn violations(&self) -> &[GraphViolation] {
        &self.violations
    }

    /// True when no invariant is violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with a full report if any invariant is violated. `context`
    /// names the call site (e.g. the pipeline stage that loaded the graph).
    pub fn assert_clean(&self, context: &str) {
        assert!(
            self.is_clean(),
            "graph audit failed at {context}:\n{}",
            self.report()
        );
    }

    /// Human-readable multi-line report, one violation per line.
    pub fn report(&self) -> String {
        self.violations
            .iter()
            .map(|v| format!("  - {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

fn audit_csr(
    kind: CsrKind,
    csr: &Csr,
    rows: usize,
    bound: usize,
    out: &mut Vec<GraphViolation>,
) -> CsrHealth {
    let offsets = csr.offsets();
    let targets = csr.targets();
    if offsets.len() != rows + 1 || offsets.first() != Some(&0) {
        out.push(GraphViolation::OffsetsShape {
            csr: kind,
            rows,
            offsets_len: offsets.len(),
        });
        return CsrHealth {
            sliceable: false,
            bounded: false,
        };
    }
    let mut monotonic = true;
    for (row, w) in offsets.windows(2).enumerate() {
        if w[1] < w[0] {
            out.push(GraphViolation::OffsetsNotMonotonic { csr: kind, row });
            monotonic = false;
        }
    }
    let last = *offsets.last().unwrap_or(&0);
    if last as usize != targets.len() {
        out.push(GraphViolation::OffsetsEndMismatch {
            csr: kind,
            last,
            targets_len: targets.len(),
        });
        monotonic = false;
    }
    if !monotonic {
        return CsrHealth {
            sliceable: false,
            bounded: false,
        };
    }
    let mut bounded = true;
    for src in 0..rows as u32 {
        let row = csr.neighbors(src);
        if !row.windows(2).all(|w| w[0] < w[1]) {
            out.push(GraphViolation::RowNotStrictlySorted { csr: kind, src });
        }
        for &dst in row {
            if dst as usize >= bound {
                out.push(GraphViolation::TargetOutOfBounds {
                    csr: kind,
                    src,
                    dst,
                    bound,
                });
                bounded = false;
            }
        }
    }
    CsrHealth {
        sliceable: true,
        bounded,
    }
}

fn check_reciprocal(
    fwd_kind: CsrKind,
    fwd: &Csr,
    rev_kind: CsrKind,
    rev: &Csr,
    out: &mut Vec<GraphViolation>,
) {
    for (src, dst) in fwd.iter_edges() {
        if (dst as usize) < rev.num_rows() {
            // Linear scan, not binary search: the row may itself be
            // unsorted (already reported) and must not hide the edge.
            if !rev.neighbors(dst).contains(&src) {
                out.push(GraphViolation::MissingReciprocal {
                    forward: fwd_kind,
                    reverse: rev_kind,
                    src,
                    dst,
                });
            }
        }
    }
}

/// Iterative 3-colour DFS; returns a node on the first cycle found.
fn find_cycle(csr: &Csr) -> Option<u32> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let n = csr.num_rows();
    let mut color = vec![WHITE; n];
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for start in 0..n as u32 {
        if color[start as usize] != WHITE {
            continue;
        }
        color[start as usize] = GRAY;
        stack.push((start, 0));
        while let Some(&(node, edge)) = stack.last() {
            let row = csr.neighbors(node);
            if edge == row.len() {
                color[node as usize] = BLACK;
                stack.pop();
                continue;
            }
            stack
                .last_mut()
                .expect("invariant: the just-peeked DFS stack top still exists")
                .1 += 1;
            let next = row[edge];
            match color[next as usize] {
                WHITE => {
                    color[next as usize] = GRAY;
                    stack.push((next, 0));
                }
                GRAY => {
                    stack.clear();
                    return Some(next);
                }
                _ => {}
            }
        }
    }
    None
}

fn check_unique_titles<'a>(
    titles: impl Iterator<Item = &'a str>,
    out: &mut Vec<GraphViolation>,
    articles: bool,
) {
    let mut seen = rustc_hash::FxHashSet::default();
    for t in titles {
        if !seen.insert(t) {
            out.push(if articles {
                GraphViolation::DuplicateArticleTitle {
                    title: t.to_owned(),
                }
            } else {
                GraphViolation::DuplicateCategoryTitle {
                    title: t.to_owned(),
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn toy() -> KbGraph {
        let mut b = GraphBuilder::new();
        let cable = b.add_article("cable car");
        let funi = b.add_article("funicular");
        let tram = b.add_article("tram");
        let rail = b.add_category("rail transport");
        let mountain = b.add_category("mountain transport");
        b.add_mutual_link(cable, funi);
        b.add_article_link(tram, cable);
        b.add_membership(cable, rail);
        b.add_membership(funi, mountain);
        b.add_subcategory(mountain, rail);
        b.build()
    }

    /// Rebuilds the toy graph with one part substituted.
    fn rebuild(
        g: &KbGraph,
        patch: impl FnOnce(&mut [Csr; 6]),
        titles: Option<Vec<String>>,
    ) -> KbGraph {
        let mut parts = [
            g.article_links().clone(),
            g.article_links_rev().clone(),
            g.memberships().clone(),
            g.members().clone(),
            g.subcategories().clone(),
            g.subcats_rev().clone(),
        ];
        patch(&mut parts);
        let [al, alr, mem, mbr, sc, scr] = parts;
        let article_titles = titles.unwrap_or_else(|| {
            (0..g.num_articles() as u32)
                .map(|a| g.article_title(crate::ids::ArticleId::new(a)).to_owned())
                .collect()
        });
        let category_titles = (0..g.num_categories() as u32)
            .map(|c| g.category_title(crate::ids::CategoryId::new(c)).to_owned())
            .collect();
        KbGraph::from_parts(article_titles, category_titles, al, alr, mem, mbr, sc, scr)
    }

    #[test]
    fn clean_graph_passes() {
        let audit = GraphAudit::run(&toy());
        assert!(audit.is_clean(), "{}", audit.report());
        audit.assert_clean("test");
    }

    #[test]
    fn swapped_offsets_detected() {
        let g = toy();
        let bad = rebuild(
            &g,
            |p| {
                let mut offsets = p[0].offsets().to_vec();
                offsets.swap(1, 2);
                p[0] = Csr::from_raw_parts(offsets, p[0].targets().to_vec());
            },
            None,
        );
        let audit = GraphAudit::run(&bad);
        assert!(audit.violations().iter().any(|v| matches!(
            v,
            GraphViolation::OffsetsNotMonotonic {
                csr: CsrKind::ArticleLinks,
                ..
            }
        )));
    }

    #[test]
    fn truncated_targets_detected() {
        let g = toy();
        let bad = rebuild(
            &g,
            |p| {
                let mut targets = p[0].targets().to_vec();
                targets.pop();
                p[0] = Csr::from_raw_parts(p[0].offsets().to_vec(), targets);
            },
            None,
        );
        let audit = GraphAudit::run(&bad);
        assert!(audit
            .violations()
            .iter()
            .any(|v| matches!(v, GraphViolation::OffsetsEndMismatch { .. })));
    }

    #[test]
    fn out_of_bounds_target_detected() {
        let g = toy();
        let bad = rebuild(
            &g,
            |p| {
                let mut targets = p[2].targets().to_vec();
                targets[0] = 999;
                p[2] = Csr::from_raw_parts(p[2].offsets().to_vec(), targets);
            },
            None,
        );
        let audit = GraphAudit::run(&bad);
        assert!(audit.violations().iter().any(|v| matches!(
            v,
            GraphViolation::TargetOutOfBounds {
                csr: CsrKind::Memberships,
                ..
            }
        )));
    }

    #[test]
    fn dropped_reciprocal_edge_detected() {
        let g = toy();
        // Remove every reverse link: forward edges lose their mirrors.
        let bad = rebuild(&g, |p| p[1] = Csr::from_edges(3, &[]), None);
        let audit = GraphAudit::run(&bad);
        assert!(audit.violations().iter().any(|v| matches!(
            v,
            GraphViolation::MissingReciprocal {
                forward: CsrKind::ArticleLinks,
                ..
            }
        )));
    }

    #[test]
    fn category_cycle_detected() {
        let g = toy();
        // mountain → rail already exists; add rail → mountain.
        let bad = rebuild(
            &g,
            |p| {
                p[4] = Csr::from_edges(2, &[(1, 0), (0, 1)]);
                p[5] = p[4].reversed(2);
            },
            None,
        );
        let audit = GraphAudit::run(&bad);
        assert!(audit
            .violations()
            .iter()
            .any(|v| matches!(v, GraphViolation::CategoryCycle { .. })));
    }

    #[test]
    fn unsorted_row_detected() {
        let g = toy();
        let bad = rebuild(
            &g,
            |p| {
                // cable's out-links row is [funicular]; tram's is [cable].
                // Build a two-target row manually in descending order.
                p[0] = Csr::from_raw_parts(vec![0, 2, 2, 2], vec![1, 0]);
            },
            None,
        );
        let audit = GraphAudit::run(&bad);
        assert!(audit.violations().iter().any(|v| matches!(
            v,
            GraphViolation::RowNotStrictlySorted {
                csr: CsrKind::ArticleLinks,
                src: 0
            }
        )));
    }

    #[test]
    fn duplicate_title_detected() {
        let g = toy();
        let bad = rebuild(
            &g,
            |_| {},
            Some(vec!["same".into(), "same".into(), "tram".into()]),
        );
        let audit = GraphAudit::run(&bad);
        assert!(audit
            .violations()
            .iter()
            .any(|v| matches!(v, GraphViolation::DuplicateArticleTitle { .. })));
    }

    #[test]
    fn report_lists_every_violation() {
        let g = toy();
        let bad = rebuild(&g, |p| p[1] = Csr::from_edges(3, &[]), None);
        let audit = GraphAudit::run(&bad);
        assert!(!audit.is_clean());
        assert_eq!(audit.report().lines().count(), audit.violations().len());
        assert!(audit.report().contains("no mirror"));
    }
}
