//! Compressed sparse row adjacency.
//!
//! `Csr` stores one sorted, deduplicated neighbour list per source node in
//! two flat arrays (offsets + targets). This is the struct-of-arrays layout
//! recommended for graph workloads: one allocation per edge set, cache-local
//! scans, and binary-search membership tests.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A structural defect found while shape-checking a CSR assembled from
/// untrusted bytes (a binary snapshot). Shape errors cover the
/// cheap always-on length/offset/bounds invariants; the deeper semantic
/// invariants (sorted rows, forward/reverse agreement, DAG-ness) remain
/// the `validate`-feature auditor's job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint:allow(persist-types-derive-serde) — decode error, never persisted
pub enum CsrShapeError {
    /// The offsets array is empty (a valid CSR has `num_rows + 1` entries).
    EmptyOffsets,
    /// The offsets array describes a different number of rows than the
    /// surrounding structure expects (e.g. titles vs adjacency).
    RowCountMismatch {
        /// Rows described by the offsets array.
        rows: usize,
        /// Rows the surrounding structure expects.
        expected: usize,
    },
    /// The first offset is not zero.
    NonZeroFirstOffset {
        /// The offending first entry.
        first: u32,
    },
    /// `offsets[row + 1] < offsets[row]`: rows would slice backwards.
    NonMonotonicOffsets {
        /// First row at which monotonicity breaks.
        row: usize,
        /// Offset at `row`.
        lo: u32,
        /// Offset at `row + 1`.
        hi: u32,
    },
    /// The terminal offset does not equal the target-array length, so the
    /// flat edge array and the row structure disagree about the edge count.
    TerminalMismatch {
        /// The last offsets entry.
        terminal: u32,
        /// Actual number of stored targets.
        targets: usize,
    },
    /// A target index is outside the destination id space.
    TargetOutOfBounds {
        /// Edge position in the flat target array.
        position: usize,
        /// The offending target.
        target: u32,
        /// Exclusive bound of the destination id space.
        bound: usize,
    },
}

impl fmt::Display for CsrShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CsrShapeError::EmptyOffsets => write!(f, "offsets array is empty"),
            CsrShapeError::RowCountMismatch { rows, expected } => {
                write!(f, "offsets describe {rows} rows, expected {expected}")
            }
            CsrShapeError::NonZeroFirstOffset { first } => {
                write!(f, "first offset is {first}, expected 0")
            }
            CsrShapeError::NonMonotonicOffsets { row, lo, hi } => {
                write!(f, "offsets decrease at row {row} ({lo} -> {hi})")
            }
            CsrShapeError::TerminalMismatch { terminal, targets } => {
                write!(
                    f,
                    "terminal offset {terminal} disagrees with {targets} stored targets"
                )
            }
            CsrShapeError::TargetOutOfBounds {
                position,
                target,
                bound,
            } => {
                write!(
                    f,
                    "target {target} at edge position {position} exceeds id space bound {bound}"
                )
            }
        }
    }
}

impl std::error::Error for CsrShapeError {}

/// Immutable CSR adjacency over `u32` node indices.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Builds a CSR from an edge list. `num_sources` fixes the number of
    /// rows; every `(src, dst)` pair must satisfy `src < num_sources`.
    /// Duplicate edges are collapsed; neighbour lists come out sorted.
    ///
    /// # Panics
    ///
    /// Panics if any source index is out of range.
    pub fn from_edges(num_sources: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0u32; num_sources];
        for &(s, _) in edges {
            degree[s as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(num_sources + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut targets = vec![0u32; edges.len()];
        let mut cursor: Vec<u32> = offsets[..num_sources].to_vec();
        for &(s, d) in edges {
            let c = &mut cursor[s as usize];
            targets[*c as usize] = d;
            *c += 1;
        }
        // Sort and dedup each row, then recompact.
        let mut out = Csr {
            offsets: Vec::with_capacity(num_sources + 1),
            targets: Vec::with_capacity(edges.len()),
        };
        out.offsets.push(0);
        for row in 0..num_sources {
            let lo = offsets[row] as usize;
            let hi = offsets[row + 1] as usize;
            let slice = &mut targets[lo..hi];
            slice.sort_unstable();
            let mut prev: Option<u32> = None;
            for &t in slice.iter() {
                if prev != Some(t) {
                    out.targets.push(t);
                    prev = Some(t);
                }
            }
            out.offsets.push(
                u32::try_from(out.targets.len())
                    .expect("invariant: edge count fits in u32 offsets"),
            );
        }
        out
    }

    /// Number of rows (source nodes).
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of (deduplicated) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The sorted neighbour list of `src`.
    #[inline]
    pub fn neighbors(&self, src: u32) -> &[u32] {
        let lo = self.offsets[src as usize] as usize;
        let hi = self.offsets[src as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Out-degree of `src`.
    #[inline]
    pub fn degree(&self, src: u32) -> usize {
        self.neighbors(src).len()
    }

    /// True if the edge `src → dst` exists (binary search).
    #[inline]
    pub fn contains(&self, src: u32, dst: u32) -> bool {
        self.neighbors(src).binary_search(&dst).is_ok()
    }

    /// Builds the reverse adjacency (`dst → src`) with `num_targets` rows.
    pub fn reversed(&self, num_targets: usize) -> Csr {
        let mut edges = Vec::with_capacity(self.targets.len());
        for src in 0..self.num_rows() as u32 {
            for &dst in self.neighbors(src) {
                edges.push((dst, src));
            }
        }
        Csr::from_edges(num_targets, &edges)
    }

    /// Iterates over all edges as `(src, dst)` pairs.
    pub fn iter_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_rows() as u32)
            .flat_map(move |src| self.neighbors(src).iter().map(move |&dst| (src, dst)))
    }

    /// The raw offsets array (`num_rows + 1` entries, starts at 0, ends at
    /// `targets.len()`). Exposed for the structural auditor.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw flat target array. Exposed for the structural auditor.
    #[inline]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Assembles a CSR directly from raw arrays **without validation**.
    /// Callers must uphold the invariants checked by the `validate`-feature
    /// auditor (monotonic offsets ending at `targets.len()`, sorted
    /// deduplicated rows, in-bounds targets); violating them makes accessors
    /// panic or return garbage. Intended for persistence tooling and for the
    /// auditor's own corruption tests.
    pub fn from_raw_parts(offsets: Vec<u32>, targets: Vec<u32>) -> Self {
        Csr { offsets, targets }
    }

    /// Shape-checks a CSR assembled from untrusted bytes: `num_rows + 1`
    /// offsets starting at 0, monotonically non-decreasing, terminating at
    /// `targets.len()`, and every target below `num_targets`. These are
    /// exactly the invariants that make the accessors panic-free; callers
    /// loading persisted graphs must reject structures that fail here
    /// *before* handing them to the query layer. Sortedness, deduplication
    /// and cross-CSR agreement are audited separately (feature `validate`).
    pub fn validate_shape(&self, num_rows: usize, num_targets: usize) -> Result<(), CsrShapeError> {
        let Some(&first) = self.offsets.first() else {
            return Err(CsrShapeError::EmptyOffsets);
        };
        if first != 0 {
            return Err(CsrShapeError::NonZeroFirstOffset { first });
        }
        if self.offsets.len() != num_rows + 1 {
            return Err(CsrShapeError::RowCountMismatch {
                rows: self.offsets.len().saturating_sub(1),
                expected: num_rows,
            });
        }
        for (row, w) in self.offsets.windows(2).enumerate() {
            if let [lo, hi] = *w {
                if hi < lo {
                    return Err(CsrShapeError::NonMonotonicOffsets { row, lo, hi });
                }
            }
        }
        let terminal = self.offsets.last().copied().unwrap_or(0);
        if terminal as usize != self.targets.len() {
            return Err(CsrShapeError::TerminalMismatch {
                terminal,
                targets: self.targets.len(),
            });
        }
        for (position, &target) in self.targets.iter().enumerate() {
            if target as usize >= num_targets {
                return Err(CsrShapeError::TargetOutOfBounds {
                    position,
                    target,
                    bound: num_targets,
                });
            }
        }
        Ok(())
    }

    /// Maximum out-degree over all rows (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_rows() as u32)
            .map(|s| self.degree(s))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let c = Csr::from_edges(0, &[]);
        assert_eq!(c.num_rows(), 0);
        assert_eq!(c.num_edges(), 0);
        assert_eq!(c.max_degree(), 0);
    }

    #[test]
    fn rows_without_edges() {
        let c = Csr::from_edges(3, &[]);
        assert_eq!(c.num_rows(), 3);
        assert!(c.neighbors(0).is_empty());
        assert!(c.neighbors(2).is_empty());
    }

    #[test]
    fn builds_sorted_rows() {
        let c = Csr::from_edges(2, &[(0, 3), (0, 1), (0, 2), (1, 0)]);
        assert_eq!(c.neighbors(0), &[1, 2, 3]);
        assert_eq!(c.neighbors(1), &[0]);
        assert_eq!(c.num_edges(), 4);
    }

    #[test]
    fn dedups_parallel_edges() {
        let c = Csr::from_edges(1, &[(0, 5), (0, 5), (0, 5)]);
        assert_eq!(c.neighbors(0), &[5]);
        assert_eq!(c.num_edges(), 1);
    }

    #[test]
    fn contains_uses_binary_search() {
        let c = Csr::from_edges(1, &[(0, 2), (0, 4), (0, 8)]);
        assert!(c.contains(0, 4));
        assert!(!c.contains(0, 3));
    }

    #[test]
    fn reverse_roundtrip() {
        let c = Csr::from_edges(3, &[(0, 1), (1, 2), (2, 0), (0, 2)]);
        let r = c.reversed(3);
        assert_eq!(r.neighbors(1), &[0]);
        assert_eq!(r.neighbors(2), &[0, 1]);
        assert_eq!(r.neighbors(0), &[2]);
        // Reversing twice recovers the original edge set.
        let rr = r.reversed(3);
        assert_eq!(rr, c);
    }

    #[test]
    fn iter_edges_covers_all() {
        let edges = [(0u32, 1u32), (1, 2), (2, 0)];
        let c = Csr::from_edges(3, &edges);
        let mut got: Vec<(u32, u32)> = c.iter_edges().collect();
        got.sort_unstable();
        let mut want = edges.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn max_degree_is_max_row_len() {
        let c = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(c.max_degree(), 2);
    }

    #[test]
    fn validate_shape_accepts_checked_constructions() {
        let c = Csr::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(c.validate_shape(3, 3), Ok(()));
        let empty = Csr::from_edges(0, &[]);
        assert_eq!(empty.validate_shape(0, 0), Ok(()));
    }

    #[test]
    fn validate_shape_rejects_each_defect_class() {
        assert_eq!(
            Csr::from_raw_parts(vec![], vec![]).validate_shape(0, 0),
            Err(CsrShapeError::EmptyOffsets)
        );
        assert_eq!(
            Csr::from_raw_parts(vec![1, 1], vec![1]).validate_shape(1, 2),
            Err(CsrShapeError::NonZeroFirstOffset { first: 1 })
        );
        assert_eq!(
            Csr::from_raw_parts(vec![0, 1], vec![0]).validate_shape(2, 1),
            Err(CsrShapeError::RowCountMismatch {
                rows: 1,
                expected: 2
            })
        );
        assert_eq!(
            Csr::from_raw_parts(vec![0, 2, 1], vec![0, 0]).validate_shape(2, 1),
            Err(CsrShapeError::NonMonotonicOffsets {
                row: 1,
                lo: 2,
                hi: 1
            })
        );
        assert_eq!(
            Csr::from_raw_parts(vec![0, 1], vec![0, 0]).validate_shape(1, 1),
            Err(CsrShapeError::TerminalMismatch {
                terminal: 1,
                targets: 2
            })
        );
        assert_eq!(
            Csr::from_raw_parts(vec![0, 1], vec![5]).validate_shape(1, 3),
            Err(CsrShapeError::TargetOutOfBounds {
                position: 0,
                target: 5,
                bound: 3
            })
        );
    }
}
