//! Bounded top-k selection with deterministic tie-breaking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scored candidate; orders by *ascending* score then *descending* doc id
/// so that a max-heap`BinaryHeap` keeps the worst element on top and pops
/// it first — i.e. the heap acts as a bounded min-heap of the best k.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    score: f64,
    doc: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Higher score = better. We invert so the heap's max is the *worst*
        // kept candidate. Ties broken toward larger doc id being worse,
        // yielding ascending-doc-id order among equal scores.
        scorecmp::by_score_desc_then_id(self.score, other.score, self.doc, other.doc)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Collects the k highest-scoring `(doc, score)` pairs, returned sorted by
/// descending score, ties by ascending doc id. NaN scores are skipped.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
}

impl TopK {
    /// Creates a collector for the best `k` entries.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offers a candidate.
    pub fn push(&mut self, doc: u32, score: f64) {
        if self.k == 0 || score.is_nan() {
            return;
        }
        let entry = HeapEntry { score, doc };
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(worst) = self.heap.peek() {
            // `worst` pops first; keep `entry` if it ranks strictly ahead.
            let better = scorecmp::by_score_desc_then_id(score, worst.score, doc, worst.doc)
                == Ordering::Less;
            if better {
                self.heap.pop();
                self.heap.push(entry);
            }
        }
    }

    /// Finishes and returns the ranked list (best first). Doc ids are
    /// unique within one collector, so the order is total and an
    /// unstable sort gives the same list as a stable one.
    pub fn into_sorted(self) -> Vec<(u32, f64)> {
        let mut v: Vec<(u32, f64)> = self.heap.into_iter().map(|e| (e.doc, e.score)).collect();
        v.sort_unstable_by(|a, b| scorecmp::by_score_desc_then_id(a.1, b.1, a.0, b.0));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k() {
        let mut t = TopK::new(2);
        for (d, s) in [(0, 1.0), (1, 5.0), (2, 3.0), (3, 4.0)] {
            t.push(d, s);
        }
        assert_eq!(t.into_sorted(), vec![(1, 5.0), (3, 4.0)]);
    }

    #[test]
    fn ties_break_by_doc_id() {
        let mut t = TopK::new(3);
        for d in [5, 1, 3, 2] {
            t.push(d, 7.0);
        }
        assert_eq!(t.into_sorted(), vec![(1, 7.0), (2, 7.0), (3, 7.0)]);
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut t = TopK::new(10);
        t.push(4, 2.0);
        t.push(9, 1.0);
        assert_eq!(t.into_sorted(), vec![(4, 2.0), (9, 1.0)]);
    }

    #[test]
    fn zero_k_keeps_nothing() {
        let mut t = TopK::new(0);
        t.push(1, 1.0);
        assert!(t.into_sorted().is_empty());
    }

    #[test]
    fn nan_scores_skipped() {
        let mut t = TopK::new(2);
        t.push(1, f64::NAN);
        t.push(2, 1.0);
        assert_eq!(t.into_sorted(), vec![(2, 1.0)]);
    }

    #[test]
    fn negative_scores_ordered_correctly() {
        let mut t = TopK::new(2);
        t.push(1, -10.0);
        t.push(2, -5.0);
        t.push(3, -20.0);
        assert_eq!(t.into_sorted(), vec![(2, -5.0), (1, -10.0)]);
    }

    #[test]
    fn tie_at_boundary_prefers_smaller_doc() {
        let mut t = TopK::new(1);
        t.push(7, 3.0);
        t.push(2, 3.0); // same score, smaller id must displace 7
        assert_eq!(t.into_sorted(), vec![(2, 3.0)]);
    }
}
