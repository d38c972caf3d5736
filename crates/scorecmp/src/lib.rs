//! Total-order score comparison.
//!
//! Every ranking surface in the workspace (entity-linker commonness,
//! retrieval scores, PRF term weights, trec run parsing, motif learning)
//! sorts `f64` scores. `partial_cmp(..).unwrap()` panics on NaN and
//! `unwrap_or(Equal)` silently destroys sort-order transitivity — two
//! NaN-adjacent elements compare `Equal` to everything, so the final order
//! depends on the sort algorithm's visit order, not the data. The paper's
//! evaluation protocol (trec_eval parity) requires bit-for-bit reproducible
//! rankings, so all comparators route through the total order defined here.
//!
//! The `no-nan-unsafe-sort` rule in `crates/analyzer` enforces this
//! mechanically: any `partial_cmp` inside a sort comparator fails the lint
//! wall.
//!
//! Ordering semantics follow [`f64::total_cmp`] (IEEE 754 `totalOrder`):
//! `-NaN < -∞ < … < -0 < +0 < … < +∞ < +NaN`. NaN scores therefore sort
//! deterministically instead of poisoning the ranking.

use std::cmp::Ordering;

/// Ascending total order on scores (NaN-safe, deterministic).
#[inline]
pub fn cmp_scores(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// Descending total order on scores: best (largest) first. `+NaN` sorts
/// before `+∞`, i.e. NaN is treated as "largest" — deterministic, and
/// conspicuous in any output it reaches.
#[inline]
pub fn cmp_scores_desc(a: f64, b: f64) -> Ordering {
    b.total_cmp(&a)
}

/// The standard ranking comparator: descending score, ties broken by
/// ascending id so equal-scored elements keep a stable, input-independent
/// order. Use inside `sort_by`:
///
/// ```
/// let mut hits = vec![(2u32, 0.5f64), (1, 0.5), (0, 0.9)];
/// hits.sort_by(|a, b| scorecmp::by_score_desc_then_id(a.1, b.1, a.0, b.0));
/// assert_eq!(hits, vec![(0, 0.9), (1, 0.5), (2, 0.5)]);
/// ```
#[inline]
pub fn by_score_desc_then_id<I: Ord>(score_a: f64, score_b: f64, id_a: I, id_b: I) -> Ordering {
    cmp_scores_desc(score_a, score_b).then_with(|| id_a.cmp(&id_b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_handles_nan() {
        let mut v = [0.5, f64::NAN, 0.1, f64::NEG_INFINITY, 0.5];
        v.sort_by(|a, b| cmp_scores(*a, *b));
        assert_eq!(v[0], f64::NEG_INFINITY);
        assert!(v[4].is_nan());

        v.sort_by(|a, b| cmp_scores_desc(*a, *b));
        assert!(v[0].is_nan());
        assert_eq!(v[4], f64::NEG_INFINITY);
    }

    #[test]
    fn desc_then_id_is_deterministic() {
        let mut a = vec![(3u32, 1.0), (1, 1.0), (2, 2.0)];
        let mut b = vec![(1u32, 1.0), (2, 2.0), (3, 1.0)];
        a.sort_by(|x, y| by_score_desc_then_id(x.1, y.1, x.0, y.0));
        b.sort_by(|x, y| by_score_desc_then_id(x.1, y.1, x.0, y.0));
        assert_eq!(a, b);
        assert_eq!(a, vec![(2, 2.0), (1, 1.0), (3, 1.0)]);
    }

    #[test]
    fn transitive_where_unwrap_or_equal_is_not() {
        // With unwrap_or(Equal): NaN == 0.1 and NaN == 0.9 but 0.1 < 0.9.
        let (nan, lo, hi) = (f64::NAN, 0.1, 0.9);
        assert_eq!(cmp_scores(lo, hi), Ordering::Less);
        assert_eq!(cmp_scores(lo, nan), Ordering::Less);
        assert_eq!(cmp_scores(hi, nan), Ordering::Less);
    }
}
