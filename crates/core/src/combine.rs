//! SQE_C: rank-range combination of several result lists.
//!
//! Section 2.2.1 / 4.1: "we have configured SQE_C combining the results
//! achieved by the executions of SQE_T, SQE_T&S and SQE_S in a way that
//! the first five results come from SQE_T, the next 195 results come from
//! SQE_T&S and the rest of the results come from SQE_S."

use std::hash::Hash;

/// One segment of the combined ranking: take results from `run` until the
/// combined list reaches `until_rank` (1-based, inclusive). The last
/// segment should use `usize::MAX` to absorb the tail.
#[derive(Debug, Clone)]
pub struct RankSegment<'a, T = String> {
    /// The source ranking (document ids, best first).
    pub run: &'a [T],
    /// Fill the combined list up to this rank with this source.
    pub until_rank: usize,
}

/// Stitches ranked lists by rank range, skipping documents already taken
/// by an earlier segment. Sources shorter than their range simply yield
/// fewer documents; later segments continue the fill. Any id type that
/// names a document uniquely works: external-id strings, or the doc ids
/// of one searcher (the serving layer combines on those and maps only
/// the combined list to external ids).
pub fn combine_rankings<T: Eq + Hash + Clone>(segments: &[RankSegment<'_, T>]) -> Vec<T> {
    // The combined list holds at most every source entry and at most the
    // deepest rank: sized once, it never regrows.
    let sources: usize = segments.iter().map(|seg| seg.run.len()).sum();
    let deepest = segments.iter().map(|seg| seg.until_rank).max().unwrap_or(0);
    let size = sources.min(deepest);
    let mut out: Vec<T> = Vec::with_capacity(size);
    let mut seen: rustc_hash::FxHashSet<&T> =
        rustc_hash::FxHashSet::with_capacity_and_hasher(size, Default::default());
    for seg in segments {
        let mut source = seg.run.iter();
        while out.len() < seg.until_rank {
            match source.next() {
                Some(doc) => {
                    if seen.insert(doc) {
                        out.push(doc.clone());
                    }
                }
                None => break,
            }
        }
    }
    out
}

/// How far [`sqe_c`] fills the combined list from each of its three
/// runs at `depth`: ranks up to 5, 200 and `depth`. It is also how deep
/// it reads each run. A segment stops once the combined list reaches its
/// rank, and every entry it reads is either taken or a duplicate of a
/// document an earlier segment took; so a segment filling up to rank `r`
/// reads at most `r` entries. Ranking each run only this deep therefore
/// gives the same combined list.
pub fn sqe_c_depths(depth: usize) -> [usize; 3] {
    [5.min(depth), 200.min(depth), depth]
}

/// The paper's SQE_C configuration: ranks 1–5 from `sqe_t`, 6–200 from
/// `sqe_ts`, the rest (up to `depth`) from `sqe_s`.
pub fn sqe_c<T: Eq + Hash + Clone>(sqe_t: &[T], sqe_ts: &[T], sqe_s: &[T], depth: usize) -> Vec<T> {
    let [t, ts, s] = sqe_c_depths(depth);
    combine_rankings(&[
        RankSegment {
            run: sqe_t,
            until_rank: t,
        },
        RankSegment {
            run: sqe_ts,
            until_rank: ts,
        },
        RankSegment {
            run: sqe_s,
            until_rank: s,
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(prefix: &str, n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{prefix}{i}")).collect()
    }

    #[test]
    fn segments_fill_their_ranges() {
        let a = docs("a", 10);
        let b = docs("b", 10);
        let combined = combine_rankings(&[
            RankSegment {
                run: &a,
                until_rank: 3,
            },
            RankSegment {
                run: &b,
                until_rank: 6,
            },
        ]);
        assert_eq!(combined, vec!["a0", "a1", "a2", "b0", "b1", "b2"]);
    }

    #[test]
    fn duplicates_across_segments_skipped() {
        let a = vec!["x".to_owned(), "y".to_owned()];
        let b = vec!["y".to_owned(), "z".to_owned(), "w".to_owned()];
        let combined = combine_rankings(&[
            RankSegment {
                run: &a,
                until_rank: 2,
            },
            RankSegment {
                run: &b,
                until_rank: 4,
            },
        ]);
        assert_eq!(combined, vec!["x", "y", "z", "w"]);
    }

    #[test]
    fn short_source_passes_to_next_segment() {
        let a = vec!["only".to_owned()];
        let b = docs("b", 5);
        let combined = combine_rankings(&[
            RankSegment {
                run: &a,
                until_rank: 3,
            },
            RankSegment {
                run: &b,
                until_rank: 5,
            },
        ]);
        assert_eq!(combined.len(), 5);
        assert_eq!(combined[0], "only");
        assert_eq!(combined[1], "b0");
    }

    #[test]
    fn paper_configuration_ranges() {
        let t = docs("t", 300);
        let ts = docs("m", 300);
        let s = docs("s", 300);
        let combined = sqe_c(&t, &ts, &s, 1000);
        // 5 from T, 195 from T&S, then all 300 of S (none seen before).
        assert_eq!(combined.len(), 5 + 195 + 300);
        assert!(combined[..5].iter().all(|d| d.starts_with('t')));
        assert!(combined[5..200].iter().all(|d| d.starts_with('m')));
        assert!(combined[200..].iter().all(|d| d.starts_with('s')));
    }

    #[test]
    fn depth_truncates_all_segments() {
        let t = docs("t", 300);
        let ts = docs("m", 300);
        let s = docs("s", 300);
        let combined = sqe_c(&t, &ts, &s, 3);
        assert_eq!(combined, vec!["t0", "t1", "t2"]);
    }

    #[test]
    fn empty_sources_yield_empty() {
        let combined: Vec<String> = sqe_c(&[], &[], &[], 100);
        assert!(combined.is_empty());
    }

    #[test]
    fn empty_middle_source_falls_through_to_tail_segment() {
        // SQE_T&S empty: ranks 6+ come straight from SQE_S.
        let t = docs("t", 10);
        let s = docs("s", 10);
        let combined = sqe_c(&t, &[], &s, 1000);
        assert_eq!(combined.len(), 15);
        assert!(combined[..5].iter().all(|d| d.starts_with('t')));
        assert!(combined[5..].iter().all(|d| d.starts_with('s')));
    }

    #[test]
    fn empty_leading_source_starts_with_second_segment() {
        let ts = docs("m", 10);
        let s = docs("s", 10);
        let combined = sqe_c(&[], &ts, &s, 1000);
        assert_eq!(combined.len(), 20);
        assert_eq!(combined[0], "m0", "T empty: rank 1 comes from T&S");
    }

    #[test]
    fn fewer_than_five_in_sqe_t_tops_up_from_ts() {
        // SQE_T returns only 2 results: ranks 3–5 must come from SQE_T&S,
        // not stay empty.
        let t = docs("t", 2);
        let ts = docs("m", 10);
        let s = docs("s", 10);
        let combined = sqe_c(&t, &ts, &s, 1000);
        assert_eq!(
            &combined[..5],
            &["t0", "t1", "m0", "m1", "m2"],
            "the first-five range is topped up by the next segment"
        );
        assert_eq!(combined.len(), 2 + 10 + 10);
    }

    #[test]
    fn duplicate_across_all_three_segments_keeps_earliest_rank() {
        // "dup" appears in every run; only its first (T) occurrence may
        // survive, and later segments must not re-emit or re-rank it.
        let t = vec!["dup".to_owned(), "t1".to_owned()];
        let ts = vec!["dup".to_owned(), "m1".to_owned()];
        let s = vec!["s1".to_owned(), "dup".to_owned(), "s2".to_owned()];
        let combined = sqe_c(&t, &ts, &s, 1000);
        assert_eq!(combined, vec!["dup", "t1", "m1", "s1", "s2"]);
        assert_eq!(
            combined.iter().filter(|d| d.as_str() == "dup").count(),
            1,
            "duplicates keep exactly the earlier rank"
        );
    }

    #[test]
    fn duplicate_skips_do_not_consume_rank_budget() {
        // The first-five range takes five *distinct* documents from T&S
        // even when some of its head duplicates T.
        let t = vec!["a".to_owned()];
        let ts = vec![
            "a".to_owned(),
            "b".to_owned(),
            "c".to_owned(),
            "d".to_owned(),
            "e".to_owned(),
            "f".to_owned(),
        ];
        let combined = sqe_c(&t, &ts, &[], 5);
        assert_eq!(combined, vec!["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn combining_doc_ids_matches_combining_their_names() {
        // Ids and names are in bijection, so stitching on ids and
        // naming the result equals stitching on names.
        let name = |d: &u32| format!("doc{d}");
        let t: Vec<u32> = vec![3, 1, 4];
        let ts: Vec<u32> = (0..250).rev().collect();
        let s: Vec<u32> = (100..400).collect();
        let by_id: Vec<String> = sqe_c(&t, &ts, &s, 300).iter().map(name).collect();
        let names = |v: &[u32]| v.iter().map(name).collect::<Vec<_>>();
        assert_eq!(by_id, sqe_c(&names(&t), &names(&ts), &names(&s), 300));
    }

    #[test]
    fn zero_depth_yields_empty() {
        let t = docs("t", 3);
        assert!(sqe_c(&t, &t, &t, 0).is_empty());
    }

    #[test]
    fn segment_with_until_rank_below_current_length_is_skipped() {
        // A later segment whose range is already filled contributes
        // nothing (until_rank is a target length, not a quota).
        let a = docs("a", 5);
        let b = docs("b", 5);
        let combined = combine_rankings(&[
            RankSegment {
                run: &a,
                until_rank: 4,
            },
            RankSegment {
                run: &b,
                until_rank: 2,
            },
        ]);
        assert_eq!(combined, vec!["a0", "a1", "a2", "a3"]);
    }
}
