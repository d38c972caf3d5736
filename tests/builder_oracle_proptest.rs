//! Oracle for the indexing path.
//!
//! 1. [`Analyzer::analyze_token`], the one per-token analysis routine,
//!    must equal a frozen copy of the original `analyze_into` (lowercase
//!    with `str::to_lowercase`, stop, Porter stem, drop empties) on
//!    arbitrary Unicode text.
//! 2. [`IndexBuilder`] (memoized analysis, sorted forward lists, inversion
//!    at `build`) must equal a reference index built here from
//!    [`Analyzer::analyze`] tokens with plain per-term maps, through every
//!    public accessor, including a duplicate external id rejected midway.

use std::collections::{BTreeMap, HashMap, HashSet};

use proptest::prelude::*;
use searchlite::analysis::{self, TokenScratch};
use searchlite::{Analyzer, DocId, Index, IndexBuildError, IndexBuilder, TermId};

/// Fragments that exercise the analysis rules: mixed case, capitalized
/// stopwords, a final sigma, dotted capital I, capital sharp s, the
/// Kelvin and Ohm signs (which lowercase to ASCII and Greek), digits,
/// tokens of 2 characters or fewer and Porter suffixes.
const FRAGMENTS: [&str; 30] = [
    "The",
    "OF",
    "and",
    "Cable",
    "CARS",
    "climbing",
    "relational",
    "Happiness",
    "ponies",
    "ΟΔΟΣ",
    "Σ",
    "ΣΑΣ",
    "İstanbul",
    "İ",
    "ẞ",
    "straẞe",
    "\u{212A}elvin",
    "\u{2126}",
    "2012",
    "CHiC2012",
    "a",
    "Is",
    "xy",
    "ab",
    "füniculár",
    "Ünïcode",
    "fine",
    "-",
    " ",
    ", ",
];

/// Arbitrary text of up to `max_atoms` atoms: fragments, code points
/// from the first 0x3000 (Latin, Greek, Cyrillic, combining marks,
/// letterlike symbols, ...) and printable ASCII, concatenated without
/// forced separators.
fn text(max_atoms: usize) -> impl Strategy<Value = String> {
    let atom = (0usize..FRAGMENTS.len() + 8, 0u32..0x3000, 0x20u32..0x7f);
    prop::collection::vec(atom, 0..max_atoms).prop_map(|atoms| {
        let mut s = String::new();
        for (pick, wide, ascii) in atoms {
            match FRAGMENTS.get(pick) {
                Some(f) => s.push_str(f),
                None if pick % 2 == 0 => s.extend(char::from_u32(wide)),
                None => s.extend(char::from_u32(ascii)),
            }
        }
        s
    })
}

/// A long document over a few words, so terms repeat many times and a
/// document's (term, position) pairs outgrow small-slice sorting.
fn dense_text() -> impl Strategy<Value = String> {
    let word = prop::sample::select(vec!["cable", "Cable", "cars", "car", "the", "xy"]);
    prop::collection::vec(word, 0..200).prop_map(|words| words.join(" "))
}

/// The four stemming × stopping combinations.
fn analyzer() -> impl Strategy<Value = Analyzer> {
    (0usize..4).prop_map(|i| Analyzer {
        stemming: i & 1 == 1,
        stopwords: i & 2 == 2,
    })
}

/// Frozen copy of `Analyzer::analyze_into` as it was before the one
/// per-token routine replaced it.
fn frozen_analyze(a: &Analyzer, text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for raw in analysis::tokenize(text) {
        let lower = raw.to_lowercase();
        if a.stopwords && analysis::is_stopword(&lower) {
            continue;
        }
        let token = if a.stemming {
            analysis::porter_stem(&lower)
        } else {
            lower
        };
        if !token.is_empty() {
            out.push(token);
        }
    }
    out
}

/// The index built with per-term maps and no memo: what `IndexBuilder`
/// must reproduce.
#[derive(Default)]
struct Reference {
    terms: Vec<String>,
    dict: HashMap<String, u32>,
    /// Per term: `(doc, positions)` in doc order.
    postings: Vec<Vec<(u32, Vec<u32>)>>,
    external_ids: Vec<String>,
    doc_lens: Vec<u32>,
    /// Per doc: `(term, tf)` in term order.
    forward: Vec<Vec<(u32, u32)>>,
}

impl Reference {
    fn add(&mut self, analyzer: &Analyzer, id: &str, text: &str) -> Result<u32, String> {
        if self.external_ids.iter().any(|e| e == id) {
            return Err(id.to_owned());
        }
        let doc = self.external_ids.len() as u32;
        self.external_ids.push(id.to_owned());
        let tokens = analyzer.analyze(text);
        self.doc_lens.push(tokens.len() as u32);
        let mut by_term: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (pos, tok) in tokens.iter().enumerate() {
            let next = self.terms.len() as u32;
            let t = *self.dict.entry(tok.clone()).or_insert(next);
            if t == next {
                self.terms.push(tok.clone());
                self.postings.push(Vec::new());
            }
            by_term.entry(t).or_default().push(pos as u32);
        }
        let mut fwd = Vec::new();
        for (t, positions) in by_term {
            fwd.push((t, positions.len() as u32));
            self.postings[t as usize].push((doc, positions));
        }
        self.forward.push(fwd);
        Ok(doc)
    }

    fn coll_tf(&self, t: usize) -> u64 {
        self.postings[t].iter().map(|(_, p)| p.len() as u64).sum()
    }
}

/// Compares every public accessor of `index` with the reference.
fn check(index: &Index, want: &Reference) -> Result<(), TestCaseError> {
    prop_assert_eq!(index.num_docs(), want.external_ids.len());
    prop_assert_eq!(index.num_terms(), want.terms.len());
    prop_assert_eq!(index.terms(), &want.terms[..]);
    prop_assert_eq!(index.external_ids(), &want.external_ids[..]);
    prop_assert_eq!(index.doc_lens(), &want.doc_lens[..]);
    let total: u64 = want.doc_lens.iter().map(|&l| u64::from(l)).sum();
    prop_assert_eq!(index.collection_len(), total);
    for (d, id) in want.external_ids.iter().enumerate() {
        let doc = DocId(d as u32);
        prop_assert_eq!(index.external_id(doc), id.as_str());
        prop_assert_eq!(index.doc_len(doc), want.doc_lens[d]);
        let fwd: Vec<(u32, u32)> = index.doc_terms(doc).map(|(t, tf)| (t.0, tf)).collect();
        prop_assert_eq!(&fwd, &want.forward[d]);
    }
    let mut fwd_offsets = vec![0u32];
    let mut fwd_terms = Vec::new();
    let mut fwd_tfs = Vec::new();
    for doc in &want.forward {
        fwd_terms.extend(doc.iter().map(|&(t, _)| t));
        fwd_tfs.extend(doc.iter().map(|&(_, tf)| tf));
        fwd_offsets.push(fwd_terms.len() as u32);
    }
    prop_assert_eq!(index.fwd_offsets(), &fwd_offsets[..]);
    prop_assert_eq!(index.fwd_terms(), &fwd_terms[..]);
    prop_assert_eq!(index.fwd_tfs(), &fwd_tfs[..]);
    let coll_tfs: Vec<u64> = (0..want.terms.len()).map(|t| want.coll_tf(t)).collect();
    prop_assert_eq!(index.coll_tfs(), &coll_tfs[..]);
    prop_assert_eq!(index.all_postings().len(), want.terms.len());
    for (t, term) in want.terms.iter().enumerate() {
        let tid = TermId(t as u32);
        prop_assert_eq!(index.term(tid), term.as_str());
        prop_assert_eq!(index.term_id(term), Some(tid));
        prop_assert_eq!(index.collection_tf(tid), coll_tfs[t]);
        let p = index.postings(tid);
        let docs: Vec<u32> = want.postings[t].iter().map(|(d, _)| *d).collect();
        let tfs: Vec<u32> = want.postings[t]
            .iter()
            .map(|(_, ps)| ps.len() as u32)
            .collect();
        let mut offsets = vec![0u32];
        let mut flat = Vec::new();
        for (_, ps) in &want.postings[t] {
            flat.extend_from_slice(ps);
            offsets.push(flat.len() as u32);
        }
        prop_assert_eq!(p.doc_freq(), docs.len());
        prop_assert_eq!(p.docs(), &docs[..]);
        prop_assert_eq!(p.tfs(), &tfs[..]);
        prop_assert_eq!(p.pos_offsets(), &offsets[..]);
        prop_assert_eq!(p.positions_flat(), &flat[..]);
        for (d, ps) in &want.postings[t] {
            prop_assert_eq!(p.positions(DocId(*d)), &ps[..]);
            prop_assert_eq!(index.tf(tid, DocId(*d)), ps.len() as u32);
        }
    }
    Ok(())
}

proptest! {
    /// The per-token routine, `analyze` and `analyze_into` all equal the
    /// frozen pipeline, for every analyzer configuration.
    #[test]
    fn token_routine_matches_frozen_analyze_into(text in text(24), analyzer in analyzer()) {
        let want = frozen_analyze(&analyzer, &text);
        let mut scratch = TokenScratch::default();
        let per_token: Vec<String> = analysis::tokenize(&text)
            .filter_map(|raw| analyzer.analyze_token(raw, &mut scratch).map(str::to_owned))
            .collect();
        prop_assert_eq!(&per_token, &want);
        prop_assert_eq!(&analyzer.analyze(&text), &want);
        let mut buf = vec!["stale".to_owned()];
        analyzer.analyze_into(&text, &mut buf);
        prop_assert_eq!(&buf, &want);
    }

    /// The builder equals the per-term-map reference, with duplicate ids
    /// (drawn from a small pool, plus one forced repeat of the first id)
    /// rejected midway without changing the builder.
    #[test]
    fn builder_matches_reference_index(
        docs in prop::collection::vec((0usize..10, text(64), dense_text(), 0u8..4), 1..14),
        analyzer in analyzer(),
    ) {
        let mut docs: Vec<(String, String)> = docs
            .into_iter()
            .map(|(k, text, dense, pick)| (format!("doc-{k}"), if pick == 0 { dense } else { text }))
            .collect();
        let repeat = (docs[0].0.clone(), "a repeated id".to_owned());
        docs.insert(docs.len().div_ceil(2), repeat);
        let mut builder = IndexBuilder::new(analyzer.clone());
        let mut want = Reference::default();
        let mut rejected = HashSet::new();
        for (id, text) in &docs {
            let before = builder.num_docs();
            match (builder.add_document(id, text), want.add(&analyzer, id, text)) {
                (Ok(got), Ok(doc)) => prop_assert_eq!(got, DocId(doc)),
                (Err(IndexBuildError::DuplicateExternalId { external_id }), Err(dup)) => {
                    prop_assert_eq!(&external_id, &dup);
                    prop_assert_eq!(builder.num_docs(), before);
                    rejected.insert(dup);
                }
                (got, doc) => {
                    return Err(TestCaseError::fail(format!(
                        "builder {got:?} but reference {doc:?} for id {id}"
                    )));
                }
            }
        }
        prop_assert!(!rejected.is_empty(), "the forced repeat is rejected");
        prop_assert_eq!(builder.num_docs(), want.external_ids.len());
        check(&builder.build(), &want)?;
    }
}
