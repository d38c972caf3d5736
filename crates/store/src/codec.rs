//! Section codecs: graph, inverted index, linker dictionary, metadata.
//!
//! Encoders walk the public read-only accessors of each structure and
//! emit the bulk little-endian layout of [`crate::buf`]. Decoders
//! rebuild through the structures' validating constructors
//! (`KbGraph::from_parts` + `validate_shape`,
//! `Index::from_raw_parts_audited`) and — because snapshot bytes are
//! untrusted even after checksums pass — run the full semantic audits
//! (`GraphAudit`, `IndexAudit`) unconditionally, not just in debug
//! builds. A snapshot section can therefore never hand the pipeline a
//! structure the auditors would reject.

use entitylink::{Dictionary, Sense};
use kbgraph::{ArticleId, Csr, KbGraph};
use searchlite::{Analyzer, Index, TermPostings};

use crate::buf::{Cursor, SectionBuf};
use crate::error::StoreError;
use crate::format::{SEC_DICT, SEC_GRAPH, SEC_META};

/// Snapshot-level metadata decoded from the META section.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(persist-types-derive-serde) — hand-serialized binary section
pub struct SnapshotMeta {
    /// Free-form writer identification.
    pub writer: String,
    /// Collection names, in index-section order.
    pub collections: Vec<String>,
}

/// Encodes the META section.
pub fn encode_meta(meta: &SnapshotMeta) -> Result<Vec<u8>, StoreError> {
    let mut b = SectionBuf::new();
    b.put_str(&meta.writer)?;
    b.put_str_list(&meta.collections)?;
    Ok(b.into_bytes())
}

/// Decodes the META section.
pub fn decode_meta(payload: &[u8]) -> Result<SnapshotMeta, StoreError> {
    let mut c = Cursor::new(payload, SEC_META);
    let writer = c.get_str("meta.writer")?;
    let collections = c.get_str_list("meta.collections")?;
    c.finish()?;
    Ok(SnapshotMeta {
        writer,
        collections,
    })
}

fn put_csr(b: &mut SectionBuf, csr: &Csr) -> Result<(), StoreError> {
    b.put_u32_slice(csr.offsets())?;
    b.put_u32_slice(csr.targets())
}

fn get_csr_parts(
    c: &mut Cursor<'_>,
    what: &'static str,
) -> Result<(Vec<u32>, Vec<u32>), StoreError> {
    let offsets = c.get_u32_vec(what)?;
    let targets = c.get_u32_vec(what)?;
    Ok((offsets, targets))
}

/// Encodes the GRAPH section: both title tables, then the six CSRs in
/// `KbGraph::from_parts` order.
pub fn encode_graph(graph: &KbGraph) -> Result<Vec<u8>, StoreError> {
    let mut b = SectionBuf::new();
    b.put_str_list(graph.article_titles())?;
    b.put_str_list(graph.category_titles())?;
    put_csr(&mut b, graph.article_links())?;
    put_csr(&mut b, graph.article_links_rev())?;
    put_csr(&mut b, graph.memberships())?;
    put_csr(&mut b, graph.members())?;
    put_csr(&mut b, graph.subcategories())?;
    put_csr(&mut b, graph.subcats_rev())?;
    Ok(b.into_bytes())
}

/// Decodes the GRAPH section, shape-validates the CSRs, and runs the
/// full `GraphAudit` on the result before releasing it.
pub fn decode_graph(payload: &[u8]) -> Result<KbGraph, StoreError> {
    let mut c = Cursor::new(payload, SEC_GRAPH);
    let article_titles = c.get_str_list("graph.article_titles")?;
    let category_titles = c.get_str_list("graph.category_titles")?;
    // The raw->Csr step happens here, in the same function as the
    // GraphAudit below, so `must-audit-after-mutation` sees the audit
    // covering every reassembled CSR.
    let read_csr = |c: &mut Cursor<'_>, what: &'static str| -> Result<Csr, StoreError> {
        let (offsets, targets) = get_csr_parts(c, what)?;
        Ok(Csr::from_raw_parts(offsets, targets))
    };
    let article_links = read_csr(&mut c, "graph.article_links")?;
    let article_links_rev = read_csr(&mut c, "graph.article_links_rev")?;
    let memberships = read_csr(&mut c, "graph.memberships")?;
    let members = read_csr(&mut c, "graph.members")?;
    let subcategories = read_csr(&mut c, "graph.subcategories")?;
    let subcats_rev = read_csr(&mut c, "graph.subcats_rev")?;
    c.finish()?;
    let graph = KbGraph::from_parts(
        article_titles,
        category_titles,
        article_links,
        article_links_rev,
        memberships,
        members,
        subcategories,
        subcats_rev,
    );
    graph.validate_shape()?;
    let audit = kbgraph::audit::GraphAudit::run(&graph);
    if !audit.is_clean() {
        return Err(StoreError::AuditRejected {
            what: "graph".to_owned(),
            report: audit.report(),
        });
    }
    Ok(graph)
}

/// Encodes one inverted index (one per collection, section id
/// `SEC_INDEX_BASE + i`).
pub fn encode_index(index: &Index) -> Result<Vec<u8>, StoreError> {
    let mut b = SectionBuf::new();
    b.put_u32(u32::from(index.analyzer().stemming));
    b.put_u32(u32::from(index.analyzer().stopwords));
    b.put_str_list(index.terms())?;
    b.put_str_list(index.external_ids())?;
    b.put_u32_slice(index.doc_lens())?;
    b.put_u64(index.collection_len());
    b.put_u64_slice(index.coll_tfs())?;
    b.put_u32_slice(index.fwd_offsets())?;
    b.put_u32_slice(index.fwd_terms())?;
    b.put_u32_slice(index.fwd_tfs())?;
    b.put_len(index.all_postings().len())?;
    for p in index.all_postings() {
        b.put_u32_slice(p.docs())?;
        b.put_u32_slice(p.tfs())?;
        b.put_u32_slice(p.pos_offsets())?;
        b.put_u32_slice(p.positions_flat())?;
    }
    Ok(b.into_bytes())
}

/// Decodes one inverted index through `Index::from_raw_parts_audited`,
/// which rebuilds the term dictionary and runs the full `IndexAudit` in
/// one pass; `section` tags errors, `name` tags audit reports.
pub fn decode_index(payload: &[u8], section: u32, name: &str) -> Result<Index, StoreError> {
    let mut c = Cursor::new(payload, section);
    let stemming = c.get_u32("index.analyzer.stemming")?;
    let stopwords = c.get_u32("index.analyzer.stopwords")?;
    if stemming > 1 || stopwords > 1 {
        return Err(StoreError::Malformed {
            section,
            detail: format!("analyzer flags out of range: {stemming}/{stopwords}"),
        });
    }
    let analyzer = Analyzer {
        stemming: stemming == 1,
        stopwords: stopwords == 1,
    };
    let terms = c.get_str_list("index.terms")?;
    let external_ids = c.get_str_list("index.external_ids")?;
    let doc_lens = c.get_u32_vec("index.doc_lens")?;
    let collection_len = c.get_u64("index.collection_len")?;
    let coll_tf = c.get_u64_vec("index.coll_tf")?;
    let fwd_offsets = c.get_u32_vec("index.fwd_offsets")?;
    let fwd_terms = c.get_u32_vec("index.fwd_terms")?;
    let fwd_tfs = c.get_u32_vec("index.fwd_tfs")?;
    let num_postings = c.get_u32("index.postings.len")? as usize;
    if num_postings != terms.len() {
        return Err(StoreError::Malformed {
            section,
            detail: format!(
                "postings count {num_postings} disagrees with {} terms",
                terms.len()
            ),
        });
    }
    let mut postings = Vec::with_capacity(num_postings);
    for _ in 0..num_postings {
        let docs = c.get_u32_vec("index.postings.docs")?;
        let tfs = c.get_u32_vec("index.postings.tfs")?;
        let pos_offsets = c.get_u32_vec("index.postings.pos_offsets")?;
        let positions = c.get_u32_vec("index.postings.positions")?;
        postings.push(TermPostings::from_raw_parts(
            docs,
            tfs,
            pos_offsets,
            positions,
        ));
    }
    c.finish()?;
    // Single-pass validation: `from_raw_parts_audited` runs the full
    // IndexAudit (a superset of the shape checks) while constructing.
    Index::from_raw_parts_audited(
        analyzer,
        terms,
        postings,
        external_ids,
        doc_lens,
        collection_len,
        coll_tf,
        fwd_offsets,
        fwd_terms,
        fwd_tfs,
    )
    .map_err(|audit| StoreError::AuditRejected {
        what: format!("index `{name}`"),
        report: audit.report(),
    })
}

/// Encodes the entity-linker dictionary as `(normalized key, senses)`
/// entries in key order.
pub fn encode_dict(dict: &Dictionary) -> Result<Vec<u8>, StoreError> {
    let mut b = SectionBuf::new();
    b.put_len(dict.len())?;
    for (key, senses) in dict.iter_entries() {
        b.put_str(key)?;
        b.put_len(senses.len())?;
        for s in senses {
            b.put_u32(s.article.raw());
            b.put_f64(s.commonness);
        }
    }
    Ok(b.into_bytes())
}

/// Decodes the dictionary, rejecting out-of-bounds article ids,
/// non-finite commonness and keys that are not normalization fixpoints
/// (which would silently change lookup behaviour after a round-trip).
pub fn decode_dict(payload: &[u8], num_articles: usize) -> Result<Dictionary, StoreError> {
    let mut c = Cursor::new(payload, SEC_DICT);
    let num_entries = c.get_u32("dict.len")? as usize;
    let probe = Dictionary::new();
    let mut entries: Vec<(String, Vec<Sense>)> = Vec::new();
    for _ in 0..num_entries {
        let key = c.get_str("dict.key")?;
        if probe.normalize(&key) != key {
            return Err(StoreError::Malformed {
                section: SEC_DICT,
                detail: format!("dictionary key `{key}` is not in normalized form"),
            });
        }
        let num_senses = c.get_u32("dict.senses.len")? as usize;
        let mut senses = Vec::with_capacity(num_senses.min(c.remaining() / 12 + 1));
        for _ in 0..num_senses {
            let article = c.get_u32("dict.sense.article")?;
            if article as usize >= num_articles {
                return Err(StoreError::Malformed {
                    section: SEC_DICT,
                    detail: format!(
                        "sense references article {article} outside the {num_articles}-article graph"
                    ),
                });
            }
            let commonness = c.get_finite_f64("dict.sense.commonness")?;
            senses.push(Sense {
                article: ArticleId::new(article),
                commonness,
            });
        }
        entries.push((key, senses));
    }
    c.finish()?;
    let dict = Dictionary::from_entries(entries.iter().map(|(k, v)| (k.as_str(), v.clone())));
    if dict.len() != num_entries {
        return Err(StoreError::Malformed {
            section: SEC_DICT,
            detail: format!(
                "{num_entries} persisted keys collapsed to {} dictionary entries",
                dict.len()
            ),
        });
    }
    Ok(dict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbgraph::GraphBuilder;
    use searchlite::IndexBuilder;

    fn toy_graph() -> KbGraph {
        let mut b = GraphBuilder::new();
        let cable = b.add_article("cable car");
        let funi = b.add_article("funicular");
        let rail = b.add_category("rail transport");
        b.add_article_link(cable, funi);
        b.add_article_link(funi, cable);
        b.add_membership(cable, rail);
        b.add_membership(funi, rail);
        b.build()
    }

    #[test]
    fn graph_roundtrip() {
        let g = toy_graph();
        let bytes = encode_graph(&g).unwrap();
        let restored = decode_graph(&bytes).unwrap();
        assert_eq!(restored.num_articles(), g.num_articles());
        assert_eq!(restored.num_categories(), g.num_categories());
        assert_eq!(restored.article_titles(), g.article_titles());
        assert_eq!(
            restored.article_links().targets(),
            g.article_links().targets()
        );
    }

    #[test]
    fn graph_decode_rejects_truncation() {
        let g = toy_graph();
        let bytes = encode_graph(&g).unwrap();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_graph(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn index_roundtrip_preserves_retrieval() {
        use searchlite::ql::{self, QlParams};
        use searchlite::structured::Query;
        let mut b = IndexBuilder::new(Analyzer::english());
        b.add_document("d0", "a cable car climbing the hillside")
            .expect("unique test ids");
        b.add_document("d1", "street art on the walls")
            .expect("unique test ids");
        let idx = b.build();
        let bytes = encode_index(&idx).unwrap();
        let restored = decode_index(&bytes, 0x100, "c0").unwrap();
        let q = Query::parse_text("cable car", &Analyzer::english());
        assert_eq!(
            ql::rank(
                &searchlite::Searcher::from_index(idx),
                &q,
                QlParams::default(),
                10
            ),
            ql::rank(
                &searchlite::Searcher::from_index(restored),
                &q,
                QlParams::default(),
                10
            )
        );
    }

    #[test]
    fn dict_roundtrip_and_bounds() {
        let mut d = Dictionary::new();
        d.add("Cable Car", ArticleId::new(0), 0.9);
        d.add("jaguar", ArticleId::new(1), 0.4);
        let bytes = encode_dict(&d).unwrap();
        let restored = decode_dict(&bytes, 2).unwrap();
        assert_eq!(restored.len(), d.len());
        assert_eq!(
            restored.lookup("cable car").map(<[Sense]>::len),
            d.lookup("cable car").map(<[Sense]>::len)
        );
        // The same bytes against a smaller graph must be rejected.
        assert!(matches!(
            decode_dict(&bytes, 1),
            Err(StoreError::Malformed { .. })
        ));
    }

    #[test]
    fn meta_roundtrip() {
        let m = SnapshotMeta {
            writer: "sqe-store test".to_owned(),
            collections: vec!["imageclef".to_owned(), "chic".to_owned()],
        };
        let bytes = encode_meta(&m).unwrap();
        assert_eq!(decode_meta(&bytes).unwrap(), m);
    }
}
