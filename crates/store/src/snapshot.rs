//! Whole-file snapshot assembly: encode, append, atomic write, verified
//! load — format v2 (footer-led, one section per index segment) plus the
//! frozen v1 decode path.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use entitylink::Dictionary;
use kbgraph::KbGraph;
use searchlite::{Index, Searcher, Segment};

use crate::codec::{
    decode_dict, decode_graph, decode_index, decode_meta, encode_dict, encode_graph, encode_index,
    encode_meta, SnapshotMeta,
};
use crate::crc32::crc32;
use crate::error::StoreError;
use crate::format::{
    align8, decode_footer, decode_header, encode_footer, encode_header, encode_prefix_v2,
    find_section, footer_span, header_span, section_payload, segment_section_id,
    verify_section_crc, SectionEntry, MAX_SEGMENTS_PER_COLLECTION, SEC_DICT, SEC_GRAPH,
    SEC_INDEX_BASE, SEC_META, VERSION, VERSION_V1,
};

/// Identification string embedded in the META section.
const WRITER: &str = concat!("sqe-store ", env!("CARGO_PKG_VERSION"));

/// Everything a snapshot persists, borrowed from the live pipeline
/// state. Each collection is a list of immutable index segments in
/// seal order; a monolithic collection is simply a one-segment list.
#[derive(Debug, Clone, Copy)]
// lint:allow(persist-types-derive-serde) — borrowed view, hand-serialized
pub struct SnapshotContents<'a> {
    /// The knowledge graph.
    pub graph: &'a KbGraph,
    /// `(collection name, segments)` pairs; both orders are preserved.
    pub collections: &'a [(&'a str, &'a [&'a Index])],
    /// The entity-linker surface-form dictionary.
    pub dict: &'a Dictionary,
}

/// Summary of a snapshot file, cheap to obtain (header walk only).
#[derive(Debug, Clone)]
// lint:allow(persist-types-derive-serde) — diagnostic value, printed not persisted
pub struct SnapshotInfo {
    /// Format version of the file (1 or 2).
    pub version: u32,
    /// Total file size in bytes.
    pub file_len: u64,
    /// Writer string from the META section.
    pub writer: String,
    /// Collection names in index-section order.
    pub collections: Vec<String>,
    /// Segment count per collection, parallel to `collections` (always
    /// 1 for v1 files).
    pub segment_counts: Vec<u32>,
    /// `(id, len, crc)` of every section, in file order.
    pub sections: Vec<(u32, u64, u32)>,
}

fn meta_of(contents: &SnapshotContents<'_>) -> SnapshotMeta {
    SnapshotMeta {
        writer: WRITER.to_owned(),
        collections: contents
            .collections
            .iter()
            .map(|(name, _)| (*name).to_owned())
            .collect(),
    }
}

/// Serializes the full snapshot into an in-memory v2 byte image
/// (prefix, aligned payloads, footer). Deterministic: the same contents
/// always produce identical bytes — the golden-stability test depends
/// on it, and it makes snapshot diffs meaningful. Appending segments to
/// the last collection with [`append_segment`] reproduces exactly the
/// bytes of a one-shot encode of the grown contents.
pub fn encode_snapshot(contents: &SnapshotContents<'_>) -> Result<Vec<u8>, StoreError> {
    let mut payloads: Vec<(u32, Vec<u8>)> = Vec::with_capacity(3 + contents.collections.len());
    payloads.push((SEC_META, encode_meta(&meta_of(contents))?));
    payloads.push((SEC_GRAPH, encode_graph(contents.graph)?));
    payloads.push((SEC_DICT, encode_dict(contents.dict)?));
    for (i, (_, segments)) in contents.collections.iter().enumerate() {
        for (j, segment) in segments.iter().enumerate() {
            payloads.push((segment_section_id(i, j)?, encode_index(segment)?));
        }
    }
    let mut out = encode_prefix_v2();
    let mut entries = Vec::with_capacity(payloads.len());
    for (id, payload) in &payloads {
        entries.push(SectionEntry {
            id: *id,
            crc: crc32(payload),
            offset: out.len() as u64,
            len: payload.len() as u64,
        });
        out.extend_from_slice(payload);
        out.resize(align8(out.len()), 0);
    }
    out.extend_from_slice(&encode_footer(&entries)?);
    Ok(out)
}

/// Serializes the snapshot in the frozen v1 layout (front header, one
/// index section per collection). Every collection must be a single
/// segment. Kept alive so the compat tests and the committed golden
/// fixture can keep exercising the v1 decode path forever.
pub fn encode_snapshot_v1(contents: &SnapshotContents<'_>) -> Result<Vec<u8>, StoreError> {
    let mut payloads: Vec<(u32, Vec<u8>)> = Vec::with_capacity(3 + contents.collections.len());
    payloads.push((SEC_META, encode_meta(&meta_of(contents))?));
    payloads.push((SEC_GRAPH, encode_graph(contents.graph)?));
    payloads.push((SEC_DICT, encode_dict(contents.dict)?));
    for (i, (name, segments)) in contents.collections.iter().enumerate() {
        let [segment] = segments else {
            return Err(StoreError::SectionTable {
                detail: format!(
                    "v1 stores one segment per collection; `{name}` has {}",
                    segments.len()
                ),
            });
        };
        let id = SEC_INDEX_BASE
            .checked_add(u32::try_from(i).unwrap_or(u32::MAX))
            .ok_or_else(|| StoreError::SectionTable {
                detail: format!("too many collections: {}", contents.collections.len()),
            })?;
        payloads.push((id, encode_index(segment)?));
    }

    let mut offset = header_span(payloads.len());
    let mut entries = Vec::with_capacity(payloads.len());
    for (id, payload) in &payloads {
        entries.push(SectionEntry {
            id: *id,
            crc: crc32(payload),
            offset: offset as u64,
            len: payload.len() as u64,
        });
        offset = align8(offset + payload.len());
    }
    let header = encode_header(&entries)?;
    let mut out = Vec::with_capacity(offset);
    out.extend_from_slice(&header);
    for (_, payload) in &payloads {
        out.extend_from_slice(payload);
        out.resize(align8(out.len()), 0);
    }
    Ok(out)
}

/// Appends one sealed segment to a collection of an existing v2 image,
/// in place. Only the footer is rewritten: every existing payload byte
/// is left untouched, so sealing is O(new segment) rather than O(file).
/// When the collection is the last one in section order the result is
/// byte-identical to a one-shot [`encode_snapshot`] of the grown
/// contents.
pub fn append_segment(
    bytes: &mut Vec<u8>,
    collection: &str,
    segment: &Index,
) -> Result<(), StoreError> {
    let mut entries = decode_footer(bytes)?;
    let meta_entry = find_section(&entries, SEC_META)?;
    verify_section_crc(bytes, &meta_entry)?;
    let meta = decode_meta(section_payload(bytes, &meta_entry))?;
    let ci = meta
        .collections
        .iter()
        .position(|n| n == collection)
        .ok_or_else(|| StoreError::NoSuchCollection {
            name: collection.to_owned(),
        })?;
    let lo = segment_section_id(ci, 0)?;
    let existing = entries
        .iter()
        .filter(|e| (lo..lo + MAX_SEGMENTS_PER_COLLECTION).contains(&e.id))
        .count();
    let id = segment_section_id(ci, existing)?;
    let payload = encode_index(segment)?;
    let footer_start = bytes.len() - footer_span(entries.len());
    bytes.truncate(footer_start);
    entries.push(SectionEntry {
        id,
        crc: crc32(&payload),
        offset: footer_start as u64,
        len: payload.len() as u64,
    });
    bytes.extend_from_slice(&payload);
    bytes.resize(align8(bytes.len()), 0);
    bytes.extend_from_slice(&encode_footer(&entries)?);
    Ok(())
}

/// Writes a snapshot atomically: the image goes to a temp file of its
/// own in the same directory, is flushed and synced, then renamed over
/// `path`, and the directory is synced. Readers therefore only ever
/// observe either the old complete file or the new complete file.
/// Returns the number of bytes written.
pub fn write_snapshot(path: &Path, contents: &SnapshotContents<'_>) -> Result<u64, StoreError> {
    let bytes = encode_snapshot(contents)?;
    write_snapshot_bytes(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Atomically publishes an already-encoded snapshot image (the
/// write-temp-sync-rename dance of [`write_snapshot`], for callers that
/// grow the image incrementally with [`append_segment`]). Every call
/// writes its own temp file, so concurrent writers to one path never
/// clobber each other's image: the last rename wins whole.
pub fn write_snapshot_bytes(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = tmp_path(path);
    let written = fs::File::create(&tmp).and_then(|mut f| {
        f.write_all(bytes)?;
        f.sync_all()
    });
    if let Err(e) = written.and_then(|()| fs::rename(&tmp, path)) {
        // Leave no orphaned temp file behind a failed publication.
        let _ = fs::remove_file(&tmp);
        return Err(StoreError::Io(e));
    }
    sync_parent_dir(path)?;
    Ok(())
}

/// `<file name>.<pid>.<n>.tmp` beside `path`, where `n` counts this
/// process's calls: unique per process and per call.
fn tmp_path(path: &Path) -> std::path::PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("snapshot"),
        std::ffi::OsStr::to_os_string,
    );
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    name.push(format!(".{}.{call}.tmp", std::process::id()));
    path.with_file_name(name)
}

/// Syncs the directory holding `path`, so a completed rename survives a
/// crash. Directories cannot be opened for syncing outside Unix.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    if cfg!(unix) {
        let dir = path
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// A fully decoded, fully audited snapshot.
#[derive(Debug)]
// lint:allow(persist-types-derive-serde) — decoded runtime state
pub struct Snapshot {
    graph: KbGraph,
    collections: Vec<(String, Vec<Index>)>,
    dict: Dictionary,
    info: SnapshotInfo,
}

/// Decodes graph, dictionary and every index section, with the
/// per-section CRC scan folded into the thread that reads the section.
/// Sections decode on parallel scoped threads (graph + dictionary on
/// one, each index segment on its own) so cold-start wall time is
/// bounded by the largest section rather than the file size. Errors are
/// still reported in deterministic section order.
fn decode_world(
    bytes: &[u8],
    graph_entry: SectionEntry,
    dict_entry: SectionEntry,
    index_sections: &[(String, SectionEntry)],
) -> Result<(KbGraph, Dictionary, Vec<Index>), StoreError> {
    let decode_graph_dict = || -> Result<(KbGraph, Dictionary), StoreError> {
        verify_section_crc(bytes, &graph_entry)?;
        let graph = decode_graph(section_payload(bytes, &graph_entry))?;
        verify_section_crc(bytes, &dict_entry)?;
        let dict = decode_dict(section_payload(bytes, &dict_entry), graph.num_articles())?;
        Ok((graph, dict))
    };
    let decode_one_index = |name: &str, entry: &SectionEntry| -> Result<Index, StoreError> {
        verify_section_crc(bytes, entry)?;
        decode_index(section_payload(bytes, entry), entry.id, name)
    };
    let parallel = std::thread::available_parallelism().map_or(1, std::num::NonZero::get) > 1
        && !index_sections.is_empty();
    let (graph, dict, index_results) = if parallel {
        let thread_died = |what: &str| StoreError::Malformed {
            section: SEC_META,
            detail: format!("{what} decoder thread panicked"),
        };
        let (graph_dict, index_results) = std::thread::scope(|s| {
            let graph_dict = s.spawn(decode_graph_dict);
            let index_handles: Vec<_> = index_sections
                .iter()
                .map(|(name, entry)| s.spawn(move || decode_one_index(name, entry)))
                .collect();
            let graph_dict = graph_dict.join();
            let index_results: Vec<_> = index_handles.into_iter().map(|h| h.join()).collect();
            (graph_dict, index_results)
        });
        let (graph, dict) = graph_dict.map_err(|_| thread_died("graph"))??;
        let index_results = index_results
            .into_iter()
            .map(|r| r.unwrap_or_else(|_| Err(thread_died("index"))))
            .collect::<Vec<_>>();
        (graph, dict, index_results)
    } else {
        let (graph, dict) = decode_graph_dict()?;
        let index_results = index_sections
            .iter()
            .map(|(name, entry)| decode_one_index(name, entry))
            .collect::<Vec<_>>();
        (graph, dict, index_results)
    };
    let mut indexes = Vec::with_capacity(index_sections.len());
    for r in index_results {
        indexes.push(r?);
    }
    Ok((graph, dict, indexes))
}

impl Snapshot {
    /// Decodes a snapshot image of either format version: header and
    /// checksum verification, section decoding, shape validation, and
    /// the full graph/index audits. Every failure is a typed
    /// [`StoreError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, StoreError> {
        match crate::format::read_version(bytes)? {
            VERSION_V1 => Snapshot::from_bytes_v1(bytes),
            _ => Snapshot::from_bytes_v2(bytes),
        }
    }

    fn from_bytes_v1(bytes: &[u8]) -> Result<Snapshot, StoreError> {
        let entries = decode_header(bytes)?;
        let meta_entry = find_section(&entries, SEC_META)?;
        verify_section_crc(bytes, &meta_entry)?;
        let meta = decode_meta(section_payload(bytes, &meta_entry))?;
        let graph_entry = find_section(&entries, SEC_GRAPH)?;
        let dict_entry = find_section(&entries, SEC_DICT)?;
        let mut index_sections = Vec::with_capacity(meta.collections.len());
        for (i, name) in meta.collections.iter().enumerate() {
            let id = SEC_INDEX_BASE
                .checked_add(u32::try_from(i).unwrap_or(u32::MAX))
                .ok_or_else(|| StoreError::SectionTable {
                    detail: format!("too many collections: {}", meta.collections.len()),
                })?;
            index_sections.push((name.clone(), find_section(&entries, id)?));
        }
        // Every table entry must be one of the sections decoded above:
        // an id this version does not know would otherwise escape both
        // decoding and CRC verification.
        for e in &entries {
            let known = e.id == SEC_META
                || e.id == SEC_GRAPH
                || e.id == SEC_DICT
                || index_sections.iter().any(|(_, s)| s.id == e.id);
            if !known {
                return Err(StoreError::SectionTable {
                    detail: format!("unknown section id {:#x}", e.id),
                });
            }
        }
        let (graph, dict, indexes) = decode_world(bytes, graph_entry, dict_entry, &index_sections)?;
        let collections: Vec<(String, Vec<Index>)> = meta
            .collections
            .iter()
            .zip(indexes)
            .map(|(n, i)| (n.clone(), vec![i]))
            .collect();
        let info = SnapshotInfo {
            version: VERSION_V1,
            file_len: bytes.len() as u64,
            writer: meta.writer,
            collections: meta.collections,
            segment_counts: vec![1; collections.len()],
            sections: entries.iter().map(|e| (e.id, e.len, e.crc)).collect(),
        };
        Ok(Snapshot {
            graph,
            collections,
            dict,
            info,
        })
    }

    fn from_bytes_v2(bytes: &[u8]) -> Result<Snapshot, StoreError> {
        let entries = decode_footer(bytes)?;
        let meta_entry = find_section(&entries, SEC_META)?;
        verify_section_crc(bytes, &meta_entry)?;
        let meta = decode_meta(section_payload(bytes, &meta_entry))?;
        let graph_entry = find_section(&entries, SEC_GRAPH)?;
        let dict_entry = find_section(&entries, SEC_DICT)?;
        let mut index_sections = Vec::new();
        let mut segment_counts = Vec::with_capacity(meta.collections.len());
        for (i, name) in meta.collections.iter().enumerate() {
            let lo = segment_section_id(i, 0)?;
            let count = entries
                .iter()
                .filter(|e| (lo..lo + MAX_SEGMENTS_PER_COLLECTION).contains(&e.id))
                .count();
            // A gap in the segment ids (j present without j-1) surfaces
            // below as MissingSection; a stray high id as unknown.
            for j in 0..count {
                let entry = find_section(&entries, segment_section_id(i, j)?)?;
                index_sections.push((format!("{name}[{j}]"), entry));
            }
            segment_counts.push(u32::try_from(count).unwrap_or(u32::MAX));
        }
        for e in &entries {
            let known = e.id == SEC_META
                || e.id == SEC_GRAPH
                || e.id == SEC_DICT
                || index_sections.iter().any(|(_, s)| s.id == e.id);
            if !known {
                return Err(StoreError::SectionTable {
                    detail: format!("unknown section id {:#x}", e.id),
                });
            }
        }
        let (graph, dict, indexes) = decode_world(bytes, graph_entry, dict_entry, &index_sections)?;
        let mut indexes = indexes.into_iter();
        let collections: Vec<(String, Vec<Index>)> = meta
            .collections
            .iter()
            .zip(&segment_counts)
            .map(|(n, &c)| (n.clone(), indexes.by_ref().take(c as usize).collect()))
            .collect();
        let info = SnapshotInfo {
            version: VERSION,
            file_len: bytes.len() as u64,
            writer: meta.writer,
            collections: meta.collections,
            segment_counts,
            sections: entries.iter().map(|e| (e.id, e.len, e.crc)).collect(),
        };
        Ok(Snapshot {
            graph,
            collections,
            dict,
            info,
        })
    }

    /// Reads and decodes a snapshot file (see [`Snapshot::from_bytes`]).
    pub fn load(path: &Path) -> Result<Snapshot, StoreError> {
        let bytes = fs::read(path)?;
        Snapshot::from_bytes(&bytes)
    }

    /// Full verification of a snapshot image — everything
    /// [`Snapshot::from_bytes`] checks, reported as a [`SnapshotInfo`].
    pub fn verify(bytes: &[u8]) -> Result<SnapshotInfo, StoreError> {
        Snapshot::from_bytes(bytes).map(|s| s.info)
    }

    /// Header-only inspection: magic, version, table CRC, section CRCs
    /// and the META section — without decoding graph or index payloads.
    pub fn info(bytes: &[u8]) -> Result<SnapshotInfo, StoreError> {
        let (version, entries) = crate::format::decode_and_verify_sections(bytes)?;
        let meta_entry = find_section(&entries, SEC_META)?;
        let meta = decode_meta(section_payload(bytes, &meta_entry))?;
        let segment_counts = meta
            .collections
            .iter()
            .enumerate()
            .map(|(i, _)| {
                if version == VERSION_V1 {
                    return Ok(1);
                }
                let lo = segment_section_id(i, 0)?;
                let count = entries
                    .iter()
                    .filter(|e| (lo..lo + MAX_SEGMENTS_PER_COLLECTION).contains(&e.id))
                    .count();
                Ok(u32::try_from(count).unwrap_or(u32::MAX))
            })
            .collect::<Result<Vec<u32>, StoreError>>()?;
        Ok(SnapshotInfo {
            version,
            file_len: bytes.len() as u64,
            writer: meta.writer,
            collections: meta.collections,
            segment_counts,
            sections: entries.iter().map(|e| (e.id, e.len, e.crc)).collect(),
        })
    }

    /// The decoded knowledge graph.
    pub fn graph(&self) -> &KbGraph {
        &self.graph
    }

    /// The decoded entity-linker dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Collection names in snapshot order.
    pub fn collections(&self) -> impl Iterator<Item = &str> + '_ {
        self.collections.iter().map(|(n, _)| n.as_str())
    }

    /// The decoded index segments of a collection, in seal order.
    pub fn segments(&self, name: &str) -> Result<&[Index], StoreError> {
        self.collections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, segs)| segs.as_slice())
            .ok_or_else(|| StoreError::NoSuchCollection {
                name: name.to_owned(),
            })
    }

    /// The sole index of a single-segment collection, by name. Errors
    /// with [`StoreError::MultiSegment`] when the collection was
    /// persisted as several segments — use [`Snapshot::searcher`] then.
    pub fn index(&self, name: &str) -> Result<&Index, StoreError> {
        let segments = self.segments(name)?;
        match segments {
            [one] => Ok(one),
            _ => Err(StoreError::MultiSegment {
                name: name.to_owned(),
                segments: segments.len(),
            }),
        }
    }

    /// The sole index of a single-segment collection, by position.
    pub fn index_at(&self, i: usize) -> Option<&Index> {
        match self.collections.get(i).map(|(_, s)| s.as_slice()) {
            Some([one]) => Some(one),
            _ => None,
        }
    }

    /// A [`Searcher`] over all segments of a collection (epoch 0): the
    /// serving view, byte-identical in scoring to the monolithic index
    /// regardless of how the collection was partitioned on disk.
    pub fn searcher(&self, name: &str) -> Result<Searcher, StoreError> {
        let segments = self.segments(name)?;
        let first = segments.first().ok_or_else(|| StoreError::Malformed {
            section: SEC_META,
            detail: format!("collection `{name}` has no segments to search"),
        })?;
        let arcs: Vec<Arc<Segment>> = segments
            .iter()
            .enumerate()
            .map(|(j, idx)| Arc::new(Segment::new(j as u64, idx.clone())))
            .collect();
        Ok(Searcher::new(first.analyzer().clone(), arcs, 0))
    }

    /// File-level metadata captured at decode time.
    pub fn summary(&self) -> &SnapshotInfo {
        &self.info
    }

    /// Decomposes into owned parts (graph, named segment lists,
    /// dictionary) so callers can move them into long-lived service
    /// state.
    pub fn into_parts(self) -> (KbGraph, Vec<(String, Vec<Index>)>, Dictionary) {
        (self.graph, self.collections, self.dict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbgraph::GraphBuilder;
    use searchlite::{Analyzer, IndexBuilder};

    fn toy_index(docs: &[(&str, &str)]) -> Index {
        let mut ib = IndexBuilder::new(Analyzer::english());
        for (id, text) in docs {
            ib.add_document(id, text).expect("unique test ids");
        }
        ib.build()
    }

    fn toy_graph_dict() -> (KbGraph, Dictionary) {
        let mut b = GraphBuilder::new();
        let cable = b.add_article("cable car");
        let funi = b.add_article("funicular");
        let rail = b.add_category("rail transport");
        b.add_article_link(cable, funi);
        b.add_article_link(funi, cable);
        b.add_membership(cable, rail);
        b.add_membership(funi, rail);
        let graph = b.build();
        let mut dict = Dictionary::new();
        dict.add("cable car", cable, 1.0);
        dict.add("funicular", funi, 1.0);
        (graph, dict)
    }

    fn toy_bytes() -> Vec<u8> {
        let (graph, dict) = toy_graph_dict();
        let index = toy_index(&[
            ("d0", "the cable car climbs"),
            ("d1", "a funicular railway"),
        ]);
        let segments = [&index];
        let collections = [("toy", &segments[..])];
        encode_snapshot(&SnapshotContents {
            graph: &graph,
            collections: &collections,
            dict: &dict,
        })
        .unwrap()
    }

    #[test]
    fn full_roundtrip() {
        let bytes = toy_bytes();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.graph().num_articles(), 2);
        assert_eq!(snap.index("toy").unwrap().num_docs(), 2);
        assert!(snap.index("missing").is_err());
        assert_eq!(snap.dict().len(), 2);
        assert_eq!(snap.summary().collections, vec!["toy"]);
        assert_eq!(snap.summary().segment_counts, vec![1]);
        assert_eq!(snap.summary().version, VERSION);
    }

    #[test]
    fn segmented_roundtrip() {
        let (graph, dict) = toy_graph_dict();
        let a = toy_index(&[("d0", "the cable car climbs")]);
        let b = toy_index(&[
            ("d1", "a funicular railway"),
            ("d2", "rail transport history"),
        ]);
        let segments = [&a, &b];
        let collections = [("toy", &segments[..])];
        let bytes = encode_snapshot(&SnapshotContents {
            graph: &graph,
            collections: &collections,
            dict: &dict,
        })
        .unwrap();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.segments("toy").unwrap().len(), 2);
        assert!(matches!(
            snap.index("toy"),
            Err(StoreError::MultiSegment { segments: 2, .. })
        ));
        let searcher = snap.searcher("toy").unwrap();
        assert_eq!(searcher.num_segments(), 2);
        assert_eq!(searcher.num_docs(), 3);
        assert_eq!(snap.summary().segment_counts, vec![2]);
    }

    #[test]
    fn append_matches_one_shot_encode() {
        let (graph, dict) = toy_graph_dict();
        let a = toy_index(&[("d0", "the cable car climbs")]);
        let b = toy_index(&[("d1", "a funicular railway")]);
        let one_seg = [&a];
        let colls_one = [("toy", &one_seg[..])];
        let mut grown = encode_snapshot(&SnapshotContents {
            graph: &graph,
            collections: &colls_one,
            dict: &dict,
        })
        .unwrap();
        let payload_prefix = grown.len() - footer_span(4);
        append_segment(&mut grown, "toy", &b).unwrap();
        let two_seg = [&a, &b];
        let colls_two = [("toy", &two_seg[..])];
        let one_shot = encode_snapshot(&SnapshotContents {
            graph: &graph,
            collections: &colls_two,
            dict: &dict,
        })
        .unwrap();
        assert_eq!(grown, one_shot, "append must reproduce the one-shot bytes");
        // The existing payload bytes were reused untouched.
        assert_eq!(&grown[..payload_prefix], &one_shot[..payload_prefix]);
        assert!(matches!(
            append_segment(&mut grown, "missing", &b),
            Err(StoreError::NoSuchCollection { .. })
        ));
    }

    #[test]
    fn v1_encode_still_decodes() {
        let (graph, dict) = toy_graph_dict();
        let index = toy_index(&[
            ("d0", "the cable car climbs"),
            ("d1", "a funicular railway"),
        ]);
        let segments = [&index];
        let collections = [("toy", &segments[..])];
        let contents = SnapshotContents {
            graph: &graph,
            collections: &collections,
            dict: &dict,
        };
        let bytes = encode_snapshot_v1(&contents).unwrap();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.summary().version, VERSION_V1);
        assert_eq!(snap.index("toy").unwrap().num_docs(), 2);
        assert_eq!(snap.searcher("toy").unwrap().num_docs(), 2);
        // v1 cannot hold a multi-segment collection.
        let a = toy_index(&[("d0", "x")]);
        let two = [&a, &a];
        let colls = [("toy", &two[..])];
        assert!(encode_snapshot_v1(&SnapshotContents {
            graph: &graph,
            collections: &colls,
            dict: &dict,
        })
        .is_err());
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(toy_bytes(), toy_bytes());
    }

    #[test]
    fn verify_and_info_agree() {
        let bytes = toy_bytes();
        let v = Snapshot::verify(&bytes).unwrap();
        let i = Snapshot::info(&bytes).unwrap();
        assert_eq!(v.sections, i.sections);
        assert_eq!(v.collections, i.collections);
        assert_eq!(v.segment_counts, i.segment_counts);
        assert_eq!(v.version, i.version);
        assert_eq!(v.file_len, bytes.len() as u64);
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join("sqe-store-test-atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.snap");
        let (graph, dict) = toy_graph_dict();
        let index = toy_index(&[
            ("d0", "the cable car climbs"),
            ("d1", "a funicular railway"),
        ]);
        let segments = [&index];
        let collections = [("toy", &segments[..])];
        let contents = SnapshotContents {
            graph: &graph,
            collections: &collections,
            dict: &dict,
        };
        let written = write_snapshot(&path, &contents).unwrap();
        assert_eq!(written, fs::metadata(&path).unwrap().len());
        assert_eq!(
            temp_files(&dir, "world.snap"),
            0,
            "temp file must not linger"
        );
        let snap = Snapshot::load(&path).unwrap();
        assert_eq!(snap.graph().num_articles(), 2);
        fs::remove_file(&path).unwrap();
    }

    /// Temp files of `name` left in `dir`.
    fn temp_files(dir: &Path, name: &str) -> usize {
        fs::read_dir(dir)
            .unwrap()
            .filter(|e| {
                let file = e.as_ref().unwrap().file_name();
                let file = file.to_string_lossy();
                file.starts_with(name) && file.ends_with(".tmp")
            })
            .count()
    }

    #[test]
    fn temp_names_are_unique_per_call() {
        let path = Path::new("dir/world.snap");
        let (a, b) = (tmp_path(path), tmp_path(path));
        assert_ne!(a, b);
        assert_eq!(a.parent(), path.parent());
    }

    #[test]
    fn concurrent_writers_to_one_path_never_clobber() {
        let dir = std::env::temp_dir().join(format!("sqe-store-test-race-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.snap");
        let first = toy_bytes();
        let (graph, dict) = toy_graph_dict();
        let index = toy_index(&[("d9", "a different image altogether")]);
        let segments = [&index];
        let collections = [("other", &segments[..])];
        let second = encode_snapshot(&SnapshotContents {
            graph: &graph,
            collections: &collections,
            dict: &dict,
        })
        .unwrap();
        std::thread::scope(|s| {
            for image in [&first, &second] {
                let path = &path;
                s.spawn(move || {
                    for _ in 0..25 {
                        write_snapshot_bytes(path, image).unwrap();
                    }
                });
            }
        });
        let on_disk = fs::read(&path).unwrap();
        assert!(
            on_disk == first || on_disk == second,
            "the file is one whole image"
        );
        Snapshot::load(&path).unwrap();
        assert_eq!(
            temp_files(&dir, "world.snap"),
            0,
            "no temp file left behind"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = toy_bytes();
        // Exhaustive over bytes, one bit per byte: cheap on the toy world
        // and covers prefix, every payload, padding and the footer.
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(
                Snapshot::from_bytes(&bad).is_err(),
                "flip at byte {at} was accepted"
            );
        }
    }
}
