//! Byte-stability wall for snapshot formats v1 and v2.
//!
//! Guarantees beyond the unit tests:
//!
//! 1. **Canonical encoding at scale** — on a full synthetic test bed,
//!    encoding is a pure function of the contents: encoding twice, and
//!    re-encoding the *decoded* world, both reproduce the original
//!    bytes exactly. This is what makes snapshot files diffable and
//!    content-addressable.
//! 2. **Format freeze** — a fixed toy world must hash to a pinned
//!    golden checksum, per format version. If a pin fails, the on-disk
//!    format changed: bump [`sqe_store::format::VERSION`], keep a
//!    decode path for every older version, and only then update the
//!    constant.
//! 3. **v1 fixture compatibility** — the committed binary snapshot in
//!    `tests/golden/toy_v1.snap` (written by the v1 encoder at the time
//!    v2 was introduced) must keep loading and verifying forever.

use std::path::PathBuf;

use entitylink::Dictionary;
use kbgraph::{GraphBuilder, KbGraph};
use searchlite::{Analyzer, Index, IndexBuilder};
use sqe_store::crc32::crc32;
use sqe_store::{encode_snapshot, encode_snapshot_v1, Snapshot, SnapshotContents};
use synthwiki::{TestBed, TestBedConfig};

fn encode(graph: &KbGraph, named: &[(&str, &[&Index])], dict: &Dictionary) -> Vec<u8> {
    encode_snapshot(&SnapshotContents {
        graph,
        collections: named,
        dict,
    })
    .expect("world encodes")
}

fn toy_world() -> (KbGraph, Index, Dictionary) {
    let mut b = GraphBuilder::new();
    let cable = b.add_article("cable car");
    let funi = b.add_article("funicular");
    let rail = b.add_category("rail transport");
    b.add_article_link(cable, funi);
    b.add_article_link(funi, cable);
    b.add_membership(cable, rail);
    b.add_membership(funi, rail);
    let graph = b.build();
    let mut ib = IndexBuilder::new(Analyzer::english());
    ib.add_document("d0", "the cable car climbs")
        .expect("unique test ids");
    ib.add_document("d1", "a funicular railway")
        .expect("unique test ids");
    let index = ib.build();
    let mut dict = Dictionary::new();
    dict.add("cable car", cable, 1.0);
    dict.add("funicular", funi, 1.0);
    (graph, index, dict)
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/toy_v1.snap")
}

#[test]
fn testbed_snapshot_bytes_are_stable_and_canonical() {
    let bed = TestBed::generate(&TestBedConfig::small());
    let indexes: Vec<Index> = bed
        .collections
        .iter()
        .map(|coll| {
            let mut b = IndexBuilder::new(Analyzer::english());
            for d in &coll.docs {
                b.add_document(&d.id, &d.text)
                    .expect("test bed ids are unique");
            }
            b.build()
        })
        .collect();
    let segment_slices: Vec<Vec<&Index>> = indexes.iter().map(|i| vec![i]).collect();
    let named: Vec<(&str, &[&Index])> = bed
        .collections
        .iter()
        .map(|c| c.name.as_str())
        .zip(segment_slices.iter().map(Vec::as_slice))
        .collect();
    let mut dict = Dictionary::new();
    dict.extend(bed.kb.linker_entries(&bed.space));

    let first = encode(&bed.kb.graph, &named, &dict);
    let second = encode(&bed.kb.graph, &named, &dict);
    assert_eq!(
        first, second,
        "encoding the same world twice must be byte-identical"
    );

    // Decode, then re-encode the decoded structures: still the same
    // bytes, so decode is lossless and encode is canonical (independent
    // of whether the inputs were freshly built or themselves loaded).
    let (graph, owned, dict2) = Snapshot::from_bytes(&first)
        .expect("snapshot decodes")
        .into_parts();
    let reslices: Vec<Vec<&Index>> = owned
        .iter()
        .map(|(_, segs)| segs.iter().collect())
        .collect();
    let renamed: Vec<(&str, &[&Index])> = owned
        .iter()
        .map(|(n, _)| n.as_str())
        .zip(reslices.iter().map(Vec::as_slice))
        .collect();
    let third = encode(&graph, &renamed, &dict2);
    assert_eq!(
        first, third,
        "re-encoding the decoded world must reproduce the original bytes"
    );
}

#[test]
fn golden_toy_snapshot_checksums_are_pinned() {
    let (graph, index, dict) = toy_world();
    let segments = [&index];
    let named = [("toy", &segments[..])];
    let contents = SnapshotContents {
        graph: &graph,
        collections: &named,
        dict: &dict,
    };

    // Pinned v1 bytes: the frozen encoder must keep reproducing the
    // exact image that shipped as format v1.
    let v1 = encode_snapshot_v1(&contents).expect("v1 encodes");
    assert_eq!(
        crc32(&v1),
        0xEF43_C309,
        "v1 encoder drifted from the pinned golden bytes ({} bytes, crc {:#010x})",
        v1.len(),
        crc32(&v1)
    );

    // Pinned v2 bytes. A mismatch means the byte layout drifted — that
    // is a format change, not a test to update casually.
    let v2 = encode_snapshot(&contents).expect("v2 encodes");
    assert_eq!(
        crc32(&v2),
        0xC8A3_BC95,
        "v2 snapshot format drifted from the pinned golden bytes \
         ({} bytes, crc {:#010x})",
        v2.len(),
        crc32(&v2)
    );
}

#[test]
fn committed_v1_fixture_still_loads_and_verifies() {
    let bytes = std::fs::read(fixture_path())
        .expect("tests/golden/toy_v1.snap is committed; regenerate with the ignored test");
    let info = Snapshot::verify(&bytes).expect("v1 fixture verifies");
    assert_eq!(info.version, sqe_store::format::VERSION_V1);
    assert_eq!(info.collections, vec!["toy"]);
    assert_eq!(info.segment_counts, vec![1]);

    let snap = Snapshot::from_bytes(&bytes).expect("v1 fixture decodes");
    assert_eq!(snap.graph().num_articles(), 2);
    assert_eq!(snap.index("toy").expect("single segment").num_docs(), 2);
    let searcher = snap.searcher("toy").expect("searcher over the v1 segment");
    assert_eq!(searcher.num_docs(), 2);

    // The fixture is exactly what today's frozen v1 encoder produces,
    // so the generator below can always recreate it.
    let (graph, index, dict) = toy_world();
    let segments = [&index];
    let named = [("toy", &segments[..])];
    let fresh = encode_snapshot_v1(&SnapshotContents {
        graph: &graph,
        collections: &named,
        dict: &dict,
    })
    .expect("v1 encodes");
    assert_eq!(
        bytes, fresh,
        "fixture bytes must match the frozen v1 encoder"
    );
}

/// Regenerates the committed fixture. Run explicitly with
/// `cargo test -p sqe-store --test golden_snapshot -- --ignored`.
#[test]
#[ignore = "writes the committed fixture; run manually when (re)creating it"]
fn generate_v1_golden_fixture() {
    let (graph, index, dict) = toy_world();
    let segments = [&index];
    let named = [("toy", &segments[..])];
    let bytes = encode_snapshot_v1(&SnapshotContents {
        graph: &graph,
        collections: &named,
        dict: &dict,
    })
    .expect("v1 encodes");
    std::fs::create_dir_all(fixture_path().parent().expect("fixture dir")).expect("mkdir");
    std::fs::write(fixture_path(), &bytes).expect("write fixture");
}
