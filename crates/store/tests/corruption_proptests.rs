//! Property-based corruption wall for the snapshot store: no sequence
//! of bit flips, truncations or section-table lies may ever be accepted
//! — and none may panic. Every injected fault must surface as a typed
//! [`StoreError`] from [`Snapshot::from_bytes`]. Both format versions
//! are walled: v2 (footer-led, what the encoder writes today) and v1
//! (front header, the frozen compat path).
//!
//! The unit tests in `snapshot.rs` already prove the *exhaustive*
//! single-bit case for v2; this wall adds randomized multi-byte damage
//! and the adversarial case where the liar also fixes up the table
//! checksum, so only the structural validation stands between the lie
//! and the pipeline.

use std::sync::OnceLock;

use entitylink::Dictionary;
use kbgraph::GraphBuilder;
use proptest::prelude::*;
use searchlite::{Analyzer, Index, IndexBuilder};
use sqe_store::crc32::crc32;
use sqe_store::format::{FOOTER_SUFFIX_LEN, HEADER_PREFIX_LEN, SECTION_ENTRY_LEN};
use sqe_store::{encode_snapshot, encode_snapshot_v1, Snapshot, SnapshotContents};

/// A small but fully populated world: two articles, a category, two
/// collections (one of them two segments in v2), a linker dictionary.
/// Encoded once per version and shared.
fn toy_parts() -> (kbgraph::KbGraph, Vec<Index>, Dictionary) {
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
    ib.add_document("d0", "the cable car climbs the hill")
        .expect("unique ids");
    ib.add_document("d1", "a funicular railway in the alps")
        .expect("unique ids");
    let idx_a = ib.build();
    let mut ib = IndexBuilder::new(Analyzer::english());
    ib.add_document("e0", "history of rail transport")
        .expect("unique ids");
    let idx_b = ib.build();

    let mut dict = Dictionary::new();
    dict.add("cable car", cable, 1.0);
    dict.add("funicular", funi, 1.0);
    (graph, vec![idx_a, idx_b], dict)
}

fn valid_bytes_v2() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (graph, indexes, dict) = toy_parts();
        // "alpha" is two segments: the v2 wall must cover the
        // per-segment section layout, not just the monolithic shape.
        let alpha = [&indexes[0], &indexes[1]];
        let beta = [&indexes[1]];
        let collections = [("alpha", &alpha[..]), ("beta", &beta[..])];
        encode_snapshot(&SnapshotContents {
            graph: &graph,
            collections: &collections,
            dict: &dict,
        })
        .expect("the valid toy world encodes")
    })
}

fn valid_bytes_v1() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (graph, indexes, dict) = toy_parts();
        let alpha = [&indexes[0]];
        let beta = [&indexes[1]];
        let collections = [("alpha", &alpha[..]), ("beta", &beta[..])];
        encode_snapshot_v1(&SnapshotContents {
            graph: &graph,
            collections: &collections,
            dict: &dict,
        })
        .expect("the valid toy world encodes as v1")
    })
}

/// Number of sections in a v1 snapshot's front table.
fn v1_section_count(bytes: &[u8]) -> usize {
    u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize
}

/// Recomputes the v1 header CRC over `[0, table_end)` and patches it
/// in, so a table lie survives the checksum and must be caught
/// structurally.
fn fix_v1_header_crc(bytes: &mut [u8]) {
    let table_end = HEADER_PREFIX_LEN + v1_section_count(bytes) * SECTION_ENTRY_LEN;
    let crc = crc32(&bytes[..table_end]);
    bytes[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
}

/// `(footer_start, section count)` of a v2 image.
fn v2_footer(bytes: &[u8]) -> (usize, usize) {
    let end = bytes.len();
    let count = u32::from_le_bytes([
        bytes[end - 16],
        bytes[end - 15],
        bytes[end - 14],
        bytes[end - 13],
    ]) as usize;
    (end - (count * SECTION_ENTRY_LEN + FOOTER_SUFFIX_LEN), count)
}

/// Recomputes the v2 footer CRC over the table + count and patches it
/// in — the strongest checksum-clean lie about the footer.
fn fix_v2_footer_crc(bytes: &mut [u8]) {
    let (start, _) = v2_footer(bytes);
    let end = bytes.len();
    let crc = crc32(&bytes[start..end - 12]);
    bytes[end - 12..end - 8].copy_from_slice(&crc.to_le_bytes());
}

proptest! {
    /// Random bit flips anywhere in a v2 file are always rejected.
    #[test]
    fn v2_random_bit_flip_rejected(at in 0usize..1 << 24, bit in 0u8..8) {
        let bytes = valid_bytes_v2();
        let mut bad = bytes.to_vec();
        let at = at % bad.len();
        bad[at] ^= 1 << bit;
        prop_assert!(
            Snapshot::from_bytes(&bad).is_err(),
            "bit {bit} of byte {at} flipped and the v2 snapshot was accepted"
        );
    }

    /// Random bit flips anywhere in a v1 file are always rejected.
    #[test]
    fn v1_random_bit_flip_rejected(at in 0usize..1 << 24, bit in 0u8..8) {
        let bytes = valid_bytes_v1();
        let mut bad = bytes.to_vec();
        let at = at % bad.len();
        bad[at] ^= 1 << bit;
        prop_assert!(
            Snapshot::from_bytes(&bad).is_err(),
            "bit {bit} of byte {at} flipped and the v1 snapshot was accepted"
        );
    }

    /// A handful of random byte overwrites is always rejected (as long
    /// as at least one byte actually changed).
    #[test]
    fn v2_random_byte_smear_rejected(
        edits in prop::collection::vec((0usize..1 << 24, 0u8..=255), 1..8),
    ) {
        let bytes = valid_bytes_v2();
        let mut bad = bytes.to_vec();
        for (at, val) in edits {
            bad[at % bytes.len()] = val;
        }
        prop_assume!(bad != bytes);
        prop_assert!(Snapshot::from_bytes(&bad).is_err());
    }

    /// Every proper prefix of a v2 file is rejected: the footer must
    /// sit exactly at the end, so truncation anywhere is detected.
    #[test]
    fn v2_truncation_rejected(cut in 0usize..1 << 24) {
        let bytes = valid_bytes_v2();
        let keep = cut % bytes.len();
        prop_assert!(
            Snapshot::from_bytes(&bytes[..keep]).is_err(),
            "truncation to {keep} of {} bytes was accepted",
            bytes.len()
        );
    }

    /// Every proper prefix of a v1 file is rejected too.
    #[test]
    fn v1_truncation_rejected(cut in 0usize..1 << 24) {
        let bytes = valid_bytes_v1();
        let keep = cut % bytes.len();
        prop_assert!(Snapshot::from_bytes(&bytes[..keep]).is_err());
    }

    /// Trailing garbage is rejected: a v2 file must end with the footer
    /// magic and the table must tile the payload region exactly.
    #[test]
    fn v2_trailing_garbage_rejected(tail in prop::collection::vec(0u8..=255, 1..64)) {
        let bytes = valid_bytes_v2();
        let mut bad = bytes.to_vec();
        bad.extend_from_slice(&tail);
        prop_assert!(Snapshot::from_bytes(&bad).is_err());
    }

    /// Even re-appending the original footer after garbage is rejected:
    /// the tiling check pins every payload byte.
    #[test]
    fn v2_garbage_before_refooter_rejected(tail in prop::collection::vec(1u8..=255, 1..32)) {
        let bytes = valid_bytes_v2();
        let (start, _) = v2_footer(bytes);
        let mut bad = bytes[..start].to_vec();
        bad.extend_from_slice(&tail);
        bad.extend_from_slice(&bytes[start..]);
        prop_assert!(Snapshot::from_bytes(&bad).is_err());
    }

    /// A v2 footer-table lie with a *fixed-up footer checksum* is still
    /// rejected: only the structural checks (known ids, uniqueness,
    /// alignment, contiguity, exact tiling, payload CRCs) stand.
    #[test]
    fn v2_checksum_clean_table_lie_rejected(
        entry in 0usize..1 << 8,
        field_byte in 0usize..SECTION_ENTRY_LEN,
        bit in 0u8..8,
    ) {
        let bytes = valid_bytes_v2();
        let (start, count) = v2_footer(bytes);
        let mut bad = bytes.to_vec();
        let entry = entry % count;
        let at = start + entry * SECTION_ENTRY_LEN + field_byte;
        bad[at] ^= 1 << bit;
        fix_v2_footer_crc(&mut bad);
        prop_assert!(
            Snapshot::from_bytes(&bad).is_err(),
            "entry {entry} byte {field_byte} bit {bit}: checksum-clean v2 lie accepted"
        );
    }

    /// A v1 table lie with a fixed-up header checksum is still rejected.
    #[test]
    fn v1_checksum_clean_table_lie_rejected(
        entry in 0usize..1 << 8,
        field_byte in 0usize..SECTION_ENTRY_LEN,
        bit in 0u8..8,
    ) {
        let bytes = valid_bytes_v1();
        let mut bad = bytes.to_vec();
        let entry = entry % v1_section_count(bytes);
        let at = HEADER_PREFIX_LEN + entry * SECTION_ENTRY_LEN + field_byte;
        bad[at] ^= 1 << bit;
        fix_v1_header_crc(&mut bad);
        prop_assert!(
            Snapshot::from_bytes(&bad).is_err(),
            "entry {entry} byte {field_byte} bit {bit}: checksum-clean v1 lie accepted"
        );
    }

    /// A lie about the v2 prefix — version or reserved word — is always
    /// rejected, even though neither is covered by the footer CRC: the
    /// version gate and the zero-reserved rule pin them.
    #[test]
    fn v2_prefix_lie_rejected(at in 8usize..16, bit in 0u8..8) {
        let bytes = valid_bytes_v2();
        let mut bad = bytes.to_vec();
        bad[at] ^= 1 << bit;
        prop_assert!(Snapshot::from_bytes(&bad).is_err());
    }
}

#[test]
fn empty_and_tiny_inputs_are_rejected_not_panics() {
    for len in 0..64usize {
        let zeros = vec![0u8; len];
        assert!(
            Snapshot::from_bytes(&zeros).is_err(),
            "{len} zero bytes accepted"
        );
    }
    assert!(Snapshot::from_bytes(b"SQESNAP\0").is_err());
}

#[test]
fn unknown_section_id_with_clean_checksums_is_rejected_v2() {
    // Rewrite the DICT section id (0x3) in the footer to an id no
    // reader knows, keep its payload and CRC intact, and fix the footer
    // CRC: the file is checksum-perfect yet must be rejected, because
    // accepting unknown sections would let a newer writer smuggle state
    // past this reader.
    let bytes = valid_bytes_v2().to_vec();
    let (start, count) = v2_footer(&bytes);
    let mut bad = bytes.clone();
    let mut patched = false;
    for e in 0..count {
        let at = start + e * SECTION_ENTRY_LEN;
        let id = u32::from_le_bytes([bad[at], bad[at + 1], bad[at + 2], bad[at + 3]]);
        if id == 0x3 {
            bad[at..at + 4].copy_from_slice(&0xDEAD_u32.to_le_bytes());
            patched = true;
        }
    }
    assert!(patched, "toy snapshot must contain the DICT section");
    fix_v2_footer_crc(&mut bad);
    assert!(Snapshot::from_bytes(&bad).is_err());
}

#[test]
fn unknown_section_id_with_clean_checksums_is_rejected_v1() {
    let bytes = valid_bytes_v1().to_vec();
    let n = v1_section_count(&bytes);
    let mut bad = bytes.clone();
    let mut patched = false;
    for e in 0..n {
        let at = HEADER_PREFIX_LEN + e * SECTION_ENTRY_LEN;
        let id = u32::from_le_bytes([bad[at], bad[at + 1], bad[at + 2], bad[at + 3]]);
        if id == 0x3 {
            bad[at..at + 4].copy_from_slice(&0xDEAD_u32.to_le_bytes());
            patched = true;
        }
    }
    assert!(patched, "toy snapshot must contain the DICT section");
    fix_v1_header_crc(&mut bad);
    assert!(Snapshot::from_bytes(&bad).is_err());
}
