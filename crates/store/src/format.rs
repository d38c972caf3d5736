//! On-disk layout of a snapshot file, versions 1 and 2.
//!
//! **Version 1** (header-led; still decoded, no longer written):
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     8  magic  "SQESNAP\0"
//!      8     4  format version (u32 LE) = 1
//!     12     4  section count N (u32 LE)
//!     16  24*N  section table: {id u32, crc32 u32, offset u64, len u64}
//! 16+24N     4  header crc32 over bytes [0, 16+24N)
//!      …     …  zero padding to the next 8-byte boundary
//!      …     …  section payloads, each 8-byte aligned, contiguous
//! ```
//!
//! **Version 2** (footer-led, append-friendly — the section table moves
//! to the *end* of the file so sealing a new segment appends one payload
//! and rewrites only the footer, never the existing payload bytes):
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     8  magic  "SQESNAP\0"
//!      8     4  format version (u32 LE) = 2
//!     12     4  reserved, must be zero (pads payloads to 8 bytes)
//!     16     …  section payloads, each 8-byte aligned, contiguous
//!      F  24*N  section table: {id u32, crc32 u32, offset u64, len u64}
//!  F+24N     4  section count N (u32 LE)
//!  F+24N+4   4  footer crc32 over bytes [F, F+24N+4)
//!  F+24N+8   8  footer magic "SQEFOOT\0"
//! ```
//!
//! In both versions every byte of the file is covered by a checksum or
//! required to be an exact constant: the header/footer CRC covers the
//! section table; each section CRC covers its payload; padding and the
//! v2 reserved word must be zero; and the sections must tile the file
//! exactly — so any single-bit flip anywhere is detected. Offsets are
//! absolute. All integers are little-endian.

use crate::crc32::crc32;
use crate::error::StoreError;

/// File magic: identifies a snapshot regardless of extension.
pub const MAGIC: [u8; 8] = *b"SQESNAP\0";

/// Magic terminating a v2 footer; locating it from the end of the file
/// is how a reader finds the section table without a front header.
pub const FOOTER_MAGIC: [u8; 8] = *b"SQEFOOT\0";

/// Current format version (footer-led, per-segment index sections).
/// Readers reject newer files with [`StoreError::UnsupportedVersion`];
/// older versions are decoded by dedicated paths kept alive per the
/// compat policy in DESIGN.md §10.
pub const VERSION: u32 = 2;

/// The original header-led format. Still fully decodable; the golden
/// fixture in `tests/golden/` pins this path forever.
pub const VERSION_V1: u32 = 1;

/// Section id of the snapshot metadata (writer string, collection names).
pub const SEC_META: u32 = 0x1;
/// Section id of the knowledge graph (titles + six CSRs).
pub const SEC_GRAPH: u32 = 0x2;
/// Section id of the entity-linker dictionary.
pub const SEC_DICT: u32 = 0x3;
/// Base section id of per-collection inverted indexes. In v1 collection
/// `i` is the single section `BASE + i`; in v2 collection `i` owns the
/// id range `[BASE·(i+1), BASE·(i+2))` with one section per segment
/// (see [`segment_section_id`]).
pub const SEC_INDEX_BASE: u32 = 0x100;

/// Maximum number of segment sections per collection in v2 (the width
/// of each collection's id range).
pub const MAX_SEGMENTS_PER_COLLECTION: u32 = SEC_INDEX_BASE;

/// First payload byte of a v2 file (magic + version + reserved word).
pub const PAYLOAD_START_V2: usize = 16;

/// Fixed tail of a v2 footer: count + footer CRC + footer magic.
pub const FOOTER_SUFFIX_LEN: usize = 16;

/// Section id of segment `j` of collection `i` in a v2 snapshot.
pub fn segment_section_id(collection: usize, segment: usize) -> Result<u32, StoreError> {
    let c = u32::try_from(collection)
        .ok()
        .and_then(|c| c.checked_add(1))
        .and_then(|c| c.checked_mul(SEC_INDEX_BASE));
    let s = u32::try_from(segment)
        .ok()
        .filter(|&s| s < MAX_SEGMENTS_PER_COLLECTION);
    match (c, s) {
        (Some(c), Some(s)) => Ok(c + s),
        _ => Err(StoreError::SectionTable {
            detail: format!(
                "collection {collection} segment {segment} exceeds the v2 id space \
                 ({MAX_SEGMENTS_PER_COLLECTION} segments per collection)"
            ),
        }),
    }
}

/// Fixed header prefix: magic + version + section count.
pub const HEADER_PREFIX_LEN: usize = 16;
/// Serialized size of one section-table entry.
pub const SECTION_ENTRY_LEN: usize = 24;
/// Upper bound on the section count — far above any real snapshot, low
/// enough that a corrupt count cannot drive a huge allocation.
pub const MAX_SECTIONS: u32 = 4096;

/// One row of the section table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint:allow(persist-types-derive-serde) — hand-serialized in the binary header
pub struct SectionEntry {
    /// Section id (`SEC_*`).
    pub id: u32,
    /// CRC-32 of the payload bytes.
    pub crc: u32,
    /// Absolute file offset of the payload (8-byte aligned).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
}

/// Rounds `n` up to the next multiple of 8.
pub fn align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

/// Serializes the v1 header (magic, version, table, header CRC, padding
/// to the first payload offset) for the given entries. Kept alive for
/// the golden fixture generator and interop tests.
pub fn encode_header(entries: &[SectionEntry]) -> Result<Vec<u8>, StoreError> {
    let count = section_count_checked(entries.len())?;
    let table_end = HEADER_PREFIX_LEN + entries.len() * SECTION_ENTRY_LEN;
    let mut out = Vec::with_capacity(align8(table_end + 4));
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION_V1.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    for e in entries {
        out.extend_from_slice(&e.id.to_le_bytes());
        out.extend_from_slice(&e.crc.to_le_bytes());
        out.extend_from_slice(&e.offset.to_le_bytes());
        out.extend_from_slice(&e.len.to_le_bytes());
    }
    let header_crc = crc32(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());
    out.resize(align8(out.len()), 0);
    Ok(out)
}

fn section_count_checked(count: usize) -> Result<u32, StoreError> {
    u32::try_from(count)
        .ok()
        .filter(|&c| c <= MAX_SECTIONS)
        .ok_or_else(|| StoreError::SectionTable {
            detail: format!("{count} sections exceed the format maximum {MAX_SECTIONS}"),
        })
}

/// The 16-byte v2 file prefix: magic, version 2, zero reserved word.
pub fn encode_prefix_v2() -> Vec<u8> {
    let mut out = Vec::with_capacity(PAYLOAD_START_V2);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out
}

/// Serializes the v2 footer (table, count, footer CRC, footer magic)
/// for the given entries.
pub fn encode_footer(entries: &[SectionEntry]) -> Result<Vec<u8>, StoreError> {
    let count = section_count_checked(entries.len())?;
    let mut out = Vec::with_capacity(footer_span(entries.len()));
    for e in entries {
        out.extend_from_slice(&e.id.to_le_bytes());
        out.extend_from_slice(&e.crc.to_le_bytes());
        out.extend_from_slice(&e.offset.to_le_bytes());
        out.extend_from_slice(&e.len.to_le_bytes());
    }
    out.extend_from_slice(&count.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&FOOTER_MAGIC);
    Ok(out)
}

/// Total size of a v2 footer for `count` sections.
pub fn footer_span(count: usize) -> usize {
    count * SECTION_ENTRY_LEN + FOOTER_SUFFIX_LEN
}

/// Checks the magic and returns the format version, rejecting versions
/// this build cannot decode.
pub fn read_version(bytes: &[u8]) -> Result<u32, StoreError> {
    let magic: &[u8] = bytes.get(0..8).ok_or(StoreError::Truncated {
        needed: HEADER_PREFIX_LEN,
        available: bytes.len(),
    })?;
    if magic != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(StoreError::BadMagic { found });
    }
    let version = read_u32_at(bytes, 8)?;
    if version != VERSION_V1 && version != VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    Ok(version)
}

/// Total file size occupied by the header for `count` sections,
/// including the trailing zero padding to the first payload offset.
pub fn header_span(count: usize) -> usize {
    align8(HEADER_PREFIX_LEN + count * SECTION_ENTRY_LEN + 4)
}

fn read_u32_at(bytes: &[u8], at: usize) -> Result<u32, StoreError> {
    match bytes.get(at..at + 4) {
        Some(b) => {
            let mut le = [0u8; 4];
            le.copy_from_slice(b);
            Ok(u32::from_le_bytes(le))
        }
        None => Err(StoreError::Truncated {
            needed: at + 4,
            available: bytes.len(),
        }),
    }
}

fn read_u64_at(bytes: &[u8], at: usize) -> Result<u64, StoreError> {
    match bytes.get(at..at + 8) {
        Some(b) => {
            let mut le = [0u8; 8];
            le.copy_from_slice(b);
            Ok(u64::from_le_bytes(le))
        }
        None => Err(StoreError::Truncated {
            needed: at + 8,
            available: bytes.len(),
        }),
    }
}

/// Parses and fully validates the header against the file bytes:
/// magic, version, header CRC, then — for every table row — alignment,
/// bounds, contiguity, zero padding and payload CRC. On success every
/// section's payload slice can be taken at face value.
pub fn decode_and_verify_header(bytes: &[u8]) -> Result<Vec<SectionEntry>, StoreError> {
    let entries = decode_header(bytes)?;
    for e in &entries {
        verify_section_crc(bytes, e)?;
    }
    Ok(entries)
}

/// Verifies one section's payload CRC against the table entry. The
/// entry must come from [`decode_header`] (bounds already validated).
/// Split out so loaders can run the per-section scans on parallel
/// decoder threads instead of one serial pass.
pub fn verify_section_crc(bytes: &[u8], e: &SectionEntry) -> Result<(), StoreError> {
    let computed = crc32(section_payload(bytes, e));
    if computed != e.crc {
        return Err(StoreError::SectionChecksum {
            id: e.id,
            stored: e.crc,
            computed,
        });
    }
    Ok(())
}

/// Parses and structurally validates the header: magic, version, header
/// CRC, and — for every table row — alignment, bounds, contiguity, zero
/// padding and the exact-file-end rule. Payload CRCs are NOT checked
/// here; callers must run [`verify_section_crc`] on every section they
/// read (or use [`decode_and_verify_header`], which checks them all).
pub fn decode_header(bytes: &[u8]) -> Result<Vec<SectionEntry>, StoreError> {
    let magic: &[u8] = bytes.get(0..8).ok_or(StoreError::Truncated {
        needed: HEADER_PREFIX_LEN,
        available: bytes.len(),
    })?;
    if magic != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(StoreError::BadMagic { found });
    }
    let version = read_u32_at(bytes, 8)?;
    if version != VERSION_V1 {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let count = read_u32_at(bytes, 12)?;
    if count > MAX_SECTIONS {
        return Err(StoreError::SectionTable {
            detail: format!("section count {count} exceeds the format maximum {MAX_SECTIONS}"),
        });
    }
    let count = count as usize;
    let table_end = HEADER_PREFIX_LEN + count * SECTION_ENTRY_LEN;
    let crc_stored = read_u32_at(bytes, table_end)?;
    let header_bytes = bytes.get(..table_end).ok_or(StoreError::Truncated {
        needed: table_end,
        available: bytes.len(),
    })?;
    let crc_computed = crc32(header_bytes);
    if crc_stored != crc_computed {
        return Err(StoreError::HeaderChecksum {
            stored: crc_stored,
            computed: crc_computed,
        });
    }

    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let at = HEADER_PREFIX_LEN + i * SECTION_ENTRY_LEN;
        entries.push(SectionEntry {
            id: read_u32_at(bytes, at)?,
            crc: read_u32_at(bytes, at + 4)?,
            offset: read_u64_at(bytes, at + 8)?,
            len: read_u64_at(bytes, at + 16)?,
        });
    }
    let mut ids: Vec<u32> = entries.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(StoreError::SectionTable {
            detail: "duplicate section id in table".to_owned(),
        });
    }

    // Sections must tile the file: first at the aligned header end, each
    // next at the aligned end of the previous, padding zero, no trailing
    // bytes. This leaves no byte of the file outside checksum coverage.
    let mut expected_offset = header_span(count);
    for (i, e) in entries.iter().enumerate() {
        let offset = usize::try_from(e.offset).map_err(|_| StoreError::SectionTable {
            detail: format!("section {i} offset {} overflows this platform", e.offset),
        })?;
        let len = usize::try_from(e.len).map_err(|_| StoreError::SectionTable {
            detail: format!("section {i} length {} overflows this platform", e.len),
        })?;
        if offset != expected_offset {
            return Err(StoreError::SectionTable {
                detail: format!(
                    "section {i} (id {:#x}) at offset {offset}, expected {expected_offset}",
                    e.id
                ),
            });
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| StoreError::SectionTable {
                detail: format!("section {i} extent overflows"),
            })?;
        if end > bytes.len() {
            return Err(StoreError::Truncated {
                needed: end,
                available: bytes.len(),
            });
        }
        let padded_end = align8(end);
        let pad = bytes.get(end..padded_end.min(bytes.len())).unwrap_or(&[]);
        if pad.iter().any(|&b| b != 0) {
            return Err(StoreError::SectionTable {
                detail: format!("nonzero padding after section {i} (id {:#x})", e.id),
            });
        }
        expected_offset = padded_end;
    }
    // The padding region between the header CRC and the first section is
    // produced zeroed by encode_header; verify it so no byte escapes.
    let prefix_pad_start = HEADER_PREFIX_LEN + count * SECTION_ENTRY_LEN + 4;
    let prefix_pad_end = header_span(count).min(bytes.len());
    if bytes
        .get(prefix_pad_start..prefix_pad_end)
        .unwrap_or(&[])
        .iter()
        .any(|&b| b != 0)
    {
        return Err(StoreError::SectionTable {
            detail: "nonzero padding after header checksum".to_owned(),
        });
    }
    // The final section's alignment padding may be absent at EOF; accept
    // a file that ends at the unpadded end of the last section too.
    let unpadded_end = entries.last().map_or(header_span(count), |e| {
        (e.offset as usize).saturating_add(e.len as usize)
    });
    if bytes.len() != expected_offset && bytes.len() != unpadded_end {
        return Err(StoreError::SectionTable {
            detail: format!(
                "file length {} disagrees with section table end {unpadded_end}",
                bytes.len()
            ),
        });
    }
    Ok(entries)
}

/// Parses and structurally validates a v2 footer: prefix magic/version,
/// zero reserved word, footer magic, footer CRC, and — for every table
/// row — alignment, bounds, contiguity and zero padding, with the
/// sections required to tile the file exactly from
/// [`PAYLOAD_START_V2`] to the footer. Payload CRCs are NOT checked
/// here; callers must run [`verify_section_crc`] on every section they
/// read (or use [`decode_and_verify_sections`]).
pub fn decode_footer(bytes: &[u8]) -> Result<Vec<SectionEntry>, StoreError> {
    let version = read_version(bytes)?;
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let reserved = bytes.get(12..16).ok_or(StoreError::Truncated {
        needed: PAYLOAD_START_V2,
        available: bytes.len(),
    })?;
    if reserved.iter().any(|&b| b != 0) {
        return Err(StoreError::SectionTable {
            detail: "nonzero reserved word in the v2 prefix".to_owned(),
        });
    }
    let min = PAYLOAD_START_V2 + FOOTER_SUFFIX_LEN;
    if bytes.len() < min {
        return Err(StoreError::Truncated {
            needed: min,
            available: bytes.len(),
        });
    }
    let end = bytes.len();
    if bytes[end - 8..] != FOOTER_MAGIC {
        return Err(StoreError::SectionTable {
            detail: "footer magic missing at end of file".to_owned(),
        });
    }
    let count = read_u32_at(bytes, end - 16)?;
    if count > MAX_SECTIONS {
        return Err(StoreError::SectionTable {
            detail: format!("section count {count} exceeds the format maximum {MAX_SECTIONS}"),
        });
    }
    let count = count as usize;
    let footer_start = end
        .checked_sub(footer_span(count))
        .filter(|&s| s >= PAYLOAD_START_V2)
        .ok_or_else(|| StoreError::SectionTable {
            detail: format!("footer for {count} sections does not fit in a {end}-byte file"),
        })?;
    let crc_stored = read_u32_at(bytes, end - 12)?;
    let crc_computed = crc32(&bytes[footer_start..end - 12]);
    if crc_stored != crc_computed {
        return Err(StoreError::HeaderChecksum {
            stored: crc_stored,
            computed: crc_computed,
        });
    }

    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let at = footer_start + i * SECTION_ENTRY_LEN;
        entries.push(SectionEntry {
            id: read_u32_at(bytes, at)?,
            crc: read_u32_at(bytes, at + 4)?,
            offset: read_u64_at(bytes, at + 8)?,
            len: read_u64_at(bytes, at + 16)?,
        });
    }
    let mut ids: Vec<u32> = entries.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(StoreError::SectionTable {
            detail: "duplicate section id in table".to_owned(),
        });
    }

    // Sections must tile the payload region exactly: first at offset 16,
    // each next at the aligned end of the previous, padding zero, and the
    // last aligned end meeting the footer. No byte escapes coverage.
    let mut expected_offset = PAYLOAD_START_V2;
    for (i, e) in entries.iter().enumerate() {
        let offset = usize::try_from(e.offset).map_err(|_| StoreError::SectionTable {
            detail: format!("section {i} offset {} overflows this platform", e.offset),
        })?;
        let len = usize::try_from(e.len).map_err(|_| StoreError::SectionTable {
            detail: format!("section {i} length {} overflows this platform", e.len),
        })?;
        if offset != expected_offset {
            return Err(StoreError::SectionTable {
                detail: format!(
                    "section {i} (id {:#x}) at offset {offset}, expected {expected_offset}",
                    e.id
                ),
            });
        }
        let payload_end = offset
            .checked_add(len)
            .ok_or_else(|| StoreError::SectionTable {
                detail: format!("section {i} extent overflows"),
            })?;
        if payload_end > footer_start {
            return Err(StoreError::SectionTable {
                detail: format!(
                    "section {i} (id {:#x}) runs past the footer at {footer_start}",
                    e.id
                ),
            });
        }
        let padded_end = align8(payload_end);
        let pad = bytes
            .get(payload_end..padded_end.min(footer_start))
            .unwrap_or(&[]);
        if pad.iter().any(|&b| b != 0) {
            return Err(StoreError::SectionTable {
                detail: format!("nonzero padding after section {i} (id {:#x})", e.id),
            });
        }
        expected_offset = padded_end;
    }
    if expected_offset != footer_start {
        return Err(StoreError::SectionTable {
            detail: format!(
                "sections end at {expected_offset} but the footer starts at {footer_start}"
            ),
        });
    }
    Ok(entries)
}

/// Version-dispatching section-table parse: v1 front header or v2
/// footer, structurally validated either way. Payload CRCs are NOT
/// checked; see [`decode_and_verify_sections`].
pub fn decode_sections(bytes: &[u8]) -> Result<(u32, Vec<SectionEntry>), StoreError> {
    match read_version(bytes)? {
        VERSION_V1 => Ok((VERSION_V1, decode_header(bytes)?)),
        _ => Ok((VERSION, decode_footer(bytes)?)),
    }
}

/// [`decode_sections`] plus a payload-CRC scan over every section.
pub fn decode_and_verify_sections(bytes: &[u8]) -> Result<(u32, Vec<SectionEntry>), StoreError> {
    let (version, entries) = decode_sections(bytes)?;
    for e in &entries {
        verify_section_crc(bytes, e)?;
    }
    Ok((version, entries))
}

/// Finds a section by id.
pub fn find_section(entries: &[SectionEntry], id: u32) -> Result<SectionEntry, StoreError> {
    entries
        .iter()
        .find(|e| e.id == id)
        .copied()
        .ok_or(StoreError::MissingSection { id })
}

/// The payload slice of a validated section entry.
pub fn section_payload<'a>(bytes: &'a [u8], e: &SectionEntry) -> &'a [u8] {
    let offset = e.offset as usize;
    let end = offset.saturating_add(e.len as usize).min(bytes.len());
    bytes.get(offset..end).unwrap_or(&[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let entries = [
            SectionEntry {
                id: SEC_META,
                crc: 0xDEAD_BEEF,
                offset: header_span(2) as u64,
                len: 16,
            },
            SectionEntry {
                id: SEC_GRAPH,
                crc: 0x1234_5678,
                offset: (header_span(2) + 16) as u64,
                len: 3,
            },
        ];
        let header = encode_header(&entries).unwrap();
        assert_eq!(header.len(), header_span(2));
        assert_eq!(&header[0..8], &MAGIC);
    }

    #[test]
    fn footer_roundtrip() {
        let entries = [
            SectionEntry {
                id: SEC_META,
                crc: 0xDEAD_BEEF,
                offset: PAYLOAD_START_V2 as u64,
                len: 16,
            },
            SectionEntry {
                id: SEC_GRAPH,
                crc: 0x1234_5678,
                offset: (PAYLOAD_START_V2 + 16) as u64,
                len: 8,
            },
        ];
        let mut file = encode_prefix_v2();
        file.resize(PAYLOAD_START_V2 + 24, 0);
        file.extend_from_slice(&encode_footer(&entries).unwrap());
        assert_eq!(file.len(), PAYLOAD_START_V2 + 24 + footer_span(2));
        // Structural parse succeeds (payload CRCs are not checked here).
        let parsed = decode_footer(&file).unwrap();
        assert_eq!(parsed.as_slice(), &entries);
        assert_eq!(read_version(&file).unwrap(), VERSION);
    }

    #[test]
    fn footer_rejects_missing_magic_and_bad_reserved() {
        let mut file = encode_prefix_v2();
        file.extend_from_slice(&encode_footer(&[]).unwrap());
        assert!(decode_footer(&file).is_ok());
        let mut bad = file.clone();
        let at = bad.len() - 1;
        bad[at] = b'X';
        assert!(matches!(
            decode_footer(&bad),
            Err(StoreError::SectionTable { .. })
        ));
        let mut bad = file.clone();
        bad[13] = 1;
        assert!(matches!(
            decode_footer(&bad),
            Err(StoreError::SectionTable { .. })
        ));
    }

    #[test]
    fn segment_ids_partition_by_collection() {
        assert_eq!(segment_section_id(0, 0).unwrap(), 0x100);
        assert_eq!(segment_section_id(0, 5).unwrap(), 0x105);
        assert_eq!(segment_section_id(1, 0).unwrap(), 0x200);
        assert_eq!(segment_section_id(2, 0xFF).unwrap(), 0x3FF);
        assert!(
            segment_section_id(0, 0x100).is_err(),
            "segment ordinal overflow"
        );
    }

    #[test]
    fn empty_file_is_truncated_not_panic() {
        assert!(matches!(
            decode_and_verify_header(&[]),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut header = encode_header(&[]).unwrap();
        header[0] = b'X';
        assert!(matches!(
            decode_and_verify_header(&header),
            Err(StoreError::BadMagic { .. })
        ));
    }
}
