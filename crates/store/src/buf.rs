//! Little-endian section encoding and validated decoding.
//!
//! [`SectionBuf`] is the writer; [`Cursor`] is the reader. The reader
//! never panics on malformed input: every read is bounds-checked and
//! returns [`StoreError::Malformed`] (tagged with the section id) when
//! the payload runs short or lies about a length.
//!
//! Bulk numeric arrays are the hot path. The workspace denies `unsafe`,
//! so instead of reinterpreting the byte buffer in place, the decoder
//! does the safe equivalent: a single bounds check followed by a
//! `chunks_exact` + `from_le_bytes` loop, which the compiler lowers to a
//! straight memcpy on little-endian targets. That keeps loading linear
//! in the payload with no per-element validation or allocation beyond
//! the destination `Vec`.

use crate::error::StoreError;

/// Length prefixes are u32; this caps any single array or string so a
/// corrupt prefix can never drive a multi-gigabyte allocation beyond the
/// payload that backs it (the cursor checks the remaining bytes first).
fn too_short(section: u32, what: &'static str, needed: usize, available: usize) -> StoreError {
    StoreError::Malformed {
        section,
        detail: format!("{what}: needs {needed} bytes, {available} remain"),
    }
}

/// Append-only little-endian encoder for one section payload.
#[derive(Debug, Default)]
// lint:allow(persist-types-derive-serde) — transient encoder, hand-serialized
pub struct SectionBuf {
    bytes: Vec<u8>,
}

impl SectionBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        SectionBuf { bytes: Vec::new() }
    }

    /// Finishes the section, yielding its payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` length as `u32`, failing if it does not fit.
    pub fn put_len(&mut self, len: usize) -> Result<(), StoreError> {
        let v = u32::try_from(len).map_err(|_| StoreError::Malformed {
            section: 0,
            detail: format!("length {len} exceeds the u32 prefix limit"),
        })?;
        self.put_u32(v);
        Ok(())
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) -> Result<(), StoreError> {
        self.put_len(s.len())?;
        self.bytes.extend_from_slice(s.as_bytes());
        Ok(())
    }

    /// Appends a length-prefixed list of strings.
    pub fn put_str_list(&mut self, items: &[String]) -> Result<(), StoreError> {
        self.put_len(items.len())?;
        for s in items {
            self.put_str(s)?;
        }
        Ok(())
    }

    /// Appends a length-prefixed `u32` array (the bulk format the
    /// zero-copy-style reader consumes in one pass).
    pub fn put_u32_slice(&mut self, items: &[u32]) -> Result<(), StoreError> {
        self.put_len(items.len())?;
        self.bytes.reserve(items.len() * 4);
        for &v in items {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }

    /// Appends a length-prefixed `u64` array.
    pub fn put_u64_slice(&mut self, items: &[u64]) -> Result<(), StoreError> {
        self.put_len(items.len())?;
        self.bytes.reserve(items.len() * 8);
        for &v in items {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }
}

/// Validated little-endian reader over one section payload.
#[derive(Debug)]
// lint:allow(persist-types-derive-serde) — transient decoder view
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: u32,
}

impl<'a> Cursor<'a> {
    /// Wraps a section payload; `section` tags every error this cursor
    /// produces.
    pub fn new(bytes: &'a [u8], section: u32) -> Self {
        Cursor {
            bytes,
            pos: 0,
            section,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// Fails unless the payload was consumed exactly.
    pub fn finish(self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::Malformed {
                section: self.section,
                detail: format!("{} trailing bytes after the last field", self.remaining()),
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], StoreError> {
        match self.bytes.get(self.pos..self.pos + n) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(too_short(self.section, what, n, self.remaining())),
        }
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, StoreError> {
        let s = self.take(4, what)?;
        let mut le = [0u8; 4];
        le.copy_from_slice(s);
        Ok(u32::from_le_bytes(le))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, StoreError> {
        let s = self.take(8, what)?;
        let mut le = [0u8; 8];
        le.copy_from_slice(s);
        Ok(u64::from_le_bytes(le))
    }

    /// Reads an `f64` by bit pattern, rejecting NaN (a NaN smuggled into
    /// persisted weights would poison every downstream sort).
    pub fn get_finite_f64(&mut self, what: &'static str) -> Result<f64, StoreError> {
        let s = self.take(8, what)?;
        let mut le = [0u8; 8];
        le.copy_from_slice(s);
        let v = f64::from_le_bytes(le);
        if !v.is_finite() {
            return Err(StoreError::Malformed {
                section: self.section,
                detail: format!("{what}: non-finite value {v}"),
            });
        }
        Ok(v)
    }

    /// Reads a u32 length prefix, pre-validated against the bytes that
    /// must back `elem_size`-byte elements.
    fn get_len(&mut self, elem_size: usize, what: &'static str) -> Result<usize, StoreError> {
        let len = self.get_u32(what)? as usize;
        let needed = len
            .checked_mul(elem_size)
            .ok_or_else(|| StoreError::Malformed {
                section: self.section,
                detail: format!("{what}: length {len} overflows"),
            })?;
        if needed > self.remaining() {
            return Err(too_short(self.section, what, needed, self.remaining()));
        }
        Ok(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &'static str) -> Result<String, StoreError> {
        let len = self.get_len(1, what)?;
        let s = self.take(len, what)?;
        String::from_utf8(s.to_vec()).map_err(|_| StoreError::Malformed {
            section: self.section,
            detail: format!("{what}: invalid UTF-8"),
        })
    }

    /// Reads a length-prefixed list of strings.
    pub fn get_str_list(&mut self, what: &'static str) -> Result<Vec<String>, StoreError> {
        let len = self.get_len(1, what)?;
        let mut out = Vec::with_capacity(len.min(self.remaining()));
        for _ in 0..len {
            out.push(self.get_str(what)?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `u32` array in one validated pass: a
    /// single bounds check, then a bulk `chunks_exact` conversion the
    /// compiler turns into a memcpy on little-endian targets.
    pub fn get_u32_vec(&mut self, what: &'static str) -> Result<Vec<u32>, StoreError> {
        let len = self.get_len(4, what)?;
        let raw = self.take(len * 4, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| {
                let mut le = [0u8; 4];
                le.copy_from_slice(c);
                u32::from_le_bytes(le)
            })
            .collect())
    }

    /// Reads a length-prefixed `u64` array (bulk path, as above).
    pub fn get_u64_vec(&mut self, what: &'static str) -> Result<Vec<u64>, StoreError> {
        let len = self.get_len(8, what)?;
        let raw = self.take(len * 8, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                let mut le = [0u8; 8];
                le.copy_from_slice(c);
                u64::from_le_bytes(le)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_and_bulk_roundtrip() {
        let mut b = SectionBuf::new();
        b.put_u32(7);
        b.put_u64(1 << 40);
        b.put_f64(-2.5);
        b.put_str("snapshot").unwrap();
        b.put_u32_slice(&[1, 2, 3]).unwrap();
        b.put_u64_slice(&[u64::MAX]).unwrap();
        b.put_str_list(&["a".to_owned(), "b".to_owned()]).unwrap();
        let bytes = b.into_bytes();
        let mut c = Cursor::new(&bytes, 9);
        assert_eq!(c.get_u32("a").unwrap(), 7);
        assert_eq!(c.get_u64("b").unwrap(), 1 << 40);
        assert_eq!(c.get_finite_f64("c").unwrap(), -2.5);
        assert_eq!(c.get_str("d").unwrap(), "snapshot");
        assert_eq!(c.get_u32_vec("e").unwrap(), vec![1, 2, 3]);
        assert_eq!(c.get_u64_vec("f").unwrap(), vec![u64::MAX]);
        assert_eq!(c.get_str_list("g").unwrap(), vec!["a", "b"]);
        c.finish().unwrap();
    }

    #[test]
    fn lying_length_prefix_is_typed_error() {
        // Claims 1000 u32s but provides 4 bytes.
        let mut b = SectionBuf::new();
        b.put_u32(1000);
        b.put_u32(42);
        let bytes = b.into_bytes();
        let mut c = Cursor::new(&bytes, 5);
        assert!(matches!(
            c.get_u32_vec("lie"),
            Err(StoreError::Malformed { section: 5, .. })
        ));
    }

    #[test]
    fn nan_f64_rejected() {
        let mut b = SectionBuf::new();
        b.put_f64(f64::NAN);
        let bytes = b.into_bytes();
        let mut c = Cursor::new(&bytes, 3);
        assert!(c.get_finite_f64("w").is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = SectionBuf::new();
        b.put_u32(1);
        b.put_u32(2);
        let bytes = b.into_bytes();
        let mut c = Cursor::new(&bytes, 1);
        assert_eq!(c.get_u32("x").unwrap(), 1);
        assert!(c.finish().is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut b = SectionBuf::new();
        b.put_len(2).unwrap();
        let mut bytes = b.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut c = Cursor::new(&bytes, 2);
        assert!(matches!(
            c.get_str("s"),
            Err(StoreError::Malformed { section: 2, .. })
        ));
    }
}
