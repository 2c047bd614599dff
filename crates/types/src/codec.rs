//! Bounds-checked binary codecs.
//!
//! The storage engines persist chunk files and pages in a simple
//! little-endian format built from these primitives. Reads are
//! bounds-checked and return [`UeiError::Corrupt`] on truncation, so a
//! damaged file surfaces as a typed error rather than a panic.
//!
//! Posting lists additionally use LEB128 varints with delta encoding
//! (row ids are appended in ascending order), which is what makes the
//! paper's `<key, {values}>` inverted layout compact on disk; the chunk
//! codec that does so lives in `uei-storage`.

use crate::error::{Result, UeiError};

/// A cursor over an immutable byte buffer with bounds-checked reads.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current read offset.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor is at the end of the buffer.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(UeiError::corrupt(format!(
                "truncated buffer: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn read_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a little-endian IEEE-754 `f64`.
    #[inline]
    pub fn read_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads an LEB128-encoded unsigned varint (at most 10 bytes).
    #[inline]
    pub fn read_varint(&mut self) -> Result<u64> {
        // One-byte values (list lengths, small gaps) skip the loop.
        match self.buf.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(u64::from(byte))
            }
            _ => self.read_varint_multibyte(),
        }
    }

    fn read_varint_multibyte(&mut self) -> Result<u64> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift == 63 && byte > 1 {
                return Err(UeiError::corrupt("varint overflows u64"));
            }
            result |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
            if shift > 63 {
                return Err(UeiError::corrupt("varint longer than 10 bytes"));
            }
        }
    }
}

/// An append-only byte buffer writer mirroring [`Reader`].
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates a writer with a preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer { buf: Vec::with_capacity(cap) }
    }

    /// Number of bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian IEEE-754 `f64`.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Appends raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends an LEB128-encoded unsigned varint.
    pub fn write_varint(&mut self, mut v: u64) {
        loop {
            let mut byte = (v & 0x7F) as u8;
            v >>= 7;
            if v != 0 {
                byte |= 0x80;
            }
            self.buf.push(byte);
            if v == 0 {
                return;
            }
        }
    }

    /// Overwrites 4 bytes at `offset` with a little-endian `u32`; used for
    /// back-patching length prefixes. Panics if the offset is out of range
    /// (always a local programming error, never data-dependent).
    pub fn patch_u32(&mut self, offset: usize, v: u32) {
        self.buf[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// Encoded length in bytes of `v` as an LEB128 varint (1–10), without
/// writing it.
#[inline]
pub fn varint_len(v: u64) -> usize {
    // 7 payload bits per byte; zero still takes one byte.
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        let mut w = Writer::new();
        w.write_u8(0xAB);
        w.write_u16(0xBEEF);
        w.write_u32(0xDEAD_BEEF);
        w.write_u64(0x0123_4567_89AB_CDEF);
        w.write_f64(-1234.5678);
        w.write_bytes(b"hello");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 0xAB);
        assert_eq!(r.read_u16().unwrap(), 0xBEEF);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.read_f64().unwrap(), -1234.5678);
        assert_eq!(r.read_bytes(5).unwrap(), b"hello");
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_error() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        assert!(r.read_u32().is_err());
        // Cursor must not advance past the failed read's start.
        assert_eq!(r.position(), 0);
        assert_eq!(r.read_u8().unwrap(), 1);
    }

    #[test]
    fn f64_nan_and_special_values_round_trip_bits() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, f64::MIN_POSITIVE] {
            let mut w = Writer::new();
            w.write_f64(v);
            let bytes = w.into_bytes();
            let got = Reader::new(&bytes).read_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
        let mut w = Writer::new();
        w.write_f64(f64::NAN);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).read_f64().unwrap().is_nan());
    }

    #[test]
    fn varint_round_trips_boundaries() {
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        let mut w = Writer::new();
        for &v in &values {
            w.write_varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read_varint().unwrap(), v);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn varint_rejects_overlong_and_overflow() {
        // 11 continuation bytes: longer than any valid u64 varint.
        let overlong = [0x80u8; 11];
        assert!(Reader::new(&overlong).read_varint().is_err());
        // 10 bytes whose top bits overflow u64.
        let overflow = [0xFFu8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert!(Reader::new(&overflow).read_varint().is_err());
    }

    #[test]
    fn varint_len_matches_written_length() {
        let mut values = vec![0u64, 1, u64::MAX];
        for shift in 1..64 {
            values.extend([(1u64 << shift) - 1, 1u64 << shift, (1u64 << shift) + 1]);
        }
        for v in values {
            let mut w = Writer::new();
            w.write_varint(v);
            assert_eq!(varint_len(v), w.len(), "varint_len({v})");
        }
    }

    #[test]
    fn patch_u32_back_patches_length() {
        let mut w = Writer::new();
        w.write_u32(0); // placeholder
        w.write_bytes(b"abcdef");
        let len = (w.len() - 4) as u32;
        w.patch_u32(0, len);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).read_u32().unwrap(), 6);
    }
}
