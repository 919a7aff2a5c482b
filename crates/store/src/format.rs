//! On-disk snapshot format: header layout, section table, little-endian
//! primitives and the FNV-1a payload checksum.
//!
//! A snapshot file is laid out as
//!
//! ```text
//! header   (40 bytes):  magic[8] | version u32 | section_count u32
//!                       | payload_len u64 | checksum u64 | reserved u64
//! payload:              section table (24 bytes per entry:
//!                       tag[8] | offset u64 | len u64) followed by the
//!                       section bodies, in table order
//! ```
//!
//! Offsets are absolute file offsets.  The checksum is FNV-1a 64 over the
//! entire payload (table + bodies) and is verified streaming when a file is
//! opened, so corruption anywhere — including in the table itself — is
//! detected before any section is decoded.  All integers are little-endian;
//! floats are stored as their IEEE-754 bit patterns, so values round-trip
//! exactly.

use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// File magic, first 8 bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"AFJSNAP\0";

/// Current format version.  Readers refuse anything newer.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed header length in bytes.
pub const HEADER_LEN: u64 = 40;

/// Length of one section-table entry.
pub const SECTION_ENTRY_LEN: u64 = 24;

/// An 8-byte section tag.
pub type SectionTag = [u8; 8];

/// Typed manifest (JSON): program, functions, configs, quality numbers.
pub const SEC_META: SectionTag = *b"META\0\0\0\0";
/// Raw record strings, left table first.
pub const SEC_RAWS: SectionTag = *b"RAWS\0\0\0\0";
/// The eight per-scheme vocabularies (tokens, doc freqs, doc counts).
pub const SEC_VOCABS: SectionTag = *b"VOCABS\0\0";
/// Per-record interned token-id sets for all eight schemes.
pub const SEC_TOKSETS: SectionTag = *b"TOKSETS\0";
/// The blocking `GramIndex` CSR arrays (offsets, postings, idf).
pub const SEC_GRIDX: SectionTag = *b"GRIDX\0\0\0";
/// Learned negative rules as sorted id pairs.
pub const SEC_RULES: SectionTag = *b"RULES\0\0\0";
/// Scalar configuration: table sizes, blocking `k`, flags, quality numbers
/// and the selected configurations (slot + threshold bits).
pub const SEC_CONF: SectionTag = *b"CONF\0\0\0\0";
/// Per-function-slot sorted L–L reference distances (ball neighbourhoods),
/// one row per reference record, cut to the distances below the ball cutoff
/// of the slot's reach (the largest `2θ` over its configurations).  Older
/// snapshots hold full rows; both load and count identically, and the
/// loader refuses rows that are unsorted or hold NaN/∞.
pub const SEC_LLDIST: SectionTag = *b"LLDIST\0\0";
/// Per-reference blocked L–L candidate lists — kept so appends can re-derive
/// the IDF-weighted ball rows after the IDF weights shift.
pub const SEC_LLCAND: SectionTag = *b"LLCAND\0\0";

/// Errors opening or decoding a snapshot.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's format version is newer than this reader understands.
    UnsupportedVersion(u32),
    /// The payload checksum did not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum computed over the payload.
        actual: u64,
    },
    /// A required section is absent.
    MissingSection(String),
    /// Structural corruption: out-of-bounds offsets, short sections,
    /// inconsistent lengths, invalid UTF-8, …
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            StoreError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v} (max {FORMAT_VERSION})")
            }
            StoreError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot payload checksum mismatch (header {expected:#018x}, computed {actual:#018x})"
            ),
            StoreError::MissingSection(tag) => write!(f, "snapshot is missing section {tag}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Render a tag for error messages (trailing NULs stripped).
pub fn tag_name(tag: &SectionTag) -> String {
    tag.iter()
        .take_while(|&&b| b != 0)
        .map(|&b| b as char)
        .collect()
}

/// Streaming FNV-1a 64 hasher — dependency-free, stable across platforms.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self {
            state: Self::OFFSET,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Append a `u32` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its bit pattern (exact round-trip).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append an `f32` as its bit pattern (exact round-trip).
pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    put_u32(buf, v.to_bits());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Append a length-prefixed `u32` slice.
pub fn put_u32_slice(buf: &mut Vec<u8>, v: &[u32]) {
    put_u64(buf, v.len() as u64);
    for &x in v {
        put_u32(buf, x);
    }
}

/// Append a length-prefixed `f32` slice (bit patterns).
pub fn put_f32_slice(buf: &mut Vec<u8>, v: &[f32]) {
    put_u64(buf, v.len() as u64);
    for &x in v {
        put_f32(buf, x);
    }
}

/// Append a length-prefixed `f64` slice (bit patterns).
pub fn put_f64_slice(buf: &mut Vec<u8>, v: &[f64]) {
    put_u64(buf, v.len() as u64);
    for &x in v {
        put_f64(buf, x);
    }
}

/// Accumulates tagged sections and writes the complete snapshot file:
/// header, section table, bodies, with the payload checksum computed over
/// table + bodies.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(SectionTag, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a section body under `tag`.  Sections are written in insertion
    /// order; tags must be unique.
    pub fn add_section(&mut self, tag: SectionTag, body: Vec<u8>) {
        debug_assert!(
            self.sections.iter().all(|(t, _)| *t != tag),
            "duplicate section tag {}",
            tag_name(&tag)
        );
        self.sections.push((tag, body));
    }

    /// Serialize everything to `path` (truncating any existing file).
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let table_len = self.sections.len() as u64 * SECTION_ENTRY_LEN;
        let mut table = Vec::with_capacity(table_len as usize);
        let mut offset = HEADER_LEN + table_len;
        for (tag, body) in &self.sections {
            table.extend_from_slice(tag);
            put_u64(&mut table, offset);
            put_u64(&mut table, body.len() as u64);
            offset += body.len() as u64;
        }
        let payload_len = table_len
            + self
                .sections
                .iter()
                .map(|(_, b)| b.len() as u64)
                .sum::<u64>();

        let mut hasher = Fnv64::new();
        hasher.update(&table);
        for (_, body) in &self.sections {
            hasher.update(body);
        }
        let checksum = hasher.finish();

        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC);
        put_u32(&mut header, FORMAT_VERSION);
        put_u32(&mut header, self.sections.len() as u32);
        put_u64(&mut header, payload_len);
        put_u64(&mut header, checksum);
        put_u64(&mut header, 0); // reserved
        debug_assert_eq!(header.len() as u64, HEADER_LEN);

        let mut file = File::create(path)?;
        file.write_all(&header)?;
        file.write_all(&table)?;
        for (_, body) in &self.sections {
            file.write_all(body)?;
        }
        file.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.update(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv64_is_streaming() {
        let mut whole = Fnv64::new();
        whole.update(b"hello world");
        let mut parts = Fnv64::new();
        parts.update(b"hello");
        parts.update(b" ");
        parts.update(b"world");
        assert_eq!(whole.finish(), parts.finish());
    }

    #[test]
    fn primitives_round_trip_bit_patterns() {
        let value = 0.1f64 + 0.2f64; // non-trivial mantissa
        let mut buf = Vec::new();
        put_f64(&mut buf, value);
        put_f32(&mut buf, 0.3f32);
        let bits64 = u64::from_le_bytes(buf[..8].try_into().unwrap());
        assert_eq!(f64::from_bits(bits64).to_bits(), value.to_bits());
        let bits32 = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        assert_eq!(f32::from_bits(bits32).to_bits(), 0.3f32.to_bits());
    }
}
