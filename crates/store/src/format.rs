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
//! entire payload (table + bodies).  [`Snapshot::read`] reads the file with
//! one whole-file read and verifies the header, the section table bounds and
//! the checksum before any section is decoded, so corruption anywhere —
//! including in the table itself — is caught first.  All integers are
//! little-endian; floats are stored as their IEEE-754 bit patterns, so values
//! round-trip exactly.

use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::ops::Range;
use std::path::Path;

/// File magic, first 8 bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"AFJSNAP\0";

/// Current format version.  Readers refuse anything newer.
///
/// Version 2 keeps what the learn decided (the selected configurations, the
/// negative rules, the ball rows and the L–L candidate lists) and the raw
/// records; load re-derives the prepared column and the blocking index from
/// the records.  Version-1 files also carry `VOCABS`, `TOKSETS` and `GRIDX`
/// (the vocabularies, the per-record token sets and the blocking index's
/// CSR arrays).  The reader finds sections by tag and never reads those
/// three, so both versions load through the same code.
pub const FORMAT_VERSION: u32 = 2;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 40;

/// Length of one section-table entry.
pub const SECTION_ENTRY_LEN: usize = 24;

/// An 8-byte section tag.
pub type SectionTag = [u8; 8];

/// Typed manifest (JSON): program, functions, configs, quality numbers.
pub const SEC_META: SectionTag = *b"META\0\0\0\0";
/// Raw record strings, left table first: load rebuilds the prepared column
/// and the blocking index from them.
pub const SEC_RAWS: SectionTag = *b"RAWS\0\0\0\0";
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
        let table_len = self.sections.len() * SECTION_ENTRY_LEN;
        let mut table = Vec::with_capacity(table_len);
        let mut offset = (HEADER_LEN + table_len) as u64;
        for (tag, body) in &self.sections {
            table.extend_from_slice(tag);
            put_u64(&mut table, offset);
            put_u64(&mut table, body.len() as u64);
            offset += body.len() as u64;
        }
        let payload_len = table_len as u64
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

        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        put_u32(&mut header, FORMAT_VERSION);
        put_u32(&mut header, self.sections.len() as u32);
        put_u64(&mut header, payload_len);
        put_u64(&mut header, checksum);
        put_u64(&mut header, 0); // reserved
        debug_assert_eq!(header.len(), HEADER_LEN);

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

/// A snapshot file read whole and validated: magic, version, payload
/// length, section table bounds and payload checksum all hold.
pub struct Snapshot {
    bytes: Vec<u8>,
    sections: Vec<(SectionTag, Range<usize>)>,
}

impl Snapshot {
    /// Read `path` with one whole-file read and validate it.
    ///
    /// Fails with [`StoreError::BadMagic`], [`StoreError::UnsupportedVersion`],
    /// [`StoreError::ChecksumMismatch`] or [`StoreError::Corrupt`] before any
    /// section is decoded.
    pub fn read(path: &Path) -> Result<Self, StoreError> {
        let bytes = std::fs::read(path)?;
        if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let mut header = Cursor::new(*b"HEADER\0\0", &bytes[8..HEADER_LEN]);
        let version = header.read_u32()?;
        if version == 0 || version > FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let count = header.read_u32()? as usize;
        let payload_len = header.read_u64()?;
        let expected = header.read_u64()?;
        let payload = &bytes[HEADER_LEN..];
        if payload_len != payload.len() as u64 {
            return Err(StoreError::Corrupt(format!(
                "header claims a {payload_len}-byte payload but the file holds {} payload bytes",
                payload.len()
            )));
        }
        let table = payload.get(..count * SECTION_ENTRY_LEN).ok_or_else(|| {
            StoreError::Corrupt(format!(
                "section table for {count} sections does not fit the payload"
            ))
        })?;
        let mut hasher = Fnv64::new();
        hasher.update(payload);
        let actual = hasher.finish();
        if actual != expected {
            return Err(StoreError::ChecksumMismatch { expected, actual });
        }
        let bodies = (HEADER_LEN + table.len()) as u64..bytes.len() as u64;
        let sections = table
            .chunks_exact(SECTION_ENTRY_LEN)
            .map(|entry| {
                let tag: SectionTag = entry[..8].try_into().unwrap();
                let mut extent = Cursor::new(tag, &entry[8..]);
                let (offset, len) = (extent.read_u64()?, extent.read_u64()?);
                match offset.checked_add(len) {
                    Some(end) if offset >= bodies.start && end <= bodies.end => {
                        Ok((tag, offset as usize..end as usize))
                    }
                    _ => Err(extent.corrupt(format_args!(
                        "spans [{offset}, {offset}+{len}) outside the payload"
                    ))),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { bytes, sections })
    }

    /// Decode the section `tag` with `decode`, which must consume it
    /// exactly.
    pub fn decode<T>(
        &self,
        tag: SectionTag,
        decode: impl FnOnce(&mut Cursor<'_>) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut cursor = self.section(tag)?;
        let value = decode(&mut cursor)?;
        cursor.expect_end()?;
        Ok(value)
    }

    /// A cursor over the section with `tag`.
    pub fn section(&self, tag: SectionTag) -> Result<Cursor<'_>, StoreError> {
        let (_, range) = self
            .sections
            .iter()
            .find(|(t, _)| *t == tag)
            .ok_or_else(|| StoreError::MissingSection(tag_name(&tag)))?;
        Ok(Cursor::new(tag, &self.bytes[range.clone()]))
    }
}

/// Sequential typed reader over one section's bytes.  Every read is
/// bounds-checked, so a cursor never reads past its section, and every
/// length prefix is checked against the bytes left before anything is sized
/// from it.
#[derive(Debug)]
pub struct Cursor<'a> {
    tag: SectionTag,
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(tag: SectionTag, rest: &'a [u8]) -> Self {
        Self { tag, rest }
    }

    fn corrupt(&self, what: impl fmt::Display) -> StoreError {
        StoreError::Corrupt(format!("section {} {what}", tag_name(&self.tag)))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or_else(|| self.corrupt("ends mid-value"))?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        Ok(self.take(N)?.try_into().unwrap())
    }

    /// Read a `u32`.
    pub fn read_u32(&mut self) -> Result<u32, StoreError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a `u64`.
    pub fn read_u64(&mut self) -> Result<u64, StoreError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read an `f32` stored as its bit pattern.
    pub fn read_f32(&mut self) -> Result<f32, StoreError> {
        self.array().map(f32::from_le_bytes)
    }

    /// Read an `f64` stored as its bit pattern.
    pub fn read_f64(&mut self) -> Result<f64, StoreError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Read a length prefix, refusing a count whose elements, at least
    /// `min_bytes` each, cannot fit in the rest of the section.
    pub fn read_len(&mut self, min_bytes: usize) -> Result<usize, StoreError> {
        let n = self.read_u64()?;
        if n.checked_mul(min_bytes as u64)
            .is_none_or(|bytes| bytes > self.rest.len() as u64)
        {
            return Err(self.corrupt(format_args!(
                "declares {n} elements but only {} bytes remain",
                self.rest.len()
            )));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<String, StoreError> {
        let n = self.read_len(1)?;
        self.read_utf8(n)
    }

    /// Read everything left in the section as one UTF-8 string (the JSON
    /// manifest, whose extent is the section itself).
    pub fn read_rest_str(&mut self) -> Result<String, StoreError> {
        self.read_utf8(self.rest.len())
    }

    fn read_utf8(&mut self, n: usize) -> Result<String, StoreError> {
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| self.corrupt("holds invalid UTF-8"))
    }

    /// Read a length-prefixed vector of `N`-byte little-endian values, e.g.
    /// `read_vec(u32::from_le_bytes)`.
    pub fn read_vec<T, const N: usize>(
        &mut self,
        decode: fn([u8; N]) -> T,
    ) -> Result<Vec<T>, StoreError> {
        let n = self.read_len(N)?;
        let bytes = self.take(n * N)?;
        Ok(bytes
            .chunks_exact(N)
            .map(|chunk| decode(chunk.try_into().unwrap()))
            .collect())
    }

    /// Error unless the section has been consumed exactly.
    pub fn expect_end(&self) -> Result<(), StoreError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(self.corrupt(format_args!("has {} trailing bytes", self.rest.len())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(label: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "autofj_store_format_{}_{label}_{n}.afj",
            std::process::id()
        ))
    }

    fn write_sample(path: &Path) {
        let mut meta = Vec::new();
        put_str(&mut meta, "hello snapshot");
        let mut raws = Vec::new();
        put_u32_slice(&mut raws, &[1, 2, 3, 40_000]);
        put_f32_slice(&mut raws, &[0.5, -1.25]);
        let mut w = SnapshotWriter::new();
        w.add_section(SEC_META, meta);
        w.add_section(SEC_RAWS, raws);
        w.write_to(path).unwrap();
    }

    #[test]
    fn round_trips_sections_through_disk() {
        let path = temp_path("roundtrip");
        write_sample(&path);
        let snap = Snapshot::read(&path).unwrap();

        let mut meta = snap.section(SEC_META).unwrap();
        assert_eq!(meta.read_str().unwrap(), "hello snapshot");
        meta.expect_end().unwrap();

        let mut raws = snap.section(SEC_RAWS).unwrap();
        assert_eq!(
            raws.read_vec(u32::from_le_bytes).unwrap(),
            vec![1, 2, 3, 40_000]
        );
        assert_eq!(raws.read_vec(f32::from_le_bytes).unwrap(), vec![0.5, -1.25]);
        raws.expect_end().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = temp_path("magic");
        write_sample(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Snapshot::read(&path), Err(StoreError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_future_version() {
        let path = temp_path("version");
        write_sample(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Snapshot::read(&path),
            Err(StoreError::UnsupportedVersion(v)) if v == FORMAT_VERSION + 1
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detects_payload_bit_flips() {
        let path = temp_path("bitflip");
        write_sample(&path);
        let clean = std::fs::read(&path).unwrap();
        // Flip one bit at several payload positions; every flip must be caught.
        for pos in [HEADER_LEN, clean.len() / 2, clean.len() - 1] {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(
                    Snapshot::read(&path),
                    Err(StoreError::ChecksumMismatch { .. })
                ),
                "flip at {pos} went undetected"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detects_truncation() {
        let path = temp_path("truncate");
        write_sample(&path);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(Snapshot::read(&path), Err(StoreError::Corrupt(_))));
        // Truncating into the header reads as "not a snapshot".
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(Snapshot::read(&path), Err(StoreError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_section_is_reported_by_name() {
        let path = temp_path("missing");
        let mut w = SnapshotWriter::new();
        w.add_section(SEC_META, vec![]);
        w.write_to(&path).unwrap();
        let snap = Snapshot::read(&path).unwrap();
        match snap.section(SEC_RAWS) {
            Err(StoreError::MissingSection(name)) => assert_eq!(name, "RAWS"),
            other => panic!("expected MissingSection, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cursor_refuses_to_cross_section_boundary() {
        let path = temp_path("bounds");
        write_sample(&path);
        let snap = Snapshot::read(&path).unwrap();
        let mut meta = snap.section(SEC_META).unwrap();
        let _ = meta.read_str().unwrap();
        assert!(matches!(meta.read_u64(), Err(StoreError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocation() {
        let path = temp_path("hostile");
        let mut body = Vec::new();
        put_u64(&mut body, u64::MAX); // claims 2^64-1 elements
        let mut w = SnapshotWriter::new();
        w.add_section(SEC_META, body);
        w.write_to(&path).unwrap();
        let snap = Snapshot::read(&path).unwrap();
        let mut meta = snap.section(SEC_META).unwrap();
        assert!(matches!(
            meta.read_vec(u32::from_le_bytes),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

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
