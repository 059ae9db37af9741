//! Versioned, length-prefixed binary snapshots for deterministic
//! checkpoint/restore.
//!
//! Every stateful simulator component implements [`Snapshot`]: `save` appends
//! the component's mutable state to a [`SnapWriter`], `load` reads it back
//! from a [`SnapReader`] into an already-constructed component. Construction
//! and configuration are *not* part of a snapshot — a restore first rebuilds
//! the machine from the same `SystemConfig` + program, then loads only the
//! state that evolves during a run. That split keeps the format small and
//! makes "restore under a different config" a detectable error instead of
//! silent corruption.
//!
//! The format is written by hand (no serde): little-endian fixed-width
//! integers, `f64` as IEEE-754 bits, byte strings length-prefixed with a
//! `u64`, and named length-prefixed sections so a reader can verify it
//! consumed exactly what the writer produced. A file starts with:
//!
//! ```text
//! magic    [u8; 8]   b"CCSVSNAP"
//! schema   u32       SCHEMA_VERSION at write time
//! config   u64       FNV-1a hash of the normalized SystemConfig
//! ```
//!
//! Any mismatch surfaces as a typed [`SnapError`]; `load` implementations
//! never panic on malformed input.
//!
//! # Examples
//!
//! ```
//! use ccsvm_snap::{SnapReader, SnapWriter};
//!
//! let mut w = SnapWriter::new();
//! let s = w.begin_section("demo");
//! w.put_u64(7);
//! w.put_str("hello");
//! w.end_section(s);
//! let bytes = w.into_vec();
//!
//! let mut r = SnapReader::new(&bytes);
//! let end = r.begin_section("demo").unwrap();
//! assert_eq!(r.get_u64().unwrap(), 7);
//! assert_eq!(r.get_str().unwrap(), "hello");
//! r.end_section(end).unwrap();
//! ```

pub mod journal;

use std::fmt;

/// File magic: identifies a ccsvm snapshot.
pub const MAGIC: [u8; 8] = *b"CCSVSNAP";

/// Schema version of the snapshot format. Bump on ANY change to what any
/// component serializes, and document the change in DESIGN.md §8 (CI greps
/// for this).
pub const SCHEMA_VERSION: u32 = 4;

/// Typed snapshot failure. Restoring under a mismatched config or schema, or
/// from a truncated/corrupt file, yields one of these — never a panic and
/// never a silently wrong machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// Underlying file I/O failed (message from `std::io::Error`).
    Io(String),
    /// The file does not start with [`MAGIC`]; not a snapshot.
    BadMagic,
    /// The snapshot was written by a different format version.
    SchemaMismatch {
        /// Version found in the file header.
        found: u32,
        /// Version this binary understands ([`SCHEMA_VERSION`]).
        expected: u32,
    },
    /// The snapshot was taken under a different `SystemConfig`.
    ConfigMismatch {
        /// Config hash found in the file header.
        found: u64,
        /// Config hash of the machine being restored into.
        expected: u64,
    },
    /// A [`SnapError::ConfigMismatch`] whose root cause is known: the image
    /// was taken under a different coherence protocol than the machine it is
    /// being restored into. Surfaced by name so the fix ("pass the matching
    /// `--protocol`") is obvious without comparing raw hashes.
    ProtocolMismatch {
        /// Protocol name recorded in the image.
        found: String,
        /// Protocol name of the machine being restored into.
        expected: String,
    },
    /// The data ended before the expected field.
    Truncated {
        /// What the reader was trying to decode.
        what: &'static str,
    },
    /// The data decoded but violates a format invariant.
    Corrupt {
        /// Description of the violated invariant.
        what: String,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io(msg) => write!(f, "snapshot I/O error: {msg}"),
            SnapError::BadMagic => write!(f, "not a ccsvm snapshot (bad magic)"),
            SnapError::SchemaMismatch { found, expected } => write!(
                f,
                "snapshot schema v{found} does not match this binary's v{expected}"
            ),
            SnapError::ConfigMismatch { found, expected } => write!(
                f,
                "snapshot was taken under a different SystemConfig \
                 (hash {found:#018x}, machine has {expected:#018x})"
            ),
            SnapError::ProtocolMismatch { found, expected } => write!(
                f,
                "snapshot was taken under the '{found}' coherence protocol \
                 but this machine is configured for '{expected}' \
                 (config hashes differ; restore with --protocol {found})"
            ),
            SnapError::Truncated { what } => {
                write!(f, "snapshot truncated while reading {what}")
            }
            SnapError::Corrupt { what } => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit hash; used to fingerprint the normalized `SystemConfig`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only little-endian snapshot writer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter { buf: Vec::new() }
    }

    /// An empty writer reusing `buf`'s allocation (cleared first). Hot
    /// callers that snapshot repeatedly — e.g. the speculative epoch
    /// executor's per-member undo capture — round-trip one buffer through
    /// `reusing`/[`SnapWriter::into_vec`] instead of reallocating.
    pub fn reusing(mut buf: Vec<u8>) -> SnapWriter {
        buf.clear();
        SnapWriter { buf }
    }

    /// Writes the snapshot header: magic, schema version, config hash.
    pub fn put_header(&mut self, config_hash: u64) {
        self.buf.extend_from_slice(&MAGIC);
        self.put_u32(SCHEMA_VERSION);
        self.put_u64(config_hash);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a `u64`-length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Opens a named, length-prefixed section; returns a marker for
    /// [`SnapWriter::end_section`]. Sections let the reader verify it
    /// consumed exactly the bytes the writer produced.
    #[must_use]
    pub fn begin_section(&mut self, name: &str) -> usize {
        self.put_str(name);
        let mark = self.buf.len();
        self.put_u64(0); // placeholder, patched by end_section
        mark
    }

    /// Closes the section opened at `mark`, patching its byte length.
    pub fn end_section(&mut self, mark: usize) {
        let len = (self.buf.len() - mark - 8) as u64;
        self.buf[mark..mark + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// The serialized bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Checked little-endian snapshot reader over a byte slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> SnapReader<'a> {
        SnapReader { data, pos: 0 }
    }

    /// Validates the header written by [`SnapWriter::put_header`] against
    /// this binary's schema and the restoring machine's config hash.
    pub fn check_header(&mut self, expected_config_hash: u64) -> Result<(), SnapError> {
        let magic = self.take(8, "magic")?;
        if magic != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let schema = self.get_u32()?;
        if schema != SCHEMA_VERSION {
            return Err(SnapError::SchemaMismatch {
                found: schema,
                expected: SCHEMA_VERSION,
            });
        }
        let config = self.get_u64()?;
        if config != expected_config_hash {
            return Err(SnapError::ConfigMismatch {
                found: config,
                expected: expected_config_hash,
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapError> {
        if self.data.len() - self.pos < n {
            return Err(SnapError::Truncated { what });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        let b = self.take(8, "i64")?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` written with [`SnapWriter::put_usize`]; errors if the
    /// value does not fit the host's `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.get_u64()?).map_err(|_| SnapError::Corrupt {
            what: "usize value exceeds host width".to_string(),
        })
    }

    /// Reads an element count that will drive a pre-sized allocation.
    /// Validates the count against the bytes actually remaining in the
    /// image (each element needs at least `min_elem_bytes` to encode), so a
    /// corrupt length field yields [`SnapError::Corrupt`] instead of an
    /// attempt to allocate terabytes.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when the count cannot possibly be satisfied
    /// by the remaining data; [`SnapError::Truncated`] when the count field
    /// itself is cut off.
    pub fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.get_usize()?;
        let elem = min_elem_bytes.max(1);
        if n > self.remaining() / elem {
            return Err(SnapError::Corrupt {
                what: format!(
                    "element count {n} x >= {elem} B exceeds the {} bytes remaining",
                    self.remaining()
                ),
            });
        }
        Ok(n)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is [`SnapError::Corrupt`].
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::Corrupt {
                what: format!("bool byte {other:#04x}"),
            }),
        }
    }

    /// Reads a `u64`-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.get_u64()?;
        let len = usize::try_from(len).map_err(|_| SnapError::Corrupt {
            what: format!("byte string length {len} exceeds host width"),
        })?;
        self.take(len, "byte string body")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| SnapError::Corrupt {
            what: "string is not valid UTF-8".to_string(),
        })
    }

    /// Reads a fixed-size byte array.
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        let b = self.take(N, "byte array")?;
        Ok(b.try_into().expect("length checked"))
    }

    /// Copies a fixed-size run of raw bytes (written via `put_raw`).
    pub fn get_raw(&mut self, out: &mut [u8]) -> Result<(), SnapError> {
        let b = self.take(out.len(), "raw bytes")?;
        out.copy_from_slice(b);
        Ok(())
    }

    /// Opens the named section, verifying the name matches; returns the
    /// byte offset where the section must end.
    pub fn begin_section(&mut self, name: &str) -> Result<usize, SnapError> {
        let found = self.get_str()?;
        if found != name {
            return Err(SnapError::Corrupt {
                what: format!("expected section `{name}`, found `{found}`"),
            });
        }
        let len = self.get_usize()?;
        let end = self.pos.checked_add(len).filter(|&e| e <= self.data.len());
        end.ok_or(SnapError::Truncated {
            what: "section body",
        })
    }

    /// Closes a section, verifying the reader consumed exactly its bytes.
    pub fn end_section(&mut self, end: usize) -> Result<(), SnapError> {
        if self.pos != end {
            return Err(SnapError::Corrupt {
                what: format!(
                    "section length mismatch: reader at byte {}, section ends at {end}",
                    self.pos
                ),
            });
        }
        Ok(())
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

impl SnapWriter {
    /// Appends raw bytes with no length prefix (pair with
    /// [`SnapReader::get_raw`] / [`SnapReader::get_array`]).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// A component whose mutable run-state can round-trip through a snapshot.
///
/// `save`/`load` cover only state that evolves during a run; configuration
/// and construction-time wiring are re-derived by rebuilding the component
/// from the same config before calling `load`.
pub trait Snapshot {
    /// Appends this component's state to the writer.
    fn save(&self, w: &mut SnapWriter);
    /// Restores this component's state from the reader. On error the
    /// component may be partially loaded and must be discarded.
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Writes snapshot bytes to `path` atomically: the bytes land in a
/// same-directory temp file which is fsynced and renamed over `path`, so a
/// crash mid-write can never leave a torn file under the final name — a
/// reader sees either the old complete image or the new one. (Header and
/// section checks would *detect* a torn image, but the sweep orchestrator
/// resumes from "the newest valid checkpoint", which must never be a
/// half-written one.)
pub fn write_file(path: &std::path::Path, bytes: &[u8]) -> Result<(), SnapError> {
    use std::io::Write;
    let io = |e: &std::io::Error| SnapError::Io(format!("{}: {e}", path.display()));
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", unique_suffix()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp).map_err(|e| io(&e))?;
        f.write_all(bytes).map_err(|e| io(&e))?;
        f.sync_data().map_err(|e| io(&e))?;
        std::fs::rename(&tmp, path).map_err(|e| io(&e))
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// `<pid>-<n>`, with `n` from a process-wide counter: distinct on every
/// call in this process, and from every other live process. Keys temp files
/// that concurrent threads (parallel tests, pool workers) create, so no two
/// ever share a name.
pub fn unique_suffix() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    format!(
        "{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    )
}

/// Reads snapshot bytes from `path`.
pub fn read_file(path: &std::path::Path) -> Result<Vec<u8>, SnapError> {
    std::fs::read(path).map_err(|e| SnapError::Io(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_usize(12345);
        w.put_f64(-0.125);
        w.put_bool(true);
        w.put_bool(false);
        w.put_bytes(&[1, 2, 3]);
        w.put_str("héllo");
        w.put_raw(&[9; 4]);
        let bytes = w.into_vec();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_usize().unwrap(), 12345);
        assert_eq!(r.get_f64().unwrap(), -0.125);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_array::<4>().unwrap(), [9; 4]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn f64_bit_exact() {
        for v in [0.0, -0.0, f64::NAN, f64::INFINITY, 1.0 / 3.0] {
            let mut w = SnapWriter::new();
            w.put_f64(v);
            let b = w.into_vec();
            let got = SnapReader::new(&b).get_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut r = SnapReader::new(&[1, 2]);
        assert_eq!(r.get_u64(), Err(SnapError::Truncated { what: "u64" }));
        let mut w = SnapWriter::new();
        w.put_u64(100); // claims a 100-byte string with no body
        let bytes = w.into_vec();
        assert!(matches!(
            SnapReader::new(&bytes).get_bytes(),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_bool_is_corrupt() {
        assert!(matches!(
            SnapReader::new(&[7]).get_bool(),
            Err(SnapError::Corrupt { .. })
        ));
    }

    #[test]
    fn sections_verify_name_and_length() {
        let mut w = SnapWriter::new();
        let s = w.begin_section("cpu");
        w.put_u64(3);
        w.end_section(s);
        let bytes = w.into_vec();

        // Happy path.
        let mut r = SnapReader::new(&bytes);
        let end = r.begin_section("cpu").unwrap();
        assert_eq!(r.get_u64().unwrap(), 3);
        r.end_section(end).unwrap();

        // Wrong name.
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            r.begin_section("mem"),
            Err(SnapError::Corrupt { .. })
        ));

        // Under-consumed section.
        let mut r = SnapReader::new(&bytes);
        let end = r.begin_section("cpu").unwrap();
        assert!(matches!(r.end_section(end), Err(SnapError::Corrupt { .. })));
    }

    #[test]
    fn header_mismatches_are_typed() {
        let mut w = SnapWriter::new();
        w.put_header(0x1234);
        let good = w.into_vec();
        assert!(SnapReader::new(&good).check_header(0x1234).is_ok());
        assert_eq!(
            SnapReader::new(&good).check_header(0x9999),
            Err(SnapError::ConfigMismatch {
                found: 0x1234,
                expected: 0x9999
            })
        );

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            SnapReader::new(&bad_magic).check_header(0x1234),
            Err(SnapError::BadMagic)
        );

        let mut bad_schema = good.clone();
        bad_schema[8..12].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
        assert_eq!(
            SnapReader::new(&bad_schema).check_header(0x1234),
            Err(SnapError::SchemaMismatch {
                found: SCHEMA_VERSION + 1,
                expected: SCHEMA_VERSION
            })
        );

        assert!(matches!(
            SnapReader::new(&good[..4]).check_header(0x1234),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn fnv1a_known_values() {
        // FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"config-a"), fnv1a(b"config-b"));
    }
}
