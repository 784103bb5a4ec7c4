//! `trrip-snap` — the snapshot substrate every stateful simulation
//! component implements.
//!
//! The simulator's architectural state is scattered across crates (cpu
//! predictors, cache tag stores, per-set policy metadata, MMU/TLB,
//! in-flight prefetch tables). Checkpointing a run means serializing
//! *all* of it, bit-faithfully, from inside each owning crate — so the
//! trait and codec must live below every one of them in the dependency
//! graph. That is this crate: no dependencies, one object-safe
//! [`Snapshot`] trait, a compact byte codec ([`SnapWriter`] /
//! [`SnapReader`]), and the varint + checksum machinery shared with
//! `trrip-trace`'s on-disk format (which re-exports it from here).
//!
//! # Design rules
//!
//! * **State, not configuration.** `restore` mutates an already
//!   *configured* instance (built the normal way from its config) and
//!   loads only architectural state into it. Geometry mismatches are
//!   errors, never silent resizes — a checkpoint for an 8-way cache must
//!   not restore into a 4-way one.
//! * **Deterministic bytes.** Saving the same state twice produces the
//!   same bytes; hash-map-backed components serialize in sorted key
//!   order.
//! * **Self-checking streams.** Components start their section with a
//!   4-byte tag ([`SnapWriter::tag`] / [`SnapReader::expect_tag`]) so a
//!   desynchronized stream fails with a named component instead of
//!   garbage state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod corrupt;
pub mod varint;

pub use varint::{push_signed, push_varint, read_signed, read_varint, unzigzag, zigzag, Checksum};

/// Everything that can go wrong restoring a snapshot.
#[derive(Debug)]
pub enum SnapError {
    /// Structurally invalid bytes; the message says what.
    Corrupt(String),
    /// The stream describes a component of a different shape than the
    /// instance being restored into (e.g. cache geometry mismatch).
    Mismatch(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapError::Mismatch(what) => write!(f, "snapshot/instance mismatch: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// A component whose architectural state can be captured and restored.
///
/// `save` and `restore` must round-trip bit-faithfully: a restored
/// instance behaves identically to the original under any subsequent
/// operation sequence. Configuration is *not* part of the stream — the
/// caller constructs the instance from its configuration first, then
/// restores state into it.
pub trait Snapshot {
    /// Appends this component's architectural state to `w`.
    fn save(&self, w: &mut SnapWriter);

    /// Loads state previously written by [`Snapshot::save`] into this
    /// (identically configured) instance.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on malformed bytes, [`SnapError::Mismatch`]
    /// when the stream was saved from a differently-shaped instance.
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Append-only snapshot encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// A fresh, empty writer.
    #[must_use]
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Writes a component tag (section marker for error reporting).
    pub fn tag(&mut self, tag: &[u8; 4]) {
        self.buf.extend_from_slice(tag);
    }

    /// Writes one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes an unsigned integer as a varint.
    pub fn u64(&mut self, v: u64) {
        push_varint(&mut self.buf, v);
    }

    /// Writes a `usize` as a varint.
    pub fn usize(&mut self, v: usize) {
        push_varint(&mut self.buf, v as u64);
    }

    /// Writes a signed integer as a zigzag varint.
    pub fn i64(&mut self, v: i64) {
        push_signed(&mut self.buf, v);
    }

    /// Writes an `f64` bit-exactly (8 bytes, little-endian).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes_field(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes_field(v.as_bytes());
    }

    /// Writes a **section**: a tagged, length-prefixed sub-stream filled
    /// in by `body`. Sections are how a container composes independently
    /// restorable pieces — a reader can load one section
    /// ([`SnapReader::section`]) without understanding (or even having
    /// the code for) its siblings, which is what lets the checkpoint
    /// container split policy-agnostic and policy-dependent state into
    /// separate files.
    pub fn section(&mut self, tag: &[u8; 4], body: impl FnOnce(&mut SnapWriter)) {
        self.tag(tag);
        let mut inner = SnapWriter::new();
        body(&mut inner);
        self.bytes_field(&inner.buf);
    }
}

/// Snapshot decoder over a byte slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, starting at the beginning.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Checks that the whole buffer was consumed (trailing garbage is a
    /// sign of a desynchronized stream).
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when bytes remain.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt(format!("{} trailing bytes after snapshot", self.remaining())))
        }
    }

    /// Reads and verifies a component tag.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when the tag does not match.
    pub fn expect_tag(&mut self, tag: &[u8; 4]) -> Result<(), SnapError> {
        let got = self
            .buf
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| SnapError::Corrupt("tag runs past payload".into()))?;
        if got != tag {
            return Err(SnapError::Corrupt(format!(
                "expected section {:?}, found {:?}",
                String::from_utf8_lossy(tag),
                String::from_utf8_lossy(got),
            )));
        }
        self.pos += 4;
        Ok(())
    }

    /// Reads one raw byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] at end of input.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        let &b = self
            .buf
            .get(self.pos)
            .ok_or_else(|| SnapError::Corrupt("byte runs past payload".into()))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a boolean byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] at end of input or on a byte that is
    /// neither 0 nor 1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::Corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a varint.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on truncated or over-long varints.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        read_varint(self.buf, &mut self.pos)
    }

    /// Reads a varint as `usize`.
    ///
    /// # Errors
    ///
    /// As [`SnapReader::u64`], plus overflow on 32-bit hosts.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?)
            .map_err(|_| SnapError::Corrupt("length overflows usize".into()))
    }

    /// Reads a zigzag varint.
    ///
    /// # Errors
    ///
    /// As [`SnapReader::u64`].
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        read_signed(self.buf, &mut self.pos)
    }

    /// Reads an `f64` written by [`SnapWriter::f64`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] at end of input.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or_else(|| SnapError::Corrupt("f64 runs past payload".into()))?;
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(bytes.try_into().expect("8 bytes"))))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on truncation.
    pub fn bytes_field(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.usize()?;
        let bytes = self
            .buf
            .get(self.pos..self.pos + len)
            .ok_or_else(|| SnapError::Corrupt("byte string runs past payload".into()))?;
        self.pos += len;
        Ok(bytes)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let bytes = self.bytes_field()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapError::Corrupt("string is not UTF-8".into()))
    }

    /// Reads a section written by [`SnapWriter::section`]: verifies the
    /// tag and returns a sub-reader over exactly the section's bytes.
    /// The sub-reader's [`SnapReader::finish`] checks the section (not
    /// the container) was fully consumed; this reader continues after
    /// the section regardless of how much of the sub-reader was used.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on a tag mismatch or truncated body.
    pub fn section(&mut self, tag: &[u8; 4]) -> Result<SnapReader<'a>, SnapError> {
        self.expect_tag(tag)?;
        Ok(SnapReader::new(self.bytes_field()?))
    }

    /// Checks that a stream-carried dimension matches the instance's,
    /// failing with a [`SnapError::Mismatch`] naming `what`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Mismatch`] when they differ.
    pub fn expect_len(&mut self, what: &str, expected: usize) -> Result<(), SnapError> {
        let got = self.usize()?;
        if got == expected {
            Ok(())
        } else {
            Err(SnapError::Mismatch(format!("{what}: snapshot has {got}, instance has {expected}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = SnapWriter::new();
        w.tag(b"TEST");
        w.u8(7);
        w.bool(true);
        w.u64(u64::MAX);
        w.i64(-12345);
        w.f64(1.5e-300);
        w.f64(-0.0);
        w.str("naïve");
        w.usize(42);

        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.expect_tag(b"TEST").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -12345);
        assert_eq!(r.f64().unwrap(), 1.5e-300);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "naïve");
        assert_eq!(r.usize().unwrap(), 42);
        r.finish().unwrap();
    }

    #[test]
    fn wrong_tag_names_both_sections() {
        let mut w = SnapWriter::new();
        w.tag(b"AAAA");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let err = r.expect_tag(b"BBBB").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("AAAA") && msg.contains("BBBB"), "{msg}");
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = SnapWriter::new();
        w.u64(1 << 40);
        w.f64(2.0);
        w.str("hello");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            let ok = r.u64().and_then(|_| r.f64()).and_then(|_| r.str());
            assert!(ok.is_err(), "decode succeeded on a {cut}-byte prefix");
        }
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.u8().unwrap();
        assert!(r.finish().is_err());
        r.u8().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn sections_round_trip_and_isolate() {
        let mut w = SnapWriter::new();
        w.section(b"AAAA", |w| {
            w.u64(7);
            w.str("inner");
        });
        w.section(b"BBBB", |w| w.u8(9));
        let bytes = w.into_bytes();

        // Read both sections in order.
        let mut r = SnapReader::new(&bytes);
        let mut a = r.section(b"AAAA").unwrap();
        assert_eq!(a.u64().unwrap(), 7);
        assert_eq!(a.str().unwrap(), "inner");
        a.finish().unwrap();
        let mut b = r.section(b"BBBB").unwrap();
        assert_eq!(b.u8().unwrap(), 9);
        r.finish().unwrap();

        // A reader can skip a section's contents entirely: the outer
        // stream continues at the next section regardless.
        let mut r = SnapReader::new(&bytes);
        let _unused = r.section(b"AAAA").unwrap();
        let mut b = r.section(b"BBBB").unwrap();
        assert_eq!(b.u8().unwrap(), 9);

        // Wrong tag is an error naming both sides.
        let mut r = SnapReader::new(&bytes);
        assert!(r.section(b"ZZZZ").is_err());
    }

    #[test]
    fn expect_len_reports_mismatch() {
        let mut w = SnapWriter::new();
        w.usize(4);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let err = r.expect_len("ways", 8).unwrap_err();
        assert!(matches!(err, SnapError::Mismatch(_)));
    }
}
