//! LEB128 varints, zigzag mapping, and the word-folded payload checksum.
//!
//! This machinery started life in `trrip-trace`'s on-disk format and
//! moved down here so the checkpoint subsystem (and every crate that
//! implements [`crate::Snapshot`]) can share one encoding. `trrip-trace`
//! re-exports these items from its `format` module, so existing callers
//! keep working.

use crate::SnapError;

/// Hash offset basis (FNV-1a's, reused).
const HASH_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// Multiplicative mixing constant (splitmix64's first odd constant).
const HASH_MULT: u64 = 0xBF58_476D_1CE4_E5B9;

/// Running 64-bit payload checksum, folded a word at a time (8× faster
/// than byte-serial FNV-1a; replay decode is checksummed on the hot
/// path).
///
/// Writer and reader feed it the same slices — one `update` per chunk
/// payload — so the word boundaries always agree; `update` call
/// boundaries are *not* transparent and this type is deliberately not a
/// general-purpose hasher.
#[derive(Debug, Clone, Copy)]
pub struct Checksum(u64);

impl Checksum {
    /// Fresh accumulator.
    #[must_use]
    pub fn new() -> Checksum {
        Checksum(HASH_OFFSET)
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            h = (h ^ w).wrapping_mul(HASH_MULT);
            h ^= h >> 31;
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = (tail.len() as u64) << 56;
            for (i, &b) in tail.iter().enumerate() {
                w |= u64::from(b) << (8 * i);
            }
            h = (h ^ w).wrapping_mul(HASH_MULT);
            h ^= h >> 31;
        }
        self.0 = h;
    }

    /// The current hash value.
    #[must_use]
    pub fn value(self) -> u64 {
        // Finalization so short payloads still avalanche.
        let mut h = self.0;
        h = (h ^ (h >> 33)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 29)
    }
}

impl Default for Checksum {
    fn default() -> Checksum {
        Checksum::new()
    }
}

/// Appends a LEB128 varint.
pub fn push_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Zigzag-encodes a signed delta and appends it as a varint.
pub fn push_signed(buf: &mut Vec<u8>, value: i64) {
    push_varint(buf, zigzag(value));
}

/// Signed → unsigned zigzag mapping.
#[must_use]
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Unsigned → signed zigzag inverse.
#[must_use]
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Reads a LEB128 varint from `buf[*pos..]`, advancing `pos`.
///
/// # Errors
///
/// [`SnapError::Corrupt`] when the varint runs past the buffer or past
/// 64 bits.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, SnapError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte =
            buf.get(*pos).ok_or_else(|| SnapError::Corrupt("varint runs past payload".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(SnapError::Corrupt("varint longer than 64 bits".into()));
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Reads a zigzag-encoded signed varint.
///
/// # Errors
///
/// As [`read_varint`].
pub fn read_signed(buf: &[u8], pos: &mut usize) -> Result<i64, SnapError> {
    Ok(unzigzag(read_varint(buf, pos)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 4, -4, i64::MAX, i64::MIN, 1 << 40, -(1 << 40)] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            push_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_varint_is_an_error() {
        let mut buf = Vec::new();
        push_varint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(read_varint(&buf[..cut], &mut pos).is_err());
        }
    }

    #[test]
    fn checksum_is_sensitive_to_single_bits() {
        let base = {
            let mut c = Checksum::new();
            c.update(b"the quick brown fox");
            c.value()
        };
        for bit in 0..8 {
            let mut payload = *b"the quick brown fox";
            payload[7] ^= 1 << bit;
            let mut c = Checksum::new();
            c.update(&payload);
            assert_ne!(c.value(), base, "flipping bit {bit} left the checksum unchanged");
        }
    }
}
