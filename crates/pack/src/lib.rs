//! `trrip-pack` — the byte codec for every artifact the workspace puts
//! at rest.
//!
//! Traces and checkpoints multiply per the paper's methodology (every
//! workload × 10 policies × many windows), so bytes-at-rest are the
//! fleet's scaling bottleneck. This crate is the one shared answer: a
//! dependency-free (std-only) codec toolbox sitting at the bottom of
//! the workspace, below `trrip-trace` and `trrip-sim`, next to
//! `trrip-snap` (whose varint and checksum machinery it reuses).
//!
//! One real codec plus a passthrough, selected **per block** by
//! [`compress_auto`] — a block LZ cannot shrink ships raw, so compression
//! never grows an artifact:
//!
//! | codec | byte shape | wins on |
//! |---|---|---|
//! | [`Codec::Raw`] | the input, verbatim | incompressible blocks |
//! | [`Codec::Lz`] | LZ tokens: `varint lit_len, lits [, varint match_len-4, varint dist]` | everything repetitive |
//!
//! The LZ matcher is a greedy hash-chain searcher over caller buffers —
//! no internal allocation survives a call: 4-byte hashes, a 64 KiB
//! window, at most 16 candidates per position, each compared eight
//! bytes at a time (`u64` XOR, the first difference from its trailing
//! zeros), and LZ4's skip — a literal run of 128 bytes or more advances
//! `1 + run / 128` positions per probe, so incompressible stretches cost
//! little. The decoder copies a match as a slice, in rounds when it
//! overlaps itself. On the `gcc` capture's columnar trace payloads
//! (3.3 M instructions, 10.8 MB) it packs at about 150 MB/s to 0.542 of
//! raw and unpacks at about 700 MB/s; the byte-by-byte, 32-deep matcher
//! before it took 38–47 MB/s for 0.537. The token grammar is the same,
//! so blocks either one wrote decode with this decoder.
//!
//! [`pack_stream`] / [`unpack_stream`] wrap the codecs in a checksummed
//! block stream for container payloads: each block carries its codec
//! tag, raw length, compressed length, and the checksum of the
//! **uncompressed** bytes, so corruption is localized and named before
//! any downstream decoder sees a byte.
//!
//! Every compression call feeds the `pack.*` registry counters
//! (`pack.raw_bytes`, `pack.compressed_bytes`, `pack.fallback_raw`) so
//! `--metrics` runs can report footprint ratios without re-reading
//! artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use trrip_snap::{push_varint, read_varint, Checksum};

/// Minimum LZ match length; shorter repeats stay literal.
const MIN_MATCH: usize = 4;
/// Hash-table width for the LZ matcher (2^15 heads).
const HASH_BITS: u32 = 15;
/// How far back an LZ match may reach.
const LZ_WINDOW: usize = 64 * 1024;
/// Hash-chain walk bound of the greedy matcher.
const MAX_CHAIN: usize = 16;
/// A literal run this long makes the matcher probe every second
/// position, twice this long every third, and so on.
const LITERAL_SKIP: usize = 128;
/// Block granularity of [`pack_stream`].
pub const BLOCK_LEN: usize = 64 * 1024;
/// Upper bound a stream header may claim, so a corrupt length cannot
/// balloon an allocation (far above any real container payload).
const MAX_STREAM_LEN: u64 = 1 << 31;

/// Everything that can go wrong decoding packed bytes.
#[derive(Debug)]
pub enum PackError {
    /// Structurally invalid bytes; the message says what.
    Corrupt(String),
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::Corrupt(what) => write!(f, "corrupt packed bytes: {what}"),
        }
    }
}

impl std::error::Error for PackError {}

fn corrupt(what: impl Into<String>) -> PackError {
    PackError::Corrupt(what.into())
}

fn rd(input: &[u8], pos: &mut usize) -> Result<u64, PackError> {
    read_varint(input, pos).map_err(|e| corrupt(e.to_string()))
}

/// Reads a varint length that may be at most `max`: a length off disk is
/// bounded before anything is added to it or sliced by it.
fn rd_len(input: &[u8], pos: &mut usize, max: usize, what: &str) -> Result<usize, PackError> {
    // Most LZ lengths fit one byte: read those without the general
    // decoder.
    let len = match input.get(*pos) {
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            u64::from(byte)
        }
        _ => rd(input, pos)?,
    };
    usize::try_from(len)
        .ok()
        .filter(|&len| len <= max)
        .ok_or_else(|| corrupt(format!("{what} of {len} exceeds the {max} it can span")))
}

/// How a block's bytes are encoded. The numeric values are the on-disk
/// tags — never renumber; 1 and 2 belonged to codecs that are gone and
/// are not to be reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Codec {
    /// Verbatim passthrough for incompressible blocks.
    Raw = 0,
    /// Greedy hash-chain LZ with varint-coded literal runs and matches.
    Lz = 3,
}

impl Codec {
    /// Decodes an on-disk codec tag.
    ///
    /// # Errors
    ///
    /// [`PackError::Corrupt`] on an unknown tag.
    pub fn from_u8(tag: u8) -> Result<Codec, PackError> {
        match tag {
            0 => Ok(Codec::Raw),
            3 => Ok(Codec::Lz),
            other => Err(corrupt(format!("unknown codec tag {other}"))),
        }
    }

    /// The codec's name as reported in benchmarks and telemetry.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Codec::Raw => "raw",
            Codec::Lz => "lz",
        }
    }
}

// --- LZ ----------------------------------------------------------------

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `input[a..]` and `input[b..]`, at
/// most `limit` (which must keep both inside `input`): eight bytes per
/// compare, the first differing byte found from the XOR's trailing
/// zeros (little-endian loads put the lower address in the low byte).
#[inline]
fn common_len(input: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let word = |at: usize| u64::from_le_bytes(*input[at..].first_chunk::<8>().expect("8 bytes"));
    let mut len = 0;
    while len + 8 <= limit {
        let diff = word(a + len) ^ word(b + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && input[a + len] == input[b + len] {
        len += 1;
    }
    len
}

/// LZ-compresses `input` into `out`. Returns false once the encoding
/// reaches `budget`.
fn try_lz(input: &[u8], budget: usize, out: &mut Vec<u8>) -> bool {
    out.clear();
    if input.len() < MIN_MATCH {
        return false;
    }
    let end = input.len();
    let mut head = vec![u32::MAX; 1 << HASH_BITS];
    let mut prev = vec![u32::MAX; end];

    let mut i = 0;
    let mut lit_start = 0;
    while i + MIN_MATCH <= end {
        let h = hash4(&input[i..]);
        let mut candidate = head[h];
        let mut best_len = 0usize;
        let mut best_pos = 0usize;
        let mut depth = 0;
        while candidate != u32::MAX && depth < MAX_CHAIN {
            let c = candidate as usize;
            if i - c > LZ_WINDOW {
                break; // chains are newest-first; the rest is older still
            }
            let len = common_len(input, c, i, end - i);
            if len > best_len {
                best_len = len;
                best_pos = c;
                if len >= 512 {
                    break; // long enough; stop searching
                }
            }
            candidate = prev[c];
            depth += 1;
        }
        if best_len >= MIN_MATCH {
            push_varint(out, (i - lit_start) as u64);
            out.extend_from_slice(&input[lit_start..i]);
            push_varint(out, (best_len - MIN_MATCH) as u64);
            push_varint(out, (i - best_pos) as u64);
            // Index the matched region so later matches can land inside it.
            let stop = (i + best_len).min(end - MIN_MATCH + 1);
            for j in i..stop {
                let h = hash4(&input[j..]);
                prev[j] = head[h];
                head[h] = j as u32;
            }
            i += best_len;
            lit_start = i;
        } else {
            prev[i] = head[h];
            head[h] = i as u32;
            // LZ4's skip: the longer the run without a match, the
            // farther the next probe; positions stepped over are not
            // indexed.
            i += 1 + (i - lit_start) / LITERAL_SKIP;
        }
        if out.len() >= budget {
            return false;
        }
    }
    if lit_start < end {
        push_varint(out, (end - lit_start) as u64);
        out.extend_from_slice(&input[lit_start..end]);
    }
    out.len() < budget
}

fn lz_decompress(input: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<(), PackError> {
    out.clear();
    out.reserve(raw_len.min(BLOCK_LEN));
    let mut pos = 0;
    while out.len() < raw_len {
        let lit_len = rd_len(input, &mut pos, raw_len - out.len(), "LZ literal run")?;
        let lits = input[pos..]
            .get(..lit_len)
            .ok_or_else(|| corrupt("LZ literal run past end of input"))?;
        out.extend_from_slice(lits);
        pos += lit_len;
        if out.len() == raw_len {
            break;
        }
        // What is left of the block bounds the match before MIN_MATCH
        // is added to it.
        let match_len = rd_len(input, &mut pos, raw_len - out.len(), "LZ match")? + MIN_MATCH;
        let dist = rd_len(input, &mut pos, out.len(), "LZ distance")?;
        if dist == 0 {
            return Err(corrupt("LZ distance of zero"));
        }
        if match_len > raw_len - out.len() {
            return Err(corrupt("LZ match overflows the block"));
        }
        // A match that overlaps itself (dist < match_len) repeats its
        // first `dist` bytes: copy in rounds, each as long as what the
        // match has produced so far, so every round reads bytes that
        // already exist.
        let start = out.len() - dist;
        let mut left = match_len;
        while left > 0 {
            let n = left.min(out.len() - start);
            out.extend_from_within(start..start + n);
            left -= n;
        }
    }
    if pos != input.len() {
        return Err(corrupt("trailing bytes after LZ stream"));
    }
    Ok(())
}

// --- Selection and framing --------------------------------------------

/// Compresses `input` into `out` (cleared first) with LZ, falling back
/// to a verbatim copy when that does not beat raw — the caller records
/// the returned [`Codec`] next to the bytes. Feeds the `pack.*` counters.
pub fn compress_auto(input: &[u8], out: &mut Vec<u8>) -> Codec {
    trrip_obs::counter!("pack.raw_bytes").add(input.len() as u64);
    let chosen = if try_lz(input, input.len(), out) {
        Codec::Lz
    } else {
        out.clear();
        out.extend_from_slice(input);
        if !input.is_empty() {
            trrip_obs::counter!("pack.fallback_raw").incr();
        }
        Codec::Raw
    };
    trrip_obs::counter!("pack.compressed_bytes").add(out.len() as u64);
    chosen
}

/// Decompresses a block written by [`compress_auto`] into `out`
/// (cleared first). `raw_len` is the expected uncompressed length the
/// caller recorded; any mismatch is corruption, not a resize.
///
/// # Errors
///
/// [`PackError::Corrupt`] on malformed bytes, lengths that disagree
/// with `raw_len`, or trailing garbage. Never panics on bad input.
pub fn decompress(
    codec: Codec,
    input: &[u8],
    raw_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), PackError> {
    match codec {
        Codec::Raw => {
            if input.len() != raw_len {
                return Err(corrupt(format!(
                    "raw block is {} bytes, expected {raw_len}",
                    input.len()
                )));
            }
            out.clear();
            out.extend_from_slice(input);
            Ok(())
        }
        Codec::Lz => lz_decompress(input, raw_len, out),
    }
}

/// Packs `input` as a self-describing checksummed block stream:
/// a varint total length, then per [`BLOCK_LEN`] block a codec tag,
/// varint raw and compressed lengths, the 8-byte checksum of the
/// **uncompressed** block, and the compressed bytes. The stream is what
/// container formats embed as their payload field.
#[must_use]
pub fn pack_stream(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    push_varint(&mut out, input.len() as u64);
    let mut comp = Vec::new();
    for block in input.chunks(BLOCK_LEN) {
        let codec = compress_auto(block, &mut comp);
        out.push(codec as u8);
        push_varint(&mut out, block.len() as u64);
        push_varint(&mut out, comp.len() as u64);
        let mut check = Checksum::new();
        check.update(block);
        out.extend_from_slice(&check.value().to_le_bytes());
        out.extend_from_slice(&comp);
    }
    out
}

/// Unpacks a stream written by [`pack_stream`], verifying each block's
/// uncompressed checksum.
///
/// # Errors
///
/// [`PackError::Corrupt`] on any structural damage, length mismatch, or
/// checksum failure — named per block. Never panics on bad input.
pub fn unpack_stream(input: &[u8]) -> Result<Vec<u8>, PackError> {
    let mut pos = 0;
    let total = rd(input, &mut pos)?;
    if total > MAX_STREAM_LEN {
        return Err(corrupt(format!("stream claims {total} bytes")));
    }
    let total = total as usize;
    let mut out = Vec::with_capacity(total.min(16 << 20));
    let mut block = Vec::new();
    let mut index = 0usize;
    while out.len() < total {
        let &tag = input.get(pos).ok_or_else(|| corrupt("stream ends mid-header"))?;
        pos += 1;
        let codec = Codec::from_u8(tag)?;
        let raw_len = rd(input, &mut pos)?;
        let comp_len = rd(input, &mut pos)?;
        if raw_len == 0 || raw_len > BLOCK_LEN.min(total - out.len()) as u64 {
            return Err(corrupt(format!("block {index} claims {raw_len} raw bytes")));
        }
        let raw_len = raw_len as usize;
        let expected = input[pos..]
            .first_chunk::<8>()
            .ok_or_else(|| corrupt("stream ends inside a block checksum"))?;
        let expected = u64::from_le_bytes(*expected);
        pos += 8;
        // Compared with what is left of the input before it is added to
        // anything.
        let comp = usize::try_from(comp_len)
            .ok()
            .and_then(|comp_len| input[pos..].get(..comp_len))
            .ok_or_else(|| corrupt(format!("block {index} truncated")))?;
        pos += comp.len();
        decompress(codec, comp, raw_len, &mut block)?;
        let mut check = Checksum::new();
        check.update(&block);
        if check.value() != expected {
            return Err(corrupt(format!("block {index} checksum mismatch")));
        }
        out.extend_from_slice(&block);
        index += 1;
    }
    if pos != input.len() {
        return Err(corrupt("trailing bytes after the block stream"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(input: &[u8]) -> Codec {
        let mut comp = Vec::new();
        let codec = compress_auto(input, &mut comp);
        let mut back = Vec::new();
        decompress(codec, &comp, input.len(), &mut back).expect("decompress");
        assert_eq!(back, input, "{codec:?} round trip");
        codec
    }

    #[test]
    fn repetitive_bytes_pick_lz() {
        let phrase = b"the quick brown fox jumps over the lazy dog; ";
        let mut input = Vec::new();
        for i in 0..200 {
            input.extend_from_slice(phrase);
            input.push(i as u8);
        }
        let mut comp = Vec::new();
        let codec = compress_auto(&input, &mut comp);
        assert_eq!(codec, Codec::Lz);
        assert!(comp.len() < input.len() / 2, "LZ on repeats: {} bytes", comp.len());
        round_trip(&input);

        // A bitmap's worth of one byte: a single long match.
        let run = vec![0xFFu8; BLOCK_LEN];
        assert_eq!(compress_auto(&run, &mut comp), Codec::Lz);
        assert!(comp.len() <= run.len() / 100, "LZ on a run: {} bytes", comp.len());
        round_trip(&run);

        // Sorted words (a tag array): whatever is picked, it never grows.
        let words: Vec<u8> =
            (0..2048u64).map(|i| 0x4000 + i * 64).flat_map(|w| w.to_le_bytes()).collect();
        compress_auto(&words, &mut comp);
        assert!(comp.len() <= words.len(), "sorted words grew to {} bytes", comp.len());
        round_trip(&words);
    }

    #[test]
    fn incompressible_bytes_ship_raw_and_never_grow() {
        // Xorshift noise defeats every codec; the block must ship raw at
        // exactly its own size.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let noise: Vec<u8> = (0..8192)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let mut comp = Vec::new();
        let codec = compress_auto(&noise, &mut comp);
        assert_eq!(codec, Codec::Raw);
        assert_eq!(comp, noise);
        round_trip(&noise);
    }

    #[test]
    fn empty_input_round_trips_everywhere() {
        assert_eq!(round_trip(&[]), Codec::Raw);
        let stream = pack_stream(&[]);
        assert_eq!(unpack_stream(&stream).expect("empty stream"), Vec::<u8>::new());
    }

    #[test]
    fn stream_round_trips_across_block_boundaries() {
        // > 2 blocks of mixed content.
        let mut payload = vec![0u8; BLOCK_LEN + 17];
        payload.extend((0..BLOCK_LEN as u64 / 8).flat_map(|i| (i * 64).to_le_bytes()));
        payload.extend(b"tail".repeat(1000));
        let stream = pack_stream(&payload);
        assert!(stream.len() < payload.len() / 2, "mixed stream must shrink");
        assert_eq!(unpack_stream(&stream).expect("unpack"), payload);
    }

    #[test]
    fn damaged_streams_are_rejected_never_panic() {
        let payload: Vec<u8> = (0..40_000u64).flat_map(|i| (i % 251).to_le_bytes()).collect();
        let stream = pack_stream(&payload);
        // Truncation at every prefix length must error, not panic.
        for cut in 0..stream.len().min(64) {
            assert!(unpack_stream(&stream[..cut]).is_err(), "{cut}-byte prefix accepted");
        }
        assert!(unpack_stream(&stream[..stream.len() - 1]).is_err());
        // A tag no codec owns — 1 and 2 had owners once — is corrupt.
        let mut pos = 0;
        read_varint(&stream, &mut pos).expect("total length");
        assert_eq!(stream[pos], Codec::Lz as u8, "the first block's tag follows the total");
        for tag in [1, 2, 4, 0xFF] {
            let mut bent = stream.clone();
            bent[pos] = tag;
            let err = unpack_stream(&bent).expect_err("unknown tag accepted");
            assert!(err.to_string().contains("unknown codec tag"), "tag {tag}: {err}");
        }
        // A flipped byte anywhere fails a named check (header decode or
        // block checksum), never silently succeeds with wrong bytes.
        for offset in [1, 5, stream.len() / 3, stream.len() / 2, stream.len() - 2] {
            let mut bent = stream.clone();
            bent[offset] ^= 0x10;
            match unpack_stream(&bent) {
                Err(_) => {}
                Ok(back) => assert_eq!(back, payload, "flip at {offset} gave wrong bytes"),
            }
        }
    }

    /// A match length straight off a varint: `u64::MAX` must be refused
    /// by comparing it with what is left of the block, not by adding
    /// `MIN_MATCH` to it first.
    #[test]
    fn an_lz_match_length_of_u64_max_is_corrupt_not_an_overflow() {
        let mut block = Vec::new();
        push_varint(&mut block, 4); // literal run
        block.extend_from_slice(b"abcd");
        push_varint(&mut block, u64::MAX); // match_len - MIN_MATCH
        push_varint(&mut block, 1); // dist
        let mut out = Vec::new();
        let err = decompress(Codec::Lz, &block, 4096, &mut out).expect_err("must be refused");
        assert!(matches!(err, PackError::Corrupt(_)));
        // The largest length that does not overflow still overruns.
        for len in [u64::MAX - MIN_MATCH as u64, 4096, 4093 - MIN_MATCH as u64] {
            let mut block = block[..5].to_vec();
            push_varint(&mut block, len);
            push_varint(&mut block, 1);
            assert!(decompress(Codec::Lz, &block, 4096, &mut out).is_err(), "match of {len}");
        }
        // A literal run or a distance that large fares no better.
        let mut block = Vec::new();
        push_varint(&mut block, u64::MAX);
        assert!(decompress(Codec::Lz, &block, 4096, &mut out).is_err());
        let mut block = block_with_match(4, u64::MAX);
        assert!(decompress(Codec::Lz, &block, 4096, &mut out).is_err());
        // And the same block with a distance it can honour decodes —
        // also when the match overlaps itself, at distances 1 and 3 over
        // 64 bytes.
        block = block_with_match(4, 4);
        decompress(Codec::Lz, &block, 12, &mut out).expect("a well-formed block");
        assert_eq!(out, b"abcdabcdabcd");
        for dist in [1, 3] {
            block = block_with_match(64 - 4 - MIN_MATCH as u64, dist);
            decompress(Codec::Lz, &block, 64, &mut out).expect("an overlapping match");
            let mut expected = b"abcd".to_vec();
            while expected.len() < 64 {
                expected.push(expected[expected.len() - dist as usize]);
            }
            assert_eq!(out, expected, "distance {dist}");
        }
    }

    /// The token grammar did not change: a block the previous matcher
    /// (32-deep chains, byte-by-byte compare, no literal skip) wrote —
    /// literal runs, a distance-1 run, an overlapping distance-3 match
    /// and two-byte lengths and distances — still decodes to its input,
    /// which is what lets checkpoints written before it restore.
    #[test]
    fn a_block_the_previous_matcher_wrote_decodes_to_its_input() {
        let mut input = b"the columnar payload of a trace chunk; ".repeat(3);
        input.extend([0u8; 300]);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let noise: Vec<u8> = (0..160)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        input.extend_from_slice(&noise);
        input.extend_from_slice(b"abcabcabcabcabcabcabc");
        input.extend_from_slice(&noise);
        let block = include_bytes!("../testdata/lz_v8_block.bin");
        let mut out = Vec::new();
        decompress(Codec::Lz, block, input.len(), &mut out).expect("the previous encoder's block");
        assert_eq!(out, input);
    }

    /// `abcd`, then a match of `len + MIN_MATCH` bytes at `dist`.
    fn block_with_match(len: u64, dist: u64) -> Vec<u8> {
        let mut block = Vec::new();
        push_varint(&mut block, 4);
        block.extend_from_slice(b"abcd");
        push_varint(&mut block, len);
        push_varint(&mut block, dist);
        block
    }

    /// A block header whose compressed length is `u64::MAX`: the slice
    /// `pos..pos + comp_len` must never be computed.
    #[test]
    fn a_stream_block_length_of_u64_max_is_corrupt_not_an_overflow() {
        for (raw_len, comp_len) in [(16, u64::MAX), (16, u64::MAX - 8), (u64::MAX, 4), (16, 17)] {
            let mut stream = Vec::new();
            push_varint(&mut stream, 16); // total
            stream.push(Codec::Raw as u8);
            push_varint(&mut stream, raw_len);
            push_varint(&mut stream, comp_len);
            stream.extend_from_slice(&[0; 8]); // checksum
            stream.extend_from_slice(&[0; 16]); // the block
            let err = unpack_stream(&stream).expect_err("must be refused");
            assert!(matches!(err, PackError::Corrupt(_)), "{raw_len} / {comp_len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes round-trip through auto selection.
        #[test]
        fn arbitrary_bytes_round_trip(input in prop::collection::vec(any::<u8>(), 0..4096)) {
            let mut comp = Vec::new();
            let codec = compress_auto(&input, &mut comp);
            prop_assert!(comp.len() <= input.len(), "auto selection may never grow a block");
            let mut back = Vec::new();
            decompress(codec, &comp, input.len(), &mut back).expect("decompress");
            prop_assert_eq!(back, input);
        }

        /// Arbitrary bytes survive the framed stream, and random damage
        /// to the stream never panics the decoder.
        #[test]
        fn arbitrary_streams_round_trip_and_reject_damage(
            input in prop::collection::vec(any::<u8>(), 0..2048),
            flip_at in any::<u16>(),
            mask in 1u8..=255,
        ) {
            let stream = pack_stream(&input);
            prop_assert_eq!(unpack_stream(&stream).expect("unpack"), input.clone());
            let mut bent = stream.clone();
            let offset = flip_at as usize % bent.len().max(1);
            if !bent.is_empty() {
                bent[offset] ^= mask;
                match unpack_stream(&bent) {
                    Err(_) => {}
                    Ok(back) => prop_assert_eq!(back, input, "damage decoded to wrong bytes"),
                }
            }
        }
    }
}
