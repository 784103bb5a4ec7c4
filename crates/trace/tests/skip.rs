//! Skip-positioned replay: `StreamingReplay::open_at(path, skip)` must
//! deliver exactly the trace's suffix; on an indexed capture it must do
//! so by a true **seek** (never touching the skipped bytes), and on an
//! index-less (old-header) file by the raw chunk-by-chunk skip — the
//! two paths are equivalent record-for-record.
//!
//! One test function on purpose: the decode counter is process-wide,
//! and a single test keeps the measurement unpolluted.

use std::path::PathBuf;

use trrip_cpu::TraceInstr;
use trrip_snap::corrupt;
use trrip_trace::{probe, read_index, SourceIter, StreamingReplay, TraceWriter};

/// Records decoded since `before`, by the registry counter's name.
fn decoded_since(before: &trrip_obs::CounterSnapshot) -> u64 {
    trrip_obs::snapshot().since(before).get("trace.records_decoded")
}

fn mixed_trace(n: u64) -> Vec<TraceInstr> {
    let mut x = 0x0123_4567_89ab_cdefu64;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            match i % 4 {
                0 => TraceInstr::cond(0x4000 + (i % 64) * 4, x & 1 == 0, 0x4000),
                1 => TraceInstr::load(0x8000 + i * 4, 0x9_0000 + (x % 512) * 64),
                _ => TraceInstr::simple(0x8000 + i * 4),
            }
        })
        .collect()
}

fn trace_bytes(instrs: &[TraceInstr], chunk_capacity: u32) -> Vec<u8> {
    let mut writer = TraceWriter::with_chunk_capacity(
        std::io::Cursor::new(Vec::new()),
        "skip",
        trrip_trace::TraceLayout::Foreign,
        chunk_capacity,
    )
    .expect("header");
    writer.write_all(instrs.iter().copied()).expect("records");
    let mut cursor = writer.finish_into_inner().expect("finish");
    std::mem::take(cursor.get_mut())
}

fn write_file(name: &str, bytes: &[u8]) -> PathBuf {
    let dir = std::env::temp_dir().join("trrip-trace-skip-test");
    std::fs::create_dir_all(&dir).expect("test dir");
    let path = dir.join(format!("{name}-{}.trrip", std::process::id()));
    std::fs::write(&path, bytes).expect("write trace");
    path
}

/// The header's flags byte sits at offset 11; clearing the index bit
/// turns a fresh capture into an "old header" file — the footer bytes
/// still trail the chunks, but no reader will look for them.
fn clear_index_flag(bytes: &[u8]) -> Vec<u8> {
    let mut old = bytes.to_vec();
    assert_eq!(old[11], 1, "fresh captures advertise the index");
    old[11] = 0;
    old
}

#[test]
fn open_at_yields_the_exact_suffix_and_seeks_or_skips_decode() {
    const CHUNK: u32 = 1000;
    let instrs = mixed_trace(10 * u64::from(CHUNK));
    let bytes = trace_bytes(&instrs, CHUNK);
    let indexed = write_file("seek", &bytes);
    let old_header = write_file("skip", &clear_index_flag(&bytes));

    // Seek ≡ skip: both paths yield the exact suffix for aligned,
    // unaligned, zero, chunk-minus-one and beyond-the-end positions.
    for skip in [0u64, 1, 999, 1000, 4000, 4001, 9999, 10_000, 25_000] {
        for path in [&indexed, &old_header] {
            let replay = StreamingReplay::open_at(path, skip).expect("open_at");
            let suffix: Vec<TraceInstr> = SourceIter::new(replay).collect();
            let expected = &instrs[(skip as usize).min(instrs.len())..];
            assert_eq!(suffix, expected, "skip {skip} must yield the exact suffix");
        }
    }

    // Neither path decodes the skipped prefix: skipping 8 of 10 chunks
    // must cost 2 chunks of decode, not 10. The counter is
    // process-wide, so measure each path's own delta.
    for path in [&indexed, &old_header] {
        let before = trrip_obs::snapshot();
        let replay = StreamingReplay::open_at(path, 8 * u64::from(CHUNK)).expect("open_at");
        let n = SourceIter::new(replay).count();
        assert_eq!(n, 2 * CHUNK as usize);
        let decoded = decoded_since(&before);
        assert_eq!(decoded, 2 * u64::from(CHUNK), "aligned skip must not decode the prefix");

        // An unaligned skip pays exactly one boundary chunk extra.
        let before = trrip_obs::snapshot();
        let replay = StreamingReplay::open_at(path, 8 * u64::from(CHUNK) + 1).expect("open_at");
        let n = SourceIter::new(replay).count();
        assert_eq!(n, 2 * CHUNK as usize - 1);
        assert_eq!(decoded_since(&before), 2 * u64::from(CHUNK));
    }

    // True seek, pinned behaviorally: flip a byte inside the FIRST
    // chunk's payload (well past the header). The indexed path must
    // replay the suffix successfully — it literally never reads the
    // damaged byte — while the index-less skip path reads (and
    // checksums) the prefix raw and must fail. That difference IS the
    // proof the indexed path seeks instead of skipping.
    let damaged_indexed = write_file("seek-damaged", &bytes);
    corrupt::flip_byte(&damaged_indexed, 120, 0x20);
    let damaged_old = write_file("skip-damaged", &clear_index_flag(&bytes));
    corrupt::flip_byte(&damaged_old, 120, 0x20);

    let replay = StreamingReplay::open_at(&damaged_indexed, 8 * u64::from(CHUNK)).expect("open");
    let suffix: Vec<TraceInstr> = SourceIter::new(replay).collect();
    assert_eq!(suffix, &instrs[8 * CHUNK as usize..], "seek must never touch the prefix");

    let replay = StreamingReplay::open_at(&damaged_old, 8 * u64::from(CHUNK)).expect("open");
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| SourceIter::new(replay).count()));
    assert!(result.is_err(), "the skip path reads the prefix and must detect its damage");

    // Damage inside the bytes a seek actually READS is still caught:
    // the seeded accumulator state continues into the suffix and the
    // end-of-trace checksum fails. Chunk payloads are compressed, so
    // the victim byte is computed from the index — squarely inside the
    // LAST chunk's compressed payload, which the seek-to-chunk-8 path
    // must read.
    let tail_path = write_file("seek-tail-damaged", &bytes);
    let index = read_index(&tail_path, &probe(&tail_path).expect("probe"))
        .expect("read index")
        .expect("fresh captures carry an index");
    let last = index.entry(9);
    let comp_len = index.entry(10).offset - last.offset - 13; // minus the frame
    assert!(
        index.entry(10).offset < bytes.len() as u64 && comp_len > 2,
        "index must describe the chunk region"
    );
    corrupt::flip_byte(&tail_path, last.offset as usize + 13 + comp_len as usize / 2, 0x10);
    let replay = StreamingReplay::open_at(&tail_path, 8 * u64::from(CHUNK)).expect("open");
    let failed =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| SourceIter::new(replay).count()))
            .is_err();
    assert!(failed, "damage in the read suffix must not pass the seek path");

    // The capture really is compressed: the on-disk chunk region is
    // smaller than the uncompressed payload the index accounts for.
    let (mut disk, mut raw) = (0u64, 0u64);
    for k in 0..index.chunks() {
        disk += index.entry(k + 1).offset - index.entry(k).offset - 13;
        raw += index.entry(k).raw_len;
    }
    assert!(disk < raw, "compressed chunks ({disk} B) must undercut raw payload ({raw} B)");

    // A damaged FOOTER quietly demotes positioning to the skip path —
    // same records, no error.
    let footer_path = write_file("bad-footer", &bytes);
    corrupt::flip_byte(&footer_path, bytes.len() - 20, 0xFF); // inside the footer's checksum field
    let before = trrip_obs::snapshot();
    let replay = StreamingReplay::open_at(&footer_path, 8 * u64::from(CHUNK)).expect("open");
    let suffix: Vec<TraceInstr> = SourceIter::new(replay).collect();
    assert_eq!(suffix, &instrs[8 * CHUNK as usize..]);
    assert_eq!(
        decoded_since(&before),
        2 * u64::from(CHUNK),
        "the fallback is the raw skip, still decode-free for the prefix"
    );

    for path in [indexed, old_header, damaged_indexed, damaged_old, tail_path, footer_path].iter() {
        std::fs::remove_file(path).ok();
    }
}
