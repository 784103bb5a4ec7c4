//! Skip-positioned replay: `StreamingReplay::open_at(path, skip)` must
//! deliver exactly the trace's suffix, by a true **seek** through the
//! chunk index every capture ends with — never touching the skipped
//! bytes, decoding only the chunk the position lands in. The footer is
//! part of the format: one that does not validate makes the file no
//! capture at all (`probe` and `open_at` refuse it), while a sequential
//! read of its records is unaffected.
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

/// The `raw_len` of the chunk frame at `offset`: its columnar payload's
/// length before compression.
fn frame_raw_len(bytes: &[u8], offset: u64) -> u64 {
    let at = offset as usize + 8;
    u64::from(u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")))
}

#[test]
fn open_at_yields_the_exact_suffix_and_seeks_or_skips_decode() {
    const CHUNK: u32 = 1000;
    let instrs = mixed_trace(10 * u64::from(CHUNK));
    let bytes = trace_bytes(&instrs, CHUNK);
    let path = write_file("seek", &bytes);

    // The exact suffix for aligned, unaligned, zero, chunk-minus-one and
    // beyond-the-end positions.
    for skip in [0u64, 1, 999, 1000, 4000, 4001, 9999, 10_000, 25_000] {
        let replay = StreamingReplay::open_at(&path, skip).expect("open_at");
        let suffix: Vec<TraceInstr> = SourceIter::new(replay).collect();
        let expected = &instrs[(skip as usize).min(instrs.len())..];
        assert_eq!(suffix, expected, "skip {skip} must yield the exact suffix");
    }

    // The skipped prefix is not decoded: skipping 8 of 10 chunks must
    // cost 2 chunks of decode, not 10. The counter is process-wide, so
    // measure each open's own delta.
    let before = trrip_obs::snapshot();
    let replay = StreamingReplay::open_at(&path, 8 * u64::from(CHUNK)).expect("open_at");
    assert_eq!(SourceIter::new(replay).count(), 2 * CHUNK as usize);
    assert_eq!(decoded_since(&before), 2 * u64::from(CHUNK), "aligned skip decodes no prefix");

    // An unaligned skip decodes the chunk it lands in and drops the
    // records before the position.
    let before = trrip_obs::snapshot();
    let replay = StreamingReplay::open_at(&path, 8 * u64::from(CHUNK) + 1).expect("open_at");
    assert_eq!(SourceIter::new(replay).count(), 2 * CHUNK as usize - 1);
    assert_eq!(decoded_since(&before), 2 * u64::from(CHUNK));

    // True seek, pinned behaviorally: flip a byte inside the FIRST
    // chunk's payload (well past the header). The positioned replay
    // must deliver the suffix — it never reads the damaged byte — while
    // a replay from the start reads (and checksums) it and must fail.
    let damaged = write_file("seek-damaged", &bytes);
    corrupt::flip_byte(&damaged, 120, 0x20);
    let replay = StreamingReplay::open_at(&damaged, 8 * u64::from(CHUNK)).expect("open");
    let suffix: Vec<TraceInstr> = SourceIter::new(replay).collect();
    assert_eq!(suffix, &instrs[8 * CHUNK as usize..], "seek must never touch the prefix");
    let replay = StreamingReplay::open(&damaged).expect("open");
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| SourceIter::new(replay).count()));
    assert!(result.is_err(), "a replay from the start reads the prefix and detects its damage");

    // Damage inside the bytes a seek actually READS is still caught:
    // the seeded accumulator state continues into the suffix and the
    // end-of-trace checksum fails. Chunk payloads are compressed, so
    // the victim byte is computed from the index — squarely inside the
    // LAST chunk's compressed payload, which the seek-to-chunk-8 path
    // must read.
    let tail_path = write_file("seek-tail-damaged", &bytes);
    let meta = probe(&tail_path).expect("probe");
    let index = read_index(&mut std::fs::File::open(&tail_path).expect("open"), &meta)
        .expect("every capture carries an index");
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
    // smaller than the columnar payloads its frames account for.
    let (mut disk, mut raw) = (0u64, 0u64);
    for k in 0..index.chunks() {
        disk += index.entry(k + 1).offset - index.entry(k).offset - 13;
        raw += frame_raw_len(&bytes, index.entry(k).offset);
    }
    assert!(disk < raw, "compressed chunks ({disk} B) must undercut raw payload ({raw} B)");

    // A damaged footer is a miss: `probe` (the trace store's match
    // check) refuses the file and no replay opens on it, from any
    // position — while the records themselves still read sequentially.
    let footer_path = write_file("bad-footer", &bytes);
    corrupt::flip_byte(&footer_path, bytes.len() - 20, 0xFF); // inside the footer's checksum field
    assert!(probe(&footer_path).is_err(), "a damaged footer is not a capture");
    for skip in [0, 8 * u64::from(CHUNK)] {
        assert!(StreamingReplay::open_at(&footer_path, skip).is_err(), "open_at({skip})");
    }
    let mut reader = trrip_trace::open(&footer_path).expect("the header is whole");
    assert_eq!(reader.read_to_end().expect("records"), instrs);

    for path in [path, damaged, tail_path, footer_path].iter() {
        std::fs::remove_file(path).ok();
    }
}
