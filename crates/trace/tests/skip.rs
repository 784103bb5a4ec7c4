//! Skip-positioned replay: `StreamingReplay::open_at(path, skip)` must
//! deliver exactly the trace's suffix, by decoding the `skip` records in
//! front of it and dropping them — so every byte of the file, skipped
//! prefix included, is read and checksum-verified.
//!
//! One test function on purpose: the decode counter is process-wide,
//! and a single test keeps the measurement unpolluted.

use std::path::PathBuf;

use trrip_cpu::TraceInstr;
use trrip_snap::corrupt;
use trrip_trace::format::{CHUNK_FRAME_LEN, HEADER_FIXED_LEN};
use trrip_trace::{SourceIter, StreamingReplay, TraceWriter};

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

/// Every chunk frame's `(comp_len, raw_len)`, walked front to back from
/// the end of the header: the compressed and the columnar size of its
/// payload.
fn frame_lens(bytes: &[u8]) -> Vec<(u64, u64)> {
    let word = |at: usize| u64::from(u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4")));
    let mut at = HEADER_FIXED_LEN + "skip".len();
    let mut frames = Vec::new();
    while at < bytes.len() {
        let (comp_len, raw_len) = (word(at + 4), word(at + 8));
        frames.push((comp_len, raw_len));
        at += CHUNK_FRAME_LEN + comp_len as usize;
    }
    assert_eq!(at, bytes.len(), "the last frame ends the file");
    frames
}

#[test]
fn open_at_yields_the_exact_suffix_and_verifies_the_skipped_prefix() {
    const CHUNK: u32 = 1000;
    let instrs = mixed_trace(10 * u64::from(CHUNK));
    let bytes = trace_bytes(&instrs, CHUNK);
    let path = write_file("skip", &bytes);

    // The exact suffix for aligned, unaligned, zero, chunk-minus-one and
    // beyond-the-end positions.
    for skip in [0u64, 1, 999, 1000, 4000, 4001, 9999, 10_000, 25_000] {
        let replay = StreamingReplay::open_at(&path, skip).expect("open_at");
        let suffix: Vec<TraceInstr> = SourceIter::new(replay).collect();
        let expected = &instrs[(skip as usize).min(instrs.len())..];
        assert_eq!(suffix, expected, "skip {skip} must yield the exact suffix");
    }

    // The skipped prefix is decoded: skipping 8 of 10 chunks decodes all
    // 10. The counter is process-wide, so measure the open's own delta.
    let before = trrip_obs::snapshot();
    let replay = StreamingReplay::open_at(&path, 8 * u64::from(CHUNK)).expect("open_at");
    assert_eq!(SourceIter::new(replay).count(), 2 * CHUNK as usize);
    assert_eq!(decoded_since(&before), 10 * u64::from(CHUNK), "the prefix is decoded too");

    // A byte flipped inside the FIRST chunk's payload, well before the
    // position: the positioned replay reads it, the checksum fails, and
    // the replay panics naming the trace — as a replay from the start
    // does.
    let damaged = write_file("skip-damaged", &bytes);
    corrupt::flip_byte(&damaged, 120, 0x20);
    for skip in [0, 8 * u64::from(CHUNK)] {
        let replay = StreamingReplay::open_at(&damaged, skip).expect("the header is whole");
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            SourceIter::new(replay).count()
        }))
        .expect_err("damage in the skipped prefix must fail the replay");
        let message = panic.downcast_ref::<String>().expect("a formatted panic message");
        assert!(message.contains("replaying trace skip"), "skip {skip}: {message}");
    }

    // The capture really is compressed: the on-disk chunk region is
    // smaller than the columnar payloads its frames account for.
    let frames = frame_lens(&bytes);
    assert_eq!(frames.len(), 10);
    let (disk, raw) = frames.iter().fold((0, 0), |(d, r), &(c, w)| (d + c, r + w));
    assert!(disk < raw, "compressed chunks ({disk} B) must undercut raw payload ({raw} B)");

    for path in [path, damaged].iter() {
        std::fs::remove_file(path).ok();
    }
}
