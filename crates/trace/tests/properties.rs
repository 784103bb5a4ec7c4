//! Property tests of the binary trace format: write → read is the
//! identity on arbitrary instruction sequences, damaged files are
//! rejected rather than misread, and no payload makes the decoder panic.

use std::io::Cursor;

use proptest::prelude::*;
use trrip_cpu::{BranchInfo, BranchKind, MemOp, StallClass, TraceInstr};
use trrip_mem::VirtAddr;
use trrip_trace::format::push_varint;
use trrip_trace::{decode_chunk, SourceIter, TraceError, TraceLayout, TraceReader, TraceWriter};

fn arb_branch() -> impl Strategy<Value = Option<BranchInfo>> {
    prop_oneof![
        Just(None),
        (0u8..6, any::<bool>(), any::<u64>()).prop_map(|(kind, taken, target)| {
            let kind = match kind {
                0 => BranchKind::Conditional,
                1 => BranchKind::Direct,
                2 => BranchKind::Indirect,
                3 => BranchKind::Call,
                4 => BranchKind::IndirectCall,
                _ => BranchKind::Return,
            };
            Some(BranchInfo { kind, taken, target: VirtAddr::new(target) })
        }),
    ]
}

fn arb_stall() -> impl Strategy<Value = Option<(StallClass, u8)>> {
    prop_oneof![
        Just(None),
        (0u8..6, any::<u8>()).prop_map(|(class, cycles)| {
            let class = match class {
                0 => StallClass::Ifetch,
                1 => StallClass::Mispred,
                2 => StallClass::Depend,
                3 => StallClass::Issue,
                4 => StallClass::Mem,
                _ => StallClass::Other,
            };
            Some((class, cycles))
        }),
    ]
}

fn arb_instr() -> impl Strategy<Value = TraceInstr> {
    (
        any::<u64>(),
        arb_branch(),
        prop_oneof![
            Just(None),
            (any::<u64>(), any::<bool>())
                .prop_map(|(addr, store)| Some(MemOp { addr: VirtAddr::new(addr), store })),
        ],
        arb_stall(),
    )
        .prop_map(|(pc, branch, mem, exec_stall)| TraceInstr {
            pc: VirtAddr::new(pc),
            branch,
            mem,
            exec_stall,
        })
}

fn write_trace(instrs: &[TraceInstr], chunk_capacity: u32) -> Vec<u8> {
    let mut writer = TraceWriter::with_chunk_capacity(
        Cursor::new(Vec::new()),
        "prop",
        TraceLayout::Foreign,
        chunk_capacity,
    )
    .expect("header");
    writer.write_all(instrs.iter().copied()).expect("records");
    let mut cursor = writer.finish_into_inner().expect("finish");
    std::mem::take(cursor.get_mut())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// write → read is the identity, including branch metadata, memory
    /// operands and stall classes, across chunk boundaries.
    #[test]
    fn round_trip_is_identity(
        instrs in prop::collection::vec(arb_instr(), 0..600),
        chunk_capacity in 1u32..96,
    ) {
        let bytes = write_trace(&instrs, chunk_capacity);
        let mut reader = TraceReader::new(Cursor::new(&bytes)).expect("header");
        prop_assert_eq!(reader.meta().instructions, instrs.len() as u64);
        prop_assert_eq!(reader.meta().name.as_str(), "prop");
        prop_assert_eq!(reader.meta().layout, TraceLayout::Foreign);
        let decoded = reader.read_to_end().expect("decode");
        prop_assert_eq!(decoded, instrs);
    }

    /// The streaming [`SourceIter`] view yields the same sequence as the
    /// bulk read.
    #[test]
    fn source_iter_matches_bulk_read(
        instrs in prop::collection::vec(arb_instr(), 1..300),
        chunk_capacity in 1u32..64,
    ) {
        let bytes = write_trace(&instrs, chunk_capacity);
        let reader = TraceReader::new(Cursor::new(&bytes)).expect("header");
        let streamed: Vec<_> = SourceIter::new(reader).collect();
        prop_assert_eq!(streamed, instrs);
    }

    /// Truncating a trace by one byte or more is detected — either as an
    /// I/O error (cut mid-structure) or as a corrupt/checksum failure —
    /// never as a silently shorter trace: the file ends with its last
    /// chunk.
    #[test]
    fn truncation_never_passes_silently(
        instrs in prop::collection::vec(arb_instr(), 1..120),
        cut_back in 1usize..256,
    ) {
        let bytes = write_trace(&instrs, 16);
        prop_assume!(cut_back < bytes.len());
        let truncated = &bytes[..bytes.len() - cut_back];
        if let Ok(mut reader) = TraceReader::new(Cursor::new(truncated)) {
            let mut out = Vec::new();
            let failed = loop {
                match reader.read_chunk(&mut out) {
                    Err(_) => break true,
                    Ok(0) => break false,
                    Ok(_) => {}
                }
            };
            prop_assert!(failed, "cut {} bytes back", cut_back);
        }
    }

    /// Flipping any single byte past the header is caught by the
    /// checksum (or earlier, by structural validation).
    #[test]
    fn payload_corruption_is_detected(
        instrs in prop::collection::vec(arb_instr(), 1..120),
        victim in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = write_trace(&instrs, 16);
        // An empty trace is its header alone.
        let header_len = write_trace(&[], 16).len();
        let target = header_len + (victim as usize % (bytes.len() - header_len));
        bytes[target] ^= flip;

        let mut failed = TraceReader::new(Cursor::new(&bytes)).is_err();
        if !failed {
            let mut reader = TraceReader::new(Cursor::new(&bytes)).expect("header");
            let mut out = Vec::new();
            failed = loop {
                match reader.read_chunk(&mut out) {
                    Err(_) => break true,
                    Ok(0) => break false,
                    Ok(_) => {}
                }
            };
        }
        prop_assert!(failed, "corrupted byte at {target} went unnoticed");
    }

    /// Arbitrary bytes as a chunk's columnar payload, under arbitrary
    /// record counts, decode to an error or to exactly that many
    /// instructions — never a panic. Half the cases frame five arbitrary
    /// streams with their true lengths (the flags stream's length is the
    /// record count), so the record loop meets garbage too, not only the
    /// length check in front of it.
    #[test]
    fn arbitrary_payloads_decode_or_error_never_panic(
        streams in (
            prop::collection::vec(any::<u8>(), 0..48),
            prop::collection::vec(any::<u8>(), 0..48),
            prop::collection::vec(any::<u8>(), 0..48),
            prop::collection::vec(any::<u8>(), 0..48),
            prop::collection::vec(any::<u8>(), 0..48),
        ),
        framed in any::<bool>(),
        record_count in prop_oneof![0u32..48, any::<u32>()],
    ) {
        let (flags, pcs, branches, mems, stalls) = streams;
        let mut payload = Vec::new();
        let mut count = record_count;
        if framed {
            for stream in [&pcs, &branches, &mems, &stalls] {
                push_varint(&mut payload, stream.len() as u64);
            }
            count = flags.len() as u32;
        }
        for stream in [&flags, &pcs, &branches, &mems, &stalls] {
            payload.extend_from_slice(stream);
        }
        let mut out = Vec::new();
        if decode_chunk(&payload, count, &mut out).is_ok() {
            prop_assert_eq!(out.len(), count as usize);
        }
    }
}

#[test]
fn rejects_wrong_magic() {
    let mut bytes = write_trace(&[TraceInstr::simple(0x1000)], 16);
    bytes[0] = b'X';
    assert!(matches!(TraceReader::new(Cursor::new(&bytes)), Err(TraceError::BadMagic)));
}

#[test]
fn rejects_future_version() {
    // …and every past one: the reader speaks exactly one version.
    let current = trrip_trace::format::VERSION;
    assert_eq!(current, 6, "so `current - 1` below is v5, the version with a footer");
    for version in [u16::MAX, current + 1, current - 1, 1, 0] {
        let mut bytes = write_trace(&[TraceInstr::simple(0x1000)], 16);
        bytes[8..10].copy_from_slice(&version.to_le_bytes());
        assert!(matches!(
            TraceReader::new(Cursor::new(&bytes)),
            Err(TraceError::UnsupportedVersion(v)) if v == version
        ));
    }
}

#[test]
fn rejects_header_shorter_than_fixed_part() {
    let bytes = write_trace(&[], 16);
    for cut in 0..trrip_trace::format::HEADER_FIXED_LEN.min(bytes.len()) {
        assert!(
            TraceReader::new(Cursor::new(&bytes[..cut])).is_err(),
            "accepted a {cut}-byte header"
        );
    }
}

#[test]
fn rejects_invalid_layout_byte() {
    let mut bytes = write_trace(&[], 16);
    bytes[10] = 0x7F;
    assert!(matches!(TraceReader::new(Cursor::new(&bytes)), Err(TraceError::Corrupt(_))));
}

#[test]
fn checksum_mismatch_reports_both_values() {
    let mut bytes = write_trace(&[TraceInstr::simple(0x1000), TraceInstr::simple(0x1004)], 16);
    // Flip a bit in the stored checksum (header offset 24).
    bytes[24] ^= 1;
    let mut reader = TraceReader::new(Cursor::new(&bytes)).expect("header still valid");
    let mut out = Vec::new();
    let err = loop {
        match reader.read_chunk(&mut out) {
            Err(e) => break e,
            Ok(0) => panic!("checksum mismatch not detected"),
            Ok(_) => {}
        }
    };
    assert!(matches!(err, TraceError::ChecksumMismatch { expected, found } if expected != found));
}
