//! `trrip-pack` — empty.
//!
//! This crate held the LZ codec that packed trace chunks and checkpoint
//! payloads. Both formats now keep their bytes as written, so nothing
//! here is called. The crate stays only because the benchmark package's
//! tracked `Cargo.lock` names it and its dependency edges: dropping it,
//! or an edge to it, would make cargo rewrite that file. It goes at the
//! next re-lock.

#![forbid(unsafe_code)]
