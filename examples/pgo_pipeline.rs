//! The compiler/OS side in detail: watch one program move through the
//! PGO pipeline and onto temperature-tagged pages.
//!
//! Shows: section layout differences between source order and PGO,
//! per-page PTE temperature bits at several page sizes, and what happens
//! to pages straddling sections (§4.9).
//!
//! Run with: `cargo run --release --example pgo_pipeline`

use trrip::compiler::{classify_functions, Linker};
use trrip::core::ClassifierConfig;
use trrip::mem::PageSize;
use trrip::os::{Loader, OverlapPolicy};
use trrip::workloads::{build_program, TraceGenerator, WorkloadSpec};

fn main() {
    let mut spec = WorkloadSpec::named("pipeline-demo");
    spec.functions = 120;
    spec.hot_rotation = 20;
    let program = build_program(&spec);
    println!(
        "program: {} functions, {} external, {} bytes of text",
        program.functions.len(),
        program.external_functions.len(),
        program.text_bytes()
    );

    // ① Compile without PGO and run the instrumented binary (training).
    let linker = Linker::new();
    let plain = linker.link_source_order(&program);
    let profile = TraceGenerator::train(&program, &plain, &spec, 400_000);
    println!("training run: {} basic-block executions profiled", profile.total());

    // ② Classify with Equations 1–2 and re-link with PGO.
    let temps = classify_functions(&profile, ClassifierConfig::llvm_defaults());
    let (hot, warm, cold) = temps.histogram();
    println!("classification: {hot} hot / {warm} warm / {cold} cold functions");
    let pgo = linker.link_pgo(&program, &profile, &temps);

    println!("\nsections (PGO layout):");
    for s in &pgo.sections {
        println!(
            "  {:<16} base {:>10} size {:>8}  temperature {}",
            s.name,
            s.base.to_string(),
            s.size_bytes,
            s.temperature.map_or("-".to_owned(), |t| t.to_string()),
        );
    }

    // ③ Load at each page size and inspect the PTE temperature bits.
    println!("\npages per temperature (DropMixed overlap policy):");
    println!(
        "{:>6} {:>6} {:>6} {:>6} {:>9} {:>6}",
        "size", "hot", "warm", "cold", "untagged", "mixed"
    );
    for size in PageSize::ALL {
        let image = Loader::new(size).load(&pgo);
        let s = image.stats;
        println!(
            "{:>6} {:>6} {:>6} {:>6} {:>9} {:>6}",
            size.to_string(),
            s.hot,
            s.warm,
            s.cold,
            s.untagged_code,
            s.mixed
        );
    }

    // ④ The §4.9 hazard: the FirstByte policy tags mixed pages anyway.
    let risky =
        Loader::new(PageSize::Size2M).with_overlap_policy(OverlapPolicy::FirstByte).load(&pgo);
    println!(
        "\nwith 2MB pages and the FirstByte policy, {} mixed page(s) get a single \
         temperature\n(risking warm/cold code prioritized as hot — §4.9's accuracy hazard)",
        risky.stats.mixed
    );
}
