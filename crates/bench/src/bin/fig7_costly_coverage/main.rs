fn main() {
    trrip_bench::run_experiment(
        "fig7_costly_coverage",
        trrip_bench::figures::fig7_costly_coverage::run,
    );
}
