fn main() {
    trrip_bench::run_experiment(
        "fig3_reuse_distance",
        trrip_bench::figures::fig3_reuse_distance::run,
    );
}
