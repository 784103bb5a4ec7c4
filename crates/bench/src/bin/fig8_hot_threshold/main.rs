fn main() {
    trrip_bench::run_experiment(
        "fig8_hot_threshold",
        trrip_bench::figures::fig8_hot_threshold::run,
    );
}
