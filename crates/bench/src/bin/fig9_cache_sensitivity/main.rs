fn main() {
    trrip_bench::run_experiment(
        "fig9_cache_sensitivity",
        trrip_bench::figures::fig9_cache_sensitivity::run,
    );
}
