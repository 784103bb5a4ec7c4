fn main() {
    trrip_bench::run_experiment(&trrip_bench::figures::fig9_cache_sensitivity::FIGURE);
}
