fn main() {
    trrip_bench::run_experiment(&trrip_bench::figures::fig8_hot_threshold::FIGURE);
}
