fn main() {
    trrip_bench::run_experiment(&trrip_bench::figures::fig3_reuse_distance::FIGURE);
}
