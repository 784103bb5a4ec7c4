fn main() {
    trrip_bench::run_experiment(&trrip_bench::figures::fig6_speedup::FIGURE);
}
