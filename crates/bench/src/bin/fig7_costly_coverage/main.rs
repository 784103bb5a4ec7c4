fn main() {
    trrip_bench::run_experiment(&trrip_bench::figures::fig7_costly_coverage::FIGURE);
}
