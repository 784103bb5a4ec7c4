fn main() {
    trrip_bench::run_experiment(&trrip_bench::figures::fig1_topdown_system::FIGURE);
}
