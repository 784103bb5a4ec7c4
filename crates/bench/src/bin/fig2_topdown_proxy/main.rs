fn main() {
    trrip_bench::run_experiment(&trrip_bench::figures::fig2_topdown_proxy::FIGURE);
}
