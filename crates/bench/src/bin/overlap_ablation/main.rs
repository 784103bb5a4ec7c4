fn main() {
    trrip_bench::run_experiment(&trrip_bench::figures::overlap_ablation::FIGURE);
}
