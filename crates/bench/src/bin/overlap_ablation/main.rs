fn main() {
    trrip_bench::run_experiment("overlap_ablation", trrip_bench::figures::overlap_ablation::run);
}
