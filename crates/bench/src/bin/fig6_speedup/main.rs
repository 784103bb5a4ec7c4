fn main() {
    trrip_bench::run_experiment("fig6_speedup", trrip_bench::figures::fig6_speedup::run);
}
