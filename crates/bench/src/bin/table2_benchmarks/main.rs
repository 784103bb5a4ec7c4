fn main() {
    trrip_bench::run_experiment("table2_benchmarks", trrip_bench::figures::table2_benchmarks::run);
}
