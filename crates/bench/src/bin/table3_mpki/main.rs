fn main() {
    trrip_bench::run_experiment("table3_mpki", trrip_bench::figures::table3_mpki::run);
}
