fn main() {
    trrip_bench::run_experiment("table1_config", trrip_bench::figures::table1_config::run);
}
