fn main() {
    trrip_bench::run_experiment(&trrip_bench::figures::table1_config::FIGURE);
}
