fn main() {
    trrip_bench::run_experiment(&trrip_bench::figures::table4_power_area::FIGURE);
}
