fn main() {
    trrip_bench::run_experiment("table4_power_area", trrip_bench::figures::table4_power_area::run);
}
