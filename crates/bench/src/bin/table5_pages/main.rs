fn main() {
    trrip_bench::run_experiment("table5_pages", trrip_bench::figures::table5_pages::run);
}
