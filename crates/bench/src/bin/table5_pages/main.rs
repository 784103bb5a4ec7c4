fn main() {
    trrip_bench::run_experiment(&trrip_bench::figures::table5_pages::FIGURE);
}
