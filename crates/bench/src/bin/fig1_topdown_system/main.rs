fn main() {
    trrip_bench::run_experiment(
        "fig1_topdown_system",
        trrip_bench::figures::fig1_topdown_system::run,
    );
}
