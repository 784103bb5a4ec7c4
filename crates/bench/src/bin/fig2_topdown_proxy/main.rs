fn main() {
    trrip_bench::run_experiment(
        "fig2_topdown_proxy",
        trrip_bench::figures::fig2_topdown_proxy::run,
    );
}
