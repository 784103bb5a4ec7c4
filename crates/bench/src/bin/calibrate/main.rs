fn main() {
    trrip_bench::run_experiment("calibrate", trrip_bench::figures::calibrate::run);
}
