//! Figure 18: the untouched-memory model's overprediction rate as a function
//! of the average amount of memory it labels untouched, compared with a
//! fixed-amount-per-VM strawman.

use pond_bench::{bench_trace, pct, print_header};
use pond_core::untouched::{
    evaluate_model, evaluate_predictions, replay_history, UntouchedMemoryModel,
    UntouchedModelConfig,
};

fn main() {
    print_header(
        "Figure 18",
        "overpredictions vs. average untouched memory (GBM vs. fixed strawman)",
    );
    let trace = bench_trace();
    let split = trace.requests.len() / 2;
    let (train, test) = trace.requests.split_at(split);
    println!("training on {} VMs, evaluating on {} VMs\n", train.len(), test.len());

    println!("{:<28} {:>22} {:>18}", "predictor", "avg untouched [%GB-h]", "overpredictions");
    for quantile in [0.02, 0.05, 0.10, 0.20, 0.35, 0.50] {
        let model =
            UntouchedMemoryModel::train(train, &UntouchedModelConfig { quantile, rounds: 50 }, 42);
        let point = evaluate_model(&model, test, replay_history(train))
            .expect("the model scores the request features it was trained on");
        println!(
            "{:<28} {:>22} {:>18}",
            format!("GBM (q = {quantile:.2})"),
            pct(point.avg_untouched_fraction),
            pct(point.overprediction_rate)
        );
    }
    println!();
    for fraction in [0.05, 0.10, 0.15, 0.20, 0.30, 0.40] {
        let predictions = vec![fraction; test.len()];
        let point = evaluate_predictions(test, &predictions);
        println!(
            "{:<28} {:>22} {:>18}",
            format!("fixed {:.0}% per VM", fraction * 100.0),
            pct(point.avg_untouched_fraction),
            pct(point.overprediction_rate)
        );
    }
    println!("\npaper shape: at ~20% average untouched memory the GBM overpredicts ~2.5% of VMs");
    println!("             while the fixed strawman overpredicts ~12% (about 5x worse)");
}
