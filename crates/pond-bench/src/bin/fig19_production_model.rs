//! Figure 19: the untouched-memory model in "production" — retrained daily
//! and evaluated on the following day's VM arrivals.

use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
use pond_bench::{pct, print_header, trace_days};
use pond_core::untouched::{
    evaluate_model, replay_history, UntouchedMemoryModel, UntouchedModelConfig,
};

fn main() {
    print_header("Figure 19", "untouched-memory model performance with daily retraining");
    let days = trace_days().max(10);
    let config = ClusterConfig { servers: 24, duration_days: days, ..ClusterConfig::azure_like() };
    let trace = TraceGenerator::new(config, 1).generate(0);
    // A 4%-overprediction target corresponds to a conservative quantile.
    let model_config = UntouchedModelConfig { quantile: 0.08, rounds: 50 };

    println!(
        "{:<8} {:>12} {:>22} {:>18}",
        "day", "VMs scored", "avg untouched [%GB-h]", "overpredictions"
    );
    for day in 3..days as u64 {
        let cutoff = day * 86_400;
        let train: Vec<_> = trace.requests.iter().filter(|r| r.arrival < cutoff).cloned().collect();
        let eval: Vec<_> = trace
            .requests
            .iter()
            .filter(|r| r.arrival >= cutoff && r.arrival < cutoff + 86_400)
            .cloned()
            .collect();
        if train.is_empty() || eval.is_empty() {
            continue;
        }
        let model = UntouchedMemoryModel::train(&train, &model_config, day);
        let point = evaluate_model(&model, &eval, replay_history(&train))
            .expect("the model scores the request features it was trained on");
        println!(
            "{:<8} {:>12} {:>22} {:>18}",
            day,
            eval.len(),
            pct(point.avg_untouched_fraction),
            pct(point.overprediction_rate)
        );
    }
    println!("\npaper shape: ~20-40% average untouched memory at a ~4% overprediction target,");
    println!("             with some day-to-day variability from distribution shift");
}
