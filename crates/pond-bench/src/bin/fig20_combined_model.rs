//! Figure 20: the combined prediction model — scheduling mispredictions vs.
//! the average fraction of DRAM allocated on the pool, for both latency
//! scenarios, after solving Eq. (1).

use cxl_hw::latency::LatencyScenario;
use pond_bench::{bench_trace, pct, print_header};
use pond_core::combined::{CombinedModel, UntouchedCandidate};
use pond_core::sensitivity::{training_dataset, SensitivityModelConfig};
use pond_core::untouched::{
    evaluate_model, replay_history, UntouchedMemoryModel, UntouchedModelConfig,
};
use pond_ml::forest::RandomForest;
use workload_model::WorkloadSuite;

fn main() {
    print_header("Figure 20", "combined model: mispredictions vs. average pool DRAM");
    let suite = WorkloadSuite::standard();
    let trace = bench_trace();
    let split = trace.requests.len() / 2;
    let (train, test) = trace.requests.split_at(split);

    // Candidate operating points of the untouched-memory model (shared by
    // both scenarios — untouched memory does not depend on latency).
    let untouched_candidates: Vec<UntouchedCandidate> = [0.02, 0.05, 0.10, 0.20, 0.35]
        .iter()
        .map(|&quantile| {
            let model = UntouchedMemoryModel::train(
                train,
                &UntouchedModelConfig { quantile, rounds: 40 },
                7,
            );
            UntouchedCandidate {
                quantile,
                point: evaluate_model(&model, test, replay_history(train))
                    .expect("the model scores the request features it was trained on"),
            }
        })
        .collect();

    for scenario in LatencyScenario::all() {
        let config = SensitivityModelConfig { scenario, ..Default::default() };
        let data = training_dataset(&suite, &config, 11);
        let (train_ml, validation) = data.train_test_split(0.5, 13);
        let forest = RandomForest::fit(&train_ml, &config.forest, 13);
        let scores = forest.predict_proba_batch(&validation).expect("matching schema");
        let sensitivity_points = pond_ml::eval::threshold_sweep(&scores, validation.labels(), 100);

        println!("\n-- scenario {scenario} --");
        println!("{:<26} {:>18} {:>18}", "misprediction budget", "avg pool DRAM", "mispredictions");
        let budgets = [0.005, 0.01, 0.02, 0.03, 0.05];
        for point in
            CombinedModel::tradeoff_curve(&sensitivity_points, &untouched_candidates, &budgets)
        {
            println!(
                "{:<26} {:>18} {:>18}",
                pct(point.budget),
                pct(point.pool_share),
                pct(point.mispredictions)
            );
        }
    }
    println!("\npaper shape: at a 2% misprediction target Pond schedules ~44% of DRAM on the pool");
    println!("             at 182% latency and ~35% at 222% (the harder scenario achieves less)");
}
