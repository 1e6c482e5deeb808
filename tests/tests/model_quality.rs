//! Integration tests for the prediction-model quality claims that the
//! paper's evaluation rests on (Figures 17, 18, 20).

use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
use cxl_hw::latency::LatencyScenario;
use pond_core::combined::{CombinedModel, CombinedModelConfig, UntouchedCandidate};
use pond_core::sensitivity::{
    mean_fp_up_to_coverage, training_dataset, CounterHeuristic, SensitivityModelConfig,
};
use pond_core::untouched::{
    evaluate_model, evaluate_predictions, replay_history, UntouchedMemoryModel,
    UntouchedModelConfig,
};
use pond_ml::forest::RandomForest;
use workload_model::WorkloadSuite;

fn trace_requests() -> Vec<cluster_sim::VmRequest> {
    let config = ClusterConfig { servers: 24, duration_days: 12, ..ClusterConfig::small() };
    TraceGenerator::new(config, 1).generate(0).requests
}

/// Figure 17's ordering: RandomForest ≥ DRAM-bound > Memory-bound.
#[test]
fn sensitivity_model_ordering_holds_across_seeds() {
    let suite = WorkloadSuite::standard();
    let config = SensitivityModelConfig::default();
    let mut rf_sum = 0.0;
    let mut dram_sum = 0.0;
    let mut mem_sum = 0.0;
    for seed in 0..3u64 {
        let data = training_dataset(&suite, &config, seed);
        let (train, test) = data.train_test_split(0.5, seed + 100);
        let forest = RandomForest::fit(&train, &config.forest, seed);
        let scores = forest.predict_proba_batch(&test).unwrap();
        let rf = pond_ml::eval::threshold_sweep(&scores, test.labels(), 50);
        rf_sum += mean_fp_up_to_coverage(&rf, 0.4);
        dram_sum +=
            mean_fp_up_to_coverage(&CounterHeuristic::DramBound.operating_points(&test, 50), 0.4);
        mem_sum +=
            mean_fp_up_to_coverage(&CounterHeuristic::MemoryBound.operating_points(&test, 50), 0.4);
    }
    assert!(rf_sum <= dram_sum + 0.02, "RandomForest {rf_sum} vs DRAM-bound {dram_sum}");
    assert!(dram_sum < mem_sum, "DRAM-bound {dram_sum} vs Memory-bound {mem_sum}");
}

/// Figure 18's headline: at a comparable average amount of untouched memory
/// the GBM overpredicts several times less often than the fixed strawman.
#[test]
fn untouched_model_beats_strawman_by_a_wide_margin() {
    let requests = trace_requests();
    let split = requests.len() / 2;
    let (train, test) = requests.split_at(split);
    let model =
        UntouchedMemoryModel::train(train, &UntouchedModelConfig { quantile: 0.15, rounds: 40 }, 5);
    let gbm = evaluate_model(&model, test, replay_history(train)).unwrap();

    let strawman_predictions = vec![gbm.avg_untouched_fraction; test.len()];
    let strawman = evaluate_predictions(test, &strawman_predictions);

    assert!(
        gbm.overprediction_rate < strawman.overprediction_rate * 0.7,
        "GBM {gbm:?} should be well below the strawman {strawman:?}"
    );
}

/// Figure 20's qualitative behaviour: the pool share the combined model can
/// schedule grows with the misprediction budget, and the 222% scenario
/// achieves no more than the 182% scenario.
#[test]
fn combined_model_behaves_like_figure20() {
    let suite = WorkloadSuite::standard();
    let requests = trace_requests();
    let split = requests.len() / 2;
    let (train, test) = requests.split_at(split);

    let untouched: Vec<UntouchedCandidate> = [0.05, 0.2, 0.4]
        .iter()
        .map(|&q| {
            let model = UntouchedMemoryModel::train(
                train,
                &UntouchedModelConfig { quantile: q, rounds: 30 },
                6,
            );
            UntouchedCandidate {
                quantile: q,
                point: evaluate_model(&model, test, replay_history(train)).unwrap(),
            }
        })
        .collect();

    let mut shares = Vec::new();
    for scenario in LatencyScenario::all() {
        let config = SensitivityModelConfig { scenario, ..Default::default() };
        let data = training_dataset(&suite, &config, 9);
        let (train_ml, validation) = data.train_test_split(0.5, 10);
        let forest = RandomForest::fit(&train_ml, &config.forest, 10);
        let scores = forest.predict_proba_batch(&validation).unwrap();
        let sens = pond_ml::eval::threshold_sweep(&scores, validation.labels(), 100);

        let strict =
            CombinedModel::solve(CombinedModelConfig { pdm: 0.05, tp: 0.995 }, &sens, &untouched);
        let loose =
            CombinedModel::solve(CombinedModelConfig { pdm: 0.05, tp: 0.95 }, &sens, &untouched);
        let strict_share = strict.map_or(0.0, |m| m.choice.expected_pool_share());
        let loose_share = loose.map_or(0.0, |m| m.choice.expected_pool_share());
        assert!(loose_share >= strict_share, "{scenario}: {loose_share} vs {strict_share}");
        shares.push(loose_share);
        if let Some(model) = loose {
            assert!(model.choice.constraint_value() <= 0.05 + 1e-9);
        }
    }
    assert!(shares[1] <= shares[0] + 0.1, "222% should not beat 182% materially: {shares:?}");
}
