//! The latency-insensitivity prediction model (§4.4, Figure 12, Figure 17).
//!
//! Pond must decide, from core-PMU counters alone, whether a workload can run
//! entirely on pool memory and stay within the performance degradation margin
//! (PDM). The paper trains a random forest on ~200 TMA counters with
//! slowdown labels from offline runs and internal A/B tests; we train the
//! same model family on the synthetic suite's counters and the analytic
//! slowdown model, and compare it against the two single-counter heuristics
//! the paper uses as baselines ("Memory bound" and "DRAM bound").

use cxl_hw::latency::LatencyScenario;
use pond_ml::dataset::Dataset;
use pond_ml::eval::{threshold_sweep, OperatingPoint};
use pond_ml::forest::{ForestConfig, RandomForest};
use pond_ml::MlError;
use workload_model::telemetry::{TelemetrySampler, TmaCounters};
use workload_model::{SlowdownModel, WorkloadSuite};

/// Configuration of the sensitivity model.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityModelConfig {
    /// Performance degradation margin (e.g. 0.05 for 5%).
    pub pdm: f64,
    /// The emulated latency scenario the model targets.
    pub scenario: LatencyScenario,
    /// Number of PMU samples averaged per workload when building features.
    pub samples_per_workload: usize,
    /// Random-forest hyperparameters.
    pub forest: ForestConfig,
}

impl Default for SensitivityModelConfig {
    fn default() -> Self {
        SensitivityModelConfig {
            pdm: 0.05,
            scenario: LatencyScenario::Increase182,
            samples_per_workload: 8,
            forest: ForestConfig { trees: 60, ..Default::default() },
        }
    }
}

/// Builds the training dataset: one row per (workload, sample) pair with TMA
/// counters as features and "insensitive" (slowdown ≤ PDM on all-pool
/// memory) as the 0/1 label.
pub fn training_dataset(
    suite: &WorkloadSuite,
    config: &SensitivityModelConfig,
    seed: u64,
) -> Dataset {
    let sampler = TelemetrySampler::default();
    let slowdown = SlowdownModel::default();
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for (i, workload) in suite.workloads().enumerate() {
        let insensitive = slowdown.is_latency_insensitive(workload, config.scenario, config.pdm);
        for s in 0..config.samples_per_workload.max(1) {
            let counters = sampler.sample(workload, seed.wrapping_add((i * 1000 + s) as u64));
            rows.push(counters.to_features());
            labels.push(if insensitive { 1.0 } else { 0.0 });
        }
    }
    Dataset::new(TmaCounters::feature_names(), rows, labels)
        .expect("suite-generated dataset is well formed")
}

/// A trained latency-insensitivity model.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityModel {
    forest: RandomForest,
    config: SensitivityModelConfig,
    threshold: f64,
}

impl SensitivityModel {
    /// Trains the model on the workload suite (the "offline test runs" of
    /// Figure 12). The decision threshold defaults to 0.5; use
    /// [`SensitivityModel::calibrate_threshold`] to pick an operating point.
    pub fn train(suite: &WorkloadSuite, config: &SensitivityModelConfig, seed: u64) -> Self {
        let data = training_dataset(suite, config, seed);
        let forest = RandomForest::fit(&data, &config.forest, seed);
        SensitivityModel { forest, config: config.clone(), threshold: 0.5 }
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &SensitivityModelConfig {
        &self.config
    }

    /// The current decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Probability that the workload behind these counters is latency
    /// insensitive (can run fully on pool memory within the PDM), with the
    /// feature schema validated: a drift surfaces as an [`MlError`] the
    /// caller can propagate instead of a panic mid replay.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureCountMismatch`] when the counters produce a
    /// feature row of the wrong width for the trained forest.
    pub fn try_insensitive_probability(&self, counters: &TmaCounters) -> Result<f64, MlError> {
        self.forest.try_predict_proba(&counters.to_features())
    }

    /// Hard decision at the model's threshold, with the feature schema
    /// validated. The online serving path goes through here: one call per
    /// VM arrival whose customer ran the workload before, and one per
    /// pool-backed VM at its first QoS pass when its untouched prediction
    /// failed or it runs fully on the pool (the control plane keeps that
    /// verdict for the VM's later passes). A malformed feature row becomes
    /// an error the fleet replay propagates, not a panic that takes a whole
    /// sweep down.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureCountMismatch`] on feature-schema drift.
    pub fn try_is_insensitive(&self, counters: &TmaCounters) -> Result<bool, MlError> {
        self.forest.try_predict(&counters.to_features(), self.threshold)
    }

    /// The coverage/false-positive trade-off curve on a held-out dataset
    /// (Figure 17's RandomForest line). The positive class is "insensitive",
    /// so a false positive is a sensitive workload marked insensitive.
    pub fn operating_points(&self, test: &Dataset, steps: usize) -> Vec<OperatingPoint> {
        let scores = self
            .forest
            .predict_proba_batch(test)
            .expect("test dataset uses the training feature schema");
        threshold_sweep(&scores, test.labels(), steps)
    }

    /// Picks the most permissive threshold whose false-positive fraction on
    /// `validation` stays within `fp_budget`, and stores it as the decision
    /// threshold. Returns the chosen operating point, or `None` if even the
    /// strictest threshold exceeds the budget (the threshold is then set to
    /// 1.0, i.e. never mark anything insensitive).
    pub fn calibrate_threshold(
        &mut self,
        validation: &Dataset,
        fp_budget: f64,
        steps: usize,
    ) -> Option<OperatingPoint> {
        let points = self.operating_points(validation, steps);
        let best = pond_ml::eval::best_point_within_fp_budget(&points, fp_budget);
        self.threshold = best.map(|p| p.threshold).unwrap_or(1.0);
        best
    }
}

/// The single-counter heuristics Figure 17 compares against. A workload is
/// marked insensitive when the chosen counter is *below* a threshold, so the
/// sweep uses `1 - counter` as the score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterHeuristic {
    /// Threshold on the TMA "memory bound" fraction.
    MemoryBound,
    /// Threshold on the TMA "DRAM bound" fraction.
    DramBound,
}

impl CounterHeuristic {
    /// Coverage/false-positive curve for the heuristic on a dataset whose
    /// features follow [`TmaCounters::FEATURE_NAMES`].
    pub fn operating_points(&self, test: &Dataset, steps: usize) -> Vec<OperatingPoint> {
        let index = match self {
            CounterHeuristic::MemoryBound => 1,
            CounterHeuristic::DramBound => 2,
        };
        let scores: Vec<f64> = test.rows().iter().map(|r| 1.0 - r[index].clamp(0.0, 1.0)).collect();
        threshold_sweep(&scores, test.labels(), steps)
    }
}

/// Area-style summary of a curve: the mean false-positive fraction over the
/// coverage range `[0, max_coverage]` (lower is better). Used to compare the
/// RandomForest against the heuristics.
pub fn mean_fp_up_to_coverage(points: &[OperatingPoint], max_coverage: f64) -> f64 {
    let relevant: Vec<&OperatingPoint> =
        points.iter().filter(|p| p.positive_fraction <= max_coverage).collect();
    if relevant.is_empty() {
        return 0.0;
    }
    relevant.iter().map(|p| p.false_positive_fraction).sum::<f64>() / relevant.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (WorkloadSuite, SensitivityModelConfig) {
        (WorkloadSuite::standard(), SensitivityModelConfig::default())
    }

    #[test]
    fn training_dataset_has_one_row_per_sample() {
        let (suite, config) = setup();
        let data = training_dataset(&suite, &config, 0);
        assert_eq!(data.len(), 158 * config.samples_per_workload);
        assert_eq!(data.n_features(), TmaCounters::FEATURE_NAMES.len());
        // Both classes are present.
        let positives = data.labels().iter().filter(|&&l| l > 0.5).count();
        assert!(positives > 20 && positives < data.len() - 20, "positives: {positives}");
    }

    #[test]
    fn model_identifies_clearly_insensitive_and_sensitive_workloads() {
        let (suite, config) = setup();
        let model = SensitivityModel::train(&suite, &config, 1);
        let sampler = TelemetrySampler::default();
        let slowdown = SlowdownModel::default();
        // Most-insensitive and most-sensitive workloads by ground truth.
        let mut sorted: Vec<_> = suite.workloads().collect();
        sorted.sort_by(|a, b| {
            slowdown
                .full_pool_slowdown(a, config.scenario)
                .partial_cmp(&slowdown.full_pool_slowdown(b, config.scenario))
                .unwrap()
        });
        let probability =
            |workload| model.try_insensitive_probability(&sampler.sample(workload, 99)).unwrap();
        let (quiet, loud) = (probability(sorted[0]), probability(sorted[sorted.len() - 1]));
        assert!(quiet > loud);
        assert!(quiet > 0.6);
        assert!(loud < 0.4);
    }

    #[test]
    fn random_forest_beats_single_counter_heuristics() {
        // Figure 17: RandomForest slightly outperforms DRAM-bound, which
        // clearly outperforms Memory-bound.
        let (suite, config) = setup();
        let data = training_dataset(&suite, &config, 2);
        let (train, test) = data.train_test_split(0.5, 3);
        let forest = RandomForest::fit(&train, &config.forest, 3);
        let model = SensitivityModel { forest, config: config.clone(), threshold: 0.5 };

        let rf = mean_fp_up_to_coverage(&model.operating_points(&test, 50), 0.4);
        let dram =
            mean_fp_up_to_coverage(&CounterHeuristic::DramBound.operating_points(&test, 50), 0.4);
        let mem =
            mean_fp_up_to_coverage(&CounterHeuristic::MemoryBound.operating_points(&test, 50), 0.4);
        assert!(
            rf <= dram + 0.01,
            "RandomForest ({rf:.3}) should be at least as good as DRAM-bound ({dram:.3})"
        );
        assert!(dram < mem, "DRAM-bound ({dram:.3}) should beat Memory-bound ({mem:.3})");
    }

    #[test]
    fn calibrated_threshold_respects_the_fp_budget() {
        let (suite, config) = setup();
        let data = training_dataset(&suite, &config, 4);
        let (train, validation) = data.train_test_split(0.5, 5);
        let forest = RandomForest::fit(&train, &config.forest, 5);
        let mut model = SensitivityModel { forest, config, threshold: 0.5 };
        let point = model.calibrate_threshold(&validation, 0.02, 100).unwrap();
        assert!(point.false_positive_fraction <= 0.02 + 1e-12);
        // Finding 5: ~30% of workloads can be placed on the pool at ~2% FP.
        assert!(point.positive_fraction > 0.15, "coverage {point:?}");
        assert_eq!(model.threshold(), point.threshold);
    }

    #[test]
    fn threshold_accessors() {
        let (suite, config) = setup();
        let model = SensitivityModel::train(&suite, &config, 6);
        assert_eq!(model.threshold(), 0.5);
        assert_eq!(model.config().pdm, 0.05);
        let sampler = TelemetrySampler::default();
        let counters = sampler.sample(suite.at(0).unwrap(), 0);
        let p = model.try_insensitive_probability(&counters).unwrap();
        assert_eq!(model.try_is_insensitive(&counters).unwrap(), p >= 0.5);
    }

    #[test]
    fn the_222_scenario_is_harder() {
        // §6.4.1: the 222% model is less effective at the same FP target.
        let suite = WorkloadSuite::standard();
        let mut coverage = Vec::new();
        for scenario in [LatencyScenario::Increase182, LatencyScenario::Increase222] {
            let config = SensitivityModelConfig { scenario, ..Default::default() };
            let data = training_dataset(&suite, &config, 7);
            let (train, validation) = data.train_test_split(0.5, 8);
            let forest = RandomForest::fit(&train, &config.forest, 8);
            let mut model = SensitivityModel { forest, config, threshold: 0.5 };
            let point = model.calibrate_threshold(&validation, 0.02, 100);
            coverage.push(point.map(|p| p.positive_fraction).unwrap_or(0.0));
        }
        assert!(
            coverage[1] <= coverage[0] + 0.05,
            "222% coverage ({}) should not exceed 182% coverage ({}) by much",
            coverage[1],
            coverage[0]
        );
    }
}
