//! The untouched-memory prediction model (§4.4, Figure 14, Figures 18/19).
//!
//! Pond predicts, at VM-scheduling time and from metadata alone, how much of
//! the requested memory the VM will never touch; that amount is safe to back
//! with pool memory (exposed as zNUMA). The paper uses a LightGBM quantile
//! regression whose most important feature is the distribution of untouched
//! memory across the same customer's previous VMs; predicting a low quantile
//! keeps overpredictions (VMs that touch more than predicted) rare.

use cluster_sim::trace::{CustomerId, GuestOs, VmRequest};
use cxl_hw::units::Bytes;
use pond_ml::dataset::Dataset;
use pond_ml::gbm::{GbmConfig, GradientBoostedTrees};
use pond_ml::MlError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-customer record of previously observed untouched-memory fractions.
///
/// Each customer's observations are kept sorted as they arrive (one binary
/// insertion per completed VM), so the percentile features read at every
/// scheduling decision are O(1) lookups instead of a clone-and-sort of the
/// customer's whole history — on long traces a popular customer accumulates
/// thousands of observations and that sort used to dominate arrival cost.
///
/// The history grows with the trace: it is the one trace-length memory term
/// in a streamed replay.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CustomerHistory {
    observations: BTreeMap<CustomerId, Vec<f64>>,
}

impl CustomerHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the untouched fraction observed for a completed VM,
    /// maintaining the customer's observations in sorted order.
    pub fn record(&mut self, customer: CustomerId, untouched_fraction: f64) {
        let value = untouched_fraction.clamp(0.0, 1.0);
        let values = self.observations.entry(customer).or_default();
        let at = values.partition_point(|&v| v < value);
        values.insert(at, value);
    }

    /// Number of observations for a customer.
    pub fn count(&self, customer: CustomerId) -> usize {
        self.observations.get(&customer).map_or(0, Vec::len)
    }

    /// Whether the customer has any history at all.
    pub fn has_history(&self, customer: CustomerId) -> bool {
        self.count(customer) > 0
    }

    /// The 0/25/50/75/100th percentiles of the customer's past untouched
    /// fractions (Figure 14 lists these as the model's key features).
    /// Returns `None` when the customer has no history.
    pub fn percentiles(&self, customer: CustomerId) -> Option<[f64; 5]> {
        let sorted = self.observations.get(&customer)?;
        if sorted.is_empty() {
            return None;
        }
        let pick = |q: f64| {
            let pos = (q * (sorted.len() - 1) as f64).round() as usize;
            sorted[pos]
        };
        Some([pick(0.0), pick(0.25), pick(0.5), pick(0.75), pick(1.0)])
    }
}

/// Feature names of the untouched-memory model, in the order produced by
/// [`request_features`].
pub const UNTOUCHED_FEATURE_NAMES: [&str; 12] = [
    "cores",
    "memory_gib",
    "vm_type",
    "guest_os",
    "region",
    "workload_index",
    "has_history",
    "hist_p0",
    "hist_p25",
    "hist_p50",
    "hist_p75",
    "hist_p100",
];

/// Builds the metadata feature vector for one VM request given the customer
/// history available at scheduling time. VMs without history get neutral
/// (0.5) percentile placeholders and `has_history = 0`.
pub fn request_features(request: &VmRequest, history: &CustomerHistory) -> Vec<f64> {
    let percentiles = history.percentiles(request.customer);
    let has_history = if percentiles.is_some() { 1.0 } else { 0.0 };
    let p = percentiles.unwrap_or([0.5; 5]);
    vec![
        request.cores as f64,
        request.memory.as_gib_f64(),
        request.vm_type.as_feature(),
        match request.guest_os {
            GuestOs::Linux => 0.0,
            GuestOs::Windows => 1.0,
        },
        request.region as f64,
        request.workload_index as f64,
        has_history,
        p[0],
        p[1],
        p[2],
        p[3],
        p[4],
    ]
}

/// Configuration of the untouched-memory model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UntouchedModelConfig {
    /// Target quantile of the untouched-fraction distribution to predict.
    /// Lower quantiles are more conservative (fewer overpredictions, less
    /// memory placed on the pool).
    pub quantile: f64,
    /// Boosting rounds for the GBM.
    pub rounds: usize,
}

impl Default for UntouchedModelConfig {
    fn default() -> Self {
        UntouchedModelConfig { quantile: 0.05, rounds: 60 }
    }
}

/// A trained untouched-memory model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UntouchedMemoryModel {
    gbm: GradientBoostedTrees,
    config: UntouchedModelConfig,
}

impl UntouchedMemoryModel {
    /// Trains the model on historical VM requests (with their eventual
    /// untouched fractions as labels). The customer-history features are
    /// built incrementally in arrival order, exactly as they would have been
    /// available when each VM was scheduled.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty, or if a request's untouched fraction is
    /// not finite (validated requests have theirs in `[0, 1]`).
    pub fn train(requests: &[VmRequest], config: &UntouchedModelConfig, seed: u64) -> Self {
        assert!(!requests.is_empty(), "training requires at least one VM request");
        let mut history = CustomerHistory::new();
        let mut rows = Vec::with_capacity(requests.len());
        let mut labels = Vec::with_capacity(requests.len());
        for request in requests {
            rows.push(request_features(request, &history));
            labels.push(request.untouched_fraction);
            history.record(request.customer, request.untouched_fraction);
        }
        let data = Dataset::new(
            UNTOUCHED_FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
            rows,
            labels,
        )
        .expect("request-derived dataset is well formed");
        let gbm_config =
            GbmConfig { rounds: config.rounds, ..GbmConfig::quantile(config.quantile) };
        UntouchedMemoryModel {
            gbm: GradientBoostedTrees::fit(&data, &gbm_config, seed),
            config: config.clone(),
        }
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &UntouchedModelConfig {
        &self.config
    }

    /// Predicted untouched fraction for a VM request, clamped to `[0, 1]`,
    /// with the feature schema validated: this is the online serving path
    /// (one call per VM arrival), and it goes through the GBM's validating
    /// `try_predict` so a feature-schema drift surfaces as an [`MlError`]
    /// the fleet replay can propagate instead of a panic mid sweep.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureCountMismatch`] when the request features
    /// do not match the trained GBM's schema.
    pub fn try_predict_fraction(
        &self,
        request: &VmRequest,
        history: &CustomerHistory,
    ) -> Result<f64, MlError> {
        Ok(self.gbm.try_predict(&request_features(request, history))?.clamp(0.0, 1.0))
    }

    /// Predicted untouched fraction (panicking convenience over
    /// [`UntouchedMemoryModel::try_predict_fraction`] for offline
    /// evaluation code).
    pub fn predict_fraction(&self, request: &VmRequest, history: &CustomerHistory) -> f64 {
        self.try_predict_fraction(request, history)
            .expect("request features must match the trained GBM's schema")
    }

    /// Pool memory to allocate: the predicted untouched memory, rounded down
    /// to whole GiB (Pond allocates pool memory in 1 GiB slices), with the
    /// feature schema validated.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureCountMismatch`] on feature-schema drift.
    pub fn try_pool_memory(
        &self,
        request: &VmRequest,
        history: &CustomerHistory,
    ) -> Result<Bytes, MlError> {
        let predicted = request.memory.scaled(self.try_predict_fraction(request, history)?);
        Ok(Bytes::from_gib(predicted.slices_floor()))
    }

    /// Pool memory to allocate (panicking convenience over
    /// [`UntouchedMemoryModel::try_pool_memory`]).
    pub fn pool_memory(&self, request: &VmRequest, history: &CustomerHistory) -> Bytes {
        let predicted = request.memory.scaled(self.predict_fraction(request, history));
        Bytes::from_gib(predicted.slices_floor())
    }
}

/// The strawman Figure 18 compares against: a fixed untouched fraction for
/// every VM regardless of metadata.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FixedUntouchedStrawman {
    /// The fraction of every VM's memory assumed untouched.
    pub fraction: f64,
}

impl FixedUntouchedStrawman {
    /// Creates the strawman.
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` is within `[0, 1]`.
    pub fn new(fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
        FixedUntouchedStrawman { fraction }
    }

    /// Predicted untouched fraction (constant).
    pub fn predict_fraction(&self) -> f64 {
        self.fraction
    }
}

/// One point of the Figure 18 trade-off: how much memory a predictor labels
/// untouched versus how often it overpredicts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UntouchedEvalPoint {
    /// Average predicted-untouched share of memory, weighted by GB-hours.
    pub avg_untouched_fraction: f64,
    /// Fraction of VMs that touch more memory than predicted untouched
    /// (their working set would spill into zNUMA).
    pub overprediction_rate: f64,
}

/// Evaluates arbitrary per-request untouched predictions against the ground
/// truth, weighting the average by GB-hours as the paper does.
///
/// # Panics
///
/// Panics if `predictions` and `requests` have different lengths.
pub fn evaluate_predictions(requests: &[VmRequest], predictions: &[f64]) -> UntouchedEvalPoint {
    assert_eq!(requests.len(), predictions.len(), "one prediction per request is required");
    if requests.is_empty() {
        return UntouchedEvalPoint { avg_untouched_fraction: 0.0, overprediction_rate: 0.0 };
    }
    let mut predicted_gb_hours = 0.0;
    let mut total_gb_hours = 0.0;
    let mut overpredictions = 0usize;
    for (request, &prediction) in requests.iter().zip(predictions) {
        let hours = request.lifetime as f64 / 3600.0;
        predicted_gb_hours += request.memory.as_gib_f64() * prediction.clamp(0.0, 1.0) * hours;
        total_gb_hours += request.memory.as_gib_f64() * hours;
        // Overprediction: the pool share (GB-aligned) exceeds what the VM
        // leaves untouched.
        let pool =
            Bytes::from_gib(request.memory.scaled(prediction.clamp(0.0, 1.0)).slices_floor());
        if pool > request.untouched_memory() {
            overpredictions += 1;
        }
    }
    UntouchedEvalPoint {
        avg_untouched_fraction: predicted_gb_hours / total_gb_hours.max(1e-12),
        overprediction_rate: overpredictions as f64 / requests.len() as f64,
    }
}

/// Evaluates a trained model on held-out requests, replaying customer history
/// in arrival order (predict first, then record the ground truth).
pub fn evaluate_model(
    model: &UntouchedMemoryModel,
    requests: &[VmRequest],
    mut history: CustomerHistory,
) -> UntouchedEvalPoint {
    let mut predictions = Vec::with_capacity(requests.len());
    for request in requests {
        predictions.push(model.predict_fraction(request, &history));
        history.record(request.customer, request.untouched_fraction);
    }
    evaluate_predictions(requests, &predictions)
}

/// Replays the customer history of a request stream (used to seed evaluation
/// of held-out data with the training period's history).
pub fn replay_history(requests: &[VmRequest]) -> CustomerHistory {
    let mut history = CustomerHistory::new();
    for request in requests {
        history.record(request.customer, request.untouched_fraction);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};

    fn requests() -> Vec<VmRequest> {
        // A mid-sized trace: enough VMs (~1000) for the GBM to learn the
        // customer structure.
        let config = ClusterConfig { servers: 24, duration_days: 12, ..ClusterConfig::small() };
        TraceGenerator::new(config, 1).generate(0).requests
    }

    #[test]
    fn history_percentiles_are_ordered() {
        let mut history = CustomerHistory::new();
        assert!(!history.has_history(CustomerId(1)));
        assert!(history.percentiles(CustomerId(1)).is_none());
        for v in [0.2, 0.8, 0.5, 0.4, 0.9] {
            history.record(CustomerId(1), v);
        }
        let p = history.percentiles(CustomerId(1)).unwrap();
        assert_eq!(p[0], 0.2);
        assert_eq!(p[4], 0.9);
        for pair in p.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
        assert_eq!(history.count(CustomerId(1)), 5);
    }

    #[test]
    fn features_reflect_history_availability() {
        let reqs = requests();
        let history = CustomerHistory::new();
        let f = request_features(&reqs[0], &history);
        assert_eq!(f.len(), UNTOUCHED_FEATURE_NAMES.len());
        assert_eq!(f[6], 0.0, "no history flag");
        let mut history = CustomerHistory::new();
        history.record(reqs[0].customer, 0.7);
        let f = request_features(&reqs[0], &history);
        assert_eq!(f[6], 1.0);
        assert_eq!(f[9], 0.7, "median of a single observation");
    }

    #[test]
    fn model_trains_and_predicts_within_bounds() {
        let reqs = requests();
        let model = UntouchedMemoryModel::train(&reqs, &UntouchedModelConfig::default(), 0);
        let history = replay_history(&reqs);
        for request in reqs.iter().take(50) {
            let f = model.predict_fraction(request, &history);
            assert!((0.0..=1.0).contains(&f));
            assert!(model.pool_memory(request, &history) <= request.memory);
        }
        assert_eq!(model.config().quantile, 0.05);
    }

    #[test]
    fn low_quantile_keeps_overpredictions_rare() {
        let reqs = requests();
        let split = reqs.len() / 2;
        let (train, test) = reqs.split_at(split);
        let model = UntouchedMemoryModel::train(
            train,
            &UntouchedModelConfig { quantile: 0.05, rounds: 40 },
            1,
        );
        let point = evaluate_model(&model, test, replay_history(train));
        assert!(
            point.overprediction_rate < 0.15,
            "5th-percentile predictions should rarely overpredict: {point:?}"
        );
        assert!(
            point.avg_untouched_fraction > 0.05,
            "the model should still find untouched memory"
        );
    }

    #[test]
    fn gbm_beats_the_fixed_strawman() {
        // Figure 18 / Finding 6: at a comparable amount of untouched memory,
        // the learned model overpredicts far less often than a fixed split.
        let reqs = requests();
        let split = reqs.len() / 2;
        let (train, test) = reqs.split_at(split);
        let model = UntouchedMemoryModel::train(
            train,
            &UntouchedModelConfig { quantile: 0.15, rounds: 40 },
            2,
        );
        let gbm_point = evaluate_model(&model, test, replay_history(train));

        // Pick a fixed fraction that labels a comparable share of memory untouched.
        let strawman = FixedUntouchedStrawman::new(gbm_point.avg_untouched_fraction);
        let fixed_predictions = vec![strawman.predict_fraction(); test.len()];
        let fixed_point = evaluate_predictions(test, &fixed_predictions);

        assert!(
            gbm_point.overprediction_rate < fixed_point.overprediction_rate,
            "GBM ({gbm_point:?}) should overpredict less than the strawman ({fixed_point:?})"
        );
    }

    #[test]
    fn higher_quantiles_claim_more_memory_but_overpredict_more() {
        let reqs = requests();
        let split = reqs.len() / 2;
        let (train, test) = reqs.split_at(split);
        let mut previous: Option<UntouchedEvalPoint> = None;
        for quantile in [0.05, 0.3, 0.6] {
            let model = UntouchedMemoryModel::train(
                train,
                &UntouchedModelConfig { quantile, rounds: 30 },
                3,
            );
            let point = evaluate_model(&model, test, replay_history(train));
            if let Some(prev) = previous {
                assert!(
                    point.avg_untouched_fraction >= prev.avg_untouched_fraction - 0.03,
                    "higher quantiles should claim at least as much memory: {point:?} vs {prev:?}"
                );
                assert!(
                    point.overprediction_rate >= prev.overprediction_rate - 0.02,
                    "higher quantiles should not overpredict less: {point:?} vs {prev:?}"
                );
            }
            previous = Some(point);
        }
    }

    #[test]
    fn evaluation_helpers_validate_input() {
        let empty = evaluate_predictions(&[], &[]);
        assert_eq!(empty.overprediction_rate, 0.0);
        let strawman = FixedUntouchedStrawman::new(0.3);
        assert_eq!(strawman.predict_fraction(), 0.3);
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn strawman_rejects_bad_fraction() {
        let _ = FixedUntouchedStrawman::new(1.5);
    }

    #[test]
    #[should_panic(expected = "training requires at least one VM request")]
    fn training_requires_data() {
        let _ = UntouchedMemoryModel::train(&[], &UntouchedModelConfig::default(), 0);
    }
}
