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
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One run of untouched fractions per customer, sorted ascending with the
/// later observation first among equal values.
type Runs = BTreeMap<CustomerId, Vec<f64>>;

/// Per-customer record of previously observed untouched-memory fractions.
///
/// Each customer's observations sit in two sorted runs: a *seed* run that
/// every clone shares through an `Arc` (a trained policy seeds it once from
/// its training prefix), and an *own* run of the observations
/// [`CustomerHistory::record`] added to this copy since, one binary
/// insertion each. So every pod of a fleet replay reads one copy of the
/// training history and owns only the completions it saw.
///
/// The two runs read as one sorted sequence in which equal values keep
/// their arrival order reversed: own before seed, and the later observation
/// first within a run. That is exactly the order one sorted `Vec` with
/// insert-before-equal would hold, so the percentile features — each a rank
/// select over the two runs, O(log n) — and `==` (equal merged sequences,
/// however they are split) are unchanged by the split.
///
/// The history grows with the trace: it is the one trace-length memory term
/// in a streamed replay.
#[derive(Debug, Clone, Default)]
pub struct CustomerHistory {
    seed: Arc<Runs>,
    own: Runs,
}

impl CustomerHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the untouched fraction observed for a completed VM,
    /// maintaining the customer's own run in sorted order.
    pub fn record(&mut self, customer: CustomerId, untouched_fraction: f64) {
        let value = untouched_fraction.clamp(0.0, 1.0);
        let values = self.own.entry(customer).or_default();
        let at = values.partition_point(|&v| v < value);
        values.insert(at, value);
    }

    /// The same history with every observation in the shared seed run, so
    /// its clones share them instead of copying them. Counts, percentiles
    /// and `==` are unchanged.
    pub(crate) fn into_shared(self) -> Self {
        let mut seed = Arc::unwrap_or_clone(self.seed);
        for (customer, own) in self.own {
            let run = seed.entry(customer).or_default();
            *run = merged(&own, run).collect();
        }
        CustomerHistory { seed: Arc::new(seed), own: Runs::new() }
    }

    /// The customer's own and seed runs (empty when it has none).
    fn runs(&self, customer: CustomerId) -> (&[f64], &[f64]) {
        fn run(runs: &Runs, customer: CustomerId) -> &[f64] {
            runs.get(&customer).map_or(&[], Vec::as_slice)
        }
        (run(&self.own, customer), run(&self.seed, customer))
    }

    /// Number of observations for a customer.
    pub fn count(&self, customer: CustomerId) -> usize {
        let (own, seed) = self.runs(customer);
        own.len() + seed.len()
    }

    /// The 0/25/50/75/100th percentiles of the customer's past untouched
    /// fractions (Figure 14 lists these as the model's key features).
    /// Returns `None` when the customer has no history.
    pub fn percentiles(&self, customer: CustomerId) -> Option<[f64; 5]> {
        let (own, seed) = self.runs(customer);
        let last = (own.len() + seed.len()).checked_sub(1)?;
        let pick = |q: f64| select(own, seed, (q * last as f64).round() as usize);
        Some([pick(0.0), pick(0.25), pick(0.5), pick(0.75), pick(1.0)])
    }

    /// Whether `other` reads the same shared seed run (not merely an equal
    /// one).
    #[cfg(test)]
    pub(crate) fn shares_seed_with(&self, other: &CustomerHistory) -> bool {
        Arc::ptr_eq(&self.seed, &other.seed)
    }
}

impl PartialEq for CustomerHistory {
    fn eq(&self, other: &Self) -> bool {
        let customers =
            |h: &Self| h.seed.keys().chain(h.own.keys()).copied().collect::<BTreeSet<_>>();
        let mine = customers(self);
        mine == customers(other)
            && mine.into_iter().all(|c| {
                let ((a_own, a_seed), (b_own, b_seed)) = (self.runs(c), other.runs(c));
                merged(a_own, a_seed).eq(merged(b_own, b_seed))
            })
    }
}

/// The two runs as one sorted sequence, `own` first among equal values.
fn merged<'a>(own: &'a [f64], seed: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let take_own = i < own.len() && (j == seed.len() || own[i] <= seed[j]);
        let next = *if take_own { own.get(i) } else { seed.get(j) }?;
        if take_own {
            i += 1;
        } else {
            j += 1;
        }
        Some(next)
    })
}

/// The value at 0-based `rank` of [`merged`]`(own, seed)`, without merging:
/// O(log n). `rank` must be below the runs' total length.
fn select(own: &[f64], seed: &[f64], rank: usize) -> f64 {
    // With one run empty, the other is the sequence.
    if own.is_empty() {
        return seed[rank];
    }
    if seed.is_empty() {
        return own[rank];
    }
    // Of an own value and a seed value, the one merged later.
    let later = |own: f64, seed: f64| if own <= seed { seed } else { own };
    // The ends are the runs' ends.
    if rank == 0 {
        return if own[0] <= seed[0] { own[0] } else { seed[0] };
    }
    if rank == own.len() + seed.len() - 1 {
        return later(own[own.len() - 1], seed[seed.len() - 1]);
    }
    // Of the first `taken` merged values, `i` come from `own`: the most for
    // which `own[i - 1]` still precedes `seed[taken - i]`.
    let taken = rank + 1;
    let (mut lo, mut hi) = (taken.saturating_sub(seed.len()), taken.min(own.len()));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if own[mid] <= seed[taken - 1 - mid] {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let (i, j) = (lo, taken - lo);
    match (i, j) {
        (0, _) => seed[j - 1],
        (_, 0) => own[i - 1],
        _ => later(own[i - 1], seed[j - 1]),
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
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
}

/// The strawman Figure 18 compares against: a fixed untouched fraction for
/// every VM regardless of metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
///
/// # Errors
///
/// Returns [`MlError::FeatureCountMismatch`] when the request features do
/// not match the trained GBM's schema.
pub fn evaluate_model(
    model: &UntouchedMemoryModel,
    requests: &[VmRequest],
    mut history: CustomerHistory,
) -> Result<UntouchedEvalPoint, MlError> {
    let mut predictions = Vec::with_capacity(requests.len());
    for request in requests {
        predictions.push(model.try_predict_fraction(request, &history)?);
        history.record(request.customer, request.untouched_fraction);
    }
    Ok(evaluate_predictions(requests, &predictions))
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
    use proptest::prelude::*;

    /// The single-run history the two-run one replaced, kept as its oracle:
    /// each customer's observations in one `Vec`, sorted by binary insertion
    /// before equal values.
    #[derive(Default)]
    struct SortedHistory {
        observations: BTreeMap<CustomerId, Vec<f64>>,
    }

    impl SortedHistory {
        fn record(&mut self, customer: CustomerId, untouched_fraction: f64) {
            let value = untouched_fraction.clamp(0.0, 1.0);
            let values = self.observations.entry(customer).or_default();
            let at = values.partition_point(|&v| v < value);
            values.insert(at, value);
        }

        fn count(&self, customer: CustomerId) -> usize {
            self.observations.get(&customer).map_or(0, Vec::len)
        }

        fn percentiles(&self, customer: CustomerId) -> Option<[f64; 5]> {
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

    /// One generated observation: a customer out of three and a value drawn
    /// mostly from a few ties (±0.0, 0.5, 1, out of range) or else uniform.
    type Observation = (u32, u8, f64);

    fn observation() -> impl Strategy<Value = Observation> {
        (0u32..3, 0u8..10, 0.0f64..1.0)
    }

    fn value(&(_, kind, uniform): &Observation) -> f64 {
        match kind {
            0 => -0.0,
            1 => 0.0,
            2 | 3 => 0.5,
            4 => 1.0,
            5 => 1.5,
            6 => -0.25,
            _ => uniform,
        }
    }

    /// The two-run history (`seed` shared, then `own` recorded) and the
    /// oracle fed the same observations in the same order.
    fn both(seed: &[Observation], own: &[Observation]) -> (CustomerHistory, SortedHistory) {
        let (mut history, mut oracle) = (CustomerHistory::new(), SortedHistory::default());
        for o in seed {
            history.record(CustomerId(o.0), value(o));
            oracle.record(CustomerId(o.0), value(o));
        }
        let mut history = history.into_shared();
        for o in own {
            history.record(CustomerId(o.0), value(o));
            oracle.record(CustomerId(o.0), value(o));
        }
        (history, oracle)
    }

    /// `count` and all five percentiles, bit for bit, for every customer
    /// (customer 3 never has history).
    fn assert_matches_oracle(history: &CustomerHistory, oracle: &SortedHistory) {
        let bits = |p: Option<[f64; 5]>| p.map(|p| p.map(f64::to_bits));
        for customer in (0..4).map(CustomerId) {
            assert_eq!(history.count(customer), oracle.count(customer), "{customer:?}");
            assert_eq!(
                bits(history.percentiles(customer)),
                bits(oracle.percentiles(customer)),
                "{customer:?}"
            );
        }
    }

    proptest! {
        /// Any split of the observations into a shared seed run and an own
        /// run reads exactly like the one sorted run, at every step of the
        /// own run; sharing a split history again changes nothing, and `==`
        /// sees only the merged content.
        #[test]
        fn the_two_run_history_matches_one_sorted_run(
            seed in proptest::collection::vec(observation(), 0..40),
            own in proptest::collection::vec(observation(), 0..40),
        ) {
            for step in 0..=own.len() {
                let (history, oracle) = both(&seed, &own[..step]);
                assert_matches_oracle(&history, &oracle);
            }
            let (history, oracle) = both(&seed, &own);
            let all: Vec<Observation> = seed.iter().chain(&own).copied().collect();
            let (unshared, _) = both(&[], &all);
            prop_assert!(history == unshared);
            let shared = history.clone().into_shared();
            assert_matches_oracle(&shared, &oracle);
            prop_assert!(shared == history);
        }
    }

    #[test]
    fn an_empty_run_on_either_side_reads_the_other_directly() {
        let seed = [(0, 7, 0.3), (0, 2, 0.0), (0, 7, 0.1)];
        for (seed, own) in [(&seed[..], &[][..]), (&[][..], &seed[..]), (&[][..], &[][..])] {
            let (history, oracle) = both(seed, own);
            assert_matches_oracle(&history, &oracle);
        }
    }

    #[test]
    fn a_single_observation_is_every_percentile() {
        for (seed, own) in [(&[(1, 7, 0.3)][..], &[][..]), (&[][..], &[(1, 7, 0.3)][..])] {
            let (history, oracle) = both(seed, own);
            assert_eq!(history.percentiles(CustomerId(1)), Some([0.3; 5]));
            assert_matches_oracle(&history, &oracle);
        }
    }

    #[test]
    fn a_signed_zero_tie_across_the_runs_puts_the_own_zero_first() {
        // ±0.0 compare equal, so the later (own) observation sorts first:
        // p0 is the own run's zero and p100 the seed's.
        let (neg, pos) = ((0, 0, 0.0), (0, 1, 0.0));
        for (seed, own) in [(neg, pos), (pos, neg)] {
            let (history, oracle) = both(&[seed], &[own]);
            let p = history.percentiles(CustomerId(0)).unwrap();
            assert_eq!(p[0].to_bits(), value(&own).to_bits());
            assert_eq!(p[4].to_bits(), value(&seed).to_bits());
            assert_matches_oracle(&history, &oracle);
        }
    }

    fn requests() -> Vec<VmRequest> {
        // A mid-sized trace: enough VMs (~1000) for the GBM to learn the
        // customer structure.
        let config = ClusterConfig { servers: 24, duration_days: 12, ..ClusterConfig::small() };
        TraceGenerator::new(config, 1).generate(0).requests
    }

    #[test]
    fn history_percentiles_are_ordered() {
        let mut history = CustomerHistory::new();
        assert_eq!(history.count(CustomerId(1)), 0);
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
            let f = model.try_predict_fraction(request, &history).unwrap();
            assert!((0.0..=1.0).contains(&f));
            assert!(model.try_pool_memory(request, &history).unwrap() <= request.memory);
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
        let point = evaluate_model(&model, test, replay_history(train)).unwrap();
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
        let gbm_point = evaluate_model(&model, test, replay_history(train)).unwrap();

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
            let point = evaluate_model(&model, test, replay_history(train)).unwrap();
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
