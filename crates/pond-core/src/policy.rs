//! The end-to-end Pond memory-allocation policy (Figure 13, left side).
//!
//! For every VM request the policy walks the paper's decision flow:
//!
//! 1. If the customer has workload history, predict whether the workload is
//!    latency-insensitive from its core-PMU counters; insensitive VMs are
//!    allocated entirely on pool DRAM.
//! 2. Otherwise (or if the VM is predicted sensitive), predict the VM's
//!    untouched memory from its metadata and allocate exactly that much pool
//!    DRAM behind a zNUMA node; the rest stays NUMA-local.
//! 3. VMs predicted to touch everything get only local DRAM.
//!
//! The policy implements [`cluster_sim::scheduler::MemoryPolicy`], so it
//! plugs directly into the cluster simulator for the Figure 20/21
//! experiments.

use crate::error::PondError;
use crate::qos::QosMonitor;
use crate::sensitivity::{SensitivityModel, SensitivityModelConfig};
use crate::untouched::{CustomerHistory, UntouchedMemoryModel, UntouchedModelConfig};
use cluster_sim::scheduler::MemoryPolicy;
use cluster_sim::source::{ArrivalSource, SourceError};
use cluster_sim::trace::{ClusterTrace, CustomerId, VmRequest};
use cxl_hw::latency::LatencyScenario;
use cxl_hw::units::Bytes;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use workload_model::telemetry::TelemetrySampler;
use workload_model::{WorkloadProfile, WorkloadSuite};

/// Configuration of the full Pond policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PondPolicyConfig {
    /// Performance degradation margin the deployment promises (e.g. 0.05).
    pub pdm: f64,
    /// Target fraction of VMs that must stay within the PDM (e.g. 0.98).
    pub tp: f64,
    /// The CXL latency scenario the pool operates under.
    pub scenario: LatencyScenario,
    /// Quantile used by the untouched-memory model (lower = more conservative).
    pub untouched_quantile: f64,
    /// Fraction of the training trace used to fit the untouched-memory model.
    pub training_fraction: f64,
    /// Sensitivity-model hyperparameters.
    pub sensitivity: SensitivityModelConfig,
}

impl Default for PondPolicyConfig {
    fn default() -> Self {
        PondPolicyConfig {
            pdm: 0.05,
            tp: 0.98,
            scenario: LatencyScenario::Increase182,
            untouched_quantile: 0.05,
            training_fraction: 0.4,
            sensitivity: SensitivityModelConfig::default(),
        }
    }
}

impl PondPolicyConfig {
    /// The false-positive budget handed to the sensitivity model: half the
    /// total misprediction budget `100 − TP` (the other half is left for
    /// untouched-memory overpredictions).
    pub fn sensitivity_fp_budget(&self) -> f64 {
        (1.0 - self.tp).max(0.0) / 2.0
    }
}

/// Counts of the allocation decisions the policy has taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// VMs allocated entirely on pool DRAM (predicted latency-insensitive).
    pub fully_pool: u64,
    /// VMs given a zNUMA node sized to their predicted untouched memory.
    pub partial_pool: u64,
    /// VMs allocated entirely on local DRAM.
    pub all_local: u64,
}

impl PolicyStats {
    /// Total decisions taken.
    pub fn total(&self) -> u64 {
        self.fully_pool + self.partial_pool + self.all_local
    }
}

/// The trained Pond policy.
///
/// Training builds a read-only half once — both models, the workload suite,
/// the telemetry sampler, and the training prefix's customer history and
/// per-customer workload sets — and every clone shares it by reference
/// count. A clone owns only the completions recorded on it since and its
/// [`PolicyStats`], so a fleet replay hands each pod a clone for the price
/// of its own completions.
#[derive(Debug, Clone)]
pub struct PondPolicy {
    trained: Arc<TrainedPolicy>,
    /// The training prefix's history, shared as the history's seed run,
    /// plus this copy's completions.
    history: CustomerHistory,
    /// Workloads customers completed on this copy since training.
    workload_history: BTreeMap<CustomerId, BTreeSet<usize>>,
    stats: PolicyStats,
}

/// The read-only half of a [`PondPolicy`], shared by all its clones.
#[derive(Debug)]
struct TrainedPolicy {
    config: PondPolicyConfig,
    /// The sensitivity forest, in the QoS monitor that also serves it.
    monitor: QosMonitor,
    untouched: UntouchedMemoryModel,
    /// The workloads each customer ran in the training prefix.
    workload_history: BTreeMap<CustomerId, BTreeSet<usize>>,
    suite: WorkloadSuite,
    sampler: TelemetrySampler,
}

impl PondPolicy {
    /// Trains both prediction models.
    ///
    /// The sensitivity model trains on the workload suite (the paper's
    /// offline runs and A/B tests) and calibrates its threshold to the
    /// configured false-positive budget on a held-out split. The
    /// untouched-memory model trains on the first
    /// [`PondPolicyConfig::training_fraction`] of the provided trace; the
    /// remaining requests are what simulations should evaluate on.
    ///
    /// # Panics
    ///
    /// Panics if the trace has no requests: there is nothing to train the
    /// untouched-memory model on. [`PondPolicy::train_source`] returns an
    /// error instead.
    pub fn train(trace: &ClusterTrace, config: &PondPolicyConfig, seed: u64) -> Self {
        let train_slice = &trace.requests[..Self::train_len(trace.requests.len(), config)];
        Self::train_requests(train_slice, config, seed)
    }

    /// [`PondPolicy::train`] over a streaming [`ArrivalSource`]: only the
    /// training prefix is ever materialized, so training memory is bounded
    /// by `training_fraction × trace length` rather than by whole-trace
    /// bookkeeping. Bit-identical to [`PondPolicy::train`] on the same
    /// requests.
    ///
    /// `make` builds a fresh source per pass because sizing the prefix needs
    /// the stream length: sources without a [`ArrivalSource::len_hint`] cost
    /// one extra counting pass.
    ///
    /// # Errors
    ///
    /// Propagates any [`SourceError`] the stream raises, and returns
    /// [`SourceError::Malformed`] when the stream yields no request: there is
    /// nothing to train on.
    pub fn train_source<S, F>(
        mut make: F,
        config: &PondPolicyConfig,
        seed: u64,
    ) -> Result<Self, SourceError>
    where
        S: ArrivalSource,
        F: FnMut() -> S,
    {
        let mut source = make();
        let total = match source.len_hint() {
            Some(n) => n,
            None => {
                let mut count: u64 = 0;
                while source.next_request()?.is_some() {
                    count += 1;
                }
                source = make();
                count
            }
        };
        debug_assert!(total <= usize::MAX as u64, "stream length exceeds the address space");
        let train_len = Self::train_len(total as usize, config);
        let mut train_slice = Vec::with_capacity(train_len);
        while train_slice.len() < train_len {
            match source.next_request()? {
                Some(request) => train_slice.push(request),
                None => break,
            }
        }
        if train_slice.is_empty() {
            return Err(SourceError::Malformed(
                "the stream has no requests: nothing to train on".into(),
            ));
        }
        Ok(Self::train_requests(&train_slice, config, seed))
    }

    /// The training-prefix length [`PondPolicy::train`] and
    /// [`PondPolicy::train_source`] share: `training_fraction` of the trace,
    /// rounded, at least one request when any exist.
    fn train_len(total: usize, config: &PondPolicyConfig) -> usize {
        (((total as f64) * config.training_fraction).round().max(1.0) as usize).min(total)
    }

    /// Trains both models on an explicit training prefix.
    fn train_requests(train_slice: &[VmRequest], config: &PondPolicyConfig, seed: u64) -> Self {
        let suite = WorkloadSuite::standard();

        let mut sensitivity = SensitivityModel::train(&suite, &config.sensitivity, seed);
        let data = crate::sensitivity::training_dataset(&suite, &config.sensitivity, seed ^ 0xA5);
        let (_, validation) = data.train_test_split(0.5, seed ^ 0x5A);
        sensitivity.calibrate_threshold(&validation, config.sensitivity_fp_budget(), 200);

        let untouched = UntouchedMemoryModel::train(
            train_slice,
            &UntouchedModelConfig { quantile: config.untouched_quantile, rounds: 50 },
            seed,
        );

        // Seed the runtime history with the training period: the policy
        // starts knowing the customers it has already seen.
        let mut history = CustomerHistory::new();
        let mut workload_history: BTreeMap<CustomerId, BTreeSet<usize>> = BTreeMap::new();
        for request in train_slice {
            history.record(request.customer, request.untouched_fraction);
            workload_history.entry(request.customer).or_default().insert(request.workload_index);
        }

        PondPolicy {
            trained: Arc::new(TrainedPolicy {
                config: config.clone(),
                monitor: QosMonitor::new(sensitivity),
                untouched,
                workload_history,
                suite,
                sampler: TelemetrySampler::default(),
            }),
            history: history.into_shared(),
            workload_history: BTreeMap::new(),
            stats: PolicyStats::default(),
        }
    }

    /// The policy's configuration.
    pub fn config(&self) -> &PondPolicyConfig {
        &self.trained.config
    }

    /// Decision statistics accumulated so far.
    pub fn stats(&self) -> PolicyStats {
        self.stats
    }

    /// The trained sensitivity model.
    pub fn sensitivity_model(&self) -> &SensitivityModel {
        self.trained.monitor.sensitivity()
    }

    /// The QoS monitor around the trained sensitivity model: the control
    /// plane's mitigation passes consult the same shared forest the
    /// arrival-time decision does.
    pub(crate) fn qos_monitor(&self) -> &QosMonitor {
        &self.trained.monitor
    }

    /// The PMU sampler the arrival-time sensitivity check reads: the control
    /// plane's QoS passes sample through it too, so both see one VM's
    /// counters alike.
    pub(crate) fn sampler(&self) -> &TelemetrySampler {
        &self.trained.sampler
    }

    /// The workload suite entry a request's workload index names (taken
    /// modulo the suite size).
    pub(crate) fn workload(&self, workload_index: usize) -> &WorkloadProfile {
        let suite = &self.trained.suite;
        suite
            .at(workload_index % suite.len())
            .expect("workload index is taken modulo the suite size")
    }

    /// Whether both policies read one trained half and one seed history.
    #[cfg(test)]
    pub(crate) fn shares_trained_with(&self, other: &PondPolicy) -> bool {
        Arc::ptr_eq(&self.trained, &other.trained) && self.history.shares_seed_with(&other.history)
    }

    /// The per-customer completion history feeding the online untouched
    /// predictions: the training prefix's observations, shared with every
    /// clone, plus the completions recorded on this copy. Exposed so tests
    /// can pin exactly how many observations a customer fed back — e.g. that
    /// a drained VM which later departs normally records exactly one
    /// completion.
    pub fn history(&self) -> &CustomerHistory {
        &self.history
    }

    /// The Figure 13 decision for one request, without mutating statistics,
    /// with both models' feature schemas validated. This is the online
    /// serving entry point: the control plane calls it once per VM arrival,
    /// so a malformed feature row surfaces as a [`PondError::Model`] the
    /// fleet replay propagates instead of a panic that takes a whole sweep
    /// down.
    ///
    /// # Errors
    ///
    /// Returns [`PondError::Model`] when either prediction model rejects its
    /// feature row (schema drift between training and serving).
    pub fn try_decide(&self, request: &VmRequest) -> Result<PondDecision, PondError> {
        // "Workload history" means the same customer has run this workload
        // before (the paper matches on customer id, VM type, and workload
        // name); only then does Pond trust a sensitivity prediction.
        let trained = &*self.trained;
        let ran = |workloads: &BTreeMap<CustomerId, BTreeSet<usize>>| {
            workloads.get(&request.customer).is_some_and(|w| w.contains(&request.workload_index))
        };
        if ran(&trained.workload_history) || ran(&self.workload_history) {
            let counters =
                trained.sampler.sample(self.workload(request.workload_index), request.id);
            let insensitive = self
                .sensitivity_model()
                .try_is_insensitive(&counters)
                .map_err(|e| PondError::Model { detail: e.to_string() })?;
            if insensitive {
                return Ok(PondDecision::FullyPool);
            }
        }
        let pool = trained
            .untouched
            .try_pool_memory(request, &self.history)
            .map_err(|e| PondError::Model { detail: e.to_string() })?;
        Ok(if pool.is_zero() { PondDecision::AllLocal } else { PondDecision::Znuma { pool } })
    }

    /// Feeds one completed VM back into the policy's online state: its
    /// measured untouched fraction extends the customer's history (used by
    /// the untouched-memory features) and the workload joins the customer's
    /// known-workload set (which gates the fully-pool path). Both land in
    /// this copy's own half: clones sharing the trained half do not see it.
    ///
    /// [`MemoryPolicy::observe_outcome`] delegates here; the control plane
    /// calls it directly on VM departure, when the access-bit scans have
    /// established the ground truth.
    pub fn record_completion(
        &mut self,
        customer: CustomerId,
        untouched_fraction: f64,
        workload_index: usize,
    ) {
        self.history.record(customer, untouched_fraction);
        self.workload_history.entry(customer).or_default().insert(workload_index);
    }
}

/// The three possible outcomes of the Figure 13 scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PondDecision {
    /// Allocate the entire VM on pool DRAM.
    FullyPool,
    /// Allocate `pool` on the zNUMA node and the rest locally.
    Znuma {
        /// Pool memory backing the zNUMA node.
        pool: Bytes,
    },
    /// Allocate everything on local DRAM.
    AllLocal,
}

impl MemoryPolicy for PondPolicy {
    fn pool_memory(&mut self, request: &VmRequest) -> Bytes {
        // The trait method cannot fail; the simulator serves requests
        // through the schemas the models were trained with.
        let decision = self.try_decide(request);
        match decision.expect("serving features must match the trained models' schemas") {
            PondDecision::FullyPool => {
                self.stats.fully_pool += 1;
                request.memory
            }
            PondDecision::Znuma { pool } => {
                self.stats.partial_pool += 1;
                pool
            }
            PondDecision::AllLocal => {
                self.stats.all_local += 1;
                Bytes::ZERO
            }
        }
    }

    fn observe_outcome(&mut self, request: &VmRequest, _slowdown: f64, _exceeded_pdm: bool) {
        // The control plane learns from completed VMs: their untouched memory
        // feeds the customer history and their workload becomes the
        // customer's latest known workload.
        self.record_completion(
            request.customer,
            request.untouched_fraction,
            request.workload_index,
        );
    }

    fn name(&self) -> &str {
        "pond"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::scheduler::FixedPoolFraction;
    use cluster_sim::simulation::{Simulation, SimulationConfig};
    use cluster_sim::source::{TraceCursor, Validated};
    use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};

    fn trace() -> ClusterTrace {
        // Mid-sized trace (~1000 VMs) so the learned models have signal.
        let config = ClusterConfig { servers: 24, duration_days: 12, ..ClusterConfig::small() };
        TraceGenerator::new(config, 1).generate(0)
    }

    #[test]
    fn training_on_an_empty_stream_is_an_error() {
        let empty = ClusterTrace {
            cluster_id: 0,
            servers: 2,
            cores_per_server: 16,
            dram_per_server: Bytes::from_gib(128),
            duration: 3600,
            requests: Vec::new(),
        };
        let result = PondPolicy::train_source(
            || Validated::new(TraceCursor::new(&empty)),
            &PondPolicyConfig::default(),
            0,
        );
        match result {
            Err(SourceError::Malformed(detail)) => {
                assert!(detail.contains("nothing to train on"), "{detail}");
            }
            other => panic!("an empty stream must be malformed, got {:?}", other.err()),
        }
    }

    #[test]
    fn policy_trains_and_makes_all_three_decisions() {
        let trace = trace();
        let mut policy = PondPolicy::train(&trace, &PondPolicyConfig::default(), 1);
        let evaluated = trace.requests.len().min(600);
        for request in trace.requests.iter().take(evaluated) {
            let pool = policy.pool_memory(request);
            assert!(pool <= request.memory);
            policy.observe_outcome(request, 0.0, false);
        }
        let stats = policy.stats();
        assert_eq!(stats.total() as usize, evaluated);
        assert!(stats.partial_pool > 0, "zNUMA allocations should dominate: {stats:?}");
        assert!(stats.fully_pool > 0, "some customers run insensitive workloads: {stats:?}");
        assert_eq!(policy.name(), "pond");
    }

    #[test]
    fn pond_keeps_violations_low_while_using_the_pool() {
        let trace = trace();
        let config = PondPolicyConfig::default();
        let policy = PondPolicy::train(&trace, &config, 2);
        let sim_config = SimulationConfig {
            pool_size_sockets: 16,
            pdm: config.pdm,
            qos_mitigation: false,
            ..Default::default()
        };
        let outcome = Simulation::new(sim_config, policy).run(&trace);
        assert!(outcome.scheduled_vms > 0);
        // Pond should put a meaningful share of memory on the pool...
        assert!(outcome.pool_dram_fraction() > 0.10, "pool share {}", outcome.pool_dram_fraction());
        // ...while keeping scheduling mispredictions near the 2% target.
        assert!(outcome.violation_fraction() < 0.08, "violations {}", outcome.violation_fraction());
    }

    #[test]
    fn pond_beats_the_static_strawman_on_the_violation_per_pool_tradeoff() {
        // Figure 21's qualitative claim: at comparable pool usage the static
        // policy mispredicts far more often than Pond.
        let trace = trace();
        let config = PondPolicyConfig::default();
        let pond = PondPolicy::train(&trace, &config, 3);
        let sim_config = SimulationConfig { qos_mitigation: false, ..Default::default() };
        let pond_outcome = Simulation::new(sim_config.clone(), pond).run(&trace);

        let static_fraction = pond_outcome.pool_dram_fraction().clamp(0.05, 0.95);
        let static_outcome =
            Simulation::new(sim_config, FixedPoolFraction::new(static_fraction)).run(&trace);

        assert!(
            pond_outcome.violation_fraction() < static_outcome.violation_fraction(),
            "pond {} vs static {} at pool share {:.2}",
            pond_outcome.violation_fraction(),
            static_outcome.violation_fraction(),
            static_fraction
        );
    }

    #[test]
    fn decisions_respect_customer_history() {
        let trace = trace();
        let policy = PondPolicy::train(&trace, &PondPolicyConfig::default(), 4);
        // A request from a brand-new customer can never take the
        // fully-pool path (no workload history).
        let mut request = trace.requests[0].clone();
        request.customer = CustomerId(9_999);
        assert!(!matches!(policy.try_decide(&request).unwrap(), PondDecision::FullyPool));
    }

    #[test]
    fn config_budget_split() {
        let config = PondPolicyConfig::default();
        assert!((config.sensitivity_fp_budget() - 0.01).abs() < 1e-12);
        assert_eq!(config.pdm, 0.05);
    }
}
