//! QoS monitoring and mitigation (§4.3 B, Figure 11 and Figure 13 right).
//!
//! The QoS monitor continuously inspects running VMs: for zNUMA VMs it checks
//! whether the untouched-memory prediction was too optimistic; for VMs that
//! spill (or run fully on pool memory) it consults the latency-sensitivity
//! model to decide whether the slowdown likely exceeds the PDM. If so, the
//! mitigation manager performs the one-time reconfiguration to all-local
//! memory through the hypervisor.

use crate::sensitivity::SensitivityModel;
use cxl_hw::units::Bytes;
use hypervisor_sim::host::{HostMemory, HostMemoryError};
use hypervisor_sim::reconfig::reconfigure;
use pond_ml::MlError;
use std::time::Duration;
use workload_model::telemetry::TmaCounters;

/// The decision the QoS monitor takes for one VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosDecision {
    /// The VM is healthy; keep monitoring.
    ContinueMonitoring,
    /// The VM is likely exceeding its PDM; reconfigure it to local memory.
    Mitigate,
}

/// Telemetry snapshot the monitor evaluates for one VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmObservation {
    /// Core-PMU counters sampled for the VM.
    pub counters: TmaCounters,
    /// Pool memory currently allocated to the VM.
    pub pool_memory: Bytes,
    /// Untouched memory predicted at scheduling time.
    pub predicted_untouched: Bytes,
    /// Minimum untouched memory observed so far (access-bit scans).
    pub observed_untouched: Bytes,
}

impl VmObservation {
    /// Whether the untouched-memory prediction was too optimistic: the VM has
    /// touched more memory than the prediction allowed for, so part of its
    /// working set must live on the zNUMA node.
    pub fn overpredicted(&self) -> bool {
        self.observed_untouched < self.predicted_untouched
    }
}

/// The QoS monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct QosMonitor {
    sensitivity: SensitivityModel,
}

impl QosMonitor {
    /// Creates a monitor around a trained sensitivity model.
    pub fn new(sensitivity: SensitivityModel) -> Self {
        QosMonitor { sensitivity }
    }

    /// Access to the underlying sensitivity model.
    pub fn sensitivity(&self) -> &SensitivityModel {
        &self.sensitivity
    }

    /// Evaluates one VM (Figure 13, right side):
    ///
    /// * VMs without pool memory never need mitigation.
    /// * zNUMA VMs whose untouched prediction still holds keep monitoring.
    /// * Otherwise the sensitivity model decides: latency-insensitive VMs can
    ///   tolerate the spill, sensitive ones are mitigated.
    ///
    /// This is the online serving path (one call per running VM, at the
    /// VM's first QoS pass: the control plane keeps the verdict for the
    /// later ones), so the sensitivity model's feature schema is validated:
    /// a drift surfaces as an [`MlError`] the replay propagates instead of a
    /// panic mid sweep.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureCountMismatch`] on feature-schema drift.
    pub fn try_evaluate(&self, observation: &VmObservation) -> Result<QosDecision, MlError> {
        if observation.pool_memory.is_zero() {
            return Ok(QosDecision::ContinueMonitoring);
        }
        let fully_pool_backed = observation.predicted_untouched.is_zero();
        if !fully_pool_backed && !observation.overpredicted() {
            return Ok(QosDecision::ContinueMonitoring);
        }
        Ok(if self.sensitivity.try_is_insensitive(&observation.counters)? {
            QosDecision::ContinueMonitoring
        } else {
            QosDecision::Mitigate
        })
    }
}

/// Executes mitigations, bounded by a budget expressed as a fraction of the
/// monitoring visits so far ([`MitigationManager::monitored`]): each QoS
/// pass visits every running VM once, so a VM that runs through `n` passes
/// counts `n` times (the paper's evaluation assumes the monitor mitigates up
/// to 1% of mispredictions).
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationManager {
    budget_fraction: f64,
    monitored: u64,
    mitigated: u64,
}

impl MitigationManager {
    /// Creates a manager with the given mitigation budget (e.g. 0.01).
    ///
    /// # Panics
    ///
    /// Panics unless `budget_fraction` is within `[0, 1]`.
    pub fn new(budget_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&budget_fraction), "budget must be in [0, 1]");
        MitigationManager { budget_fraction, monitored: 0, mitigated: 0 }
    }

    /// Number of monitoring visits so far: one per VM per QoS pass, so a VM
    /// counts again at every pass it is running for.
    pub fn monitored(&self) -> u64 {
        self.monitored
    }

    /// Number of mitigations performed so far.
    pub fn mitigated(&self) -> u64 {
        self.mitigated
    }

    /// Whether the budget allows another mitigation right now.
    pub fn within_budget(&self) -> bool {
        let allowed = (self.monitored as f64 * self.budget_fraction).floor() as u64;
        self.mitigated < allowed.max(1)
    }

    /// Counts one monitoring visit and applies the mitigation `decision`
    /// asks for, if the budget allows it: moves the VM's `pool` memory into
    /// local DRAM on `host`. Returns the copy time when a mitigation ran;
    /// a VM without pool memory has nothing to move, and one whose host
    /// lacks the local DRAM stays as it is.
    ///
    /// `decision` is the monitor's verdict on the VM
    /// ([`QosMonitor::try_evaluate`]): the control plane calls this once per
    /// running VM every QoS pass, whether or not it evaluated the verdict in
    /// that pass, so the budget counts every running VM at every pass.
    ///
    /// # Errors
    ///
    /// Returns [`HostMemoryError::NotPinned`], changing nothing but the
    /// visit count, when `host` pins less pool memory than `pool`: the VM's
    /// record and its host disagree.
    pub(crate) fn apply(
        &mut self,
        decision: QosDecision,
        host: &mut HostMemory,
        pool: Bytes,
    ) -> Result<Option<Duration>, HostMemoryError> {
        self.monitored += 1;
        if decision == QosDecision::ContinueMonitoring || pool.is_zero() || !self.within_budget() {
            return Ok(None);
        }
        match reconfigure(host, pool) {
            Ok(copy) => {
                self.mitigated += 1;
                Ok(Some(copy))
            }
            Err(HostMemoryError::InsufficientLocal { .. }) => Ok(None),
            Err(error) => Err(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::SensitivityModelConfig;
    use workload_model::telemetry::TelemetrySampler;
    use workload_model::{SlowdownModel, WorkloadSuite};

    fn monitor() -> QosMonitor {
        let suite = WorkloadSuite::standard();
        QosMonitor::new(SensitivityModel::train(&suite, &SensitivityModelConfig::default(), 0))
    }

    fn counters_for(name: &str) -> TmaCounters {
        let suite = WorkloadSuite::standard();
        TelemetrySampler::default().sample(suite.get(name).unwrap(), 5)
    }

    fn most_sensitive_and_insensitive() -> (String, String) {
        let suite = WorkloadSuite::standard();
        let model = SlowdownModel::default();
        let mut sorted: Vec<_> = suite.workloads().collect();
        sorted.sort_by(|a, b| {
            model
                .full_pool_slowdown(a, cxl_hw::latency::LatencyScenario::Increase182)
                .partial_cmp(
                    &model.full_pool_slowdown(b, cxl_hw::latency::LatencyScenario::Increase182),
                )
                .unwrap()
        });
        (sorted.last().unwrap().name.clone(), sorted.first().unwrap().name.clone())
    }

    #[test]
    fn all_local_vms_are_never_mitigated() {
        let monitor = monitor();
        let (sensitive, _) = most_sensitive_and_insensitive();
        let obs = VmObservation {
            counters: counters_for(&sensitive),
            pool_memory: Bytes::ZERO,
            predicted_untouched: Bytes::ZERO,
            observed_untouched: Bytes::ZERO,
        };
        assert_eq!(monitor.try_evaluate(&obs).unwrap(), QosDecision::ContinueMonitoring);
    }

    #[test]
    fn correct_predictions_keep_monitoring() {
        let monitor = monitor();
        let (sensitive, _) = most_sensitive_and_insensitive();
        let obs = VmObservation {
            counters: counters_for(&sensitive),
            pool_memory: Bytes::from_gib(8),
            predicted_untouched: Bytes::from_gib(8),
            observed_untouched: Bytes::from_gib(10),
        };
        assert!(!obs.overpredicted());
        assert_eq!(monitor.try_evaluate(&obs).unwrap(), QosDecision::ContinueMonitoring);
    }

    #[test]
    fn overprediction_of_a_sensitive_vm_triggers_mitigation() {
        let monitor = monitor();
        let (sensitive, insensitive) = most_sensitive_and_insensitive();
        let base = VmObservation {
            counters: counters_for(&sensitive),
            pool_memory: Bytes::from_gib(8),
            predicted_untouched: Bytes::from_gib(8),
            observed_untouched: Bytes::from_gib(2),
        };
        assert!(base.overpredicted());
        assert_eq!(monitor.try_evaluate(&base).unwrap(), QosDecision::Mitigate);
        // The same situation for an insensitive workload is tolerated.
        let tolerant = VmObservation { counters: counters_for(&insensitive), ..base };
        assert_eq!(monitor.try_evaluate(&tolerant).unwrap(), QosDecision::ContinueMonitoring);
    }

    #[test]
    fn mitigation_manager_applies_and_counts() {
        let monitor = monitor();
        let (sensitive, _) = most_sensitive_and_insensitive();
        let mut host = HostMemory::new(Bytes::from_gib(512), Bytes::from_gib(8));
        host.pin(Bytes::from_gib(24), Bytes::from_gib(8)).unwrap();

        let mut manager = MitigationManager::new(1.0);
        let obs = VmObservation {
            counters: counters_for(&sensitive),
            pool_memory: Bytes::from_gib(8),
            predicted_untouched: Bytes::from_gib(8),
            observed_untouched: Bytes::ZERO,
        };
        let decision = monitor.try_evaluate(&obs).unwrap();
        assert_eq!(decision, QosDecision::Mitigate);
        // 8 GiB at 50 ms/GiB.
        let copy = manager.apply(decision, &mut host, Bytes::from_gib(8)).unwrap().unwrap();
        assert_eq!(copy, Duration::from_millis(400));
        assert_eq!(
            (host.local_allocated(), host.pool_allocated()),
            (Bytes::from_gib(32), Bytes::ZERO)
        );
        assert_eq!(manager.mitigated(), 1);
        assert_eq!(manager.monitored(), 1);
    }

    #[test]
    fn mitigation_budget_limits_actions() {
        let monitor = monitor();
        let (sensitive, _) = most_sensitive_and_insensitive();
        // Budget of 0 still allows a single mitigation (floor to at least 1).
        let mut manager = MitigationManager::new(0.0);
        assert!(manager.within_budget());
        let obs = VmObservation {
            counters: counters_for(&sensitive),
            pool_memory: Bytes::from_gib(4),
            predicted_untouched: Bytes::from_gib(4),
            observed_untouched: Bytes::ZERO,
        };
        // Two VMs on two hosts: only the first mitigation fits the budget.
        for _ in 0..2 {
            let mut host = HostMemory::new(Bytes::from_gib(512), Bytes::from_gib(8));
            host.pin(Bytes::from_gib(12), Bytes::from_gib(4)).unwrap();
            let decision = monitor.try_evaluate(&obs).unwrap();
            manager.apply(decision, &mut host, Bytes::from_gib(4)).unwrap();
        }
        assert_eq!(manager.mitigated(), 1, "budget should cap mitigations");
        assert_eq!(manager.monitored(), 2);
    }

    #[test]
    #[should_panic(expected = "budget must be in [0, 1]")]
    fn invalid_budget_rejected() {
        let _ = MitigationManager::new(2.0);
    }
}
