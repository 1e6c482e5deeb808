//! The event-driven fleet replay: [`PondControlPlane`] driven by
//! `cluster-sim`'s time-ordered event core (§6.5, Figures 19–20).
//!
//! The paper's headline DRAM-savings numbers come from replaying a cloud VM
//! trace through the *full* Pond pipeline, not through a static local/pool
//! split. This module closes that loop: every arrival gets a live
//! [`crate::policy::PondDecision`] from the trained prediction models, Pool
//! Manager slice offlining completes as first-class
//! [`CompletionKind::Release`] events, and periodic QoS
//! passes reconfigure mispredicted VMs back to all-local memory with their
//! 50 ms/GiB copy cost charged on the event timeline before the freed slices
//! start offlining.
//!
//! The event stream is the contract documented in [`cluster_sim::event`]: at
//! equal times departures apply first, then release completions, then the
//! QoS tick, then arrivals — so a QoS pass never sees a departed VM, an
//! arrival allocates from a buffer that reflects every release due by its
//! arrival time, and the whole replay is deterministic. Pool-accounting
//! conservation, `free + offlining + pinned + lent == live` as
//! [`PondControlPlane::assert_pool_conserved`] checks it, is debug-asserted
//! after every event.
//!
//! This module owns the outcome type, its accounting rules, and
//! [`run_fleet_reference`], the original heap-per-source loop kept as the
//! bit-for-bit oracle for the replay engine. The engine is the multi-pool
//! one in [`crate::multipool`]; a single pool is that engine on one
//! symmetric group (`MultiPoolConfig::for_trace(.., PodStyle::Symmetric, 1,
//! ..)`), and its result is the outcome's `.fleet`.

use crate::control_plane::PondControlPlane;
use crate::error::PondError;
use crate::multipool::MultiPoolConfig;
use crate::policy::PondPolicy;
use cluster_sim::event::{CompletionKind, Event, ReferenceEventQueue};
use cluster_sim::pooling::{required_dram, required_dram_fraction};
use cluster_sim::trace::ClusterTrace;
use cxl_hw::units::Bytes;
use hypervisor_sim::vm::VmId;
use std::time::Duration;
use workload_model::spill::SpillModel;
use workload_model::WorkloadProfile;

/// Aggregated results of one fleet replay.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetOutcome {
    /// VMs placed by the control plane.
    pub scheduled_vms: u64,
    /// VMs that could not be placed (no host had enough local DRAM, or the
    /// pool was exhausted with the all-local fallback disabled).
    pub rejected_vms: u64,
    /// Placements that fell back to all-local memory because the pool buffer
    /// could not cover the predicted pool share.
    pub fallback_all_local: u64,
    /// VMs whose ground-truth slowdown exceeded the PDM.
    pub violations: u64,
    /// VMs the QoS monitor reconfigured to all-local memory.
    pub mitigations: u64,
    /// Total pool→local copy time the mitigations charged.
    pub mitigation_copy_time: Duration,
    /// Reconfiguration-copy completion events processed: each mitigation's
    /// degraded-mode window ends with one first-class `Reconfig` completion.
    pub reconfig_completions: u64,
    /// Peak number of mitigation copies in flight at once — the widest
    /// degraded-mode window any snapshot could observe.
    pub peak_degraded_vms: u64,
    /// QoS passes executed.
    pub qos_passes: u64,
    /// Release-completion events processed.
    pub releases_completed: u64,
    /// EMC failures injected by a failure drill (zero without one).
    pub emc_failures: u64,
    /// VMs that survived an EMC failure by migrating — re-homed to a
    /// reachable pod (pooled or all-local) with their copy charged on the
    /// event timeline. Attributed to the group the VM left: the pod that
    /// lost the device, or the borrower whose lease died with a lender's.
    pub vms_migrated: u64,
    /// VMs that had to move and found no rung to hold them: lost to an EMC
    /// failure, or (as a last resort) to a drain. Attributed to the group
    /// the VM ran in.
    pub vms_killed: u64,
    /// Migration-copy completion events processed: each migrated VM's
    /// in-migration degraded window ends with one `Migration` completion.
    pub migration_completions: u64,
    /// Total evacuation copy time the migrations charged (50 ms/GiB of each
    /// migrated VM's full memory, like the QoS mitigation copies).
    pub evacuation_copy_time: Duration,
    /// VMs drained off a decommissioning group by migration. Disjoint from
    /// [`FleetOutcome::vms_migrated`] (failure evacuations): a graceful
    /// decommission never kills, it drains. Attributed to the group the VM
    /// left: the decommissioned pod, or the borrower whose lease on it was
    /// recalled.
    pub vms_drained: u64,
    /// VMs moved by proactive QoS-cadence rebalancing — migrated from a
    /// pool-starved pod to its ring neighbour before a failure or arrival
    /// forces the issue. Disjoint from both
    /// [`FleetOutcome::vms_migrated`] and [`FleetOutcome::vms_drained`].
    pub vms_rebalanced: u64,
    /// EMC repairs applied by a lifecycle plan: failed devices whose
    /// capacity rejoined the pool (healthy-device repairs are no-ops and
    /// not counted).
    pub emcs_repaired: u64,
    /// Pool groups that completed a graceful decommission: drained of VMs
    /// and pending releases, then taken out of service.
    pub groups_decommissioned: u64,
    /// Live pool-group expansions applied: new EMC capacity attached
    /// mid-replay (a decommissioned group re-onlined by a replacement pod
    /// counts here too).
    pub groups_expanded: u64,
    /// Distinct hosts that held pool slices at some point. With the
    /// host-port lifecycle this can exceed the pool's CXL port count: hosts
    /// cycle through ports as they drain.
    pub pooled_host_count: u64,
    /// Sum over hosts of each host's peak pinned local memory.
    pub sum_local_peaks: Bytes,
    /// Sum over hosts of each host's peak pinned pool memory — what that
    /// memory would cost as dedicated per-host DRAM.
    pub sum_host_pool_peaks: Bytes,
    /// Sum over hosts of each host's peak total (local + pool) memory — the
    /// DRAM a pool-less provisioning would need.
    pub sum_total_peaks: Bytes,
    /// Peak pool capacity assigned to hosts, *including* slices still
    /// offlining — the pool DRAM that actually has to be provisioned. The
    /// asynchronous-release tail lives here: slow offlining inflates this
    /// peak and erodes the savings.
    pub pool_peak: Bytes,
    /// GiB-hours of VM memory served from the pool. Mitigated VMs stop
    /// accruing at their reconfiguration: the unserved remainder of their
    /// lifetime is deducted when the QoS pass moves them off the pool.
    pub pool_gib_hours: f64,
    /// GiB-hours of VM memory overall.
    pub total_gib_hours: f64,
    /// VMs placed through the cross-pod BorrowedNeighbour rung: the host
    /// stayed in the home pod but the pool slices came from a reachable
    /// lender pod's pool. Zero whenever borrowing is disabled.
    pub vms_borrowed: u64,
    /// GiB-hours of VM memory served from *borrowed* (cross-pod) slices — a
    /// subset of [`FleetOutcome::pool_gib_hours`], attributed to the
    /// borrower group whose VM leaned on the lease.
    pub borrowed_gib_hours: f64,
}

impl FleetOutcome {
    /// DRAM required without pooling: every host provisioned for its own
    /// combined peak.
    pub fn baseline_dram(&self) -> Bytes {
        self.sum_total_peaks
    }

    /// DRAM required with pooling: the baseline minus the sharing gain (what
    /// the pool-eligible memory would cost per host, less what the shared
    /// pool must actually provision at its peak — offlining tail included),
    /// as [`required_dram`] computes it.
    pub fn required_dram(&self) -> Bytes {
        required_dram(self.sum_total_peaks, self.sum_host_pool_peaks, self.pool_peak)
    }

    /// Relative DRAM requirement (1.0 = no savings, lower is better), as
    /// [`required_dram_fraction`] computes it.
    pub fn required_dram_fraction(&self) -> f64 {
        required_dram_fraction(self.sum_total_peaks, self.sum_host_pool_peaks, self.pool_peak)
    }

    /// DRAM savings relative to the pool-less baseline.
    pub fn dram_savings_fraction(&self) -> f64 {
        1.0 - self.required_dram_fraction()
    }

    /// Fraction of VM memory GiB-hours served from the pool.
    pub fn pool_dram_fraction(&self) -> f64 {
        if self.total_gib_hours == 0.0 {
            0.0
        } else {
            self.pool_gib_hours / self.total_gib_hours
        }
    }

    /// Fraction of scheduled VMs whose slowdown exceeded the PDM.
    pub fn violation_fraction(&self) -> f64 {
        if self.scheduled_vms == 0 {
            0.0
        } else {
            self.violations as f64 / self.scheduled_vms as f64
        }
    }

    /// Fraction of scheduled VMs the QoS monitor reconfigured.
    pub fn mitigation_rate(&self) -> f64 {
        if self.scheduled_vms == 0 {
            0.0
        } else {
            self.mitigations as f64 / self.scheduled_vms as f64
        }
    }

    /// Availability through the replay's failure drill: the fraction of
    /// scheduled VMs that were *not* killed by a memory-device failure
    /// (1.0 when nothing was scheduled or no drill ran). This is the §4.1
    /// blast-radius argument made measurable: pooling bounds how many VMs
    /// one EMC can take down, and pod overlap bounds how many of those
    /// actually die rather than migrate.
    pub fn availability(&self) -> f64 {
        if self.scheduled_vms == 0 {
            1.0
        } else {
            1.0 - self.vms_killed as f64 / self.scheduled_vms as f64
        }
    }

    /// Fraction of failure-affected VMs that survived by migrating
    /// (1.0 when no VM was ever affected).
    pub fn survival_rate(&self) -> f64 {
        let affected = self.vms_migrated + self.vms_killed;
        if affected == 0 {
            1.0
        } else {
            self.vms_migrated as f64 / affected as f64
        }
    }

    /// Adds another outcome's tallies into this one, field by field — the
    /// multi-pool replay builds its fleet aggregate by absorbing every
    /// per-group outcome. Lives next to the struct (and destructures it) so
    /// a future field cannot be silently dropped from the aggregate. The
    /// two non-additive fields are overwritten by the caller afterwards:
    /// `qos_passes` counts shared snapshot ticks once per tick, and
    /// `peak_degraded_vms` is a fleet-wide peak, not a sum of per-group
    /// peaks.
    pub(crate) fn absorb(&mut self, other: &FleetOutcome) {
        let FleetOutcome {
            scheduled_vms,
            rejected_vms,
            fallback_all_local,
            violations,
            mitigations,
            mitigation_copy_time,
            reconfig_completions,
            peak_degraded_vms,
            qos_passes,
            releases_completed,
            emc_failures,
            vms_migrated,
            vms_killed,
            migration_completions,
            evacuation_copy_time,
            vms_drained,
            vms_rebalanced,
            emcs_repaired,
            groups_decommissioned,
            groups_expanded,
            pooled_host_count,
            sum_local_peaks,
            sum_host_pool_peaks,
            sum_total_peaks,
            pool_peak,
            pool_gib_hours,
            total_gib_hours,
            vms_borrowed,
            borrowed_gib_hours,
        } = other;
        self.scheduled_vms += scheduled_vms;
        self.rejected_vms += rejected_vms;
        self.fallback_all_local += fallback_all_local;
        self.violations += violations;
        self.mitigations += mitigations;
        self.mitigation_copy_time += *mitigation_copy_time;
        self.reconfig_completions += reconfig_completions;
        self.peak_degraded_vms += peak_degraded_vms;
        self.qos_passes += qos_passes;
        self.releases_completed += releases_completed;
        self.emc_failures += emc_failures;
        self.vms_migrated += vms_migrated;
        self.vms_killed += vms_killed;
        self.migration_completions += migration_completions;
        self.evacuation_copy_time += *evacuation_copy_time;
        self.vms_drained += vms_drained;
        self.vms_rebalanced += vms_rebalanced;
        self.emcs_repaired += emcs_repaired;
        self.groups_decommissioned += groups_decommissioned;
        self.groups_expanded += groups_expanded;
        self.pooled_host_count += pooled_host_count;
        self.sum_local_peaks += *sum_local_peaks;
        self.sum_host_pool_peaks += *sum_host_pool_peaks;
        self.sum_total_peaks += *sum_total_peaks;
        self.pool_peak += *pool_peak;
        self.pool_gib_hours += pool_gib_hours;
        self.total_gib_hours += total_gib_hours;
        self.vms_borrowed += vms_borrowed;
        self.borrowed_gib_hours += borrowed_gib_hours;
    }
}

/// The stable human-readable block every fig bin prints for a headline
/// outcome: one aligned two-column summary, availability and survival as
/// percentages, DRAM in `Bytes` units. Scripts that scrape it can rely on
/// the `label value` shape of each column; new rows may be appended but
/// existing ones keep their labels.
impl std::fmt::Display for FleetOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pct = |fraction: f64| format!("{:.2}%", fraction * 100.0);
        let rows: [(&str, String, &str, String); 10] = [
            (
                "scheduled",
                self.scheduled_vms.to_string(),
                "rejected",
                self.rejected_vms.to_string(),
            ),
            ("availability", pct(self.availability()), "survival", pct(self.survival_rate())),
            (
                "dram savings",
                pct(self.dram_savings_fraction()),
                "pool share",
                pct(self.pool_dram_fraction()),
            ),
            (
                "required dram",
                self.required_dram().to_string(),
                "baseline dram",
                self.baseline_dram().to_string(),
            ),
            (
                "fallbacks",
                self.fallback_all_local.to_string(),
                "violations",
                self.violations.to_string(),
            ),
            (
                "mitigations",
                self.mitigations.to_string(),
                "mitigation copy",
                format!("{}s", self.mitigation_copy_time.as_secs()),
            ),
            (
                "emc failures",
                self.emc_failures.to_string(),
                "emcs repaired",
                self.emcs_repaired.to_string(),
            ),
            (
                "migrated/killed",
                format!("{}/{}", self.vms_migrated, self.vms_killed),
                "drained/rebalanced",
                format!("{}/{}", self.vms_drained, self.vms_rebalanced),
            ),
            (
                "decommissions",
                self.groups_decommissioned.to_string(),
                "expansions",
                self.groups_expanded.to_string(),
            ),
            (
                "borrowed vms",
                self.vms_borrowed.to_string(),
                "borrowed gib-h",
                format!("{:.1}", self.borrowed_gib_hours),
            ),
        ];
        for (i, (left, lv, right, rv)) in rows.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "  {left:<16} {lv:>12}    {right:<18} {rv:>12}")?;
        }
        Ok(())
    }
}

/// Event times are whole seconds; releases and reconfiguration copies
/// complete at millisecond granularity, so their events land on the next
/// whole second. Shared by the replay engine in [`crate::multipool`] and
/// [`run_fleet_reference`], which must round identically for the oracle
/// comparison to hold.
pub(crate) fn ceil_secs(duration: Duration) -> u64 {
    duration.as_secs() + u64::from(duration.subsec_nanos() > 0)
}

/// Decrements an in-flight event counter that a completion event just
/// closed. A double decrement means a completion was attributed to the
/// wrong group (or delivered twice) — that must fail loudly in debug builds
/// instead of being masked by saturation; release builds still saturate
/// rather than wrap. Shared by the replay engine and
/// [`run_fleet_reference`].
pub(crate) fn checked_decrement(counter: &mut u64, what: &str) {
    debug_assert!(*counter > 0, "double decrement of {what}: a completion event was misattributed");
    *counter = counter.saturating_sub(1);
}

/// The per-event outcome accounting shared by the replay engine
/// ([`crate::multipool`]) and the oracle [`run_fleet_reference`]: both
/// charge placements and mitigations through these helpers, so the oracle
/// checks the event core and bookkeeping, not a second copy of the
/// accounting rules.
#[derive(Debug)]
pub(crate) struct ReplayAccounting {
    scenario: cxl_hw::latency::LatencyScenario,
    pdm: f64,
    spill: SpillModel,
}

impl ReplayAccounting {
    pub(crate) fn new(config: &crate::control_plane::ControlPlaneConfig) -> Self {
        ReplayAccounting {
            scenario: config.policy.scenario,
            pdm: config.policy.pdm,
            spill: SpillModel::default(),
        }
    }

    /// Charges one successful placement: the ground-truth QoS outcome (via
    /// the same spill model the cluster simulator uses) and the GiB-hour
    /// accounting. `workload` is the request's profile as the placing
    /// plane's policy reads it from its shared suite
    /// (`PondPolicy::workload`).
    pub(crate) fn record_placement(
        &self,
        outcome: &mut FleetOutcome,
        request: &cluster_sim::trace::VmRequest,
        workload: &WorkloadProfile,
        summary: &crate::control_plane::PlacementSummary,
    ) {
        outcome.scheduled_vms += 1;
        outcome.fallback_all_local += u64::from(summary.fallback_all_local);

        let fraction = SpillModel::spill_fraction(request.touched_memory(), summary.local);
        let slowdown = self.spill.spill_slowdown(workload, self.scenario, fraction);
        outcome.violations += u64::from(slowdown > self.pdm);

        let hours = request.lifetime as f64 / 3600.0;
        outcome.pool_gib_hours += summary.pool.as_gib_f64() * hours;
        outcome.total_gib_hours += request.memory.as_gib_f64() * hours;
    }

    /// Charges one QoS pass: mitigation counters, the degraded-mode window
    /// (each copy completion becomes a first-class event so snapshots
    /// observe the window, not just the accumulated total), the release of
    /// the freed slices, and the GiB-hour take-back for the pool time the
    /// mitigated VMs will no longer serve. `schedule` must queue the
    /// completion of the given kind at the given time (and may attribute
    /// it) — taking a closure rather than a queue lets every replay variant,
    /// whichever queue it runs on, share this accounting.
    pub(crate) fn record_qos_pass(
        &self,
        outcome: &mut FleetOutcome,
        pass: crate::control_plane::QosPassReport,
        time: u64,
        degraded: &mut u64,
        mut schedule: impl FnMut(CompletionKind, u64),
    ) {
        outcome.mitigations += pass.reconfigured;
        outcome.mitigation_copy_time += pass.copy_time;
        outcome.qos_passes += 1;
        for mitigation in pass.mitigated {
            schedule(CompletionKind::Reconfig, ceil_secs(mitigation.copy_done));
            *degraded += 1;
            outcome.peak_degraded_vms = outcome.peak_degraded_vms.max(*degraded);
            if let Some(ready) = mitigation.release_ready {
                schedule(CompletionKind::Release, ceil_secs(ready));
            }
            // The VM was charged for its whole lifetime at arrival; take
            // back the pool GiB-hours it will no longer serve.
            let remaining = mitigation.departure.saturating_sub(time);
            outcome.pool_gib_hours -= mitigation.moved.as_gib_f64() * remaining as f64 / 3600.0;
        }
    }
}

/// Tracks one plane's provisioning peaks after an event by scanning every
/// host — the pre-refactor O(hosts)-per-event accounting, retained for the
/// reference replay that anchors the equivalence tests and the throughput
/// bench.
fn track_peaks(
    plane: &PondControlPlane,
    outcome: &mut FleetOutcome,
    peak_local: &mut [Bytes],
    peak_host_pool: &mut [Bytes],
    peak_total: &mut [Bytes],
) {
    for (i, host) in plane.hosts().iter().enumerate() {
        let local = host.local_allocated();
        let host_pool = host.pool_allocated();
        peak_local[i] = peak_local[i].max(local);
        peak_host_pool[i] = peak_host_pool[i].max(host_pool);
        peak_total[i] = peak_total[i].max(local + host_pool);
    }
    outcome.pool_peak = outcome.pool_peak.max(plane.pool().pool().assigned_capacity());
}

/// The pre-refactor single-pool replay loop, retained as the oracle for the
/// replay engine: the heap-per-class [`ReferenceEventQueue`], a full host scan
/// after every event, and hash-map bookkeeping. The equivalence tests
/// assert that the engine's one-group `.fleet` matches it bit for bit, and
/// the throughput bench measures the engine's speedup against it.
///
/// It models one plain pool: `config` must be one group with no failure
/// drill, lifecycle plan or rebalance spec (with one group, the pod style,
/// the scheduler and borrowing change nothing). It replays `config.control`
/// as given, where the engine floors the pool to whole 1 GiB slices.
///
/// # Errors
///
/// * [`PondError::InvalidConfig`] for any other config, which this loop
///   would otherwise replay as if the parts it does not model were absent.
/// * [`PondError::TraceStream`] for a request that fails
///   [`VmRequest::validate`](cluster_sim::trace::VmRequest::validate), as
///   the engine refuses it.
/// * Control-plane construction failures, and any error other than the
///   expected placement failures (`NoFeasibleHost`, and `PoolExhausted`
///   when the all-local fallback is off).
pub fn run_fleet_reference(
    trace: &ClusterTrace,
    config: &MultiPoolConfig,
    policy: PondPolicy,
) -> Result<FleetOutcome, PondError> {
    let unmodeled = [
        (config.groups != 1, "a group count other than one"),
        (config.drill.is_some(), "a failure drill"),
        (config.lifecycle.is_some(), "a lifecycle plan"),
        (config.rebalance.is_some(), "a rebalance spec"),
    ];
    if let Some((_, part)) = unmodeled.iter().find(|(present, _)| *present) {
        let detail = format!("the reference replay models one plain pool, not {part}");
        return Err(PondError::InvalidConfig { detail });
    }
    let mut plane = PondControlPlane::with_policy(config.control.clone(), policy)?;
    let accounting = ReplayAccounting::new(&config.control);

    let hosts = plane.hosts().len();
    let mut peak_local = vec![Bytes::ZERO; hosts];
    let mut peak_host_pool = vec![Bytes::ZERO; hosts];
    let mut peak_total = vec![Bytes::ZERO; hosts];
    let mut outcome = FleetOutcome::default();
    let mut placed: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut pooled_hosts: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut degraded: u64 = 0;

    let mut events = ReferenceEventQueue::new(trace, config.qos_interval);
    while let Some(event) = events.next_event() {
        let now = Duration::from_secs(event.time());
        match event {
            Event::Arrival { request_index, .. } => {
                let request = &trace.requests[request_index];
                request.validate().map_err(PondError::TraceStream)?;
                match plane.handle_request(request, now) {
                    Ok(summary) => {
                        let workload = plane.policy().workload(request.workload_index);
                        accounting.record_placement(&mut outcome, request, workload, &summary);
                        if !summary.pool.is_zero() {
                            pooled_hosts.insert(summary.host);
                        }
                        placed.insert(request_index);
                        events.schedule_departure(
                            request.departure(),
                            request_index as u64,
                            request_index,
                        );
                    }
                    Err(PondError::NoFeasibleHost { .. })
                    | Err(PondError::PoolExhausted { .. }) => {
                        outcome.rejected_vms += 1;
                    }
                    Err(other) => return Err(other),
                }
            }
            Event::Departure { token: request_index, .. } => {
                if placed.remove(&request_index) {
                    let vm = VmId(trace.requests[request_index].id);
                    if let Some(ready) = plane.handle_departure_split(vm, now)?.release_ready {
                        events.schedule_completion(ceil_secs(ready), CompletionKind::Release, 0);
                    }
                }
            }
            Event::Completion { kind: CompletionKind::Release, .. } => {
                plane.complete_releases(now);
                outcome.releases_completed += 1;
            }
            Event::Completion { kind: CompletionKind::Reconfig, .. } => {
                checked_decrement(&mut degraded, "in-flight mitigation copies");
                outcome.reconfig_completions += 1;
            }
            Event::Completion { kind: CompletionKind::Migration, .. } | Event::Lifecycle { .. } => {
                unreachable!("run_fleet_reference schedules no failure-drill or lifecycle events")
            }
            Event::Snapshot { time } => {
                let pass = plane.run_qos_pass(now)?;
                accounting.record_qos_pass(&mut outcome, pass, time, &mut degraded, |kind, at| {
                    events.schedule_completion(at, kind, 0)
                });
            }
        }

        track_peaks(&plane, &mut outcome, &mut peak_local, &mut peak_host_pool, &mut peak_total);

        #[cfg(debug_assertions)]
        plane.assert_pool_conserved();
    }

    debug_assert_eq!(plane.running_vms(), 0, "every placed VM must have departed");
    debug_assert!(
        plane.pool().pending_release().is_zero(),
        "every release event must have been delivered and processed"
    );
    debug_assert_eq!(degraded, 0, "every mitigation copy must have completed as an event");
    debug_assert_eq!(
        outcome.reconfig_completions, outcome.mitigations,
        "one Reconfig completion per mitigation"
    );

    outcome.pooled_host_count = pooled_hosts.len() as u64;
    outcome.sum_local_peaks = peak_local.iter().copied().sum();
    outcome.sum_host_pool_peaks = peak_host_pool.iter().copied().sum();
    outcome.sum_total_peaks = peak_total.iter().copied().sum();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multipool::{
        multipool_sweep, run_multipool_fleet, run_multipool_source, DrillKind, FailureDrillSpec,
        GroupSchedulerKind, LifecyclePlan, RebalanceSpec,
    };
    use cluster_sim::source::TraceCursor;
    use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
    use cxl_hw::topology::PodStyle;

    fn small_trace() -> ClusterTrace {
        TraceGenerator::new(ClusterConfig::small(), 1).generate(0)
    }

    /// The single pool: one symmetric round-robin group sized to the trace.
    fn single_pool(trace: &ClusterTrace, pool_fraction: f64) -> MultiPoolConfig {
        let scheduler = GroupSchedulerKind::RoundRobin;
        MultiPoolConfig::for_trace(trace, PodStyle::Symmetric, 1, pool_fraction, scheduler, 7)
    }

    /// The engine's single-pool outcome: the one group's fleet aggregate.
    fn replay(trace: &ClusterTrace, config: &MultiPoolConfig) -> Result<FleetOutcome, PondError> {
        Ok(run_multipool_fleet(trace, config)?.fleet)
    }

    /// The oracle, with the policy the engine trains for the same config.
    fn reference(
        trace: &ClusterTrace,
        config: &MultiPoolConfig,
    ) -> Result<FleetOutcome, PondError> {
        let policy = PondPolicy::train(trace, &config.control.policy, config.seed);
        run_fleet_reference(trace, config, policy)
    }

    #[test]
    fn optimized_replay_matches_the_reference_replay_bit_for_bit() {
        let trace = small_trace();
        // Pool sizes spanning heavy mitigation traffic (tiny) to none; with
        // the all-local fallback off, both replays must reject the same
        // pool-exhausted VMs instead of placing them.
        for fallback in [true, false] {
            for fraction in [0.02, 0.20, 0.40] {
                let mut config = single_pool(&trace, fraction);
                config.control.fallback_all_local = fallback;
                let optimized = replay(&trace, &config).unwrap();
                let reference = reference(&trace, &config).unwrap();
                assert_eq!(optimized, reference, "pool fraction {fraction}, fallback {fallback}");
            }
        }
    }

    #[test]
    fn the_reference_refuses_the_config_it_does_not_model() {
        // Each config below would replay as a plain single pool if the
        // oracle ignored the part it does not model, so a comparison with
        // the engine would test nothing; it must refuse instead.
        let trace = small_trace();
        let plain = single_pool(&trace, 0.20);
        let policy = PondPolicy::train(&trace, &plain.control.policy, plain.seed);
        let drill = FailureDrillSpec { rate_per_day: 1.0, kind: DrillKind::Emc, seed: 3 };
        let rebalance = RebalanceSpec { starved_fraction: 0.1, max_moves_per_pass: 2 };
        let two_groups = MultiPoolConfig { groups: 2, ..plain.clone() };
        for config in [
            two_groups,
            plain.clone().with_drill(drill),
            plain.clone().with_lifecycle(LifecyclePlan::default()),
            plain.clone().with_rebalance(rebalance),
        ] {
            let err = run_fleet_reference(&trace, &config, policy.clone()).unwrap_err();
            assert!(matches!(err, PondError::InvalidConfig { .. }), "{config:?}: {err:?}");
        }
        assert!(run_fleet_reference(&trace, &plain, policy).is_ok());
    }

    #[test]
    fn the_replay_pool_is_whole_slices() {
        let trace = small_trace();
        let whole = single_pool(&trace, 0.20);
        // A fractional pool replays as its floor, exactly as the reference
        // replays the floored pool.
        let mut fractional = whole.clone();
        fractional.control.pool_capacity = whole.control.pool_capacity + Bytes::from_mib(512);
        assert_eq!(replay(&trace, &fractional).unwrap(), reference(&trace, &whole).unwrap());
        // A pool below one slice is not a pool the replay can build.
        for below_one_slice in [Bytes::ZERO, Bytes::from_mib(512)] {
            let mut config = whole.clone();
            config.control.pool_capacity = below_one_slice;
            let err = replay(&trace, &config).unwrap_err();
            assert!(
                matches!(err, PondError::Hardware(cxl_hw::CxlError::InvalidGroupTopology { .. })),
                "{below_one_slice:?}: {err:?}"
            );
        }
    }

    #[test]
    fn a_lazily_generated_stream_replays_like_its_materialized_trace() {
        // The generator's lazy source and its materialized trace are the
        // same request stream, so training from the stream prefix and
        // replaying the stream must reproduce the trace replay — the whole
        // point of the bounded-memory path.
        let generator = TraceGenerator::new(ClusterConfig::small(), 1);
        let trace = generator.generate(0);
        let config = MultiPoolConfig::for_header(
            &cluster_sim::TraceHeader::of_trace(&trace),
            PodStyle::Symmetric,
            1,
            0.20,
            GroupSchedulerKind::RoundRobin,
            7,
        );
        assert_eq!(config, single_pool(&trace, 0.20));

        let materialized = replay(&trace, &config).unwrap();
        let policy =
            PondPolicy::train_source(|| generator.stream(0), &config.control.policy, config.seed)
                .unwrap();
        let streamed = run_multipool_source(generator.stream(0), &config, policy).unwrap();
        assert_eq!(streamed.fleet, materialized);
    }

    #[test]
    fn a_failing_source_surfaces_a_trace_stream_error() {
        // Truncate the stream contract: arrivals out of order make the
        // validated wrapper fail mid-replay, which must surface as an error
        // instead of silently ending the replay.
        let mut trace = small_trace();
        // The initial population all arrives at t=0, so swap in the final
        // arrival up front to guarantee a genuine order violation.
        let last = trace.requests.len() - 1;
        trace.requests.swap(0, last);
        let config = single_pool(&trace, 0.20);
        let policy = PondPolicy::train(&trace, &config.control.policy, config.seed);
        let err = run_multipool_source(
            cluster_sim::Validated::new(TraceCursor::new(&trace)),
            &config,
            policy,
        )
        .unwrap_err();
        assert!(
            matches!(&err, PondError::TraceStream(detail) if detail.contains("before the previous")),
            "{err:?}"
        );
    }

    #[test]
    fn the_source_sweep_matches_the_materialized_sweep() {
        // Two single-pool cells and a borrowing four-pod Octopus cell, whose
        // tiny pools push VMs onto the borrowed rung: streaming every cell
        // must reproduce the materialized replays, and a single-pool cell's
        // fleet aggregate is the independent reference loop's outcome.
        let generator = TraceGenerator::new(ClusterConfig::small(), 1);
        let trace = generator.generate(0);
        let mut configs: Vec<MultiPoolConfig> =
            [0.05, 0.20].iter().map(|&f| single_pool(&trace, f)).collect();
        let mut octopus = MultiPoolConfig::for_trace(
            &trace,
            PodStyle::Octopus,
            4,
            0.20,
            GroupSchedulerKind::RoundRobin,
            7,
        )
        .with_borrowing(true);
        octopus.control.pool_capacity = Bytes::from_gib(16);
        configs.push(octopus);

        let streamed = multipool_sweep(|| generator.stream(0), &configs).unwrap();
        let materialized: Vec<_> =
            configs.iter().map(|config| run_multipool_fleet(&trace, config).unwrap()).collect();
        assert_eq!(streamed, materialized);
        for (config, outcome) in configs.iter().zip(&streamed).take(2) {
            assert_eq!(outcome.fleet, reference(&trace, config).unwrap());
        }
        assert!(streamed[2].fleet.vms_borrowed > 0, "{:?}", streamed[2]);
    }

    #[test]
    fn fleet_replay_places_most_vms_and_uses_the_pool() {
        let trace = small_trace();
        let outcome = replay(&trace, &single_pool(&trace, 0.20)).unwrap();
        assert!(outcome.scheduled_vms > 0);
        assert!(
            outcome.scheduled_vms >= 9 * (outcome.scheduled_vms + outcome.rejected_vms) / 10,
            "a fleet-sized control plane should place nearly everything: {outcome:?}"
        );
        assert!(outcome.pool_dram_fraction() > 0.0, "Pond must put memory on the pool");
        assert!(outcome.pool_peak > Bytes::ZERO);
        assert!(outcome.releases_completed > 0, "offlining completions must be events");
        assert!(outcome.qos_passes > 0);
        // The accounting identity behind the savings number.
        assert_eq!(
            outcome.required_dram(),
            outcome
                .sum_total_peaks
                .saturating_sub(outcome.sum_host_pool_peaks.saturating_sub(outcome.pool_peak))
        );
    }

    #[test]
    fn bigger_pools_never_hurt_savings_on_the_same_trace() {
        let trace = small_trace();
        let outcomes: Vec<FleetOutcome> = [0.05, 0.20, 0.40]
            .iter()
            .map(|&f| replay(&trace, &single_pool(&trace, f)).unwrap())
            .collect();
        for pair in outcomes.windows(2) {
            assert!(
                pair[1].dram_savings_fraction() >= pair[0].dram_savings_fraction() - 1e-9,
                "savings must not shrink with pool capacity: {outcomes:?}"
            );
        }
    }

    #[test]
    fn tiny_pools_force_all_local_fallbacks() {
        let trace = small_trace();
        let outcome = replay(&trace, &single_pool(&trace, 0.001)).unwrap();
        assert!(outcome.fallback_all_local > 0, "a ~1 GiB pool cannot serve every prediction");
        // Fallbacks keep savings near zero but never fail the placement for
        // pool reasons; any rejections left are hosts out of local DRAM.
        assert!(outcome.dram_savings_fraction() < 0.02);
    }

    #[test]
    fn qos_interval_zero_disables_monitoring() {
        let trace = small_trace();
        let mut config = single_pool(&trace, 0.20);
        config.qos_interval = 0;
        let outcome = replay(&trace, &config).unwrap();
        assert_eq!(outcome.qos_passes, 0);
        assert_eq!(outcome.mitigations, 0);
        assert_eq!(outcome.mitigation_copy_time, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "pool fraction")]
    fn invalid_pool_fraction_rejected() {
        let _ = single_pool(&small_trace(), 1.5);
    }

    #[test]
    fn outcome_display_is_a_stable_aligned_block() {
        let outcome = FleetOutcome {
            scheduled_vms: 1000,
            rejected_vms: 10,
            vms_migrated: 30,
            vms_killed: 10,
            sum_total_peaks: Bytes::from_gib(1000),
            sum_host_pool_peaks: Bytes::from_gib(300),
            pool_peak: Bytes::from_gib(100),
            ..FleetOutcome::default()
        };
        let block = outcome.to_string();
        let lines: Vec<&str> = block.lines().collect();
        assert_eq!(lines.len(), 10, "{block}");
        assert!(lines[0].contains("scheduled") && lines[0].contains("1000"), "{block}");
        assert!(lines[1].contains("availability") && lines[1].contains("99.00%"), "{block}");
        assert!(lines[1].contains("survival") && lines[1].contains("75.00%"), "{block}");
        assert!(lines[2].contains("dram savings") && lines[2].contains("20.00%"), "{block}");
        assert!(lines[3].contains("800 GiB") && lines[3].contains("1000 GiB"), "{block}");
        assert!(!block.ends_with('\n'), "no trailing newline: callers println! the block");
        // Every row shares the same aligned shape.
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(widths.iter().all(|&w| w == widths[0]), "{block}");
    }
}
