//! The replay-observer contract: the hooks the fleet replay loops call and
//! the structured payloads they pass.
//!
//! Observers are strictly read-only with respect to the replay: every hook
//! receives shared references (or `Copy` values) derived from replay state
//! and returns nothing, so wiring any observer into a replay cannot change
//! its outcome. [`NullObserver`] additionally sets
//! [`ReplayObserver::ENABLED`] to `false`, letting the replay loops skip
//! payload construction entirely at compile time — the unobserved replay
//! monomorphizes to the pre-observability loop.

use cluster_sim::event::{CompletionKind, Event, LifecycleKind};
use cluster_sim::pooling::required_dram_fraction;
use cxl_hw::pool::GroupState;
use cxl_hw::units::Bytes;
use std::time::Duration;

use crate::registry::MetricsRegistry;

/// A stable lowercase name for an event's class (a lifecycle operation or
/// completion by its kind), for counter keys and the structured event log.
pub fn event_class(event: &Event) -> &'static str {
    match event {
        Event::Lifecycle { kind, .. } => match kind {
            LifecycleKind::EmcFailure => "emc_failure",
            LifecycleKind::EmcRepair => "emc_repair",
            LifecycleKind::Decommission => "decommission",
            LifecycleKind::Expansion => "expansion",
        },
        Event::Departure { .. } => "departure",
        Event::Completion { kind, .. } => match kind {
            CompletionKind::Release => "release",
            CompletionKind::Reconfig => "reconfig_done",
            CompletionKind::Migration => "migration_done",
        },
        Event::Snapshot { .. } => "snapshot",
        Event::Arrival { .. } => "arrival",
    }
}

/// Which rung of the placement ladder a VM request landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderRung {
    /// Placed pooled (zNUMA or all-local-by-policy) on the home group.
    PooledHome,
    /// Placed on a home-group host with pool slices *borrowed* from a
    /// reachable neighbor's pool (split host/slice ownership): the VM keeps
    /// its compute locality and only its memory crosses the pod boundary.
    BorrowedNeighbor,
    /// Placed pooled on a reachable neighbor group after the home group
    /// could not hold the request.
    PooledNeighbor,
    /// Placed all-local on the home group because no pooled rung held.
    AllLocalHome,
    /// Placed all-local on a neighbor group — the last rung before
    /// rejection.
    AllLocalNeighbor,
    /// No rung held: the request was rejected.
    Rejected,
}

impl LadderRung {
    /// Stable lowercase name for counter keys and the event log.
    pub fn name(self) -> &'static str {
        match self {
            LadderRung::PooledHome => "pooled_home",
            LadderRung::BorrowedNeighbor => "borrowed_neighbor",
            LadderRung::PooledNeighbor => "pooled_neighbor",
            LadderRung::AllLocalHome => "all_local_home",
            LadderRung::AllLocalNeighbor => "all_local_neighbor",
            LadderRung::Rejected => "rejected",
        }
    }
}

/// Why a placement fell past the preferred rung (pooled on the home group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// It did not fall: the preferred rung held.
    None,
    /// The home group's pool (or hosts) could not hold the request pooled;
    /// a neighbor group took it pooled instead.
    HomePoolFull,
    /// Every reachable pooled rung was exhausted; the request fell back to
    /// an all-local placement.
    PoolRungsExhausted,
    /// No rung on any reachable group held the request.
    NoRungHeld,
    /// No pool group was online to even try.
    NoOnlineGroup,
}

impl FallbackReason {
    /// Stable lowercase name for counter keys and the event log.
    pub fn name(self) -> &'static str {
        match self {
            FallbackReason::None => "none",
            FallbackReason::HomePoolFull => "home_pool_full",
            FallbackReason::PoolRungsExhausted => "pool_rungs_exhausted",
            FallbackReason::NoRungHeld => "no_rung_held",
            FallbackReason::NoOnlineGroup => "no_online_group",
        }
    }
}

/// One placement-ladder decision: where a VM request landed and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionTrace {
    /// Simulated arrival time in seconds since trace start.
    pub time: u64,
    /// The raw VM identity (`VmId.0`) the control plane assigned, when the
    /// request was placed; rejected requests carry `None`.
    pub vm: Option<u64>,
    /// The scheduler's home group for the request.
    pub home_group: usize,
    /// The group that actually took the request (`None` when rejected).
    pub group: Option<usize>,
    /// The ladder rung the request landed on.
    pub rung: LadderRung,
    /// Why the request fell past the preferred rung, if it did.
    pub reason: FallbackReason,
    /// Requested memory footprint.
    pub memory: Bytes,
    /// Requested lifetime in seconds.
    pub lifetime: u64,
}

/// One QoS-mitigation pass over a group's hosts at a snapshot tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosPassTrace {
    /// Simulated pass time in seconds since trace start.
    pub time: u64,
    /// The pool group the pass swept.
    pub group: usize,
    /// VMs reconfigured (pool slices pulled back to local DRAM).
    pub reconfigured: u64,
    /// Total memory-copy time charged by the pass.
    pub copy_time: Duration,
}

/// What kind of lifecycle operation fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleOpKind {
    /// A pooled memory device died.
    EmcFailure {
        /// VMs whose pool slices lived on the failed device.
        affected: u64,
    },
    /// A failed pooled memory device returned to service.
    EmcRepair {
        /// Capacity restored to the pool.
        restored: Bytes,
    },
    /// A group began a graceful decommission drain.
    DecommissionStarted {
        /// VMs running on the group when the drain began.
        running: u64,
    },
    /// A draining group's last VM left; the group is decommissioned.
    DecommissionComplete,
    /// A group gained live capacity.
    Expansion {
        /// Capacity added to the pool.
        capacity: Bytes,
    },
    /// A VM displaced by a failure was evacuated (or killed when `dest` is
    /// `None`).
    VmEvacuated {
        /// Destination group, `None` when no rung held and the VM died.
        dest: Option<usize>,
        /// Memory-copy time charged for the migration (zero when killed).
        copy: Duration,
    },
    /// A VM was drained off a decommissioning group (killed when `dest` is
    /// `None` — which the drain contract forbids, so a `None` here is a
    /// replay bug surfaced by observability).
    VmDrained {
        /// Destination group.
        dest: Option<usize>,
        /// Memory-copy time charged for the migration.
        copy: Duration,
    },
    /// A VM was moved off a starved group by the snapshot-tick rebalancer.
    VmRebalanced {
        /// Destination group.
        dest: usize,
        /// Memory-copy time charged for the migration.
        copy: Duration,
    },
}

impl LifecycleOpKind {
    /// Stable lowercase name for counter keys and the event log.
    pub fn name(self) -> &'static str {
        match self {
            LifecycleOpKind::EmcFailure { .. } => "emc_failure",
            LifecycleOpKind::EmcRepair { .. } => "emc_repair",
            LifecycleOpKind::DecommissionStarted { .. } => "decommission_started",
            LifecycleOpKind::DecommissionComplete => "decommission_complete",
            LifecycleOpKind::Expansion { .. } => "expansion",
            LifecycleOpKind::VmEvacuated { .. } => "vm_evacuated",
            LifecycleOpKind::VmDrained { .. } => "vm_drained",
            LifecycleOpKind::VmRebalanced { .. } => "vm_rebalanced",
        }
    }
}

/// One lifecycle operation: a failure, repair, decommission step,
/// expansion, or displaced-VM move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleTrace {
    /// Simulated operation time in seconds since trace start.
    pub time: u64,
    /// The pool group the operation acted on (the *source* group for VM
    /// moves).
    pub group: usize,
    /// What happened.
    pub kind: LifecycleOpKind,
}

/// A per-group sample taken at a snapshot tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupSample {
    /// The pool group sampled.
    pub group: usize,
    /// The group's lifecycle state.
    pub state: GroupState,
    /// Pool capacity free for new placements.
    pub pool_free: Bytes,
    /// Pool capacity stuck offlining (pending asynchronous release).
    pub pool_offlining: Bytes,
    /// Pool capacity pinned by QoS mitigations awaiting release.
    pub pool_pinned: Bytes,
    /// Pool capacity currently live (online devices).
    pub pool_live: Bytes,
    /// Pool capacity this group has *lent* to VMs homed in other pods
    /// (cross-pod slice borrowing; counted inside the lender's ledger).
    pub pool_lent: Bytes,
    /// Pool capacity VMs homed on this group hold *borrowed* from other
    /// pods' pools (counted inside the lenders' ledgers, not this one).
    pub pool_borrowed: Bytes,
    /// VMs running on the group right now.
    pub running_vms: u64,
    /// VMs the group has scheduled since trace start.
    pub scheduled_vms: u64,
    /// VMs killed on the group since trace start.
    pub vms_killed: u64,
    /// Sum of per-VM `max(local, local+pool)` peaks — the no-pooling DRAM
    /// baseline accumulated so far.
    pub sum_total_peaks: Bytes,
    /// Sum of per-VM host-pool peaks accumulated so far.
    pub sum_host_pool_peaks: Bytes,
    /// Peak simultaneous pool usage observed so far.
    pub pool_peak: Bytes,
}

impl GroupSample {
    /// Fraction of the VMs the group scheduled so far that were not killed
    /// (1.0 before any placement): the replay outcome's availability, over
    /// the replay so far.
    pub fn availability(&self) -> f64 {
        availability(self.scheduled_vms, self.vms_killed)
    }

    /// DRAM saved so far versus an all-local fleet: one minus
    /// [`required_dram_fraction`]. Zero before any placement.
    pub fn dram_savings_fraction(&self) -> f64 {
        1.0 - required_dram_fraction(self.sum_total_peaks, self.sum_host_pool_peaks, self.pool_peak)
    }

    /// Fraction of live pool capacity not free right now (zero for an
    /// empty/decommissioned pool).
    pub fn pool_occupancy_fraction(&self) -> f64 {
        let live = self.pool_live.as_u64();
        if live == 0 {
            return 0.0;
        }
        let used = live.saturating_sub(self.pool_free.as_u64());
        used as f64 / live as f64
    }
}

/// The share of `scheduled` VMs that were not `killed` (1.0 before any
/// placement), per group and fleet-wide.
pub(crate) fn availability(scheduled: u64, killed: u64) -> f64 {
    if scheduled == 0 {
        1.0
    } else {
        1.0 - killed as f64 / scheduled as f64
    }
}

/// The hook contract the replay loops call into.
///
/// Every hook has an empty default body, so observers implement only what
/// they consume. Hooks take `&mut self` (observers accumulate) but only
/// shared payloads — an observer cannot write back into the replay.
pub trait ReplayObserver {
    /// Compile-time switch: when `false` (only [`NullObserver`]), the
    /// replay loops skip payload construction entirely and monomorphize to
    /// the unobserved loop. Leave it `true` for real observers.
    const ENABLED: bool = true;

    /// Called for every event popped off the queue, before it is handled.
    fn on_event(&mut self, _event: &Event) {}

    /// Called for every placement-ladder decision (admitted or rejected).
    fn on_decision(&mut self, _decision: &DecisionTrace) {}

    /// Called for every per-group QoS-mitigation pass at a snapshot tick.
    fn on_qos_pass(&mut self, _pass: &QosPassTrace) {}

    /// Called for every lifecycle operation (failures, repairs,
    /// decommission steps, expansions, displaced-VM moves).
    fn on_lifecycle_op(&mut self, _op: &LifecycleTrace) {}

    /// Called once per snapshot tick, after the QoS passes and rebalance
    /// moves, with one sample per pool group.
    fn on_snapshot(&mut self, _time: u64, _groups: &[GroupSample]) {}
}

/// The do-nothing observer: disables every hook at compile time so the
/// unobserved replay pays nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl ReplayObserver for NullObserver {
    const ENABLED: bool = false;
}

/// Copy-time histogram edges in seconds: sub-second through half-day.
const COPY_SECS_BOUNDS: [u64; 8] = [1, 5, 15, 60, 300, 1800, 7200, 43_200];

/// VM-lifetime histogram edges in seconds: minute through quarter.
const LIFETIME_SECS_BOUNDS: [u64; 9] =
    [60, 600, 3600, 21_600, 86_400, 259_200, 604_800, 2_592_000, 7_776_000];

/// An observer that aggregates the replay's hooks into a
/// [`MetricsRegistry`]: event counts by class, ladder-rung and
/// fallback-reason hits per group, VM-lifetime and copy-time histograms, and
/// QoS and lifecycle counters. Per-snapshot pool state is
/// [`crate::TimeSeriesRecorder`]'s.
#[derive(Debug, Clone, Default)]
pub struct MetricsObserver {
    registry: MetricsRegistry,
}

impl MetricsObserver {
    /// A fresh observer over an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

impl ReplayObserver for MetricsObserver {
    fn on_event(&mut self, event: &Event) {
        self.registry.inc(&format!("events.{}", event_class(event)));
    }

    fn on_decision(&mut self, decision: &DecisionTrace) {
        self.registry.inc(&format!("ladder.group{}.{}", decision.home_group, decision.rung.name()));
        if decision.reason != FallbackReason::None {
            self.registry.inc(&format!("fallback.{}", decision.reason.name()));
        }
        if decision.group.is_some() {
            self.registry.observe("vm.lifetime_secs", &LIFETIME_SECS_BOUNDS, decision.lifetime);
        }
    }

    fn on_qos_pass(&mut self, pass: &QosPassTrace) {
        self.registry.inc(&format!("qos.group{}.passes", pass.group));
        self.registry.add(&format!("qos.group{}.reconfigured", pass.group), pass.reconfigured);
        if pass.reconfigured > 0 {
            self.registry.observe("qos.copy_secs", &COPY_SECS_BOUNDS, pass.copy_time.as_secs());
        }
    }

    fn on_lifecycle_op(&mut self, op: &LifecycleTrace) {
        // A repair of a healthy device restores nothing: count it apart so
        // `lifecycle.emc_repair` reconciles with the outcome's
        // `emcs_repaired` (which only counts effective repairs).
        if matches!(op.kind, LifecycleOpKind::EmcRepair { restored } if restored.is_zero()) {
            self.registry.inc("lifecycle.emc_repair_noop");
            return;
        }
        self.registry.inc(&format!("lifecycle.{}", op.kind.name()));
        match op.kind {
            LifecycleOpKind::VmEvacuated { dest: Some(_), copy }
            | LifecycleOpKind::VmDrained { dest: Some(_), copy }
            | LifecycleOpKind::VmRebalanced { copy, .. } => {
                self.registry.observe("migration.copy_secs", &COPY_SECS_BOUNDS, copy.as_secs());
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(LadderRung::PooledNeighbor.name(), "pooled_neighbor");
        assert_eq!(LadderRung::BorrowedNeighbor.name(), "borrowed_neighbor");
        assert_eq!(FallbackReason::NoOnlineGroup.name(), "no_online_group");
        assert_eq!(LifecycleOpKind::DecommissionComplete.name(), "decommission_complete");
        assert_eq!(event_class(&Event::Snapshot { time: 0 }), "snapshot");
        assert_eq!(event_class(&Event::Arrival { time: 3, request_index: 0 }), "arrival");
        let reconfig = Event::Completion { time: 0, kind: CompletionKind::Reconfig, group: 1 };
        assert_eq!(event_class(&reconfig), "reconfig_done");
        let drain = Event::Lifecycle { time: 0, kind: LifecycleKind::Decommission, index: 2 };
        assert_eq!(event_class(&drain), "decommission");
    }

    #[test]
    fn group_sample_derivations() {
        let sample = GroupSample {
            group: 0,
            state: GroupState::Online,
            pool_free: Bytes::from_gib(25),
            pool_offlining: Bytes::from_gib(0),
            pool_pinned: Bytes::from_gib(0),
            pool_live: Bytes::from_gib(100),
            pool_lent: Bytes::from_gib(0),
            pool_borrowed: Bytes::from_gib(0),
            running_vms: 10,
            scheduled_vms: 90,
            vms_killed: 9,
            sum_total_peaks: Bytes::from_gib(1000),
            sum_host_pool_peaks: Bytes::from_gib(300),
            pool_peak: Bytes::from_gib(100),
        };
        // 9 of 90 scheduled VMs killed.
        assert!((sample.availability() - 0.9).abs() < 1e-12);
        // required = 1000 - (300 - 100) = 800 → savings 0.2
        assert!((sample.dram_savings_fraction() - 0.2).abs() < 1e-12);
        assert!((sample.pool_occupancy_fraction() - 0.75).abs() < 1e-12);
        // A pool peak above the hosts' pool-peak sum gains nothing: the
        // requirement is the baseline, never more.
        let offlining = GroupSample { pool_peak: Bytes::from_gib(350), ..sample };
        assert_eq!(offlining.dram_savings_fraction(), 0.0);
        let empty = GroupSample { scheduled_vms: 0, vms_killed: 0, ..sample };
        assert_eq!(empty.availability(), 1.0);
    }

    #[test]
    fn metrics_observer_aggregates_hooks() {
        let mut observer = MetricsObserver::new();
        observer.on_event(&Event::Arrival { time: 0, request_index: 0 });
        observer.on_event(&Event::Arrival { time: 5, request_index: 1 });
        observer.on_event(&Event::Departure { time: 9, token: 0 });
        observer.on_decision(&DecisionTrace {
            time: 0,
            vm: Some(0),
            home_group: 1,
            group: Some(1),
            rung: LadderRung::PooledHome,
            reason: FallbackReason::None,
            memory: Bytes::from_gib(4),
            lifetime: 120,
        });
        observer.on_decision(&DecisionTrace {
            time: 5,
            vm: None,
            home_group: 1,
            group: None,
            rung: LadderRung::Rejected,
            reason: FallbackReason::NoRungHeld,
            memory: Bytes::from_gib(4),
            lifetime: 120,
        });
        let registry = observer.registry();
        assert_eq!(registry.counter("events.arrival"), 2);
        assert_eq!(registry.counter("events.departure"), 1);
        assert_eq!(registry.counter("ladder.group1.pooled_home"), 1);
        assert_eq!(registry.counter("ladder.group1.rejected"), 1);
        assert_eq!(registry.counter("fallback.no_rung_held"), 1);
        assert_eq!(registry.histogram("vm.lifetime_secs").unwrap().total(), 1);
    }
}
