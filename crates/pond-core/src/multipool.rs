//! The sharded multi-pool fleet: pool groups, pod topologies, and a
//! group-aware scheduler.
//!
//! Pond evaluates one pool per 8–64 sockets, but a real fleet is many pods,
//! and the DRAM savings depend on how hosts are *sharded* across pools, not
//! just on the pool size. This module shards a fleet into N pool groups —
//! each owning its own [`PondControlPlane`] (hosts + pool + QoS state) — on
//! top of a [`PoolGroupTopology`] built from `cxl_hw::topology`: symmetric
//! pods (every host reaches exactly its home pool) or Octopus-style sparse
//! rings (each pod's hosts also reach the next pod's pool).
//!
//! A [`GroupScheduler`] chooses a home group per arriving VM; placement then
//! runs a fixed fallback ladder over the home pod's *reachable* groups. Each
//! group plans the VM's pooled share once ([`PondControlPlane::plan_pooled`]),
//! and every rung commits through the one [`PondControlPlane::place`]:
//!
//! 1. **Pooled, home group** — the full Figure 13 prediction pipeline,
//!    committed with [`Backing::Own`].
//! 2. **Borrowed neighbour** (only with [`MultiPoolConfig::borrowing`] on) —
//!    *split ownership*: the VM's host stays in the home pod, but the home
//!    plan's pool slices are leased from a reachable lender pod's pool
//!    ([`PondControlPlane::lend`] on the lender, then [`Backing::Lease`] on
//!    the home plane). The lease
//!    consumes a real CXL port on the lender's EMCs through the synthetic
//!    cross-pod port id
//!    ([`PoolGroupTopology::borrow_port_host`]), and each ring hop adds the
//!    switch-stage latency [`PoolGroupTopology::borrow_added_latency`]
//!    models.
//! 3. **Pooled, reachable neighbours** — the re-homing fallback: the VM
//!    moves to the neighbouring pod entirely (its hosts and its pool).
//! 4. **All-local, reachable groups in the same order** — the last rung,
//!    mirroring the production scheduler's all-local fallback; it runs only
//!    when `ControlPlaneConfig::fallback_all_local` is on, exactly like the
//!    single-pool replay.
//! 5. Rejection.
//!
//! Split ownership changes the failure semantics: an EMC failure in a
//! lender pod now degrades VMs homed in *other* pods (their leases are
//! stripped via [`PondControlPlane::strip_borrowed`] and the VMs evacuate
//! through their own pod's ladder), and a graceful decommission must recall
//! the slices the draining pod *lent* ([`PondControlPlane::borrowers_of`])
//! before the pod can be struck off. Per-group conservation gains a `lent`
//! term (`free + offlining + pinned + lent == live`), and the fleet-level
//! deep check cross-foots every lender's ledger against the leases its
//! borrowers actually hold. With borrowing disabled the replay runs the
//! historical ladder instruction for instruction and stays bit-identical
//! to the pinned goldens.
//!
//! The pool *lifecycle* is a first-class part of the same replay: EMC
//! failures can heal ([`DrillKind::EmcWithRepair`] replaces every failed
//! device one MTTR later), and an explicit [`LifecyclePlan`] schedules
//! repairs, graceful group decommissions, and live expansions as timeline
//! events. A decommissioned group *drains* — every VM migrates out through
//! the arrival ladder at the usual 50 ms/GiB copy cost, and the group is
//! struck off only after its last pending release lands — in contrast to a
//! failure, which kills whatever cannot be re-homed. [`RebalanceSpec`] adds
//! proactive QoS-cadence rebalancing: pool-starved groups shed VMs to their
//! ring neighbour before pressure turns into rejections, with a
//! feasibility pre-check so a rebalance can never kill.
//!
//! All groups run on the *single* time-ordered [`EventQueue`]: one merged
//! stream of arrivals, departures, release and copy completions (each
//! carrying the group it belongs to), lifecycle events, and QoS ticks. After
//! every event, per-group pool-accounting conservation is debug-asserted
//! ([`PondControlPlane::assert_pool_conserved`]) along with the fleet-wide
//! invariant ([`assert_fleet_conserved`]): summed over groups,
//! `free + offlining + pinned + lent == live`.
//!
//! This is the one replay engine: a single pool is one symmetric group
//! (`MultiPoolConfig::for_trace(.., PodStyle::Symmetric, 1, ..)`), checked
//! against the independent loop
//! [`run_fleet_reference`](crate::fleet::run_fleet_reference). Every VM
//! move — failure evacuation, the fan-out of a lender's failure to its
//! borrowers, decommission drain, lease recall, rebalance — takes the same
//! relocation path, and every counter, copy completion, and trace of a move
//! is attributed to the group the VM leaves.

use crate::control_plane::{
    Backing, BorrowedReclaim, ControlPlaneConfig, PlacementSummary, PondControlPlane, PooledPlan,
};
use crate::error::PondError;
use crate::fleet::{ceil_secs, checked_decrement, FleetOutcome, ReplayAccounting};
use crate::group_index::{scheduler_choice, GroupIndex, Planes};
use crate::policy::PondPolicy;
use cluster_sim::event::{CompletionKind, Event, EventQueue, LifecycleKind};
use cluster_sim::source::{ArrivalSource, TraceCursor, TraceHeader};
use cluster_sim::sweep;
use cluster_sim::trace::{ClusterTrace, VmRequest};
use cxl_hw::pool::{GroupState, SliceLease};
use cxl_hw::topology::{PodStyle, PoolGroupTopology};
use cxl_hw::units::{Bytes, EmcId};
use cxl_hw::CxlError;
use hypervisor_sim::reconfig::copy_time;
use hypervisor_sim::vm::VmId;
use pond_metrics::{
    DecisionTrace, FallbackReason, GroupSample, LadderRung, LifecycleOpKind, LifecycleTrace,
    NullObserver, QosPassTrace, ReplayObserver,
};
use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Duration;

/// A per-arrival snapshot of one pool group, offered to the
/// [`GroupScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupView {
    /// Free pool-buffer capacity the group could online right now.
    pub pool_free: Bytes,
    /// Largest free local DRAM on any host of the group.
    pub most_free_host: Bytes,
    /// Free local DRAM of the *tightest* host that still fits the arriving
    /// VM's full memory, if any host does.
    pub tightest_feasible: Option<Bytes>,
    /// VMs currently running in the group.
    pub running_vms: usize,
}

impl GroupView {
    pub(crate) fn of(plane: &PondControlPlane, request: &VmRequest) -> GroupView {
        GroupView {
            pool_free: plane.pool().available(),
            most_free_host: plane.most_free_host().map_or(Bytes::ZERO, |(_, free)| free),
            tightest_feasible: plane.tightest_feasible_host(request.memory).map(|(_, free)| free),
            running_vms: plane.running_vms(),
        }
    }
}

/// The built-in group-scheduling strategies, selectable from configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupSchedulerKind {
    /// Spreads arrivals across groups in rotation, ignoring load.
    RoundRobin,
    /// Sends every VM to the group whose pool buffer has the most free
    /// capacity (ties: lowest group index) — pool-pressure balancing.
    MostFreePool,
    /// Locality/tightest-fit: packs VMs into the group whose tightest
    /// feasible host leaves the least DRAM slack (mirroring the host-level
    /// best-fit preference), keeping loosely loaded pods free for large VMs.
    /// Groups with no host fitting the VM's full memory are considered last,
    /// by most free host DRAM.
    TightestFit,
}

impl GroupSchedulerKind {
    /// All built-in strategies, in sweep order.
    pub const ALL: [GroupSchedulerKind; 3] = [
        GroupSchedulerKind::RoundRobin,
        GroupSchedulerKind::MostFreePool,
        GroupSchedulerKind::TightestFit,
    ];

    /// Instantiates the strategy, its round-robin cursor at group 0.
    pub fn build(self) -> GroupScheduler {
        GroupScheduler { kind: self, next: 0 }
    }

    /// The strategy's report name.
    pub fn name(self) -> &'static str {
        match self {
            GroupSchedulerKind::RoundRobin => "round-robin",
            GroupSchedulerKind::MostFreePool => "most-free-pool",
            GroupSchedulerKind::TightestFit => "tightest-fit",
        }
    }
}

/// Chooses the home pool group for every arriving VM: one built-in
/// strategy and its round-robin cursor.
///
/// It specifies home-group choice: the replay answers it from a fleet-wide
/// index of what the strategies read, and only debug builds call
/// [`GroupScheduler::choose`], once per arrival in event order, to check it.
#[derive(Debug, Clone)]
pub struct GroupScheduler {
    kind: GroupSchedulerKind,
    next: usize,
}

impl GroupScheduler {
    /// Picks the home group for `request`. `views` holds one snapshot per
    /// group and must not be empty; the returned index is within `views`.
    pub fn choose(&mut self, _request: &VmRequest, views: &[GroupView]) -> usize {
        match self.kind {
            GroupSchedulerKind::RoundRobin => {
                let group = self.next % views.len();
                self.next = self.next.wrapping_add(1);
                group
            }
            GroupSchedulerKind::MostFreePool => first_min(views, |v| Reverse(v.pool_free)),
            GroupSchedulerKind::TightestFit => first_min(views, |v| match v.tightest_feasible {
                // Feasible groups first, tightest fit first, lowest index.
                Some(free) => (0u8, free.as_u64()),
                // Infeasible groups: the most headroom is the least bad.
                None => (1u8, u64::MAX - v.most_free_host.as_u64()),
            }),
        }
    }
}

/// The lowest index among the views with the least `key`.
fn first_min<K: Ord>(views: &[GroupView], key: impl Fn(&GroupView) -> K) -> usize {
    (0..views.len()).min_by_key(|&i| (key(&views[i]), i)).expect("at least one group")
}

/// What kind of component a failure drill kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DrillKind {
    /// External Memory Controllers — the paper's headline blast-radius case
    /// (§4.1): one dead device takes down every slice behind it.
    Emc,
    /// EMC failures with repair: every failed device is replaced
    /// `mttr_secs` after it dies ([`LifecycleKind::EmcRepair`]), restoring its
    /// capacity to the pool mid-replay (§4.2's operational reality). The
    /// failure schedule is *identical* to [`DrillKind::Emc`] at the same
    /// seed — repairs are planned from the failures, with no extra random
    /// draws — so the two kinds isolate exactly the effect of healing.
    EmcWithRepair {
        /// Mean time to repair: seconds between a device's failure and its
        /// replacement coming online.
        mttr_secs: u64,
    },
}

/// A failure drill injected into a multi-pool replay: component failures
/// become first-class timeline events ([`LifecycleKind::EmcFailure`]) that the
/// evacuation planner must survive.
///
/// The drill plan is generated once, deterministically from the spec alone
/// (a Poisson process over the trace duration, thinned per group/EMC), so
/// the same spec over the same trace yields the same failures — serial and
/// parallel sweeps stay bit-identical. A rate of zero is exactly a no-drill
/// replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureDrillSpec {
    /// Expected component failures per simulated day across the whole
    /// fleet. Drastically higher than production failure rates on purpose:
    /// a drill compresses years of fleet time into one trace.
    pub rate_per_day: f64,
    /// The component class the drill kills.
    pub kind: DrillKind,
    /// Seed of the drill's own RNG (independent from the model seed, so the
    /// same workload can be drilled with different failure patterns).
    pub seed: u64,
}

/// One operation of a replay's lifecycle plan: a drill failure, or a
/// repair, decommission or expansion — the drill's repair echo or an
/// operation of the explicit [`LifecyclePlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum PlannedOp {
    /// Which EMC of which pool group dies.
    EmcFailure {
        group: usize,
        emc: EmcId,
    },
    Lifecycle(LifecycleOp),
}

impl PlannedOp {
    /// The operation's place in the lifecycle rung of the event order.
    fn kind(self) -> LifecycleKind {
        match self {
            PlannedOp::EmcFailure { .. } => LifecycleKind::EmcFailure,
            PlannedOp::Lifecycle(LifecycleOp::RepairEmc { .. }) => LifecycleKind::EmcRepair,
            PlannedOp::Lifecycle(LifecycleOp::DecommissionGroup { .. }) => {
                LifecycleKind::Decommission
            }
            PlannedOp::Lifecycle(LifecycleOp::ExpandGroup { .. }) => LifecycleKind::Expansion,
        }
    }
}

/// Expands a drill spec into its timed operations for one topology:
/// failures at exponential inter-arrival times (a Poisson process at
/// `rate_per_day`), each striking a uniformly chosen group and one of its
/// EMCs, then, for [`DrillKind::EmcWithRepair`], one repair per failure
/// `mttr_secs` after it. The repairs take no random draws, so both kinds
/// plan the same failures at the same seed.
fn plan_drill(
    spec: &FailureDrillSpec,
    duration: u64,
    topology: &PoolGroupTopology,
) -> Vec<(u64, PlannedOp)> {
    if spec.rate_per_day <= 0.0 || !spec.rate_per_day.is_finite() || duration == 0 {
        return Vec::new();
    }
    let mut rng = Pcg64::seed_from_u64(spec.seed);
    let per_sec = spec.rate_per_day / 86_400.0;
    let mut t = 0.0f64;
    let mut failures = Vec::new();
    loop {
        let u: f64 = rng.gen();
        // `1 - u` keeps the logarithm's argument in (0, 1].
        t += -(1.0 - u).ln() / per_sec;
        if t >= duration as f64 {
            break;
        }
        let group = rng.gen_range(0..topology.group_count());
        let emc = EmcId(rng.gen_range(0..topology.pool(group).emc_configs().len() as u16));
        failures.push((t as u64, group, emc));
    }
    let mut plan: Vec<_> = failures
        .iter()
        .map(|&(time, group, emc)| (time, PlannedOp::EmcFailure { group, emc }))
        .collect();
    if let DrillKind::EmcWithRepair { mttr_secs } = spec.kind {
        plan.extend(failures.iter().map(|&(time, group, emc)| {
            let repair = LifecycleOp::RepairEmc { group, emc };
            (time.saturating_add(mttr_secs), PlannedOp::Lifecycle(repair))
        }));
    }
    plan
}

/// One scheduled pool-lifecycle operation (§4.2's operational reality as
/// timeline events): a device replacement, a graceful pod decommission, or
/// a live capacity expansion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LifecycleOp {
    /// Replace a failed EMC: its capacity rejoins `group`'s pool empty
    /// ([`LifecycleKind::EmcRepair`]). A no-op on a healthy device.
    RepairEmc {
        /// The pool group owning the device.
        group: usize,
        /// The device to repair.
        emc: EmcId,
    },
    /// Gracefully decommission `group` ([`LifecycleKind::Decommission`]): the
    /// group stops accepting placements, every running VM is *drained* to a
    /// surviving group through the arrival ladder (killed only when no rung
    /// anywhere holds it), and the group reaches `Decommissioned` once its
    /// last pending slice release has completed — never before.
    DecommissionGroup {
        /// The pool group to drain.
        group: usize,
    },
    /// Attach a fresh EMC of `capacity` to `group`'s pool live
    /// ([`LifecycleKind::Expansion`]). Expanding a `Decommissioned` group
    /// re-onlines it — the replacement-pod case.
    ExpandGroup {
        /// The pool group to grow.
        group: usize,
        /// Capacity of the new device.
        capacity: Bytes,
    },
}

/// One lifecycle operation at one timeline instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleEvent {
    /// Seconds from trace start.
    pub time: u64,
    /// The operation.
    pub op: LifecycleOp,
}

/// An explicit schedule of lifecycle operations injected into a replay.
/// An empty plan reproduces the plain replay bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LifecyclePlan {
    /// The scheduled operations, in any order (the event queue sorts them).
    pub events: Vec<LifecycleEvent>,
}

/// Proactive QoS-cadence rebalancing: at every snapshot tick, each
/// pool-starved group migrates a few VMs to its ring neighbour *before*
/// pressure turns into rejections. Placements are pre-checked against the
/// destination, so a rebalance move can never kill a VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceSpec {
    /// A group is starved when its free pool drops below this fraction of
    /// its live pool capacity.
    pub starved_fraction: f64,
    /// Most VMs moved out of one starved group per snapshot pass.
    pub max_moves_per_pass: u32,
}

/// Configuration of a sharded multi-pool fleet replay.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPoolConfig {
    /// Pod style: symmetric shards or Octopus-style overlapping rings.
    pub pod: PodStyle,
    /// Number of pool groups the fleet is sharded into.
    pub groups: u16,
    /// Fleet-wide control-plane template: `hosts` is the total host count
    /// and `pool_capacity` the total pool DRAM; both are split into
    /// contiguous pod shares differing by at most one host / one 1 GiB
    /// slice (earlier pods get the remainder), so the modeled totals are
    /// identical across group counts. Policy, QoS, and latency knobs apply
    /// to every group.
    pub control: ControlPlaneConfig,
    /// The group-scheduling strategy.
    pub scheduler: GroupSchedulerKind,
    /// Seconds between QoS passes (`0` disables monitoring).
    pub qos_interval: u64,
    /// Seed for model training and telemetry sampling.
    pub seed: u64,
    /// Optional failure drill: EMC failures injected as timeline events,
    /// answered by cross-group VM migration. `None` (and a zero-rate spec)
    /// reproduces the drill-free replay bit for bit.
    pub drill: Option<FailureDrillSpec>,
    /// Optional explicit lifecycle schedule: repairs, decommissions, and
    /// expansions as timeline events. `None` (and an empty plan) reproduces
    /// the plain replay bit for bit.
    pub lifecycle: Option<LifecyclePlan>,
    /// Optional proactive rebalancing at QoS cadence. `None` reproduces the
    /// plain replay bit for bit.
    pub rebalance: Option<RebalanceSpec>,
    /// Enables the cross-pod BorrowedNeighbour ladder rung: a home pod whose
    /// pool is exhausted may lease slices from a reachable lender pod
    /// instead of re-homing the VM. `false` (the default) reproduces the
    /// slices-follow-host replay bit for bit.
    pub borrowing: bool,
}

impl MultiPoolConfig {
    /// A fleet sized to a trace and sharded into `groups` pods: one host per
    /// trace server (at most `u16::MAX`, sharing the trace's whole DRAM
    /// evenly) and, on top, a pool of `pool_fraction` of that DRAM, floored
    /// to whole 1 GiB slices but at least one. The all-local fallback is on,
    /// QoS passes run every 6 h, and there is no drill, lifecycle plan,
    /// rebalancing or borrowing. One symmetric group is the single pool of
    /// Figures 19–20. A pool may serve more hosts than it has CXL ports: a
    /// drained host's port detaches (see `cxl_hw::pool`), and a host that
    /// finds no free port falls back to an all-local placement.
    ///
    /// # Panics
    ///
    /// Panics when `pool_fraction` is not in [0, 1].
    pub fn for_trace(
        trace: &ClusterTrace,
        pod: PodStyle,
        groups: u16,
        pool_fraction: f64,
        scheduler: GroupSchedulerKind,
        seed: u64,
    ) -> Self {
        Self::for_header(&TraceHeader::of_trace(trace), pod, groups, pool_fraction, scheduler, seed)
    }

    /// [`MultiPoolConfig::for_trace`] from a [`TraceHeader`] alone, so
    /// streaming replays can size the sharded fleet without materializing
    /// any requests.
    pub fn for_header(
        header: &TraceHeader,
        pod: PodStyle,
        groups: u16,
        pool_fraction: f64,
        scheduler: GroupSchedulerKind,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&pool_fraction) && pool_fraction.is_finite(),
            "pool fraction must be in [0, 1]"
        );
        let hosts = header.servers.clamp(1, u64::from(u16::MAX) as u32) as u16;
        let fleet_dram = Bytes::from_gib(header.dram_per_server.as_gib() * header.servers as u64);
        let local_per_host = Bytes::from_gib(fleet_dram.as_gib() / hosts as u64);
        let pool_capacity = Bytes::from_gib(fleet_dram.scaled(pool_fraction).slices_floor().max(1));
        MultiPoolConfig {
            pod,
            groups,
            control: ControlPlaneConfig {
                hosts,
                local_dram_per_host: local_per_host,
                pool_capacity,
                fallback_all_local: true,
                ..Default::default()
            },
            scheduler,
            qos_interval: 6 * 3600,
            seed,
            drill: None,
            lifecycle: None,
            rebalance: None,
            borrowing: false,
        }
    }

    /// Returns the configuration with a failure drill attached.
    pub fn with_drill(mut self, drill: FailureDrillSpec) -> Self {
        self.drill = Some(drill);
        self
    }

    /// Returns the configuration with an explicit lifecycle plan attached.
    pub fn with_lifecycle(mut self, lifecycle: LifecyclePlan) -> Self {
        self.lifecycle = Some(lifecycle);
        self
    }

    /// Returns the configuration with proactive rebalancing attached.
    pub fn with_rebalance(mut self, rebalance: RebalanceSpec) -> Self {
        self.rebalance = Some(rebalance);
        self
    }

    /// Returns the configuration with cross-pod slice borrowing switched
    /// on or off.
    pub fn with_borrowing(mut self, borrowing: bool) -> Self {
        self.borrowing = borrowing;
        self
    }

    /// Builds the [`PoolGroupTopology`] this configuration describes.
    ///
    /// # Errors
    ///
    /// Propagates invalid shapes (zero groups, more groups than hosts or
    /// than pool slices, unsupported per-group pool size) from the hardware
    /// layer.
    pub fn group_topology(&self) -> Result<PoolGroupTopology, PondError> {
        Ok(PoolGroupTopology::new(
            self.pod,
            self.groups,
            self.control.hosts,
            self.control.pool_sockets,
            self.control.pool_capacity,
        )?)
    }
}

/// Aggregated results of one multi-pool fleet replay.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPoolOutcome {
    /// Fleet-wide aggregate. Summable fields are sums over groups;
    /// `pool_peak` is the sum of per-group pool peaks (each pool provisions
    /// for its own peak); `qos_passes`, `releases_completed`, and
    /// `reconfig_completions` count events on the shared queue. For one
    /// group it is that group's outcome, the single-pool result.
    pub fleet: FleetOutcome,
    /// Per-group breakdown, indexed by group.
    pub per_group: Vec<FleetOutcome>,
    /// Placements that landed outside their scheduler-chosen home group
    /// (the cross-group fallback, pooled or all-local).
    pub cross_group_placements: u64,
    /// Name of the scheduling strategy that ran.
    pub scheduler: String,
    /// The pod style that ran.
    pub pod: PodStyle,
}

/// Checks the fleet-wide slice-conservation invariant across all groups:
/// summed over planes, `free + offlining + pinned + lent == live capacity`,
/// on top of each plane's own conservation assert. The denominator is the
/// *live* capacity so the invariant keeps holding through EMC failures — a
/// dead device's slices leave the ledger together with its capacity, and
/// anything else (a leaked pending release, a record still pinning dead
/// slices, a stranded lease) still trips the assert. Lent slices sit in the
/// *lender's* ledger: the borrower's mirror counter is bookkeeping only, so
/// no slice is ever double-counted across the fleet.
///
/// # Panics
///
/// Panics when any per-group or the fleet-wide invariant is violated.
pub fn assert_fleet_conserved(planes: &[PondControlPlane]) {
    let mut accounted = Bytes::ZERO;
    let mut live = Bytes::ZERO;
    for plane in planes {
        plane.assert_pool_conserved();
        accounted += plane.pool().available()
            + plane.pool().pending_release()
            + plane.pinned_pool()
            + plane.lent_pool();
        live += plane.pool().pool().live_capacity();
    }
    assert_eq!(accounted, live, "fleet-wide slice conservation across {} groups", planes.len());
}

/// The deep variant of [`assert_fleet_conserved`]: recomputes every group's
/// incremental counters from its running VMs and hosts
/// ([`PondControlPlane::assert_pool_conserved_full`]) before re-checking the
/// fleet-wide sum. O(VMs + hosts + slices) per group, so the replay runs it
/// only at snapshot ticks and at end of replay in debug builds; the O(groups)
/// [`assert_fleet_conserved`] still runs after every event.
///
/// # Panics
///
/// Panics when any recomputed counter disagrees with its incremental twin or
/// any conservation invariant is violated.
pub fn assert_fleet_conserved_full(planes: &[PondControlPlane]) {
    for plane in planes {
        plane.assert_pool_conserved_full();
    }
    // The cross-lender ledger: every slice a lender counts as lent must be
    // held by exactly one borrower's lease, fleet-wide — a lease dropped
    // without [`PondControlPlane::release_lent`], or released twice, breaks
    // this identity even while each plane's local invariant still holds.
    for (lender, plane) in planes.iter().enumerate() {
        let borrowed: u64 = planes.iter().map(|p| p.borrowed_from(lender)).sum();
        assert_eq!(
            Bytes::from_gib(borrowed),
            plane.lent_pool(),
            "group {lender}: lent slices must equal the leases borrowers hold"
        );
    }
    assert_fleet_conserved(planes);
}

/// Why a running VM leaves its group: the counter the move lands in and the
/// lifecycle trace it emits. Every kind runs the same [`Replay::relocate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Relocation {
    /// An EMC failure stripped the VM's pool memory, in its own pod or in a
    /// lender's (`vms_migrated`).
    Migrated,
    /// A graceful decommission drained the VM off the pod, or recalled the
    /// lease it held on the pod (`vms_drained`).
    Drained,
    /// A proactive rebalance moved the VM to its ring neighbour
    /// (`vms_rebalanced`). The ladder's all-local rung always runs for it.
    Rebalanced,
}

impl Relocation {
    fn count(self, outcome: &mut FleetOutcome) {
        match self {
            Relocation::Migrated => outcome.vms_migrated += 1,
            Relocation::Drained => outcome.vms_drained += 1,
            Relocation::Rebalanced => outcome.vms_rebalanced += 1,
        }
    }

    fn trace(self, dest: Option<usize>, copy: Duration) -> LifecycleOpKind {
        match (self, dest) {
            (Relocation::Drained, dest) => LifecycleOpKind::VmDrained { dest, copy },
            (Relocation::Rebalanced, Some(dest)) => LifecycleOpKind::VmRebalanced { dest, copy },
            // A rebalance is pre-checked against its destination, so a
            // killed one is a broken contract (debug builds assert it in
            // `relocate`); a release build traces it like a failure's kill.
            (Relocation::Migrated | Relocation::Rebalanced, dest) => {
                LifecycleOpKind::VmEvacuated { dest, copy }
            }
        }
    }
}

/// Replays a trace through N pool groups on one time-ordered event queue and
/// returns per-group and fleet-wide outcomes.
///
/// The prediction models are trained once and shared by every group's
/// control plane, with the training prefix's customer history; each group
/// adds only the completions of the departures it sees. Each pool is built
/// from whole 1 GiB slices, so a fractional `pool_capacity` replays as its
/// floor.
///
/// # Errors
///
/// Propagates topology/construction failures (a pool below one slice per
/// group included) and any error other than the expected placement
/// failures. A lifecycle operation naming a group the fleet does not have
/// is [`CxlError::InvalidGroupTopology`]; a drill rate that is not finite
/// and >= 0, or a rebalance fraction or mitigation budget outside [0, 1],
/// is [`PondError::InvalidConfig`], and so is a borrowing fleet of more
/// than 32,768 hosts, whose borrowed-port host ids would overflow `u16`; an
/// arrival that fails [`VmRequest::validate`], or whose id a placed VM holds
/// until its departure, even a VM a relocation killed, is
/// [`PondError::TraceStream`].
pub fn run_multipool_fleet(
    trace: &ClusterTrace,
    config: &MultiPoolConfig,
) -> Result<MultiPoolOutcome, PondError> {
    let policy = PondPolicy::train(trace, &config.control.policy, config.seed);
    run_multipool_source(TraceCursor::new(trace), config, policy)
}

/// [`run_multipool_fleet`] over any streaming [`ArrivalSource`] with an
/// already-trained policy, so callers that replay one stream many times pay
/// the training cost once. A running VM's request lives in its group's
/// control plane, the replay maps each placed VM's id to its group until
/// the VM's departure pops, and each pool keeps its slices' current owners,
/// not a log of their moves, so the replay's bookkeeping is O(live VMs +
/// hosts + groups) regardless of trace length. The one term
/// that grows with the trace is the policy's
/// [`CustomerHistory`](crate::untouched::CustomerHistory): 8 B per completed
/// VM. Bit-identical to the materialized replay on the same request stream.
///
/// # Errors
///
/// Same as [`run_multipool_fleet`], plus [`PondError::TraceStream`] when
/// the source fails mid-replay.
pub fn run_multipool_source<S: ArrivalSource>(
    source: S,
    config: &MultiPoolConfig,
    policy: PondPolicy,
) -> Result<MultiPoolOutcome, PondError> {
    run_multipool_source_observed(source, config, policy, &mut NullObserver)
}

/// [`run_multipool_source`] with a [`ReplayObserver`] wired into the loop:
/// the observer sees every popped event, every placement-ladder decision
/// (rung and fallback reason, home group and landing group), every
/// per-group QoS pass, every lifecycle operation (failures, repairs,
/// decommission drains, expansions, evacuations, rebalances), and one
/// [`GroupSample`] per group at each snapshot tick.
///
/// Observers are read-only, so the observed outcome is bit-identical to
/// [`run_multipool_source`] on the same `(source, config, policy)` — the
/// integration suite proptest-pins this with lifecycle and failure drills
/// enabled. With [`NullObserver`] every hook compiles out.
///
/// # Errors
///
/// Same as [`run_multipool_source`].
pub fn run_multipool_source_observed<S: ArrivalSource, O: ReplayObserver>(
    source: S,
    config: &MultiPoolConfig,
    policy: PondPolicy,
    observer: &mut O,
) -> Result<MultiPoolOutcome, PondError> {
    Replay::new(source, config, policy, observer)?.run()
}

/// The state of one multi-pool replay, built once and driven by
/// [`Replay::run`]: one method per event class, and one relocation path
/// ([`Replay::relocate`]) behind every VM move.
struct Replay<'a, S, O> {
    config: &'a MultiPoolConfig,
    observer: &'a mut O,
    topology: PoolGroupTopology,
    planes: Planes,
    index: GroupIndex,
    /// The index's specification, consulted in debug builds only.
    scheduler: GroupScheduler,
    accounting: ReplayAccounting,
    events: EventQueue<S>,
    /// The group each placed VM runs in, by VM id, from its placement until
    /// its departure pops: `None` for a VM a relocation killed, whose
    /// departure is still queued. Departures carry the VM id as their
    /// token, and an id stays taken until its departure pops, so the map
    /// is O(live VMs) however long the stream runs. Its hasher has fixed
    /// keys, so identical runs reach the same peak memory: where a removal
    /// leaves a tombstone depends on the hashes, and so does whether the
    /// table later rehashes in place or doubles. Nothing iterates the map.
    group_of: HashMap<u64, Option<usize>, BuildHasherDefault<DefaultHasher>>,
    per_group: Vec<FleetOutcome>,
    peak_local: Vec<Vec<Bytes>>,
    peak_host_pool: Vec<Vec<Bytes>>,
    peak_total: Vec<Vec<Bytes>>,
    /// Mitigation copies in flight, per group and fleet-wide.
    degraded_of: Vec<u64>,
    degraded_fleet: u64,
    peak_degraded_fleet: u64,
    /// Relocation copies in flight, per group the VM left.
    migrating_of: Vec<u64>,
    cross_group_placements: u64,
    snapshot_ticks: u64,
    /// Each group starts `Online`; decommissions drain it through
    /// `Draining` to `Decommissioned`, and an expansion can bring a
    /// decommissioned pod back. Changed only through [`Replay::set_state`].
    group_state: Vec<GroupState>,
    /// The lifecycle plan: entry `i` is the operation behind
    /// [`Event::Lifecycle`] index `i`.
    lifecycle: Vec<PlannedOp>,
    /// The ladder order, reused by arrivals and the lifecycle paths.
    order: Vec<usize>,
}

impl<'a, S: ArrivalSource, O: ReplayObserver> Replay<'a, S, O> {
    fn new(
        source: S,
        config: &'a MultiPoolConfig,
        policy: PondPolicy,
        observer: &'a mut O,
    ) -> Result<Self, PondError> {
        // A malformed drill or rebalance spec is refused, not replayed as if
        // there were no drill or no rebalance.
        if let Some(FailureDrillSpec { rate_per_day: rate, .. }) = config.drill {
            if !(rate.is_finite() && rate >= 0.0) {
                let detail = format!("drill rate_per_day {rate} is not a finite rate >= 0");
                return Err(PondError::InvalidConfig { detail });
            }
        }
        if let Some(RebalanceSpec { starved_fraction: fraction, .. }) = config.rebalance {
            if !(0.0..=1.0).contains(&fraction) {
                let detail = format!("rebalance starved_fraction {fraction} is outside [0, 1]");
                return Err(PondError::InvalidConfig { detail });
            }
        }
        // A borrow's port id is the fleet host count plus the borrower's
        // fleet-wide host index, so the largest, 2 × hosts − 1, must fit a
        // `HostId`.
        let hosts = u32::from(config.control.hosts);
        if config.borrowing && 2 * hosts > u32::from(u16::MAX) + 1 {
            let detail = format!(
                "a borrowing fleet of {hosts} hosts needs borrowed-port host ids up to {}, \
                 past the largest host id {}",
                2 * hosts - 1,
                u16::MAX
            );
            return Err(PondError::InvalidConfig { detail });
        }
        let topology = config.group_topology()?;
        let groups = topology.group_count();
        let group_config = |g: usize| ControlPlaneConfig {
            hosts: topology.hosts_in(g),
            pool_capacity: topology.pool(g).total_capacity(),
            ..config.control.clone()
        };
        // Every plane learns from its own clone of the trained policy; the
        // clones share the models, the suite and the training history.
        let planes = (0..groups)
            .map(|g| PondControlPlane::with_policy(group_config(g), policy.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let host_peaks: Vec<Vec<Bytes>> =
            planes.iter().map(|p| vec![Bytes::ZERO; p.hosts().len()]).collect();

        // Every lifecycle operation is an event before the replay starts:
        // the failure drill, planned deterministically from the spec (the
        // header's duration is all it needs) with its repair echo, then the
        // explicit plan's operations.
        let mut plan = match &config.drill {
            Some(spec) => plan_drill(spec, source.header().duration, &topology),
            None => Vec::new(),
        };
        let explicit = config.lifecycle.as_ref().map_or(&[][..], |plan| &plan.events);
        // Exactly the room the explicit operations need: a plan grown by
        // doubling raised `drill`'s peak RSS.
        plan.reserve_exact(explicit.len());
        for event in explicit {
            let (LifecycleOp::RepairEmc { group, .. }
            | LifecycleOp::DecommissionGroup { group }
            | LifecycleOp::ExpandGroup { group, .. }) = event.op;
            if group >= groups {
                let detail = format!(
                    "lifecycle {:?} at {} s: the fleet has {groups} groups",
                    event.op, event.time
                );
                return Err(CxlError::InvalidGroupTopology { detail }.into());
            }
            plan.push((event.time, PlannedOp::Lifecycle(event.op)));
        }
        // Same-instant operations of one kind pop in index order, so the
        // stable sort sets their order: failures in drill order, the drill's
        // repair echoes before the plan's repairs, expansions in plan order,
        // and decommissions by group.
        plan.sort_by_key(|&(time, op)| {
            let group = match op {
                PlannedOp::Lifecycle(LifecycleOp::DecommissionGroup { group }) => group,
                _ => 0,
            };
            (time, op.kind(), group)
        });
        let mut events = EventQueue::new(source, config.qos_interval);
        for (index, &(time, op)) in plan.iter().enumerate() {
            events.schedule_lifecycle(time, op.kind(), index);
        }

        Ok(Replay {
            config,
            observer,
            index: GroupIndex::of_planes(config.scheduler, &planes),
            scheduler: config.scheduler.build(),
            accounting: ReplayAccounting::new(&config.control),
            events,
            group_of: HashMap::default(),
            per_group: vec![FleetOutcome::default(); groups],
            peak_local: host_peaks.clone(),
            peak_host_pool: host_peaks.clone(),
            peak_total: host_peaks,
            degraded_of: vec![0; groups],
            degraded_fleet: 0,
            peak_degraded_fleet: 0,
            migrating_of: vec![0; groups],
            cross_group_placements: 0,
            snapshot_ticks: 0,
            group_state: vec![GroupState::Online; groups],
            lifecycle: plan.into_iter().map(|(_, op)| op).collect(),
            order: Vec::with_capacity(groups),
            topology,
            planes: Planes::new(planes),
        })
    }

    /// Drains the event queue, then aggregates the outcome.
    fn run(mut self) -> Result<MultiPoolOutcome, PondError> {
        while let Some(event) = self.events.next_event() {
            if O::ENABLED {
                self.observer.on_event(&event);
            }
            let now = Duration::from_secs(event.time());
            match event {
                Event::Arrival { request_index, .. } => self.arrival(request_index, now)?,
                Event::Departure { token, .. } => self.departure(token, now)?,
                Event::Completion { kind, group, .. } => match kind {
                    CompletionKind::Release => self.release(group, now),
                    CompletionKind::Reconfig => self.reconfig_done(group),
                    CompletionKind::Migration => self.migration_done(group),
                },
                Event::Lifecycle { index, .. } => match self.lifecycle[index] {
                    PlannedOp::EmcFailure { group, emc } => self.emc_failure(group, emc, now)?,
                    PlannedOp::Lifecycle(LifecycleOp::RepairEmc { group, emc }) => {
                        self.emc_repair(group, emc, now)?
                    }
                    PlannedOp::Lifecycle(LifecycleOp::DecommissionGroup { group }) => {
                        self.decommission(group, now)?
                    }
                    PlannedOp::Lifecycle(LifecycleOp::ExpandGroup { group, capacity }) => {
                        self.expansion(group, capacity, now)
                    }
                },
                Event::Snapshot { time } => self.snapshot(time, now)?,
            }

            self.settle_touched();
            if O::ENABLED {
                if let Event::Snapshot { time } = event {
                    self.observe_snapshot(time);
                }
            }
            // Per-group + fleet-wide conservation, checked at every event in
            // debug builds — O(groups) now that the counters are incremental.
            #[cfg(debug_assertions)]
            assert_fleet_conserved(&self.planes);
        }
        if let Some(error) = self.events.source_error() {
            return Err(PondError::TraceStream(error.to_string()));
        }
        Ok(self.finish())
    }

    /// Places one arriving VM: the group index picks a home among the
    /// online groups, then the fallback ladder runs over the home pod's
    /// reachable online groups.
    fn arrival(&mut self, request_index: usize, now: Duration) -> Result<(), PondError> {
        let request = self.events.take_arrival();
        // A malformed request is refused before any plane sees it: a VM with
        // no cores or no memory cannot launch, and a departure past
        // `u64::MAX` has no place on the timeline.
        request.validate().map_err(PondError::TraceStream)?;
        // Departures and relocations find a VM by its id, so a second VM
        // with one id would be mistaken for the first until the first's
        // departure pops, even when a relocation killed it.
        if self.group_of.contains_key(&request.id) {
            return Err(PondError::TraceStream(format!(
                "vm {} arrives at {} s before the vm with that id departs",
                request.id, request.arrival
            )));
        }
        let home = self.index.choose(request.memory);
        if cfg!(debug_assertions) {
            let spec =
                scheduler_choice(&mut self.scheduler, &self.planes, &self.group_state, &request);
            assert_eq!(home, spec, "the group index left its spec");
        }
        let Some(home) = home else {
            // Every group is draining or gone: nothing can take the VM.
            // Attributed to group 0 for want of a home.
            self.per_group[0].rejected_vms += 1;
            let reason = FallbackReason::NoOnlineGroup;
            self.decided(&request, 0, None, LadderRung::Rejected, reason);
            return Ok(());
        };

        // The fallback ladder: pooled in home, the BorrowedNeighbour lease
        // (borrowing only), pooled in reachable neighbours (cross-group),
        // then — only when the config enables it — all-local in the same
        // order.
        let mut order = std::mem::take(&mut self.order);
        self.reachable_online(home, &mut order);
        let placed = self.ladder(&order, &request, now, self.config.control.fallback_all_local);
        self.order = order;
        let Some((group, summary)) = placed? else {
            self.per_group[home].rejected_vms += 1;
            let reason = FallbackReason::NoRungHeld;
            self.decided(&request, home, None, LadderRung::Rejected, reason);
            return Ok(());
        };
        self.cross_group_placements += u64::from(group != home);
        let workload = self.planes[group].policy().workload(request.workload_index);
        self.accounting.record_placement(&mut self.per_group[group], &request, workload, &summary);
        if summary.borrowed_from.is_some() {
            self.per_group[group].vms_borrowed += 1;
            self.per_group[group].borrowed_gib_hours +=
                summary.pool.as_gib_f64() * request.lifetime as f64 / 3600.0;
        }
        if O::ENABLED {
            let (rung, reason) = if summary.borrowed_from.is_some() {
                (LadderRung::BorrowedNeighbor, FallbackReason::HomePoolFull)
            } else {
                match (group == home, summary.fallback_all_local) {
                    (true, false) => (LadderRung::PooledHome, FallbackReason::None),
                    (false, false) => (LadderRung::PooledNeighbor, FallbackReason::HomePoolFull),
                    (true, true) => (LadderRung::AllLocalHome, FallbackReason::PoolRungsExhausted),
                    (false, true) => {
                        (LadderRung::AllLocalNeighbor, FallbackReason::PoolRungsExhausted)
                    }
                }
            };
            self.decided(&request, home, Some((summary.vm.0, group)), rung, reason);
        }
        self.group_of.insert(request.id, Some(group));
        // The arrival ordinal orders simultaneous departures; the token is
        // the VM id.
        let departure = request.departure();
        self.events.schedule_departure(departure, request_index as u64, request.id as usize);
        Ok(())
    }

    fn departure(&mut self, token: usize, now: Duration) -> Result<(), PondError> {
        // The id is freed here and only here: a killed VM kept its `None`
        // entry until this no-op pop, so no arrival could reuse the id
        // under the event.
        let vm = VmId(token as u64);
        let group = self.group_of.remove(&vm.0).expect("a departure pops once per placed VM");
        if let Some(group) = group {
            let outcome = self.planes.touch(group).handle_departure_split(vm, now)?;
            if let Some(ready) = outcome.release_ready {
                self.schedule_release(group, ready);
            }
            // A borrowed VM's slices flow back to the *lender's* pool.
            if let Some(lease) = outcome.lease {
                self.return_lease(lease, now)?;
            }
        }
        Ok(())
    }

    fn release(&mut self, group: usize, now: Duration) {
        self.planes.touch(group).complete_releases(now);
        self.per_group[group].releases_completed += 1;
        // A draining group's last pending release may have just landed —
        // only now may the pod be struck off.
        self.finish_decommission_if_drained(group, now);
    }

    fn reconfig_done(&mut self, group: usize) {
        checked_decrement(&mut self.degraded_of[group], "per-group mitigation copies");
        self.per_group[group].reconfig_completions += 1;
        checked_decrement(&mut self.degraded_fleet, "fleet-wide mitigation copies");
    }

    fn migration_done(&mut self, group: usize) {
        checked_decrement(&mut self.migrating_of[group], "in-flight migration copies");
        self.per_group[group].migration_completions += 1;
    }

    /// One EMC dies: every VM in the blast radius is re-homed through the
    /// same fallback ladder arrivals use — pooled over the pod's reachable
    /// *online* groups (the home pod's surviving EMCs first, then the
    /// neighbours), then all-local in the same order — or killed when no
    /// rung holds it.
    fn emc_failure(&mut self, source: usize, emc: EmcId, now: Duration) -> Result<(), PondError> {
        let outcome = self.planes.touch(source).handle_emc_failure(emc, now)?;
        self.per_group[source].emc_failures += 1;
        let affected = outcome.affected.len() as u64;
        self.lifecycle_op(source, now, LifecycleOpKind::EmcFailure { affected });

        let mut order = std::mem::take(&mut self.order);
        self.reachable_online(source, &mut order);
        for affected in outcome.affected {
            self.relocate(
                affected.vm,
                source,
                affected.pool_before,
                &order,
                Relocation::Migrated,
                now,
            )?;
        }
        // Split ownership widens the blast radius: slices this pool had lent
        // out died with the device too, degrading VMs homed in *other* pods.
        // Each pod that can borrow from the source (no other pod holds its
        // leases) strips the dead slices from its leases and evacuates the
        // struck VMs through its own reachable ladder.
        if self.config.borrowing {
            for borrower in self.topology.borrowers_of(source) {
                let struck = self.planes.touch(borrower).strip_borrowed(source, emc);
                if struck.is_empty() {
                    continue;
                }
                self.reachable_online(borrower, &mut order);
                for affected in struck {
                    let kind = Relocation::Migrated;
                    self.relocate(affected.vm, borrower, affected.pool_before, &order, kind, now)?;
                }
            }
        }
        self.order = order;
        Ok(())
    }

    fn emc_repair(&mut self, group: usize, emc: EmcId, now: Duration) -> Result<(), PondError> {
        // The replacement device rejoins the pool empty: live and free
        // capacity grow by exactly the same amount, so the conservation
        // invariant holds through the repair. A repair of a healthy device
        // is a recorded no-op (zero restored).
        let restored = self.planes.touch(group).repair_emc(emc)?;
        if !restored.is_zero() {
            self.per_group[group].emcs_repaired += 1;
        }
        self.lifecycle_op(group, now, LifecycleOpKind::EmcRepair { restored });
        Ok(())
    }

    /// Starts a graceful decommission (idempotent: only an online group can
    /// start draining). Every running VM drains through the ladder — counted
    /// as `vms_drained`, not `vms_migrated`: nothing died here — and, with
    /// borrowing on, every lease the pod lent is recalled.
    fn decommission(&mut self, group: usize, now: Duration) -> Result<(), PondError> {
        if self.group_state[group] != GroupState::Online {
            return Ok(());
        }
        self.set_state(group, GroupState::Draining);
        // The drain ladder: the pod's reachable online groups first (the
        // source no longer accepts, so it is already excluded), then every
        // other online group ascending — a drain may spill beyond the ring
        // because the whole pod is leaving, not just one device.
        let mut order = std::mem::take(&mut self.order);
        self.reachable_online(group, &mut order);
        for (g, state) in self.group_state.iter().enumerate() {
            if state.accepts_placements() && !order.contains(&g) {
                order.push(g);
            }
        }
        let footprints = self.planes[group].running_vm_footprints();
        let running = footprints.len() as u64;
        self.lifecycle_op(group, now, LifecycleOpKind::DecommissionStarted { running });
        for (vm, pool_before) in footprints {
            self.relocate(vm, group, pool_before, &order, Relocation::Drained, now)?;
        }
        // A draining pod must also recall the slices it *lent*: the pod
        // cannot be struck off while a single lease is outstanding. Each
        // borrower's VM drains through the borrower's own ladder (the
        // draining pod no longer accepts, so it is excluded automatically),
        // and its lease flows back as a pending release here.
        if self.config.borrowing {
            for borrower in self.topology.borrowers_of(group) {
                let leaning = self.planes[borrower].borrowers_of(group);
                if leaning.is_empty() {
                    continue;
                }
                self.reachable_online(borrower, &mut order);
                for (vm, pool_before) in leaning {
                    self.relocate(vm, borrower, pool_before, &order, Relocation::Drained, now)?;
                }
            }
        }
        self.order = order;
        // With no pending releases and no outstanding leases the pod is
        // already done; otherwise the last Release event completes it.
        self.finish_decommission_if_drained(group, now);
        Ok(())
    }

    fn expansion(&mut self, group: usize, capacity: Bytes, now: Duration) {
        self.planes.touch(group).expand_pool(capacity);
        self.per_group[group].groups_expanded += 1;
        self.lifecycle_op(group, now, LifecycleOpKind::Expansion { capacity });
        // Growing a decommissioned pod is the replacement case: the new
        // hardware brings the group back online. A draining pod stays
        // draining — new capacity does not cancel a planned decommission.
        if self.group_state[group] == GroupState::Decommissioned {
            self.set_state(group, GroupState::Online);
        }
    }

    /// A QoS tick: one monitoring pass per group, lease reclaims routed to
    /// their lenders, then proactive rebalancing.
    fn snapshot(&mut self, time: u64, now: Duration) -> Result<(), PondError> {
        self.snapshot_ticks += 1;
        let mut reclaimed: Vec<(usize, BorrowedReclaim)> = Vec::new();
        for group in 0..self.planes.len() {
            let mut pass = self.planes.touch(group).run_qos_pass(now)?;
            // A mitigated *borrowed* VM hands its lease back to the lending
            // plane; park the reclaims and route them after every pass.
            reclaimed.extend(
                std::mem::take(&mut pass.borrowed_reclaims).into_iter().map(|r| (group, r)),
            );
            if O::ENABLED {
                self.observer.on_qos_pass(&QosPassTrace {
                    time,
                    group,
                    reconfigured: pass.reconfigured,
                    copy_time: pass.copy_time,
                });
            }
            let Replay {
                accounting,
                per_group,
                degraded_of,
                events,
                degraded_fleet,
                peak_degraded_fleet,
                ..
            } = &mut *self;
            accounting.record_qos_pass(
                &mut per_group[group],
                pass,
                time,
                &mut degraded_of[group],
                |kind, at| {
                    events.schedule_completion(at, kind, group);
                    if kind == CompletionKind::Reconfig {
                        *degraded_fleet += 1;
                        *peak_degraded_fleet = (*peak_degraded_fleet).max(*degraded_fleet);
                    }
                },
            );
        }
        for (group, reclaim) in reclaimed {
            let remaining_hours = reclaim.departure.saturating_sub(time) as f64 / 3600.0;
            self.per_group[group].borrowed_gib_hours -=
                reclaim.lease.capacity().as_gib_f64() * remaining_hours;
            self.return_lease(reclaim.lease, reclaim.copy_done)?;
        }
        if let Some(spec) = self.config.rebalance {
            self.rebalance(spec, now)?;
        }
        // The deep per-group recount runs only at snapshot ticks (and end
        // of replay) in debug builds.
        #[cfg(debug_assertions)]
        assert_fleet_conserved_full(&self.planes);
        Ok(())
    }

    /// Proactive rebalancing rides the QoS cadence, after the monitoring
    /// passes: each pool-starved online group moves a few VMs to its ring
    /// neighbour before pressure turns into rejections. Every move is
    /// pre-checked against the destination, so a rebalance can never kill.
    fn rebalance(&mut self, spec: RebalanceSpec, now: Duration) -> Result<(), PondError> {
        for g in 0..self.planes.len() {
            if self.group_state[g] != GroupState::Online {
                continue;
            }
            // The ring neighbour is the second reachable group; symmetric
            // pods have none and never rebalance.
            let Some(&dest) = self.topology.reachable(g).get(1) else {
                continue;
            };
            if !self.group_state[dest].accepts_placements() {
                continue;
            }
            let available = self.planes[g].pool().available();
            let live = self.planes[g].pool().pool().live_capacity();
            let starved = available.as_gib_f64() < spec.starved_fraction * live.as_gib_f64();
            // Move only downhill: the neighbour must have strictly more free
            // pool than the starved source.
            if !starved || self.planes[dest].pool().available() <= available {
                continue;
            }
            let candidates: Vec<(VmId, Bytes)> = self.planes[g]
                .running_vm_footprints()
                .into_iter()
                .filter(|(_, pool)| !pool.is_zero())
                .take(spec.max_moves_per_pass as usize)
                .collect();
            for (vm, pool_before) in candidates {
                // The never-kill pre-check: skip the VM unless the neighbour
                // could hold it entirely in local DRAM — the all-local rung
                // then cannot fail even if its pool is tight.
                let Some(&VmRequest { memory, .. }) = self.planes[g].request(vm) else {
                    continue;
                };
                if self.planes[dest].tightest_feasible_host(memory).is_none() {
                    continue;
                }
                self.relocate(vm, g, pool_before, &[dest], Relocation::Rebalanced, now)?;
            }
        }
        Ok(())
    }

    /// The one relocation path: moves running VM `vm` off group `from` and
    /// re-places it through the ladder over `order`. `pool_before` is the
    /// pool footprint the VM's GiB-hours are still accruing (the failure
    /// paths measure it before stripping the dead slices).
    ///
    /// Every counter, the `Migration` completion, and the lifecycle
    /// trace are attributed to `from`, the group the VM leaves — so a
    /// group's `availability()` counts kills where the VMs ran. The
    /// destination is credited only with the GiB-hours it will serve.
    fn relocate(
        &mut self,
        vm: VmId,
        from: usize,
        pool_before: Bytes,
        order: &[usize],
        kind: Relocation,
        now: Duration,
    ) -> Result<(), PondError> {
        let time = now.as_secs();
        let (evacuated, request) = self.planes.touch(from).evacuate_vm_split(vm, now)?;
        if let Some(ready) = evacuated.release_ready {
            self.schedule_release(from, ready);
        }
        let was_borrowed = evacuated.lease.is_some();
        if let Some(lease) = evacuated.lease {
            self.return_lease(lease, now)?;
        }
        // The arrival charged this VM's full lifetime to `from`; take back
        // the part it will no longer serve there.
        let hours = request.departure().saturating_sub(time) as f64 / 3600.0;
        let source = &mut self.per_group[from];
        source.pool_gib_hours -= pool_before.as_gib_f64() * hours;
        if was_borrowed {
            source.borrowed_gib_hours -= pool_before.as_gib_f64() * hours;
        }
        source.total_gib_hours -= request.memory.as_gib_f64() * hours;

        let all_local = self.config.control.fallback_all_local || kind == Relocation::Rebalanced;
        let (dest, copy) = match self.ladder(order, &request, now, all_local)? {
            Some((dest, summary)) => {
                // The copy moves the VM's full memory at the mitigation's
                // 50 ms/GiB; the VM runs degraded until the `Migration`
                // completion closes the window.
                let copy = copy_time(request.memory);
                let done = ceil_secs(now + copy);
                self.events.schedule_completion(done, CompletionKind::Migration, from);
                self.migrating_of[from] += 1;
                kind.count(&mut self.per_group[from]);
                self.per_group[from].evacuation_copy_time += copy;
                let landed = &mut self.per_group[dest];
                landed.pool_gib_hours += summary.pool.as_gib_f64() * hours;
                landed.total_gib_hours += request.memory.as_gib_f64() * hours;
                if summary.borrowed_from.is_some() {
                    landed.vms_borrowed += 1;
                    landed.borrowed_gib_hours += summary.pool.as_gib_f64() * hours;
                }
                (Some(dest), copy)
            }
            None => {
                // No rung holds the VM: it dies. Its id stays taken, in no
                // group, until its already-scheduled departure pops as a
                // no-op.
                debug_assert!(
                    kind != Relocation::Rebalanced,
                    "rebalance pre-checked destination feasibility"
                );
                self.per_group[from].vms_killed += 1;
                (None, Duration::ZERO)
            }
        };
        self.group_of.insert(vm.0, dest);
        self.lifecycle_op(from, now, kind.trace(dest, copy));
        Ok(())
    }

    /// Runs the fixed fallback ladder over `order` (a pod's reachable
    /// groups, home first): pooled in the home group, the cross-pod
    /// BorrowedNeighbour rung (only with [`MultiPoolConfig::borrowing`]),
    /// pooled in the remaining groups, then — only when `allow_all_local` is
    /// on — all-local in the same order. Returns the landing group and
    /// summary, or `None` when no rung holds the VM. Arrivals and
    /// relocations share it, so a moved VM walks exactly the ladder a fresh
    /// arrival would.
    ///
    /// # Errors
    ///
    /// Propagates any error other than the expected placement failures
    /// (`PoolExhausted` and `NoFeasibleHost`).
    fn ladder(
        &mut self,
        order: &[usize],
        request: &VmRequest,
        now: Duration,
        allow_all_local: bool,
    ) -> Result<Option<(usize, PlacementSummary)>, PondError> {
        for (i, &g) in order.iter().enumerate() {
            let plan = self.planes[g].plan_pooled(request)?;
            if let Some(summary) = self.commit(g, request, Backing::Own(plan), now)? {
                return Ok(Some((g, summary)));
            }
            // The BorrowedNeighbour rung sits strictly between pooled-home
            // and the re-homing rungs: host locality is worth more than pool
            // locality, so a lease is tried before the VM moves pods.
            if i == 0 && order.len() > 1 && self.config.borrowing {
                if let Some(placed) = self.borrow(order, request, plan, now)? {
                    return Ok(Some(placed));
                }
            }
        }
        if allow_all_local {
            for &g in order {
                if let Some(summary) = self.commit(g, request, Backing::AllLocal, now)? {
                    return Ok(Some((g, summary)));
                }
            }
        }
        Ok(None)
    }

    /// Commits `backing` on group `g`'s plane: `None` when the plane has no
    /// host or pool for it. A refused lease goes straight back to its lender.
    fn commit(
        &mut self,
        g: usize,
        request: &VmRequest,
        backing: Backing,
        now: Duration,
    ) -> Result<Option<PlacementSummary>, PondError> {
        let (error, lease) = match self.planes.touch(g).place(request, backing, now) {
            Ok(summary) => return Ok(Some(summary)),
            Err(refused) => refused,
        };
        if let Some(lease) = lease {
            self.return_lease(lease, now)?;
        }
        match error {
            PondError::PoolExhausted { .. } | PondError::NoFeasibleHost { .. } => Ok(None),
            other => Err(other),
        }
    }

    /// The BorrowedNeighbour rung: keep the VM on a home-pod host and lease
    /// its pool share from the first reachable lender with capacity. `plan`
    /// is the home plane's plan from the failed pooled-home attempt, still
    /// valid because planning is pure and nothing has touched the home plane
    /// since. The lease is attributed to the home pod's synthetic cross-pod
    /// port on the lender, and the commit pins the VM on the home host with
    /// the borrowed slices.
    fn borrow(
        &mut self,
        order: &[usize],
        request: &VmRequest,
        plan: PooledPlan,
        now: Duration,
    ) -> Result<Option<(usize, PlacementSummary)>, PondError> {
        let home = order[0];
        // Borrowing only helps when the home plane *wants* pool slices and
        // has a host for the local share: a zero-pool plan or no feasible
        // host would fail identically with borrowed slices, after minting a
        // lease for nothing. The host found here is the one the commit picks:
        // only lender planes are touched in between.
        if plan.pool.is_zero() {
            return Ok(None);
        }
        let local = request.memory - plan.pool;
        let Some((host, _)) = self.planes[home].most_free_host().filter(|&(_, free)| free >= local)
        else {
            return Ok(None);
        };
        let port_host = self.topology.borrow_port_host(home, host as u16);
        for &lender in &order[1..] {
            // Only a pod wired to the home pod can lend it slices; `order`
            // may spill beyond the home pod's reach (the drain ladder).
            if lender == home || self.topology.borrow_hops(home, lender).is_none() {
                continue;
            }
            let lease = match self.planes.touch(lender).lend(lender, port_host, plan.pool, now) {
                Ok(lease) => lease,
                Err(PondError::PoolExhausted { .. }) => continue,
                Err(other) => return Err(other),
            };
            if let Some(summary) = self.commit(home, request, Backing::Lease(plan, lease), now)? {
                return Ok(Some((home, summary)));
            }
        }
        Ok(None)
    }

    /// Moves `group` to `state`, taking it into or out of the index's
    /// online set.
    fn set_state(&mut self, group: usize, state: GroupState) {
        self.group_state[group] = state;
        self.index.set_online(group, state.accepts_placements());
    }

    /// The end of every event, over only the groups it touched: the index
    /// re-files them, and the provisioning peaks sample the hosts that
    /// changed. That is bit-identical to sampling every host, because an
    /// unchanged host would only repeat its previous sample into the running
    /// maximum; the pool peak is resampled when assigned capacity may have
    /// grown (placements and lends mark the plane pool-dirty).
    fn settle_touched(&mut self) {
        let Replay { planes, index, per_group, peak_local, peak_host_pool, peak_total, .. } = self;
        planes.drain_touched(|group, plane| {
            let (local, host_pool) = (&mut peak_local[group], &mut peak_host_pool[group]);
            let total = &mut peak_total[group];
            let pool_dirty = index.refresh(group, plane, |i, host| {
                let (l, p) = (host.local_allocated(), host.pool_allocated());
                local[i] = local[i].max(l);
                host_pool[i] = host_pool[i].max(p);
                total[i] = total[i].max(l + p);
            });
            if pool_dirty {
                let outcome = &mut per_group[group];
                outcome.pool_peak = outcome.pool_peak.max(plane.pool().pool().assigned_capacity());
            }
        });
    }

    /// Fills `order` with `group`'s reachable groups that accept
    /// placements, in reach order.
    fn reachable_online(&self, group: usize, order: &mut Vec<usize>) {
        order.clear();
        order.extend(
            self.topology
                .reachable(group)
                .iter()
                .copied()
                .filter(|&g| self.group_state[g].accepts_placements()),
        );
    }

    /// Schedules the `Release` event of offlining in `group`'s pool that
    /// completes at `ready`.
    fn schedule_release(&mut self, group: usize, ready: Duration) {
        self.events.schedule_completion(ceil_secs(ready), CompletionKind::Release, group);
    }

    /// Hands a lease back to its lender, whose pool starts offlining the
    /// surviving slices at `at`.
    fn return_lease(&mut self, lease: SliceLease, at: Duration) -> Result<(), PondError> {
        let lender = lease.lender;
        if let Some(ready) = self.planes.touch(lender).release_lent(lease, at)? {
            self.schedule_release(lender, ready);
        }
        Ok(())
    }

    /// Completes a graceful decommission once nothing is left in flight: a
    /// `Draining` group becomes `Decommissioned` only when its last VM has
    /// been drained, its last pending async release has been delivered,
    /// *and* every slice it lent to other pods has been recalled — the
    /// slice ledger must be fully settled before the pod is struck off, or
    /// a late [`CompletionKind::Release`] (or a lease still held by a
    /// foreign VM) would free slices of a dead pool. Checked at the end of the
    /// decommission event and again after every release completion.
    fn finish_decommission_if_drained(&mut self, group: usize, now: Duration) {
        let plane = &self.planes[group];
        if self.group_state[group] == GroupState::Draining
            && plane.running_vms() == 0
            && plane.pool().pending_release().is_zero()
            && plane.lent_pool().is_zero()
        {
            self.set_state(group, GroupState::Decommissioned);
            self.per_group[group].groups_decommissioned += 1;
            self.lifecycle_op(group, now, LifecycleOpKind::DecommissionComplete);
        }
    }

    fn decided(
        &mut self,
        request: &VmRequest,
        home_group: usize,
        placed: Option<(u64, usize)>,
        rung: LadderRung,
        reason: FallbackReason,
    ) {
        if O::ENABLED {
            self.observer.on_decision(&DecisionTrace {
                time: request.arrival,
                vm: placed.map(|(vm, _)| vm),
                home_group,
                group: placed.map(|(_, group)| group),
                rung,
                reason,
                memory: request.memory,
                lifetime: request.lifetime,
            });
        }
    }

    fn lifecycle_op(&mut self, group: usize, now: Duration, kind: LifecycleOpKind) {
        if O::ENABLED {
            self.observer.on_lifecycle_op(&LifecycleTrace { time: now.as_secs(), group, kind });
        }
    }

    fn observe_snapshot(&mut self, time: u64) {
        let samples: Vec<GroupSample> = (0..self.planes.len())
            .map(|g| {
                let plane = &self.planes[g];
                GroupSample {
                    group: g,
                    state: self.group_state[g],
                    pool_free: plane.pool().available(),
                    pool_offlining: plane.pool().pending_release(),
                    pool_pinned: plane.pinned_pool(),
                    pool_live: plane.pool().pool().live_capacity(),
                    pool_lent: plane.lent_pool(),
                    pool_borrowed: plane.borrowed_pool(),
                    running_vms: plane.running_vms() as u64,
                    scheduled_vms: self.per_group[g].scheduled_vms,
                    vms_killed: self.per_group[g].vms_killed,
                    sum_total_peaks: self.peak_total[g].iter().copied().sum(),
                    sum_host_pool_peaks: self.peak_host_pool[g].iter().copied().sum(),
                    pool_peak: self.per_group[g].pool_peak,
                }
            })
            .collect();
        self.observer.on_snapshot(time, &samples);
    }

    /// Closes the books once the queue is drained: end-of-replay checks,
    /// per-group peaks, and the fleet aggregate.
    fn finish(mut self) -> MultiPoolOutcome {
        #[cfg(debug_assertions)]
        assert_fleet_conserved_full(&self.planes);
        for (group, outcome) in self.per_group.iter_mut().enumerate() {
            let plane = &self.planes[group];
            debug_assert_eq!(plane.running_vms(), 0, "group {group}: every VM must have departed");
            debug_assert!(
                plane.pool().pending_release().is_zero(),
                "group {group}: every release event must have been delivered"
            );
            debug_assert_eq!(
                self.degraded_of[group], 0,
                "group {group}: every copy must have completed"
            );
            debug_assert_eq!(
                self.migrating_of[group], 0,
                "group {group}: every migration copy must have completed"
            );
            debug_assert_eq!(
                outcome.migration_completions,
                outcome.vms_migrated + outcome.vms_drained + outcome.vms_rebalanced,
                "group {group}: one Migration completion per migration copy — \
                 failure evacuations, drains, and rebalances alike"
            );
            // A host held pool slices exactly when its pinned-pool peak is
            // non-zero.
            outcome.pooled_host_count =
                self.peak_host_pool[group].iter().filter(|peak| !peak.is_zero()).count() as u64;
            outcome.sum_local_peaks = self.peak_local[group].iter().copied().sum();
            outcome.sum_host_pool_peaks = self.peak_host_pool[group].iter().copied().sum();
            outcome.sum_total_peaks = self.peak_total[group].iter().copied().sum();
        }

        // The aggregate absorbs every per-group outcome field by field
        // (release, reconfig, and rejection counts are attributed to exactly
        // one group, so their sums equal the event totals), then overwrites
        // the two non-additive fields: shared snapshot ticks and the
        // fleet-wide peak.
        let mut fleet = FleetOutcome::default();
        for outcome in &self.per_group {
            fleet.absorb(outcome);
        }
        fleet.qos_passes = self.snapshot_ticks;
        fleet.peak_degraded_vms = self.peak_degraded_fleet;

        MultiPoolOutcome {
            fleet,
            per_group: self.per_group,
            cross_group_placements: self.cross_group_placements,
            scheduler: self.config.scheduler.name().to_string(),
            pod: self.config.pod,
        }
    }
}

/// Replays every configuration on the parallel [`sweep`] runner, each cell
/// over fresh sources from `make_source`. Each distinct
/// (`control.policy`, `seed`) pair trains its policy once from the stream's
/// prefix ([`PondPolicy::train_source`]), in first-occurrence order, and
/// every cell then replays the whole stream ([`run_multipool_source`]) on a
/// clone of its pair's policy: training is deterministic and an unused
/// clone equals a fresh train, so sharing changes no outcome. Outcomes come
/// back in `configs` order and each cell is deterministic for a fixed
/// stream, so the sweep is reproducible bit for bit — including between
/// `POND_SWEEP_THREADS=1` and the default thread count. A materialized trace
/// sweeps as `|| TraceCursor::new(&trace)`, bit-identical to
/// [`run_multipool_fleet`] per cell. `make_source` may run from several
/// threads at once.
///
/// # Errors
///
/// Propagates the first training, replay or stream error in `configs`
/// order; a cell whose policy failed to train reports that error.
pub fn multipool_sweep<S: ArrivalSource, F: Fn() -> S + Sync>(
    make_source: F,
    configs: &[MultiPoolConfig],
) -> Result<Vec<MultiPoolOutcome>, PondError> {
    let mut trainings = Vec::new();
    let training_of: Vec<usize> = configs
        .iter()
        .map(|config| {
            let key = (&config.control.policy, config.seed);
            trainings.iter().position(|known| *known == key).unwrap_or_else(|| {
                trainings.push(key);
                trainings.len() - 1
            })
        })
        .collect();
    let policies = sweep::parallel_map(&trainings, |_, &(policy, seed)| {
        PondPolicy::train_source(&make_source, policy, seed).map_err(PondError::from)
    });
    let results = sweep::parallel_map(configs, |cell, config| {
        let policy = policies[training_of[cell]].clone()?;
        run_multipool_source(make_source(), config, policy)
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};

    fn small_trace() -> ClusterTrace {
        TraceGenerator::new(ClusterConfig::small(), 1).generate(0)
    }

    fn config(pod: PodStyle, groups: u16, scheduler: GroupSchedulerKind) -> MultiPoolConfig {
        MultiPoolConfig::for_trace(&small_trace(), pod, groups, 0.20, scheduler, 7)
    }

    #[test]
    fn four_symmetric_groups_replay_with_conservation() {
        let trace = small_trace();
        let outcome = run_multipool_fleet(
            &trace,
            &config(PodStyle::Symmetric, 4, GroupSchedulerKind::RoundRobin),
        )
        .unwrap();
        assert_eq!(outcome.per_group.len(), 4);
        assert!(outcome.fleet.scheduled_vms > 0);
        assert!(outcome.fleet.pool_dram_fraction() > 0.0);
        // Round-robin spreads work: every group schedules something.
        for group in &outcome.per_group {
            assert!(group.scheduled_vms > 0, "{outcome:?}");
        }
        // Symmetric pods have no cross-group reach.
        assert_eq!(outcome.cross_group_placements, 0);
        assert_eq!(outcome.scheduler, "round-robin");
        // The aggregate is the sum of the per-group breakdowns.
        let scheduled: u64 = outcome.per_group.iter().map(|g| g.scheduled_vms).sum();
        assert_eq!(outcome.fleet.scheduled_vms, scheduled);
        let pool_peak: Bytes = outcome.per_group.iter().map(|g| g.pool_peak).sum();
        assert_eq!(outcome.fleet.pool_peak, pool_peak);
    }

    #[test]
    fn octopus_reach_enables_cross_group_placements() {
        let trace = small_trace();
        // Tiny pools force pool exhaustion in the home group, which the
        // octopus ring can absorb by borrowing the neighbour's pool.
        let mut symmetric = config(PodStyle::Symmetric, 4, GroupSchedulerKind::RoundRobin);
        symmetric.control.pool_capacity = Bytes::from_gib(16);
        let mut octopus = symmetric.clone();
        octopus.pod = PodStyle::Octopus;
        let sym = run_multipool_fleet(&trace, &symmetric).unwrap();
        let oct = run_multipool_fleet(&trace, &octopus).unwrap();
        assert_eq!(sym.cross_group_placements, 0);
        assert!(oct.cross_group_placements > 0, "octopus must borrow: {oct:?}");
        assert_eq!(oct.pod, PodStyle::Octopus);
        // Borrowing only ever happens under pool pressure: every cross-group
        // placement corresponds to a home group that could not serve the
        // VM, so the fleet still schedules essentially everything.
        assert!(oct.fleet.scheduled_vms > 0);
        assert!(
            oct.fleet.scheduled_vms + oct.fleet.rejected_vms
                == sym.fleet.scheduled_vms + sym.fleet.rejected_vms,
            "both topologies see the same arrival stream"
        );
    }

    #[test]
    fn schedulers_are_deterministic_and_distinct() {
        let trace = small_trace();
        let mut outcomes = Vec::new();
        for kind in GroupSchedulerKind::ALL {
            let a = run_multipool_fleet(&trace, &config(PodStyle::Symmetric, 4, kind)).unwrap();
            let b = run_multipool_fleet(&trace, &config(PodStyle::Symmetric, 4, kind)).unwrap();
            assert_eq!(a, b, "{kind:?} must be deterministic");
            assert_eq!(a.scheduler, kind.name());
            outcomes.push(a);
        }
        // The strategies genuinely schedule differently on this trace.
        assert!(
            outcomes.windows(2).any(|pair| pair[0].per_group != pair[1].per_group),
            "all three schedulers produced identical group loads"
        );
    }

    #[test]
    fn group_views_reflect_plane_state() {
        let trace = small_trace();
        let cfg = config(PodStyle::Symmetric, 2, GroupSchedulerKind::MostFreePool);
        let topology = cfg.group_topology().unwrap();
        assert_eq!(topology.group_count(), 2);
        let policy = PondPolicy::train(&trace, &cfg.control.policy, cfg.seed);
        let plane = PondControlPlane::with_policy(
            ControlPlaneConfig {
                hosts: topology.hosts_in(0),
                pool_capacity: topology.pool(0).total_capacity(),
                ..cfg.control.clone()
            },
            policy,
        )
        .unwrap();
        let view = GroupView::of(&plane, &trace.requests[0]);
        assert_eq!(view.pool_free, topology.pool(0).total_capacity());
        assert_eq!(view.running_vms, 0);
        assert_eq!(view.most_free_host, plane.hosts()[0].local_free());
        assert!(view.tightest_feasible.is_some());
    }

    #[test]
    fn invalid_shapes_are_rejected() {
        let trace = small_trace();
        // More groups than hosts (the small trace has 16 servers).
        let bad = config(PodStyle::Symmetric, 64, GroupSchedulerKind::RoundRobin);
        assert!(run_multipool_fleet(&trace, &bad).is_err());
    }

    fn drill(rate_per_day: f64) -> FailureDrillSpec {
        FailureDrillSpec { rate_per_day, kind: DrillKind::Emc, seed: 99 }
    }

    #[test]
    fn drill_plans_are_deterministic_and_respect_the_rate() {
        let topology =
            PoolGroupTopology::new(PodStyle::Octopus, 4, 16, 16, Bytes::from_gib(64)).unwrap();
        let a = plan_drill(&drill(2.0), 4 * 86_400, &topology);
        let b = plan_drill(&drill(2.0), 4 * 86_400, &topology);
        assert_eq!(a, b, "same spec must plan the same failures");
        assert!(!a.is_empty(), "2/day over 4 days should fire");
        for &(time, op) in &a {
            assert!(matches!(op, PlannedOp::EmcFailure { group, .. } if group < 4), "{op:?}");
            assert!(time < 4 * 86_400);
        }
        // Different seeds plan different schedules.
        let c = plan_drill(&FailureDrillSpec { seed: 100, ..drill(2.0) }, 4 * 86_400, &topology);
        assert_ne!(a, c);
        // Degenerate specs plan nothing.
        assert!(plan_drill(&drill(0.0), 4 * 86_400, &topology).is_empty());
        assert!(plan_drill(&drill(-1.0), 4 * 86_400, &topology).is_empty());
        assert!(plan_drill(&drill(2.0), 0, &topology).is_empty());
    }

    #[test]
    fn zero_rate_drill_is_bit_identical_to_no_drill() {
        let trace = small_trace();
        let plain = config(PodStyle::Octopus, 4, GroupSchedulerKind::RoundRobin);
        let zero = plain.clone().with_drill(drill(0.0));
        let a = run_multipool_fleet(&trace, &plain).unwrap();
        let b = run_multipool_fleet(&trace, &zero).unwrap();
        assert_eq!(a, b, "a zero-rate drill must not perturb the replay");
        assert_eq!(a.fleet.emc_failures, 0);
        assert_eq!(a.fleet.vms_killed, 0);
        assert_eq!(a.fleet.vms_migrated, 0);
        assert_eq!(a.fleet.availability(), 1.0);
    }

    #[test]
    fn drilled_replay_is_deterministic_and_survives_conservation() {
        let trace = small_trace();
        let cfg =
            config(PodStyle::Octopus, 4, GroupSchedulerKind::RoundRobin).with_drill(drill(4.0));
        let a = run_multipool_fleet(&trace, &cfg).unwrap();
        let b = run_multipool_fleet(&trace, &cfg).unwrap();
        assert_eq!(a, b, "drilled replays must be deterministic");
        assert!(a.fleet.emc_failures > 0, "4/day over 4 days must fire: {a:?}");
        // Every affected VM was either migrated or killed, and every
        // migration's copy window closed with a `Migration` completion.
        assert_eq!(a.fleet.migration_completions, a.fleet.vms_migrated);
        assert!(a.fleet.availability() <= 1.0);
        assert_eq!(
            a.fleet.evacuation_copy_time.is_zero(),
            a.fleet.vms_migrated == 0,
            "migrations charge copy time: {a:?}"
        );
    }

    fn plan(events: Vec<LifecycleEvent>) -> LifecyclePlan {
        LifecyclePlan { events }
    }

    #[test]
    fn an_empty_lifecycle_plan_is_bit_identical_to_no_plan() {
        let trace = small_trace();
        let cfg = config(PodStyle::Octopus, 4, GroupSchedulerKind::RoundRobin);
        let empty = cfg.clone().with_lifecycle(LifecyclePlan::default());
        let a = run_multipool_fleet(&trace, &cfg).unwrap();
        let b = run_multipool_fleet(&trace, &empty).unwrap();
        assert_eq!(a, b, "an empty lifecycle plan must not perturb the replay");
        assert_eq!(a.fleet.vms_drained, 0);
        assert_eq!(a.fleet.vms_rebalanced, 0);
        assert_eq!(a.fleet.emcs_repaired, 0);
        assert_eq!(a.fleet.groups_decommissioned, 0);
        assert_eq!(a.fleet.groups_expanded, 0);
    }

    #[test]
    fn repair_drills_plan_the_same_failure_schedule_as_plain_drills() {
        let topology =
            PoolGroupTopology::new(PodStyle::Octopus, 4, 16, 16, Bytes::from_gib(64)).unwrap();
        let with_repair =
            FailureDrillSpec { kind: DrillKind::EmcWithRepair { mttr_secs: 3_600 }, ..drill(2.0) };
        let failures = plan_drill(&drill(2.0), 4 * 86_400, &topology);
        let healed = plan_drill(&with_repair, 4 * 86_400, &topology);
        let (planned, repairs) = healed.split_at(failures.len());
        assert_eq!(planned, failures, "repairs must not perturb the failure schedule");
        assert_eq!(repairs.len(), failures.len(), "one repair per failure");
        for (&(failed, failure), &(repaired, repair)) in failures.iter().zip(repairs) {
            let PlannedOp::EmcFailure { group, emc } = failure else { panic!("{failure:?}") };
            assert_eq!(repaired, failed + 3_600);
            assert_eq!(repair, PlannedOp::Lifecycle(LifecycleOp::RepairEmc { group, emc }));
        }
    }

    #[test]
    fn repaired_drills_restore_capacity_mid_replay() {
        let trace = small_trace();
        let base = config(PodStyle::Octopus, 4, GroupSchedulerKind::RoundRobin);
        let plain = base.clone().with_drill(drill(4.0));
        let healed = base.with_drill(FailureDrillSpec {
            kind: DrillKind::EmcWithRepair { mttr_secs: 3_600 },
            ..drill(4.0)
        });
        let a = run_multipool_fleet(&trace, &healed).unwrap();
        let b = run_multipool_fleet(&trace, &healed).unwrap();
        assert_eq!(a, b, "repaired drills must be deterministic");
        let p = run_multipool_fleet(&trace, &plain).unwrap();
        assert_eq!(a.fleet.emc_failures, p.fleet.emc_failures, "same failure schedule");
        assert!(a.fleet.emc_failures > 0, "4/day over 4 days must fire: {a:?}");
        assert!(a.fleet.emcs_repaired > 0, "every failed device is replaced: {a:?}");
        assert!(a.fleet.emcs_repaired <= a.fleet.emc_failures);
    }

    #[test]
    fn decommission_drains_every_vm_without_kills() {
        let trace = small_trace();
        let cfg = config(PodStyle::Octopus, 4, GroupSchedulerKind::RoundRobin).with_lifecycle(
            plan(vec![LifecycleEvent {
                time: 86_400,
                op: LifecycleOp::DecommissionGroup { group: 2 },
            }]),
        );
        let a = run_multipool_fleet(&trace, &cfg).unwrap();
        let b = run_multipool_fleet(&trace, &cfg).unwrap();
        assert_eq!(a, b, "decommissions must be deterministic");
        assert_eq!(a.fleet.groups_decommissioned, 1, "{a:?}");
        assert!(a.fleet.vms_drained > 0, "a day of load leaves VMs to drain: {a:?}");
        assert_eq!(a.fleet.vms_killed, 0, "a graceful drain kills nothing: {a:?}");
        assert_eq!(a.fleet.migration_completions, a.fleet.vms_drained);
        // The drained group's pending async releases all landed before the
        // pod was struck off (the conservation debug-asserts above would
        // have tripped on any double-free).
        assert!(a.per_group[2].releases_completed > 0, "{a:?}");
        // Nothing lands in the group after the drain: it scheduled at most
        // a day's worth of the round-robin share.
        assert!(a.per_group[2].scheduled_vms < a.per_group[3].scheduled_vms, "{a:?}");
    }

    #[test]
    fn expansion_grows_the_pool_and_revives_a_decommissioned_group() {
        let trace = small_trace();
        let base = config(PodStyle::Octopus, 4, GroupSchedulerKind::RoundRobin);
        let decommission_only = base.clone().with_lifecycle(plan(vec![LifecycleEvent {
            time: 86_400,
            op: LifecycleOp::DecommissionGroup { group: 1 },
        }]));
        let replaced = base.with_lifecycle(plan(vec![
            LifecycleEvent { time: 86_400, op: LifecycleOp::DecommissionGroup { group: 1 } },
            LifecycleEvent {
                time: 2 * 86_400,
                op: LifecycleOp::ExpandGroup { group: 1, capacity: Bytes::from_gib(64) },
            },
        ]));
        let gone = run_multipool_fleet(&trace, &decommission_only).unwrap();
        let back = run_multipool_fleet(&trace, &replaced).unwrap();
        assert_eq!(back.fleet.groups_decommissioned, 1);
        assert_eq!(back.fleet.groups_expanded, 1);
        assert_eq!(gone.fleet.groups_expanded, 0);
        // The replacement pod takes arrivals again from day 2 on.
        assert!(
            back.per_group[1].scheduled_vms > gone.per_group[1].scheduled_vms,
            "revived group must schedule post-expansion arrivals: {back:?} vs {gone:?}"
        );
    }

    /// Replays the small trace on four pods with one lifecycle operation.
    fn replay_with(op: LifecycleOp) -> Result<MultiPoolOutcome, PondError> {
        let cfg = config(PodStyle::Octopus, 4, GroupSchedulerKind::RoundRobin)
            .with_lifecycle(plan(vec![LifecycleEvent { time: 3_600, op }]));
        run_multipool_fleet(&small_trace(), &cfg)
    }

    fn is_invalid_topology(result: Result<MultiPoolOutcome, PondError>) -> bool {
        matches!(result, Err(PondError::Hardware(CxlError::InvalidGroupTopology { .. })))
    }

    fn is_invalid_config(result: Result<MultiPoolOutcome, PondError>) -> bool {
        matches!(result, Err(PondError::InvalidConfig { .. }))
    }

    fn replay_drilled_at(rate_per_day: f64) -> Result<MultiPoolOutcome, PondError> {
        let cfg = config(PodStyle::Octopus, 4, GroupSchedulerKind::RoundRobin)
            .with_drill(drill(rate_per_day));
        run_multipool_fleet(&small_trace(), &cfg)
    }

    fn replay_rebalanced_at(starved_fraction: f64) -> Result<MultiPoolOutcome, PondError> {
        let cfg = config(PodStyle::Octopus, 4, GroupSchedulerKind::RoundRobin)
            .with_rebalance(RebalanceSpec { starved_fraction, max_moves_per_pass: 4 });
        run_multipool_fleet(&small_trace(), &cfg)
    }

    #[test]
    fn a_borrowing_fleet_too_large_for_port_ids_is_an_error() {
        // A borrow's port id runs up to 2 × hosts − 1, so 32,768 hosts is
        // the largest borrowing fleet. The replay refuses a larger one up
        // front, even on a trace with no arrival that would borrow.
        let shape = small_trace();
        let cfg = config(PodStyle::Octopus, 4, GroupSchedulerKind::RoundRobin);
        let policy = PondPolicy::train(&shape, &cfg.control.policy, cfg.seed);
        let replay = |servers: u32, groups: u16, borrowing: bool| {
            let empty = ClusterTrace {
                servers,
                requests: Vec::new(),
                cluster_id: shape.cluster_id,
                cores_per_server: shape.cores_per_server,
                dram_per_server: shape.dram_per_server,
                duration: shape.duration,
            };
            let scheduler = GroupSchedulerKind::RoundRobin;
            let cfg =
                MultiPoolConfig::for_trace(&empty, PodStyle::Octopus, groups, 0.20, scheduler, 7)
                    .with_borrowing(borrowing);
            run_multipool_source(TraceCursor::new(&empty), &cfg, policy.clone())
        };
        assert!(is_invalid_config(replay(40_000, 2_500, true)));
        assert!(is_invalid_config(replay(32_769, 16, true)));
        assert!(replay(32_768, 16, true).is_ok());
        assert!(replay(32_769, 16, false).is_ok(), "without borrowing no port id is minted");
    }

    #[test]
    fn servers_with_less_dram_than_the_private_partition_are_an_error() {
        // `for_header` gives each host its server's DRAM and keeps the
        // default 8 GiB hypervisor-private partition, so 4 GiB servers
        // cannot host it.
        let shape = small_trace();
        let cfg = config(PodStyle::Symmetric, 2, GroupSchedulerKind::RoundRobin);
        let policy = PondPolicy::train(&shape, &cfg.control.policy, cfg.seed);
        let replay = |dram_gib: u64| {
            let empty = ClusterTrace {
                requests: Vec::new(),
                dram_per_server: Bytes::from_gib(dram_gib),
                ..shape.clone()
            };
            let scheduler = GroupSchedulerKind::RoundRobin;
            let cfg =
                MultiPoolConfig::for_trace(&empty, PodStyle::Symmetric, 2, 0.20, scheduler, 7);
            run_multipool_source(TraceCursor::new(&empty), &cfg, policy.clone())
        };
        assert!(is_invalid_config(replay(4)));
        assert!(replay(8).is_ok());
    }

    #[test]
    fn a_mitigation_budget_outside_the_unit_interval_is_an_error() {
        let trace = small_trace();
        let mut cfg = config(PodStyle::Octopus, 4, GroupSchedulerKind::RoundRobin);
        let policy = PondPolicy::train(&trace, &cfg.control.policy, cfg.seed);
        for budget in [f64::NAN, 1.5, -0.1] {
            cfg.control.mitigation_budget = budget;
            let result = run_multipool_source(TraceCursor::new(&trace), &cfg, policy.clone());
            assert!(is_invalid_config(result), "budget {budget}");
        }
    }

    #[test]
    fn a_nan_drill_rate_is_an_error() {
        assert!(is_invalid_config(replay_drilled_at(f64::NAN)));
    }

    #[test]
    fn an_infinite_drill_rate_is_an_error() {
        assert!(is_invalid_config(replay_drilled_at(f64::INFINITY)));
    }

    #[test]
    fn a_negative_drill_rate_is_an_error() {
        assert!(is_invalid_config(replay_drilled_at(-1.0)));
    }

    #[test]
    fn a_nan_starved_fraction_is_an_error() {
        assert!(is_invalid_config(replay_rebalanced_at(f64::NAN)));
    }

    #[test]
    fn a_starved_fraction_above_one_is_an_error() {
        assert!(is_invalid_config(replay_rebalanced_at(1.5)));
    }

    #[test]
    fn a_negative_starved_fraction_is_an_error() {
        assert!(is_invalid_config(replay_rebalanced_at(-0.5)));
    }

    #[test]
    fn a_second_live_vm_with_one_id_is_a_stream_error() {
        let mut trace = small_trace();
        trace.requests[1].id = trace.requests[0].id;
        let cfg = config(PodStyle::Symmetric, 2, GroupSchedulerKind::RoundRobin);
        let result = run_multipool_fleet(&trace, &cfg);
        assert!(matches!(result, Err(PondError::TraceStream(_))), "{result:?}");
    }

    /// The stream error both replays, the engine and its reference oracle,
    /// return for `trace` on one group.
    fn refused_by_both_replays(trace: &ClusterTrace) -> String {
        let cfg = config(PodStyle::Symmetric, 1, GroupSchedulerKind::RoundRobin);
        let engine = run_multipool_fleet(trace, &cfg);
        let policy = PondPolicy::train(trace, &cfg.control.policy, cfg.seed);
        let reference = crate::fleet::run_fleet_reference(trace, &cfg, policy);
        match (engine, reference) {
            (Err(PondError::TraceStream(engine)), Err(PondError::TraceStream(reference))) => {
                assert_eq!(engine, reference);
                engine
            }
            other => panic!("both replays must refuse the trace: {other:?}"),
        }
    }

    #[test]
    fn a_request_without_cores_or_memory_is_a_stream_error() {
        let malformations: [fn(&mut VmRequest); 2] = [|r| r.cores = 0, |r| r.memory = Bytes::ZERO];
        for malform in malformations {
            let mut trace = small_trace();
            malform(trace.requests.last_mut().unwrap());
            let detail = refused_by_both_replays(&trace);
            assert!(detail.contains("zero"), "{detail}");
        }
    }

    #[test]
    fn a_departure_that_overflows_u64_is_a_stream_error() {
        let mut trace = small_trace();
        trace.requests.last_mut().unwrap().lifetime = u64::MAX;
        let detail = refused_by_both_replays(&trace);
        assert!(detail.contains("overflows"), "{detail}");
    }

    #[test]
    fn a_killed_vms_id_stays_taken_until_its_departure_pops() {
        // One group, decommissioned at 1 h: its drain finds no other group,
        // so every VM running then is killed. The first arrival lands on an
        // empty fleet, so it runs at 1 h, and its departure stays queued
        // for 2 h.
        let mut trace = small_trace();
        trace.requests[0].lifetime = 7_200;
        let killed = trace.requests[0].clone();
        let decommission =
            LifecycleEvent { time: 3_600, op: LifecycleOp::DecommissionGroup { group: 0 } };
        let cfg = config(PodStyle::Symmetric, 1, GroupSchedulerKind::RoundRobin)
            .with_lifecycle(plan(vec![decommission]));
        let reuse_at = |arrival: u64| {
            let mut trace = trace.clone();
            let at = trace.requests.partition_point(|r| r.arrival <= arrival);
            trace.requests.insert(at, VmRequest { arrival, ..killed.clone() });
            run_multipool_fleet(&trace, &cfg)
        };
        let before = reuse_at(5_400);
        assert!(
            matches!(&before, Err(PondError::TraceStream(detail)) if detail.contains("departs")),
            "{before:?}"
        );
        let after = reuse_at(7_260).unwrap();
        assert_eq!(after.fleet.groups_decommissioned, 1, "{after:?}");
        assert!(after.fleet.vms_killed > 0, "{after:?}");
        assert_eq!(after.fleet.vms_drained, 0, "{after:?}");
    }

    #[test]
    fn a_repair_in_a_group_past_the_fleet_is_an_error() {
        assert!(is_invalid_topology(replay_with(LifecycleOp::RepairEmc {
            group: 4,
            emc: EmcId(0)
        })));
    }

    #[test]
    fn a_decommission_of_a_group_past_the_fleet_is_an_error() {
        assert!(is_invalid_topology(replay_with(LifecycleOp::DecommissionGroup { group: 4 })));
    }

    #[test]
    fn an_expansion_of_a_group_past_the_fleet_is_an_error() {
        let op = LifecycleOp::ExpandGroup { group: usize::MAX, capacity: Bytes::from_gib(64) };
        assert!(is_invalid_topology(replay_with(op)));
    }

    #[test]
    fn rebalance_moves_vms_off_starved_pods_without_kills() {
        let trace = small_trace();
        // Tiny pools starve quickly; an aggressive spec then rebalances
        // almost every snapshot tick.
        let mut cfg = config(PodStyle::Octopus, 4, GroupSchedulerKind::RoundRobin);
        cfg.control.pool_capacity = Bytes::from_gib(16);
        let cfg =
            cfg.with_rebalance(RebalanceSpec { starved_fraction: 0.9, max_moves_per_pass: 4 });
        let a = run_multipool_fleet(&trace, &cfg).unwrap();
        let b = run_multipool_fleet(&trace, &cfg).unwrap();
        assert_eq!(a, b, "rebalancing must be deterministic");
        assert!(a.fleet.vms_rebalanced > 0, "starved pods must shed load: {a:?}");
        assert_eq!(a.fleet.vms_killed, 0, "a rebalance move can never kill: {a:?}");
        assert_eq!(a.fleet.migration_completions, a.fleet.vms_rebalanced);
        assert!(!a.fleet.evacuation_copy_time.is_zero(), "moves charge copy time");
    }

    /// Tiny pools on an octopus ring: the home pod exhausts quickly and the
    /// borrow rung has reachable lenders to lean on.
    fn borrow_pressure_config() -> MultiPoolConfig {
        let mut cfg = config(PodStyle::Octopus, 4, GroupSchedulerKind::RoundRobin);
        cfg.control.pool_capacity = Bytes::from_gib(16);
        cfg.with_borrowing(true)
    }

    #[test]
    fn borrowing_on_symmetric_pods_is_bit_identical_to_off() {
        let trace = small_trace();
        let base = config(PodStyle::Symmetric, 4, GroupSchedulerKind::RoundRobin);
        let off = run_multipool_fleet(&trace, &base).unwrap();
        let on = run_multipool_fleet(&trace, &base.clone().with_borrowing(true)).unwrap();
        // Symmetric pods reach no lender, so the rung can never fire and the
        // knob must be a pure no-op.
        assert_eq!(off, on);
        assert_eq!(on.fleet.vms_borrowed, 0);
        assert_eq!(on.fleet.borrowed_gib_hours, 0.0);
    }

    #[test]
    fn borrowing_keeps_the_host_home_while_slices_come_from_a_neighbour() {
        let trace = small_trace();
        let cfg = borrow_pressure_config();
        let a = run_multipool_fleet(&trace, &cfg).unwrap();
        let b = run_multipool_fleet(&trace, &cfg).unwrap();
        assert_eq!(a, b, "borrowed replays must be deterministic");
        assert!(a.fleet.vms_borrowed > 0, "tiny pools must force borrows: {a:?}");
        assert!(a.fleet.borrowed_gib_hours > 0.0, "{a:?}");
        // Borrowed GiB-hours are a subset of pooled GiB-hours.
        assert!(a.fleet.borrowed_gib_hours <= a.fleet.pool_gib_hours, "{a:?}");
        let borrowed: u64 = a.per_group.iter().map(|g| g.vms_borrowed).sum();
        assert_eq!(a.fleet.vms_borrowed, borrowed);
        // The borrow rung fires before re-homing, so pressure that the
        // re-home ladder previously absorbed now keeps VMs in their home
        // pod: strictly fewer cross-group placements than borrowing off.
        let off = run_multipool_fleet(&trace, &cfg.clone().with_borrowing(false)).unwrap();
        assert!(
            a.cross_group_placements < off.cross_group_placements,
            "borrowing must absorb re-homes: {} vs {}",
            a.cross_group_placements,
            off.cross_group_placements
        );
        assert_eq!(
            a.fleet.scheduled_vms + a.fleet.rejected_vms,
            off.fleet.scheduled_vms + off.fleet.rejected_vms,
            "both knob settings see the same arrival stream"
        );
    }

    #[test]
    fn borrowing_survives_composed_drills_with_conservation() {
        let trace = small_trace();
        // EMC failures, repairs, a decommission, and rebalancing all at
        // once, with cross-pod leases in flight: the per-event conservation
        // debug-asserts (including lent-slice accounting) run throughout.
        let cfg = borrow_pressure_config()
            .with_drill(FailureDrillSpec {
                rate_per_day: 4.0,
                kind: DrillKind::EmcWithRepair { mttr_secs: 3_600 },
                seed: 99,
            })
            .with_lifecycle(plan(vec![LifecycleEvent {
                time: 2 * 86_400,
                op: LifecycleOp::DecommissionGroup { group: 2 },
            }]))
            .with_rebalance(RebalanceSpec { starved_fraction: 0.5, max_moves_per_pass: 2 });
        let a = run_multipool_fleet(&trace, &cfg).unwrap();
        let b = run_multipool_fleet(&trace, &cfg).unwrap();
        assert_eq!(a, b, "drilled borrowed replays must be deterministic");
        assert!(a.fleet.vms_borrowed > 0, "{a:?}");
        assert!(a.fleet.emc_failures > 0, "{a:?}");
        assert_eq!(a.fleet.groups_decommissioned, 1, "{a:?}");
        assert_eq!(
            a.fleet.migration_completions,
            a.fleet.vms_migrated + a.fleet.vms_drained + a.fleet.vms_rebalanced,
            "{a:?}"
        );
    }

    /// Records the traces of the replay's repairs, decommission starts and
    /// expansions: `(time, group, operation)`.
    #[derive(Default)]
    struct OpLog(Vec<(u64, usize, &'static str)>);

    impl ReplayObserver for OpLog {
        fn on_lifecycle_op(&mut self, op: &LifecycleTrace) {
            let name = match op.kind {
                LifecycleOpKind::EmcRepair { .. } => "repair",
                LifecycleOpKind::DecommissionStarted { .. } => "decommission",
                LifecycleOpKind::Expansion { .. } => "expansion",
                _ => return,
            };
            self.0.push((op.time, op.group, name));
        }
    }

    #[test]
    fn same_instant_lifecycle_operations_apply_in_the_event_order() {
        // One instant, listed out of order: the expansion first, pod 3's
        // decommission before pod 1's. The replay repairs, then drains by
        // group, then expands.
        let trace = small_trace();
        let at = |op| LifecycleEvent { time: 86_400, op };
        let cfg = config(PodStyle::Octopus, 4, GroupSchedulerKind::RoundRobin).with_lifecycle(
            plan(vec![
                at(LifecycleOp::ExpandGroup { group: 0, capacity: Bytes::from_gib(32) }),
                at(LifecycleOp::DecommissionGroup { group: 3 }),
                at(LifecycleOp::RepairEmc { group: 2, emc: EmcId(0) }),
                at(LifecycleOp::DecommissionGroup { group: 1 }),
            ]),
        );
        let policy = PondPolicy::train(&trace, &cfg.control.policy, cfg.seed);
        let mut log = OpLog::default();
        run_multipool_source_observed(TraceCursor::new(&trace), &cfg, policy, &mut log).unwrap();
        assert_eq!(
            log.0,
            vec![
                (86_400, 2, "repair"),
                (86_400, 1, "decommission"),
                (86_400, 3, "decommission"),
                (86_400, 0, "expansion"),
            ]
        );
    }

    /// Records every drain the replay traces: `(group the VM left, dest)`.
    #[derive(Default)]
    struct DrainLog(Vec<(usize, Option<usize>)>);

    impl ReplayObserver for DrainLog {
        fn on_lifecycle_op(&mut self, op: &LifecycleTrace) {
            if let LifecycleOpKind::VmDrained { dest, .. } = op.kind {
                self.0.push((op.group, dest));
            }
        }
    }

    #[test]
    fn decommissioning_a_lender_recalls_its_leases() {
        let trace = small_trace();
        // Pod 2 is decommissioned on day 2 while pod 1 borrows from it: the
        // drain must recall that lease before the pod is struck off (the
        // end-of-replay asserts would trip on any leaked lease).
        let cfg = borrow_pressure_config().with_lifecycle(plan(vec![LifecycleEvent {
            time: 2 * 86_400,
            op: LifecycleOp::DecommissionGroup { group: 2 },
        }]));
        let policy = PondPolicy::train(&trace, &cfg.control.policy, cfg.seed);
        let mut drains = DrainLog::default();
        let a = run_multipool_source_observed(
            TraceCursor::new(&trace),
            &cfg,
            policy.clone(),
            &mut drains,
        )
        .unwrap();
        let b = run_multipool_source(TraceCursor::new(&trace), &cfg, policy).unwrap();
        assert_eq!(a, b, "lender decommissions must be deterministic");
        assert_eq!(a.fleet.groups_decommissioned, 1, "{a:?}");
        assert!(a.fleet.vms_borrowed > 0, "{a:?}");

        // A drain traced against any group but the decommissioned one is a
        // recalled lease, and it is charged to that borrower — the group
        // the VM ran in — not to the draining lender.
        let recalls: Vec<_> = drains.0.iter().filter(|&&(group, _)| group != 2).collect();
        assert!(!recalls.is_empty(), "a lease must be recalled: {:?}", drains.0);
        for (g, outcome) in a.per_group.iter().enumerate() {
            let moved = drains.0.iter().filter(|&&(group, dest)| group == g && dest.is_some());
            let killed = drains.0.iter().filter(|&&(group, dest)| group == g && dest.is_none());
            assert_eq!(outcome.vms_drained, moved.count() as u64, "group {g}: {a:?}");
            assert!(outcome.vms_killed >= killed.count() as u64, "group {g}: {a:?}");
            assert_eq!(
                outcome.migration_completions,
                outcome.vms_migrated + outcome.vms_drained + outcome.vms_rebalanced,
                "group {g}: one Migration completion per move, on the group the VM left: {a:?}"
            );
        }
        let recalled_from_1 = recalls.iter().filter(|&&&(group, _)| group == 1).count() as u64;
        assert!(recalled_from_1 > 0, "pod 1 borrows from pod 2: {:?}", drains.0);
        assert_eq!(
            a.per_group[1].vms_drained + a.per_group[1].vms_killed,
            recalled_from_1,
            "pod 1 is never decommissioned, so every drain or kill it counts is a recall: {a:?}"
        );
    }

    #[test]
    fn borrowing_runs_on_every_pod_style_with_reach() {
        let trace = small_trace();
        for pod in
            [PodStyle::Octopus, PodStyle::KRegular { k: 2 }, PodStyle::PodOfPods { cluster: 2 }]
        {
            let mut cfg = config(pod, 4, GroupSchedulerKind::RoundRobin);
            cfg.control.pool_capacity = Bytes::from_gib(16);
            let cfg = cfg.with_borrowing(true);
            let a = run_multipool_fleet(&trace, &cfg).unwrap();
            let b = run_multipool_fleet(&trace, &cfg).unwrap();
            assert_eq!(a, b, "{pod:?} borrowed replay must be deterministic");
            assert!(a.fleet.vms_borrowed > 0, "{pod:?} must borrow under pressure: {a:?}");
        }
    }

    #[test]
    fn lifecycle_sweeps_run_cells_in_order_and_deterministically() {
        let trace = small_trace();
        let plain = config(PodStyle::Octopus, 4, GroupSchedulerKind::RoundRobin);
        let configs = vec![
            plain.clone(),
            plain
                .clone()
                .with_drill(FailureDrillSpec {
                    rate_per_day: 4.0,
                    kind: DrillKind::EmcWithRepair { mttr_secs: 3_600 },
                    seed: 99,
                })
                .with_lifecycle(plan(vec![LifecycleEvent {
                    time: 86_400,
                    op: LifecycleOp::DecommissionGroup { group: 2 },
                }]))
                .with_rebalance(RebalanceSpec { starved_fraction: 0.15, max_moves_per_pass: 2 }),
        ];
        let a = multipool_sweep(|| TraceCursor::new(&trace), &configs).unwrap();
        let b = multipool_sweep(|| TraceCursor::new(&trace), &configs).unwrap();
        assert_eq!(a, b, "lifecycle sweeps must be deterministic");
        assert_eq!(a.len(), 2);
        assert_eq!(a[0], run_multipool_fleet(&trace, &configs[0]).unwrap());
        assert!(a[1].fleet.emc_failures > 0);
        assert_eq!(a[1].fleet.groups_decommissioned, 1);
    }
}
