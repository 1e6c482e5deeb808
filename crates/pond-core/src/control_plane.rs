//! The Pond control plane (Figure 11): VM scheduling with predictions, pool
//! memory onlining, QoS monitoring, and mitigation, wired to the concrete
//! hardware and hypervisor models.
//!
//! [`PondControlPlane`] manages a group of hosts attached to one CXL pool.
//! It is the piece the examples and integration tests drive end to end: a VM
//! request comes in, the prediction models pick a local/pool split, the Pool
//! Manager onlines slices, the hypervisor pins memory and exposes a zNUMA
//! node, and the QoS monitor later reconfigures VMs whose predictions turned
//! out wrong.

use crate::error::PondError;
use crate::policy::{PondDecision, PondPolicy, PondPolicyConfig};
use crate::pool_manager::PondPoolManager;
use crate::qos::{MitigationManager, QosDecision, VmObservation};
use cluster_sim::scheduler::align_pool_memory;
use cluster_sim::trace::{ClusterTrace, VmRequest};
use cxl_hw::emc::EmcConfig;
use cxl_hw::pool::SliceLease;
use cxl_hw::topology::PoolTopology;
use cxl_hw::units::{Bytes, EmcId, HostId};
use hypervisor_sim::host::HostMemory;
use hypervisor_sim::vm::{VmConfig, VmId};
use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Static configuration of a control-plane instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlPlaneConfig {
    /// Number of hosts sharing the pool (one per socket pair in the paper's
    /// terms; each host here is one hypervisor).
    pub hosts: u16,
    /// Local DRAM per host.
    pub local_dram_per_host: Bytes,
    /// Hypervisor-private partition per host.
    pub hypervisor_private: Bytes,
    /// Pool size in sockets (must be a supported Pond topology).
    pub pool_sockets: u16,
    /// Total pool capacity.
    pub pool_capacity: Bytes,
    /// Policy / model configuration.
    pub policy: PondPolicyConfig,
    /// Mitigations the manager may perform, as a fraction of its monitoring
    /// visits: every QoS pass counts each running VM once, so a VM running
    /// through `n` passes counts `n` times, not once.
    pub mitigation_budget: f64,
    /// Whether a request whose pool share cannot be covered by the free
    /// buffer falls back to an all-local placement (the production
    /// scheduler's behaviour) instead of failing with
    /// [`PondError::PoolExhausted`].
    pub fallback_all_local: bool,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        ControlPlaneConfig {
            hosts: 8,
            local_dram_per_host: Bytes::from_gib(256),
            hypervisor_private: Bytes::from_gib(8),
            pool_sockets: 16,
            pool_capacity: Bytes::from_gib(512),
            policy: PondPolicyConfig::default(),
            mitigation_budget: 0.05,
            fallback_all_local: false,
        }
    }
}

/// Summary of one VM placement returned to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementSummary {
    /// The VM's id.
    pub vm: VmId,
    /// Index of the host it landed on.
    pub host: usize,
    /// Local DRAM pinned for it.
    pub local: Bytes,
    /// Pool DRAM pinned for it (zNUMA size).
    pub pool: Bytes,
    /// Whether the VM sees a zNUMA node.
    pub has_znuma: bool,
    /// Whether the placement fell back to all-local memory because the pool
    /// buffer could not cover the predicted pool share
    /// ([`ControlPlaneConfig::fallback_all_local`]).
    pub fallback_all_local: bool,
    /// Index of the pool group the VM's slices were borrowed from (`None`
    /// when the home pool served them, or for all-local placements). Host
    /// and slices live in different pods exactly when this is set.
    pub borrowed_from: Option<usize>,
}

/// A pooled-placement decision not yet committed to a host or pool: the
/// Figure 13 prediction pipeline's output ([`PondControlPlane::plan_pooled`]).
/// One plan backs either commit of the same VM on the same plane —
/// [`Backing::Own`] from this plane's pool, or [`Backing::Lease`] from a
/// lender group's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PooledPlan {
    /// Pool share to online, aligned to whole 1 GiB slices.
    pub pool: Bytes,
    /// Predicted untouched memory handed to the QoS monitor.
    pub predicted_untouched: Bytes,
}

/// Where a placement's pool share comes from: the one choice
/// [`PondControlPlane::place`] commits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Backing {
    /// Slices of this plane's own pool, onlined for the plan's share.
    Own(PooledPlan),
    /// Slices another group's pool lent for the plan's share
    /// ([`PondControlPlane::lend`] on the lender). The VM's record keeps the
    /// lease, so departure, mitigation, and failure paths route the slices
    /// back to the lender.
    Lease(PooledPlan, SliceLease),
    /// No pool memory: the ladder's last rung, which bypasses the prediction
    /// models. The summary reports `fallback_all_local`.
    AllLocal,
}

/// What one QoS-monitoring pass did (returned by
/// [`PondControlPlane::run_qos_pass`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QosPassReport {
    /// VMs reconfigured to all-local memory in this pass.
    pub reconfigured: u64,
    /// Total pool→local copy time the reconfigurations charged (the VM runs
    /// degraded, not paused, during the copy).
    pub copy_time: Duration,
    /// One record per reconfigured VM.
    pub mitigated: Vec<VmMitigation>,
    /// Leases reclaimed from mitigated VMs whose slices were borrowed from
    /// another group's pool. This plane cannot start their offlining — the
    /// slices belong to the lender — so the caller must route each lease to
    /// the lender's [`PondControlPlane::release_lent`] at its `copy_done`
    /// instant. The matching [`VmMitigation::release_ready`] is `None`.
    pub borrowed_reclaims: Vec<BorrowedReclaim>,
}

/// A borrowed lease a QoS mitigation reclaimed, to be returned to the
/// lending group once the pool→local copy completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BorrowedReclaim {
    /// The mitigated VM.
    pub vm: VmId,
    /// The VM's scheduled departure time (seconds): the borrowed GiB-hours
    /// charged at arrival up to it are taken back.
    pub departure: u64,
    /// When the pool→local copy finishes — the lender-side release starts
    /// here, not at the mitigation instant.
    pub copy_done: Duration,
    /// The lease to hand back to `lease.lender`.
    pub lease: SliceLease,
}

/// What a departure or evacuation freed, split by owner (returned by
/// [`PondControlPlane::handle_departure_split`] and
/// [`PondControlPlane::evacuate_vm_split`]): this plane's own slices start
/// offlining here, while a borrowed lease must be routed back to its lender.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepartureOutcome {
    /// Completion time of this plane's own slice offlining (`None` for
    /// all-local VMs and VMs whose slices were all borrowed).
    pub release_ready: Option<Duration>,
    /// The lease the VM held on another group's pool, if any. The caller
    /// must pass it to the lender's [`PondControlPlane::release_lent`];
    /// dropping it would strand the slices in the lender's lent ledger.
    pub lease: Option<SliceLease>,
}

/// One QoS mitigation: which VM moved off pool memory, how much it moved,
/// when its degraded-mode copy window ends, and when the freed slices finish
/// offlining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmMitigation {
    /// The reconfigured VM.
    pub vm: VmId,
    /// The VM's scheduled departure time (seconds): the pool GiB-hours
    /// charged at arrival up to it are taken back.
    pub departure: u64,
    /// Pool memory copied to local DRAM.
    pub moved: Bytes,
    /// Completion time of the pool→local copy (50 ms per GiB): the VM runs
    /// degraded from the mitigation until this instant. Event-driven callers
    /// schedule a reconfiguration-done event here so snapshots observe the
    /// degraded-mode window.
    pub copy_done: Duration,
    /// Completion time of the asynchronous slice release the mitigation
    /// started (offlining begins once the copy finishes). Event-driven
    /// callers schedule a release event here. `None` only for VMs whose
    /// slices were already gone.
    pub release_ready: Option<Duration>,
}

/// What one EMC failure did to a control plane (returned by
/// [`PondControlPlane::handle_emc_failure`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmcFailureOutcome {
    /// The EMC that died.
    pub emc: EmcId,
    /// The running VMs that had memory on the device at the failure
    /// instant, in ascending VM-id order. Every one of them must be
    /// evacuated ([`PondControlPlane::evacuate_vm_split`]) or killed by the
    /// caller; they are still pinned on their hosts.
    pub affected: Vec<AffectedVm>,
    /// Slice ownerships (assigned or mid-release) lost with the device.
    pub slices_lost: u64,
    /// Of those, slices that were lent to VMs homed on *other* planes —
    /// the cross-pod half of the blast radius. The caller must run
    /// [`PondControlPlane::strip_borrowed`] against every other plane so
    /// the borrowers' leases drop the dead slices too.
    pub lent_slices_lost: u64,
}

/// One VM caught in an EMC failure's blast radius.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffectedVm {
    /// The affected VM.
    pub vm: VmId,
    /// Pool slices the VM held just before the failure (dead + surviving) —
    /// what its arrival-time GiB-hour accounting is still accruing.
    pub pool_before: Bytes,
    /// Pool slices the VM still holds on live EMCs after the failure.
    pub surviving_pool: Bytes,
}

/// Per-VM bookkeeping inside the control plane, boxed in
/// [`PondControlPlane`]'s running map: the replay's one record of a live
/// VM. Its host keeps only pinned sums, so the record is where the VM's
/// local/pool split lives (local is `request.memory - pool`).
#[derive(Debug, Clone)]
struct VmRecord {
    host: u16,
    /// Pool memory pinned on the host: the share placed, zero after a
    /// mitigation. An EMC failure strips `slices` but leaves this pin, so
    /// it is not derived from them.
    pool: Bytes,
    /// Slices served by this plane's own pool. Empty for all-local VMs and
    /// for VMs whose pool share was borrowed (`borrowed` holds those: a
    /// VM's slices come from exactly one pool).
    slices: Vec<cxl_hw::pool::PoolSlice>,
    /// Lease on another group's pool, when the home pool could not cover
    /// the share and a reachable neighbour lent its slices instead.
    borrowed: Option<SliceLease>,
    predicted_untouched: Bytes,
    /// The request the VM was placed for: the replay's one copy of it,
    /// handed back by an evacuation and read by the departure's completion.
    request: VmRequest,
    /// The QoS monitor's verdict on this VM: `None` until the VM's first
    /// [`PondControlPlane::run_qos_pass`] evaluates it, then reused at every
    /// later pass. The memo holds because the observation behind the verdict
    /// is a pure function of this record until a mitigation: the PMU
    /// counters are seeded by (workload, VM id), not by time; the predicted
    /// and observed untouched sizes come from the request; the pool share
    /// changes only through the mitigation itself, which sets the verdict to
    /// `ContinueMonitoring`, what a VM without pool memory evaluates to.
    /// Telemetry that varies over a VM's life would have to drop this memo.
    qos: Option<QosDecision>,
}

// A live VM's record is one heap allocation of at most this size on 64-bit
// targets. A new field must restate the budget here and in
// `tests/tests/live_vm_memory.rs`.
const _: () = assert!(std::mem::size_of::<VmRecord>() <= 152);

impl VmRecord {
    /// The QoS monitor's verdict on this VM, from a fresh PMU sample
    /// through the policy's sampler, the one the arrival-time decision
    /// reads.
    fn evaluate_qos(&self, policy: &PondPolicy) -> Result<QosDecision, PondError> {
        let workload = policy.workload(self.request.workload_index);
        let observation = VmObservation {
            counters: policy.sampler().sample(workload, self.request.id),
            pool_memory: self.pool,
            predicted_untouched: self.predicted_untouched,
            // Rented minus footprint, as `VirtualMachine::untouched_memory`.
            observed_untouched: self.request.memory.saturating_sub(workload.footprint),
        };
        policy
            .qos_monitor()
            .try_evaluate(&observation)
            .map_err(|e| PondError::Model { detail: e.to_string() })
    }
}

/// The Pond control plane for one pool group.
#[derive(Debug)]
pub struct PondControlPlane {
    config: ControlPlaneConfig,
    hosts: Vec<HostMemory>,
    pool: PondPoolManager,
    policy: PondPolicy,
    mitigation: MitigationManager,
    /// The running VMs by id, each record behind a pointer-sized handle: a
    /// B-tree leaf holds eleven ids and eleven handles, not eleven whole
    /// records, so its spare slots cost 8 B each instead of a record's size.
    /// The ascending-id walks (QoS budget, blast radius, drains, rebalances)
    /// read the map in key order either way.
    running: BTreeMap<u64, Box<VmRecord>>,
    rejected: u64,
    /// Incremental mirror of the slice count summed over
    /// `running[*].slices`, so [`PondControlPlane::pinned_pool`] — and with
    /// it the per-event conservation check — is O(1) instead of walking
    /// every running VM. Borrowed slices are *not* counted here: they sit
    /// in the lender's ledger (its `lent_slices`), never the borrower's.
    pinned_slices: u64,
    /// Slices of this plane's own pool currently lent to VMs homed on other
    /// planes. They are assigned in the pool state (under synthetic cross-pod
    /// port hosts) but appear in no local running record, so conservation
    /// reads `free + pending + pinned + lent == live` here.
    lent_slices: u64,
    /// Incremental mirror of the slice count summed over
    /// `running[*].borrowed` — this plane's VMs' footprint on *other*
    /// groups' pools. Pure bookkeeping for the fleet-level cross-check
    /// (`sum of borrowed-from-L over planes == L.lent_slices`); it does not
    /// enter the local conservation identity.
    borrowed_slices: u64,
    /// Hosts ordered by free local DRAM, lowest index first at equal free
    /// (via `Reverse`), so placement finds the most-free host in O(log
    /// hosts) instead of scanning them all. Mirrors the ordering of the
    /// fleet-wide `host_selection_key` with no core model.
    free_index: BTreeSet<(Bytes, Reverse<usize>)>,
    /// Hosts whose memory accounting changed since the last
    /// [`PondControlPlane::drain_touched`], deduplicated via `host_touched`.
    touched_hosts: Vec<usize>,
    host_touched: Vec<bool>,
    /// Whether the pool's assigned capacity may have grown since the last
    /// [`PondControlPlane::drain_touched`].
    pool_dirty: bool,
}

impl PondControlPlane {
    /// Builds a control plane: trains the prediction models on
    /// `training_trace` and provisions the hosts and pool.
    ///
    /// # Errors
    ///
    /// Same as [`PondControlPlane::with_policy`].
    pub fn new(
        training_trace: &ClusterTrace,
        config: ControlPlaneConfig,
        seed: u64,
    ) -> Result<Self, PondError> {
        let policy = PondPolicy::train(training_trace, &config.policy, seed);
        Self::with_policy(config, policy)
    }

    /// Builds a control plane around an already-trained policy. Multi-pool
    /// fleets ([`crate::multipool`]) train the models once and hand every
    /// group a clone of the policy. The plane's QoS monitor and workload
    /// suite are the policy's, so every clone reads one copy of the models,
    /// the suite and the training history, and a plane owns only the
    /// completions it records.
    ///
    /// # Errors
    ///
    /// Returns [`PondError::InvalidConfig`] if the mitigation budget is NaN
    /// or outside [0, 1] or the hypervisor-private partition is larger than
    /// a host's local DRAM, and a hardware error if the pool topology is
    /// unsupported.
    pub fn with_policy(config: ControlPlaneConfig, policy: PondPolicy) -> Result<Self, PondError> {
        let budget = config.mitigation_budget;
        if !(0.0..=1.0).contains(&budget) {
            let detail = format!("mitigation_budget {budget} is outside [0, 1]");
            return Err(PondError::InvalidConfig { detail });
        }
        if config.hypervisor_private > config.local_dram_per_host {
            let detail = format!(
                "hypervisor_private {} exceeds local_dram_per_host {}",
                config.hypervisor_private, config.local_dram_per_host
            );
            return Err(PondError::InvalidConfig { detail });
        }
        let topology = PoolTopology::pond_with_capacity(config.pool_sockets, config.pool_capacity)?;
        let hosts: Vec<HostMemory> = (0..config.hosts)
            .map(|_| HostMemory::new(config.local_dram_per_host, config.hypervisor_private))
            .collect();
        let free_index =
            hosts.iter().enumerate().map(|(i, h)| (h.local_free(), Reverse(i))).collect();
        let host_touched = vec![false; hosts.len()];
        Ok(PondControlPlane {
            mitigation: MitigationManager::new(budget),
            pool: PondPoolManager::new(&topology),
            hosts,
            policy,
            running: BTreeMap::new(),
            rejected: 0,
            pinned_slices: 0,
            lent_slices: 0,
            borrowed_slices: 0,
            free_index,
            touched_hosts: Vec::new(),
            host_touched,
            pool_dirty: false,
            config,
        })
    }

    /// Re-files a host in the free-DRAM index after its accounting changed
    /// (from `old_free` to its current `local_free`) and records it for
    /// [`PondControlPlane::drain_touched`].
    fn touch_host(&mut self, index: usize, old_free: Bytes) {
        let new_free = self.hosts[index].local_free();
        if new_free != old_free {
            self.free_index.remove(&(old_free, Reverse(index)));
            self.free_index.insert((new_free, Reverse(index)));
        }
        if !self.host_touched[index] {
            self.host_touched[index] = true;
            self.touched_hosts.push(index);
        }
    }

    /// Visits every host whose memory accounting changed since the last call
    /// and clears the set — the fleet replays' incremental peak tracking:
    /// sampling only touched hosts at event boundaries is bit-identical to
    /// sampling every host, because an untouched host would just repeat its
    /// previous sample into the running maximum.
    ///
    /// Returns whether the pool's assigned capacity may have grown since the
    /// last call (it only grows on placement), i.e. whether the caller needs
    /// to resample the pool peak.
    pub fn drain_touched(&mut self, mut visit: impl FnMut(usize, &HostMemory)) -> bool {
        for &index in &self.touched_hosts {
            self.host_touched[index] = false;
            visit(index, &self.hosts[index]);
        }
        self.touched_hosts.clear();
        std::mem::take(&mut self.pool_dirty)
    }

    /// The host with the most free local DRAM (lowest index at ties) and
    /// that amount, in O(log hosts). `None` only for a zero-host plane.
    pub fn most_free_host(&self) -> Option<(usize, Bytes)> {
        self.free_index.last().map(|&(free, Reverse(index))| (index, free))
    }

    /// The host with the *least* free local DRAM that still fits `memory`
    /// (lowest index at ties), in O(log hosts) — the tightest-fit probe.
    pub fn tightest_feasible_host(&self, memory: Bytes) -> Option<(usize, Bytes)> {
        self.free_index
            .range((memory, Reverse(usize::MAX))..)
            .next()
            .map(|&(free, Reverse(index))| (index, free))
    }

    /// The configuration in use.
    pub fn config(&self) -> &ControlPlaneConfig {
        &self.config
    }

    /// Number of VMs currently running.
    pub fn running_vms(&self) -> usize {
        self.running.len()
    }

    /// The request a running VM was placed for (`None` when it does not
    /// run here).
    pub(crate) fn request(&self, vm: VmId) -> Option<&VmRequest> {
        self.running.get(&vm.0).map(|record| &record.request)
    }

    /// Number of [`PondControlPlane::handle_request`] calls that failed with
    /// `NoFeasibleHost` or `PoolExhausted`. A refused
    /// [`PondControlPlane::place`] is not counted here: the multi-pool
    /// replay, which commits through `place` rung by rung, counts its
    /// rejections per group.
    pub fn rejected_vms(&self) -> u64 {
        self.rejected
    }

    /// The pool manager (for inspection).
    pub fn pool(&self) -> &PondPoolManager {
        &self.pool
    }

    /// The trained policy (for inspection).
    pub fn policy(&self) -> &PondPolicy {
        &self.policy
    }

    /// The hosts (for inspection).
    pub fn hosts(&self) -> &[HostMemory] {
        &self.hosts
    }

    /// Number of mitigations performed so far.
    pub fn mitigations(&self) -> u64 {
        self.mitigation.mitigated()
    }

    /// Handles a VM request end to end: prediction → host selection → pool
    /// onlining → memory pinning → zNUMA exposure.
    ///
    /// This is the two-rung ladder of the production scheduler:
    /// [`PondControlPlane::plan_pooled`] and [`PondControlPlane::place`]
    /// with [`Backing::Own`]; if the pool cannot cover the predicted share
    /// and [`ControlPlaneConfig::fallback_all_local`] is on, `place` again
    /// with [`Backing::AllLocal`]. Multi-pool fleets commit through `place`
    /// themselves, inserting cross-group rungs between the two.
    ///
    /// # Errors
    ///
    /// * [`PondError::NoFeasibleHost`] when no host has enough local DRAM.
    /// * [`PondError::PoolExhausted`] when the pool buffer cannot cover the
    ///   pool share and the all-local fallback is off.
    /// * Any other error of [`PondControlPlane::plan_pooled`] or
    ///   [`PondControlPlane::place`].
    pub fn handle_request(
        &mut self,
        request: &VmRequest,
        now: Duration,
    ) -> Result<PlacementSummary, PondError> {
        let pooled = self.plan_pooled(request).and_then(|plan| {
            self.place(request, Backing::Own(plan), now).map_err(|(error, _)| error)
        });
        let result = match pooled {
            Err(PondError::PoolExhausted { .. }) if self.config.fallback_all_local => {
                self.place(request, Backing::AllLocal, now).map_err(|(error, _)| error)
            }
            other => other,
        };
        if matches!(result, Err(PondError::NoFeasibleHost { .. } | PondError::PoolExhausted { .. }))
        {
            self.rejected += 1;
        }
        result
    }

    /// The Figure 13 prediction pipeline for one request, without touching
    /// any host or pool state. The plan is committed by
    /// [`PondControlPlane::place`], against this plane's own pool
    /// ([`Backing::Own`]) or a lender's ([`Backing::Lease`]).
    ///
    /// The decision reads only the policy (`try_decide` takes `&self`), so
    /// until a departure feeds the customer history again, re-planning the
    /// request would return the same plan.
    ///
    /// # Errors
    ///
    /// Returns [`PondError::Model`] when a prediction model rejects its
    /// feature row.
    pub fn plan_pooled(&self, request: &VmRequest) -> Result<PooledPlan, PondError> {
        // The validating decision path: a feature-schema drift in either
        // model propagates as `PondError::Model` instead of panicking the
        // replay mid sweep.
        let decision = self.policy.try_decide(request)?;
        let raw_pool = match decision {
            PondDecision::FullyPool => request.memory,
            PondDecision::Znuma { pool } => pool,
            PondDecision::AllLocal => Bytes::ZERO,
        };
        let pool = align_pool_memory(request, raw_pool);
        let predicted_untouched = match decision {
            PondDecision::Znuma { .. } => pool,
            _ => Bytes::ZERO,
        };
        Ok(PooledPlan { pool, predicted_untouched })
    }

    /// The one placement commit, for every rung of the fallback ladder:
    /// picks the most-free host that fits the local share, backs the pool
    /// share as `backing` says, pins the VM's memory, and exposes its zNUMA
    /// node.
    ///
    /// Host selection reads the free-DRAM index: hosts here have no core
    /// model, so the fleet-wide `host_selection_key` reduces to
    /// most-free-DRAM with a lowest-index tie-break, exactly the index's
    /// order. A plan's share is whole 1 GiB slices ([`align_pool_memory`]),
    /// so host-side byte accounting and EMC slice ownership stay in lockstep
    /// and the decision matches what the cluster simulator would apply for
    /// the same request.
    ///
    /// # Errors
    ///
    /// On any error the plane is left as it was, and the lease of a
    /// [`Backing::Lease`] comes back with the error: the caller must hand
    /// it to the lender's [`PondControlPlane::release_lent`].
    ///
    /// * [`PondError::HostMemory`] when the request asks for zero cores or
    ///   zero memory, its pool share exceeds its memory, or a VM with the
    ///   request's id already runs on this plane.
    /// * [`PondError::NoFeasibleHost`] when no host has the local share free.
    /// * [`PondError::PoolExhausted`] when the buffer this plane's pool
    ///   offers the chosen host cannot cover a [`Backing::Own`] share.
    pub fn place(
        &mut self,
        request: &VmRequest,
        backing: Backing,
        now: Duration,
    ) -> Result<PlacementSummary, (PondError, Option<SliceLease>)> {
        let fallback_all_local = matches!(backing, Backing::AllLocal);
        let (plan, lease) = match backing {
            Backing::Own(plan) => (plan, None),
            Backing::Lease(plan, lease) => {
                debug_assert_eq!(plan.pool, lease.capacity(), "the lease must cover the share");
                (plan, Some(lease))
            }
            Backing::AllLocal => {
                (PooledPlan { pool: Bytes::ZERO, predicted_untouched: Bytes::ZERO }, None)
            }
        };
        let config =
            VmConfig { cores: request.cores, memory: request.memory, pool_memory: plan.pool };
        if let Err(reason) = config.validate() {
            let error = PondError::HostMemory(format!("{}: {reason}", VmId(request.id)));
            return Err((error, lease));
        }
        if self.running.contains_key(&request.id) {
            let error = PondError::HostMemory(format!("{} is already running", VmId(request.id)));
            return Err((error, lease));
        }
        // Finish any offlining that has completed so the buffer is current.
        self.pool.process_releases(now);
        let (pool, local) = (plan.pool, request.memory - plan.pool);
        // The most-free host is feasible iff any host is: taking the index
        // maximum is identical to filtering on `local_free() >= local` and
        // minimizing the selection key over the survivors.
        let Some((host_index, old_free)) = self.most_free_host().filter(|&(_, free)| free >= local)
        else {
            return Err((PondError::NoFeasibleHost { vm: request.id }, lease));
        };
        // Borrowed slices live in the lender's ledger, never in this pool.
        let slices = match lease {
            Some(_) => Vec::new(),
            None => {
                self.pool.allocate(HostId(host_index as u16), pool, now).map_err(|e| (e, None))?
            }
        };

        // The Pool Manager onlined exactly the slices the VM pins.
        self.hosts[host_index].pin(local, pool).expect("the host fits the local share");
        self.touch_host(host_index, old_free);
        self.pinned_slices += slices.len() as u64;
        self.borrowed_slices += lease.as_ref().map_or(0, |lease| lease.slices.len() as u64);
        // Assigned pool capacity only grows here and in `lend`, so these are
        // the sites that force a pool-peak resample.
        self.pool_dirty = true;

        let summary = PlacementSummary {
            vm: VmId(request.id),
            host: host_index,
            local,
            pool,
            has_znuma: !pool.is_zero(),
            fallback_all_local,
            borrowed_from: lease.as_ref().map(|lease| lease.lender),
        };
        self.running.insert(
            request.id,
            Box::new(VmRecord {
                host: host_index as u16,
                pool,
                slices,
                borrowed: lease,
                predicted_untouched: plan.predicted_untouched,
                request: request.clone(),
                qos: None,
            }),
        );
        Ok(summary)
    }

    /// Onlines `amount` of this plane's own pool capacity on behalf of a VM
    /// homed on *another* plane — the lender side of a cross-pod borrow.
    /// The slices are attributed to the synthetic cross-pod port
    /// `port_host` ([`cxl_hw::topology::PoolGroupTopology::borrow_port_host`]),
    /// so they consume a real CXL port on this pool exactly like a local
    /// host would, and they are tracked in this plane's lent ledger until
    /// [`PondControlPlane::release_lent`] takes them back.
    ///
    /// `lender` is this plane's group index, recorded in the lease so every
    /// downstream path (departure routing, blast radius, decommission
    /// recall) knows whose pool to settle with.
    ///
    /// # Errors
    ///
    /// Returns [`PondError::PoolExhausted`] when the port-reachable free
    /// buffer cannot cover `amount` — the caller tries the next lender.
    pub fn lend(
        &mut self,
        lender: usize,
        port_host: HostId,
        amount: Bytes,
        now: Duration,
    ) -> Result<SliceLease, PondError> {
        self.pool.process_releases(now);
        let slices = self.pool.allocate(port_host, amount, now)?;
        self.lent_slices += slices.len() as u64;
        // Assigned capacity grew, so the caller must resample this plane's
        // pool peak even though no local VM was placed.
        self.pool_dirty = true;
        Ok(SliceLease { lender, port_host, slices })
    }

    /// Takes a lease's slices back into this plane's pool — the lender side
    /// of a borrowed VM's departure, mitigation, or recall — starting the
    /// same asynchronous offlining an own-pool departure would.
    ///
    /// Returns the offlining completion time (`None` when the lease had no
    /// surviving slices, e.g. after the lender lost the device under them).
    ///
    /// # Errors
    ///
    /// Propagates ownership errors from the hardware layer (a lease from a
    /// different plane's pool).
    pub fn release_lent(
        &mut self,
        lease: SliceLease,
        now: Duration,
    ) -> Result<Option<Duration>, PondError> {
        let slice_count = lease.slices.len() as u64;
        let ready = self.pool.release_async(lease.port_host, lease.slices, now)?;
        self.lent_slices -= slice_count;
        Ok(ready)
    }

    /// Strips slices lost on `lender`'s failed device `emc` from every
    /// lease this plane's VMs borrowed from that group — the cross-pod
    /// blast radius of a lender-pod EMC failure: VMs homed *here* degrade
    /// because a pod over there lost hardware. Returns the affected VMs in
    /// ascending id order, in the same shape as a local failure's blast
    /// radius, so the caller evacuates or kills them identically.
    pub fn strip_borrowed(&mut self, lender: usize, emc: EmcId) -> Vec<AffectedVm> {
        let mut affected = Vec::new();
        for (&id, record) in &mut self.running {
            let Some(lease) = record.borrowed.as_mut() else { continue };
            if lease.lender != lender {
                continue;
            }
            let before = lease.slices.len() as u64;
            lease.slices.retain(|s| s.emc != emc);
            let after = lease.slices.len() as u64;
            if after == before {
                continue;
            }
            self.borrowed_slices -= before - after;
            affected.push(AffectedVm {
                vm: VmId(id),
                pool_before: Bytes::from_gib(before),
                surviving_pool: Bytes::from_gib(after),
            });
        }
        affected
    }

    /// The VMs on this plane holding leases from group `lender`, in
    /// ascending id order with their borrowed footprint — the recall list a
    /// gracefully decommissioning lender must drain before its pool can go
    /// dark: draining a pod means taking back what it lent, not just moving
    /// what it runs.
    pub fn borrowers_of(&self, lender: usize) -> Vec<(VmId, Bytes)> {
        self.running
            .iter()
            .filter_map(|(&id, record)| {
                let lease = record.borrowed.as_ref()?;
                (lease.lender == lender).then(|| (VmId(id), lease.capacity()))
            })
            .collect()
    }

    /// Total slices this plane's VMs currently borrow from group `lender`,
    /// re-derived from the running records — the full-scan half of the
    /// fleet-level lent/borrowed cross-check.
    pub fn borrowed_from(&self, lender: usize) -> u64 {
        self.running
            .values()
            .filter_map(|record| record.borrowed.as_ref())
            .filter(|lease| lease.lender == lender)
            .map(|lease| lease.slices.len() as u64)
            .sum()
    }

    /// Capacity of this plane's own pool currently lent to VMs homed on
    /// other planes.
    pub fn lent_pool(&self) -> Bytes {
        Bytes::from_gib(self.lent_slices)
    }

    /// Capacity this plane's VMs currently hold on *other* groups' pools.
    pub fn borrowed_pool(&self) -> Bytes {
        Bytes::from_gib(self.borrowed_slices)
    }

    /// Handles a VM departure: unpins host memory, starts the asynchronous
    /// release of the VM's own pool slices, and feeds its measured untouched
    /// memory back into the policy's customer history. A borrowed lease is
    /// handed back in [`DepartureOutcome::lease`] for the caller to route to
    /// the lender's [`PondControlPlane::release_lent`].
    ///
    /// Event-driven callers schedule a release event at
    /// [`DepartureOutcome::release_ready`] (`None` for all-local VMs).
    ///
    /// # Errors
    ///
    /// Returns [`PondError::HostMemory`] when the VM is unknown, or when its
    /// host pins less than its record holds; the VM then stays running.
    pub fn handle_departure_split(
        &mut self,
        vm: VmId,
        now: Duration,
    ) -> Result<DepartureOutcome, PondError> {
        let (outcome, record) = self.remove_vm(vm, now)?;
        // Feed the observed outcome back into the policy's history: the VM's
        // lifetime access-bit scans are the ground truth for this customer.
        let request = &record.request;
        self.policy.record_completion(
            request.customer,
            request.untouched_fraction,
            request.workload_index,
        );
        Ok(outcome)
    }

    /// The teardown core shared by departures and evacuations: unpins the
    /// host memory, starts the asynchronous release of the VM's *own*
    /// slices, and returns any borrowed lease untouched for the caller to
    /// route. Does not feed the policy history — the callers decide whether
    /// the VM completed or merely moved.
    fn remove_vm(
        &mut self,
        vm: VmId,
        now: Duration,
    ) -> Result<(DepartureOutcome, Box<VmRecord>), PondError> {
        let Entry::Occupied(entry) = self.running.entry(vm.0) else {
            return Err(PondError::HostMemory(format!("{vm} is not running")));
        };
        let record = entry.get();
        let host = usize::from(record.host);
        let old_free = self.hosts[host].local_free();
        // A refused unpin changes nothing, so the record stays running.
        self.hosts[host]
            .unpin(record.request.memory - record.pool, record.pool)
            .map_err(|e| PondError::HostMemory(format!("{vm}: {e}")))?;
        let mut record = entry.remove();
        let slices = std::mem::take(&mut record.slices);
        let slice_count = slices.len() as u64;
        let ready = self.pool.release_async(HostId(record.host), slices, now)?;
        self.pinned_slices -= slice_count;
        let lease = record.borrowed.take();
        if let Some(lease) = &lease {
            self.borrowed_slices -= lease.slices.len() as u64;
        }
        self.touch_host(host, old_free);
        Ok((DepartureOutcome { release_ready: ready, lease }, record))
    }

    /// Evacuates a running VM off this plane (the relocation path of
    /// failures, drains, and rebalances): unpins its host memory, starts the
    /// asynchronous release of its *surviving* own slices, hands back any
    /// borrowed lease for the caller to route to the lender's
    /// [`PondControlPlane::release_lent`], and forgets the VM — without
    /// feeding the policy's completion history, because the VM is moving,
    /// not done. The VM's request comes back with the outcome, for the
    /// caller to re-place.
    ///
    /// # Errors
    ///
    /// Returns [`PondError::HostMemory`] when the VM is unknown, or when its
    /// host pins less than its record holds; the VM then stays running.
    pub fn evacuate_vm_split(
        &mut self,
        vm: VmId,
        now: Duration,
    ) -> Result<(DepartureOutcome, VmRequest), PondError> {
        let (outcome, record) = self.remove_vm(vm, now)?;
        Ok((outcome, record.request))
    }

    /// Handles the failure of one EMC behind this plane's pool at time
    /// `now`: computes the blast radius over the running VMs, tears down the
    /// device (slices, in-flight releases, ports — see
    /// [`PondPoolManager::fail_emc`]), and strips the dead slices from every
    /// affected VM's bookkeeping so the conservation invariant keeps holding
    /// against the shrunken live capacity.
    ///
    /// The affected VMs are left running — they lost pool memory, not their
    /// host — and are returned with their pre-failure pool footprint so the
    /// caller (the multi-pool replay's evacuation planner) can migrate or
    /// kill each one.
    ///
    /// # Errors
    ///
    /// Propagates [`cxl_hw::CxlError::UnknownEmc`] for unknown devices.
    pub fn handle_emc_failure(
        &mut self,
        emc: EmcId,
        _now: Duration,
    ) -> Result<EmcFailureOutcome, PondError> {
        // The Pool Manager tears the device down (and prunes its own
        // in-flight releases); the blast radius then falls out of the running
        // records directly — a VM is affected iff it holds a slice on the
        // dead device — and the dead slices are stripped in the same walk.
        let report = self.pool.fail_emc(emc)?;
        // Slices assigned to synthetic cross-pod ports (host ids beyond this
        // plane's own hosts) were lent out: their loss leaves the lent
        // ledger here, and the borrowers' leases shed them when the caller
        // runs `strip_borrowed` against the other planes.
        let lent_slices_lost =
            report.lost.iter().filter(|(host, _)| host.0 >= self.config.hosts).count() as u64;
        self.lent_slices -= lent_slices_lost;
        let mut affected = Vec::new();
        for (&id, record) in &mut self.running {
            let before = record.slices.len() as u64;
            record.slices.retain(|s| s.emc != emc);
            let after = record.slices.len() as u64;
            if after == before {
                continue;
            }
            self.pinned_slices -= before - after;
            affected.push(AffectedVm {
                vm: VmId(id),
                pool_before: Bytes::from_gib(before),
                surviving_pool: Bytes::from_gib(after),
            });
        }
        Ok(EmcFailureOutcome {
            emc,
            affected,
            slices_lost: report.lost.len() as u64,
            lent_slices_lost,
        })
    }

    /// Repairs (replaces) a failed EMC behind this plane's pool, returning
    /// the capacity that rejoined the free buffer ([`Bytes::ZERO`] for a
    /// healthy device). The device comes back empty — its assignments were
    /// torn down at failure time and its mid-offlining slices pruned — so
    /// free and live capacity grow by the same amount and
    /// [`PondControlPlane::assert_pool_conserved`] keeps holding across the
    /// repair.
    ///
    /// # Errors
    ///
    /// Propagates [`cxl_hw::CxlError::UnknownEmc`] for unknown devices.
    pub fn repair_emc(&mut self, emc: EmcId) -> Result<Bytes, PondError> {
        self.pool.restore_emc(emc)
    }

    /// Attaches `capacity` of new EMC hardware to this plane's pool live
    /// (a 16-socket Pond device racked into the pool), returning the new
    /// device's id. The capacity is immediately free for placements.
    pub fn expand_pool(&mut self, capacity: Bytes) -> EmcId {
        self.pool.attach_emc(EmcConfig::pond_16_socket(capacity))
    }

    /// The running VMs in ascending id order with their pinned pool
    /// footprint (zero for all-local VMs; borrowed slices count — they are
    /// pool-resident bytes an evacuation must copy, wherever they live) —
    /// the drain order of a graceful decommission and the candidate list of
    /// a proactive rebalance pass.
    pub fn running_vm_footprints(&self) -> Vec<(VmId, Bytes)> {
        self.running
            .iter()
            .map(|(&id, record)| {
                let borrowed =
                    record.borrowed.as_ref().map_or(0, |lease| lease.slices.len() as u64);
                (VmId(id), Bytes::from_gib(record.slices.len() as u64 + borrowed))
            })
            .collect()
    }

    /// Runs one QoS-monitoring pass over every running VM, in ascending id
    /// order, and applies mitigations within the budget.
    ///
    /// The monitor's verdict on a VM is evaluated at the VM's first pass and
    /// reused at its later ones: every input of the verdict is fixed until a
    /// mitigation, which sets it to `ContinueMonitoring`. The budget still
    /// counts every running VM on every pass.
    ///
    /// Each mitigation copies the VM's pool memory to local DRAM (50 ms per
    /// GiB charged to the report's `copy_time`) and only then starts the
    /// asynchronous release of the freed slices, so offlining begins at
    /// `now + copy_duration` on the event timeline.
    ///
    /// # Errors
    ///
    /// Returns [`PondError::Model`] when the sensitivity model rejects its
    /// feature row (schema drift between training and serving) — the same
    /// validating path the arrival-time decision takes, so one malformed
    /// row cannot panic a replay out of a QoS pass. Returns
    /// [`PondError::HostMemory`] when a VM to mitigate is pinned on its host
    /// with less pool memory than its record holds.
    pub fn run_qos_pass(&mut self, now: Duration) -> Result<QosPassReport, PondError> {
        self.qos_pass(now, |policy, record| match record.qos {
            Some(verdict) => Ok(verdict),
            None => {
                let verdict = record.evaluate_qos(policy)?;
                record.qos = Some(verdict);
                Ok(verdict)
            }
        })
    }

    /// The per-pass evaluation [`PondControlPlane::run_qos_pass`] replaced:
    /// every pass samples the PMU counters and asks the monitor again for
    /// every running VM. The oracle the memoized verdicts are checked
    /// against.
    #[cfg(test)]
    fn run_qos_pass_reference(&mut self, now: Duration) -> Result<QosPassReport, PondError> {
        self.qos_pass(now, |policy, record| record.evaluate_qos(policy))
    }

    /// One QoS pass with the verdict on each running VM taken from
    /// `verdict`: the budgeted mitigation and its bookkeeping.
    fn qos_pass(
        &mut self,
        now: Duration,
        mut verdict: impl FnMut(&PondPolicy, &mut VmRecord) -> Result<QosDecision, PondError>,
    ) -> Result<QosPassReport, PondError> {
        let mut pass = QosPassReport::default();
        // The records leave the plane for the walk, so a mitigation can
        // re-file its host through `touch_host`; they come back before an
        // error is returned.
        let mut running = std::mem::take(&mut self.running);
        let walked = running.iter_mut().try_for_each(|(&id, record)| {
            let decision = verdict(&self.policy, record)?;
            let host = usize::from(record.host);
            let old_free = self.hosts[host].local_free();
            let moved = record.pool;
            let applied = self.mitigation.apply(decision, &mut self.hosts[host], moved);
            let Some(copy) = applied.map_err(|e| PondError::HostMemory(format!("vm {id}: {e}")))?
            else {
                return Ok(());
            };
            record.pool = Bytes::ZERO;
            // The freed pool capacity goes back to the Pool Manager once the
            // pool→local copy has finished.
            let copy_done = now + copy;
            let departure = record.request.departure();
            let release_ready = if let Some(lease) = record.borrowed.take() {
                // Borrowed slices go back to the lender, not this pool: hand
                // the lease to the caller for routing once the copy completes.
                self.borrowed_slices -= lease.slices.len() as u64;
                let reclaim = BorrowedReclaim { vm: VmId(id), departure, copy_done, lease };
                pass.borrowed_reclaims.push(reclaim);
                None
            } else {
                let slices = std::mem::take(&mut record.slices);
                self.pinned_slices -= slices.len() as u64;
                self.pool
                    .release_async(HostId(record.host), slices, copy_done)
                    .expect("slices were allocated by this manager")
            };
            pass.mitigated.push(VmMitigation {
                vm: VmId(id),
                departure,
                moved,
                copy_done,
                release_ready,
            });
            record.predicted_untouched = Bytes::ZERO;
            record.qos = Some(QosDecision::ContinueMonitoring);
            pass.copy_time += copy;
            pass.reconfigured += 1;
            self.touch_host(host, old_free);
            Ok(())
        });
        self.running = running;
        walked.map(|()| pass)
    }

    /// Completes every pending slice release whose offlining has finished by
    /// `now`, returning the capacity that came back to the buffer. The
    /// event-driven fleet replay calls this when a release event fires.
    pub fn complete_releases(&mut self, now: Duration) -> Bytes {
        self.pool.process_releases(now)
    }

    /// Pool capacity currently pinned by running VMs, in whole slices.
    /// Served from the incremental counter in O(1);
    /// [`PondControlPlane::assert_pool_conserved_full`] cross-checks the
    /// counter against the running records.
    pub fn pinned_pool(&self) -> Bytes {
        Bytes::from_gib(self.pinned_slices)
    }

    /// Checks the pool-accounting conservation invariant: every slice of
    /// *live* pool capacity is exactly one of free-in-buffer, pinned by a
    /// running VM, mid-offlining, or lent to a VM homed on another plane —
    /// nothing is leaked or double-counted. The denominator is
    /// [`cxl_hw::pool::PoolState::live_capacity`], so the invariant keeps
    /// holding through EMC failures: a failed device's capacity leaves the
    /// ledger together with its slices (lent ones included).
    ///
    /// The check runs on the O(1) incremental counters, so the fleet replays
    /// can afford it after every event (in debug builds); the full scan that
    /// re-derives those counters from the per-VM and per-release records is
    /// [`PondControlPlane::assert_pool_conserved_full`], demoted to snapshot
    /// ticks and end of replay.
    ///
    /// # Panics
    ///
    /// Panics when the invariant is violated. The fleet replays debug-assert
    /// this after every event.
    pub fn assert_pool_conserved(&self) {
        let free = self.pool.available();
        let pending = self.pool.pending_release();
        let pinned = self.pinned_pool();
        let lent = self.lent_pool();
        let live = self.pool.pool().live_capacity();
        assert_eq!(
            free + pending + pinned + lent,
            live,
            "pool accounting must conserve capacity: free {free} + offlining {pending} \
             + pinned {pinned} + lent {lent} != live {live}"
        );
        assert_eq!(
            self.pool.pool().assigned_capacity(),
            pending + pinned + lent,
            "assigned capacity must equal pinned plus mid-release plus lent slices"
        );
    }

    /// The full conservation scan: re-derives the pinned and mid-release
    /// slice counts from the per-VM and per-release records, and every
    /// host's pinned local and pool sums from the running records,
    /// cross-checks the incremental counters (and the free-DRAM index)
    /// against them, and then checks the conservation invariant itself. The
    /// fleet replays run this at snapshot ticks and at end of replay; the
    /// O(1) [`PondControlPlane::assert_pool_conserved`] covers every other
    /// event.
    ///
    /// # Panics
    ///
    /// Panics when a counter, host sum or index drifted from the records it
    /// mirrors, or when the conservation invariant is violated.
    pub fn assert_pool_conserved_full(&self) {
        let pinned: u64 = self.running.values().map(|r| r.slices.len() as u64).sum();
        assert_eq!(
            Bytes::from_gib(pinned),
            self.pinned_pool(),
            "pinned-slice counter drifted from the running records"
        );
        let borrowed: u64 = self
            .running
            .values()
            .filter_map(|r| r.borrowed.as_ref())
            .map(|lease| lease.slices.len() as u64)
            .sum();
        assert_eq!(
            Bytes::from_gib(borrowed),
            self.borrowed_pool(),
            "borrowed-slice counter drifted from the running records' leases"
        );
        self.pool.assert_pending_conserved();
        let mut host_sums = vec![(Bytes::ZERO, Bytes::ZERO); self.hosts.len()];
        for record in self.running.values() {
            let (local, pool) = &mut host_sums[usize::from(record.host)];
            *local += record.request.memory - record.pool;
            *pool += record.pool;
        }
        assert_eq!(self.free_index.len(), self.hosts.len());
        for (index, host) in self.hosts.iter().enumerate() {
            assert_eq!(
                (host.local_allocated(), host.pool_allocated()),
                host_sums[index],
                "host {index}'s pinned sums drifted from the running records"
            );
            assert!(
                self.free_index.contains(&(host.local_free(), Reverse(index))),
                "free-DRAM index drifted for host {index}: {} not filed",
                host.local_free()
            );
        }
        self.assert_pool_conserved();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
    use proptest::prelude::*;

    fn setup() -> (ClusterTrace, PondControlPlane) {
        let trace = TraceGenerator::new(ClusterConfig::small(), 1).generate(0);
        let plane = PondControlPlane::new(&trace, ControlPlaneConfig::default(), 5).unwrap();
        (trace, plane)
    }

    #[test]
    fn requests_are_placed_and_depart_cleanly() {
        let (trace, mut plane) = setup();
        let mut placed = Vec::new();
        for request in trace.requests.iter().take(40) {
            match plane.handle_request(request, Duration::from_secs(request.arrival)) {
                Ok(summary) => {
                    assert!(summary.local + summary.pool == request.memory);
                    assert_eq!(summary.has_znuma, !summary.pool.is_zero());
                    placed.push(summary.vm);
                }
                Err(PondError::NoFeasibleHost { .. }) | Err(PondError::PoolExhausted { .. }) => {}
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(!placed.is_empty());
        assert_eq!(plane.running_vms(), placed.len());
        // Departure returns capacity.
        let before = plane.pool().available();
        for vm in &placed {
            let _ = plane.handle_departure_split(*vm, Duration::from_secs(1_000_000)).unwrap();
        }
        assert_eq!(plane.running_vms(), 0);
        // After the offlining delay, the buffer is at least as full as before.
        plane.pool().pending_release();
        plane.pool.process_releases(Duration::from_secs(2_000_000));
        assert!(plane.pool().available() >= before);
    }

    #[test]
    fn unknown_departure_is_an_error() {
        let (_, mut plane) = setup();
        assert!(plane.handle_departure_split(VmId(12345), Duration::ZERO).is_err());
    }

    #[test]
    fn the_mitigation_budget_counts_every_running_vm_at_every_pass() {
        let (trace, mut plane) = setup();
        for request in trace.requests.iter().take(60) {
            let _ = plane.handle_request(request, Duration::from_secs(request.arrival));
        }
        let running = plane.running_vms() as u64;
        assert!(running > 0);
        plane.run_qos_pass(Duration::from_secs(3600)).unwrap();
        assert_eq!(plane.mitigation.monitored(), running);
        plane.run_qos_pass(Duration::from_secs(7200)).unwrap();
        // The unit is the visit, not the VM: the same N VMs count 2N.
        assert_eq!(plane.running_vms() as u64, running);
        assert_eq!(plane.mitigation.monitored(), 2 * running);
    }

    #[test]
    fn qos_pass_runs_without_panicking_and_respects_the_budget() {
        let (trace, mut plane) = setup();
        for request in trace.requests.iter().take(60) {
            let _ = plane.handle_request(request, Duration::from_secs(request.arrival));
        }
        let running_before = plane.running_vms();
        let pass = plane.run_qos_pass(Duration::from_secs(3600)).unwrap();
        assert!(pass.reconfigured as usize <= running_before);
        assert_eq!(plane.mitigations(), pass.reconfigured);
        // Every mitigation charges its copy time and starts one release.
        assert_eq!(pass.mitigated.len() as u64, pass.reconfigured);
        for mitigation in &pass.mitigated {
            assert!(mitigation.moved > Bytes::ZERO);
            assert!(mitigation.release_ready.is_some());
        }
        assert_eq!(pass.copy_time.is_zero(), pass.reconfigured == 0);
        // Mitigated VMs stay running, just with all-local memory.
        assert_eq!(plane.running_vms(), running_before);
        plane.assert_pool_conserved();
    }

    #[test]
    fn pool_exhaustion_is_reported() {
        let trace = TraceGenerator::new(ClusterConfig::small(), 1).generate(0);
        let config = ControlPlaneConfig { pool_capacity: Bytes::from_gib(2), ..Default::default() };
        let mut plane = PondControlPlane::new(&trace, config, 6).unwrap();
        let mut exhausted = false;
        for request in trace.requests.iter().take(200) {
            if let Err(PondError::PoolExhausted { .. }) =
                plane.handle_request(request, Duration::from_secs(request.arrival))
            {
                exhausted = true;
                break;
            }
        }
        assert!(exhausted, "a 2 GiB pool must run out");
    }

    #[test]
    fn exhaustion_falls_back_to_all_local_when_enabled() {
        let trace = TraceGenerator::new(ClusterConfig::small(), 1).generate(0);
        let config = ControlPlaneConfig {
            pool_capacity: Bytes::from_gib(2),
            fallback_all_local: true,
            ..Default::default()
        };
        let mut plane = PondControlPlane::new(&trace, config, 6).unwrap();
        let mut fell_back = 0;
        for request in trace.requests.iter().take(200) {
            match plane.handle_request(request, Duration::from_secs(request.arrival)) {
                Ok(summary) => {
                    if summary.fallback_all_local {
                        assert_eq!(summary.pool, Bytes::ZERO);
                        assert_eq!(summary.local, request.memory);
                        assert!(!summary.has_znuma);
                        fell_back += 1;
                    }
                }
                Err(PondError::NoFeasibleHost { .. }) => {}
                Err(other) => panic!("fallback must prevent pool exhaustion: {other}"),
            }
            plane.assert_pool_conserved();
        }
        assert!(fell_back > 0, "a 2 GiB pool must force fallbacks");
    }

    #[test]
    fn emc_failure_reports_blast_radius_and_keeps_conservation() {
        let (trace, mut plane) = setup();
        let mut placed = Vec::new();
        for request in trace.requests.iter().take(60) {
            if let Ok(summary) = plane.handle_request(request, Duration::from_secs(request.arrival))
            {
                placed.push(summary);
            }
        }
        let pooled: Vec<_> = placed.iter().filter(|s| !s.pool.is_zero()).collect();
        assert!(!pooled.is_empty(), "the default plane must pool something");
        let running_before = plane.running_vms();

        // The default 16-socket pool has one EMC: failing it hits exactly
        // the pooled VMs.
        let now = Duration::from_secs(1_000);
        let outcome = plane.handle_emc_failure(EmcId(0), now).unwrap();
        assert_eq!(outcome.affected.len(), pooled.len());
        assert!(outcome.slices_lost > 0);
        for affected in &outcome.affected {
            assert!(affected.pool_before > Bytes::ZERO);
            // One EMC means nothing survives the failure.
            assert_eq!(affected.surviving_pool, Bytes::ZERO);
        }
        // Affected VMs keep running (they lost memory, not their host), the
        // pool's live capacity is gone, and conservation holds against it.
        assert_eq!(plane.running_vms(), running_before);
        assert_eq!(plane.pool().pool().live_capacity(), Bytes::ZERO);
        assert_eq!(plane.pinned_pool(), Bytes::ZERO);
        plane.assert_pool_conserved();

        // Evacuating an affected VM unpins its host memory; with no live
        // slices left there is nothing to release.
        let vm = outcome.affected[0].vm;
        let ready = plane.evacuate_vm_split(vm, now).unwrap().0.release_ready;
        assert_eq!(ready, None);
        assert_eq!(plane.running_vms(), running_before - 1);
        assert!(plane.evacuate_vm_split(vm, now).is_err(), "an evacuated VM is gone");
        plane.assert_pool_conserved();
        // A failed pool serves no further pooled placements, but all-local
        // re-homes still work.
        assert!(plane.place(&trace.requests[0], Backing::AllLocal, now).is_ok());
    }

    #[test]
    fn emc_failure_hits_only_the_vms_with_a_slice_on_that_emc() {
        use cxl_hw::pool::PoolSlice;
        // A 32-socket pool has four EMCs: a failure of one of them strips
        // exactly the VMs holding a slice there, and only those slices.
        let (trace, plane) = setup();
        let config = ControlPlaneConfig { pool_sockets: 32, ..plane.config().clone() };
        let mut plane = PondControlPlane::with_policy(config, plane.policy().clone()).unwrap();
        assert_eq!(plane.pool().pool().emc_count(), 4);
        for request in trace.requests.iter().take(60) {
            let _ = plane.handle_request(request, Duration::from_secs(request.arrival));
        }
        let before: BTreeMap<u64, Vec<PoolSlice>> =
            plane.running.iter().map(|(&id, record)| (id, record.slices.clone())).collect();
        // The EMC holding the first pooled VM's first slice; some pooled VM
        // must hold no slice there, or every pooled VM would be hit.
        let dead = before.values().find_map(|slices| slices.first()).expect("a pooled VM").emc;
        let on_dead = |slices: &[PoolSlice]| slices.iter().filter(|s| s.emc == dead).count();
        let hit: Vec<u64> =
            before.iter().filter(|(_, slices)| on_dead(slices) > 0).map(|(&id, _)| id).collect();
        let pooled = before.values().filter(|slices| !slices.is_empty()).count();
        assert!(hit.len() < pooled, "a partial blast radius needs a pooled VM elsewhere");

        let outcome = plane.handle_emc_failure(dead, Duration::from_secs(1_000)).unwrap();
        let affected: Vec<u64> = outcome.affected.iter().map(|a| a.vm.0).collect();
        assert_eq!(affected, hit, "exactly the VMs on the dead EMC, in ascending id order");
        assert_eq!(outcome.slices_lost, before.values().map(|s| on_dead(s) as u64).sum::<u64>());
        for vm in &outcome.affected {
            let slices = &before[&vm.vm.0];
            assert_eq!(vm.pool_before, Bytes::from_gib(slices.len() as u64));
            let survivors: Vec<_> = slices.iter().filter(|s| s.emc != dead).copied().collect();
            assert_eq!(vm.surviving_pool, Bytes::from_gib(survivors.len() as u64));
            assert_eq!(plane.running[&vm.vm.0].slices, survivors);
        }
        for (id, slices) in before.iter().filter(|(id, _)| !hit.contains(id)) {
            assert_eq!(&plane.running[id].slices, slices, "VM {id} keeps its slices");
        }
        plane.assert_pool_conserved();
    }

    #[test]
    fn evacuation_releases_surviving_slices_asynchronously() {
        let (trace, mut plane) = setup();
        let mut pooled_vm = None;
        for request in trace.requests.iter().take(60) {
            if let Ok(summary) = plane.handle_request(request, Duration::from_secs(request.arrival))
            {
                if !summary.pool.is_zero() {
                    pooled_vm = Some((summary.vm, summary.pool));
                    break;
                }
            }
        }
        let (vm, pool) = pooled_vm.expect("a pooled placement");
        let now = Duration::from_secs(500);
        let before = plane.pool().pending_release();
        let ready = plane
            .evacuate_vm_split(vm, now)
            .unwrap()
            .0
            .release_ready
            .expect("live slices must offline");
        assert!(ready > now, "offlining takes 10-100 ms/GiB");
        assert_eq!(plane.pool().pending_release(), before + pool);
        plane.assert_pool_conserved();
        plane.complete_releases(ready);
        assert_eq!(plane.pool().pending_release(), Bytes::ZERO);
        plane.assert_pool_conserved();
    }

    #[test]
    fn a_drained_vm_that_departs_normally_records_exactly_one_completion() {
        // The drain-vs-kill feedback contract: `evacuate_vm_split` deliberately
        // skips `record_completion` (correct for kills — the VM never
        // finished), but a VM drained off a decommissioning group and
        // re-placed elsewhere is still running, and when it later departs
        // normally its completion must feed the policy's customer history
        // exactly once — not zero times (the drain ate it) and not twice
        // (both planes recorded it).
        let (trace, mut source) = setup();
        let mut dest =
            PondControlPlane::with_policy(source.config().clone(), source.policy().clone())
                .unwrap();

        let request = trace
            .requests
            .iter()
            .find(|r| {
                source
                    .handle_request(r, Duration::from_secs(r.arrival))
                    .is_ok_and(|s| s.pool > Bytes::ZERO)
            })
            .expect("a pooled placement");
        let customer = request.customer;
        let before_source = source.policy().history().count(customer);
        let before_dest = dest.policy().history().count(customer);

        let now = Duration::from_secs(1_000);
        let (_, evacuated) = source.evacuate_vm_split(VmId(request.id), now).unwrap();
        assert_eq!(&evacuated, request, "the evacuation hands the request back");
        assert_eq!(
            source.policy().history().count(customer),
            before_source,
            "a drain is a move, not a completion"
        );

        dest.handle_request(request, now).unwrap();
        assert_eq!(
            dest.policy().history().count(customer),
            before_dest,
            "placement records nothing"
        );
        let _ = dest.handle_departure_split(VmId(request.id), Duration::from_secs(2_000)).unwrap();
        assert_eq!(
            dest.policy().history().count(customer),
            before_dest + 1,
            "the normal departure after a drain records exactly one completion"
        );
        source.assert_pool_conserved();
        dest.assert_pool_conserved();
    }

    #[test]
    fn clones_of_one_policy_share_the_trained_half_but_not_completions() {
        // Two planes built from clones of one trained policy read one copy
        // of the models, the suite and the seeded history, but a completion
        // recorded on one plane feeds that plane's history alone.
        let (trace, mut recorder) = setup();
        let bystander =
            PondControlPlane::with_policy(recorder.config().clone(), recorder.policy().clone())
                .unwrap();
        let request = trace
            .requests
            .iter()
            .find(|r| recorder.handle_request(r, Duration::from_secs(r.arrival)).is_ok())
            .expect("a placement");
        let customer = request.customer;
        let bits = |plane: &PondControlPlane| {
            let history = plane.policy().history();
            (history.count(customer), history.percentiles(customer).map(|p| p.map(f64::to_bits)))
        };
        let before = bits(&bystander);
        assert_eq!(bits(&recorder), before, "both start from the same seeded history");

        let _ = recorder.handle_departure_split(VmId(request.id), Duration::from_secs(2_000));
        assert_eq!(recorder.policy().history().count(customer), before.0 + 1);
        assert_eq!(bits(&bystander), before, "another plane's completion is not this plane's");
        assert!(recorder.policy().shares_trained_with(bystander.policy()));
    }

    fn with_budget(budget: f64) -> Result<PondControlPlane, PondError> {
        let (_, plane) = setup();
        let config = ControlPlaneConfig { mitigation_budget: budget, ..plane.config().clone() };
        PondControlPlane::with_policy(config, plane.policy().clone())
    }

    #[test]
    fn a_nan_mitigation_budget_is_an_error() {
        assert!(matches!(with_budget(f64::NAN), Err(PondError::InvalidConfig { .. })));
    }

    #[test]
    fn a_mitigation_budget_above_one_is_an_error() {
        let error = with_budget(1.5).unwrap_err();
        assert!(matches!(error, PondError::InvalidConfig { .. }), "{error}");
        assert!(error.to_string().contains("mitigation_budget 1.5"), "{error}");
    }

    #[test]
    fn a_negative_mitigation_budget_is_an_error() {
        assert!(matches!(with_budget(-0.1), Err(PondError::InvalidConfig { .. })));
        assert!(with_budget(0.0).is_ok() && with_budget(1.0).is_ok(), "the ends are valid");
    }

    #[test]
    fn a_private_partition_larger_than_local_dram_is_an_error() {
        // 4 GiB hosts under the default 8 GiB partition: an error, not the
        // panic `HostMemory::new` raises for a direct caller.
        let (_, plane) = setup();
        let config = ControlPlaneConfig {
            local_dram_per_host: Bytes::from_gib(4),
            hypervisor_private: Bytes::from_gib(8),
            ..plane.config().clone()
        };
        let Err(error) = PondControlPlane::with_policy(config.clone(), plane.policy().clone())
        else {
            panic!("the partition does not fit the host");
        };
        assert!(matches!(error, PondError::InvalidConfig { .. }), "{error}");
        assert!(
            error
                .to_string()
                .contains("hypervisor_private 8 GiB exceeds local_dram_per_host 4 GiB"),
            "{error}"
        );
        // A partition of all the DRAM is valid: the host rents nothing out.
        let config = ControlPlaneConfig { hypervisor_private: Bytes::from_gib(4), ..config };
        let plane = PondControlPlane::with_policy(config, plane.policy().clone()).unwrap();
        assert!(plane.hosts().iter().all(|h| h.local_free() == Bytes::ZERO));
    }

    #[test]
    fn emc_repair_restores_capacity_and_expansion_grows_it() {
        let (trace, mut plane) = setup();
        for request in trace.requests.iter().take(40) {
            let _ = plane.handle_request(request, Duration::from_secs(request.arrival));
        }
        let live_before = plane.pool().pool().live_capacity();
        let now = Duration::from_secs(1_000);
        plane.handle_emc_failure(EmcId(0), now).unwrap();
        assert_eq!(plane.pool().pool().live_capacity(), Bytes::ZERO);
        plane.assert_pool_conserved();

        let restored = plane.repair_emc(EmcId(0)).unwrap();
        assert_eq!(restored, live_before, "the replacement restores exactly live_capacity");
        assert_eq!(plane.pool().pool().live_capacity(), live_before);
        assert_eq!(plane.pool().available(), live_before, "the device comes back empty");
        plane.assert_pool_conserved();

        let id = plane.expand_pool(Bytes::from_gib(64));
        assert_ne!(id, EmcId(0));
        assert_eq!(plane.pool().pool().live_capacity(), live_before + Bytes::from_gib(64));
        plane.assert_pool_conserved();
    }

    #[test]
    fn pool_decisions_are_slice_aligned() {
        let (trace, mut plane) = setup();
        for request in trace.requests.iter().take(60) {
            if let Ok(summary) = plane.handle_request(request, Duration::from_secs(request.arrival))
            {
                assert_eq!(
                    summary.pool,
                    Bytes::from_gib(summary.pool.slices_floor()),
                    "pool shares are whole 1 GiB slices"
                );
            }
        }
    }

    /// Places the trace's first request that gets a pooled placement.
    fn place_first_pooled(trace: &ClusterTrace, plane: &mut PondControlPlane) -> VmRequest {
        trace
            .requests
            .iter()
            .find(|r| {
                plane.handle_request(r, Duration::from_secs(r.arrival)).is_ok_and(|s| s.has_znuma)
            })
            .expect("a pooled placement")
            .clone()
    }

    #[test]
    fn one_id_placed_twice_on_a_multi_host_plane_is_refused() {
        let (trace, mut plane) = setup();
        let request = place_first_pooled(&trace, &mut plane);
        let running = plane.running_vms();
        let now = Duration::from_secs(request.arrival);
        let error = plane.handle_request(&request, now).unwrap_err();
        assert!(matches!(error, PondError::HostMemory(_)), "{error}");
        assert_eq!(plane.running_vms(), running);
        plane.assert_pool_conserved_full();
    }

    #[test]
    fn one_id_placed_twice_on_a_one_host_plane_keeps_the_pool_conserved() {
        let trace = TraceGenerator::new(ClusterConfig::small(), 1).generate(0);
        let config = ControlPlaneConfig { hosts: 1, ..Default::default() };
        let mut plane = PondControlPlane::new(&trace, config, 5).unwrap();
        let request = place_first_pooled(&trace, &mut plane);
        let pinned = plane.pinned_pool();
        let plan = plane.plan_pooled(&request).unwrap();
        let now = Duration::from_secs(request.arrival);
        let (error, lease) = plane.place(&request, Backing::Own(plan), now).unwrap_err();
        assert!(matches!(error, PondError::HostMemory(_)), "{error}");
        assert!(lease.is_none());
        assert_eq!(plane.pinned_pool(), pinned);
        plane.assert_pool_conserved_full();
    }

    /// Places the trace's first pooled VM, then makes its host forget the
    /// VM's pool share, so the record and its host disagree. Returns the
    /// VM's request, its host and the share.
    fn place_and_unpin_its_pool(plane: &mut PondControlPlane) -> (VmRequest, usize, Bytes) {
        let trace = TraceGenerator::new(ClusterConfig::small(), 1).generate(0);
        let request = place_first_pooled(&trace, plane);
        let record = &plane.running[&request.id];
        let (host, pool) = (usize::from(record.host), record.pool);
        // The first pooled VM is the only one with pool memory on its host.
        plane.hosts[host].unpin(Bytes::ZERO, pool).unwrap();
        (request, host, pool)
    }

    #[test]
    fn a_departure_its_host_refuses_leaves_the_vm_running() {
        let (_, mut plane) = setup();
        let (request, host, pool) = place_and_unpin_its_pool(&mut plane);
        let (vm, now) = (VmId(request.id), Duration::from_secs(request.departure()));
        let error = plane.handle_departure_split(vm, now).unwrap_err();
        assert!(matches!(error, PondError::HostMemory(_)), "{error}");
        assert!(plane.request(vm).is_some(), "the record is still running");
        // With the share pinned again, the departure goes through.
        plane.hosts[host].pin(Bytes::ZERO, pool).unwrap();
        let outcome = plane.handle_departure_split(vm, now).unwrap();
        assert!(outcome.release_ready.is_some(), "its slices start offlining");
        assert!(plane.request(vm).is_none());
        plane.assert_pool_conserved_full();
    }

    #[test]
    fn a_mitigation_its_host_refuses_fails_the_qos_pass() {
        let (_, mut plane) = setup();
        let (request, _, _) = place_and_unpin_its_pool(&mut plane);
        // The monitor's verdict on the VM is to mitigate it.
        plane.running.get_mut(&request.id).unwrap().qos = Some(QosDecision::Mitigate);
        let running = plane.running_vms();
        let error = plane.run_qos_pass(Duration::from_secs(request.arrival)).unwrap_err();
        assert!(matches!(error, PondError::HostMemory(_)), "{error}");
        assert_eq!(plane.running_vms(), running, "the pass put the records back");
        assert_eq!(plane.mitigations(), 0);
    }

    #[test]
    fn a_request_for_zero_cores_or_zero_memory_is_an_error() {
        let (trace, mut plane) = setup();
        let now = Duration::from_secs(60);
        for request in [
            VmRequest { cores: 0, ..trace.requests[0].clone() },
            VmRequest { memory: Bytes::ZERO, ..trace.requests[0].clone() },
        ] {
            let (error, lease) = plane.place(&request, Backing::AllLocal, now).unwrap_err();
            assert!(matches!(error, PondError::HostMemory(_)), "{error}");
            assert!(lease.is_none());
            assert_eq!(plane.running_vms(), 0);
            assert!(plane.hosts().iter().all(|h| h.local_allocated() == Bytes::ZERO));
        }
        plane.assert_pool_conserved_full();
    }

    #[test]
    fn a_lease_that_fits_no_host_comes_back_with_the_error() {
        let (trace, mut lender) = setup();
        let mut home =
            PondControlPlane::with_policy(lender.config().clone(), lender.policy().clone())
                .unwrap();
        // Far more memory than any host has, with a one-slice pool share.
        let request = VmRequest { memory: Bytes::from_gib(1024), ..trace.requests[0].clone() };
        let plan = PooledPlan { pool: Bytes::from_gib(1), predicted_untouched: Bytes::ZERO };
        let now = Duration::from_secs(60);
        // A port id past the lender's own hosts, as a cross-pod borrow uses.
        let port_host = HostId(lender.config().hosts);
        let lease = lender.lend(0, port_host, plan.pool, now).unwrap();
        let (error, returned) =
            home.place(&request, Backing::Lease(plan, lease.clone()), now).unwrap_err();
        assert_eq!(error, PondError::NoFeasibleHost { vm: request.id });
        assert_eq!(returned.as_ref(), Some(&lease));
        assert_eq!(home.running_vms(), 0);
        assert_eq!(home.borrowed_pool(), Bytes::ZERO);
        assert_eq!(lender.lent_pool(), plan.pool, "the lease is still out");
        lender.release_lent(lease, now).unwrap();
        lender.assert_pool_conserved_full();
        home.assert_pool_conserved_full();
    }

    /// The small trace and the policy trained on it, shared by every case of
    /// the QoS oracle: each case clones the policy, so each starts from the
    /// same seeded history.
    fn qos_oracle_setup() -> &'static (ClusterTrace, PondPolicy) {
        static TRAINED: std::sync::OnceLock<(ClusterTrace, PondPolicy)> =
            std::sync::OnceLock::new();
        TRAINED.get_or_init(|| {
            let trace = TraceGenerator::new(ClusterConfig::small(), 1).generate(0);
            let policy = PondPolicy::train(&trace, &PondPolicyConfig::default(), 5);
            (trace, policy)
        })
    }

    /// One side of the QoS oracle: the plane under test and the lender its
    /// borrowed placements draw on.
    struct Side {
        plane: PondControlPlane,
        lender: PondControlPlane,
    }

    impl Side {
        /// Routes a lease the plane handed back to its lender.
        fn settle(&mut self, lease: Option<SliceLease>, now: Duration) {
            if let Some(lease) = lease {
                self.lender.release_lent(lease, now).unwrap();
            }
        }

        /// Places `request` on pool slices the lender lends for its plan; a
        /// plan with no pool share goes through `handle_request` instead.
        fn place_borrowed(
            &mut self,
            request: &VmRequest,
            now: Duration,
        ) -> Result<PlacementSummary, PondError> {
            let plan = self.plane.plan_pooled(request)?;
            if plan.pool.is_zero() {
                return self.plane.handle_request(request, now);
            }
            let port_host = HostId(self.plane.config().hosts);
            let lease = self.lender.lend(0, port_host, plan.pool, now)?;
            self.plane.place(request, Backing::Lease(plan, lease), now).map_err(|(error, lease)| {
                self.settle(lease, now);
                error
            })
        }

        fn depart(&mut self, vm: VmId, now: Duration) -> Result<Option<Duration>, PondError> {
            let outcome = self.plane.handle_departure_split(vm, now)?;
            self.settle(outcome.lease, now);
            Ok(outcome.release_ready)
        }

        fn evacuate(&mut self, vm: VmId, now: Duration) -> Result<Option<Duration>, PondError> {
            let (outcome, _) = self.plane.evacuate_vm_split(vm, now)?;
            self.settle(outcome.lease, now);
            Ok(outcome.release_ready)
        }

        /// The state every step compares across the two sides.
        fn state(&self) -> (u64, Bytes, Bytes, Bytes, Vec<Bytes>) {
            let plane = &self.plane;
            let free = plane.hosts().iter().map(HostMemory::local_free).collect();
            let lent = self.lender.lent_pool();
            (plane.mitigations(), plane.pinned_pool(), plane.borrowed_pool(), lent, free)
        }
    }

    proptest! {
        /// Two planes built alike go through one random schedule of arrivals
        /// (own, borrowed and all-local, fresh ids and ids placed again),
        /// departures, EMC failures with evacuations, repairs and QoS passes
        /// at random times; one runs the memoized pass, the other evaluates
        /// every VM at every pass. Small hosts make some mitigations fail
        /// for want of local DRAM, and the budget is 0, 1%, 5% or 100%.
        /// Every step must leave the two planes alike, and every plane's
        /// counters and host sums equal to a recount of its records.
        #[test]
        fn memoized_qos_passes_match_the_per_pass_evaluation(
            (hosts, local_gib, pool_gib) in (1u16..5, 16u64..128, 1u64..96),
            (switched, budget, fallback) in (proptest::bool::ANY, 0usize..4, proptest::bool::ANY),
            steps in proptest::collection::vec((0u8..12, 0u64..1 << 32, 0u64..1 << 32), 1..80),
        ) {
            let (trace, policy) = qos_oracle_setup();
            let config = ControlPlaneConfig {
                hosts,
                local_dram_per_host: Bytes::from_gib(local_gib),
                hypervisor_private: Bytes::from_gib(2),
                pool_sockets: if switched { 32 } else { 16 },
                pool_capacity: Bytes::from_gib(pool_gib),
                mitigation_budget: [0.0, 0.01, 0.05, 1.0][budget],
                fallback_all_local: fallback,
                ..ControlPlaneConfig::default()
            };
            let side = || {
                let plane = || PondControlPlane::with_policy(config.clone(), policy.clone()).unwrap();
                Side { plane: plane(), lender: plane() }
            };
            let (mut memo, mut oracle) = (side(), side());
            let emcs = if switched { 4 } else { 1 };
            let mut now = Duration::ZERO;
            let mut running: Vec<u64> = Vec::new();
            let mut gone: Vec<u64> = Vec::new();
            let mut fresh = 0..;
            for (kind, a, b) in steps {
                now += Duration::from_secs(b % 7_200);
                match kind {
                    // An arrival: the trace's request under a fresh id or one
                    // that ran here before, at its own size or a random one.
                    0..=4 => {
                        let template = &trace.requests[a as usize % trace.requests.len()];
                        let reuse = kind >= 3 && !gone.is_empty();
                        let id = if reuse {
                            gone.swap_remove(b as usize % gone.len())
                        } else {
                            fresh.next().unwrap()
                        };
                        let memory = if b & 2 == 0 {
                            template.memory
                        } else {
                            Bytes::from_gib(1 + (b >> 8) % 48)
                        };
                        let request = VmRequest { id, memory, ..template.clone() };
                        let place = |side: &mut Side| match kind {
                            2 => side.place_borrowed(&request, now),
                            _ => side.plane.handle_request(&request, now),
                        };
                        let placed = place(&mut memo);
                        prop_assert_eq!(&placed, &place(&mut oracle));
                        if placed.is_ok() {
                            running.push(id);
                        } else {
                            gone.push(id);
                        }
                    }
                    5 if !running.is_empty() => {
                        let vm = VmId(running.swap_remove(a as usize % running.len()));
                        prop_assert_eq!(memo.depart(vm, now), oracle.depart(vm, now));
                        gone.push(vm.0);
                    }
                    6..=8 => {
                        let pass = memo.plane.run_qos_pass(now).unwrap();
                        let reference = oracle.plane.run_qos_pass_reference(now).unwrap();
                        prop_assert_eq!(&pass, &reference);
                        for (side, pass) in [(&mut memo, pass), (&mut oracle, reference)] {
                            for reclaim in pass.borrowed_reclaims {
                                side.settle(Some(reclaim.lease), reclaim.copy_done);
                            }
                        }
                    }
                    // A failure, then the evacuation of a random share of
                    // its blast radius; the rest keep running on what
                    // survived.
                    9 => {
                        let emc = EmcId((a % emcs) as u16);
                        let failed = memo.plane.handle_emc_failure(emc, now);
                        prop_assert_eq!(&failed, &oracle.plane.handle_emc_failure(emc, now));
                        let affected = failed.map(|failure| failure.affected).unwrap_or_default();
                        for (bit, affected) in affected.iter().enumerate() {
                            if b >> (bit % 32) & 1 == 1 {
                                let vm = affected.vm;
                                prop_assert_eq!(memo.evacuate(vm, now), oracle.evacuate(vm, now));
                                running.retain(|&id| id != vm.0);
                                gone.push(vm.0);
                            }
                        }
                    }
                    10 => {
                        let emc = EmcId((a % emcs) as u16);
                        prop_assert_eq!(memo.plane.repair_emc(emc), oracle.plane.repair_emc(emc));
                    }
                    _ => {
                        prop_assert_eq!(
                            memo.plane.complete_releases(now),
                            oracle.plane.complete_releases(now)
                        );
                    }
                }
                prop_assert_eq!(memo.state(), oracle.state());
                for side in [&memo, &oracle] {
                    side.plane.assert_pool_conserved_full();
                    side.lender.assert_pool_conserved_full();
                }
            }
        }
    }

    #[test]
    fn all_local_pins_no_pool_and_reports_the_fallback() {
        let (trace, mut plane) = setup();
        let request = &trace.requests[0];
        let summary =
            plane.place(request, Backing::AllLocal, Duration::from_secs(request.arrival)).unwrap();
        assert!(summary.fallback_all_local);
        assert!(!summary.has_znuma);
        assert_eq!((summary.local, summary.pool), (request.memory, Bytes::ZERO));
        assert_eq!(summary.borrowed_from, None);
        assert_eq!(plane.pinned_pool(), Bytes::ZERO);
        assert_eq!(plane.pool().pool().assigned_capacity(), Bytes::ZERO);
        assert_eq!(plane.hosts()[summary.host].pool_allocated(), Bytes::ZERO);
        plane.assert_pool_conserved_full();
    }
}
