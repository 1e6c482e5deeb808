//! Pool-level slice ownership: the state the Pool Manager drives (§4.2, Figure 9).
//!
//! [`PoolState`] aggregates the EMCs of one pool and exposes the two control
//! operations the paper defines: `add_capacity(host, slice)` and
//! `release_capacity(host, slice)`, plus the offlining timing (up to
//! 100 ms per GiB slice) that motivates Pond's asynchronous release strategy.

use crate::emc::{Emc, EmcConfig};
use crate::error::CxlError;
use crate::slice::SliceId;
use crate::topology::PoolTopology;
use crate::units::{Bytes, EmcId, HostId};
use std::collections::BTreeMap;
use std::time::Duration;

/// A (EMC, slice) pair — the global identity of a slice within a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolSlice {
    /// The EMC that owns the DRAM.
    pub emc: EmcId,
    /// The slice within that EMC.
    pub slice: SliceId,
}

/// Per-slice lender attribution for a cross-pod borrow: when a VM's host and
/// its pool slices live in different pods, the slices stay owned by the
/// *lender* pod's pool and the lease names who lent them, which
/// port-consuming host identity the borrow occupies on the lender's EMCs
/// (a real CXL port — see `PoolGroupTopology::borrow_port_host`), and the
/// slices themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceLease {
    /// The pool group that lent the slices.
    pub lender: usize,
    /// The port-consuming host identity on the lender's pool.
    pub port_host: HostId,
    /// The borrowed slices, attributed to `port_host` on the lender.
    pub slices: Vec<PoolSlice>,
}

impl SliceLease {
    /// Capacity of the lease (1 GiB per slice).
    pub fn capacity(&self) -> Bytes {
        Bytes::from_gib(self.slices.len() as u64)
    }
}

/// Lifecycle state of one pool group, ordered by operational health à la
/// mayastor's `Online > Degraded > Faulted` pool states: an [`Online`]
/// group accepts placements, a [`Draining`] group is being gracefully
/// decommissioned (existing VMs migrate away, nothing new lands), and a
/// [`Decommissioned`] group has fully drained — no VMs, no in-flight
/// releases — and is out of service until a live expansion re-onlines it.
///
/// The ordering is explicit and manual so `Online > Draining >
/// Decommissioned` is a tested contract, not an accident of declaration
/// order.
///
/// [`Online`]: GroupState::Online
/// [`Draining`]: GroupState::Draining
/// [`Decommissioned`]: GroupState::Decommissioned
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupState {
    /// In service: the group schedules arrivals and accepts migrations.
    Online,
    /// Gracefully decommissioning: VMs drain away via migration, pending
    /// slice releases run to completion, and no new placement lands.
    Draining,
    /// Fully drained and out of service (removable à la maxio's pool
    /// manager, which requires a decommissioned pool to be empty first).
    Decommissioned,
}

impl GroupState {
    /// Whether the group may receive placements (arrivals, migrations,
    /// rebalances). Only [`GroupState::Online`] groups do — a draining
    /// group would never finish draining otherwise.
    pub fn accepts_placements(self) -> bool {
        matches!(self, GroupState::Online)
    }

    /// Operational-health rank backing the manual ordering.
    fn health(self) -> u8 {
        match self {
            GroupState::Online => 2,
            GroupState::Draining => 1,
            GroupState::Decommissioned => 0,
        }
    }
}

impl PartialOrd for GroupState {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GroupState {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.health().cmp(&other.health())
    }
}

/// What one EMC failure took down, as seen by the pool
/// ([`PoolState::fail_emc`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EmcFailureReport {
    /// The EMC that failed.
    pub emc: EmcId,
    /// Slice ownerships lost with the device: live assignments and in-flight
    /// releases alike, each attributed to the host that held it.
    pub lost: Vec<(HostId, PoolSlice)>,
    /// Hosts whose CXL port on the failed EMC went away.
    pub ports_lost: Vec<HostId>,
}

/// Timing of memory offlining (§4.2). Onlining is near instantaneous and
/// offlining takes 10–100 ms/GiB; the pool plans every release for the upper
/// bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionTiming {
    /// Upper bound on offlining one 1 GiB slice (100 ms/GiB).
    pub offline_per_gib_max: Duration,
}

impl Default for TransitionTiming {
    fn default() -> Self {
        TransitionTiming { offline_per_gib_max: Duration::from_millis(100) }
    }
}

impl TransitionTiming {
    /// Worst-case time to offline `capacity` from a host.
    pub fn offline_time_max(&self, capacity: Bytes) -> Duration {
        self.offline_per_gib_max * capacity.slices_ceil() as u32
    }
}

/// The aggregated slice-ownership state of one Pond pool.
///
/// # Example
///
/// ```
/// use cxl_hw::pool::PoolState;
/// use cxl_hw::topology::PoolTopology;
/// use cxl_hw::units::{Bytes, HostId};
///
/// let topo = PoolTopology::pond_with_capacity(8, Bytes::from_gib(16))?;
/// let mut pool = PoolState::from_topology(&topo);
/// let slices = pool.add_capacity(HostId(0), Bytes::from_gib(2))?;
/// assert_eq!(slices.len(), 2);
/// assert_eq!(pool.capacity_of(HostId(0)), Bytes::from_gib(2));
/// # Ok::<(), cxl_hw::CxlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PoolState {
    emcs: BTreeMap<EmcId, Emc>,
    timing: TransitionTiming,
}

impl PoolState {
    /// Builds pool state from explicit EMC configurations.
    pub fn new<I>(configs: I) -> Self
    where
        I: IntoIterator<Item = EmcConfig>,
    {
        let emcs = configs
            .into_iter()
            .enumerate()
            .map(|(i, cfg)| (EmcId(i as u16), Emc::new(EmcId(i as u16), cfg)))
            .collect();
        PoolState { emcs, timing: TransitionTiming::default() }
    }

    /// Builds pool state matching a [`PoolTopology`].
    pub fn from_topology(topology: &PoolTopology) -> Self {
        Self::new(topology.emc_configs().iter().cloned())
    }

    /// Number of EMCs in the pool.
    pub fn emc_count(&self) -> usize {
        self.emcs.len()
    }

    /// Access to a specific EMC.
    pub fn emc(&self, id: EmcId) -> Option<&Emc> {
        self.emcs.get(&id)
    }

    /// Iterates over all EMCs.
    pub fn emcs(&self) -> impl Iterator<Item = &Emc> {
        self.emcs.values()
    }

    /// Total pool capacity, dead EMCs included (what was provisioned).
    pub fn total_capacity(&self) -> Bytes {
        self.emcs.values().map(|e| e.capacity()).sum()
    }

    /// Pool capacity behind live EMCs — the denominator of every
    /// conservation check once failures can remove capacity mid-replay.
    /// Equals [`PoolState::total_capacity`] while nothing has failed.
    pub fn live_capacity(&self) -> Bytes {
        self.emcs.values().filter(|e| !e.is_failed()).map(|e| e.capacity()).sum()
    }

    /// Capacity currently assigned to hosts (includes slices mid-release).
    pub fn assigned_capacity(&self) -> Bytes {
        self.emcs.values().map(|e| e.assigned_capacity()).sum()
    }

    /// Capacity free for assignment across all live EMCs.
    pub fn free_capacity(&self) -> Bytes {
        self.emcs.values().filter(|e| !e.is_failed()).map(|e| e.free_capacity()).sum()
    }

    /// Capacity free for assignment *to a specific host*: only EMCs the host
    /// is already attached to, or that still have a free CXL port, count.
    /// This is what bounds a pool to `ports` concurrent slice-owning hosts
    /// while letting any number of hosts cycle through over time.
    pub fn free_capacity_for(&self, host: HostId) -> Bytes {
        self.emcs.values().filter(|e| e.can_attach(host)).map(|e| e.free_capacity()).sum()
    }

    /// Capacity assigned to one host across all EMCs.
    pub fn capacity_of(&self, host: HostId) -> Bytes {
        self.emcs.values().map(|e| e.capacity_of(host)).sum()
    }

    /// Assigns `amount` (rounded up to whole slices) to `host`.
    ///
    /// To minimize the blast radius of an EMC failure, the allocation is
    /// served from as few EMCs as possible: the EMC with the most free
    /// capacity is tried first. Only EMCs the host can attach to (already
    /// holding a port, or with a free port) participate — a pool whose ports
    /// are all held by *other* hosts is exhausted from this host's view even
    /// if slices are free.
    ///
    /// Returns the assigned slices.
    ///
    /// # Errors
    ///
    /// Returns [`CxlError::InsufficientPoolCapacity`] when the EMCs reachable
    /// by this host cannot satisfy the full request; in that case no slice is
    /// assigned.
    pub fn add_capacity(
        &mut self,
        host: HostId,
        amount: Bytes,
    ) -> Result<Vec<PoolSlice>, CxlError> {
        let needed = amount.slices_ceil();
        if needed == 0 {
            return Ok(Vec::new());
        }
        if self.free_capacity_for(host) < Bytes::from_gib(needed) {
            return Err(CxlError::InsufficientPoolCapacity {
                requested: Bytes::from_gib(needed),
                available: self.free_capacity_for(host),
            });
        }

        // Sort attachable EMCs by free capacity, descending, so a single EMC
        // serves the request whenever possible.
        let mut order: Vec<EmcId> =
            self.emcs.values().filter(|e| e.can_attach(host)).map(|e| e.id()).collect();
        order.sort_by_key(|id| std::cmp::Reverse(self.emcs[id].free_capacity().as_gib()));

        let mut remaining = needed;
        let mut assigned = Vec::with_capacity(needed as usize);
        for emc_id in order {
            if remaining == 0 {
                break;
            }
            let emc = self.emcs.get_mut(&emc_id).expect("id from iteration");
            let take = remaining.min(emc.free_capacity().as_gib());
            if take == 0 {
                continue;
            }
            let slices = emc.assign_slices(host, take)?;
            assigned.extend(slices.into_iter().map(|slice| PoolSlice { emc: emc_id, slice }));
            remaining -= take;
        }
        debug_assert_eq!(remaining, 0, "free capacity was checked up front");
        Ok(assigned)
    }

    /// Starts releasing specific slices from a host (the asynchronous path
    /// taken when a VM departs). The slices stay attributed to the host until
    /// [`PoolState::complete_release`] is called for them.
    ///
    /// Returns the worst-case offlining duration for the released amount.
    ///
    /// # Errors
    ///
    /// Returns the first ownership error encountered; slices processed before
    /// the error remain in the releasing state.
    pub fn begin_release(
        &mut self,
        host: HostId,
        slices: &[PoolSlice],
    ) -> Result<Duration, CxlError> {
        for ps in slices {
            let emc = self.emcs.get_mut(&ps.emc).ok_or(CxlError::UnknownEmc { emc: ps.emc })?;
            emc.begin_release(host, ps.slice)?;
        }
        Ok(self.timing.offline_time_max(Bytes::from_gib(slices.len() as u64)))
    }

    /// Completes the release of slices, returning them to the free pool.
    /// When a completion frees the host's last slice on an EMC, the host's
    /// CXL port detaches so another host can take it.
    ///
    /// # Errors
    ///
    /// Returns the first ownership error encountered.
    pub fn complete_release(&mut self, host: HostId, slices: &[PoolSlice]) -> Result<(), CxlError> {
        for ps in slices {
            let emc = self.emcs.get_mut(&ps.emc).ok_or(CxlError::UnknownEmc { emc: ps.emc })?;
            emc.complete_release(host, ps.slice)?;
        }
        let touched: std::collections::BTreeSet<EmcId> = slices.iter().map(|ps| ps.emc).collect();
        for emc_id in touched {
            self.detach_if_idle(host, emc_id);
        }
        Ok(())
    }

    /// Detaches the host's port on `emc_id` if the host no longer owns any
    /// slice there (assigned or mid-release — [`Emc::detach_host`] refuses
    /// otherwise).
    fn detach_if_idle(&mut self, host: HostId, emc_id: EmcId) {
        if let Some(emc) = self.emcs.get_mut(&emc_id) {
            let _ = emc.detach_host(host);
        }
    }

    /// Fails one EMC: marks it dead, tears down every live slice ownership
    /// on it (assigned or mid-release — an in-flight offlining cannot
    /// complete on a dead device), and releases its CXL ports. The lost
    /// ownerships come back in the report so the layers above can map the
    /// blast radius to VMs and prune their own in-flight state.
    ///
    /// Idempotent: failing a dead EMC loses nothing.
    ///
    /// # Errors
    ///
    /// Returns [`CxlError::UnknownEmc`] when the EMC does not exist.
    pub fn fail_emc(&mut self, emc_id: EmcId) -> Result<EmcFailureReport, CxlError> {
        let emc = self.emcs.get_mut(&emc_id).ok_or(CxlError::UnknownEmc { emc: emc_id })?;
        let ports_lost = emc.attached_hosts().to_vec();
        let lost: Vec<(HostId, PoolSlice)> = emc
            .fail()
            .into_iter()
            .map(|(host, slice)| (host, PoolSlice { emc: emc_id, slice }))
            .collect();
        Ok(EmcFailureReport { emc: emc_id, lost, ports_lost })
    }

    /// Repairs (replaces) a failed EMC: the device rejoins the pool empty,
    /// with its full capacity free and every port available —
    /// [`PoolState::fail_emc`] already tore down its ownerships, so nothing
    /// is resurrected; the layers above must treat the restored capacity as
    /// brand new. Returns the capacity that rejoined the pool, which both
    /// `free_capacity` and `live_capacity` grow by, keeping the
    /// free + pending + pinned = live conservation identity intact.
    ///
    /// Idempotent: repairing a healthy EMC restores [`Bytes::ZERO`].
    ///
    /// # Errors
    ///
    /// Returns [`CxlError::UnknownEmc`] when the EMC does not exist.
    pub fn restore_emc(&mut self, emc_id: EmcId) -> Result<Bytes, CxlError> {
        let emc = self.emcs.get_mut(&emc_id).ok_or(CxlError::UnknownEmc { emc: emc_id })?;
        Ok(if emc.repair() { emc.capacity() } else { Bytes::ZERO })
    }

    /// Attaches a brand-new EMC to the pool live (capacity expansion): the
    /// device gets the next unused id and joins with its full capacity free.
    pub fn attach_emc(&mut self, config: EmcConfig) -> EmcId {
        let id = EmcId(self.emcs.keys().next_back().map_or(0, |last| last.0 + 1));
        self.emcs.insert(id, Emc::new(id, config));
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::SliceState;
    use proptest::prelude::*;

    fn pool_8x16() -> PoolState {
        // 8-socket pool with 16 GiB total capacity.
        let topo = PoolTopology::pond_with_capacity(8, Bytes::from_gib(16)).unwrap();
        PoolState::from_topology(&topo)
    }

    /// The permission-table entry of one pool slice.
    fn state_of(pool: &PoolState, ps: PoolSlice) -> SliceState {
        pool.emc(ps.emc).unwrap().permission_table().get(ps.slice).unwrap()
    }

    /// The hosts holding a CXL port on `emc`.
    fn ports_of(pool: &PoolState, emc: EmcId) -> Vec<HostId> {
        pool.emc(emc).unwrap().attached_hosts().to_vec()
    }

    #[test]
    fn add_capacity_rounds_up_to_slices() {
        let mut pool = pool_8x16();
        let slices = pool.add_capacity(HostId(0), Bytes::from_mib(1500)).unwrap();
        assert_eq!(slices.len(), 2);
        assert_eq!(pool.capacity_of(HostId(0)), Bytes::from_gib(2));
    }

    #[test]
    fn add_capacity_zero_is_a_noop() {
        let mut pool = pool_8x16();
        assert!(pool.add_capacity(HostId(0), Bytes::ZERO).unwrap().is_empty());
        assert_eq!(pool.assigned_capacity(), Bytes::ZERO);
        assert!(ports_of(&pool, EmcId(0)).is_empty(), "no slice, no port");
    }

    #[test]
    fn add_capacity_fails_atomically_when_pool_is_short() {
        let mut pool = pool_8x16();
        pool.add_capacity(HostId(0), Bytes::from_gib(15)).unwrap();
        let before = pool.assigned_capacity();
        let err = pool.add_capacity(HostId(1), Bytes::from_gib(2)).unwrap_err();
        assert!(matches!(err, CxlError::InsufficientPoolCapacity { .. }));
        assert_eq!(pool.assigned_capacity(), before, "failed request must not assign anything");
    }

    #[test]
    fn release_cycle_returns_capacity() {
        let mut pool = pool_8x16();
        let slices = pool.add_capacity(HostId(3), Bytes::from_gib(4)).unwrap();
        let offline = pool.begin_release(HostId(3), &slices).unwrap();
        assert!(offline >= Duration::from_millis(40), "4 GiB at >=10ms/GiB");
        // Capacity still attributed while offlining.
        assert_eq!(pool.capacity_of(HostId(3)), Bytes::from_gib(4));
        pool.complete_release(HostId(3), &slices).unwrap();
        assert_eq!(pool.capacity_of(HostId(3)), Bytes::ZERO);
        assert_eq!(pool.free_capacity(), pool.total_capacity());
    }

    #[test]
    fn events_record_the_figure9_flow() {
        // Each step of Figure 9's flow leaves its mark on the slice and port
        // state: Add_capacity assigns the slice and attaches the host,
        // Release_capacity starts offlining it, the completion frees it.
        let mut pool = pool_8x16();
        let slices = pool.add_capacity(HostId(1), Bytes::from_gib(1)).unwrap();
        let ps = slices[0];
        assert_eq!(state_of(&pool, ps), SliceState::Assigned(HostId(1)));
        assert_eq!(ports_of(&pool, ps.emc), [HostId(1)]);
        pool.begin_release(HostId(1), &slices).unwrap();
        assert_eq!(state_of(&pool, ps), SliceState::Releasing(HostId(1)));
        assert_eq!(ports_of(&pool, ps.emc), [HostId(1)], "offlining still holds the port");
        pool.complete_release(HostId(1), &slices).unwrap();
        assert_eq!(state_of(&pool, ps), SliceState::Unassigned);
        // Releasing the host's last slice on the EMC frees its CXL port.
        assert!(ports_of(&pool, ps.emc).is_empty());
    }

    #[test]
    fn ports_cycle_through_more_hosts_than_the_emc_has_ports() {
        // A 2-port EMC serves hosts 0..6 over time: each host releases its
        // slices (detaching its port) before the host two steps later needs
        // one. Before the port lifecycle existed, host 2 already failed.
        let topo = PoolTopology::pond_with_capacity(8, Bytes::from_gib(16)).unwrap();
        let mut pool = PoolState::new(topo.emc_configs().iter().cloned().map(|mut c| {
            c.ports = 2;
            c
        }));
        assert_eq!(pool.emc_count(), 1);
        let mut held: std::collections::VecDeque<(HostId, Vec<PoolSlice>)> = Default::default();
        for h in 0..6u16 {
            let host = HostId(h);
            let slices = pool.add_capacity(host, Bytes::from_gib(2)).unwrap();
            held.push_back((host, slices));
            if held.len() == 2 {
                let (old, old_slices) = held.pop_front().unwrap();
                pool.begin_release(old, &old_slices).unwrap();
                pool.complete_release(old, &old_slices).unwrap();
                assert_eq!(ports_of(&pool, EmcId(0)), [host], "{old:?} gave its port back");
            }
        }
    }

    #[test]
    fn port_exhaustion_is_per_host_capacity_exhaustion() {
        // Both ports held with slices: a third host sees no attachable
        // capacity even though slices are free.
        let topo = PoolTopology::pond_with_capacity(8, Bytes::from_gib(16)).unwrap();
        let mut pool = PoolState::new(topo.emc_configs().iter().cloned().map(|mut c| {
            c.ports = 2;
            c
        }));
        pool.add_capacity(HostId(0), Bytes::from_gib(1)).unwrap();
        let slices = pool.add_capacity(HostId(1), Bytes::from_gib(1)).unwrap();
        assert!(pool.free_capacity() > Bytes::ZERO);
        assert_eq!(pool.free_capacity_for(HostId(2)), Bytes::ZERO);
        assert!(matches!(
            pool.add_capacity(HostId(2), Bytes::from_gib(1)),
            Err(CxlError::InsufficientPoolCapacity { .. })
        ));
        // Attached hosts still see the free capacity.
        assert_eq!(pool.free_capacity_for(HostId(0)), pool.free_capacity());
        // Once host 1 drains, its port serves host 2.
        pool.begin_release(HostId(1), &slices).unwrap();
        pool.complete_release(HostId(1), &slices).unwrap();
        assert!(pool.add_capacity(HostId(2), Bytes::from_gib(1)).is_ok());
    }

    #[test]
    fn release_requires_ownership() {
        let mut pool = pool_8x16();
        let slices = pool.add_capacity(HostId(0), Bytes::from_gib(1)).unwrap();
        assert!(pool.begin_release(HostId(1), &slices).is_err());
    }

    #[test]
    fn multi_emc_allocation_prefers_single_emc() {
        // 32-socket topology has 4 EMCs; a small allocation should land on one.
        let topo = PoolTopology::pond_with_capacity(32, Bytes::from_gib(32)).unwrap();
        let mut pool = PoolState::from_topology(&topo);
        assert_eq!(pool.emc_count(), 4);
        let slices = pool.add_capacity(HostId(0), Bytes::from_gib(4)).unwrap();
        let emcs: std::collections::BTreeSet<EmcId> = slices.iter().map(|s| s.emc).collect();
        assert_eq!(emcs.len(), 1, "small allocation should stay on one EMC");
    }

    #[test]
    fn multi_emc_allocation_spills_when_needed() {
        let topo = PoolTopology::pond_with_capacity(32, Bytes::from_gib(8)).unwrap();
        let mut pool = PoolState::from_topology(&topo);
        // Each EMC holds 2 GiB; a 5 GiB request must span at least 3 EMCs.
        let slices = pool.add_capacity(HostId(0), Bytes::from_gib(5)).unwrap();
        let emcs: std::collections::BTreeSet<EmcId> = slices.iter().map(|s| s.emc).collect();
        assert!(emcs.len() >= 3);
        assert_eq!(pool.capacity_of(HostId(0)), Bytes::from_gib(5));
    }

    #[test]
    fn fail_emc_reports_losses_and_shrinks_live_capacity() {
        let topo = PoolTopology::pond_with_capacity(32, Bytes::from_gib(8)).unwrap();
        let mut pool = PoolState::from_topology(&topo);
        let slices = pool.add_capacity(HostId(0), Bytes::from_gib(2)).unwrap();
        let dead = slices[0].emc;
        assert_eq!(pool.live_capacity(), pool.total_capacity());

        let report = pool.fail_emc(dead).unwrap();
        assert_eq!(report.emc, dead);
        assert_eq!(report.lost, vec![(HostId(0), slices[0]), (HostId(0), slices[1])]);
        assert_eq!(report.ports_lost, vec![HostId(0)]);
        assert_eq!(pool.live_capacity(), Bytes::from_gib(6));
        assert_eq!(pool.total_capacity(), Bytes::from_gib(8), "provisioned capacity is history");
        assert_eq!(pool.capacity_of(HostId(0)), Bytes::ZERO);
        let emc = pool.emc(dead).unwrap();
        assert!(emc.is_failed());
        assert!(emc.attached_hosts().is_empty(), "a dead device holds no port");
        assert!(emc.permission_table().iter().all(|(_, state)| state.is_free()));
        // Idempotent: the second failure loses nothing.
        assert!(pool.fail_emc(dead).unwrap().lost.is_empty());
        assert!(pool.fail_emc(EmcId(42)).is_err());
    }

    #[test]
    fn restore_emc_returns_exactly_the_lost_capacity_empty() {
        let topo = PoolTopology::pond_with_capacity(32, Bytes::from_gib(8)).unwrap();
        let mut pool = PoolState::from_topology(&topo);
        let slices = pool.add_capacity(HostId(0), Bytes::from_gib(2)).unwrap();
        let dead = slices[0].emc;
        pool.fail_emc(dead).unwrap();
        assert_eq!(pool.live_capacity(), Bytes::from_gib(6));

        let restored = pool.restore_emc(dead).unwrap();
        assert_eq!(restored, Bytes::from_gib(2), "one 2 GiB EMC rejoined");
        assert_eq!(pool.live_capacity(), pool.total_capacity());
        // The repaired device is empty: nothing of host 0's old ownership
        // survives, and the capacity is all free.
        assert_eq!(pool.capacity_of(HostId(0)), Bytes::ZERO);
        assert_eq!(pool.free_capacity(), pool.live_capacity());
        assert!(!pool.emc(dead).unwrap().is_failed());
        assert!(ports_of(&pool, dead).is_empty(), "every port comes back free");
        // Idempotent: repairing a healthy EMC restores nothing and changes
        // nothing.
        assert_eq!(pool.restore_emc(dead).unwrap(), Bytes::ZERO);
        assert_eq!(pool.live_capacity(), pool.total_capacity());
        assert_eq!(pool.free_capacity(), pool.live_capacity());
        assert!(pool.restore_emc(EmcId(42)).is_err());
        // The restored capacity is allocatable again.
        assert!(pool.add_capacity(HostId(1), Bytes::from_gib(8)).is_ok());
    }

    #[test]
    fn attach_emc_expands_the_pool_live() {
        let topo = PoolTopology::pond_with_capacity(8, Bytes::from_gib(16)).unwrap();
        let mut pool = PoolState::from_topology(&topo);
        pool.add_capacity(HostId(0), Bytes::from_gib(16)).unwrap();
        assert!(pool.add_capacity(HostId(1), Bytes::from_gib(1)).is_err());

        let id = pool.attach_emc(EmcConfig::pond_16_socket(Bytes::from_gib(4)));
        assert_eq!(id, EmcId(1), "next unused id");
        assert_eq!(pool.emc_count(), 2);
        assert_eq!(pool.total_capacity(), Bytes::from_gib(20));
        assert_eq!(pool.live_capacity(), Bytes::from_gib(20));
        assert_eq!(pool.free_capacity(), Bytes::from_gib(4));
        let emc = pool.emc(id).unwrap();
        assert_eq!((emc.id(), emc.capacity()), (id, Bytes::from_gib(4)));
        assert_eq!(emc.free_capacity(), emc.capacity(), "the new device joins empty");
        // The new capacity serves a previously-starved host.
        assert_eq!(pool.add_capacity(HostId(1), Bytes::from_gib(4)).unwrap().len(), 4);
        // Ids never collide, even after interleaved failures.
        pool.fail_emc(EmcId(0)).unwrap();
        let next = pool.attach_emc(EmcConfig::pond_16_socket(Bytes::from_gib(1)));
        assert_eq!(next, EmcId(2));
    }

    #[test]
    fn group_states_order_online_above_draining_above_decommissioned() {
        // The mayastor-style health ordering is a contract the scheduler
        // relies on: `Online` is the greatest state, and only it accepts
        // placements.
        assert!(GroupState::Online > GroupState::Draining);
        assert!(GroupState::Draining > GroupState::Decommissioned);
        assert!(GroupState::Online > GroupState::Decommissioned);
        assert_eq!(GroupState::Online.max(GroupState::Draining), GroupState::Online);
        assert!(GroupState::Online.accepts_placements());
        assert!(!GroupState::Draining.accepts_placements());
        assert!(!GroupState::Decommissioned.accepts_placements());
    }

    #[test]
    fn failed_emc_capacity_is_not_allocatable() {
        let topo = PoolTopology::pond_with_capacity(32, Bytes::from_gib(8)).unwrap();
        let mut pool = PoolState::from_topology(&topo);
        let total_free = pool.free_capacity();
        pool.fail_emc(EmcId(0)).unwrap();
        assert!(pool.free_capacity() < total_free);
        // Requests larger than the remaining live capacity fail.
        assert!(pool.add_capacity(HostId(0), Bytes::from_gib(7)).is_err());
        // Requests that fit on live EMCs still succeed.
        assert!(pool.add_capacity(HostId(0), Bytes::from_gib(6)).is_ok());
    }

    #[test]
    fn timing_model_scales_with_capacity() {
        let t = TransitionTiming::default();
        assert_eq!(t.offline_time_max(Bytes::from_gib(10)), Duration::from_secs(1));
        assert_eq!(t.offline_time_max(Bytes::from_mib(1536)), Duration::from_millis(200));
    }

    #[test]
    fn foreign_host_cannot_release_or_complete() {
        let mut pool = pool_8x16();
        let slices = pool.add_capacity(HostId(0), Bytes::from_gib(2)).unwrap();
        // Host 1 owns nothing: both phases of the release flow must fail and
        // leave ownership untouched.
        assert!(matches!(
            pool.begin_release(HostId(1), &slices),
            Err(CxlError::SliceNotOwned { .. })
        ));
        assert!(matches!(
            pool.complete_release(HostId(1), &slices),
            Err(CxlError::SliceNotOwned { .. })
        ));
        assert_eq!(pool.capacity_of(HostId(0)), Bytes::from_gib(2));
    }

    #[test]
    fn released_slices_can_be_reassigned_to_another_host() {
        let mut pool = pool_8x16();
        let first = pool.add_capacity(HostId(0), Bytes::from_gib(16)).unwrap();
        assert!(pool.add_capacity(HostId(1), Bytes::from_gib(1)).is_err());
        pool.begin_release(HostId(0), &first).unwrap();
        // Capacity stays attributed to host 0 until offlining completes, so
        // the pool is still full from host 1's perspective.
        assert!(pool.add_capacity(HostId(1), Bytes::from_gib(1)).is_err());
        pool.complete_release(HostId(0), &first).unwrap();
        let second = pool.add_capacity(HostId(1), Bytes::from_gib(16)).unwrap();
        assert_eq!(second.len(), 16);
        assert_eq!(pool.capacity_of(HostId(0)), Bytes::ZERO);
        assert_eq!(pool.capacity_of(HostId(1)), Bytes::from_gib(16));
    }

    proptest! {
        /// Invariant: total = assigned + free, regardless of the operation
        /// mix, and each host's capacity is the slices it was handed.
        #[test]
        fn capacity_conservation(ops in proptest::collection::vec((0u16..4, 1u64..5, proptest::bool::ANY), 0..40)) {
            let topo = PoolTopology::pond_with_capacity(16, Bytes::from_gib(32)).unwrap();
            let mut pool = PoolState::from_topology(&topo);
            let mut owned: [Vec<PoolSlice>; 4] = Default::default();
            for (host, gib, release) in ops {
                let held = &mut owned[host as usize];
                let host = HostId(host);
                if release {
                    let n = (gib as usize).min(held.len());
                    let to_release: Vec<_> = held.drain(..n).collect();
                    pool.begin_release(host, &to_release).unwrap();
                    pool.complete_release(host, &to_release).unwrap();
                } else if let Ok(slices) = pool.add_capacity(host, Bytes::from_gib(gib)) {
                    held.extend(slices);
                }
                prop_assert_eq!(
                    pool.assigned_capacity() + pool.free_capacity(),
                    pool.total_capacity()
                );
                for (h, held) in owned.iter().enumerate() {
                    prop_assert_eq!(
                        pool.capacity_of(HostId(h as u16)),
                        Bytes::from_gib(held.len() as u64)
                    );
                }
            }
        }
    }
}
