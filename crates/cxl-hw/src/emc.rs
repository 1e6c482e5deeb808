//! The External Memory Controller (EMC) — Pond's multi-headed CXL device.
//!
//! An EMC exposes its whole DDR5 capacity on every CXL port (one port per
//! attached host) and enforces slice ownership on every access (§4.1). In
//! CXL 3.0 terms it is a multi-headed device (MHD).

use crate::error::CxlError;
use crate::slice::{PermissionTable, SliceId, SliceState};
use crate::units::{Bytes, EmcId, HostId};

/// Static configuration of an EMC ASIC.
///
/// The defaults mirror the 16-socket Pond design point: 128 PCIe 5.0 lanes
/// (16 ×8 CXL ports) and 12 DDR5 channels, roughly the IO budget of AMD
/// Genoa's IO die (Figure 6).
#[derive(Debug, Clone, PartialEq)]
pub struct EmcConfig {
    /// Number of ×8 CXL ports (one per directly-attached host).
    pub ports: u16,
    /// Number of DDR5 channels behind the controller.
    pub ddr5_channels: u16,
    /// Total DRAM capacity behind this EMC.
    pub capacity: Bytes,
}

impl EmcConfig {
    /// Configuration for a 16-socket Pond EMC (Figure 6, middle).
    pub fn pond_16_socket(capacity: Bytes) -> Self {
        EmcConfig { ports: 16, ddr5_channels: 12, capacity }
    }

    /// Configuration for an 8-socket Pond EMC (Figure 6, left): half the IO
    /// budget — 64 PCIe 5.0 lanes and 6 DDR5 channels.
    pub fn pond_8_socket(capacity: Bytes) -> Self {
        EmcConfig { ports: 8, ddr5_channels: 6, capacity }
    }

    /// Configuration for the EMCs used behind switches in 32/64-socket pools
    /// (Figure 6, right): 4 EMC-side ×8 links, 12 DDR5 channels.
    pub fn pond_switched(capacity: Bytes) -> Self {
        EmcConfig { ports: 4, ddr5_channels: 12, capacity }
    }
}

impl Default for EmcConfig {
    fn default() -> Self {
        EmcConfig::pond_16_socket(Bytes::from_gib(1024))
    }
}

/// Result of an access-permission check performed by the EMC datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The requester owns the slice; the access proceeds.
    Granted,
    /// The requester does not own the slice; the access raises a fatal
    /// memory error on the requesting host (§4.1).
    FatalMemoryError,
}

/// A single External Memory Controller with its permission table.
///
/// # Example
///
/// ```
/// use cxl_hw::emc::{Emc, EmcConfig};
/// use cxl_hw::units::{Bytes, EmcId, HostId};
///
/// let mut emc = Emc::new(EmcId(0), EmcConfig::pond_8_socket(Bytes::from_gib(8)));
/// let slices = emc.assign_slices(HostId(1), 2)?;
/// assert_eq!(slices.len(), 2);
/// assert_eq!(emc.assigned_capacity(), Bytes::from_gib(2));
/// # Ok::<(), cxl_hw::CxlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Emc {
    id: EmcId,
    config: EmcConfig,
    table: PermissionTable,
    attached_hosts: Vec<HostId>,
    failed: bool,
}

impl Emc {
    /// Creates an EMC with all slices unassigned.
    pub fn new(id: EmcId, config: EmcConfig) -> Self {
        let slices = config.capacity.slices_floor();
        Emc {
            id,
            config,
            table: PermissionTable::new(slices),
            attached_hosts: Vec::new(),
            failed: false,
        }
    }

    /// The EMC's identifier.
    pub fn id(&self) -> EmcId {
        self.id
    }

    /// Total capacity behind this EMC.
    pub fn capacity(&self) -> Bytes {
        Bytes::from_gib(self.table.len())
    }

    /// Capacity currently assigned to hosts.
    pub fn assigned_capacity(&self) -> Bytes {
        Bytes::from_gib(self.table.assigned_count())
    }

    /// Capacity not assigned to any host.
    pub fn free_capacity(&self) -> Bytes {
        Bytes::from_gib(self.table.free_count())
    }

    /// Read access to the permission table.
    pub fn permission_table(&self) -> &PermissionTable {
        &self.table
    }

    /// Hosts that have been attached (their CXL port trained) to this EMC.
    pub fn attached_hosts(&self) -> &[HostId] {
        &self.attached_hosts
    }

    /// Whether the EMC has been marked failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Fails the EMC and tears down its state in one step: marks it failed
    /// (attaching, assigning and releasing then return
    /// [`CxlError::ComponentFailed`], and every access is a fatal memory
    /// error), clears every live permission-table entry — assigned *and*
    /// mid-release (an in-flight offlining cannot complete on a dead
    /// device) — and releases every CXL port. Returns the `(host, slice)` ownerships that
    /// were lost, in host-attach then slice order, so the pool layer can map
    /// the blast radius back to VMs.
    ///
    /// Idempotent: failing an already-failed EMC loses nothing.
    pub fn fail(&mut self) -> Vec<(HostId, SliceId)> {
        self.failed = true;
        let mut lost = Vec::new();
        for host in std::mem::take(&mut self.attached_hosts) {
            for slice in self.table.owned_by(host) {
                self.table.set(slice, SliceState::Unassigned);
                lost.push((host, slice));
            }
        }
        lost
    }

    /// Repairs (replaces) a failed EMC: the failed flag clears and the
    /// device rejoins service empty — [`Emc::fail`] already tore every
    /// permission-table entry down to `Unassigned` and released every port,
    /// so a repaired EMC comes back with its full capacity free and no
    /// attached hosts, exactly like a replacement device racked into the
    /// same pool slot (§4.2).
    ///
    /// Returns whether the EMC was actually failed; repairing a healthy
    /// device is a no-op.
    pub fn repair(&mut self) -> bool {
        let was_failed = self.failed;
        self.failed = false;
        was_failed
    }

    /// Whether `host` could be attached right now: it already holds a port,
    /// or a port is free. Failed EMCs accept nobody.
    pub fn can_attach(&self, host: HostId) -> bool {
        !self.failed
            && (self.attached_hosts.contains(&host)
                || self.attached_hosts.len() < self.config.ports as usize)
    }

    /// Attaches a host to one of the EMC's CXL ports.
    ///
    /// # Errors
    ///
    /// Returns [`CxlError::ComponentFailed`] if the EMC has failed, or
    /// [`CxlError::UnknownHost`] if all ports are already taken (the host
    /// cannot be attached).
    pub fn attach_host(&mut self, host: HostId) -> Result<(), CxlError> {
        self.ensure_alive()?;
        if self.attached_hosts.contains(&host) {
            return Ok(());
        }
        if self.attached_hosts.len() >= self.config.ports as usize {
            return Err(CxlError::UnknownHost { host });
        }
        self.attached_hosts.push(host);
        Ok(())
    }

    /// Detaches a host from its CXL port, freeing the port for another host
    /// (the port-lifecycle half of §4.2: a pool is not limited to its first
    /// `ports` hosts forever, only to `ports` *concurrent* slice owners).
    ///
    /// Returns whether the host actually held a port.
    ///
    /// # Errors
    ///
    /// Returns [`CxlError::PortInUse`] when the host still owns slices on
    /// this EMC (assigned or mid-release) — the permission table must be
    /// clear of the host before its port can be released.
    pub fn detach_host(&mut self, host: HostId) -> Result<bool, CxlError> {
        let owned = self.table.owned_count(host);
        if owned > 0 {
            return Err(CxlError::PortInUse { host, slices: owned });
        }
        let before = self.attached_hosts.len();
        self.attached_hosts.retain(|&h| h != host);
        Ok(self.attached_hosts.len() < before)
    }

    fn ensure_alive(&self) -> Result<(), CxlError> {
        if self.failed {
            Err(CxlError::ComponentFailed { component: format!("{}", self.id) })
        } else {
            Ok(())
        }
    }

    fn ensure_attached(&self, host: HostId) -> Result<(), CxlError> {
        if self.attached_hosts.contains(&host) {
            Ok(())
        } else {
            Err(CxlError::UnknownHost { host })
        }
    }

    /// Assigns `count` free slices to `host`, returning the slice ids.
    ///
    /// Slices are handed out lowest-index-first to keep each host's range
    /// compact (which keeps later offlining contiguous).
    ///
    /// # Errors
    ///
    /// * [`CxlError::ComponentFailed`] if the EMC has failed.
    /// * [`CxlError::UnknownHost`] if the host is not attached to a port.
    /// * [`CxlError::InsufficientPoolCapacity`] if fewer than `count` slices are free.
    pub fn assign_slices(&mut self, host: HostId, count: u64) -> Result<Vec<SliceId>, CxlError> {
        self.ensure_alive()?;
        self.ensure_attached(host).or_else(|_| {
            // Auto-attach if a port is available: the pool manager attaches
            // hosts lazily on first assignment.
            self.attach_host(host)
        })?;
        if self.table.free_count() < count {
            return Err(CxlError::InsufficientPoolCapacity {
                requested: Bytes::from_gib(count),
                available: self.free_capacity(),
            });
        }
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let slice = self.table.first_free().expect("free_count was checked above");
            self.table.set(slice, SliceState::Assigned(host));
            out.push(slice);
        }
        Ok(out)
    }

    /// Begins releasing a slice: the host offlines the range while the EMC
    /// still attributes the slice to it.
    ///
    /// # Errors
    ///
    /// Returns [`CxlError::SliceNotOwned`] when the host does not own the slice.
    pub fn begin_release(&mut self, host: HostId, slice: SliceId) -> Result<(), CxlError> {
        self.ensure_alive()?;
        match self.table.get(slice) {
            None => Err(CxlError::SliceOutOfRange { slice, slices: self.table.len() }),
            Some(state) if state.owner() == Some(host) => {
                self.table.set(slice, SliceState::Releasing(host));
                Ok(())
            }
            Some(_) => Err(CxlError::SliceNotOwned { slice, host }),
        }
    }

    /// Completes a release: clears the permission-table entry, making the
    /// slice available for reassignment.
    ///
    /// # Errors
    ///
    /// Returns [`CxlError::SliceNotOwned`] when the host does not own the slice.
    pub fn complete_release(&mut self, host: HostId, slice: SliceId) -> Result<(), CxlError> {
        self.ensure_alive()?;
        match self.table.get(slice) {
            None => Err(CxlError::SliceOutOfRange { slice, slices: self.table.len() }),
            Some(state) if state.owner() == Some(host) => {
                self.table.set(slice, SliceState::Unassigned);
                Ok(())
            }
            Some(_) => Err(CxlError::SliceNotOwned { slice, host }),
        }
    }

    /// Performs the per-access permission check the EMC datapath applies to
    /// every request (§4.1). Disallowed accesses are fatal memory errors.
    pub fn check_access(&self, requester: HostId, slice: SliceId) -> AccessOutcome {
        if self.failed {
            return AccessOutcome::FatalMemoryError;
        }
        if self.table.access_allowed(slice, requester) {
            AccessOutcome::Granted
        } else {
            AccessOutcome::FatalMemoryError
        }
    }

    /// Capacity currently assigned to one host.
    pub fn capacity_of(&self, host: HostId) -> Bytes {
        Bytes::from_gib(self.table.owned_count(host))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_emc() -> Emc {
        Emc::new(EmcId(0), EmcConfig::pond_8_socket(Bytes::from_gib(8)))
    }

    #[test]
    fn config_lane_budgets_match_figure6() {
        // 16 ×8 ports are 128 PCIe 5.0 lanes, 8 ×8 ports are 64.
        let c16 = EmcConfig::pond_16_socket(Bytes::from_gib(1024));
        assert_eq!(c16.ports, 16);
        assert_eq!(c16.ddr5_channels, 12);
        let c8 = EmcConfig::pond_8_socket(Bytes::from_gib(512));
        assert_eq!(c8.ports, 8);
        assert_eq!(c8.ddr5_channels, 6);
    }

    #[test]
    fn assign_and_release_round_trip() {
        let mut emc = small_emc();
        let slices = emc.assign_slices(HostId(0), 3).unwrap();
        assert_eq!(slices, vec![SliceId(0), SliceId(1), SliceId(2)]);
        assert_eq!(emc.assigned_capacity(), Bytes::from_gib(3));
        assert_eq!(emc.capacity_of(HostId(0)), Bytes::from_gib(3));

        emc.begin_release(HostId(0), SliceId(1)).unwrap();
        // Still attributed to the host while releasing.
        assert_eq!(emc.capacity_of(HostId(0)), Bytes::from_gib(3));
        emc.complete_release(HostId(0), SliceId(1)).unwrap();
        assert_eq!(emc.capacity_of(HostId(0)), Bytes::from_gib(2));
        assert_eq!(emc.free_capacity(), Bytes::from_gib(6));
    }

    #[test]
    fn assignment_exhausts_capacity() {
        let mut emc = small_emc();
        emc.assign_slices(HostId(0), 8).unwrap();
        let err = emc.assign_slices(HostId(1), 1).unwrap_err();
        assert!(matches!(err, CxlError::InsufficientPoolCapacity { .. }));
    }

    #[test]
    fn cannot_steal_assigned_slice() {
        let mut emc = small_emc();
        let owned = emc.assign_slices(HostId(0), 4).unwrap();
        // Another host is handed only free slices, never one host 0 holds.
        let other = emc.assign_slices(HostId(1), 4).unwrap();
        assert!(other.iter().all(|s| !owned.contains(s)));
        assert!(emc.assign_slices(HostId(1), 1).is_err(), "nothing free is left to take");
        assert_eq!(emc.capacity_of(HostId(0)), Bytes::from_gib(4));
        assert_eq!(emc.check_access(HostId(1), owned[0]), AccessOutcome::FatalMemoryError);
    }

    #[test]
    fn access_check_enforces_ownership() {
        let mut emc = small_emc();
        assert_eq!(emc.assign_slices(HostId(2), 1).unwrap(), [SliceId(0)]);
        assert_eq!(emc.check_access(HostId(2), SliceId(0)), AccessOutcome::Granted);
        assert_eq!(emc.check_access(HostId(3), SliceId(0)), AccessOutcome::FatalMemoryError);
        assert_eq!(emc.check_access(HostId(2), SliceId(1)), AccessOutcome::FatalMemoryError);
    }

    #[test]
    fn release_requires_ownership() {
        let mut emc = small_emc();
        assert_eq!(emc.assign_slices(HostId(0), 1).unwrap(), [SliceId(0)]);
        assert!(matches!(
            emc.begin_release(HostId(1), SliceId(0)),
            Err(CxlError::SliceNotOwned { .. })
        ));
        assert!(matches!(
            emc.complete_release(HostId(1), SliceId(0)),
            Err(CxlError::SliceNotOwned { .. })
        ));
    }

    #[test]
    fn out_of_range_slice_is_reported() {
        let mut emc = small_emc();
        assert!(matches!(
            emc.begin_release(HostId(0), SliceId(100)),
            Err(CxlError::SliceOutOfRange { slice: SliceId(100), slices: 8 })
        ));
        assert!(matches!(
            emc.complete_release(HostId(0), SliceId(8)),
            Err(CxlError::SliceOutOfRange { slice: SliceId(8), slices: 8 })
        ));
    }

    #[test]
    fn failed_emc_rejects_everything() {
        let mut emc = small_emc();
        emc.assign_slices(HostId(0), 1).unwrap();
        emc.fail();
        assert!(emc.is_failed());
        assert!(matches!(emc.assign_slices(HostId(0), 1), Err(CxlError::ComponentFailed { .. })));
        assert!(matches!(emc.attach_host(HostId(1)), Err(CxlError::ComponentFailed { .. })));
        assert!(matches!(
            emc.begin_release(HostId(0), SliceId(0)),
            Err(CxlError::ComponentFailed { .. })
        ));
        assert_eq!(emc.check_access(HostId(0), SliceId(0)), AccessOutcome::FatalMemoryError);
    }

    #[test]
    fn fail_tears_down_ownership_and_ports() {
        let mut emc = small_emc();
        emc.assign_slices(HostId(0), 2).unwrap();
        let in_flight = emc.assign_slices(HostId(1), 1).unwrap();
        // Host 1's slice is mid-release when the EMC dies: the in-flight
        // offlining is lost too, not leaked in the Releasing state.
        emc.begin_release(HostId(1), in_flight[0]).unwrap();
        let lost = emc.fail();
        assert_eq!(lost.len(), 3);
        assert!(lost.contains(&(HostId(1), in_flight[0])));
        assert!(emc.is_failed());
        assert_eq!(emc.assigned_capacity(), Bytes::ZERO);
        assert!(emc.attached_hosts().is_empty(), "dead ports are released");
        assert!(!emc.can_attach(HostId(2)), "a failed EMC accepts nobody");
        // Idempotent: a second failure loses nothing.
        assert!(emc.fail().is_empty());
    }

    #[test]
    fn repair_returns_a_failed_emc_to_service_empty() {
        let mut emc = small_emc();
        emc.assign_slices(HostId(0), 3).unwrap();
        emc.fail();
        assert!(emc.is_failed());

        assert!(emc.repair(), "repairing a failed EMC reports the transition");
        assert!(!emc.is_failed());
        // The replacement device is empty: full capacity free, no ports held.
        assert_eq!(emc.free_capacity(), emc.capacity());
        assert_eq!(emc.assigned_capacity(), Bytes::ZERO);
        assert!(emc.attached_hosts().is_empty());
        // It accepts hosts and assignments again.
        assert!(emc.can_attach(HostId(5)));
        assert_eq!(emc.assign_slices(HostId(5), 2).unwrap().len(), 2);
        // Repairing a healthy device is a no-op.
        assert!(!emc.repair());
        assert_eq!(emc.capacity_of(HostId(5)), Bytes::from_gib(2));
    }

    #[test]
    fn port_limit_bounds_attached_hosts() {
        let mut emc = Emc::new(
            EmcId(0),
            EmcConfig { ports: 2, ddr5_channels: 2, capacity: Bytes::from_gib(4) },
        );
        emc.attach_host(HostId(0)).unwrap();
        emc.attach_host(HostId(1)).unwrap();
        assert!(emc.attach_host(HostId(2)).is_err());
        // Re-attaching an existing host is fine.
        emc.attach_host(HostId(1)).unwrap();
        assert_eq!(emc.attached_hosts().len(), 2);
    }

    #[test]
    fn detached_ports_can_be_reused_by_other_hosts() {
        let mut emc = Emc::new(
            EmcId(0),
            EmcConfig { ports: 2, ddr5_channels: 2, capacity: Bytes::from_gib(8) },
        );
        emc.assign_slices(HostId(0), 1).unwrap();
        emc.assign_slices(HostId(1), 1).unwrap();
        assert!(!emc.can_attach(HostId(2)));
        assert_eq!(emc.attached_hosts(), [HostId(0), HostId(1)]);
        // Host 0 still owns its slice: the port cannot be detached yet.
        assert!(matches!(
            emc.detach_host(HostId(0)),
            Err(CxlError::PortInUse { host: HostId(0), slices: 1 })
        ));
        // After the full release cycle, the port detaches and host 2 fits.
        let owned = emc.permission_table().owned_by(HostId(0));
        emc.begin_release(HostId(0), owned[0]).unwrap();
        assert!(emc.detach_host(HostId(0)).is_err(), "releasing slices still pin the port");
        emc.complete_release(HostId(0), owned[0]).unwrap();
        assert!(emc.detach_host(HostId(0)).unwrap());
        assert_eq!(emc.attached_hosts(), [HostId(1)]);
        assert!(emc.can_attach(HostId(2)));
        emc.assign_slices(HostId(2), 1).unwrap();
        // Detaching a host that never attached reports false, not an error.
        assert!(!emc.detach_host(HostId(7)).unwrap());
    }

    proptest! {
        /// Invariant: assigned + free capacity always equals total capacity.
        #[test]
        fn capacity_conservation(ops in proptest::collection::vec((0u16..4, 1u64..3), 0..32)) {
            let mut emc = Emc::new(EmcId(0), EmcConfig::pond_8_socket(Bytes::from_gib(16)));
            for (host, count) in ops {
                let _ = emc.assign_slices(HostId(host), count);
                prop_assert_eq!(
                    emc.assigned_capacity() + emc.free_capacity(),
                    emc.capacity()
                );
            }
        }

        /// Invariant: per-host capacities sum to the assigned capacity.
        #[test]
        fn per_host_capacity_sums(ops in proptest::collection::vec((0u16..4, 1u64..3, proptest::bool::ANY), 0..32)) {
            let mut emc = Emc::new(EmcId(0), EmcConfig::pond_8_socket(Bytes::from_gib(16)));
            for (host, count, release) in ops {
                if release {
                    let owned = emc.permission_table().owned_by(HostId(host));
                    if let Some(slice) = owned.first() {
                        let _ = emc.begin_release(HostId(host), *slice);
                        let _ = emc.complete_release(HostId(host), *slice);
                    }
                } else {
                    let _ = emc.assign_slices(HostId(host), count);
                }
                let total: u64 = (0..4u16).map(|h| emc.capacity_of(HostId(h)).as_gib()).sum();
                prop_assert_eq!(Bytes::from_gib(total), emc.assigned_capacity());
            }
        }
    }
}
