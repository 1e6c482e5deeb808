//! Host-side physical memory accounting (§4.2).
//!
//! Each host preallocates (pins) every VM's memory at start so virtualization
//! accelerators keep working (G2). The host keeps a hypervisor-private
//! partition for host agents and drivers so their allocations can never
//! fragment the hot-pluggable pool range, and it tracks how much pool
//! capacity is currently onlined from the EMCs.

use crate::vm::VmId;
use cxl_hw::units::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors raised by host memory management.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HostMemoryError {
    /// Not enough free local DRAM for the requested allocation.
    InsufficientLocal {
        /// Bytes requested.
        requested: Bytes,
        /// Bytes available.
        available: Bytes,
    },
    /// Not enough onlined pool memory for the requested allocation.
    InsufficientPool {
        /// Bytes requested.
        requested: Bytes,
        /// Bytes available.
        available: Bytes,
    },
    /// The VM is already placed on this host.
    VmAlreadyPlaced(VmId),
    /// The VM is not placed on this host.
    UnknownVm(VmId),
    /// Attempted to offline pool memory that is still allocated to VMs.
    PoolMemoryInUse {
        /// Bytes requested to offline.
        requested: Bytes,
        /// Bytes currently free (offline-able).
        free: Bytes,
    },
}

impl fmt::Display for HostMemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostMemoryError::InsufficientLocal { requested, available } => {
                write!(f, "insufficient local DRAM: requested {requested}, available {available}")
            }
            HostMemoryError::InsufficientPool { requested, available } => {
                write!(f, "insufficient onlined pool memory: requested {requested}, available {available}")
            }
            HostMemoryError::VmAlreadyPlaced(vm) => {
                write!(f, "{vm} is already placed on this host")
            }
            HostMemoryError::UnknownVm(vm) => write!(f, "{vm} is not placed on this host"),
            HostMemoryError::PoolMemoryInUse { requested, free } => {
                write!(f, "cannot offline {requested} of pool memory, only {free} is free")
            }
        }
    }
}

impl Error for HostMemoryError {}

/// Per-VM pinned allocation on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmAllocation {
    /// Local DRAM pinned for the VM.
    pub local: Bytes,
    /// Pool (zNUMA) memory pinned for the VM.
    pub pool: Bytes,
}

/// The physical memory state of one host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostMemory {
    local_total: Bytes,
    private_partition: Bytes,
    pool_online: Bytes,
    vm_allocations: BTreeMap<VmId, VmAllocation>,
    // Running sums over `vm_allocations`, so the allocated/free accessors —
    // called on every placement probe and peak sample of a fleet replay —
    // stay O(1) instead of walking the allocation map.
    local_pinned: Bytes,
    pool_pinned: Bytes,
}

impl HostMemory {
    /// Creates a host with `local_total` DRAM, reserving `private_partition`
    /// of it for the hypervisor and host agents.
    ///
    /// # Panics
    ///
    /// Panics if the private partition exceeds the local DRAM.
    pub fn new(local_total: Bytes, private_partition: Bytes) -> Self {
        assert!(private_partition <= local_total, "private partition cannot exceed local DRAM");
        HostMemory {
            local_total,
            private_partition,
            pool_online: Bytes::ZERO,
            vm_allocations: BTreeMap::new(),
            local_pinned: Bytes::ZERO,
            pool_pinned: Bytes::ZERO,
        }
    }

    /// Total local DRAM installed.
    pub fn local_total(&self) -> Bytes {
        self.local_total
    }

    /// Local DRAM rentable to VMs (total minus the private partition).
    pub fn local_rentable(&self) -> Bytes {
        self.local_total.saturating_sub(self.private_partition)
    }

    /// Local DRAM currently pinned for VMs.
    pub fn local_allocated(&self) -> Bytes {
        debug_assert_eq!(
            self.local_pinned,
            self.vm_allocations.values().map(|a| a.local).sum::<Bytes>()
        );
        self.local_pinned
    }

    /// Local DRAM still free for new VMs.
    pub fn local_free(&self) -> Bytes {
        self.local_rentable().saturating_sub(self.local_allocated())
    }

    /// Pool memory currently onlined on this host.
    pub fn pool_online(&self) -> Bytes {
        self.pool_online
    }

    /// Pool memory pinned for VMs.
    pub fn pool_allocated(&self) -> Bytes {
        debug_assert_eq!(
            self.pool_pinned,
            self.vm_allocations.values().map(|a| a.pool).sum::<Bytes>()
        );
        self.pool_pinned
    }

    /// Onlined pool memory not pinned to any VM.
    pub fn pool_free(&self) -> Bytes {
        self.pool_online.saturating_sub(self.pool_allocated())
    }

    /// Onlines pool capacity delivered by the Pool Manager (an
    /// `add_capacity` event): the memory becomes available for pinning.
    pub fn online_pool(&mut self, amount: Bytes) {
        self.pool_online += amount;
    }

    /// Offlines free pool capacity (a `release_capacity` flow). Fails if the
    /// requested amount is still pinned to VMs.
    ///
    /// # Errors
    ///
    /// Returns [`HostMemoryError::PoolMemoryInUse`] when `amount` exceeds the
    /// free pool memory.
    pub fn offline_pool(&mut self, amount: Bytes) -> Result<(), HostMemoryError> {
        if amount > self.pool_free() {
            return Err(HostMemoryError::PoolMemoryInUse {
                requested: amount,
                free: self.pool_free(),
            });
        }
        self.pool_online -= amount;
        Ok(())
    }

    /// Pins a VM's memory: `local` from local DRAM and `pool` from onlined
    /// pool capacity. The whole allocation happens atomically.
    ///
    /// # Errors
    ///
    /// * [`HostMemoryError::VmAlreadyPlaced`] if the VM is already on the host.
    /// * [`HostMemoryError::InsufficientLocal`] / [`HostMemoryError::InsufficientPool`]
    ///   when either side cannot be satisfied (nothing is allocated then).
    pub fn pin_vm(&mut self, vm: VmId, local: Bytes, pool: Bytes) -> Result<(), HostMemoryError> {
        if self.vm_allocations.contains_key(&vm) {
            return Err(HostMemoryError::VmAlreadyPlaced(vm));
        }
        if local > self.local_free() {
            return Err(HostMemoryError::InsufficientLocal {
                requested: local,
                available: self.local_free(),
            });
        }
        if pool > self.pool_free() {
            return Err(HostMemoryError::InsufficientPool {
                requested: pool,
                available: self.pool_free(),
            });
        }
        self.vm_allocations.insert(vm, VmAllocation { local, pool });
        self.local_pinned += local;
        self.pool_pinned += pool;
        Ok(())
    }

    /// Unpins a departing VM's memory and returns its allocation.
    ///
    /// # Errors
    ///
    /// Returns [`HostMemoryError::UnknownVm`] if the VM is not on this host.
    pub fn unpin_vm(&mut self, vm: VmId) -> Result<VmAllocation, HostMemoryError> {
        let allocation = self.vm_allocations.remove(&vm).ok_or(HostMemoryError::UnknownVm(vm))?;
        self.local_pinned -= allocation.local;
        self.pool_pinned -= allocation.pool;
        Ok(allocation)
    }

    /// Converts a VM's pool allocation into a local allocation (the QoS
    /// mitigation path). Fails without changing anything if local DRAM cannot
    /// absorb the VM's pool memory.
    ///
    /// # Errors
    ///
    /// * [`HostMemoryError::UnknownVm`] if the VM is not on this host.
    /// * [`HostMemoryError::InsufficientLocal`] if local DRAM is too tight.
    pub fn convert_pool_to_local(&mut self, vm: VmId) -> Result<Bytes, HostMemoryError> {
        let alloc = *self.vm_allocations.get(&vm).ok_or(HostMemoryError::UnknownVm(vm))?;
        if alloc.pool.is_zero() {
            return Ok(Bytes::ZERO);
        }
        if alloc.pool > self.local_free() {
            return Err(HostMemoryError::InsufficientLocal {
                requested: alloc.pool,
                available: self.local_free(),
            });
        }
        let moved = alloc.pool;
        self.vm_allocations
            .insert(vm, VmAllocation { local: alloc.local + moved, pool: Bytes::ZERO });
        self.local_pinned += moved;
        self.pool_pinned -= moved;
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn host() -> HostMemory {
        HostMemory::new(Bytes::from_gib(128), Bytes::from_gib(8))
    }

    #[test]
    fn new_host_accounting() {
        let h = host();
        assert_eq!(h.local_total(), Bytes::from_gib(128));
        assert_eq!(h.local_rentable(), Bytes::from_gib(120));
        assert_eq!(h.local_free(), Bytes::from_gib(120));
        assert_eq!(h.pool_online(), Bytes::ZERO);
        assert_eq!((h.local_allocated(), h.pool_allocated()), (Bytes::ZERO, Bytes::ZERO));
    }

    #[test]
    fn pin_and_unpin_round_trip() {
        let mut h = host();
        h.online_pool(Bytes::from_gib(32));
        h.pin_vm(VmId(1), Bytes::from_gib(48), Bytes::from_gib(16)).unwrap();
        assert_eq!(h.local_free(), Bytes::from_gib(72));
        assert_eq!(h.pool_free(), Bytes::from_gib(16));
        let freed = h.unpin_vm(VmId(1)).unwrap();
        assert_eq!(freed, VmAllocation { local: Bytes::from_gib(48), pool: Bytes::from_gib(16) });
        assert_eq!(h.local_free(), Bytes::from_gib(120));
        assert_eq!(h.pool_free(), Bytes::from_gib(32));
    }

    #[test]
    fn pin_fails_atomically() {
        let mut h = host();
        h.online_pool(Bytes::from_gib(8));
        // Local fits but pool does not: nothing should be allocated.
        let err = h.pin_vm(VmId(1), Bytes::from_gib(16), Bytes::from_gib(16)).unwrap_err();
        assert!(matches!(err, HostMemoryError::InsufficientPool { .. }));
        assert_eq!(h.local_free(), Bytes::from_gib(120));
        assert_eq!(h.pool_allocated(), Bytes::ZERO);
        // Pool fits but local does not.
        let err = h.pin_vm(VmId(1), Bytes::from_gib(500), Bytes::from_gib(4)).unwrap_err();
        assert!(matches!(err, HostMemoryError::InsufficientLocal { .. }));
        assert_eq!(h.pool_free(), Bytes::from_gib(8));
    }

    #[test]
    fn duplicate_and_unknown_vms_are_rejected() {
        let mut h = host();
        h.pin_vm(VmId(1), Bytes::from_gib(8), Bytes::ZERO).unwrap();
        assert!(matches!(
            h.pin_vm(VmId(1), Bytes::from_gib(8), Bytes::ZERO),
            Err(HostMemoryError::VmAlreadyPlaced(_))
        ));
        assert!(matches!(h.unpin_vm(VmId(2)), Err(HostMemoryError::UnknownVm(_))));
        assert!(matches!(h.convert_pool_to_local(VmId(2)), Err(HostMemoryError::UnknownVm(_))));
    }

    #[test]
    fn offline_requires_free_pool_memory() {
        let mut h = host();
        h.online_pool(Bytes::from_gib(16));
        h.pin_vm(VmId(1), Bytes::ZERO, Bytes::from_gib(12)).unwrap();
        assert!(matches!(
            h.offline_pool(Bytes::from_gib(8)),
            Err(HostMemoryError::PoolMemoryInUse { .. })
        ));
        h.offline_pool(Bytes::from_gib(4)).unwrap();
        assert_eq!(h.pool_online(), Bytes::from_gib(12));
    }

    #[test]
    fn convert_pool_to_local_moves_the_allocation() {
        let mut h = host();
        h.online_pool(Bytes::from_gib(16));
        h.pin_vm(VmId(1), Bytes::from_gib(16), Bytes::from_gib(8)).unwrap();
        let moved = h.convert_pool_to_local(VmId(1)).unwrap();
        assert_eq!(moved, Bytes::from_gib(8));
        // The pool capacity is now free to be offlined and returned.
        assert_eq!(h.pool_free(), Bytes::from_gib(16));
        // A second conversion is a no-op.
        assert_eq!(h.convert_pool_to_local(VmId(1)).unwrap(), Bytes::ZERO);
        let alloc = h.unpin_vm(VmId(1)).unwrap();
        assert_eq!(alloc, VmAllocation { local: Bytes::from_gib(24), pool: Bytes::ZERO });
    }

    #[test]
    fn convert_fails_when_local_is_tight() {
        let mut h = HostMemory::new(Bytes::from_gib(32), Bytes::ZERO);
        h.online_pool(Bytes::from_gib(16));
        h.pin_vm(VmId(1), Bytes::from_gib(28), Bytes::from_gib(16)).unwrap();
        assert!(matches!(
            h.convert_pool_to_local(VmId(1)),
            Err(HostMemoryError::InsufficientLocal { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "private partition cannot exceed")]
    fn private_partition_bounded_by_local() {
        let _ = HostMemory::new(Bytes::from_gib(8), Bytes::from_gib(16));
    }

    proptest! {
        /// Local allocations never exceed the rentable capacity and pool
        /// allocations never exceed the onlined capacity.
        #[test]
        fn accounting_invariants(ops in proptest::collection::vec((0u64..8, 0u64..64, 0u64..32, proptest::bool::ANY), 0..40)) {
            let mut h = HostMemory::new(Bytes::from_gib(256), Bytes::from_gib(8));
            h.online_pool(Bytes::from_gib(64));
            for (vm, local, pool, unpin) in ops {
                let vm = VmId(vm);
                if unpin {
                    let _ = h.unpin_vm(vm);
                } else {
                    let _ = h.pin_vm(vm, Bytes::from_gib(local), Bytes::from_gib(pool));
                }
                prop_assert!(h.local_allocated() <= h.local_rentable());
                prop_assert!(h.pool_allocated() <= h.pool_online());
                prop_assert_eq!(h.local_free() + h.local_allocated(), h.local_rentable());
                prop_assert_eq!(h.pool_free() + h.pool_allocated(), h.pool_online());
            }
        }
    }
}
