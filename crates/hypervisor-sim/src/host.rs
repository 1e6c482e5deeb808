//! Host-side physical memory accounting (§4.2).
//!
//! Each host preallocates (pins) every VM's memory at start so virtualization
//! accelerators keep working (G2), and the Pool Manager onlines exactly the
//! pool slices a VM pins, so a host's onlined pool capacity is its pinned
//! pool. The host keeps a hypervisor-private partition for host agents and
//! drivers so their allocations can never fragment the hot-pluggable pool
//! range, and two running sums: local DRAM and pool memory pinned for VMs.
//! Which VM holds what is the caller's record; the host takes each VM's
//! split from it when the VM starts, leaves, or is reconfigured.

use cxl_hw::units::Bytes;
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
    /// Asked to release more memory than the host pins: the caller's record
    /// and the host disagree.
    NotPinned {
        /// Bytes asked for.
        requested: Bytes,
        /// Bytes the host pins on that side (local or pool).
        pinned: Bytes,
    },
}

impl fmt::Display for HostMemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostMemoryError::InsufficientLocal { requested, available } => {
                write!(f, "insufficient local DRAM: requested {requested}, available {available}")
            }
            HostMemoryError::NotPinned { requested, pinned } => {
                write!(f, "cannot release {requested}: the host pins only {pinned}")
            }
        }
    }
}

impl Error for HostMemoryError {}

/// The physical memory state of one host.
#[derive(Debug, Clone, PartialEq)]
pub struct HostMemory {
    local_total: Bytes,
    private_partition: Bytes,
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
        self.local_pinned
    }

    /// Local DRAM still free for new VMs.
    pub fn local_free(&self) -> Bytes {
        self.local_rentable().saturating_sub(self.local_pinned)
    }

    /// Pool memory pinned for VMs: the pool capacity onlined on this host.
    pub fn pool_allocated(&self) -> Bytes {
        self.pool_pinned
    }

    /// Pins a starting VM's memory: `local` from local DRAM and `pool` from
    /// the pool slices onlined for it.
    ///
    /// # Errors
    ///
    /// Returns [`HostMemoryError::InsufficientLocal`], pinning nothing, when
    /// `local` exceeds the free local DRAM.
    pub fn pin(&mut self, local: Bytes, pool: Bytes) -> Result<(), HostMemoryError> {
        if local > self.local_free() {
            return Err(HostMemoryError::InsufficientLocal {
                requested: local,
                available: self.local_free(),
            });
        }
        self.local_pinned += local;
        self.pool_pinned += pool;
        Ok(())
    }

    /// Unpins a departing VM's memory: the `local` and `pool` it holds.
    ///
    /// # Errors
    ///
    /// Returns [`HostMemoryError::NotPinned`], unpinning nothing, when
    /// either side exceeds what the host pins.
    pub fn unpin(&mut self, local: Bytes, pool: Bytes) -> Result<(), HostMemoryError> {
        for (requested, pinned) in [(local, self.local_pinned), (pool, self.pool_pinned)] {
            if requested > pinned {
                return Err(HostMemoryError::NotPinned { requested, pinned });
            }
        }
        self.local_pinned -= local;
        self.pool_pinned -= pool;
        Ok(())
    }

    /// Converts `pool` of a VM's pinned pool memory into local DRAM (the QoS
    /// mitigation path); the freed pool slices go offline. Fails without
    /// changing anything if local DRAM cannot absorb them.
    ///
    /// # Errors
    ///
    /// * [`HostMemoryError::NotPinned`] if the host pins less pool memory.
    /// * [`HostMemoryError::InsufficientLocal`] if local DRAM is too tight.
    pub fn convert_pool_to_local(&mut self, pool: Bytes) -> Result<(), HostMemoryError> {
        if pool > self.pool_pinned {
            return Err(HostMemoryError::NotPinned { requested: pool, pinned: self.pool_pinned });
        }
        if pool > self.local_free() {
            return Err(HostMemoryError::InsufficientLocal {
                requested: pool,
                available: self.local_free(),
            });
        }
        self.local_pinned += pool;
        self.pool_pinned -= pool;
        Ok(())
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
        assert_eq!((h.local_allocated(), h.pool_allocated()), (Bytes::ZERO, Bytes::ZERO));
    }

    #[test]
    fn pin_and_unpin_round_trip() {
        let mut h = host();
        h.pin(Bytes::from_gib(48), Bytes::from_gib(16)).unwrap();
        assert_eq!(h.local_free(), Bytes::from_gib(72));
        assert_eq!(h.pool_allocated(), Bytes::from_gib(16));
        h.unpin(Bytes::from_gib(48), Bytes::from_gib(16)).unwrap();
        assert_eq!(h.local_free(), Bytes::from_gib(120));
        assert_eq!(h.pool_allocated(), Bytes::ZERO);
    }

    #[test]
    fn pin_fails_atomically() {
        let mut h = host();
        // The pool side fits but local does not: nothing should be pinned.
        let err = h.pin(Bytes::from_gib(500), Bytes::from_gib(4)).unwrap_err();
        assert!(matches!(err, HostMemoryError::InsufficientLocal { .. }));
        assert_eq!(h.local_free(), Bytes::from_gib(120));
        assert_eq!(h.pool_allocated(), Bytes::ZERO);
    }

    #[test]
    fn releasing_more_than_is_pinned_is_refused() {
        let mut h = host();
        h.pin(Bytes::from_gib(8), Bytes::from_gib(2)).unwrap();
        let refused = [
            h.unpin(Bytes::from_gib(9), Bytes::ZERO),
            h.unpin(Bytes::from_gib(8), Bytes::from_gib(3)),
            h.convert_pool_to_local(Bytes::from_gib(3)),
        ];
        for result in refused {
            assert!(matches!(result, Err(HostMemoryError::NotPinned { .. })), "{result:?}");
        }
        // Nothing changed.
        assert_eq!(
            (h.local_allocated(), h.pool_allocated()),
            (Bytes::from_gib(8), Bytes::from_gib(2))
        );
    }

    #[test]
    fn convert_pool_to_local_moves_the_allocation() {
        let mut h = host();
        h.pin(Bytes::from_gib(16), Bytes::from_gib(8)).unwrap();
        h.convert_pool_to_local(Bytes::from_gib(8)).unwrap();
        // The pool capacity is no longer pinned and can be offlined.
        assert_eq!(h.pool_allocated(), Bytes::ZERO);
        assert_eq!(h.local_allocated(), Bytes::from_gib(24));
        h.unpin(Bytes::from_gib(24), Bytes::ZERO).unwrap();
        assert_eq!(h.local_free(), Bytes::from_gib(120));
    }

    #[test]
    fn convert_fails_when_local_is_tight() {
        let mut h = HostMemory::new(Bytes::from_gib(32), Bytes::ZERO);
        h.pin(Bytes::from_gib(28), Bytes::from_gib(16)).unwrap();
        assert!(matches!(
            h.convert_pool_to_local(Bytes::from_gib(16)),
            Err(HostMemoryError::InsufficientLocal { .. })
        ));
        assert_eq!(h.pool_allocated(), Bytes::from_gib(16));
    }

    #[test]
    #[should_panic(expected = "private partition cannot exceed")]
    fn private_partition_bounded_by_local() {
        let _ = HostMemory::new(Bytes::from_gib(8), Bytes::from_gib(16));
    }

    proptest! {
        /// Pinned local memory never exceeds the rentable capacity, and the
        /// sums always equal those of the VMs still pinned.
        #[test]
        fn accounting_invariants(ops in proptest::collection::vec((0usize..8, 0u64..64, 0u64..32, proptest::bool::ANY), 0..40)) {
            let mut h = HostMemory::new(Bytes::from_gib(256), Bytes::from_gib(8));
            let mut vms: [Option<(Bytes, Bytes)>; 8] = [None; 8];
            for (vm, local, pool, unpin) in ops {
                match (unpin, vms[vm]) {
                    (true, Some((local, pool))) => {
                        h.unpin(local, pool).unwrap();
                        vms[vm] = None;
                    }
                    (false, None) => {
                        let split = (Bytes::from_gib(local), Bytes::from_gib(pool));
                        if h.pin(split.0, split.1).is_ok() {
                            vms[vm] = Some(split);
                        }
                    }
                    _ => {}
                }
                let pinned = vms.iter().flatten();
                prop_assert_eq!(h.local_allocated(), pinned.clone().map(|&(local, _)| local).sum::<Bytes>());
                prop_assert_eq!(h.pool_allocated(), pinned.map(|&(_, pool)| pool).sum::<Bytes>());
                prop_assert!(h.local_allocated() <= h.local_rentable());
                prop_assert_eq!(h.local_free() + h.local_allocated(), h.local_rentable());
            }
        }
    }
}
