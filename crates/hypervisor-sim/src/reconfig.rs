//! The QoS mitigation path: one-time reconfiguration to all-local memory
//! (§4.2 "Reconfiguration of memory allocation", §4.3 B).
//!
//! When the QoS monitor decides a VM is suffering because too much of its
//! working set sits on pool memory, the hypervisor temporarily disables the
//! virtualization accelerator, copies the VM's pool memory into local DRAM
//! (about 50 ms per GiB), re-enables the accelerator, and releases the pool
//! capacity back to the Pool Manager. The same copy rate prices a VM's move
//! between hosts.

use crate::host::{HostMemory, HostMemoryError};
use cxl_hw::units::Bytes;
use std::time::Duration;

/// Copy cost per started GiB (the paper's "50 ms per GB").
pub const COPY_COST_PER_GIB: Duration = Duration::from_millis(50);

/// How long copying `amount` of memory takes: [`COPY_COST_PER_GIB`] per
/// started GiB. The VM runs degraded, not paused, during the copy.
pub fn copy_time(amount: Bytes) -> Duration {
    COPY_COST_PER_GIB * amount.slices_ceil() as u32
}

/// Moves `pool` of a VM's pinned pool memory into local DRAM on `host` and
/// returns how long the copy takes.
///
/// # Errors
///
/// Propagates [`HostMemoryError`], changing nothing, when the host lacks
/// the local DRAM or pins less pool memory than `pool`.
pub fn reconfigure(host: &mut HostMemory, pool: Bytes) -> Result<Duration, HostMemoryError> {
    host.convert_pool_to_local(pool)?;
    Ok(copy_time(pool))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(local_gib: u64, pinned_local_gib: u64, pool_gib: u64) -> HostMemory {
        let mut host = HostMemory::new(Bytes::from_gib(local_gib), Bytes::from_gib(4));
        host.pin(Bytes::from_gib(pinned_local_gib), Bytes::from_gib(pool_gib)).unwrap();
        host
    }

    #[test]
    fn reconfiguration_moves_pool_memory_local() {
        let mut host = host(512, 32, 16);
        // 16 GiB at 50 ms/GiB = 800 ms.
        assert_eq!(reconfigure(&mut host, Bytes::from_gib(16)), Ok(Duration::from_millis(800)));
        // The pool capacity is no longer pinned on the host afterwards.
        assert_eq!(host.pool_allocated(), Bytes::ZERO);
        assert_eq!(host.local_allocated(), Bytes::from_gib(48));
    }

    #[test]
    fn reconfiguring_an_all_local_vm_is_a_noop() {
        let mut host = host(512, 32, 0);
        assert_eq!(reconfigure(&mut host, Bytes::ZERO), Ok(Duration::ZERO));
        assert_eq!(host.local_allocated(), Bytes::from_gib(32));
    }

    #[test]
    fn reconfiguration_fails_cleanly_without_local_headroom() {
        // Host local DRAM barely fits the VM's local share; the pool share
        // cannot be absorbed.
        let mut host = host(36, 30, 16);
        let err = reconfigure(&mut host, Bytes::from_gib(16)).unwrap_err();
        assert!(matches!(err, HostMemoryError::InsufficientLocal { .. }));
        // Nothing changed.
        assert_eq!(host.pool_allocated(), Bytes::from_gib(16));
        assert_eq!(host.local_allocated(), Bytes::from_gib(30));
    }

    #[test]
    fn copy_time_charges_50_ms_per_started_gib() {
        assert_eq!(copy_time(Bytes::from_gib(8)), Duration::from_millis(400));
        assert_eq!(copy_time(Bytes::from_mib(1536)), Duration::from_millis(100));
        assert_eq!(copy_time(Bytes::ZERO), Duration::ZERO);
    }
}
