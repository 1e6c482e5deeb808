//! Virtual machines as the hypervisor sees them.

use cxl_hw::units::Bytes;
use std::fmt;
use workload_model::WorkloadProfile;

/// Identifier of a VM on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u64);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// The resources requested for a VM plus Pond's local/pool split decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmConfig {
    /// Number of virtual cores.
    pub cores: u32,
    /// Total rented memory.
    pub memory: Bytes,
    /// Portion of `memory` backed by the CXL pool (exposed as zNUMA).
    /// Always GB-aligned by the control plane; must not exceed `memory`.
    pub pool_memory: Bytes,
}

impl VmConfig {
    /// A VM with all of its memory on NUMA-local DRAM.
    pub fn all_local(cores: u32, memory: Bytes) -> Self {
        VmConfig { cores, memory, pool_memory: Bytes::ZERO }
    }

    /// Memory served from NUMA-local DRAM.
    pub fn local_memory(&self) -> Bytes {
        self.memory.saturating_sub(self.pool_memory)
    }

    /// Fraction of the VM's memory that lives on the pool.
    pub fn pool_fraction(&self) -> f64 {
        if self.memory.is_zero() {
            0.0
        } else {
            self.pool_memory.as_u64() as f64 / self.memory.as_u64() as f64
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("a VM needs at least one core".to_string());
        }
        if self.memory.is_zero() {
            return Err("a VM needs a non-zero memory size".to_string());
        }
        if self.pool_memory > self.memory {
            return Err(format!(
                "pool memory ({}) exceeds the VM's memory ({})",
                self.pool_memory, self.memory
            ));
        }
        Ok(())
    }
}

/// A running VM as its guest sees it: its configuration and the workload
/// inside it (the guest model of Figures 15 and 16).
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualMachine {
    id: VmId,
    config: VmConfig,
    workload: WorkloadProfile,
}

impl VirtualMachine {
    /// Launches a VM with the given configuration and workload.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`VmConfig::validate`]).
    pub fn launch(id: u64, config: VmConfig, workload: WorkloadProfile) -> Self {
        if let Err(reason) = config.validate() {
            panic!("invalid VM configuration: {reason}");
        }
        VirtualMachine { id: VmId(id), config, workload }
    }

    /// The VM's identifier.
    pub fn id(&self) -> VmId {
        self.id
    }

    /// The VM's resource configuration.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// The workload running inside the VM.
    pub fn workload(&self) -> &WorkloadProfile {
        &self.workload
    }

    /// Memory the workload actually touches over the VM's lifetime, bounded
    /// by the rented size.
    pub fn touched_memory(&self) -> Bytes {
        Bytes::new(self.workload.footprint.as_u64().min(self.config.memory.as_u64()))
    }

    /// Memory the VM never touches (rented minus footprint).
    pub fn untouched_memory(&self) -> Bytes {
        self.config.memory.saturating_sub(self.workload.footprint)
    }

    /// Fraction of rented memory that is never touched.
    pub fn untouched_fraction(&self) -> f64 {
        self.untouched_memory().as_u64() as f64 / self.config.memory.as_u64() as f64
    }

    /// Memory backed by the CXL pool (the zNUMA node's size).
    pub fn pool_memory(&self) -> Bytes {
        self.config.pool_memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload_model::WorkloadSuite;

    fn workload() -> WorkloadProfile {
        WorkloadSuite::standard().get("tpch/q1").unwrap().clone()
    }

    #[test]
    fn config_accessors() {
        let c = VmConfig { cores: 4, memory: Bytes::from_gib(32), pool_memory: Bytes::from_gib(8) };
        assert_eq!(c.local_memory(), Bytes::from_gib(24));
        assert!((c.pool_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(c.validate(), Ok(()));
        let all_local = VmConfig::all_local(2, Bytes::from_gib(8));
        assert_eq!(all_local.pool_fraction(), 0.0);
        assert_eq!(all_local.local_memory(), Bytes::from_gib(8));
    }

    #[test]
    fn config_validation_catches_errors() {
        assert!(VmConfig { cores: 0, memory: Bytes::from_gib(1), pool_memory: Bytes::ZERO }
            .validate()
            .is_err());
        assert!(VmConfig { cores: 1, memory: Bytes::ZERO, pool_memory: Bytes::ZERO }
            .validate()
            .is_err());
        assert!(VmConfig { cores: 1, memory: Bytes::from_gib(1), pool_memory: Bytes::from_gib(2) }
            .validate()
            .is_err());
    }

    #[test]
    fn untouched_memory_follows_the_footprint() {
        let w = workload();
        let footprint = w.footprint;
        let vm =
            VirtualMachine::launch(1, VmConfig::all_local(4, footprint + Bytes::from_gib(10)), w);
        assert_eq!(vm.untouched_memory(), Bytes::from_gib(10));
        assert_eq!(vm.touched_memory(), footprint);
        assert!(vm.untouched_fraction() > 0.0 && vm.untouched_fraction() < 1.0);
    }

    #[test]
    fn footprint_larger_than_memory_means_nothing_untouched() {
        let w = workload();
        let small = w.footprint.saturating_sub(Bytes::from_gib(1));
        let vm = VirtualMachine::launch(2, VmConfig::all_local(4, small), w);
        assert_eq!(vm.untouched_memory(), Bytes::ZERO);
        assert_eq!(vm.touched_memory(), small);
    }

    #[test]
    #[should_panic(expected = "invalid VM configuration")]
    fn launch_rejects_invalid_config() {
        let _ = VirtualMachine::launch(9, VmConfig::all_local(0, Bytes::from_gib(1)), workload());
    }

    #[test]
    fn vm_id_displays() {
        assert_eq!(VmId(7).to_string(), "vm7");
    }
}
