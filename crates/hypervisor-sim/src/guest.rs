//! Guest-OS memory allocation over a zNUMA topology (§4.2, §6.2, §6.3).
//!
//! The guest OS allocates from the local vNUMA node first and only falls back
//! to the zNUMA node once local memory is exhausted, plus a small amount of
//! per-node memory-manager metadata that is always allocated on every node
//! (the paper's explanation for the 0.06–0.38% of accesses that still reach a
//! correctly sized zNUMA node).

use crate::vm::VirtualMachine;
use cxl_hw::latency::LatencyScenario;
use cxl_hw::units::Bytes;
use workload_model::spill::SpillModel;

/// The outcome of the guest's NUMA-preferential allocation for one VM.
#[derive(Debug, Clone, PartialEq)]
pub struct GuestAllocation {
    footprint: Bytes,
    local_allocated: Bytes,
    znuma_allocated: Bytes,
    znuma_size: Bytes,
    metadata_per_node: Bytes,
}

impl GuestAllocation {
    /// Guest-OS metadata (page structs, per-node caches) explicitly allocated
    /// on every node regardless of the fill order. 64 MiB is a realistic
    /// order of magnitude for a tens-of-GB node.
    pub const DEFAULT_METADATA_PER_NODE: Bytes = Bytes::from_mib(64);

    /// Computes the allocation for a VM: fill the local node, spill the rest
    /// into zNUMA.
    pub fn for_vm(vm: &VirtualMachine) -> Self {
        Self::with_metadata(vm, Self::DEFAULT_METADATA_PER_NODE)
    }

    /// Same as [`GuestAllocation::for_vm`] with an explicit per-node metadata size.
    pub fn with_metadata(vm: &VirtualMachine, metadata_per_node: Bytes) -> Self {
        let footprint = vm.touched_memory();
        let local_size = vm.config().local_memory();
        let znuma_size = vm.pool_memory();

        // The guest's own metadata occupies a slice of every node.
        let metadata_on_znuma = if znuma_size.is_zero() {
            Bytes::ZERO
        } else {
            Bytes::new(metadata_per_node.as_u64().min(znuma_size.as_u64()))
        };

        // The guest fills the local node before touching zNUMA; its small
        // per-node metadata allocation is accounted only on the zNUMA side
        // (that is the part that generates the residual zNUMA traffic).
        let local_allocated = Bytes::new(footprint.as_u64().min(local_size.as_u64()));
        let spilled = footprint.saturating_sub(local_size);
        let znuma_allocated =
            Bytes::new(spilled.as_u64().min(znuma_size.saturating_sub(metadata_on_znuma).as_u64()))
                + metadata_on_znuma;

        GuestAllocation {
            footprint,
            local_allocated,
            znuma_allocated,
            znuma_size,
            metadata_per_node,
        }
    }

    /// The workload footprint the allocation serves.
    pub fn footprint(&self) -> Bytes {
        self.footprint
    }

    /// Bytes allocated on the local vNUMA node.
    pub fn local_allocated(&self) -> Bytes {
        self.local_allocated
    }

    /// Bytes allocated on the zNUMA node (including guest metadata).
    pub fn znuma_allocated(&self) -> Bytes {
        self.znuma_allocated
    }

    /// Size of the zNUMA node.
    pub fn znuma_size(&self) -> Bytes {
        self.znuma_size
    }

    /// Fraction of the footprint that spilled onto the zNUMA node
    /// (excluding guest metadata, which is not part of the footprint).
    pub fn spill_fraction(&self) -> f64 {
        if self.footprint.is_zero() {
            return 0.0;
        }
        let spilled = self.znuma_allocated.saturating_sub(Bytes::new(
            self.metadata_per_node.as_u64().min(self.znuma_size.as_u64()),
        ));
        (spilled.as_u64() as f64 / self.footprint.as_u64() as f64).min(1.0)
    }
}

/// Performance of a VM given its guest allocation: the slowdown relative to
/// an all-local VM and the share of traffic reaching the zNUMA node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuestPerformance {
    /// Fractional slowdown relative to all-local memory.
    pub slowdown: f64,
    /// Fraction of memory accesses served by the zNUMA node.
    pub znuma_traffic_fraction: f64,
}

impl GuestPerformance {
    /// Evaluates a VM's performance under a latency scenario.
    pub fn evaluate(
        vm: &VirtualMachine,
        allocation: &GuestAllocation,
        scenario: LatencyScenario,
        model: &SpillModel,
    ) -> Self {
        let spill = allocation.spill_fraction();
        let metadata_floor = if allocation.znuma_size().is_zero() {
            0.0
        } else {
            model.znuma_traffic_fraction(vm.workload())
        };
        let access_fraction =
            (model.pool_access_fraction(vm.workload(), spill) + metadata_floor).min(1.0);
        let slowdown =
            model.slowdown.slowdown(vm.workload(), scenario.multiplier(), access_fraction);
        GuestPerformance { slowdown, znuma_traffic_fraction: access_fraction }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmConfig;
    use workload_model::WorkloadSuite;

    fn vm_with(footprint_slack_gib: i64, pool_gib: u64) -> VirtualMachine {
        let suite = WorkloadSuite::standard();
        let workload = suite.get("spark/kmeans").unwrap().clone();
        let memory = if footprint_slack_gib >= 0 {
            workload.footprint + Bytes::from_gib(footprint_slack_gib as u64)
        } else {
            workload.footprint.saturating_sub(Bytes::from_gib((-footprint_slack_gib) as u64))
        };
        VirtualMachine::launch(
            1,
            VmConfig { cores: 8, memory, pool_memory: Bytes::from_gib(pool_gib) },
            workload,
        )
    }

    #[test]
    fn correct_prediction_keeps_the_working_set_local() {
        // zNUMA sized to the untouched memory: footprint fits in local.
        let vm = vm_with(10, 10);
        let alloc = GuestAllocation::for_vm(&vm);
        assert_eq!(alloc.spill_fraction(), 0.0, "only metadata lives on the zNUMA node");
        assert!(alloc.znuma_allocated() <= GuestAllocation::DEFAULT_METADATA_PER_NODE);
        assert_eq!(alloc.footprint(), vm.touched_memory());
    }

    #[test]
    fn overprediction_spills_into_znuma() {
        // zNUMA is larger than the untouched memory, so part of the working
        // set must land there.
        let vm = vm_with(4, 16);
        let alloc = GuestAllocation::for_vm(&vm);
        assert!(alloc.spill_fraction() > 0.0);
        assert!(alloc.znuma_allocated() > GuestAllocation::DEFAULT_METADATA_PER_NODE);
        // Local node is filled before zNUMA.
        assert!(alloc.local_allocated() >= vm.config().local_memory() - Bytes::from_gib(1));
    }

    #[test]
    fn all_pool_vm_spills_everything() {
        let suite = WorkloadSuite::standard();
        let workload = suite.get("gapbs/pr-twitter").unwrap().clone();
        let memory = workload.footprint;
        let vm =
            VirtualMachine::launch(2, VmConfig { cores: 8, memory, pool_memory: memory }, workload);
        let alloc = GuestAllocation::for_vm(&vm);
        assert!(alloc.spill_fraction() > 0.9, "spill {}", alloc.spill_fraction());
    }

    #[test]
    fn no_pool_memory_means_no_znuma_traffic() {
        let vm = vm_with(10, 0);
        let alloc = GuestAllocation::for_vm(&vm);
        assert_eq!(alloc.znuma_allocated(), Bytes::ZERO);
        assert_eq!(alloc.znuma_size(), Bytes::ZERO);
        let perf = GuestPerformance::evaluate(
            &vm,
            &alloc,
            LatencyScenario::Increase182,
            &SpillModel::default(),
        );
        assert_eq!(perf.znuma_traffic_fraction, 0.0);
        assert_eq!(perf.slowdown, 0.0);
    }

    #[test]
    fn correct_prediction_has_negligible_slowdown_and_traffic() {
        // Finding 1/2: with a correct prediction, zNUMA traffic is a fraction
        // of a percent and the slowdown is negligible.
        let vm = vm_with(16, 16);
        let alloc = GuestAllocation::for_vm(&vm);
        let perf = GuestPerformance::evaluate(
            &vm,
            &alloc,
            LatencyScenario::Increase182,
            &SpillModel::default(),
        );
        assert!(perf.znuma_traffic_fraction < 0.005, "traffic {}", perf.znuma_traffic_fraction);
        assert!(perf.slowdown < 0.01, "slowdown {}", perf.slowdown);
    }

    #[test]
    fn bigger_spills_hurt_more() {
        // Finding 3: slowdown grows as more of the working set spills.
        let small_spill = vm_with(8, 12);
        let large_spill = vm_with(0, 24);
        let model = SpillModel::default();
        let perf = |vm: &VirtualMachine| {
            let alloc = GuestAllocation::for_vm(vm);
            GuestPerformance::evaluate(vm, &alloc, LatencyScenario::Increase182, &model).slowdown
        };
        assert!(perf(&large_spill) > perf(&small_spill));
    }

    #[test]
    fn metadata_never_exceeds_the_znuma_node() {
        let suite = WorkloadSuite::standard();
        let workload = suite.get("parsec/vips").unwrap().clone();
        let vm = VirtualMachine::launch(
            3,
            VmConfig {
                cores: 2,
                memory: workload.footprint + Bytes::from_mib(32),
                pool_memory: Bytes::from_mib(32),
            },
            workload,
        );
        let alloc = GuestAllocation::for_vm(&vm);
        assert!(alloc.znuma_allocated() <= alloc.znuma_size());
    }
}
