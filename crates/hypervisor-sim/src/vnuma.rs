//! Virtual NUMA topologies and the zero-core zNUMA node (§4.2, Figure 10).
//!
//! Pond exposes a VM's pool memory as a vNUMA node that has memory but no
//! cores, mirroring Linux's CPU-less NUMA support. The hypervisor builds the
//! topology by adding a `node_memblk` entry without a `node_cpuid` entry in
//! the (virtual) SRAT, and advertises the real extra latency in the SLIT
//! distance matrix so a NUMA-aware guest can still make sensible decisions.

use cxl_hw::latency::LatencyScenario;
use cxl_hw::units::Bytes;

use crate::vm::VmConfig;

/// One virtual NUMA node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VNumaNode {
    /// Node index as seen by the guest.
    pub id: u32,
    /// Virtual CPUs assigned to the node.
    pub cpus: u32,
    /// Memory assigned to the node.
    pub memory: Bytes,
}

/// The full virtual NUMA topology of a VM, including the SLIT-style distance
/// matrix (relative access cost, 10 = local, following ACPI convention).
#[derive(Debug, Clone, PartialEq)]
pub struct VNumaTopology {
    nodes: Vec<VNumaNode>,
    /// `distances[i][j]` is the relative cost for node `i`'s CPUs to reach
    /// node `j`'s memory (ACPI SLIT units, local = 10).
    distances: Vec<Vec<u32>>,
}

impl VNumaTopology {
    /// Builds the topology for a VM: one local node with all vCPUs and the
    /// local memory, plus (if the VM has pool memory) a zNUMA node holding
    /// the pool memory at the latency implied by `scenario`.
    pub fn for_vm(config: &VmConfig, scenario: LatencyScenario) -> Self {
        let mut nodes =
            vec![VNumaNode { id: 0, cpus: config.cores, memory: config.local_memory() }];
        let mut distances = vec![vec![10]];
        if !config.pool_memory.is_zero() {
            nodes.push(VNumaNode { id: 1, cpus: 0, memory: config.pool_memory });
            // SLIT entries scale with the real latency ratio: local = 10, so a
            // 182% latency shows up as 18, 222% as 22 (matching Figure 10's
            // numa_slit output of e.g. "10 28" for larger ratios).
            let remote = (10.0 * scenario.multiplier()).round() as u32;
            distances = vec![vec![10, remote], vec![remote, 10]];
        }
        VNumaTopology { nodes, distances }
    }

    /// The nodes of the topology.
    pub fn nodes(&self) -> &[VNumaNode] {
        &self.nodes
    }

    /// Total memory across all nodes.
    pub fn total_memory(&self) -> Bytes {
        self.nodes.iter().map(|n| n.memory).sum()
    }

    /// Renders the topology the way `numactl --hardware` shows it inside the
    /// guest (Figure 10), for logging and examples.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "available: {} nodes (0-{})\n",
            self.nodes.len(),
            self.nodes.len() - 1
        ));
        for n in &self.nodes {
            out.push_str(&format!(
                "node {} cpus: {}\nnode {} size: {} MB\n",
                n.id,
                if n.cpus == 0 { "(none)".to_string() } else { format!("0-{}", n.cpus - 1) },
                n.id,
                n.memory.as_mib()
            ));
        }
        out.push_str("node distances:\n");
        for (i, row) in self.distances.iter().enumerate() {
            out.push_str(&format!("node {i}: "));
            out.push_str(&row.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(" "));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(pool_gib: u64) -> VmConfig {
        VmConfig { cores: 8, memory: Bytes::from_gib(64), pool_memory: Bytes::from_gib(pool_gib) }
    }

    #[test]
    fn vm_without_pool_memory_has_a_single_node() {
        let topo = VNumaTopology::for_vm(&config(0), LatencyScenario::Increase182);
        assert_eq!(topo.nodes(), [VNumaNode { id: 0, cpus: 8, memory: Bytes::from_gib(64) }]);
        assert!(topo.describe().ends_with("node distances:\nnode 0: 10\n"));
        assert_eq!(topo.total_memory(), Bytes::from_gib(64));
    }

    #[test]
    fn pool_memory_appears_as_a_zero_core_node() {
        let topo = VNumaTopology::for_vm(&config(16), LatencyScenario::Increase182);
        assert_eq!(topo.nodes().len(), 2);
        let znuma = topo.nodes()[1];
        assert_eq!(znuma.cpus, 0);
        assert_eq!(znuma.memory, Bytes::from_gib(16));
        assert_eq!(topo.nodes()[0].cpus, 8);
        // Memory and CPUs are conserved.
        assert_eq!(topo.total_memory(), Bytes::from_gib(64));
        assert_eq!(topo.nodes().iter().map(|n| n.cpus).sum::<u32>(), 8);
    }

    #[test]
    fn slit_distances_reflect_the_latency_ratio() {
        let t182 = VNumaTopology::for_vm(&config(16), LatencyScenario::Increase182);
        let t222 = VNumaTopology::for_vm(&config(16), LatencyScenario::Increase222);
        assert!(t182.describe().ends_with("node distances:\nnode 0: 10 18\nnode 1: 18 10\n"));
        assert!(t222.describe().ends_with("node distances:\nnode 0: 10 22\nnode 1: 22 10\n"));
    }

    #[test]
    fn describe_matches_the_numactl_shape() {
        let topo = VNumaTopology::for_vm(&config(16), LatencyScenario::Increase182);
        let text = topo.describe();
        assert!(text.contains("available: 2 nodes"));
        assert!(text.contains("node 1 cpus: (none)"));
        assert!(text.contains("node distances:"));
    }
}
