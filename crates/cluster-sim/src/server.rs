//! Dual-socket servers with per-NUMA-node core and memory accounting.
//!
//! The hypervisor schedules VMs so that cores and memory come from the same
//! NUMA node whenever possible (§3.1 reports NUMA spanning for only 2-3% of
//! VMs). Pool memory does not consume server DRAM — it is accounted against
//! the pool the server's sockets belong to.

use crate::trace::VmRequest;
use cxl_hw::units::Bytes;
use std::collections::BTreeMap;

/// Index of a NUMA node within a server (0 or 1 for dual-socket servers).
pub type NodeIndex = usize;

/// Resources of one NUMA node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NumaNode {
    cores_total: u32,
    cores_used: u32,
    memory_total: Bytes,
    memory_used: Bytes,
}

impl NumaNode {
    fn free_cores(&self) -> u32 {
        self.cores_total - self.cores_used
    }
    fn free_memory(&self) -> Bytes {
        self.memory_total.saturating_sub(self.memory_used)
    }
}

/// A placement decision for one VM on a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// NUMA node holding the VM's cores.
    pub core_node: NodeIndex,
    /// Local memory taken from the core node.
    pub local_on_core_node: Bytes,
    /// Local memory spilled to the other node (NUMA spanning, rare).
    pub local_on_other_node: Bytes,
}

impl Placement {
    /// Whether the placement spans NUMA nodes.
    pub fn spans_numa(&self) -> bool {
        !self.local_on_other_node.is_zero()
    }

    /// Total local memory pinned by the placement.
    pub fn local_total(&self) -> Bytes {
        self.local_on_core_node + self.local_on_other_node
    }
}

/// One dual-socket server.
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    id: u32,
    nodes: [NumaNode; 2],
    placements: BTreeMap<u64, Placement>,
    enforce_memory: bool,
}

impl Server {
    /// Creates a server with `cores` and `memory` split evenly across two
    /// NUMA nodes. When `enforce_memory` is false the server behaves as if it
    /// had unbounded DRAM (used for DRAM-requirement analysis where the
    /// question is how much DRAM *would* be needed).
    pub fn new(id: u32, cores: u32, memory: Bytes, enforce_memory: bool) -> Self {
        let node = NumaNode {
            cores_total: cores / 2,
            cores_used: 0,
            memory_total: Bytes::new(memory.as_u64() / 2),
            memory_used: Bytes::ZERO,
        };
        Server { id, nodes: [node, node], placements: BTreeMap::new(), enforce_memory }
    }

    /// The server's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Total cores across both sockets.
    pub fn total_cores(&self) -> u32 {
        self.nodes.iter().map(|n| n.cores_total).sum()
    }

    /// Cores currently allocated to VMs.
    pub fn used_cores(&self) -> u32 {
        self.nodes.iter().map(|n| n.cores_used).sum()
    }

    /// Free cores across both sockets.
    pub fn free_cores(&self) -> u32 {
        self.total_cores() - self.used_cores()
    }

    /// Total DRAM across both sockets.
    pub fn total_memory(&self) -> Bytes {
        self.nodes.iter().map(|n| n.memory_total).sum()
    }

    /// DRAM currently pinned for VMs (local memory only).
    pub fn used_memory(&self) -> Bytes {
        self.nodes.iter().map(|n| n.memory_used).sum()
    }

    /// Free DRAM across both sockets.
    pub fn free_memory(&self) -> Bytes {
        self.total_memory().saturating_sub(self.used_memory())
    }

    /// Stranded memory: DRAM that cannot be rented because the server's
    /// cores are (effectively) exhausted. `min_cores` is the smallest VM the
    /// cluster sells; a server with fewer free cores than that cannot host
    /// anything new.
    pub fn stranded_memory(&self, min_cores: u32) -> Bytes {
        if self.free_cores() < min_cores.max(1) {
            self.free_memory()
        } else {
            Bytes::ZERO
        }
    }

    /// Whether the VM could be placed entirely on one node right now, and on
    /// which node.
    fn fit_node(&self, cores: u32, local_memory: Bytes) -> Option<NodeIndex> {
        // Prefer the node where the VM fits entirely (cores + memory); pick
        // the one with less free capacity (best fit) to keep the other node
        // open for large VMs. Physical node DRAM bounds the fit in both
        // capacity modes — with enforcement off a VM that exceeds every
        // node's free DRAM still places (via the spanning fallback), it just
        // cannot pretend its memory is NUMA-local.
        let mut best: Option<(NodeIndex, u32)> = None;
        for (i, node) in self.nodes.iter().enumerate() {
            if node.free_cores() >= cores && node.free_memory() >= local_memory {
                let leftover = node.free_cores() - cores;
                if best.is_none_or(|(_, b)| leftover < b) {
                    best = Some((i, leftover));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// The node a NUMA-spanning placement puts its cores on: the tightest
    /// core fit among the nodes with enough free cores — the same best-fit
    /// rule the single-node path uses.
    fn spanning_core_node(&self, cores: u32) -> Option<NodeIndex> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].free_cores() >= cores)
            .min_by_key(|&i| self.nodes[i].free_cores() - cores)
    }

    /// Attempts to place a VM with `cores` and `local_memory` on this server.
    ///
    /// Placement prefers a single NUMA node; if no node can hold both the
    /// cores and the memory, it falls back to NUMA spanning — cores on the
    /// tightest-fitting node, memory filling that node's free DRAM first and
    /// spilling the remainder onto the other node — which the paper observes
    /// for 2-3% of VMs. The split rule is the same in both capacity modes;
    /// `enforce_memory: false` only stops the server-wide capacity check from
    /// rejecting the VM.
    ///
    /// Returns `None` (leaving the server untouched) when the VM cannot fit.
    pub fn try_place(&mut self, request: &VmRequest, local_memory: Bytes) -> Option<Placement> {
        if self.placements.contains_key(&request.id) {
            return None;
        }
        // Single-node placement.
        if let Some(node) = self.fit_node(request.cores, local_memory) {
            let placement = Placement {
                core_node: node,
                local_on_core_node: local_memory,
                local_on_other_node: Bytes::ZERO,
            };
            self.apply(request.id, request.cores, placement);
            return Some(placement);
        }
        // NUMA-spanning fallback: cores on the tightest-fitting node, memory
        // split across both nodes.
        let core_node = self.spanning_core_node(request.cores)?;
        if self.enforce_memory && self.free_memory() < local_memory {
            return None;
        }
        let on_core = local_memory.min(self.nodes[core_node].free_memory());
        let placement = Placement {
            core_node,
            local_on_core_node: on_core,
            local_on_other_node: local_memory - on_core,
        };
        self.apply(request.id, request.cores, placement);
        Some(placement)
    }

    fn apply(&mut self, vm: u64, cores: u32, placement: Placement) {
        self.nodes[placement.core_node].cores_used += cores;
        self.nodes[placement.core_node].memory_used += placement.local_on_core_node;
        self.nodes[1 - placement.core_node].memory_used += placement.local_on_other_node;
        self.placements.insert(vm, placement);
    }

    /// Removes a VM, returning its placement (or `None` if it was not here).
    pub fn remove(&mut self, vm: u64, cores: u32) -> Option<Placement> {
        let placement = self.placements.remove(&vm)?;
        self.nodes[placement.core_node].cores_used -= cores;
        self.nodes[placement.core_node].memory_used -= placement.local_on_core_node;
        self.nodes[1 - placement.core_node].memory_used -= placement.local_on_other_node;
        Some(placement)
    }

    /// Adds local memory to an existing placement (used when a QoS mitigation
    /// converts pool memory to local memory). Ignores memory-capacity limits:
    /// the mitigation path only runs when the host has local headroom, and in
    /// requirement-analysis mode capacity is unbounded anyway.
    pub fn grow_local(&mut self, vm: u64, amount: Bytes) -> bool {
        match self.placements.get_mut(&vm) {
            Some(p) => {
                p.local_on_core_node += amount;
                let node = p.core_node;
                self.nodes[node].memory_used += amount;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CustomerId, GuestOs, VmType};
    use proptest::prelude::*;

    fn request(id: u64, cores: u32, gib: u64) -> VmRequest {
        VmRequest {
            id,
            arrival: 0,
            lifetime: 100,
            cores,
            memory: Bytes::from_gib(gib),
            customer: CustomerId(0),
            vm_type: VmType::GeneralPurpose,
            guest_os: GuestOs::Linux,
            region: 0,
            workload_index: 0,
            untouched_fraction: 0.5,
        }
    }

    fn server() -> Server {
        Server::new(0, 48, Bytes::from_gib(384), true)
    }

    #[test]
    fn placement_prefers_a_single_numa_node() {
        let mut s = server();
        let r = request(1, 8, 64);
        let p = s.try_place(&r, Bytes::from_gib(64)).unwrap();
        assert!(!p.spans_numa());
        assert_eq!(p.local_total(), Bytes::from_gib(64));
        assert_eq!(s.used_cores(), 8);
        assert_eq!(s.used_memory(), Bytes::from_gib(64));
        assert_eq!(s.placements.len(), 1);
    }

    #[test]
    fn best_fit_packs_the_fuller_node_first() {
        let mut s = server();
        // Fill node 0 partially.
        s.try_place(&request(1, 20, 10), Bytes::from_gib(10)).unwrap();
        // The next small VM should land on the same (fuller) node.
        let p = s.try_place(&request(2, 2, 10), Bytes::from_gib(10)).unwrap();
        assert_eq!(p.core_node, 0);
    }

    #[test]
    fn numa_spanning_happens_only_when_memory_forces_it() {
        let mut s = server();
        // Consume most of node 0's memory but few cores.
        s.try_place(&request(1, 2, 180), Bytes::from_gib(180)).unwrap();
        s.try_place(&request(2, 2, 180), Bytes::from_gib(180)).unwrap();
        // Next VM needs 20 GiB but both nodes have only 12 GiB free each;
        // spanning splits it across nodes.
        let p = s.try_place(&request(3, 4, 20), Bytes::from_gib(20)).unwrap();
        assert!(p.spans_numa());
        assert_eq!(p.local_total(), Bytes::from_gib(20));
    }

    #[test]
    fn placement_fails_when_cores_or_memory_exhausted() {
        let mut s = server();
        assert!(
            s.try_place(&request(1, 48, 10), Bytes::from_gib(10)).is_none(),
            "one node has only 24 cores"
        );
        s.try_place(&request(2, 24, 10), Bytes::from_gib(10)).unwrap();
        s.try_place(&request(3, 24, 10), Bytes::from_gib(10)).unwrap();
        assert_eq!(s.free_cores(), 0);
        assert!(s.try_place(&request(4, 1, 1), Bytes::from_gib(1)).is_none());
        // Memory exhaustion.
        let mut s2 = server();
        assert!(s2.try_place(&request(5, 4, 500), Bytes::from_gib(500)).is_none());
    }

    #[test]
    fn unenforced_memory_never_blocks_placement() {
        let mut s = Server::new(0, 48, Bytes::from_gib(4), false);
        let p = s.try_place(&request(1, 4, 500), Bytes::from_gib(500)).unwrap();
        assert_eq!(p.local_total(), Bytes::from_gib(500));
        assert_eq!(s.used_memory(), Bytes::from_gib(500));
    }

    /// Regression: when both nodes have enough free cores but neither has the
    /// memory, the spanning fallback must put the cores on the tightest node
    /// (best fit), not blindly on node 0.
    #[test]
    fn spanning_puts_cores_on_the_tightest_node() {
        // 24 cores / 16 GiB per node, memory enforced.
        let mut s = Server::new(0, 48, Bytes::from_gib(32), true);
        s.try_place(&request(1, 4, 14), Bytes::from_gib(14)).unwrap(); // node 0
        let second = s.try_place(&request(2, 6, 14), Bytes::from_gib(14)).unwrap();
        assert_eq!(second.core_node, 1, "node 0 has only 2 GiB free");
        // Neither node has 3 GiB free; both have >= 2 free cores. Node 1 is
        // the tighter core fit (18 free vs. 20 free).
        let spanning = s.try_place(&request(3, 2, 3), Bytes::from_gib(3)).unwrap();
        assert!(spanning.spans_numa());
        assert_eq!(spanning.core_node, 1);
        assert_eq!(spanning.local_on_core_node, Bytes::from_gib(2));
        assert_eq!(spanning.local_on_other_node, Bytes::from_gib(1));
        assert_eq!(s.used_memory(), Bytes::from_gib(31));
    }

    /// Regression: with memory enforcement off, a spanning placement uses the
    /// same split rule as the enforced path — fill the core node's physical
    /// DRAM, spill the remainder to the other node — instead of charging
    /// everything to the core node.
    #[test]
    fn unenforced_spanning_splits_by_physical_capacity() {
        // 4 cores / 16 GiB per node, memory NOT enforced.
        let mut s = Server::new(0, 8, Bytes::from_gib(32), false);
        let p = s.try_place(&request(1, 2, 30), Bytes::from_gib(30)).unwrap();
        assert!(p.spans_numa(), "no single node holds 30 GiB");
        assert_eq!(p.local_on_core_node, Bytes::from_gib(16));
        assert_eq!(p.local_on_other_node, Bytes::from_gib(14));
        assert_eq!(s.used_memory(), Bytes::from_gib(30));
        // Removal unwinds both nodes' shares.
        s.remove(1, 2).unwrap();
        assert_eq!(s.used_memory(), Bytes::ZERO);
    }

    #[test]
    fn remove_restores_capacity() {
        let mut s = server();
        let r = request(1, 8, 64);
        s.try_place(&r, Bytes::from_gib(64)).unwrap();
        let p = s.remove(1, 8).unwrap();
        assert_eq!(p.local_total(), Bytes::from_gib(64));
        assert_eq!(s.used_cores(), 0);
        assert_eq!(s.used_memory(), Bytes::ZERO);
        assert!(s.remove(1, 8).is_none());
    }

    #[test]
    fn stranding_requires_core_exhaustion() {
        let mut s = server();
        s.try_place(&request(1, 24, 50), Bytes::from_gib(50)).unwrap();
        assert_eq!(s.stranded_memory(2), Bytes::ZERO, "cores still available");
        s.try_place(&request(2, 23, 50), Bytes::from_gib(50)).unwrap();
        // 1 free core < 2 minimum: the remaining memory is stranded.
        assert_eq!(s.stranded_memory(2), Bytes::from_gib(284));
        assert_eq!(s.stranded_memory(1), Bytes::ZERO, "a 1-core VM could still land");
    }

    #[test]
    fn grow_local_extends_an_existing_placement() {
        let mut s = server();
        s.try_place(&request(1, 4, 16), Bytes::from_gib(16)).unwrap();
        assert!(s.grow_local(1, Bytes::from_gib(8)));
        assert_eq!(s.used_memory(), Bytes::from_gib(24));
        assert!(!s.grow_local(99, Bytes::from_gib(8)));
    }

    #[test]
    fn duplicate_placement_is_rejected() {
        let mut s = server();
        let r = request(1, 4, 16);
        assert!(s.try_place(&r, Bytes::from_gib(16)).is_some());
        assert!(s.try_place(&r, Bytes::from_gib(16)).is_none());
    }

    proptest! {
        /// Core and memory accounting is conserved across arbitrary
        /// place/remove sequences.
        #[test]
        fn accounting_is_conserved(ops in proptest::collection::vec((1u64..20, 1u32..16, 1u64..64, proptest::bool::ANY), 0..60)) {
            let mut s = server();
            let mut live: std::collections::BTreeMap<u64, u32> = Default::default();
            for (id, cores, gib, remove) in ops {
                if remove {
                    if let Some(c) = live.remove(&id) {
                        s.remove(id, c);
                    }
                } else if let std::collections::btree_map::Entry::Vacant(entry) = live.entry(id) {
                    let r = request(id, cores, gib);
                    if s.try_place(&r, Bytes::from_gib(gib)).is_some() {
                        entry.insert(cores);
                    }
                }
                let expected_cores: u32 = live.values().sum();
                prop_assert_eq!(s.used_cores(), expected_cores);
                prop_assert!(s.used_cores() <= s.total_cores());
                prop_assert!(s.used_memory() <= s.total_memory());
                prop_assert_eq!(s.placements.len(), live.len());
            }
        }
    }
}
