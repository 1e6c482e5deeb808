//! VM scheduling: the memory-allocation policy hook and the bin-packing
//! placement logic.
//!
//! The scheduler mirrors Azure's Protean-style best-fit packing at the level
//! of detail the paper's simulator needs: a VM goes to the server (and NUMA
//! node) that leaves the least slack, memory is preallocated at start, and
//! the split between local and pool memory is decided by a
//! [`MemoryPolicy`] — the strawman policies live here, Pond's ML-driven
//! policy is implemented in `pond-core` on top of the same trait.

use crate::server::{Placement, Server};
use crate::trace::VmRequest;
use cxl_hw::units::Bytes;
use std::collections::{BTreeMap, BTreeSet};

/// Decides how much of a VM's memory is allocated from the CXL pool.
///
/// Implementations may keep state (e.g. per-customer history); the simulator
/// calls [`MemoryPolicy::pool_memory`] once per VM arrival, in arrival order,
/// and reports the eventual QoS outcome through
/// [`MemoryPolicy::observe_outcome`].
pub trait MemoryPolicy {
    /// Pool memory to allocate for this VM. The simulator clamps the value to
    /// the VM's memory size and floors it to whole 1 GiB slices via
    /// [`align_pool_memory`] (the paper's §4.2 "1 GB-aligned" pool slices,
    /// realized as binary GiB throughout this reproduction).
    fn pool_memory(&mut self, request: &VmRequest) -> Bytes;

    /// Callback after the VM's QoS outcome is known: `slowdown` is the
    /// fractional slowdown the VM experienced and `exceeded_pdm` whether it
    /// violated the performance degradation margin. Policies that learn
    /// online (Pond's sensitivity history) use this; the default ignores it.
    fn observe_outcome(&mut self, request: &VmRequest, slowdown: f64, exceeded_pdm: bool) {
        let _ = (request, slowdown, exceeded_pdm);
    }

    /// Human-readable policy name for reports.
    fn name(&self) -> &str {
        "unnamed-policy"
    }
}

/// The no-pooling baseline: every byte is NUMA-local.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllLocal;

impl MemoryPolicy for AllLocal {
    fn pool_memory(&mut self, _request: &VmRequest) -> Bytes {
        Bytes::ZERO
    }

    fn name(&self) -> &str {
        "all-local"
    }
}

/// The static strawman: a fixed percentage of every VM's memory comes from
/// the pool (the policy Figures 3 and 21 compare Pond against).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPoolFraction {
    fraction: f64,
}

impl FixedPoolFraction {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` is within `[0, 1]`.
    pub fn new(fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "pool fraction must be in [0, 1]");
        FixedPoolFraction { fraction }
    }

    /// The configured fraction.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }
}

impl MemoryPolicy for FixedPoolFraction {
    fn pool_memory(&mut self, request: &VmRequest) -> Bytes {
        request.memory.scaled(self.fraction)
    }

    fn name(&self) -> &str {
        "fixed-pool-fraction"
    }
}

/// Clamps a policy's pool-memory decision to the VM's size and floors it to
/// whole 1 GiB slices (the granularity the pool hands out capacity in; the
/// paper's §4.2 quotes "1 GB" slices, which this reproduction realizes as
/// binary GiB throughout).
///
/// Both drivers of a memory policy go through this one function — the
/// [`crate::simulation::Simulation`] replay before placing, and
/// `pond-core`'s control plane before onlining EMC slices — so a decision
/// can never mean different byte counts in the two pipelines.
pub fn align_pool_memory(request: &VmRequest, raw: Bytes) -> Bytes {
    let clamped = Bytes::new(raw.as_u64().min(request.memory.as_u64()));
    Bytes::from_gib(clamped.slices_floor())
}

/// The one host-selection preference shared by every placement path in this
/// reproduction: tightest fit on free cores first (pack cores, keep whole
/// servers free for large VMs), most free DRAM second (leave the most
/// memory headroom at equal core tightness), lowest index last (a
/// deterministic tie-break).
///
/// Both [`PlacementEngine::place`] (the cluster simulator) and `pond-core`'s
/// control plane order their candidates by this key — `min_by_key` over it —
/// so fleet-replay and cluster-simulation results are comparable
/// placement-for-placement, not just policy-for-policy. Hosts without a core
/// model pass `free_cores: 0`, reducing the key to most-free-DRAM.
pub fn host_selection_key(
    free_cores: u32,
    free_dram: Bytes,
    index: usize,
) -> (u32, std::cmp::Reverse<u64>, usize) {
    (free_cores, std::cmp::Reverse(free_dram.as_u64()), index)
}

/// The cluster-wide placement engine: a vector of servers plus best-fit
/// placement across them.
///
/// Candidate selection is backed by an incrementally maintained free-core
/// bucket index (`free cores -> servers with that many free cores`), so each
/// placement walks the candidate buckets in tightest-fit order in O(log n)
/// instead of re-sorting the whole server list per arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementEngine {
    servers: Vec<Server>,
    /// Free cores -> indices of servers with exactly that many free cores.
    /// Invariant: every server index appears in exactly the bucket matching
    /// its current `free_cores()`; empty buckets are removed.
    by_free_cores: BTreeMap<u32, BTreeSet<usize>>,
}

impl PlacementEngine {
    /// Creates `count` servers of the given shape. `enforce_memory` controls
    /// whether server DRAM is a hard capacity (stranding analysis) or
    /// unbounded (DRAM-requirement analysis).
    pub fn new(
        count: u32,
        cores_per_server: u32,
        dram_per_server: Bytes,
        enforce_memory: bool,
    ) -> Self {
        let servers: Vec<Server> = (0..count)
            .map(|i| Server::new(i, cores_per_server, dram_per_server, enforce_memory))
            .collect();
        let mut by_free_cores: BTreeMap<u32, BTreeSet<usize>> = BTreeMap::new();
        for (i, server) in servers.iter().enumerate() {
            by_free_cores.entry(server.free_cores()).or_default().insert(i);
        }
        PlacementEngine { servers, by_free_cores }
    }

    /// The servers (read-only).
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Moves a server between free-core buckets after its core usage changed.
    fn reindex(&mut self, server: usize, old_free: u32) {
        let new_free = self.servers[server].free_cores();
        if new_free == old_free {
            return;
        }
        if let Some(bucket) = self.by_free_cores.get_mut(&old_free) {
            bucket.remove(&server);
            if bucket.is_empty() {
                self.by_free_cores.remove(&old_free);
            }
        }
        self.by_free_cores.entry(new_free).or_default().insert(server);
    }

    /// Places a VM using best fit on free cores: among servers that can hold
    /// the VM, pick the one with the fewest free cores (tightest fit). This
    /// keeps some servers empty for large VMs and concentrates utilization,
    /// which is what produces stranding on the packed servers.
    ///
    /// The bucket index walks candidates in [`host_selection_key`] order —
    /// free cores ascending (the buckets), then most free DRAM, then server
    /// index — skipping every server with fewer free cores than the request
    /// outright.
    ///
    /// Returns the chosen server index and placement, or `None` if no server
    /// can host the VM.
    pub fn place(
        &mut self,
        request: &VmRequest,
        local_memory: Bytes,
    ) -> Option<(usize, Placement)> {
        let mut chosen: Option<(usize, u32, Placement)> = None;
        let servers = &mut self.servers;
        let mut rest: Vec<usize> = Vec::new();
        'buckets: for (&free, bucket) in self.by_free_cores.range(request.cores..) {
            // Within a bucket every server has the same free-core count, so
            // the shared key reduces to (most free DRAM, lowest index). The
            // best candidate almost always accepts, so find it with a linear
            // scan; only when it declines is the remainder sorted and walked
            // (identical visit order to a full sort, without paying
            // O(n log n) per arrival on the common path).
            let Some(best) = bucket
                .iter()
                .copied()
                .min_by_key(|&i| host_selection_key(free, servers[i].free_memory(), i))
            else {
                continue;
            };
            // `try_place` can still decline (per-node core split, memory);
            // it leaves the server untouched in that case, so the index
            // stays valid and the scan continues.
            if let Some(placement) = servers[best].try_place(request, local_memory) {
                chosen = Some((best, free, placement));
                break 'buckets;
            }
            rest.clear();
            rest.extend(bucket.iter().copied().filter(|&i| i != best));
            rest.sort_by_key(|&i| host_selection_key(free, servers[i].free_memory(), i));
            for &i in &rest {
                if let Some(placement) = servers[i].try_place(request, local_memory) {
                    chosen = Some((i, free, placement));
                    break 'buckets;
                }
            }
        }
        let (server, old_free, placement) = chosen?;
        self.reindex(server, old_free);
        Some((server, placement))
    }

    /// Removes a VM from a server.
    pub fn remove(&mut self, server: usize, vm: u64, cores: u32) -> Option<Placement> {
        let old_free = self.servers.get(server)?.free_cores();
        let placement = self.servers.get_mut(server)?.remove(vm, cores)?;
        self.reindex(server, old_free);
        Some(placement)
    }

    /// Adds local memory to an existing placement (QoS mitigation converting
    /// pool memory to local memory). Memory growth never changes a server's
    /// free cores, so the placement index needs no update.
    pub fn grow_local(&mut self, server: usize, vm: u64, amount: Bytes) -> bool {
        self.servers.get_mut(server).is_some_and(|s| s.grow_local(vm, amount))
    }

    /// Total and used cores across the cluster.
    pub fn core_usage(&self) -> (u64, u64) {
        let total = self.servers.iter().map(|s| s.total_cores() as u64).sum();
        let used = self.servers.iter().map(|s| s.used_cores() as u64).sum();
        (used, total)
    }

    /// Sum of used (pinned local) memory across all servers.
    pub fn used_memory(&self) -> Bytes {
        self.servers.iter().map(|s| s.used_memory()).sum()
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

    #[test]
    fn all_local_assigns_no_pool_memory() {
        let mut policy = AllLocal;
        assert_eq!(policy.pool_memory(&request(1, 4, 32)), Bytes::ZERO);
        assert_eq!(policy.name(), "all-local");
    }

    #[test]
    fn fixed_fraction_scales_with_vm_memory() {
        let mut policy = FixedPoolFraction::new(0.5);
        assert_eq!(policy.pool_memory(&request(1, 4, 32)), Bytes::from_gib(16));
        assert_eq!(policy.fraction(), 0.5);
        // Default observe_outcome is a no-op and must not panic.
        policy.observe_outcome(&request(1, 4, 32), 0.3, true);
    }

    #[test]
    #[should_panic(expected = "pool fraction")]
    fn fixed_fraction_rejects_out_of_range() {
        let _ = FixedPoolFraction::new(1.5);
    }

    #[test]
    fn align_pool_memory_rounds_down_and_clamps() {
        let r = request(1, 4, 8);
        assert_eq!(align_pool_memory(&r, Bytes::from_mib(3500)), Bytes::from_gib(3));
        assert_eq!(align_pool_memory(&r, Bytes::from_gib(100)), Bytes::from_gib(8));
        assert_eq!(align_pool_memory(&r, Bytes::ZERO), Bytes::ZERO);
    }

    #[test]
    fn engine_places_with_best_fit() {
        let mut engine = PlacementEngine::new(3, 48, Bytes::from_gib(384), true);
        // Pre-load server 0 so it becomes the tightest fit.
        let (s0, _) = engine.place(&request(1, 20, 10), Bytes::from_gib(10)).unwrap();
        let (s1, _) = engine.place(&request(2, 4, 10), Bytes::from_gib(10)).unwrap();
        assert_eq!(s0, s1, "small VM should pack onto the already-loaded server");
        let (used, total) = engine.core_usage();
        assert_eq!(used, 24);
        assert_eq!(total, 3 * 48);
    }

    #[test]
    fn equal_core_tightness_breaks_ties_on_free_dram() {
        let mut engine = PlacementEngine::new(3, 8, Bytes::from_gib(64), true);
        // Load servers 0 and 1 to the same core usage but different memory
        // usage; server 2 stays empty (loosest fit, never preferred).
        engine.place(&request(1, 4, 30), Bytes::from_gib(30)).unwrap();
        engine.place(&request(2, 4, 4), Bytes::from_gib(4)).unwrap();
        let s0_key = host_selection_key(4, Bytes::from_gib(34), 0);
        let s1_key = host_selection_key(4, Bytes::from_gib(60), 1);
        assert!(s1_key < s0_key, "more free DRAM wins at equal core tightness");
        // Both loaded servers have 4 free cores; the one with more free DRAM
        // (server 1, which took the 4 GiB VM) must win the tie.
        let (server, _) = engine.place(&request(3, 2, 2), Bytes::from_gib(2)).unwrap();
        assert_eq!(server, 1);
        // At fully equal keys, the lowest index wins.
        let mut fresh = PlacementEngine::new(2, 8, Bytes::from_gib(64), true);
        let (server, _) = fresh.place(&request(4, 2, 2), Bytes::from_gib(2)).unwrap();
        assert_eq!(server, 0);
    }

    #[test]
    fn engine_rejects_when_full() {
        let mut engine = PlacementEngine::new(1, 8, Bytes::from_gib(32), true);
        assert!(engine.place(&request(1, 4, 8), Bytes::from_gib(8)).is_some());
        assert!(engine.place(&request(2, 4, 8), Bytes::from_gib(8)).is_some());
        assert!(engine.place(&request(3, 1, 1), Bytes::from_gib(1)).is_none());
        // Removal opens capacity again.
        engine.remove(0, 1, 4).unwrap();
        assert!(engine.place(&request(4, 4, 8), Bytes::from_gib(8)).is_some());
    }

    #[test]
    fn stranded_memory_aggregates_across_servers() {
        let mut engine = PlacementEngine::new(2, 8, Bytes::from_gib(64), true);
        // Fill one server's cores (4 per NUMA node) with memory-light VMs.
        engine.place(&request(1, 4, 4), Bytes::from_gib(4)).unwrap();
        engine.place(&request(2, 4, 4), Bytes::from_gib(4)).unwrap();
        let stranded: Bytes = engine.servers().iter().map(|s| s.stranded_memory(2)).sum();
        assert_eq!(stranded, Bytes::from_gib(56));
        assert_eq!(engine.used_memory(), Bytes::from_gib(8));
    }

    #[test]
    fn single_node_placement_prefers_the_tightest_numa_node() {
        use crate::server::Server;
        // 8 cores -> 4 per NUMA node, 32 GiB -> 16 per node.
        let mut server = Server::new(0, 8, Bytes::from_gib(32), true);
        let p1 = server.try_place(&request(1, 3, 8), Bytes::from_gib(8)).unwrap();
        assert!(!p1.spans_numa());
        assert_eq!(p1.local_on_other_node, Bytes::ZERO);
        // The node hosting VM 1 has one free core left: best fit must pack
        // the 1-core VM there rather than opening the empty node.
        let p2 = server.try_place(&request(2, 1, 2), Bytes::from_gib(2)).unwrap();
        assert!(!p2.spans_numa());
        assert_eq!(p2.core_node, p1.core_node);
    }

    #[test]
    fn spanning_fallback_splits_memory_across_nodes() {
        use crate::server::Server;
        let mut server = Server::new(0, 8, Bytes::from_gib(32), true);
        // Load one node with 10 GiB so no single node can hold 18 GiB.
        let first = server.try_place(&request(1, 2, 10), Bytes::from_gib(10)).unwrap();
        assert!(!first.spans_numa());
        // 4 cores fit only on the empty node; 18 GiB exceeds its 16 GiB, so
        // the placement spans: cores + 16 GiB on one node, 2 GiB on the other.
        let spanning = server.try_place(&request(2, 4, 18), Bytes::from_gib(18)).unwrap();
        assert!(spanning.spans_numa());
        assert_eq!(spanning.local_on_core_node + spanning.local_on_other_node, Bytes::from_gib(18));
        assert_eq!(server.used_memory(), Bytes::from_gib(28));
    }

    proptest! {
        /// Best-fit placement never oversubscribes any server's cores, and
        /// with memory enforcement on, never its DRAM either — across
        /// arbitrary interleavings of placements and departures.
        #[test]
        fn placement_never_oversubscribes(
            ops in proptest::collection::vec(
                (1u64..40, 1u32..24, 1u64..96, proptest::bool::ANY),
                0..80
            )
        ) {
            let mut engine = PlacementEngine::new(4, 16, Bytes::from_gib(64), true);
            let mut live: std::collections::BTreeMap<u64, (usize, u32)> = Default::default();
            for (id, cores, gib, remove) in ops {
                if remove {
                    if let Some((server, c)) = live.remove(&id) {
                        engine.remove(server, id, c).expect("live VM must be removable");
                    }
                } else if let std::collections::btree_map::Entry::Vacant(entry) = live.entry(id) {
                    let r = request(id, cores, gib);
                    if let Some((server, _)) = engine.place(&r, r.memory) {
                        entry.insert((server, cores));
                    }
                }
                for s in engine.servers() {
                    prop_assert!(s.used_cores() <= s.total_cores());
                    prop_assert!(s.used_memory() <= s.total_memory());
                }
            }
        }
    }
}
