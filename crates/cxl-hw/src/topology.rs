//! Pool topology construction (Figures 6 and 7).
//!
//! A Pond pool is defined by the number of CPU sockets that can reach the
//! same memory, the EMCs that provide the capacity, and the interconnect
//! path between a socket and an EMC (direct CXL link, link with retimers, or
//! one or more switch hops). The paper's key design choice is the
//! multi-headed EMC, which keeps 8- and 16-socket pools switch-free.

use crate::emc::EmcConfig;
use crate::error::CxlError;
use crate::latency::{Latency, LatencyModel};
use crate::units::{Bytes, HostId};

/// The interconnect path between a CPU socket and the EMC that owns a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interconnect {
    /// Direct CXL attach. `retimers` is the number of retimers on the path
    /// (each adds latency in both directions); paths longer than ~500 mm
    /// need one (§4.1).
    Direct {
        /// Retimers on the path.
        retimers: u8,
    },
    /// The path crosses one or more CXL switches. Each switch hop adds port,
    /// arbitration, and NoC latency; `retimers_per_hop` retimers sit on each
    /// electrical segment.
    Switched {
        /// Number of switch hops.
        switches: u8,
        /// Retimers per electrical segment (there are `switches + 1` segments).
        retimers_per_hop: u8,
    },
}

impl Interconnect {
    /// Total number of retimers traversed one way.
    pub fn retimer_count(&self) -> u8 {
        match *self {
            Interconnect::Direct { retimers } => retimers,
            Interconnect::Switched { switches, retimers_per_hop } => {
                (switches + 1) * retimers_per_hop
            }
        }
    }

    /// Number of switch hops traversed.
    pub fn switch_count(&self) -> u8 {
        match *self {
            Interconnect::Direct { .. } => 0,
            Interconnect::Switched { switches, .. } => switches,
        }
    }
}

/// A complete pool topology.
///
/// # Example
///
/// ```
/// use cxl_hw::topology::PoolTopology;
///
/// let pond16 = PoolTopology::pond(16)?;
/// assert_eq!(pond16.sockets(), 16);
/// assert_eq!(pond16.interconnect().switch_count(), 0);
///
/// let switch64 = PoolTopology::switch_only(64)?;
/// assert!(switch64.interconnect().switch_count() >= 2);
/// # Ok::<(), cxl_hw::CxlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PoolTopology {
    sockets: u16,
    interconnect: Interconnect,
    emc_configs: Vec<EmcConfig>,
}

impl PoolTopology {
    /// Pool sizes the Pond EMC design supports (§4.1).
    pub const SUPPORTED_SOCKETS: [u16; 6] = [2, 4, 8, 16, 32, 64];

    /// Builds a Pond pool (multi-headed EMC design) for the given socket count.
    ///
    /// * ≤ 8 sockets: one half-size EMC, direct attach, no retimers.
    /// * ≤ 16 sockets: one full-size EMC, direct attach, one retimer
    ///   (datacenter distances above ~500 mm).
    /// * 32/64 sockets: switched design combining CXL switches with
    ///   multi-headed EMCs; retimers on both segments.
    ///
    /// The default capacity provisions 1 TB per EMC, the sizing used in the
    /// paper's state-table example; use [`PoolTopology::pond_with_capacity`]
    /// to choose it.
    ///
    /// # Errors
    ///
    /// Returns [`CxlError::UnsupportedPoolSize`] for socket counts outside
    /// [`PoolTopology::SUPPORTED_SOCKETS`].
    pub fn pond(sockets: u16) -> Result<Self, CxlError> {
        Self::pond_with_capacity(sockets, Bytes::from_gib(1024))
    }

    /// Builds a Pond pool with a specific total pool capacity.
    ///
    /// # Errors
    ///
    /// Returns [`CxlError::UnsupportedPoolSize`] for unsupported socket counts.
    pub fn pond_with_capacity(sockets: u16, total_capacity: Bytes) -> Result<Self, CxlError> {
        if !Self::SUPPORTED_SOCKETS.contains(&sockets) {
            return Err(CxlError::UnsupportedPoolSize { sockets });
        }
        let (interconnect, emc_configs) = match sockets {
            2..=8 => (
                Interconnect::Direct { retimers: 0 },
                vec![EmcConfig::pond_8_socket(total_capacity)],
            ),
            16 => (
                Interconnect::Direct { retimers: 1 },
                vec![EmcConfig::pond_16_socket(total_capacity)],
            ),
            _ => {
                // 32/64 sockets: 8 switches, 4 multi-headed EMCs behind them
                // (Figure 6, right). Capacity is spread across the EMCs.
                let emcs = 4;
                let per_emc = Bytes::from_gib((total_capacity.as_gib() / emcs).max(1));
                (
                    Interconnect::Switched { switches: 1, retimers_per_hop: 1 },
                    (0..emcs).map(|_| EmcConfig::pond_switched(per_emc)).collect(),
                )
            }
        };
        Ok(PoolTopology { sockets, interconnect, emc_configs })
    }

    /// Builds the switch-only strawman for the given socket count (Figure 8).
    ///
    /// Every pooled access traverses at least one switch; pools above 16
    /// sockets need a second switch level.
    ///
    /// # Errors
    ///
    /// Returns [`CxlError::UnsupportedPoolSize`] for socket counts of zero.
    pub fn switch_only(sockets: u16) -> Result<Self, CxlError> {
        if sockets == 0 {
            return Err(CxlError::UnsupportedPoolSize { sockets });
        }
        let interconnect = if sockets <= 1 {
            // A "pool" of one socket is just a directly attached device.
            Interconnect::Direct { retimers: 0 }
        } else if sockets <= 16 {
            Interconnect::Switched { switches: 1, retimers_per_hop: 1 }
        } else {
            Interconnect::Switched { switches: 2, retimers_per_hop: 1 }
        };
        let per_emc = Bytes::from_gib(256);
        let emc_count = (sockets as u64).div_ceil(8).max(1);
        Ok(PoolTopology {
            sockets,
            interconnect,
            emc_configs: (0..emc_count).map(|_| EmcConfig::pond_switched(per_emc)).collect(),
        })
    }

    /// Number of CPU sockets sharing the pool.
    pub fn sockets(&self) -> u16 {
        self.sockets
    }

    /// The socket-to-EMC interconnect description.
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    /// EMC configurations in the pool.
    pub fn emc_configs(&self) -> &[EmcConfig] {
        &self.emc_configs
    }

    /// Total pool capacity across all EMCs.
    pub fn total_capacity(&self) -> Bytes {
        self.emc_configs.iter().map(|c| c.capacity).sum()
    }
}

/// How a fleet's hosts are grouped around pools: the pod shape that, next to
/// the pool *size*, drives how much stranding a pooled fleet recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PodStyle {
    /// Symmetric pods: every host reaches exactly its home pod's pool — the
    /// shape Pond evaluates (one pool per 8–64 sockets, Figures 6/7).
    Symmetric,
    /// Octopus-style sparse ring: each pod's hosts additionally reach the
    /// next pod's pool, so neighbouring pods can absorb each other's bursts
    /// without a full crossbar of CXL links.
    Octopus,
    /// k-regular ring: each pod's hosts reach their own pool and the next
    /// `k` pods' pools in ring order. `k = 1` is exactly [`PodStyle::Octopus`];
    /// `k = groups − 1` is a full crossbar.
    KRegular {
        /// Ring neighbours each pod reaches beyond its own pool.
        k: u16,
    },
    /// Two-level pod-of-pods: pods are grouped into contiguous clusters of
    /// `cluster` pods, and within a cluster every pod reaches every pool
    /// (ring order starting from itself). Clusters are isolated from each
    /// other — the blast-radius boundary moves up one level.
    PodOfPods {
        /// Pods per cluster (the last cluster may be smaller).
        cluster: u16,
    },
}

impl PodStyle {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PodStyle::Symmetric => "symmetric",
            PodStyle::Octopus => "octopus",
            PodStyle::KRegular { .. } => "k-regular",
            PodStyle::PodOfPods { .. } => "pod-of-pods",
        }
    }
}

/// A sharded fleet topology: `groups` pods, each with its own
/// [`PoolTopology`], plus the host→pool reachability the pod style induces.
///
/// Hosts are numbered fleet-wide (`0..host_count`) and assigned to pods in
/// contiguous blocks (sizes differ by at most one host, earlier pods get
/// the remainder); the fleet-wide pool capacity is split the same way in
/// whole 1 GiB slices, so the *total* modeled capacity is identical across
/// group counts — sharding comparisons stay apples-to-apples. Reachability
/// is per pod: a pod's hosts reach their own pool, and under
/// [`PodStyle::Octopus`] also the next pod's pool (ring order).
///
/// # Example
///
/// ```
/// use cxl_hw::topology::{PodStyle, PoolGroupTopology};
/// use cxl_hw::units::Bytes;
///
/// let topo = PoolGroupTopology::new(PodStyle::Octopus, 4, 34, 16, Bytes::from_gib(1026))?;
/// assert_eq!(topo.group_count(), 4);
/// assert_eq!(topo.hosts_in(0), 9); // 34 hosts: 9+9+8+8
/// assert_eq!(topo.reachable(3), &[3, 0]); // ring wrap-around
/// assert_eq!(topo.pool(0).total_capacity(), Bytes::from_gib(257)); // 1026: 257+257+256+256
/// assert_eq!(topo.total_capacity(), Bytes::from_gib(1026));
/// # Ok::<(), cxl_hw::CxlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PoolGroupTopology {
    style: PodStyle,
    pools: Vec<PoolTopology>,
    /// Pod `g`'s hosts are `host_starts[g]..host_starts[g + 1]`; the last
    /// of the `groups + 1` entries is the fleet's host count.
    host_starts: Vec<u16>,
    reach: Vec<Vec<usize>>,
}

impl PoolGroupTopology {
    /// Builds a pool-group topology: `groups` pods sharing `hosts` hosts
    /// and `total_capacity` of pool DRAM, each pod owning a Pond pool of
    /// `pool_sockets` sockets. Capacity is split into whole 1 GiB slices,
    /// sizes differing by at most one slice (earlier pods get the
    /// remainder), so the summed capacity always equals the floored total.
    ///
    /// # Errors
    ///
    /// * [`CxlError::InvalidGroupTopology`] when `groups` is zero, exceeds
    ///   the host count (every pod needs at least one host), or exceeds the
    ///   total capacity in slices (every pod needs at least one slice).
    /// * [`CxlError::UnsupportedPoolSize`] when `pool_sockets` is not a
    ///   supported Pond pool size.
    pub fn new(
        style: PodStyle,
        groups: u16,
        hosts: u16,
        pool_sockets: u16,
        total_capacity: Bytes,
    ) -> Result<Self, CxlError> {
        if groups == 0 {
            return Err(CxlError::InvalidGroupTopology {
                detail: "a fleet needs at least one pool group".to_string(),
            });
        }
        if let PodStyle::PodOfPods { cluster: 0 } = style {
            return Err(CxlError::InvalidGroupTopology {
                detail: "pod-of-pods clusters need at least one pod".to_string(),
            });
        }
        if hosts < groups {
            return Err(CxlError::InvalidGroupTopology {
                detail: format!("{groups} groups need at least {groups} hosts, got {hosts}"),
            });
        }
        let total_slices = total_capacity.slices_floor();
        if total_slices < u64::from(groups) {
            return Err(CxlError::InvalidGroupTopology {
                detail: format!(
                    "{groups} groups need at least {groups} pool slices, got {total_slices}"
                ),
            });
        }
        let groups = groups as usize;
        let slice_base = total_slices / groups as u64;
        let slice_rem = (total_slices % groups as u64) as usize;
        let pools = (0..groups)
            .map(|g| {
                let capacity = Bytes::from_gib(slice_base + u64::from(g < slice_rem));
                PoolTopology::pond_with_capacity(pool_sockets, capacity)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let base = hosts / groups as u16;
        let remainder = (hosts % groups as u16) as usize;
        let host_starts = (0..=groups).map(|g| base * g as u16 + g.min(remainder) as u16).collect();
        let reach = (0..groups)
            .map(|g| match style {
                PodStyle::Symmetric => vec![g],
                // A single pod's "next pod" is itself; skip the duplicate.
                PodStyle::Octopus if groups == 1 => vec![g],
                PodStyle::Octopus => vec![g, (g + 1) % groups],
                // Ring order, clamped so a pod never reaches itself twice.
                PodStyle::KRegular { k } => {
                    let degree = (k as usize).min(groups - 1);
                    (0..=degree).map(|step| (g + step) % groups).collect()
                }
                // Full reach within the pod's contiguous cluster, ring order
                // from itself (the last cluster may be smaller).
                PodStyle::PodOfPods { cluster } => {
                    let cluster = cluster as usize;
                    let start = (g / cluster) * cluster;
                    let size = cluster.min(groups - start);
                    (0..size).map(|step| start + (g - start + step) % size).collect()
                }
            })
            .collect();
        Ok(PoolGroupTopology { style, pools, host_starts, reach })
    }

    /// The pod style.
    pub fn style(&self) -> PodStyle {
        self.style
    }

    /// Number of pool groups (pods).
    pub fn group_count(&self) -> usize {
        self.pools.len()
    }

    /// Total number of hosts across all pods.
    pub fn host_count(&self) -> u16 {
        self.host_starts[self.group_count()]
    }

    /// Number of hosts in pod `group`.
    ///
    /// # Panics
    ///
    /// Panics when `group` is out of range.
    pub fn hosts_in(&self, group: usize) -> u16 {
        self.host_starts[group + 1] - self.host_starts[group]
    }

    /// The pool topology of pod `group`.
    ///
    /// # Panics
    ///
    /// Panics when `group` is out of range.
    pub fn pool(&self, group: usize) -> &PoolTopology {
        &self.pools[group]
    }

    /// Pool groups reachable from pod `group`'s hosts, home pod first.
    ///
    /// # Panics
    ///
    /// Panics when `group` is out of range.
    pub fn reachable(&self, group: usize) -> &[usize] {
        &self.reach[group]
    }

    /// Total pool capacity across all pods.
    pub fn total_capacity(&self) -> Bytes {
        self.pools.iter().map(PoolTopology::total_capacity).sum()
    }

    /// Maximum number of *neighbour* pools any pod reaches beyond its own —
    /// 0 for symmetric pods, 1 for Octopus, `k` for a k-regular ring.
    pub fn overlap_degree(&self) -> usize {
        self.reach.iter().map(|r| r.len() - 1).max().unwrap_or(0)
    }

    /// CXL link hops a borrow from pod `borrower` against pod `lender`'s
    /// pool traverses: 0 for the home pool, the position in the (ring-
    /// ordered) reach set otherwise, `None` when the lender is unreachable.
    pub fn borrow_hops(&self, borrower: usize, lender: usize) -> Option<u32> {
        self.reach[borrower].iter().position(|&g| g == lender).map(|p| p as u32)
    }

    /// The pods other than `lender` whose reach includes it, ascending: the
    /// only pods that can hold a lease on `lender`'s slices, since a borrow
    /// needs [`PoolGroupTopology::borrow_hops`] to be `Some`.
    pub fn borrowers_of(&self, lender: usize) -> Vec<usize> {
        (0..self.reach.len()).filter(|&g| g != lender && self.reach[g].contains(&lender)).collect()
    }

    /// Added access latency of borrowed slices over home-pool slices: each
    /// ring hop crosses one extra switch stage (two CXL port traversals,
    /// arbitration, a NoC hop) on a retimed electrical segment, composed
    /// from the paper's Figure 7 per-component numbers. `Latency::ZERO` for
    /// the home pool, `None` when the lender is unreachable.
    pub fn borrow_added_latency(&self, borrower: usize, lender: usize) -> Option<Latency> {
        let hops = self.borrow_hops(borrower, lender)?;
        let model = LatencyModel::default();
        let per_hop = model.cxl_port * 2.0
            + model.switch_arbitration
            + model.switch_noc
            + model.retimer
            + model.flight_time * 2.0;
        Some(per_hop * hops as f64)
    }

    /// The port-consuming host identity a borrow from pod `borrower`'s host
    /// `host` (pod-local index) occupies on the lender's pool: a true
    /// cross-pod attachment holds a real CXL port on the lender EMC, so the
    /// identity must be unique fleet-wide and can never collide with the
    /// lender's own pod-local host indices. Offsetting the borrower's
    /// fleet-wide host index by the fleet host count guarantees both.
    ///
    /// # Panics
    ///
    /// Panics when the offset identity overflows `u16`: a fleet of more
    /// than 32,768 hosts cannot express borrowed ports, so the multipool
    /// replay refuses such a fleet when borrowing is on.
    pub fn borrow_port_host(&self, borrower: usize, host: u16) -> HostId {
        let start = u32::from(self.host_starts[borrower]);
        let id = u32::from(self.host_count()) + start + u32::from(host);
        assert!(id <= u32::from(u16::MAX), "borrowed-port host id {id} overflows u16");
        HostId(id as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pond_8_socket_is_switchless_and_retimer_free() {
        let t = PoolTopology::pond(8).unwrap();
        assert_eq!(t.sockets(), 8);
        assert_eq!(t.interconnect().switch_count(), 0);
        assert_eq!(t.interconnect().retimer_count(), 0);
        // Figure 6: one 8-socket EMC, 8 ×8 ports (64 PCIe lanes) and 6 DDR5
        // channels.
        assert_eq!(t.emc_configs(), [EmcConfig::pond_8_socket(Bytes::from_gib(1024))]);
        assert_eq!((t.emc_configs()[0].ports, t.emc_configs()[0].ddr5_channels), (8, 6));
    }

    #[test]
    fn pond_16_socket_needs_a_retimer_but_no_switch() {
        let t = PoolTopology::pond(16).unwrap();
        assert_eq!(t.interconnect().switch_count(), 0);
        assert_eq!(t.interconnect().retimer_count(), 1);
        // Figure 6: 16-socket EMC parallels the Genoa IOD: 16 ×8 ports
        // (128 lanes), 12 channels.
        assert_eq!(t.emc_configs(), [EmcConfig::pond_16_socket(Bytes::from_gib(1024))]);
        assert_eq!((t.emc_configs()[0].ports, t.emc_configs()[0].ddr5_channels), (16, 12));
    }

    #[test]
    fn pond_large_pools_use_switches_and_multiple_emcs() {
        for sockets in [32, 64] {
            let t = PoolTopology::pond(sockets).unwrap();
            assert_eq!(t.interconnect().switch_count(), 1, "{sockets} sockets");
            assert!(t.interconnect().retimer_count() >= 2);
            assert_eq!(t.emc_configs().len(), 4);
        }
    }

    #[test]
    fn unsupported_sizes_are_rejected() {
        for sockets in [0, 1, 3, 7, 12, 17, 128] {
            assert!(
                matches!(PoolTopology::pond(sockets), Err(CxlError::UnsupportedPoolSize { .. })),
                "sockets={sockets} should be rejected"
            );
        }
    }

    #[test]
    fn switch_only_always_crosses_a_switch_when_pooled() {
        assert_eq!(PoolTopology::switch_only(1).unwrap().interconnect().switch_count(), 0);
        assert_eq!(PoolTopology::switch_only(8).unwrap().interconnect().switch_count(), 1);
        assert_eq!(PoolTopology::switch_only(16).unwrap().interconnect().switch_count(), 1);
        assert_eq!(PoolTopology::switch_only(32).unwrap().interconnect().switch_count(), 2);
        assert_eq!(PoolTopology::switch_only(64).unwrap().interconnect().switch_count(), 2);
        assert!(PoolTopology::switch_only(0).is_err());
    }

    #[test]
    fn pond_capacity_is_split_across_switched_emcs() {
        let t = PoolTopology::pond_with_capacity(64, Bytes::from_gib(2048)).unwrap();
        assert_eq!(t.total_capacity(), Bytes::from_gib(2048));
        for cfg in t.emc_configs() {
            assert_eq!(cfg.capacity, Bytes::from_gib(512));
        }
    }

    #[test]
    fn symmetric_groups_reach_only_their_own_pool() {
        let topo =
            PoolGroupTopology::new(PodStyle::Symmetric, 4, 10, 16, Bytes::from_gib(130)).unwrap();
        assert_eq!(topo.group_count(), 4);
        assert_eq!(topo.host_count(), 10);
        // 10 hosts over 4 pods: 3, 3, 2, 2.
        assert_eq!((0..4).map(|g| topo.hosts_in(g)).collect::<Vec<_>>(), vec![3, 3, 2, 2]);
        for g in 0..4 {
            assert_eq!(topo.reachable(g), &[g]);
            assert_eq!(topo.pool(g).sockets(), 16);
        }
        // 130 GiB over 4 pods: 33, 33, 32, 32 — the configured total is
        // preserved exactly, so sharding comparisons stay fair.
        assert_eq!(
            (0..4).map(|g| topo.pool(g).total_capacity().as_gib()).collect::<Vec<_>>(),
            vec![33, 33, 32, 32]
        );
        assert_eq!(topo.total_capacity(), Bytes::from_gib(130));
        assert_eq!(topo.style().name(), "symmetric");
    }

    #[test]
    fn octopus_groups_overlap_in_a_ring() {
        let topo = PoolGroupTopology::new(PodStyle::Octopus, 3, 9, 8, Bytes::from_gib(64)).unwrap();
        assert_eq!(topo.reachable(0), &[0, 1]);
        assert_eq!(topo.reachable(1), &[1, 2]);
        assert_eq!(topo.reachable(2), &[2, 0]);
    }

    #[test]
    fn single_octopus_group_does_not_duplicate_itself() {
        let topo =
            PoolGroupTopology::new(PodStyle::Octopus, 1, 4, 16, Bytes::from_gib(64)).unwrap();
        assert_eq!(topo.reachable(0), &[0]);
    }

    #[test]
    fn k_regular_reach_is_a_ring_of_degree_k() {
        let topo =
            PoolGroupTopology::new(PodStyle::KRegular { k: 2 }, 4, 8, 16, Bytes::from_gib(64))
                .unwrap();
        assert_eq!(topo.style().name(), "k-regular");
        assert_eq!(topo.overlap_degree(), 2);
        assert_eq!(topo.reachable(0), &[0, 1, 2]);
        assert_eq!(topo.reachable(3), &[3, 0, 1]);
        // k = 1 is exactly the Octopus ring.
        let octo =
            PoolGroupTopology::new(PodStyle::Octopus, 4, 8, 16, Bytes::from_gib(64)).unwrap();
        let k1 = PoolGroupTopology::new(PodStyle::KRegular { k: 1 }, 4, 8, 16, Bytes::from_gib(64))
            .unwrap();
        for g in 0..4 {
            assert_eq!(k1.reachable(g), octo.reachable(g));
        }
        // k >= groups clamps to the full crossbar without duplicates.
        let k9 = PoolGroupTopology::new(PodStyle::KRegular { k: 9 }, 3, 6, 16, Bytes::from_gib(64))
            .unwrap();
        assert_eq!(k9.reachable(1), &[1, 2, 0]);
        assert_eq!(k9.overlap_degree(), 2);
        // k = 0 degenerates to symmetric pods.
        let k0 = PoolGroupTopology::new(PodStyle::KRegular { k: 0 }, 3, 6, 16, Bytes::from_gib(64))
            .unwrap();
        assert_eq!(k0.reachable(2), &[2]);
        assert_eq!(k0.overlap_degree(), 0);
    }

    #[test]
    fn pod_of_pods_reaches_the_whole_cluster_and_nothing_beyond() {
        let topo = PoolGroupTopology::new(
            PodStyle::PodOfPods { cluster: 2 },
            4,
            8,
            16,
            Bytes::from_gib(64),
        )
        .unwrap();
        assert_eq!(topo.style().name(), "pod-of-pods");
        assert_eq!(topo.reachable(0), &[0, 1]);
        assert_eq!(topo.reachable(1), &[1, 0]);
        assert_eq!(topo.reachable(2), &[2, 3]);
        assert_eq!(topo.reachable(3), &[3, 2]);
        // A ragged last cluster stays self-contained.
        let ragged = PoolGroupTopology::new(
            PodStyle::PodOfPods { cluster: 3 },
            5,
            10,
            16,
            Bytes::from_gib(64),
        )
        .unwrap();
        assert_eq!(ragged.reachable(1), &[1, 2, 0]);
        assert_eq!(ragged.reachable(3), &[3, 4]);
        assert_eq!(ragged.reachable(4), &[4, 3]);
        assert!(matches!(
            PoolGroupTopology::new(
                PodStyle::PodOfPods { cluster: 0 },
                4,
                8,
                16,
                Bytes::from_gib(64)
            ),
            Err(CxlError::InvalidGroupTopology { .. })
        ));
    }

    #[test]
    fn borrow_costs_grow_with_ring_distance() {
        let topo =
            PoolGroupTopology::new(PodStyle::KRegular { k: 2 }, 4, 8, 16, Bytes::from_gib(64))
                .unwrap();
        assert_eq!(topo.borrow_hops(0, 0), Some(0));
        assert_eq!(topo.borrow_hops(0, 1), Some(1));
        assert_eq!(topo.borrow_hops(0, 2), Some(2));
        assert_eq!(topo.borrow_hops(0, 3), None, "unreachable pods cannot lend");
        assert_eq!(topo.borrow_added_latency(0, 0), Some(Latency::ZERO));
        let one = topo.borrow_added_latency(0, 1).unwrap();
        let two = topo.borrow_added_latency(0, 2).unwrap();
        assert!(one > Latency::ZERO);
        assert!(two > one, "each ring hop adds a switch stage");
        assert!(topo.borrow_added_latency(0, 3).is_none());
    }

    #[test]
    fn borrowers_of_lists_exactly_the_pods_that_reach_the_lender() {
        let ring =
            PoolGroupTopology::new(PodStyle::KRegular { k: 2 }, 4, 8, 16, Bytes::from_gib(64))
                .unwrap();
        assert_eq!(ring.borrowers_of(0), [2, 3]);
        assert_eq!(ring.borrowers_of(1), [0, 3]);
        let octopus =
            PoolGroupTopology::new(PodStyle::Octopus, 4, 8, 16, Bytes::from_gib(64)).unwrap();
        let symmetric =
            PoolGroupTopology::new(PodStyle::Symmetric, 4, 8, 16, Bytes::from_gib(64)).unwrap();
        for topo in [&ring, &octopus, &symmetric] {
            for lender in 0..4 {
                let expected: Vec<usize> = (0..4)
                    .filter(|&g| g != lender && topo.borrow_hops(g, lender).is_some())
                    .collect();
                assert_eq!(topo.borrowers_of(lender), expected, "{:?}", topo.style());
            }
        }
    }

    #[test]
    fn borrow_port_hosts_are_unique_and_disjoint_from_pod_local_indices() {
        let shapes = [
            PoolGroupTopology::new(PodStyle::Octopus, 3, 9, 8, Bytes::from_gib(64)).unwrap(),
            // The type-level example's uneven split: 9 + 9 + 8 + 8 hosts.
            PoolGroupTopology::new(PodStyle::Octopus, 4, 34, 16, Bytes::from_gib(1026)).unwrap(),
            // The `wide` benchmark fleet's shape: 8,192 hosts in 512 pods.
            PoolGroupTopology::new(PodStyle::Octopus, 512, 8192, 16, Bytes::from_gib(8192))
                .unwrap(),
        ];
        for topo in &shapes {
            let mut seen = std::collections::BTreeSet::new();
            // Σ hosts_in(..borrower): the borrower's first fleet-wide host index.
            let mut first = 0;
            for borrower in 0..topo.group_count() {
                for host in 0..topo.hosts_in(borrower) {
                    let port = topo.borrow_port_host(borrower, host);
                    assert_eq!(port.0, topo.host_count() + first + host);
                    // Never collides with any pod-local host index (0..hosts_in).
                    assert!(port.0 >= topo.host_count());
                    assert!(seen.insert(port), "duplicate borrowed-port id {port:?}");
                }
                first += topo.hosts_in(borrower);
            }
            assert_eq!(first, topo.host_count());
            assert_eq!(
                seen.len(),
                usize::from(topo.host_count()),
                "one distinct port identity per borrower host"
            );
        }
    }

    #[test]
    fn invalid_group_shapes_are_rejected() {
        assert!(matches!(
            PoolGroupTopology::new(PodStyle::Symmetric, 0, 8, 16, Bytes::from_gib(64)),
            Err(CxlError::InvalidGroupTopology { .. })
        ));
        assert!(matches!(
            PoolGroupTopology::new(PodStyle::Symmetric, 5, 4, 16, Bytes::from_gib(64)),
            Err(CxlError::InvalidGroupTopology { .. })
        ));
        assert!(matches!(
            PoolGroupTopology::new(PodStyle::Symmetric, 2, 8, 5, Bytes::from_gib(64)),
            Err(CxlError::UnsupportedPoolSize { .. })
        ));
        // Fewer total slices than groups: some pod would own no capacity.
        assert!(matches!(
            PoolGroupTopology::new(PodStyle::Symmetric, 4, 8, 16, Bytes::from_gib(3)),
            Err(CxlError::InvalidGroupTopology { .. })
        ));
    }

    #[test]
    fn interconnect_counts() {
        let d = Interconnect::Direct { retimers: 1 };
        assert_eq!(d.retimer_count(), 1);
        assert_eq!(d.switch_count(), 0);
        let s = Interconnect::Switched { switches: 2, retimers_per_hop: 1 };
        assert_eq!(s.retimer_count(), 3);
        assert_eq!(s.switch_count(), 2);
    }
}
