//! Nanosecond-level access-latency composition (Figures 7 and 8).
//!
//! The paper breaks an end-to-end pool access into published per-component
//! latencies: CXL port traversal (25 ns, Intel's Sapphire Rapids
//! measurement), flight time, retimers, switch arbitration and NoC, the
//! EMC-side address/permission check, and the memory controller + DRAM.
//! Composing those per topology gives the pool-size-vs-latency tradeoff that
//! drives Pond's "small pool" design decision.

use crate::topology::PoolTopology;
use std::fmt;

/// A latency value in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Latency(f64);

impl Latency {
    /// Zero latency.
    pub const ZERO: Latency = Latency(0.0);

    /// Creates a latency from nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_nanos(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "latency must be finite and non-negative");
        Latency(ns)
    }

    /// The value in nanoseconds.
    pub fn as_nanos(self) -> f64 {
        self.0
    }

    /// Ratio of this latency to a baseline, expressed as a percentage
    /// (e.g. 182 means "182% of the baseline", the paper's notation).
    ///
    /// # Panics
    ///
    /// Panics if `baseline` is zero.
    pub fn percent_of(self, baseline: Latency) -> f64 {
        assert!(baseline.0 > 0.0, "baseline latency must be positive");
        self.0 / baseline.0 * 100.0
    }
}

impl std::ops::Add for Latency {
    type Output = Latency;
    fn add(self, rhs: Latency) -> Latency {
        Latency(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Latency {
    fn add_assign(&mut self, rhs: Latency) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Latency {
    type Output = Latency;
    fn sub(self, rhs: Latency) -> Latency {
        Latency((self.0 - rhs.0).max(0.0))
    }
}

impl std::ops::Mul<f64> for Latency {
    type Output = Latency;
    fn mul(self, rhs: f64) -> Latency {
        Latency(self.0 * rhs)
    }
}

impl std::iter::Sum for Latency {
    fn sum<I: Iterator<Item = Latency>>(iter: I) -> Latency {
        iter.fold(Latency::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}ns", self.0)
    }
}

/// Named latency component on the access path (Figure 7's legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Core, last-level cache, and on-die fabric on the requesting CPU.
    CoreLlcFabric,
    /// One CXL port traversal (request + response through transaction/link
    /// layers and PHY).
    CxlPort,
    /// Wire flight time for a board-scale segment.
    FlightTime,
    /// A retimer on the electrical path (both directions combined).
    Retimer,
    /// Address mapping and slice-permission check on the EMC.
    AddressCheck,
    /// EMC-internal network-on-chip hop.
    EmcNoc,
    /// Switch arbitration.
    SwitchArbitration,
    /// Switch-internal network-on-chip hop.
    SwitchNoc,
    /// Memory controller plus DRAM access.
    McDram,
}

/// One entry in a latency breakdown: which component, how many times it is
/// traversed, and the latency it contributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakdownEntry {
    /// The component.
    pub component: Component,
    /// How many times the component appears on the path.
    pub count: u32,
    /// Total contribution (per-traversal latency × count).
    pub total: Latency,
}

/// Per-component latency parameters. The defaults are the paper's published
/// numbers (Figure 7 "Latency assumptions").
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Core/LLC/fabric latency on the CPU (40 ns).
    pub core_llc_fabric: Latency,
    /// One CXL port round trip (25 ns, Intel measurement).
    pub cxl_port: Latency,
    /// Wire flight time per electrical segment (5 ns).
    pub flight_time: Latency,
    /// Retimer latency, both directions combined (20 ns — 10 ns each way).
    pub retimer: Latency,
    /// EMC address-mapping / permission-check latency (5 ns).
    pub address_check: Latency,
    /// EMC network-on-chip latency (10 ns).
    pub emc_noc: Latency,
    /// Switch arbitration latency (10 ns).
    pub switch_arbitration: Latency,
    /// Switch NoC latency (10 ns).
    pub switch_noc: Latency,
    /// Memory controller + DRAM access latency (45 ns).
    pub mc_dram: Latency,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            core_llc_fabric: Latency::from_nanos(40.0),
            cxl_port: Latency::from_nanos(25.0),
            flight_time: Latency::from_nanos(5.0),
            retimer: Latency::from_nanos(20.0),
            address_check: Latency::from_nanos(5.0),
            emc_noc: Latency::from_nanos(10.0),
            switch_arbitration: Latency::from_nanos(10.0),
            switch_noc: Latency::from_nanos(10.0),
            mc_dram: Latency::from_nanos(45.0),
        }
    }
}

impl LatencyModel {
    /// NUMA-local DRAM latency: core/LLC/fabric + MC/DRAM (85 ns with the
    /// default parameters, matching Figure 7's baseline).
    pub fn local_dram_latency(&self) -> Latency {
        self.core_llc_fabric + self.mc_dram
    }

    /// Full latency breakdown for a pool access in the given topology.
    ///
    /// The path is: CPU core/LLC/fabric → CPU CXL port → (flight / retimers /
    /// switches) → EMC CXL port → EMC address check + NoC → MC + DRAM.
    pub fn pool_access_breakdown(&self, topology: &PoolTopology) -> Vec<BreakdownEntry> {
        let mut entries = vec![
            BreakdownEntry {
                component: Component::CoreLlcFabric,
                count: 1,
                total: self.core_llc_fabric,
            },
            // CPU-side port and EMC-side port.
            BreakdownEntry { component: Component::CxlPort, count: 2, total: self.cxl_port * 2.0 },
        ];

        let ic = topology.interconnect();
        // Every retimer and every switch splits the electrical path into an
        // additional segment with its own flight time (Figure 7 shows the
        // retimer path as 5 + 20 + 5 ns).
        let retimers = ic.retimer_count() as u32;
        let segments = 1 + retimers + 2 * ic.switch_count() as u32;
        entries.push(BreakdownEntry {
            component: Component::FlightTime,
            count: segments,
            total: self.flight_time * segments as f64,
        });

        if retimers > 0 {
            entries.push(BreakdownEntry {
                component: Component::Retimer,
                count: retimers,
                total: self.retimer * retimers as f64,
            });
        }

        let switches = ic.switch_count() as u32;
        if switches > 0 {
            // Each switch adds two port traversals, arbitration, and a NoC hop.
            entries.push(BreakdownEntry {
                component: Component::CxlPort,
                count: 2 * switches,
                total: self.cxl_port * (2 * switches) as f64,
            });
            entries.push(BreakdownEntry {
                component: Component::SwitchArbitration,
                count: switches,
                total: self.switch_arbitration * switches as f64,
            });
            entries.push(BreakdownEntry {
                component: Component::SwitchNoc,
                count: switches,
                total: self.switch_noc * switches as f64,
            });
        }

        entries.push(BreakdownEntry {
            component: Component::AddressCheck,
            count: 1,
            total: self.address_check,
        });
        entries.push(BreakdownEntry {
            component: Component::EmcNoc,
            count: 1,
            total: self.emc_noc,
        });
        entries.push(BreakdownEntry {
            component: Component::McDram,
            count: 1,
            total: self.mc_dram,
        });
        entries
    }

    /// End-to-end pool access latency for a topology (sum of the breakdown).
    pub fn pool_access_latency(&self, topology: &PoolTopology) -> Latency {
        self.pool_access_breakdown(topology).iter().map(|e| e.total).sum()
    }

    /// Pool access latency as a percentage of the NUMA-local baseline
    /// (the paper's "182%" / "222%" notation).
    pub fn pool_latency_percent(&self, topology: &PoolTopology) -> f64 {
        self.pool_access_latency(topology).percent_of(self.local_dram_latency())
    }

    /// Added latency of a pool access over NUMA-local DRAM.
    pub fn pool_added_latency(&self, topology: &PoolTopology) -> Latency {
        self.pool_access_latency(topology) - self.local_dram_latency()
    }
}

/// Convenience: the latency scenarios the paper evaluates workloads under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyScenario {
    /// 182% of local latency (Intel testbed: 78 ns → 142 ns).
    Increase182,
    /// 222% of local latency (AMD testbed: 115 ns → 255 ns).
    Increase222,
}

impl LatencyScenario {
    /// The latency multiplier relative to NUMA-local DRAM (1.82 or 2.22).
    pub fn multiplier(self) -> f64 {
        match self {
            LatencyScenario::Increase182 => 1.82,
            LatencyScenario::Increase222 => 2.22,
        }
    }

    /// Both scenarios, in the order the paper reports them.
    pub fn all() -> [LatencyScenario; 2] {
        [LatencyScenario::Increase182, LatencyScenario::Increase222]
    }
}

impl fmt::Display for LatencyScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatencyScenario::Increase182 => write!(f, "182% (142ns)"),
            LatencyScenario::Increase222 => write!(f, "222% (255ns)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::PoolTopology;

    #[test]
    fn local_dram_baseline_is_85ns() {
        let m = LatencyModel::default();
        assert_eq!(m.local_dram_latency().as_nanos(), 85.0);
    }

    #[test]
    fn pond_8_socket_matches_figure7() {
        // Figure 7: 8-socket Pond = 155ns, 182% of local.
        let m = LatencyModel::default();
        let t = PoolTopology::pond(8).unwrap();
        let lat = m.pool_access_latency(&t);
        assert_eq!(lat.as_nanos(), 155.0);
        let pct = m.pool_latency_percent(&t);
        assert!((pct - 182.0).abs() < 1.0, "expected ~182%, got {pct}");
    }

    #[test]
    fn pond_16_socket_matches_figure7() {
        // Figure 7: 16-socket Pond = 180ns, ~212% of local.
        let m = LatencyModel::default();
        let t = PoolTopology::pond(16).unwrap();
        let lat = m.pool_access_latency(&t);
        assert_eq!(lat.as_nanos(), 180.0);
        let pct = m.pool_latency_percent(&t);
        assert!((pct - 212.0).abs() < 2.0, "expected ~212%, got {pct}");
    }

    #[test]
    fn pond_large_pools_exceed_270ns() {
        // Figure 7: 32/64-socket Pond > 270ns (318% of local).
        let m = LatencyModel::default();
        for sockets in [32, 64] {
            let t = PoolTopology::pond(sockets).unwrap();
            let lat = m.pool_access_latency(&t);
            assert!(lat.as_nanos() > 270.0, "{sockets} sockets: {lat}");
        }
    }

    #[test]
    fn added_latency_for_small_pools_is_70_to_90ns() {
        // §1 / §4.1: 8-16 socket pools add 70-90ns over NUMA-local DRAM.
        let m = LatencyModel::default();
        for sockets in [8, 16] {
            let added = m.pool_added_latency(&PoolTopology::pond(sockets).unwrap());
            assert!((70.0..=95.0).contains(&added.as_nanos()), "{sockets} sockets adds {added}");
        }
    }

    #[test]
    fn multi_headed_beats_switch_only_by_about_a_third() {
        // Figure 8: Pond reduces latency by ~1/3 (-36% at 16 sockets).
        let m = LatencyModel::default();
        let pond = m.pool_access_latency(&PoolTopology::pond(16).unwrap());
        let switch = m.pool_access_latency(&PoolTopology::switch_only(16).unwrap());
        let reduction = 1.0 - pond.as_nanos() / switch.as_nanos();
        assert!(
            (0.25..=0.45).contains(&reduction),
            "expected ~1/3 reduction, got {reduction:.2} (pond={pond}, switch={switch})"
        );
    }

    #[test]
    fn switch_only_latency_is_monotone_in_pool_size() {
        let m = LatencyModel::default();
        let sizes = [1u16, 8, 16, 32, 64];
        let lats: Vec<f64> = sizes
            .iter()
            .map(|&s| m.pool_access_latency(&PoolTopology::switch_only(s).unwrap()).as_nanos())
            .collect();
        for w in lats.windows(2) {
            assert!(w[1] >= w[0], "latency should not decrease with pool size: {lats:?}");
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = LatencyModel::default();
        for sockets in [8, 16, 32, 64] {
            let t = PoolTopology::pond(sockets).unwrap();
            let breakdown = m.pool_access_breakdown(&t);
            let sum: Latency = breakdown.iter().map(|e| e.total).sum();
            assert_eq!(sum, m.pool_access_latency(&t));
        }
    }

    #[test]
    fn breakdown_includes_switch_components_only_when_switched() {
        let m = LatencyModel::default();
        let small = m.pool_access_breakdown(&PoolTopology::pond(8).unwrap());
        assert!(!small.iter().any(|e| e.component == Component::SwitchArbitration));
        let large = m.pool_access_breakdown(&PoolTopology::pond(64).unwrap());
        assert!(large.iter().any(|e| e.component == Component::SwitchArbitration));
        assert!(large.iter().any(|e| e.component == Component::Retimer));
    }

    #[test]
    fn scenario_parameters_match_testbeds() {
        // Intel 78 → 142 ns and AMD 115 → 255 ns.
        assert!((LatencyScenario::Increase182.multiplier() - 1.82).abs() < 1e-9);
        assert!((LatencyScenario::Increase222.multiplier() - 2.22).abs() < 1e-9);
        assert_eq!(LatencyScenario::Increase182.to_string(), "182% (142ns)");
        assert_eq!(LatencyScenario::Increase222.to_string(), "222% (255ns)");
        assert_eq!(LatencyScenario::all().len(), 2);
    }

    #[test]
    fn latency_arithmetic() {
        let a = Latency::from_nanos(100.0);
        let b = Latency::from_nanos(40.0);
        assert_eq!((a + b).as_nanos(), 140.0);
        assert_eq!((a - b).as_nanos(), 60.0);
        // Subtraction saturates at zero rather than going negative.
        assert_eq!((b - a).as_nanos(), 0.0);
        assert_eq!((a * 2.0).as_nanos(), 200.0);
        assert_eq!(a.percent_of(b), 250.0);
        assert_eq!(format!("{a}"), "100ns");
    }

    #[test]
    #[should_panic(expected = "latency must be finite")]
    fn negative_latency_rejected() {
        let _ = Latency::from_nanos(-1.0);
    }

    #[test]
    #[should_panic(expected = "baseline latency must be positive")]
    fn percent_of_zero_baseline_panics() {
        let _ = Latency::from_nanos(1.0).percent_of(Latency::ZERO);
    }
}
