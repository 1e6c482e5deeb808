//! Slowdown under zNUMA spill (Figure 16) and zNUMA traffic (Figure 15).
//!
//! When the untouched-memory prediction is correct, the guest never allocates
//! on its zNUMA node and performance matches all-local memory. When the
//! prediction is too optimistic, part of the working set "spills" onto the
//! zNUMA node (pool memory) and performance degrades with the spilled
//! fraction. The guest OS fills the local node first, so the spilled pages
//! are the ones allocated last — under an access-skewed working set those
//! tend to be the colder pages, which softens small spills but cannot help
//! once most of the footprint lives on the pool.

use crate::profile::WorkloadProfile;
use crate::slowdown::SlowdownModel;
use cxl_hw::latency::LatencyScenario;
use cxl_hw::units::Bytes;

/// The zNUMA spill sizes evaluated in Figure 16, as fractions of the
/// workload's memory footprint allocated on pool memory.
pub const FIGURE16_SPILL_FRACTIONS: [f64; 7] = [0.0, 0.10, 0.20, 0.40, 0.60, 0.75, 1.00];

/// The spill model: converts "fraction of footprint on the pool" into
/// "fraction of accesses on the pool" using the workload's access skew, then
/// applies the [`SlowdownModel`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpillModel {
    /// The underlying latency/bandwidth slowdown model.
    pub slowdown: SlowdownModel,
}

impl SpillModel {
    /// Fraction of memory accesses that land on the pool when `spill_fraction`
    /// of the footprint is allocated there.
    ///
    /// The guest fills the local vNUMA node first, so the spilled portion is
    /// the coldest `spill_fraction` of pages. With access skew
    /// `hot_fraction` (share of accesses going to the hottest 20% of pages),
    /// the coldest pages attract disproportionately few accesses; the
    /// exponent grows with the skew.
    ///
    /// # Panics
    ///
    /// Panics if `spill_fraction` is outside `[0, 1]`.
    pub fn pool_access_fraction(&self, profile: &WorkloadProfile, spill_fraction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&spill_fraction), "spill fraction must be in [0, 1]");
        if spill_fraction == 0.0 {
            return 0.0;
        }
        let skew_exponent = 1.0 + 0.5 * profile.hot_fraction;
        spill_fraction.powf(skew_exponent)
    }

    /// The spill fraction a VM experiences when `touched` bytes of working
    /// set must fit into `local` bytes of NUMA-local memory: the share of the
    /// touched footprint that overflows onto the zNUMA (pool) node, clamped
    /// to `[0, 1]`. Zero touched memory spills nothing.
    ///
    /// Both the event-driven cluster simulator and the control-plane fleet
    /// replay derive their ground-truth QoS outcome through this one
    /// function, so the two paths cannot disagree on what "spilled" means.
    pub fn spill_fraction(touched: Bytes, local: Bytes) -> f64 {
        if touched.is_zero() {
            return 0.0;
        }
        let spilled = touched.saturating_sub(local);
        (spilled.as_u64() as f64 / touched.as_u64() as f64).min(1.0)
    }

    /// Slowdown when `spill_fraction` of the footprint is on pool memory.
    pub fn spill_slowdown(
        &self,
        profile: &WorkloadProfile,
        scenario: LatencyScenario,
        spill_fraction: f64,
    ) -> f64 {
        let access_fraction = self.pool_access_fraction(profile, spill_fraction);
        self.slowdown.slowdown(profile, scenario.multiplier(), access_fraction)
    }

    /// Fraction of accesses that reach a *correctly sized* zNUMA node
    /// (Figure 15): the working set fits in local memory, and only guest-OS
    /// metadata allocated per-node touches the zNUMA node. The paper measures
    /// 0.06%–0.38% across four production workloads; we model it as a small
    /// constant plus a term that shrinks with access skew.
    pub fn znuma_traffic_fraction(&self, profile: &WorkloadProfile) -> f64 {
        0.0005 + 0.004 * (1.0 - profile.hot_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::WorkloadSuite;
    use proptest::prelude::*;

    fn suite() -> WorkloadSuite {
        WorkloadSuite::standard()
    }

    #[test]
    fn zero_spill_means_zero_slowdown() {
        let model = SpillModel::default();
        for w in suite().workloads() {
            assert_eq!(model.spill_slowdown(w, LatencyScenario::Increase182, 0.0), 0.0);
        }
    }

    #[test]
    fn full_spill_equals_full_pool_slowdown() {
        let model = SpillModel::default();
        let sd = SlowdownModel::default();
        for w in suite().workloads().take(20) {
            let spill = model.spill_slowdown(w, LatencyScenario::Increase182, 1.0);
            let full = sd.full_pool_slowdown(w, LatencyScenario::Increase182);
            assert!((spill - full).abs() < 1e-12, "{}", w.name);
        }
    }

    #[test]
    fn slowdown_is_monotone_in_spill_fraction() {
        let model = SpillModel::default();
        for w in suite().workloads() {
            let sweep: Vec<f64> = FIGURE16_SPILL_FRACTIONS
                .iter()
                .map(|&f| model.spill_slowdown(w, LatencyScenario::Increase182, f))
                .collect();
            for pair in sweep.windows(2) {
                assert!(pair[1] >= pair[0] - 1e-12, "{} slowdown must grow with spill", w.name);
            }
        }
    }

    #[test]
    fn access_skew_softens_small_spills() {
        let model = SpillModel::default();
        // A 10% spill should always produce well under 10% of accesses on the
        // pool because the guest spills the coldest pages.
        for w in suite().workloads() {
            let f = model.pool_access_fraction(w, 0.10);
            assert!(f < 0.10, "{}: {f}", w.name);
        }
    }

    #[test]
    fn severe_spills_produce_figure16_scale_slowdowns() {
        // Figure 16: some workloads slow down by 30-35% with 20-75% spilled
        // and up to ~50% when fully on the pool.
        let model = SpillModel::default();
        let worst_mid = suite()
            .workloads()
            .map(|w| model.spill_slowdown(w, LatencyScenario::Increase182, 0.75))
            .fold(0.0_f64, f64::max);
        assert!(worst_mid > 0.25, "worst 75%-spill slowdown {worst_mid}");
        let worst_full = suite()
            .workloads()
            .map(|w| model.spill_slowdown(w, LatencyScenario::Increase182, 1.0))
            .fold(0.0_f64, f64::max);
        assert!(worst_full > worst_mid);
    }

    #[test]
    fn znuma_traffic_matches_the_production_observation() {
        // Figure 15: 0.06%-0.38% of accesses reach a correctly sized zNUMA.
        let model = SpillModel::default();
        for w in suite().workloads() {
            let f = model.znuma_traffic_fraction(w);
            assert!((0.0004..=0.005).contains(&f), "{}: {f}", w.name);
        }
    }

    #[test]
    fn spill_fraction_from_bytes() {
        let gib = Bytes::from_gib;
        assert_eq!(SpillModel::spill_fraction(Bytes::ZERO, Bytes::ZERO), 0.0);
        assert_eq!(SpillModel::spill_fraction(gib(8), gib(8)), 0.0);
        assert_eq!(SpillModel::spill_fraction(gib(8), gib(16)), 0.0);
        assert!((SpillModel::spill_fraction(gib(8), gib(6)) - 0.25).abs() < 1e-12);
        assert_eq!(SpillModel::spill_fraction(gib(8), Bytes::ZERO), 1.0);
    }

    #[test]
    #[should_panic(expected = "spill fraction")]
    fn invalid_spill_fraction_rejected() {
        let model = SpillModel::default();
        let suite = suite();
        let _ = model.pool_access_fraction(suite.at(0).unwrap(), 1.5);
    }

    proptest! {
        /// Pool access fraction is within [0, spill_fraction] for every workload.
        #[test]
        fn access_fraction_bounded(idx in 0usize..158, spill in 0.0f64..1.0) {
            let suite = WorkloadSuite::standard();
            let w = suite.at(idx).unwrap();
            let model = SpillModel::default();
            let f = model.pool_access_fraction(w, spill);
            prop_assert!(f >= 0.0);
            prop_assert!(f <= spill + 1e-12);
        }
    }
}
