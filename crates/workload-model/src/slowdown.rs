//! The analytic slowdown model (Figures 4 and 5).
//!
//! The paper measures slowdowns by emulating CXL latency with a remote NUMA
//! node; we model the same quantity analytically: the extra stall time a
//! workload accrues when a fraction of its memory accesses are served at a
//! higher latency (and possibly lower bandwidth), normalized to the all-local
//! baseline.

use crate::profile::WorkloadProfile;
use cxl_hw::latency::LatencyScenario;

/// Bucketed summary of a suite's slowdown distribution, mirroring how §3.3
/// reports results.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SlowdownBuckets {
    /// Fraction of workloads with less than 1% slowdown.
    pub under_1pct: f64,
    /// Fraction with slowdown in `[1%, 5%)`.
    pub between_1_and_5pct: f64,
    /// Fraction with slowdown in `[5%, 25%]`.
    pub between_5_and_25pct: f64,
    /// Fraction with more than 25% slowdown.
    pub over_25pct: f64,
}

/// The slowdown model and its bandwidth parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownModel {
    /// Bandwidth a workload can draw from the CXL pool, in GB/s (the paper's
    /// testbed provides ~30 GB/s, three quarters of a ×8 link).
    pub cxl_bandwidth_gbps: f64,
    /// Bandwidth available from NUMA-local DRAM, in GB/s (~80 GB/s measured).
    pub local_bandwidth_gbps: f64,
}

impl Default for SlowdownModel {
    fn default() -> Self {
        SlowdownModel { cxl_bandwidth_gbps: 30.0, local_bandwidth_gbps: 80.0 }
    }
}

impl SlowdownModel {
    /// Fractional slowdown (0.25 == 25% slower than all-local) for a workload
    /// when `pool_access_fraction` of its memory accesses hit pool memory
    /// whose latency is `latency_ratio` × the local latency.
    ///
    /// The latency term scales with the workload's intrinsic sensitivity and
    /// the share of accesses that pay the extra latency. The bandwidth term
    /// applies only to the pool-bound share of traffic and only when the
    /// workload's demand exceeds what the CXL link can deliver.
    ///
    /// # Panics
    ///
    /// Panics if `latency_ratio < 1` or `pool_access_fraction` is outside `[0, 1]`.
    pub fn slowdown(
        &self,
        profile: &WorkloadProfile,
        latency_ratio: f64,
        pool_access_fraction: f64,
    ) -> f64 {
        assert!(latency_ratio >= 1.0, "pool latency cannot be below local latency");
        assert!(
            (0.0..=1.0).contains(&pool_access_fraction),
            "pool access fraction must be in [0, 1]"
        );
        let latency_term =
            profile.latency_sensitivity() * (latency_ratio - 1.0) * pool_access_fraction;
        let bandwidth_term =
            profile.bandwidth_sensitivity(self.cxl_bandwidth_gbps) * pool_access_fraction * 0.3;
        latency_term + bandwidth_term
    }

    /// Slowdown with the entire working set on pool memory under one of the
    /// paper's two emulated scenarios — the quantity plotted in Figure 4.
    pub fn full_pool_slowdown(&self, profile: &WorkloadProfile, scenario: LatencyScenario) -> f64 {
        self.slowdown(profile, scenario.multiplier(), 1.0)
    }

    /// Whether the workload stays within a performance degradation margin
    /// (PDM, e.g. 0.05 for 5%) when fully backed by pool memory — the label
    /// used to train the latency-insensitivity model (Figure 12).
    pub fn is_latency_insensitive(
        &self,
        profile: &WorkloadProfile,
        scenario: LatencyScenario,
        pdm: f64,
    ) -> bool {
        self.full_pool_slowdown(profile, scenario) <= pdm
    }

    /// Summarizes a set of slowdowns into the buckets §3.3 reports.
    pub fn bucketize(slowdowns: &[f64]) -> SlowdownBuckets {
        if slowdowns.is_empty() {
            return SlowdownBuckets::default();
        }
        let n = slowdowns.len() as f64;
        let count =
            |pred: &dyn Fn(f64) -> bool| slowdowns.iter().filter(|&&s| pred(s)).count() as f64 / n;
        SlowdownBuckets {
            under_1pct: count(&|s| s < 0.01),
            between_1_and_5pct: count(&|s| (0.01..0.05).contains(&s)),
            between_5_and_25pct: count(&|s| (0.05..=0.25).contains(&s)),
            over_25pct: count(&|s| s > 0.25),
        }
    }

    /// Empirical CDF of a set of slowdowns at the given evaluation points —
    /// the series plotted in Figure 5.
    pub fn cdf(slowdowns: &[f64], points: &[f64]) -> Vec<(f64, f64)> {
        points
            .iter()
            .map(|&p| {
                let frac = if slowdowns.is_empty() {
                    0.0
                } else {
                    slowdowns.iter().filter(|&&s| s <= p).count() as f64 / slowdowns.len() as f64
                };
                (p, frac)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::WorkloadClass;
    use crate::profile::PerformanceMetric;
    use cxl_hw::units::Bytes;
    use proptest::prelude::*;

    fn profile(dram_bound: f64, mlp: f64, bandwidth: f64) -> WorkloadProfile {
        WorkloadProfile {
            name: "test".into(),
            class: WorkloadClass::SpecCpu2017,
            footprint: Bytes::from_gib(8),
            dram_bound,
            memory_bound: (dram_bound + 0.1).min(1.0),
            store_bound: 0.02,
            mlp,
            bandwidth_gbps: bandwidth,
            llc_mpki: 10.0,
            hot_fraction: 0.7,
            numa_aware: false,
            metric: PerformanceMetric::Runtime,
        }
    }

    #[test]
    fn no_pool_accesses_means_no_slowdown() {
        let model = SlowdownModel::default();
        let p = profile(0.5, 1.0, 50.0);
        assert_eq!(model.slowdown(&p, 1.82, 0.0), 0.0);
    }

    #[test]
    fn slowdown_grows_with_latency_and_pool_fraction() {
        let model = SlowdownModel::default();
        let p = profile(0.3, 1.0, 10.0);
        let s_half = model.slowdown(&p, 1.82, 0.5);
        let s_full = model.slowdown(&p, 1.82, 1.0);
        let s_full_hi = model.slowdown(&p, 2.22, 1.0);
        assert!(s_half < s_full);
        assert!(s_full < s_full_hi);
    }

    #[test]
    fn insensitive_profile_stays_within_pdm() {
        let model = SlowdownModel::default();
        let quiet = profile(0.005, 4.0, 2.0);
        assert!(model.is_latency_insensitive(&quiet, LatencyScenario::Increase182, 0.01));
        let loud = profile(0.6, 1.0, 50.0);
        assert!(!model.is_latency_insensitive(&loud, LatencyScenario::Increase182, 0.05));
    }

    #[test]
    fn bandwidth_bound_workloads_pay_an_extra_penalty() {
        let model = SlowdownModel::default();
        let light = profile(0.3, 1.0, 10.0);
        let heavy = profile(0.3, 1.0, 70.0);
        assert!(
            model.full_pool_slowdown(&heavy, LatencyScenario::Increase182)
                > model.full_pool_slowdown(&light, LatencyScenario::Increase182)
        );
    }

    #[test]
    fn bucketize_partitions_the_distribution() {
        let slowdowns = [0.005, 0.02, 0.10, 0.30, 0.50];
        let b = SlowdownModel::bucketize(&slowdowns);
        assert!((b.under_1pct - 0.2).abs() < 1e-12);
        assert!((b.between_1_and_5pct - 0.2).abs() < 1e-12);
        assert!((b.between_5_and_25pct - 0.2).abs() < 1e-12);
        assert!((b.over_25pct - 0.4).abs() < 1e-12);
        let total = b.under_1pct + b.between_1_and_5pct + b.between_5_and_25pct + b.over_25pct;
        assert!((total - 1.0).abs() < 1e-12);
        let empty = SlowdownModel::bucketize(&[]);
        assert_eq!(empty.under_1pct, 0.0);
    }

    #[test]
    fn cdf_is_monotone_and_reaches_one() {
        let slowdowns = [0.01, 0.02, 0.10, 0.40];
        let cdf = SlowdownModel::cdf(&slowdowns, &[0.0, 0.05, 0.25, 0.50, 1.0]);
        assert_eq!(cdf.len(), 5);
        for pair in cdf.windows(2) {
            assert!(pair[1].1 >= pair[0].1);
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    #[should_panic(expected = "pool latency cannot be below local latency")]
    fn ratio_below_one_rejected() {
        let model = SlowdownModel::default();
        let _ = model.slowdown(&profile(0.1, 1.0, 1.0), 0.9, 0.5);
    }

    #[test]
    #[should_panic(expected = "pool access fraction")]
    fn pool_fraction_out_of_range_rejected() {
        let model = SlowdownModel::default();
        let _ = model.slowdown(&profile(0.1, 1.0, 1.0), 1.5, 1.5);
    }

    proptest! {
        /// Slowdown is non-negative and monotone in the pool-access fraction.
        #[test]
        fn monotone_in_pool_fraction(
            dram in 0.0f64..0.9,
            mlp in 1.0f64..6.0,
            bw in 0.0f64..80.0,
            f1 in 0.0f64..1.0,
            f2 in 0.0f64..1.0,
        ) {
            let model = SlowdownModel::default();
            let p = profile(dram, mlp, bw);
            let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
            let s_lo = model.slowdown(&p, 1.82, lo);
            let s_hi = model.slowdown(&p, 1.82, hi);
            prop_assert!(s_lo >= 0.0);
            prop_assert!(s_hi + 1e-12 >= s_lo);
        }
    }
}
