//! Core-PMU / TMA telemetry generation (Figure 12).
//!
//! Pond's latency-insensitivity model is trained on top-down-method (TMA)
//! hardware counters sampled by the hypervisor: memory-bound, DRAM-bound,
//! store-bound, backend-bound pipeline-slot fractions, plus LLC misses per
//! instruction, bandwidth utilization, and memory parallelism. This module
//! produces those counters for a synthetic workload, including realistic
//! sampling noise, and converts them to the feature vectors `pond-ml`
//! consumes.

use crate::profile::WorkloadProfile;
use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64;

/// A sampled set of TMA / PMU counters for one VM over one sampling window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TmaCounters {
    /// Fraction of pipeline slots stalled on the backend (memory + core).
    pub backend_bound: f64,
    /// Fraction of slots stalled on any memory level.
    pub memory_bound: f64,
    /// Fraction of slots stalled specifically on DRAM.
    pub dram_bound: f64,
    /// Fraction of slots stalled on stores.
    pub store_bound: f64,
    /// Last-level-cache misses per kilo-instruction.
    pub llc_mpki: f64,
    /// Observed memory bandwidth in GB/s.
    pub memory_bandwidth_gbps: f64,
    /// Estimated memory-level parallelism (outstanding misses).
    pub memory_parallelism: f64,
}

impl TmaCounters {
    /// Feature names, in the order produced by [`TmaCounters::to_features`].
    pub const FEATURE_NAMES: [&'static str; 7] = [
        "backend_bound",
        "memory_bound",
        "dram_bound",
        "store_bound",
        "llc_mpki",
        "memory_bandwidth_gbps",
        "memory_parallelism",
    ];

    /// Converts the counters into an ML feature vector.
    pub fn to_features(&self) -> Vec<f64> {
        vec![
            self.backend_bound,
            self.memory_bound,
            self.dram_bound,
            self.store_bound,
            self.llc_mpki,
            self.memory_bandwidth_gbps,
            self.memory_parallelism,
        ]
    }

    /// Feature names as owned strings (convenience for building datasets).
    pub fn feature_names() -> Vec<String> {
        Self::FEATURE_NAMES.iter().map(|s| s.to_string()).collect()
    }
}

/// Generates PMU samples for workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySampler {
    /// Relative magnitude of multiplicative sampling noise (0.05 = ±5%).
    pub noise: f64,
}

impl Default for TelemetrySampler {
    fn default() -> Self {
        TelemetrySampler { noise: 0.05 }
    }
}

impl TelemetrySampler {
    /// Creates a sampler with a custom noise level.
    ///
    /// # Panics
    ///
    /// Panics if `noise` is negative or not finite.
    pub fn new(noise: f64) -> Self {
        assert!(noise.is_finite() && noise >= 0.0, "noise must be finite and non-negative");
        TelemetrySampler { noise }
    }

    fn jitter(&self, value: f64, rng: &mut Pcg64) -> f64 {
        let factor = 1.0 + (rng.gen::<f64>() * 2.0 - 1.0) * self.noise;
        (value * factor).max(0.0)
    }

    /// Samples one counter snapshot for a workload. Deterministic for a given
    /// `(workload, seed)` pair.
    pub fn sample(&self, profile: &WorkloadProfile, seed: u64) -> TmaCounters {
        let mut rng = Pcg64::seed_from_u64(seed ^ fxhash(&profile.name));
        let memory_bound = self.jitter(profile.memory_bound, &mut rng).min(1.0);
        let dram_bound = self.jitter(profile.dram_bound, &mut rng).min(memory_bound);
        let store_bound = self.jitter(profile.store_bound, &mut rng).min(1.0);
        let backend_bound = (memory_bound + self.jitter(0.08, &mut rng)).min(1.0);
        TmaCounters {
            backend_bound,
            memory_bound,
            dram_bound,
            store_bound,
            llc_mpki: self.jitter(profile.llc_mpki, &mut rng),
            memory_bandwidth_gbps: self.jitter(profile.bandwidth_gbps, &mut rng),
            memory_parallelism: self.jitter(profile.mlp, &mut rng).max(1.0),
        }
    }
}

/// A tiny deterministic string hash (FNV-1a) so per-workload sampling streams
/// differ without pulling in a hashing crate.
fn fxhash(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::WorkloadSuite;

    #[test]
    fn sampled_counters_track_the_profile() {
        let suite = WorkloadSuite::standard();
        let sampler = TelemetrySampler::default();
        for w in suite.workloads() {
            let c = sampler.sample(w, 1);
            assert!(c.dram_bound <= c.memory_bound + 1e-12, "{}", w.name);
            assert!(c.memory_bound <= 1.0 && c.backend_bound <= 1.0);
            assert!((c.dram_bound - w.dram_bound).abs() <= w.dram_bound * 0.06 + 1e-9);
            assert!(c.memory_parallelism >= 1.0);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed_and_differs_across_workloads() {
        let suite = WorkloadSuite::standard();
        let sampler = TelemetrySampler::default();
        let a = suite.at(0).unwrap();
        let b = suite.at(1).unwrap();
        assert_eq!(sampler.sample(a, 5), sampler.sample(a, 5));
        assert_ne!(sampler.sample(a, 5), sampler.sample(b, 5));
        assert_ne!(sampler.sample(a, 5), sampler.sample(a, 6));
    }

    #[test]
    fn feature_vector_matches_names() {
        let suite = WorkloadSuite::standard();
        let sampler = TelemetrySampler::default();
        let c = sampler.sample(suite.at(0).unwrap(), 0);
        assert_eq!(c.to_features().len(), TmaCounters::FEATURE_NAMES.len());
        assert_eq!(TmaCounters::feature_names().len(), 7);
    }

    #[test]
    fn zero_noise_reproduces_the_profile_exactly() {
        let suite = WorkloadSuite::standard();
        let w = suite.at(10).unwrap();
        let c = TelemetrySampler::new(0.0).sample(w, 3);
        assert!((c.dram_bound - w.dram_bound).abs() < 1e-12);
        assert!((c.llc_mpki - w.llc_mpki).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "noise must be finite")]
    fn negative_noise_rejected() {
        let _ = TelemetrySampler::new(-0.1);
    }
}
