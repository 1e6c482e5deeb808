//! Per-workload memory-behaviour profiles.
//!
//! A profile captures the handful of microarchitectural properties that
//! determine how a workload reacts to extra memory latency: how often the
//! pipeline stalls on DRAM, how much memory-level parallelism hides that
//! latency, how much bandwidth it draws, and how skewed its access pattern is
//! across its footprint.

use crate::class::WorkloadClass;
use cxl_hw::units::Bytes;

/// What "performance" means for a workload (job runtime, throughput, or tail
/// latency — §6.1). Slowdowns are always expressed as a ratio to the
/// all-local baseline, whichever metric underlies them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerformanceMetric {
    /// Wall-clock job completion time (lower is better).
    Runtime,
    /// Sustained operations per second (higher is better).
    Throughput,
    /// 99th-percentile request latency (lower is better).
    TailLatency,
}

/// The memory-behaviour profile of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Unique name, e.g. `gapbs/bfs-twitter` or `speccpu/519.lbm_r`.
    pub name: String,
    /// The workload's class.
    pub class: WorkloadClass,
    /// Memory footprint (the working set the guest actually touches).
    pub footprint: Bytes,
    /// Fraction of pipeline slots stalled specifically on DRAM accesses
    /// (the TMA "DRAM-bound" metric), in `[0, 1]`.
    pub dram_bound: f64,
    /// Fraction of pipeline slots stalled on any memory level (TMA
    /// "memory-bound"), always at least `dram_bound`.
    pub memory_bound: f64,
    /// Fraction of slots stalled on stores (TMA "store-bound").
    pub store_bound: f64,
    /// Average memory-level parallelism: how many outstanding misses overlap.
    /// Higher MLP hides added latency better.
    pub mlp: f64,
    /// Sustained memory bandwidth demand in GB/s.
    pub bandwidth_gbps: f64,
    /// Last-level-cache misses per kilo-instruction.
    pub llc_mpki: f64,
    /// Fraction of accesses that hit the hottest 20% of the footprint
    /// (access skew; high values mean a small hot set).
    pub hot_fraction: f64,
    /// Whether the workload performs NUMA-aware placement of its own data.
    pub numa_aware: bool,
    /// The metric its performance is reported in.
    pub metric: PerformanceMetric,
}

impl WorkloadProfile {
    /// Validates the profile's invariants, returning a description of the
    /// first violation if any.
    ///
    /// The suite generator and tests use this to guarantee that every
    /// generated profile is internally consistent.
    pub fn validate(&self) -> Result<(), String> {
        let unit = |v: f64, name: &str| -> Result<(), String> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{name} must be in [0, 1], got {v}"))
            }
        };
        unit(self.dram_bound, "dram_bound")?;
        unit(self.memory_bound, "memory_bound")?;
        unit(self.store_bound, "store_bound")?;
        unit(self.hot_fraction, "hot_fraction")?;
        if self.memory_bound + 1e-9 < self.dram_bound {
            return Err(format!(
                "memory_bound ({}) must be at least dram_bound ({})",
                self.memory_bound, self.dram_bound
            ));
        }
        if self.mlp < 1.0 {
            return Err(format!("mlp must be >= 1, got {}", self.mlp));
        }
        if self.bandwidth_gbps < 0.0 || !self.bandwidth_gbps.is_finite() {
            return Err(format!(
                "bandwidth_gbps must be non-negative, got {}",
                self.bandwidth_gbps
            ));
        }
        if self.llc_mpki < 0.0 || !self.llc_mpki.is_finite() {
            return Err(format!("llc_mpki must be non-negative, got {}", self.llc_mpki));
        }
        if self.footprint.is_zero() {
            return Err("footprint must be non-zero".to_string());
        }
        Ok(())
    }

    /// The workload's intrinsic sensitivity to added memory latency: the
    /// fractional slowdown it would suffer per unit of *relative* latency
    /// increase with its entire working set on the slower memory.
    ///
    /// The dominant term is DRAM-boundedness divided by MLP (overlapping
    /// misses hide part of the extra latency); store stalls contribute a
    /// smaller share (write-backs are off the critical path more often), and
    /// NUMA-aware workloads shave a further fraction because they keep their
    /// hottest structures local by design.
    pub fn latency_sensitivity(&self) -> f64 {
        let mlp_hiding = self.mlp.max(1.0).sqrt();
        let base = self.dram_bound / mlp_hiding + 0.3 * self.store_bound;
        if self.numa_aware {
            base * 0.6
        } else {
            base
        }
    }

    /// Additional sensitivity from bandwidth contention: a ×8 CXL link
    /// provides roughly `cxl_bandwidth_gbps` (about 30 GB/s in the paper's
    /// testbed, 3/4 of a ×8 link) versus ~80 GB/s NUMA-local. Workloads that
    /// demand more than the link can supply stall further.
    pub fn bandwidth_sensitivity(&self, cxl_bandwidth_gbps: f64) -> f64 {
        if self.bandwidth_gbps <= cxl_bandwidth_gbps {
            0.0
        } else {
            // Fractional throughput loss if fully bandwidth-limited.
            (self.bandwidth_gbps - cxl_bandwidth_gbps) / self.bandwidth_gbps
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_profile() -> WorkloadProfile {
        WorkloadProfile {
            name: "test/wl".into(),
            class: WorkloadClass::SpecCpu2017,
            footprint: Bytes::from_gib(8),
            dram_bound: 0.2,
            memory_bound: 0.35,
            store_bound: 0.05,
            mlp: 2.0,
            bandwidth_gbps: 10.0,
            llc_mpki: 5.0,
            hot_fraction: 0.8,
            numa_aware: false,
            metric: PerformanceMetric::Runtime,
        }
    }

    #[test]
    fn valid_profile_passes_validation() {
        assert_eq!(base_profile().validate(), Ok(()));
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut p = base_profile();
        p.dram_bound = 1.5;
        assert!(p.validate().is_err());

        let mut p = base_profile();
        p.memory_bound = 0.1; // below dram_bound
        assert!(p.validate().unwrap_err().contains("memory_bound"));

        let mut p = base_profile();
        p.mlp = 0.5;
        assert!(p.validate().unwrap_err().contains("mlp"));

        let mut p = base_profile();
        p.footprint = Bytes::ZERO;
        assert!(p.validate().unwrap_err().contains("footprint"));

        let mut p = base_profile();
        p.bandwidth_gbps = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn latency_sensitivity_increases_with_dram_boundedness() {
        let mut low = base_profile();
        low.dram_bound = 0.05;
        let mut high = base_profile();
        high.dram_bound = 0.5;
        high.memory_bound = 0.6;
        assert!(high.latency_sensitivity() > low.latency_sensitivity());
    }

    #[test]
    fn mlp_hides_latency() {
        let mut serial = base_profile();
        serial.mlp = 1.0;
        let mut parallel = base_profile();
        parallel.mlp = 8.0;
        assert!(parallel.latency_sensitivity() < serial.latency_sensitivity());
    }

    #[test]
    fn numa_awareness_reduces_sensitivity() {
        let mut aware = base_profile();
        aware.numa_aware = true;
        assert!(aware.latency_sensitivity() < base_profile().latency_sensitivity());
    }

    #[test]
    fn bandwidth_sensitivity_kicks_in_above_the_link_capacity() {
        let mut light = base_profile();
        light.bandwidth_gbps = 10.0;
        assert_eq!(light.bandwidth_sensitivity(30.0), 0.0);

        let mut heavy = base_profile();
        heavy.bandwidth_gbps = 60.0;
        let s = heavy.bandwidth_sensitivity(30.0);
        assert!(s > 0.0 && s < 1.0);
    }
}
