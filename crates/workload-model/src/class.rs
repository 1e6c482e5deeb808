//! Workload classes matching Figure 4's x-axis groups.

use std::fmt;

/// The workload families evaluated in the paper (Figure 4, §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WorkloadClass {
    /// Azure-internal production services ("Proprietary", P1–P13).
    Proprietary,
    /// Redis under YCSB A–F.
    Redis,
    /// VoltDB in-memory database.
    VoltDb,
    /// Spark / HiBench data processing (ML, web, etc.).
    Spark,
    /// GAP Benchmark Suite graph kernels (bc, bfs, cc, pr, sssp, tc) over
    /// several input graphs.
    Gapbs,
    /// TPC-H queries 1–22 on MySQL.
    TpcH,
    /// SPEC CPU 2017 (501.perlbench_r through 657.xz_s).
    SpecCpu2017,
    /// PARSEC shared-memory benchmarks (facesim, vips, …).
    Parsec,
    /// SPLASH2x HPC kernels (fft, …).
    Splash2x,
}

impl WorkloadClass {
    /// All classes, in the order the paper lists them.
    pub const ALL: [WorkloadClass; 9] = [
        WorkloadClass::Proprietary,
        WorkloadClass::Redis,
        WorkloadClass::VoltDb,
        WorkloadClass::Spark,
        WorkloadClass::Gapbs,
        WorkloadClass::TpcH,
        WorkloadClass::SpecCpu2017,
        WorkloadClass::Parsec,
        WorkloadClass::Splash2x,
    ];

    /// Number of workloads of this class in the 158-workload suite.
    ///
    /// The split mirrors the paper: 13 proprietary services, YCSB A–F on
    /// Redis, a handful of VoltDB and Spark configurations, 6 GAPBS kernels ×
    /// 5 graphs, 22 TPC-H queries, the SPEC CPU 2017 suite, and the
    /// PARSEC/SPLASH2x shared-memory benchmarks. The counts sum to 158.
    pub fn workload_count(self) -> usize {
        match self {
            WorkloadClass::Proprietary => 13,
            WorkloadClass::Redis => 6,
            WorkloadClass::VoltDb => 3,
            WorkloadClass::Spark => 8,
            WorkloadClass::Gapbs => 30,
            WorkloadClass::TpcH => 22,
            WorkloadClass::SpecCpu2017 => 43,
            WorkloadClass::Parsec => 16,
            WorkloadClass::Splash2x => 17,
        }
    }

    /// Short label used in workload names (e.g. `gapbs/bfs-road`).
    pub fn label(self) -> &'static str {
        match self {
            WorkloadClass::Proprietary => "proprietary",
            WorkloadClass::Redis => "redis",
            WorkloadClass::VoltDb => "voltdb",
            WorkloadClass::Spark => "spark",
            WorkloadClass::Gapbs => "gapbs",
            WorkloadClass::TpcH => "tpch",
            WorkloadClass::SpecCpu2017 => "speccpu",
            WorkloadClass::Parsec => "parsec",
            WorkloadClass::Splash2x => "splash2x",
        }
    }

    /// Whether workloads of this class are typically NUMA-aware.
    ///
    /// The paper notes Azure's proprietary workloads are less impacted than
    /// the open-source set partly because they are NUMA-aware and include
    /// data-placement optimizations (§3.3).
    pub fn typically_numa_aware(self) -> bool {
        matches!(self, WorkloadClass::Proprietary | WorkloadClass::VoltDb)
    }
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counts_sum_to_158() {
        let total: usize = WorkloadClass::ALL.iter().map(|c| c.workload_count()).sum();
        assert_eq!(total, 158);
    }

    #[test]
    fn every_class_has_at_least_one_workload() {
        for class in WorkloadClass::ALL {
            assert!(class.workload_count() > 0, "{class} has no workloads");
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = WorkloadClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), WorkloadClass::ALL.len());
    }

    #[test]
    fn proprietary_workloads_are_numa_aware() {
        assert!(WorkloadClass::Proprietary.typically_numa_aware());
        assert!(!WorkloadClass::Gapbs.typically_numa_aware());
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(WorkloadClass::TpcH.to_string(), "tpch");
    }
}
