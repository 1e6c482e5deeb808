//! Generation of the 158-workload suite.
//!
//! Real Azure traces and benchmark binaries are not available, so the suite
//! is generated from per-class parameter distributions calibrated to
//! reproduce the *shape* of the paper's sensitivity results (Figures 4/5):
//! roughly a quarter of workloads essentially insensitive, a fat middle, and
//! a fifth of workloads slowing down by more than 25% at a 182% latency
//! increase, with a handful of extreme outliers that exceed 100% at 222%.

use crate::class::WorkloadClass;
use crate::profile::{PerformanceMetric, WorkloadProfile};
use cxl_hw::units::Bytes;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64;

/// Sensitivity bucket a workload is drawn from. The bucket determines the
/// target "total sensitivity" — the fractional slowdown per unit of relative
/// latency increase when fully backed by pool memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    /// Below 1% slowdown at a 182% latency increase.
    Insensitive,
    /// Between roughly 1% and 20% slowdown at 182%.
    Moderate,
    /// Between roughly 16% and 37% slowdown at 182%.
    High,
    /// Above ~37% at 182%; the top of this bucket exceeds 100% at 222%.
    Extreme,
}

impl Bucket {
    /// Maps a position `u` in `[0, 1)` within the bucket to a sensitivity.
    fn sensitivity(self, u: f64) -> f64 {
        match self {
            Bucket::Insensitive => 0.012 * u,
            // Skewed towards the low end so the 1-5% slowdown bin is well
            // populated, as in Figure 5's CDF.
            Bucket::Moderate => 0.012 + (0.20 - 0.012) * u.powf(1.7),
            Bucket::High => 0.20 + (0.45 - 0.20) * u,
            Bucket::Extreme => 0.45 + (1.00 - 0.45) * u,
        }
    }
}

/// Per-class bucket counts `(insensitive, moderate, high, extreme)`.
///
/// Every class has both insensitive and heavily-affected members (except
/// SPLASH2x, which the paper singles out as the exception), and the
/// proprietary services lean insensitive because they are NUMA-aware.
fn bucket_counts(class: WorkloadClass) -> (usize, usize, usize, usize) {
    match class {
        WorkloadClass::Proprietary => (6, 2, 5, 0),
        WorkloadClass::Redis => (2, 3, 1, 0),
        WorkloadClass::VoltDb => (1, 1, 1, 0),
        WorkloadClass::Spark => (2, 3, 2, 1),
        WorkloadClass::Gapbs => (3, 8, 13, 6),
        WorkloadClass::TpcH => (6, 9, 6, 1),
        WorkloadClass::SpecCpu2017 => (14, 15, 11, 3),
        WorkloadClass::Parsec => (5, 6, 4, 1),
        WorkloadClass::Splash2x => (4, 11, 2, 0),
    }
}

fn workload_names(class: WorkloadClass) -> Vec<String> {
    let label = class.label();
    let names: Vec<String> = match class {
        WorkloadClass::Proprietary => (1..=13).map(|i| format!("P{i}")).collect(),
        WorkloadClass::Redis => {
            ["a", "b", "c", "d", "e", "f"].iter().map(|w| format!("ycsb-{w}")).collect()
        }
        WorkloadClass::VoltDb => ["voter", "tpcc", "kv"].iter().map(|s| s.to_string()).collect(),
        WorkloadClass::Spark => {
            ["als", "bayes", "kmeans", "lr", "pagerank", "terasort", "wordcount", "svm"]
                .iter()
                .map(|s| s.to_string())
                .collect()
        }
        WorkloadClass::Gapbs => {
            let kernels = ["bc", "bfs", "cc", "pr", "sssp", "tc"];
            let graphs = ["twitter", "web", "road", "kron", "urand"];
            kernels.iter().flat_map(|k| graphs.iter().map(move |g| format!("{k}-{g}"))).collect()
        }
        WorkloadClass::TpcH => (1..=22).map(|i| format!("q{i}")).collect(),
        WorkloadClass::SpecCpu2017 => [
            "500.perlbench_r",
            "502.gcc_r",
            "503.bwaves_r",
            "505.mcf_r",
            "507.cactuBSSN_r",
            "508.namd_r",
            "510.parest_r",
            "511.povray_r",
            "519.lbm_r",
            "520.omnetpp_r",
            "521.wrf_r",
            "523.xalancbmk_r",
            "525.x264_r",
            "526.blender_r",
            "527.cam4_r",
            "531.deepsjeng_r",
            "538.imagick_r",
            "541.leela_r",
            "544.nab_r",
            "548.exchange2_r",
            "549.fotonik3d_r",
            "554.roms_r",
            "557.xz_r",
            "600.perlbench_s",
            "602.gcc_s",
            "603.bwaves_s",
            "605.mcf_s",
            "607.cactuBSSN_s",
            "619.lbm_s",
            "620.omnetpp_s",
            "621.wrf_s",
            "623.xalancbmk_s",
            "625.x264_s",
            "627.cam4_s",
            "628.pop2_s",
            "631.deepsjeng_s",
            "638.imagick_s",
            "641.leela_s",
            "644.nab_s",
            "648.exchange2_s",
            "649.fotonik3d_s",
            "654.roms_s",
            "657.xz_s",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        WorkloadClass::Parsec => [
            "blackscholes",
            "bodytrack",
            "canneal",
            "dedup",
            "facesim",
            "ferret",
            "fluidanimate",
            "freqmine",
            "raytrace",
            "streamcluster",
            "swaptions",
            "vips",
            "x264",
            "netdedup",
            "netferret",
            "netstreamcluster",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        WorkloadClass::Splash2x => [
            "barnes",
            "cholesky",
            "fft",
            "fmm",
            "lu_cb",
            "lu_ncb",
            "ocean_cp",
            "ocean_ncp",
            "radiosity",
            "radix",
            "raytrace",
            "volrend",
            "water_nsquared",
            "water_spatial",
            "fft_large",
            "radix_large",
            "barnes_large",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    };
    names.into_iter().map(|n| format!("{label}/{n}")).collect()
}

fn footprint_range_gib(class: WorkloadClass) -> (u64, u64) {
    match class {
        WorkloadClass::Proprietary => (8, 128),
        WorkloadClass::Redis => (8, 32),
        WorkloadClass::VoltDb => (16, 64),
        WorkloadClass::Spark => (16, 64),
        WorkloadClass::Gapbs => (4, 64),
        WorkloadClass::TpcH => (8, 32),
        WorkloadClass::SpecCpu2017 => (1, 16),
        WorkloadClass::Parsec => (1, 8),
        WorkloadClass::Splash2x => (1, 8),
    }
}

fn metric_for(class: WorkloadClass) -> PerformanceMetric {
    match class {
        WorkloadClass::Redis | WorkloadClass::VoltDb => PerformanceMetric::TailLatency,
        WorkloadClass::Proprietary => PerformanceMetric::Throughput,
        _ => PerformanceMetric::Runtime,
    }
}

/// The full synthetic workload suite.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSuite {
    workloads: Vec<WorkloadProfile>,
    seed: u64,
}

impl WorkloadSuite {
    /// The seed used by [`WorkloadSuite::standard`].
    pub const STANDARD_SEED: u64 = 42;

    /// The suite used throughout the benchmarks and examples: 158 workloads
    /// generated with a fixed seed so every run sees the same profiles.
    pub fn standard() -> Self {
        Self::with_seed(Self::STANDARD_SEED)
    }

    /// Generates a suite with a custom seed (same class structure, different
    /// per-workload parameters).
    pub fn with_seed(seed: u64) -> Self {
        let mut workloads = Vec::with_capacity(158);
        for class in WorkloadClass::ALL {
            let names = workload_names(class);
            assert_eq!(
                names.len(),
                class.workload_count(),
                "name table for {class} disagrees with its workload count"
            );
            let (n_ins, n_mod, n_high, n_ext) = bucket_counts(class);
            assert_eq!(n_ins + n_mod + n_high + n_ext, names.len());

            // Interleave bucket membership across the class deterministically
            // so variants of the same kernel land in different buckets (the
            // paper notes within-class variability exceeds across-class
            // variability).
            let mut buckets: Vec<Bucket> = std::iter::empty()
                .chain(std::iter::repeat_n(Bucket::Insensitive, n_ins))
                .chain(std::iter::repeat_n(Bucket::Moderate, n_mod))
                .chain(std::iter::repeat_n(Bucket::High, n_high))
                .chain(std::iter::repeat_n(Bucket::Extreme, n_ext))
                .collect();
            let mut rng =
                Pcg64::seed_from_u64(seed ^ (class as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            buckets.shuffle(&mut rng);

            // Position of each workload within its bucket, to spread
            // sensitivities evenly across the bucket's range.
            let mut seen = [0usize; 4];
            let totals = [n_ins, n_mod, n_high, n_ext];

            for (name, bucket) in names.into_iter().zip(buckets) {
                let bucket_idx = match bucket {
                    Bucket::Insensitive => 0,
                    Bucket::Moderate => 1,
                    Bucket::High => 2,
                    Bucket::Extreme => 3,
                };
                let rank = seen[bucket_idx];
                seen[bucket_idx] += 1;
                let u = (rank as f64 + 0.5) / totals[bucket_idx].max(1) as f64;
                let target_sensitivity = bucket.sensitivity(u);
                workloads.push(Self::realize_profile(
                    name,
                    class,
                    bucket,
                    target_sensitivity,
                    &mut rng,
                ));
            }
        }
        WorkloadSuite { workloads, seed }
    }

    /// Builds a concrete profile whose [`WorkloadProfile::latency_sensitivity`]
    /// approximates `target`, with the remaining microarchitectural knobs
    /// drawn from class-appropriate ranges.
    fn realize_profile(
        name: String,
        class: WorkloadClass,
        bucket: Bucket,
        target: f64,
        rng: &mut Pcg64,
    ) -> WorkloadProfile {
        let numa_aware = class.typically_numa_aware();
        // Graph workloads chase pointers (low MLP); streaming/HPC codes
        // overlap many misses.
        let mlp = match class {
            WorkloadClass::Gapbs => rng.gen_range(1.0..2.0),
            WorkloadClass::Splash2x | WorkloadClass::Parsec => rng.gen_range(2.0..5.0),
            WorkloadClass::SpecCpu2017 => rng.gen_range(1.0..4.0),
            _ => rng.gen_range(1.5..3.5),
        };
        // Extreme workloads get no latency hiding at all, otherwise the
        // target sensitivity is unreachable.
        let mlp: f64 = if matches!(bucket, Bucket::Extreme) { 1.0 } else { mlp };
        let numa_factor = if numa_aware { 0.6 } else { 1.0 };
        // Keep the store-stall contribution at no more than half the target
        // sensitivity so the inversion below never clamps to zero and
        // insensitive workloads really are insensitive.
        let store_bound = rng.gen_range(0.01..0.10_f64).min(target / numa_factor / 0.3 * 0.5);

        // Invert latency_sensitivity() to find the DRAM-bound fraction that
        // realizes the target.
        let dram_bound = ((target / numa_factor - 0.3 * store_bound) * mlp.sqrt()).clamp(0.0, 0.95);
        let memory_bound = (dram_bound + rng.gen_range(0.03..0.20)).min(1.0);
        let llc_mpki = 0.5 + dram_bound * rng.gen_range(40.0..80.0);
        // Bandwidth demand scales with memory intensity; only the most
        // memory-hungry workloads exceed what a CXL ×8 link provides.
        let bandwidth_gbps = dram_bound * rng.gen_range(30.0..70.0);
        let hot_fraction = match class {
            WorkloadClass::Redis | WorkloadClass::VoltDb | WorkloadClass::Proprietary => {
                rng.gen_range(0.75..0.95)
            }
            WorkloadClass::Gapbs => rng.gen_range(0.30..0.60),
            _ => rng.gen_range(0.50..0.85),
        };
        let (lo, hi) = footprint_range_gib(class);
        let footprint = Bytes::from_gib(rng.gen_range(lo..=hi));

        let profile = WorkloadProfile {
            name,
            class,
            footprint,
            dram_bound,
            memory_bound,
            store_bound,
            mlp,
            bandwidth_gbps,
            llc_mpki,
            hot_fraction,
            numa_aware,
            metric: metric_for(class),
        };
        debug_assert_eq!(profile.validate(), Ok(()));
        profile
    }

    /// Number of workloads (always 158 for the standard class structure).
    pub fn len(&self) -> usize {
        self.workloads.len()
    }

    /// True when the suite is empty (never the case for generated suites).
    pub fn is_empty(&self) -> bool {
        self.workloads.is_empty()
    }

    /// Iterates over all workloads.
    pub fn workloads(&self) -> impl Iterator<Item = &WorkloadProfile> {
        self.workloads.iter()
    }

    /// All workloads of a given class.
    pub fn by_class(&self, class: WorkloadClass) -> Vec<&WorkloadProfile> {
        self.workloads().filter(|w| w.class == class).collect()
    }

    /// Looks up a workload by name.
    pub fn get(&self, name: &str) -> Option<&WorkloadProfile> {
        self.workloads().find(|w| w.name == name)
    }

    /// The workload at a given index.
    pub fn at(&self, index: usize) -> Option<&WorkloadProfile> {
        self.workloads.get(index)
    }
}

impl Default for WorkloadSuite {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slowdown::SlowdownModel;
    use cxl_hw::latency::LatencyScenario;

    #[test]
    fn standard_suite_has_158_workloads_with_paper_class_counts() {
        let suite = WorkloadSuite::standard();
        assert_eq!(suite.len(), 158);
        for class in WorkloadClass::ALL {
            assert_eq!(suite.by_class(class).len(), class.workload_count(), "{class}");
        }
    }

    #[test]
    fn every_generated_profile_is_valid_and_uniquely_named() {
        let suite = WorkloadSuite::standard();
        let mut names: Vec<&str> = suite.workloads().map(|w| w.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 158, "names must be unique");
        for w in suite.workloads() {
            assert_eq!(w.validate(), Ok(()), "{} is invalid", w.name);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        assert_eq!(WorkloadSuite::with_seed(7), WorkloadSuite::with_seed(7));
        assert_ne!(
            WorkloadSuite::with_seed(7).workloads[0].dram_bound,
            WorkloadSuite::with_seed(8).workloads[0].dram_bound
        );
        assert_eq!(WorkloadSuite::default(), WorkloadSuite::standard());
    }

    #[test]
    fn lookup_by_name_and_index() {
        let suite = WorkloadSuite::standard();
        assert!(suite.get("proprietary/P1").is_some());
        assert!(suite.get("gapbs/bfs-twitter").is_some());
        assert!(suite.get("tpch/q22").is_some());
        assert!(suite.get("does-not-exist").is_none());
        assert!(suite.at(0).is_some());
        assert!(suite.at(158).is_none());
    }

    /// The headline calibration check: the slowdown distribution at 182% and
    /// 222% latency increases should match the shape reported in §3.3.
    #[test]
    fn slowdown_distribution_matches_paper_shape() {
        let suite = WorkloadSuite::standard();
        let model = SlowdownModel::default();

        let fraction = |scenario: LatencyScenario, pred: &dyn Fn(f64) -> bool| -> f64 {
            suite.workloads().filter(|w| pred(model.full_pool_slowdown(w, scenario))).count() as f64
                / suite.len() as f64
        };

        // 182%: ~26% under 1% slowdown, ~43% under 5%, ~21% above 25%.
        let under1 = fraction(LatencyScenario::Increase182, &|s| s < 0.01);
        let under5 = fraction(LatencyScenario::Increase182, &|s| s < 0.05);
        let over25 = fraction(LatencyScenario::Increase182, &|s| s > 0.25);
        assert!((0.18..=0.36).contains(&under1), "<1% bucket at 182%: {under1}");
        assert!((0.33..=0.55).contains(&under5), "<5% bucket at 182%: {under5}");
        assert!((0.13..=0.32).contains(&over25), ">25% bucket at 182%: {over25}");

        // 222%: ~23% under 1%, ~37% under 5%, ~37% above 25%.
        let under1_hi = fraction(LatencyScenario::Increase222, &|s| s < 0.01);
        let over25_hi = fraction(LatencyScenario::Increase222, &|s| s > 0.25);
        assert!((0.15..=0.33).contains(&under1_hi), "<1% bucket at 222%: {under1_hi}");
        assert!((0.28..=0.48).contains(&over25_hi), ">25% bucket at 222%: {over25_hi}");
        assert!(over25_hi > over25, "higher latency must hurt more workloads");

        // A few outliers exceed 100% slowdown at 222% (the paper reports three).
        let outliers = suite
            .workloads()
            .filter(|w| model.full_pool_slowdown(w, LatencyScenario::Increase222) > 1.0)
            .count();
        assert!((1..=8).contains(&outliers), "extreme outliers: {outliers}");
    }

    #[test]
    fn proprietary_workloads_are_less_impacted_than_average() {
        let suite = WorkloadSuite::standard();
        let model = SlowdownModel::default();
        let mean = |profiles: &[&WorkloadProfile]| -> f64 {
            profiles
                .iter()
                .map(|w| model.full_pool_slowdown(w, LatencyScenario::Increase182))
                .sum::<f64>()
                / profiles.len() as f64
        };
        let proprietary = mean(&suite.by_class(WorkloadClass::Proprietary));
        let all: Vec<&WorkloadProfile> = suite.workloads().collect();
        let overall = mean(&all);
        assert!(
            proprietary < overall,
            "proprietary ({proprietary:.3}) should be below overall ({overall:.3})"
        );
    }

    #[test]
    fn gapbs_within_class_variability_is_large() {
        // §3.3: within GAPBS even the same kernel reacts very differently.
        let suite = WorkloadSuite::standard();
        let model = SlowdownModel::default();
        let slowdowns: Vec<f64> = suite
            .by_class(WorkloadClass::Gapbs)
            .iter()
            .map(|w| model.full_pool_slowdown(w, LatencyScenario::Increase182))
            .collect();
        let min = slowdowns.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = slowdowns.iter().cloned().fold(0.0_f64, f64::max);
        assert!(max - min > 0.20, "GAPBS spread should exceed 20 points: {min}..{max}");
    }

    #[test]
    fn every_class_except_splash_has_both_extremes() {
        // §3.3: every class has at least one workload below 5% and one above
        // 25% slowdown, except SPLASH2x.
        let suite = WorkloadSuite::standard();
        let model = SlowdownModel::default();
        for class in WorkloadClass::ALL {
            let slowdowns: Vec<f64> = suite
                .by_class(class)
                .iter()
                .map(|w| model.full_pool_slowdown(w, LatencyScenario::Increase182))
                .collect();
            let has_low = slowdowns.iter().any(|&s| s < 0.05);
            let has_high = slowdowns.iter().any(|&s| s > 0.25);
            assert!(has_low, "{class} should have an insensitive workload");
            if class != WorkloadClass::Splash2x {
                assert!(has_high, "{class} should have a heavily-affected workload");
            }
        }
    }
}
