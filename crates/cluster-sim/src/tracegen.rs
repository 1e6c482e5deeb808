//! Synthetic VM-trace generation.
//!
//! Substitutes for the paper's production traces (100 clusters, 75 days).
//! The generator is calibrated to the aggregate properties the paper
//! reports rather than to any single trace: per-cluster core utilization
//! between roughly 60% and 95%, a VM size mix dominated by small VMs, a
//! heavy-tailed lifetime distribution, a DRAM-to-core demand that sits below
//! the servers' provisioned ratio (the root cause of stranding), ~50% median
//! untouched memory, and customer-correlated behaviour that makes
//! metadata-based prediction possible.

use crate::source::{ArrivalSource, SourceError, TraceHeader};
use crate::trace::{ClusterTrace, CustomerId, GuestOs, VmRequest, VmType};
use cxl_hw::units::Bytes;
use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64;
use workload_model::WorkloadSuite;

/// Static configuration for generating one cluster's trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of dual-socket servers.
    pub servers: u32,
    /// Cores per server (both sockets combined).
    pub cores_per_server: u32,
    /// DRAM per server (both sockets combined).
    pub dram_per_server: Bytes,
    /// Trace duration in days.
    pub duration_days: u32,
    /// Target mean core utilization in `[0, 1]`. Individual clusters vary
    /// around this when generating a fleet.
    pub target_utilization: f64,
    /// Number of distinct customers.
    pub customers: u32,
    /// Multiplier applied to every VM's nominal memory (models clusters whose
    /// VM mix is more or less memory-hungry than the type nominal).
    pub memory_demand_factor: f64,
    /// Optional day at which the VM mix shifts towards compute-heavy VMs
    /// (reproduces the stranding jump around day 36 in Figure 2b).
    pub workload_shift_day: Option<u32>,
}

impl ClusterConfig {
    /// A production-like cluster: 40 dual-socket servers with 48 cores and
    /// 384 GiB each, traced for 75 days.
    pub fn azure_like() -> Self {
        ClusterConfig {
            servers: 40,
            cores_per_server: 48,
            dram_per_server: Bytes::from_gib(384),
            duration_days: 75,
            target_utilization: 0.80,
            customers: 60,
            memory_demand_factor: 1.6,
            workload_shift_day: None,
        }
    }

    /// A small configuration for unit tests and examples: 16 servers, 4 days.
    ///
    /// Sized so a trace holds a few hundred VMs — large enough that the
    /// distributional properties the tests assert (VM shape mix, untouched
    /// medians, spill-induced QoS violations) hold with margin at the fixed
    /// default seed, while keeping the full test suite fast.
    pub fn small() -> Self {
        ClusterConfig {
            servers: 16,
            cores_per_server: 48,
            dram_per_server: Bytes::from_gib(384),
            duration_days: 4,
            target_utilization: 0.8,
            customers: 16,
            memory_demand_factor: 1.6,
            workload_shift_day: None,
        }
    }

    /// Duration in seconds.
    pub fn duration_secs(&self) -> u64 {
        self.duration_days as u64 * 86_400
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::azure_like()
    }
}

/// Per-customer behaviour: which workloads they run, how much of their rented
/// memory they typically leave untouched, and which VM types they favour.
#[derive(Debug, Clone)]
struct CustomerModel {
    untouched_mean: f64,
    workload_indices: Vec<usize>,
    preferred_type: VmType,
    guest_os: GuestOs,
    region: u8,
}

/// Generates [`ClusterTrace`]s.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: ClusterConfig,
    clusters: u32,
    suite_len: usize,
    seed: u64,
}

impl TraceGenerator {
    /// Default base seed, matching the workload suite's standard seed.
    pub const DEFAULT_SEED: u64 = WorkloadSuite::STANDARD_SEED;

    /// Creates a generator for `clusters` clusters sharing a base config.
    pub fn new(config: ClusterConfig, clusters: u32) -> Self {
        TraceGenerator { config, clusters, suite_len: 158, seed: Self::DEFAULT_SEED }
    }

    /// Overrides the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The base configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    fn customer_models(&self, rng: &mut Pcg64, cluster_untouched_bias: f64) -> Vec<CustomerModel> {
        (0..self.config.customers)
            .map(|_| {
                // Customer untouched-memory means cluster around 0.5 with wide
                // spread; the cluster-level bias shifts whole clusters.
                let raw: f64 = rng.gen::<f64>();
                let untouched_mean = (0.15 + 0.7 * raw + cluster_untouched_bias).clamp(0.02, 0.95);
                let n_workloads = rng.gen_range(1..=3);
                let workload_indices =
                    (0..n_workloads).map(|_| rng.gen_range(0..self.suite_len)).collect();
                let preferred_type = match rng.gen_range(0..10) {
                    0..=4 => VmType::GeneralPurpose,
                    5..=6 => VmType::MemoryOptimized,
                    7..=8 => VmType::ComputeOptimized,
                    _ => VmType::Burstable,
                };
                let guest_os =
                    if rng.gen::<f64>() < 0.7 { GuestOs::Linux } else { GuestOs::Windows };
                CustomerModel {
                    untouched_mean,
                    workload_indices,
                    preferred_type,
                    guest_os,
                    region: rng.gen_range(0..8),
                }
            })
            .collect()
    }

    fn sample_cores(rng: &mut Pcg64) -> u32 {
        match rng.gen_range(0..100) {
            0..=14 => 1,
            15..=39 => 2,
            40..=64 => 4,
            65..=84 => 8,
            85..=97 => 16,
            _ => 32,
        }
    }

    /// Lifetime-class weights and the range each class draws from, mirroring
    /// the short-dominated but heavy-tailed lifetime mix of cloud VMs.
    const LIFETIME_CLASSES: [(f64, u64, u64); 4] = [
        (0.40, 5 * 60, 3600),            // minutes-scale
        (0.30, 3600, 12 * 3600),         // hours-scale
        (0.20, 12 * 3600, 3 * 86_400),   // day-scale
        (0.10, 3 * 86_400, 28 * 86_400), // long-running
    ];

    fn sample_lifetime_in_class(class: usize, rng: &mut Pcg64) -> u64 {
        let (_, lo, hi) = Self::LIFETIME_CLASSES[class];
        rng.gen_range(lo..hi)
    }

    fn sample_lifetime(rng: &mut Pcg64) -> u64 {
        let mut pick: f64 = rng.gen();
        for (class, (weight, _, _)) in Self::LIFETIME_CLASSES.iter().enumerate() {
            if pick < *weight {
                return Self::sample_lifetime_in_class(class, rng);
            }
            pick -= weight;
        }
        Self::sample_lifetime_in_class(Self::LIFETIME_CLASSES.len() - 1, rng)
    }

    /// Samples the lifetime of a VM that is already running at the start of
    /// the trace. A snapshot of a cluster is length-biased: long-running VMs
    /// are over-represented in proportion to their lifetime, which is what
    /// keeps the steady-state population stable from t = 0.
    fn sample_inflight_lifetime(rng: &mut Pcg64) -> u64 {
        let class_means: Vec<f64> =
            Self::LIFETIME_CLASSES.iter().map(|(w, lo, hi)| w * (lo + hi) as f64 / 2.0).collect();
        let total: f64 = class_means.iter().sum();
        let mut pick: f64 = rng.gen::<f64>() * total;
        for (class, mass) in class_means.iter().enumerate() {
            if pick < *mass {
                return Self::sample_lifetime_in_class(class, rng);
            }
            pick -= mass;
        }
        Self::sample_lifetime_in_class(Self::LIFETIME_CLASSES.len() - 1, rng)
    }

    /// Mean values of the sampling distributions, used to derive the arrival
    /// rate that hits the target utilization.
    fn mean_cores() -> f64 {
        0.15 * 1.0 + 0.25 * 2.0 + 0.25 * 4.0 + 0.20 * 8.0 + 0.13 * 16.0 + 0.02 * 32.0
    }

    fn mean_lifetime_secs() -> f64 {
        Self::LIFETIME_CLASSES.iter().map(|(w, lo, hi)| w * (lo + hi) as f64 / 2.0).sum()
    }

    /// Samples one VM request. Factored out of the generation loop so the
    /// materialized and streamed paths share the exact RNG draw sequence.
    fn sample_request(
        rng: &mut Pcg64,
        customers: &[CustomerModel],
        memory_factor: f64,
        shift_secs: Option<u64>,
        id: u64,
        arrival: u64,
        lifetime: u64,
    ) -> VmRequest {
        let customer_idx = rng.gen_range(0..customers.len());
        let customer = &customers[customer_idx];
        let cores = Self::sample_cores(rng);
        let shifted = shift_secs.is_some_and(|s| arrival >= s);
        // After a workload shift the mix becomes compute-heavy: less
        // memory per core, which increases stranding.
        let vm_type = if shifted && rng.gen::<f64>() < 0.6 {
            VmType::ComputeOptimized
        } else if rng.gen::<f64>() < 0.7 {
            customer.preferred_type
        } else {
            VmType::ALL[rng.gen_range(0..VmType::ALL.len())]
        };
        let gib = ((cores as f64
            * vm_type.gib_per_core() as f64
            * memory_factor
            * rng.gen_range(0.8..1.25))
        .round() as u64)
            .max(1);
        let untouched_fraction =
            (customer.untouched_mean + rng.gen_range(-0.15..0.15)).clamp(0.0, 0.98);
        let workload_index =
            customer.workload_indices[rng.gen_range(0..customer.workload_indices.len())];
        VmRequest {
            id,
            arrival,
            lifetime,
            cores,
            memory: Bytes::from_gib(gib),
            customer: CustomerId(customer_idx as u32),
            vm_type,
            guest_os: customer.guest_os,
            region: customer.region,
            workload_index,
            untouched_fraction,
        }
    }

    /// Runs the per-cluster prelude: seeds the RNG, draws the cluster-level
    /// variation, and derives the arrival process. The returned RNG sits
    /// exactly where the request-sampling loop expects it.
    fn plan(&self, cluster: u32) -> ClusterPlan {
        assert!(cluster < self.clusters, "cluster index out of range");
        let mut rng = Pcg64::seed_from_u64(
            self.seed ^ (cluster as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93),
        );

        // Per-cluster variation: utilization, memory hunger, untouched bias.
        let utilization = if self.clusters == 1 {
            self.config.target_utilization
        } else {
            (self.config.target_utilization + rng.gen_range(-0.18..0.15)).clamp(0.55, 0.97)
        };
        let memory_factor = self.config.memory_demand_factor * rng.gen_range(0.8..1.2);
        let untouched_bias = rng.gen_range(-0.12..0.12);
        let customers = self.customer_models(&mut rng, untouched_bias);

        let total_cores = self.config.servers as u64 * self.config.cores_per_server as u64;
        let target_concurrent_cores = utilization * total_cores as f64;
        // Little's law: arrival rate (VMs/s) = concurrent VMs / mean lifetime.
        let arrival_rate =
            target_concurrent_cores / Self::mean_cores() / Self::mean_lifetime_secs();
        // Steady-state population seeded at t = 0 so the cluster starts warm
        // instead of ramping for days.
        let initial_vms = (target_concurrent_cores / Self::mean_cores()).round() as u64;

        ClusterPlan {
            rng,
            customers,
            memory_factor,
            shift_secs: self.config.workload_shift_day.map(|d| d as u64 * 86_400),
            arrival_rate,
            initial_vms,
        }
    }

    /// Streams the trace for one cluster index lazily as an
    /// [`ArrivalSource`]: each request is sampled on demand, so a sweep grid
    /// point holds O(1) generator state instead of the whole trace. Emits the
    /// exact request sequence of [`TraceGenerator::generate`] (which is
    /// implemented on top of this source).
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is outside `0..clusters` (the count passed to
    /// [`TraceGenerator::new`]).
    pub fn stream(&self, cluster: u32) -> GeneratorSource {
        GeneratorSource {
            header: TraceHeader {
                cluster_id: cluster,
                servers: self.config.servers,
                cores_per_server: self.config.cores_per_server,
                dram_per_server: self.config.dram_per_server,
                duration: self.config.duration_secs(),
            },
            plan: self.plan(cluster),
            next_id: 0,
            emitted_initial: 0,
            t: 0.0,
            done: false,
        }
    }

    /// Generates the trace for one cluster index (deterministic per index)
    /// by materializing [`TraceGenerator::stream`].
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is outside `0..clusters` (the count passed to
    /// [`TraceGenerator::new`]).
    pub fn generate(&self, cluster: u32) -> ClusterTrace {
        let mut source = self.stream(cluster);
        let mut requests = Vec::new();
        while let Some(request) = source.next_request().expect("generator sources never fail") {
            requests.push(request);
        }
        // The stream is already (arrival, id)-sorted — the initial population
        // all arrives at t = 0 in id order and the Poisson clock only moves
        // forward — so this stable sort is a no-op kept as belt and braces.
        requests.sort_by_key(|r| (r.arrival, r.id));
        ClusterTrace {
            cluster_id: cluster,
            servers: self.config.servers,
            cores_per_server: self.config.cores_per_server,
            dram_per_server: self.config.dram_per_server,
            duration: self.config.duration_secs(),
            requests,
        }
    }

    /// Generates every cluster's trace.
    pub fn generate_all(&self) -> Vec<ClusterTrace> {
        (0..self.clusters).map(|c| self.generate(c)).collect()
    }
}

/// The shared per-cluster generation state: the RNG positioned after the
/// prelude draws, the sampled cluster-level parameters, and the derived
/// arrival process.
#[derive(Debug, Clone)]
struct ClusterPlan {
    rng: Pcg64,
    customers: Vec<CustomerModel>,
    memory_factor: f64,
    shift_secs: Option<u64>,
    arrival_rate: f64,
    initial_vms: u64,
}

/// A lazily generated synthetic trace (see [`TraceGenerator::stream`]):
/// the in-flight population at t = 0 followed by Poisson arrivals, sampled
/// one request per [`ArrivalSource::next_request`] call.
#[derive(Debug, Clone)]
pub struct GeneratorSource {
    header: TraceHeader,
    plan: ClusterPlan,
    next_id: u64,
    emitted_initial: u64,
    t: f64,
    done: bool,
}

impl ArrivalSource for GeneratorSource {
    fn header(&self) -> &TraceHeader {
        &self.header
    }

    fn next_request(&mut self) -> Result<Option<VmRequest>, SourceError> {
        if self.done {
            return Ok(None);
        }
        let plan = &mut self.plan;
        // The in-flight population first: arrival 0, length-biased lifetimes.
        if self.emitted_initial < plan.initial_vms {
            self.emitted_initial += 1;
            let lifetime = TraceGenerator::sample_inflight_lifetime(&mut plan.rng);
            // Residual lifetime of an in-flight VM.
            let residual = plan.rng.gen_range(1..lifetime.max(2));
            let id = self.next_id;
            self.next_id += 1;
            return Ok(Some(TraceGenerator::sample_request(
                &mut plan.rng,
                &plan.customers,
                plan.memory_factor,
                plan.shift_secs,
                id,
                0,
                residual,
            )));
        }
        // Then Poisson arrivals until the clock passes the horizon.
        let u: f64 = plan.rng.gen_range(1e-12..1.0);
        self.t += -u.ln() / plan.arrival_rate;
        let arrival = self.t as u64;
        if arrival >= self.header.duration {
            self.done = true;
            return Ok(None);
        }
        let lifetime = TraceGenerator::sample_lifetime(&mut plan.rng);
        let id = self.next_id;
        self.next_id += 1;
        Ok(Some(TraceGenerator::sample_request(
            &mut plan.rng,
            &plan.customers,
            plan.memory_factor,
            plan.shift_secs,
            id,
            arrival,
            lifetime,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_traces_are_valid_and_deterministic() {
        let generator = TraceGenerator::new(ClusterConfig::small(), 2);
        let a = generator.generate(0);
        let b = generator.generate(0);
        assert_eq!(a, b, "generation must be deterministic");
        assert_eq!(a.validate(), Ok(()));
        assert!(a.len() > 50, "a 3-day trace should have a meaningful number of VMs: {}", a.len());
        let other = generator.generate(1);
        assert_ne!(a.requests.len(), 0);
        assert_ne!(a, other, "clusters must differ");
    }

    #[test]
    fn utilization_is_near_the_target_for_a_single_cluster() {
        let config = ClusterConfig { duration_days: 10, ..ClusterConfig::small() };
        let trace = TraceGenerator::new(config, 1).generate(0);
        let util = trace.mean_core_utilization();
        assert!(
            (0.6..=1.0).contains(&util),
            "utilization should be near the 0.8 target, got {util}"
        );
    }

    #[test]
    fn untouched_memory_has_a_production_like_distribution() {
        // §3.2: the median untouched fraction is about 50%, and most VMs have
        // at least some untouched memory.
        let generator = TraceGenerator::new(ClusterConfig::small(), 4);
        let mut untouched: Vec<f64> = generator
            .generate_all()
            .iter()
            .flat_map(|t| t.requests.iter().map(|r| r.untouched_fraction))
            .collect();
        untouched.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = untouched[untouched.len() / 2];
        assert!((0.35..=0.65).contains(&median), "median untouched {median}");
        let over20 = untouched.iter().filter(|&&u| u > 0.2).count() as f64 / untouched.len() as f64;
        assert!(over20 > 0.5, "most VMs should have >20% untouched, got {over20}");
    }

    #[test]
    fn vm_shapes_are_reasonable() {
        let trace = TraceGenerator::new(ClusterConfig::small(), 1).generate(0);
        for r in &trace.requests {
            assert!(r.cores >= 1 && r.cores <= 32);
            assert!(r.memory >= Bytes::from_gib(1));
            assert!(r.memory <= Bytes::from_gib(32 * 8 * 3), "{}", r.memory);
            assert!(r.workload_index < 158);
        }
        // Most VMs fit on a single NUMA node (§3.1: almost all VMs fit).
        let node_cores = trace.cores_per_server / 2;
        let fit = trace.requests.iter().filter(|r| r.cores <= node_cores).count() as f64
            / trace.len() as f64;
        assert!(fit > 0.95, "VMs fitting one NUMA node: {fit}");
    }

    #[test]
    fn customers_have_correlated_untouched_memory() {
        // The variance of per-customer means should be much larger than
        // expected if VMs were independent draws from the global pool —
        // that correlation is what the untouched-memory model learns.
        let trace = TraceGenerator::new(ClusterConfig::small(), 1).generate(0);
        use std::collections::BTreeMap;
        let mut per_customer: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for r in &trace.requests {
            per_customer.entry(r.customer.0).or_default().push(r.untouched_fraction);
        }
        let customer_means: Vec<f64> = per_customer
            .values()
            .filter(|v| v.len() >= 5)
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
            .collect();
        assert!(customer_means.len() >= 3);
        let spread = customer_means.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - customer_means.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.2, "customer means should differ substantially: spread {spread}");
    }

    #[test]
    fn workload_shift_changes_the_mix() {
        let config = ClusterConfig {
            duration_days: 10,
            workload_shift_day: Some(5),
            ..ClusterConfig::small()
        };
        let trace = TraceGenerator::new(config, 1).generate(0);
        let shift = 5 * 86_400;
        let compute_fraction = |requests: &[&VmRequest]| {
            requests.iter().filter(|r| r.vm_type == VmType::ComputeOptimized).count() as f64
                / requests.len().max(1) as f64
        };
        let before: Vec<&VmRequest> =
            trace.requests.iter().filter(|r| r.arrival < shift && r.arrival > 0).collect();
        let after: Vec<&VmRequest> = trace.requests.iter().filter(|r| r.arrival >= shift).collect();
        assert!(
            compute_fraction(&after) > compute_fraction(&before) + 0.2,
            "the shift should skew the mix towards compute-optimized VMs"
        );
    }

    #[test]
    #[should_panic(expected = "cluster index out of range")]
    fn out_of_range_cluster_rejected() {
        let _ = TraceGenerator::new(ClusterConfig::small(), 1).generate(5);
    }

    #[test]
    fn the_generator_source_streams_the_exact_materialized_trace() {
        // Two clusters so the multi-cluster utilization draw runs too.
        let generator = TraceGenerator::new(ClusterConfig::small(), 2).with_seed(9);
        for cluster in 0..2 {
            let trace = generator.generate(cluster);
            let mut source = generator.stream(cluster);
            assert_eq!(source.header(), &TraceHeader::of_trace(&trace));
            assert_eq!(source.len_hint(), None, "the Poisson tail length is unknown");
            let mut streamed = Vec::new();
            while let Some(request) = source.next_request().unwrap() {
                streamed.push(request);
            }
            assert_eq!(streamed, trace.requests, "cluster {cluster}");
            // Exhausted streams stay exhausted.
            assert_eq!(source.next_request().unwrap(), None);
        }
    }
}
