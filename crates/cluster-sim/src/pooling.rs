//! DRAM-requirement analysis across pool sizes (Figures 3 and 21).
//!
//! Pooling saves DRAM through statistical multiplexing: a server's local DRAM
//! only needs to cover its *local* peak, and the shared pool only needs to
//! cover the *group's* combined pool peak, which is smaller than the sum of
//! the individual peaks. This module sweeps pool sizes and policies and
//! reports the relative DRAM requirement the paper plots.

use crate::scheduler::MemoryPolicy;
use crate::simulation::{Simulation, SimulationConfig, SimulationOutcome};
use crate::sweep;
use crate::trace::ClusterTrace;
use cxl_hw::units::Bytes;

/// DRAM required with pooling, the one formula every replay and simulator
/// reports. Pooling saves the *sharing gain* of the pool-eligible memory:
/// what it would need as dedicated per-host DRAM (`host_pool_peaks`, the
/// sum of per-host pool peaks) less what the shared pools must actually
/// provision (`pool_peak`, their summed peaks). Host DIMM provisioning
/// stays SKU-uniform, so the pool-less baseline `total_peaks` (the sum of
/// per-host combined peaks) shrinks by exactly that gain. The gain is
/// clamped at zero: a pool peak above its hosts' pool-peak sum (slices
/// still offlining count toward it) never requires more than the baseline.
pub fn required_dram(total_peaks: Bytes, host_pool_peaks: Bytes, pool_peak: Bytes) -> Bytes {
    let sharing_gain = host_pool_peaks.saturating_sub(pool_peak);
    total_peaks.saturating_sub(sharing_gain)
}

/// [`required_dram`] relative to the pool-less baseline `total_peaks`: the
/// headline fraction (1.0 = no savings, lower is better; 1.0 for an empty
/// baseline). One minus it is the DRAM savings every outcome reports.
pub fn required_dram_fraction(total_peaks: Bytes, host_pool_peaks: Bytes, pool_peak: Bytes) -> f64 {
    if total_peaks.is_zero() {
        1.0
    } else {
        let required = required_dram(total_peaks, host_pool_peaks, pool_peak);
        required.as_u64() as f64 / total_peaks.as_u64() as f64
    }
}

/// The result of one (pool size, policy) evaluation point.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSizePoint {
    /// Pool size in CPU sockets.
    pub pool_sockets: u16,
    /// Required DRAM relative to the pool-less baseline (1.0 = 100%).
    pub required_dram_fraction: f64,
    /// Fraction of VM memory GiB-hours served from the pool.
    pub pool_dram_fraction: f64,
    /// Fraction of VMs whose slowdown exceeded the PDM.
    pub violation_fraction: f64,
    /// Fraction of violating VMs the QoS monitor reconfigured to all-local
    /// memory (0 when mitigation is disabled or nothing violated).
    pub mitigation_fraction: f64,
}

/// The per-run metrics a sweep reduces over (one simulation's contribution).
#[derive(Debug, Clone, Copy)]
struct RunMetrics {
    required: f64,
    pool_fraction: f64,
    violations: f64,
    mitigations: f64,
}

impl RunMetrics {
    fn of(outcome: &SimulationOutcome) -> Self {
        RunMetrics {
            required: outcome.required_dram_fraction(),
            pool_fraction: outcome.pool_dram_fraction(),
            violations: outcome.violation_fraction(),
            mitigations: if outcome.violations == 0 {
                0.0
            } else {
                outcome.mitigations as f64 / outcome.violations as f64
            },
        }
    }
}

/// Runs one simulation point of a sweep grid.
fn run_point<P: MemoryPolicy>(
    trace: &ClusterTrace,
    pool_sockets: u16,
    base_config: &SimulationConfig,
    policy: P,
) -> RunMetrics {
    let config = SimulationConfig { pool_size_sockets: pool_sockets, ..base_config.clone() };
    RunMetrics::of(&Simulation::new(config, policy).run(trace))
}

/// Sweeps pool sizes for a fixed policy factory, averaging the relative DRAM
/// requirement across the provided traces.
///
/// The (pool size × trace) grid runs in parallel on the [`sweep`] runner;
/// results are reduced in (pool size, trace) order, so every `PoolSizePoint`
/// is bit-identical to what [`pool_size_sweep_serial`] produces.
///
/// `make_policy` is called once per (trace, pool size) pair — possibly from
/// several threads at once — so stateful policies start fresh for every
/// simulation.
pub fn pool_size_sweep<P, F>(
    traces: &[ClusterTrace],
    pool_sizes: &[u16],
    base_config: &SimulationConfig,
    make_policy: F,
) -> Vec<PoolSizePoint>
where
    P: MemoryPolicy,
    F: Fn() -> P + Sync,
{
    let grid: Vec<(u16, &ClusterTrace)> = pool_sizes
        .iter()
        .flat_map(|&sockets| traces.iter().map(move |trace| (sockets, trace)))
        .collect();
    let metrics = sweep::parallel_map(&grid, |_, &(sockets, trace)| {
        run_point(trace, sockets, base_config, make_policy())
    });
    reduce_points(pool_sizes, traces.len(), &metrics)
}

/// The serial reference implementation of [`pool_size_sweep`]: one thread,
/// simulations in (pool size, trace) order. Kept as the ground truth the
/// parallel runner is tested bit-identical against.
pub fn pool_size_sweep_serial<P, F>(
    traces: &[ClusterTrace],
    pool_sizes: &[u16],
    base_config: &SimulationConfig,
    mut make_policy: F,
) -> Vec<PoolSizePoint>
where
    P: MemoryPolicy,
    F: FnMut() -> P,
{
    let metrics: Vec<RunMetrics> = pool_sizes
        .iter()
        .flat_map(|&sockets| {
            traces
                .iter()
                .map(|trace| run_point(trace, sockets, base_config, make_policy()))
                .collect::<Vec<_>>()
        })
        .collect();
    reduce_points(pool_sizes, traces.len(), &metrics)
}

/// Folds a row-major (pool size × trace) metrics grid into per-pool-size
/// points, accumulating in trace order within each pool size.
fn reduce_points(pool_sizes: &[u16], traces: usize, metrics: &[RunMetrics]) -> Vec<PoolSizePoint> {
    pool_sizes
        .iter()
        .enumerate()
        .map(|(row, &pool_sockets)| {
            let mut required = 0.0;
            let mut pool_fraction = 0.0;
            let mut violations = 0.0;
            let mut mitigations = 0.0;
            for point in &metrics[row * traces..(row + 1) * traces] {
                required += point.required;
                pool_fraction += point.pool_fraction;
                violations += point.violations;
                mitigations += point.mitigations;
            }
            let n = traces.max(1) as f64;
            PoolSizePoint {
                pool_sockets,
                required_dram_fraction: required / n,
                pool_dram_fraction: pool_fraction / n,
                violation_fraction: violations / n,
                mitigation_fraction: mitigations / n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FixedPoolFraction;
    use crate::tracegen::{ClusterConfig, TraceGenerator};
    use cxl_hw::latency::LatencyScenario;

    fn traces(n: u32) -> Vec<ClusterTrace> {
        TraceGenerator::new(ClusterConfig::small(), n).generate_all()
    }

    fn config() -> SimulationConfig {
        SimulationConfig {
            scenario: LatencyScenario::Increase182,
            qos_mitigation: false,
            ..Default::default()
        }
    }

    #[test]
    fn savings_grow_with_pool_size_and_saturate() {
        // Figure 3's qualitative shape: bigger pools help, with diminishing
        // returns.
        let traces = traces(2);
        let points = pool_size_sweep(&traces, &[2, 8, 16, 32, 64], &config(), || {
            FixedPoolFraction::new(0.5)
        });
        assert_eq!(points.len(), 5);
        for pair in points.windows(2) {
            assert!(
                pair[1].required_dram_fraction <= pair[0].required_dram_fraction + 1e-9,
                "requirement must not grow with pool size: {points:?}"
            );
        }
        // Savings at 64 sockets should be visible but below the 50% pool share.
        let savings_64 = 1.0 - points.last().unwrap().required_dram_fraction;
        assert!(savings_64 > 0.02, "savings at 64 sockets: {savings_64}");
        assert!(savings_64 < 0.5);
        // Diminishing returns: the step from 32 to 64 is smaller than from 2 to 8.
        let step_small = points[0].required_dram_fraction - points[1].required_dram_fraction;
        let step_large = points[3].required_dram_fraction - points[4].required_dram_fraction;
        assert!(step_large <= step_small + 1e-9);
    }

    #[test]
    fn higher_pool_fractions_save_more_dram() {
        // Figure 3 compares 10%/30%/50% pool percentages.
        let traces = traces(1);
        let mut previous = 1.0;
        for fraction in [0.1, 0.3, 0.5] {
            let points =
                pool_size_sweep(&traces, &[16], &config(), || FixedPoolFraction::new(fraction));
            let required = points[0].required_dram_fraction;
            assert!(
                required <= previous + 1e-9,
                "{fraction} pool should need no more DRAM than smaller fractions"
            );
            previous = required;
        }
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_the_serial_path() {
        let traces = traces(3);
        let pool_sizes = [2u16, 16, 64];
        let parallel =
            pool_size_sweep(&traces, &pool_sizes, &config(), || FixedPoolFraction::new(0.3));
        let serial =
            pool_size_sweep_serial(&traces, &pool_sizes, &config(), || FixedPoolFraction::new(0.3));
        // PartialEq on PoolSizePoint compares the f64 fields exactly: the
        // parallel runner must reproduce the serial accumulation bit for bit.
        assert_eq!(parallel, serial);
    }
}
