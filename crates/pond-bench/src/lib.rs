//! # pond-bench
//!
//! Shared helpers for the figure-regeneration binaries (`src/bin/fig*.rs`)
//! and the Criterion micro-benchmarks (`benches/`).
//!
//! Every binary prints the rows/series of one table or figure from the Pond
//! paper's evaluation and ends with the paper-reported values; the figure
//! table in `README.md` at the repository root indexes them. The binaries are
//! sized to finish in seconds to a couple of minutes on a laptop; the
//! `POND_CLUSTERS` and `POND_DAYS` environment variables scale the
//! simulation-based experiments up towards the paper's 100-cluster / 75-day
//! setting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
use cluster_sim::ClusterTrace;

/// Number of clusters to simulate (default 12, override with `POND_CLUSTERS`).
pub fn cluster_count() -> u32 {
    std::env::var("POND_CLUSTERS").ok().and_then(|v| v.parse().ok()).unwrap_or(12)
}

/// Trace length in days (default 15, override with `POND_DAYS`).
pub fn trace_days() -> u32 {
    std::env::var("POND_DAYS").ok().and_then(|v| v.parse().ok()).unwrap_or(15)
}

/// The cluster configuration used by the simulation-backed figures.
pub fn bench_cluster_config() -> ClusterConfig {
    ClusterConfig { servers: 24, duration_days: trace_days(), ..ClusterConfig::azure_like() }
}

/// Generates the fleet of traces used by the simulation-backed figures.
pub fn bench_traces() -> Vec<ClusterTrace> {
    TraceGenerator::new(bench_cluster_config(), cluster_count()).generate_all()
}

/// A single trace for experiments that only need one cluster.
pub fn bench_trace() -> ClusterTrace {
    bench_generator().generate(0)
}

/// The generator behind [`bench_trace`], for binaries that replay the
/// lazily generated stream through an [`cluster_sim::ArrivalSource`]
/// instead of materializing the request vector. `bench_generator().stream(0)`
/// yields exactly the requests of `bench_trace()`, in order.
pub fn bench_generator() -> TraceGenerator {
    TraceGenerator::new(bench_cluster_config(), 1)
}

/// Prints a figure/table header in a consistent format.
pub fn print_header(figure: &str, description: &str) {
    println!("================================================================");
    println!("{figure}: {description}");
    println!("================================================================");
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        assert!(cluster_count() >= 1);
        assert!(trace_days() >= 1);
        let config = bench_cluster_config();
        assert_eq!(config.servers, 24);
        assert_eq!(pct(0.1234), "12.3%");
    }

    #[test]
    fn single_trace_generation_works() {
        let trace = bench_trace();
        assert!(trace.len() > 100);
        assert_eq!(trace.validate(), Ok(()));
    }
}
