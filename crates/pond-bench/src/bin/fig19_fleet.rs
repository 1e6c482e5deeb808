//! Figure 19 (fleet replay): DRAM savings vs. pool size with the *full* Pond
//! pipeline — live untouched-memory and sensitivity predictions per arrival,
//! asynchronous Pool Manager slice offlining as first-class events, and QoS
//! mitigation — replayed over a cloud VM trace on the time-ordered event
//! core. Contrast with `fig21_e2e_savings`, which drives the cluster
//! simulator's static placement hook instead of the control plane.
//!
//! The trace is never materialized: every sweep point (training prefix
//! included) replays the lazily generated arrival stream, and the summary
//! line comes from a streaming pass instead of the request vector.

use cluster_sim::source::{summarize, ArrivalSource};
use cxl_hw::topology::PodStyle;
use pond_bench::{bench_generator, pct, print_header};
use pond_core::multipool::{multipool_sweep, GroupSchedulerKind, MultiPoolConfig};

fn main() {
    print_header(
        "Figure 19 (fleet replay)",
        "DRAM savings vs. pool percentage, full Pond control plane",
    );
    let generator = bench_generator();
    let summary = summarize(generator.stream(0)).expect("generator streams are well-formed");
    println!(
        "trace: {} requests, {} mean core utilization (streamed)",
        summary.requests,
        pct(summary.mean_core_utilization()),
    );
    let header = generator.stream(0).header().clone();
    let fractions = [0.05, 0.10, 0.15, 0.20, 0.30, 0.50];
    let (pod, scheduler) = (PodStyle::Symmetric, GroupSchedulerKind::RoundRobin);
    let configs: Vec<MultiPoolConfig> = fractions
        .iter()
        .map(|&fraction| MultiPoolConfig::for_header(&header, pod, 1, fraction, scheduler, 19))
        .collect();
    let outcomes =
        multipool_sweep(|| generator.stream(0), &configs).expect("fleet replay must not fail");

    println!(
        "{:>7} {:>12} {:>11} {:>10} {:>11} {:>10} {:>9}",
        "pool %", "DRAM saved", "pool share", "fallbacks", "violations", "mitigated", "releases"
    );
    for (&fraction, outcome) in fractions.iter().zip(&outcomes) {
        let o = &outcome.fleet;
        println!(
            "{:>7} {:>12} {:>11} {:>10} {:>11} {:>10} {:>9}",
            pct(fraction),
            pct(o.dram_savings_fraction()),
            pct(o.pool_dram_fraction()),
            o.fallback_all_local,
            pct(o.violation_fraction()),
            o.mitigations,
            o.releases_completed,
        );
    }
    let (&fraction, best) = fractions.iter().zip(&outcomes).next_back().expect("non-empty sweep");
    println!("\nat {} pool:\n{}", pct(fraction), best.fleet);
    println!("paper: the full pipeline sustains ~7-9% DRAM savings at 16-socket pools");
}
