//! Pods sweep: the full (pod style × group count × pool fraction ×
//! scheduler) grid over one trace, replayed through the sharded multi-pool
//! fleet on the parallel sweep runner. The trace is never materialized —
//! every cell replays the lazily generated arrival stream. Every cell is
//! deterministic for a fixed `(stream, seed)` — including between
//! `POND_SWEEP_THREADS=1` and the default thread count, which CI checks by
//! diffing the two outputs.
//!
//! Set `POND_SMOKE=1` to shrink the grid to a CI-sized smoke check.

use cluster_sim::source::{ArrivalSource, TraceHeader};
use cxl_hw::topology::PodStyle;
use pond_bench::{bench_generator, pct, print_header};
use pond_core::multipool::{multipool_sweep, GroupSchedulerKind, MultiPoolConfig};

fn smoke() -> bool {
    std::env::var("POND_SMOKE").is_ok_and(|v| v == "1")
}

/// The grid's cells, each with the pool fraction it was sized at (the
/// configuration keeps only the resulting capacity).
fn grid(header: &TraceHeader) -> Vec<(f64, MultiPoolConfig)> {
    let (group_counts, fractions): (&[u16], &[f64]) =
        if smoke() { (&[2], &[0.15]) } else { (&[2, 4], &[0.10, 0.20, 0.30]) };
    let mut cells = Vec::new();
    for &pod in &[PodStyle::Symmetric, PodStyle::Octopus] {
        for &groups in group_counts {
            for &fraction in fractions {
                for scheduler in GroupSchedulerKind::ALL {
                    let config =
                        MultiPoolConfig::for_header(header, pod, groups, fraction, scheduler, 11);
                    cells.push((fraction, config));
                }
            }
        }
    }
    cells
}

fn main() {
    print_header(
        "Pods sweep",
        "DRAM savings and mitigation rate over (pods x groups x pool % x scheduler)",
    );
    let generator = bench_generator();
    let (fractions, configs): (Vec<f64>, Vec<MultiPoolConfig>) =
        grid(generator.stream(0).header()).into_iter().unzip();
    let outcomes =
        multipool_sweep(|| generator.stream(0), &configs).expect("multipool replay must not fail");

    println!(
        "{:>10} {:>7} {:>7} {:>15} {:>12} {:>10} {:>12} {:>10}",
        "pods",
        "groups",
        "pool %",
        "scheduler",
        "DRAM saved",
        "mit rate",
        "cross-group",
        "rejected"
    );
    for ((fraction, config), outcome) in fractions.iter().zip(&configs).zip(&outcomes) {
        let fleet = &outcome.fleet;
        println!(
            "{:>10} {:>7} {:>7} {:>15} {:>12} {:>10} {:>12} {:>10}",
            config.pod.name(),
            config.groups,
            pct(*fraction),
            config.scheduler.name(),
            pct(fleet.dram_savings_fraction()),
            pct(fleet.mitigation_rate()),
            outcome.cross_group_placements,
            fleet.rejected_vms,
        );
    }
    let ((fraction, config), best) = fractions
        .iter()
        .zip(&configs)
        .zip(&outcomes)
        .max_by(|(_, a), (_, b)| {
            a.fleet.dram_savings_fraction().total_cmp(&b.fleet.dram_savings_fraction())
        })
        .expect("non-empty sweep");
    println!(
        "\nbest cell: {} pods x {} groups x {} pool x {} -> {} DRAM saved",
        config.pod.name(),
        config.groups,
        pct(*fraction),
        config.scheduler.name(),
        pct(best.fleet.dram_savings_fraction()),
    );
    println!("paper: grouping, not just pool size, decides how much stranding pooling recovers");
}
