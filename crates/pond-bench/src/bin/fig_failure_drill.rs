//! Failure drill: EMC failures injected into the multi-pool fleet timeline,
//! answered by cross-group VM migration (§4.1 / §7 of the paper — "a pool
//! bounds the blast radius of a memory-device failure" — made measurable).
//!
//! Every cell replays the same trace with the *same* deterministic failure
//! schedule (one drill seed shared across cells at equal rates), so the
//! survival comparison isolates the pod topology: symmetric pods can only
//! re-home a stricken VM onto their own hosts' local DRAM, while an
//! Octopus-overlap pod can also borrow its ring neighbour's pool. Per-host
//! local DRAM is tightened to half the trace sizing so evacuations compete
//! for real headroom — on a half-empty fleet every topology survives
//! trivially and the drill shows nothing.
//!
//! Deterministic for a fixed `(trace, seed)` — including between
//! `POND_SWEEP_THREADS=1` and the default thread count, which CI checks by
//! diffing the two outputs. Set `POND_SMOKE=1` to shrink the grid to a
//! CI-sized smoke check.

use cluster_sim::source::TraceCursor;
use cluster_sim::ClusterTrace;
use cxl_hw::topology::PodStyle;
use cxl_hw::units::Bytes;
use pond_bench::{bench_trace, pct, print_header};
use pond_core::multipool::{
    multipool_sweep, DrillKind, FailureDrillSpec, GroupSchedulerKind, MultiPoolConfig,
};

const SEED: u64 = 7;
const DRILL_SEED: u64 = 99;

fn smoke() -> bool {
    std::env::var("POND_SMOKE").is_ok_and(|v| v == "1")
}

/// The grid's cells, each with its drill rate: the same fleet at every
/// cell, per-host local DRAM halved so evacuations must fight for headroom.
fn grid(trace: &ClusterTrace) -> Vec<(f64, MultiPoolConfig)> {
    let rates: &[f64] = if smoke() { &[0.0, 4.0] } else { &[0.0, 1.0, 2.0, 4.0, 8.0] };
    let mut cells = Vec::new();
    for &rate_per_day in rates {
        for &pod in &[PodStyle::Symmetric, PodStyle::Octopus] {
            let mut config = MultiPoolConfig::for_trace(
                trace,
                pod,
                4,
                0.30,
                GroupSchedulerKind::RoundRobin,
                SEED,
            )
            .with_drill(FailureDrillSpec {
                rate_per_day,
                kind: DrillKind::Emc,
                seed: DRILL_SEED,
            });
            config.control.local_dram_per_host =
                Bytes::from_gib(config.control.local_dram_per_host.as_gib() / 2);
            cells.push((rate_per_day, config));
        }
    }
    cells
}

fn main() {
    print_header(
        "Failure drill",
        "EMC failures vs. pod overlap: survival by cross-group migration",
    );
    let trace = bench_trace();
    let (rates, configs): (Vec<f64>, Vec<MultiPoolConfig>) = grid(&trace).into_iter().unzip();
    let outcomes = multipool_sweep(|| TraceCursor::new(&trace), &configs)
        .expect("failure drill replay must not fail");

    println!(
        "{:>10} {:>10} {:>9} {:>9} {:>7} {:>9} {:>13} {:>13}",
        "pods",
        "rate/day",
        "failures",
        "migrated",
        "killed",
        "survival",
        "availability",
        "copy time"
    );
    for ((rate_per_day, config), outcome) in rates.iter().zip(&configs).zip(&outcomes) {
        let fleet = &outcome.fleet;
        println!(
            "{:>10} {:>10} {:>9} {:>9} {:>7} {:>9} {:>13} {:>12.1}s",
            config.pod.name(),
            rate_per_day,
            fleet.emc_failures,
            fleet.vms_migrated,
            fleet.vms_killed,
            pct(fleet.survival_rate()),
            pct(fleet.availability()),
            fleet.evacuation_copy_time.as_secs_f64(),
        );
    }

    // The headline contrast: at the highest drilled rate, overlap must pay.
    let at_max = |pod: PodStyle| {
        rates
            .iter()
            .zip(&configs)
            .zip(&outcomes)
            .filter(|((rate, config), _)| config.pod == pod && **rate > 0.0)
            .max_by(|((a, _), _), ((b, _), _)| a.total_cmp(b))
            .map(|((rate, _), outcome)| (rate, &outcome.fleet))
            .expect("grid has drilled cells")
    };
    let (rate, sym) = at_max(PodStyle::Symmetric);
    let (oct_rate, oct) = at_max(PodStyle::Octopus);
    println!(
        "\nat {}/day: symmetric kills {} ({} availability), octopus kills {} ({} availability)",
        rate,
        sym.vms_killed,
        pct(sym.availability()),
        oct.vms_killed,
        pct(oct.availability()),
    );
    println!("\noctopus at {oct_rate}/day:\n{oct}");
    println!("paper: pooling bounds the blast radius; pod overlap turns kills into migrations");
}
