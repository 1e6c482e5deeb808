//! The fleet timeline: the `fig_lifecycle` "full" drill — failures,
//! repairs, a mid-trace decommission, an expansion, and proactive
//! rebalancing — rendered as per-snapshot availability / DRAM-savings /
//! pool-occupancy series instead of a single end-of-trace number.
//!
//! This is the paper's trajectory view (§6, Figs. 19–20 track savings and
//! availability over 75+ days of fleet time) and the dashboard the
//! experiment harness consumes: a [`TimeSeriesRecorder`] rides the observed
//! multipool replay, one sample per group per QoS tick, and the drill's
//! story — pod 3 draining out at mid-trace, pod 0 growing a device, every
//! failure healing 6 h later — becomes visible as series instead of being
//! inferred from totals.
//!
//! Set `POND_EVENT_LOG=<path>` to also stream the JSONL structured event
//! log (every placement decision, QoS pass, and lifecycle operation) for
//! post-hoc forensics. Observers are read-only, so the `outcome` line is
//! bit-identical with the log on or off — which CI asserts by diffing the
//! two runs. `POND_SMOKE=1` shrinks the trace to a CI-sized check.

use cluster_sim::source::TraceCursor;
use cluster_sim::ClusterTrace;
use cxl_hw::topology::PodStyle;
use cxl_hw::units::Bytes;
use pond_bench::{bench_trace, pct, print_header};
use pond_core::multipool::{
    run_multipool_source_observed, DrillKind, FailureDrillSpec, GroupSchedulerKind, LifecycleEvent,
    LifecycleOp, LifecyclePlan, MultiPoolConfig, RebalanceSpec,
};
use pond_core::policy::PondPolicy;
use pond_metrics::{TimeSeriesRecorder, EVENT_LOG_ENV};

const SEED: u64 = 7;
const DRILL_SEED: u64 = 99;
const MTTR_SECS: u64 = 6 * 3_600;

/// Timeline rows printed: the recorded points are downsampled to at most
/// this many evenly strided rows (the final tick is always shown).
const MAX_ROWS: usize = 30;

fn smoke() -> bool {
    std::env::var("POND_SMOKE").is_ok_and(|v| v == "1")
}

/// The `fig_lifecycle` "full" phase, spelled out: same cell, same drill,
/// same plan, same rebalance spec, same sizing — so the timeline is the
/// trajectory view of a scenario whose totals are already pinned there.
fn config(trace: &ClusterTrace) -> MultiPoolConfig {
    let mut config = MultiPoolConfig::for_trace(
        trace,
        PodStyle::Octopus,
        4,
        0.30,
        GroupSchedulerKind::RoundRobin,
        SEED,
    )
    .with_drill(FailureDrillSpec {
        rate_per_day: 4.0,
        kind: DrillKind::EmcWithRepair { mttr_secs: MTTR_SECS },
        seed: DRILL_SEED,
    })
    .with_lifecycle(LifecyclePlan {
        events: vec![
            LifecycleEvent {
                time: trace.duration / 3,
                op: LifecycleOp::ExpandGroup { group: 0, capacity: Bytes::from_gib(32) },
            },
            LifecycleEvent {
                time: trace.duration / 2,
                op: LifecycleOp::DecommissionGroup { group: 3 },
            },
        ],
    })
    .with_rebalance(RebalanceSpec { starved_fraction: 0.10, max_moves_per_pass: 2 });
    // Same three-quarter sizing as fig_lifecycle's non-smoke run.
    if !smoke() {
        config.control.local_dram_per_host =
            Bytes::from_gib(config.control.local_dram_per_host.as_gib() * 3 / 4);
    }
    config
}

fn main() {
    print_header(
        "Fleet timeline",
        "availability / savings / occupancy series through the full lifecycle drill",
    );
    let trace = bench_trace();
    let config = config(&trace);
    let groups = usize::from(config.groups);

    let policy = PondPolicy::train(&trace, &config.control.policy, config.seed);
    let mut recorder = TimeSeriesRecorder::from_env().expect("event-log path must be creatable");
    let outcome =
        run_multipool_source_observed(TraceCursor::new(&trace), &config, policy, &mut recorder)
            .expect("lifecycle replay must not fail");
    let points = recorder.points();

    println!(
        "fleet: {} servers, {} requests, {} days, {} groups ({:?} pods), {} snapshot ticks",
        trace.servers,
        trace.requests.len(),
        trace.duration / 86_400,
        groups,
        config.pod,
        points.len(),
    );

    let mut header = format!("{:>7} {:>9} {:>9} {:>9}", "day", "avail", "savings", "live VMs");
    for g in 0..groups {
        header.push_str(&format!(" {:>8}", format!("pool{g}")));
    }
    println!("{header}");
    let stride = points.len().div_ceil(MAX_ROWS).max(1);
    for (i, point) in points.iter().enumerate() {
        if i % stride != 0 && i != points.len() - 1 {
            continue;
        }
        let mut row = format!(
            "{:>7.2} {:>9} {:>9} {:>9}",
            point.time as f64 / 86_400.0,
            pct(point.fleet_availability),
            pct(point.fleet_savings),
            point.live_vms,
        );
        for series in &point.groups {
            // A drained pod's occupancy is meaningless; mark it offline.
            if series.online {
                row.push_str(&format!(" {:>8}", pct(series.occupancy)));
            } else {
                row.push_str(&format!(" {:>8}", "--"));
            }
        }
        println!("{row}");
    }

    println!("\nfleet outcome:\n{}", outcome.fleet);
    // The log status is deliberately NOT part of the `outcome` line: CI
    // diffs that line between a logged and an unlogged run to assert the
    // observer is read-only.
    match std::env::var(EVENT_LOG_ENV) {
        Ok(path) if !path.is_empty() => println!("\nevent log: {path}"),
        _ => println!("\nevent log: off (set {EVENT_LOG_ENV}=<path> for the JSONL stream)"),
    }
    println!(
        "outcome scheduled={} killed={} availability={} savings={} points={} groups={}",
        outcome.fleet.scheduled_vms,
        outcome.fleet.vms_killed,
        pct(outcome.fleet.availability()),
        pct(outcome.fleet.dram_savings_fraction()),
        points.len(),
        groups,
    );
    println!("paper: the headline claims are trajectories, not endpoints (section 6, figs 19-20)");
}
