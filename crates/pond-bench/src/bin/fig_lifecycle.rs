//! Pool lifecycle: pools die, heal, drain, and join inside one replay
//! (§4.2 of the paper — the operational reality behind the steady-state
//! figures — made measurable).
//!
//! Each phase replays the same trace on the same Octopus fleet as the
//! failure drill (4 groups, 30% pool, halved per-host local DRAM) and adds
//! one lifecycle ingredient at a time:
//!
//! * `drill`     — the PR-5 baseline: EMC failures, no healing.
//! * `repair`    — the same failure schedule, every device replaced 6 h
//!   later ([`DrillKind::EmcWithRepair`]); isolates the value of healing.
//! * `decommission` — one pod drains gracefully mid-trace: every VM
//!   migrates out, none die.
//! * `expansion` — a fresh EMC attaches to a pool live.
//! * `full`      — failures + repairs + decommission + expansion +
//!   proactive QoS-cadence rebalancing, all at once.
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
    multipool_sweep, DrillKind, FailureDrillSpec, GroupSchedulerKind, LifecycleEvent, LifecycleOp,
    LifecyclePlan, MultiPoolConfig, RebalanceSpec,
};

const SEED: u64 = 7;
const DRILL_SEED: u64 = 99;
const MTTR_SECS: u64 = 6 * 3_600;

fn smoke() -> bool {
    std::env::var("POND_SMOKE").is_ok_and(|v| v == "1")
}

/// The fleet every phase replays, before its lifecycle ingredients.
fn cell(trace: &ClusterTrace) -> MultiPoolConfig {
    let mut config = MultiPoolConfig::for_trace(
        trace,
        PodStyle::Octopus,
        4,
        0.30,
        GroupSchedulerKind::RoundRobin,
        SEED,
    );
    // Three-quarter trace sizing: enough pressure that drains and
    // rebalances move real load, enough headroom that healing pays.
    // The CI smoke run keeps full sizing — its shrunken trace leaves
    // too little slack for a graceful drain to stay kill-free.
    if !smoke() {
        config.control.local_dram_per_host =
            Bytes::from_gib(config.control.local_dram_per_host.as_gib() * 3 / 4);
    }
    config
}

fn drill(kind: DrillKind) -> FailureDrillSpec {
    FailureDrillSpec { rate_per_day: 4.0, kind, seed: DRILL_SEED }
}

/// The lifecycle schedule: pod 3 drains out at mid-trace and a fresh 32 GiB
/// device joins pod 0 a third of the way in.
fn plan(duration: u64) -> LifecyclePlan {
    LifecyclePlan {
        events: vec![
            LifecycleEvent {
                time: duration / 3,
                op: LifecycleOp::ExpandGroup { group: 0, capacity: Bytes::from_gib(32) },
            },
            LifecycleEvent { time: duration / 2, op: LifecycleOp::DecommissionGroup { group: 3 } },
        ],
    }
}

fn phases(trace: &ClusterTrace) -> Vec<(&'static str, MultiPoolConfig)> {
    let duration = trace.duration;
    let none = cell(trace);
    let mut phases = vec![
        ("baseline", none.clone()),
        ("drill", none.clone().with_drill(drill(DrillKind::Emc))),
        (
            "repair",
            none.clone().with_drill(drill(DrillKind::EmcWithRepair { mttr_secs: MTTR_SECS })),
        ),
        (
            "decommission",
            none.clone().with_lifecycle(LifecyclePlan {
                events: vec![LifecycleEvent {
                    time: duration / 2,
                    op: LifecycleOp::DecommissionGroup { group: 3 },
                }],
            }),
        ),
        (
            "expansion",
            none.clone().with_lifecycle(LifecyclePlan {
                events: vec![LifecycleEvent {
                    time: duration / 3,
                    op: LifecycleOp::ExpandGroup { group: 0, capacity: Bytes::from_gib(32) },
                }],
            }),
        ),
        (
            "full",
            none.with_drill(drill(DrillKind::EmcWithRepair { mttr_secs: MTTR_SECS }))
                .with_lifecycle(plan(duration))
                .with_rebalance(RebalanceSpec { starved_fraction: 0.10, max_moves_per_pass: 2 }),
        ),
    ];
    if smoke() {
        phases.retain(|(name, _)| matches!(*name, "baseline" | "decommission" | "full"));
    }
    phases
}

fn main() {
    print_header(
        "Pool lifecycle",
        "pools die, heal, drain, and join: repair, decommission, expansion, rebalance",
    );
    let trace = bench_trace();
    let (names, configs): (Vec<&str>, Vec<MultiPoolConfig>) = phases(&trace).into_iter().unzip();
    let outcomes = multipool_sweep(|| TraceCursor::new(&trace), &configs)
        .expect("lifecycle replay must not fail");

    println!(
        "{:>13} {:>9} {:>9} {:>9} {:>9} {:>8} {:>11} {:>7} {:>8} {:>7} {:>13}",
        "phase",
        "scheduled",
        "failures",
        "repaired",
        "migrated",
        "drained",
        "rebalanced",
        "killed",
        "decomms",
        "joined",
        "availability"
    );
    for (name, outcome) in names.iter().zip(&outcomes) {
        let fleet = &outcome.fleet;
        println!(
            "{:>13} {:>9} {:>9} {:>9} {:>9} {:>8} {:>11} {:>7} {:>8} {:>7} {:>13}",
            name,
            fleet.scheduled_vms,
            fleet.emc_failures,
            fleet.emcs_repaired,
            fleet.vms_migrated,
            fleet.vms_drained,
            fleet.vms_rebalanced,
            fleet.vms_killed,
            fleet.groups_decommissioned,
            fleet.groups_expanded,
            pct(fleet.availability()),
        );
    }

    let by_name = |wanted: &str| {
        names.iter().zip(&outcomes).find(|(name, _)| **name == wanted).map(|(_, o)| &o.fleet)
    };
    if let Some(decommission) = by_name("decommission") {
        println!(
            "\ndecommission drains {} VMs with {} killed: a graceful drain is not a failure",
            decommission.vms_drained, decommission.vms_killed,
        );
    }
    if let (Some(drilled), Some(repaired)) = (by_name("drill"), by_name("repair")) {
        println!(
            "repair at the same failure schedule: schedules {} VMs vs {}, survival {} vs {}",
            repaired.scheduled_vms,
            drilled.scheduled_vms,
            pct(repaired.survival_rate()),
            pct(drilled.survival_rate()),
        );
    }
    if let Some(full) = by_name("full") {
        println!("\nfull phase:\n{full}");
    }
    println!("paper: pooling only pays if pools can be serviced without downtime (section 4.2)");
}
