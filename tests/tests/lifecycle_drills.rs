//! Lifecycle drills pinned end to end: pools die, heal, drain, and join
//! mid-replay, and none of it may cost determinism or conservation. Four
//! pins:
//!
//! * a proptest drives random arrival schedules *and* random lifecycle
//!   plans through two different streaming adapters (the borrowing trace
//!   cursor and a draining, length-blind vector source), comparing the
//!   full [`MultiPoolOutcome`];
//! * a lifecycle [`multipool_sweep`] must match [`run_multipool_fleet`]
//!   cell by cell, run inline and on forced worker threads, bit for bit; a
//!   rerun must reproduce it, and an all-`None` cell must match the plain
//!   replay;
//! * composed drills (failures + repairs + decommission + expansion +
//!   rebalance at once) must replay deterministically with the
//!   conservation debug-asserts green — the double-free regression guard
//!   for decommissions racing pending async releases;
//! * a golden pins the `fig_lifecycle` full-phase outcome on the 15-day
//!   bench trace, down to the float GiB-hour sums in the `Debug` string.

use std::collections::VecDeque;

use cluster_sim::source::{ArrivalSource, SourceError, TraceCursor, TraceHeader};
use cluster_sim::sweep::parallel_map_with;
use cluster_sim::trace::{ClusterTrace, CustomerId, GuestOs, VmRequest, VmType};
use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
use cxl_hw::topology::PodStyle;
use cxl_hw::units::{Bytes, EmcId};
use pond_core::multipool::{
    multipool_sweep, run_multipool_fleet, run_multipool_source, DrillKind, FailureDrillSpec,
    GroupSchedulerKind, LifecycleEvent, LifecycleOp, LifecyclePlan, MultiPoolConfig, RebalanceSpec,
};
use pond_core::policy::PondPolicy;
use proptest::prelude::*;

/// A deliberately different streaming adapter from [`TraceCursor`]: owns
/// its requests, drains them one by one, and reports no length hint — any
/// replay bookkeeping that secretly leaned on the materialized trace or on
/// `len_hint` would diverge.
struct DrainingSource {
    header: TraceHeader,
    requests: VecDeque<VmRequest>,
}

impl DrainingSource {
    fn of(trace: &ClusterTrace) -> DrainingSource {
        DrainingSource {
            header: TraceHeader::of_trace(trace),
            requests: trace.requests.iter().cloned().collect(),
        }
    }
}

impl ArrivalSource for DrainingSource {
    fn header(&self) -> &TraceHeader {
        &self.header
    }

    fn next_request(&mut self) -> Result<Option<VmRequest>, SourceError> {
        Ok(self.requests.pop_front())
    }
}

/// The fixed cluster shape every random schedule replays on (the same
/// 4-server shape as `streaming_replay.rs`, sharded into 2 Octopus groups).
fn shaped(requests: Vec<VmRequest>) -> ClusterTrace {
    ClusterTrace {
        cluster_id: 0,
        servers: 4,
        cores_per_server: 16,
        dram_per_server: Bytes::from_gib(128),
        duration: 86_400,
        requests,
    }
}

fn shaped_config() -> MultiPoolConfig {
    MultiPoolConfig::for_trace(
        &shaped(Vec::new()),
        PodStyle::Octopus,
        2,
        0.20,
        GroupSchedulerKind::RoundRobin,
        7,
    )
}

/// One policy trained once on the small generated trace and cached for
/// every proptest case.
fn trained_policy() -> &'static PondPolicy {
    static TRAINED: std::sync::OnceLock<PondPolicy> = std::sync::OnceLock::new();
    TRAINED.get_or_init(|| {
        let trace = TraceGenerator::new(ClusterConfig::small(), 1).generate(0);
        let config = shaped_config();
        PondPolicy::train(&trace, &config.control.policy, config.seed)
    })
}

type Entry = ((u64, u64, u32, u64), (u32, usize, u8, u8, u8));

fn arb_entry() -> impl Strategy<Value = Entry> {
    (
        (
            0..=86_400u64, // arrival
            1..200_000u64, // lifetime (may outlive the trace)
            1..=16u32,     // cores
            1..=96u64,     // memory GiB
        ),
        (
            0..6u32,   // customer
            0..4usize, // vm type
            0..2u8,    // guest os
            0..3u8,    // region
            0..=100u8, // untouched fraction, percent
        ),
    )
}

fn build_trace(mut entries: Vec<Entry>) -> ClusterTrace {
    entries.sort_by_key(|&((arrival, ..), _)| arrival);
    let requests = entries
        .into_iter()
        .enumerate()
        .map(
            |(
                id,
                ((arrival, lifetime, cores, gib), (customer, vm_type, os, region, untouched)),
            )| {
                VmRequest {
                    id: id as u64,
                    arrival,
                    lifetime,
                    cores,
                    memory: Bytes::from_gib(gib),
                    customer: CustomerId(customer),
                    vm_type: VmType::ALL[vm_type],
                    guest_os: if os == 0 { GuestOs::Linux } else { GuestOs::Windows },
                    region,
                    workload_index: (id * 7) % 158,
                    untouched_fraction: untouched as f64 / 100.0,
                }
            },
        )
        .collect();
    shaped(requests)
}

/// One random lifecycle operation over the 2-group shaped fleet, as a raw
/// `(time, group, kind, gib)` tuple. Events may land past the trace horizon
/// (the queue drains them), decommissions may repeat (idempotent), and
/// repairs may target a healthy device (no-op).
type RawLifecycleEvent = (u64, usize, u8, u64);

fn arb_lifecycle_event() -> impl Strategy<Value = RawLifecycleEvent> {
    (0..=120_000u64, 0..2usize, 0..3u8, 1..=32u64)
}

fn build_plan(raw: Vec<RawLifecycleEvent>) -> LifecyclePlan {
    let events = raw
        .into_iter()
        .map(|(time, group, kind, gib)| {
            let op = match kind {
                0 => LifecycleOp::RepairEmc { group, emc: EmcId(0) },
                1 => LifecycleOp::DecommissionGroup { group },
                _ => LifecycleOp::ExpandGroup { group, capacity: Bytes::from_gib(gib) },
            };
            LifecycleEvent { time, op }
        })
        .collect();
    LifecyclePlan { events }
}

proptest! {
    /// Random schedules with random lifecycle plans (plus an optional
    /// repair drill and proactive rebalancing) replay bit-identically
    /// through two unrelated streaming adapters. Every lifecycle code path
    /// — draining, healing, expanding, rebalancing, rejecting with no
    /// online group — must be a pure function of the event stream.
    #[test]
    fn lifecycle_replays_are_stream_agnostic_on_random_schedules(
        entries in proptest::collection::vec(arb_entry(), 0..80),
        raw_events in proptest::collection::vec(arb_lifecycle_event(), 0..10),
        drilled in proptest::bool::ANY,
        rebalanced in proptest::bool::ANY,
        borrowing in proptest::bool::ANY,
    ) {
        let trace = build_trace(entries);
        prop_assert_eq!(trace.validate(), Ok(()));
        let mut config = shaped_config().with_lifecycle(build_plan(raw_events));
        if drilled {
            config = config.with_drill(FailureDrillSpec {
                rate_per_day: 8.0,
                kind: DrillKind::EmcWithRepair { mttr_secs: 7_200 },
                seed: 99,
            });
        }
        if rebalanced {
            config = config.with_rebalance(RebalanceSpec {
                starved_fraction: 0.5,
                max_moves_per_pass: 2,
            });
        }
        let config = config.with_borrowing(borrowing);
        let policy = trained_policy();
        let cursor =
            run_multipool_source(TraceCursor::new(&trace), &config, policy.clone()).unwrap();
        let drained =
            run_multipool_source(DrainingSource::of(&trace), &config, policy.clone()).unwrap();
        prop_assert_eq!(cursor, drained);
    }

    /// Switching the borrowing knob *off* must reproduce the untouched
    /// default configuration bit for bit on random schedules with random
    /// lifecycle plans — the cross-pod ownership refactor may not perturb a
    /// single event of the slices-follow-host replay (the pinned goldens
    /// below pin the absolute values; this pins the property across the
    /// whole schedule space).
    #[test]
    fn borrowing_disabled_is_bit_identical_to_the_default_on_random_schedules(
        entries in proptest::collection::vec(arb_entry(), 0..80),
        raw_events in proptest::collection::vec(arb_lifecycle_event(), 0..10),
        drilled in proptest::bool::ANY,
    ) {
        let trace = build_trace(entries);
        prop_assert_eq!(trace.validate(), Ok(()));
        let mut config = shaped_config().with_lifecycle(build_plan(raw_events));
        if drilled {
            config = config.with_drill(FailureDrillSpec {
                rate_per_day: 8.0,
                kind: DrillKind::EmcWithRepair { mttr_secs: 7_200 },
                seed: 99,
            });
        }
        let policy = trained_policy();
        let default =
            run_multipool_source(TraceCursor::new(&trace), &config, policy.clone()).unwrap();
        let off = run_multipool_source(
            TraceCursor::new(&trace),
            &config.clone().with_borrowing(false),
            policy.clone(),
        )
        .unwrap();
        prop_assert_eq!(&default, &off);
        prop_assert_eq!(default.fleet.vms_borrowed, 0);
        prop_assert_eq!(default.fleet.borrowed_gib_hours, 0.0);
    }
}

fn small_trace() -> ClusterTrace {
    TraceGenerator::new(ClusterConfig::small(), 1).generate(0)
}

fn cell(trace: &ClusterTrace) -> MultiPoolConfig {
    MultiPoolConfig::for_trace(trace, PodStyle::Octopus, 4, 0.20, GroupSchedulerKind::RoundRobin, 7)
}

fn mid_trace_plan() -> LifecyclePlan {
    LifecyclePlan {
        events: vec![
            LifecycleEvent { time: 2 * 86_400, op: LifecycleOp::DecommissionGroup { group: 1 } },
            LifecycleEvent {
                time: 3 * 86_400,
                op: LifecycleOp::ExpandGroup { group: 1, capacity: Bytes::from_gib(64) },
            },
        ],
    }
}

/// The parallel sweep runner must not cost a bit: every cell of a
/// lifecycle sweep equals `run_multipool_fleet` run inline on the calling
/// thread and on four forced worker threads, a rerun reproduces the sweep,
/// and the all-`None` cell equals the plain replay. The last cell, a
/// one-hour-MTTR drill with a first-day decommission and rebalancing, must
/// see failures and finish the decommission.
#[test]
fn lifecycle_sweeps_match_the_serial_path_cell_for_cell() {
    let trace = small_trace();
    let none = cell(&trace);
    let repairing = |mttr_secs| FailureDrillSpec {
        rate_per_day: 4.0,
        kind: DrillKind::EmcWithRepair { mttr_secs },
        seed: 99,
    };
    let configs = vec![
        none.clone(),
        none.clone().with_drill(FailureDrillSpec {
            rate_per_day: 4.0,
            kind: DrillKind::Emc,
            seed: 99,
        }),
        none.clone().with_drill(repairing(7_200)),
        none.clone().with_lifecycle(mid_trace_plan()),
        none.clone()
            .with_drill(repairing(7_200))
            .with_lifecycle(mid_trace_plan())
            .with_rebalance(RebalanceSpec { starved_fraction: 0.25, max_moves_per_pass: 2 }),
        none.clone()
            .with_drill(repairing(3_600))
            .with_lifecycle(LifecyclePlan {
                events: vec![LifecycleEvent {
                    time: 86_400,
                    op: LifecycleOp::DecommissionGroup { group: 2 },
                }],
            })
            .with_rebalance(RebalanceSpec { starved_fraction: 0.15, max_moves_per_pass: 2 }),
    ];
    let swept = multipool_sweep(|| TraceCursor::new(&trace), &configs).unwrap();
    assert_eq!(swept.len(), configs.len());
    for workers in [1, 4] {
        let serial = parallel_map_with(workers, &configs, |_, config| {
            run_multipool_fleet(&trace, config).unwrap()
        });
        assert_eq!(swept, serial, "the sweep must equal the replays at {workers} workers");
    }
    let again = multipool_sweep(|| TraceCursor::new(&trace), &configs).unwrap();
    assert_eq!(swept, again, "lifecycle sweeps must be deterministic");

    let plain = run_multipool_fleet(&trace, &none).unwrap();
    assert_eq!(swept[0], plain, "an all-None cell must equal the plain replay");
    let last = &swept[5].fleet;
    assert!(last.emc_failures > 0, "{last:?}");
    assert_eq!(last.groups_decommissioned, 1, "{last:?}");
}

/// The kitchen sink must stay conserved: failures healing under load, a
/// decommission whose drain schedules async releases (the double-free
/// regression — the group may only be struck off after its last release
/// lands), a live expansion reviving the pod, and proactive rebalancing,
/// all in one replay. The conservation debug-asserts run after every event
/// in this build; the three-way migration identity is checked here.
#[test]
fn composed_lifecycle_drills_stay_conserved_and_deterministic() {
    let trace = small_trace();
    let config = cell(&trace)
        .with_drill(FailureDrillSpec {
            rate_per_day: 6.0,
            kind: DrillKind::EmcWithRepair { mttr_secs: 7_200 },
            seed: 99,
        })
        .with_lifecycle(mid_trace_plan())
        .with_rebalance(RebalanceSpec { starved_fraction: 0.25, max_moves_per_pass: 2 });

    let a = run_multipool_fleet(&trace, &config).unwrap();
    let b = run_multipool_fleet(&trace, &config).unwrap();
    assert_eq!(a, b, "composed lifecycle drills must be deterministic");

    let fleet = &a.fleet;
    assert!(fleet.emc_failures > 0, "{fleet:?}");
    assert!(fleet.emcs_repaired > 0, "{fleet:?}");
    assert!(fleet.vms_drained > 0, "{fleet:?}");
    assert_eq!(fleet.groups_decommissioned, 1, "{fleet:?}");
    assert_eq!(fleet.groups_expanded, 1, "{fleet:?}");
    // Every migration copy — failure evacuation, drain, or rebalance —
    // closed with exactly one MigrationDone event.
    assert_eq!(
        fleet.migration_completions,
        fleet.vms_migrated + fleet.vms_drained + fleet.vms_rebalanced,
        "{fleet:?}"
    );
    // The drained group completed its pending releases before being
    // struck off (a double-free would have tripped the conservation
    // asserts above).
    assert!(a.per_group[1].releases_completed > 0, "{a:?}");
}

/// The `fig_lifecycle` full phase on the 15-day bench trace, pinned down
/// to the float GiB-hour sums: failures healing at a 6 h MTTR, pod 3
/// draining out at mid-trace, a 32 GiB device joining pod 0, and proactive
/// rebalancing — on the same 24-server trace and fleet shape as the other
/// bench goldens, with the bin's three-quarter local-DRAM sizing.
#[test]
fn the_lifecycle_bench_phase_reproduces_its_golden_outcome() {
    let trace = TraceGenerator::new(
        ClusterConfig { servers: 24, duration_days: 15, ..ClusterConfig::azure_like() },
        1,
    )
    .generate(0);
    let mut config = MultiPoolConfig::for_trace(
        &trace,
        PodStyle::Octopus,
        4,
        0.30,
        GroupSchedulerKind::RoundRobin,
        7,
    )
    .with_drill(FailureDrillSpec {
        rate_per_day: 4.0,
        kind: DrillKind::EmcWithRepair { mttr_secs: 6 * 3_600 },
        seed: 99,
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
    config.control.local_dram_per_host =
        Bytes::from_gib(config.control.local_dram_per_host.as_gib() * 3 / 4);
    let outcome = run_multipool_fleet(&trace, &config).unwrap();
    assert_eq!(
        format!("{:?}", outcome.fleet),
        "FleetOutcome { scheduled_vms: 1308, rejected_vms: 19, fallback_all_local: 166, \
         violations: 8, mitigations: 212, mitigation_copy_time: 81.8s, \
         reconfig_completions: 212, peak_degraded_vms: 12, qos_passes: 60, \
         releases_completed: 931, emc_failures: 58, vms_migrated: 427, vms_killed: 10, \
         migration_completions: 481, evacuation_copy_time: 818.45s, vms_drained: 30, \
         vms_rebalanced: 24, emcs_repaired: 50, groups_decommissioned: 1, \
         groups_expanded: 1, pooled_host_count: 24, \
         sum_local_peaks: Bytes(7004017917952), sum_host_pool_peaks: Bytes(7306813112320), \
         sum_total_peaks: Bytes(12666932297728), pool_peak: Bytes(2967822401536), \
         pool_gib_hours: 291044.67277777777, total_gib_hours: 2402853.5983333364, vms_borrowed: 0, borrowed_gib_hours: 0.0 }"
    );
    // The acceptance headline: the drained pod lost no VMs to the drain
    // itself — kills here all trace back to device failures, and
    // availability stays above the PR-5 failure-drill baseline (98.9% at
    // this rate on the halved-DRAM fleet).
    assert!(outcome.fleet.availability() > 0.989, "{:?}", outcome.fleet);
}
