//! Integration tests for the sharded multi-pool fleet: a single group must
//! reproduce the single-pool reference replay bit for bit, multi-group replays
//! must conserve pool accounting per group and fleet-wide at every event
//! (debug-asserted inside the run loop), sweeps must be deterministic on the
//! parallel runner, and the host-port lifecycle must let a long trace cycle
//! more hosts through a pool than the pool has CXL ports.

use cluster_sim::source::TraceCursor;
use cluster_sim::sweep;
use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
use cluster_sim::ClusterTrace;
use cxl_hw::topology::PodStyle;
use cxl_hw::units::Bytes;
use pond_core::fleet::run_fleet_reference;
use pond_core::multipool::{
    multipool_sweep, run_multipool_fleet, run_multipool_source, DrillKind, FailureDrillSpec,
    GroupSchedulerKind, LifecycleEvent, LifecycleOp, LifecyclePlan, MultiPoolConfig,
    MultiPoolOutcome,
};
use pond_core::policy::PondPolicy;

fn small_trace() -> ClusterTrace {
    TraceGenerator::new(ClusterConfig::small(), 1).generate(0)
}

/// A single pool is the multi-pool engine on one group, so any one-group
/// config — whatever its scheduler or pod style — must match
/// `run_fleet_reference`, the separate single-pool loop: with one group the
/// ladder degenerates to the control plane's pooled → all-local fallback,
/// so every field of the outcome — placements, rejections, violations,
/// peaks, GiB-hours, event counts — must agree with it bit for bit, and the
/// single group's breakdown must equal the fleet aggregate.
#[test]
fn single_group_multipool_reproduces_the_reference_bit_for_bit() {
    let trace = small_trace();
    for (pod, scheduler, fallback) in [
        (PodStyle::Symmetric, GroupSchedulerKind::RoundRobin, true),
        (PodStyle::Symmetric, GroupSchedulerKind::TightestFit, true),
        (PodStyle::Octopus, GroupSchedulerKind::MostFreePool, true),
        // With the all-local fallback off, both replays must reject the
        // same pool-exhausted VMs instead of placing them.
        (PodStyle::Symmetric, GroupSchedulerKind::RoundRobin, false),
    ] {
        let mut config = MultiPoolConfig::for_trace(&trace, pod, 1, 0.20, scheduler, 7);
        config.control.fallback_all_local = fallback;
        let policy = PondPolicy::train(&trace, &config.control.policy, config.seed);
        let fleet_outcome = run_fleet_reference(&trace, &config, policy).unwrap();
        let multi = run_multipool_fleet(&trace, &config).unwrap();
        assert_eq!(
            multi.fleet, fleet_outcome,
            "{pod:?}/{scheduler:?}/fallback={fallback}: one group must reproduce the \
             single-pool replay exactly"
        );
        assert_eq!(multi.per_group.len(), 1);
        assert_eq!(multi.per_group[0], fleet_outcome);
        assert_eq!(multi.cross_group_placements, 0);
    }
}

/// A 4-group replay exercises every mutation path (scheduling, cross-group
/// fallback, mitigation, async release, reconfiguration completion) under
/// the per-event per-group + fleet-wide conservation debug-asserts inside
/// `run_multipool_fleet`; finishing without a panic *is* the invariant, and
/// the end state must be fully drained and internally consistent.
#[test]
fn multi_group_replay_conserves_accounting_per_group_and_fleet_wide() {
    let trace = small_trace();
    for pod in [PodStyle::Symmetric, PodStyle::Octopus] {
        let config =
            MultiPoolConfig::for_trace(&trace, pod, 4, 0.20, GroupSchedulerKind::RoundRobin, 7);
        let outcome = run_multipool_fleet(&trace, &config).unwrap();
        assert_eq!(outcome.per_group.len(), 4);
        assert!(outcome.fleet.scheduled_vms > 0);
        assert!(outcome.fleet.qos_passes > 0);
        assert!(outcome.fleet.releases_completed > 0);
        // One ReconfigDone event per mitigation, all delivered.
        assert_eq!(outcome.fleet.reconfig_completions, outcome.fleet.mitigations);
        // Aggregates are sums of the per-group breakdowns.
        for (field, fleet_value) in [
            (
                outcome.per_group.iter().map(|g| g.scheduled_vms).sum::<u64>(),
                outcome.fleet.scheduled_vms,
            ),
            (
                outcome.per_group.iter().map(|g| g.mitigations).sum::<u64>(),
                outcome.fleet.mitigations,
            ),
            (
                outcome.per_group.iter().map(|g| g.releases_completed).sum::<u64>(),
                outcome.fleet.releases_completed,
            ),
            (
                outcome.per_group.iter().map(|g| g.pooled_host_count).sum::<u64>(),
                outcome.fleet.pooled_host_count,
            ),
        ] {
            assert_eq!(field, fleet_value, "{pod:?}");
        }
        let pool_peak: Bytes = outcome.per_group.iter().map(|g| g.pool_peak).sum();
        assert_eq!(outcome.fleet.pool_peak, pool_peak);
    }
}

fn sweep_grid(trace: &ClusterTrace) -> Vec<MultiPoolConfig> {
    let mut configs = Vec::new();
    for pod in [PodStyle::Symmetric, PodStyle::Octopus] {
        for groups in [2u16, 4] {
            for &pool_fraction in &[0.10, 0.25] {
                for scheduler in GroupSchedulerKind::ALL {
                    configs.push(MultiPoolConfig::for_trace(
                        trace,
                        pod,
                        groups,
                        pool_fraction,
                        scheduler,
                        7,
                    ));
                }
            }
        }
    }
    configs
}

/// Asserts that `swept` equals `run_multipool_fleet` over `configs` cell for
/// cell, computed inline on the calling thread and on four forced worker
/// threads, so the threaded path is checked even on a one-CPU machine.
fn assert_sweep_matches_the_replays(
    trace: &ClusterTrace,
    configs: &[MultiPoolConfig],
    swept: &[MultiPoolOutcome],
) {
    for workers in [1, 4] {
        let cells = sweep::parallel_map_with(workers, configs, |_, config| {
            run_multipool_fleet(trace, config).unwrap()
        });
        assert_eq!(swept, cells, "the sweep must equal the replays at {workers} workers");
    }
}

/// The multipool sweep on the parallel runner must equal the same cells
/// replayed one by one, inline and on forced worker threads, bit for bit,
/// and re-running it must reproduce itself.
#[test]
fn multipool_sweep_is_deterministic_serial_vs_parallel() {
    let trace = small_trace();
    // Keep the grid small: the full product is exercised by the bench
    // binaries; determinism only needs representative cells.
    let configs: Vec<MultiPoolConfig> = sweep_grid(&trace).into_iter().step_by(5).take(5).collect();
    assert!(sweep::worker_count(configs.len()) >= 1);

    let swept = multipool_sweep(|| TraceCursor::new(&trace), &configs).unwrap();
    assert_eq!(swept.len(), configs.len());
    assert_sweep_matches_the_replays(&trace, &configs, &swept);
    let again = multipool_sweep(|| TraceCursor::new(&trace), &configs).unwrap();
    assert_eq!(swept, again, "same inputs must reproduce the sweep bit for bit");
}

/// A drilled multi-pool config with per-host local DRAM tightened to half
/// the trace sizing, so evacuations compete for real headroom (the
/// `fig_failure_drill` setup: on a half-empty fleet every topology survives
/// trivially and the comparison shows nothing).
fn drilled_config(trace: &ClusterTrace, pod: PodStyle, rate_per_day: f64) -> MultiPoolConfig {
    let mut config =
        MultiPoolConfig::for_trace(trace, pod, 4, 0.30, GroupSchedulerKind::RoundRobin, 7);
    config.control.local_dram_per_host =
        Bytes::from_gib(config.control.local_dram_per_host.as_gib() / 2);
    config.with_drill(FailureDrillSpec { rate_per_day, kind: DrillKind::Emc, seed: 99 })
}

/// The availability payoff of pod overlap (the tentpole's acceptance
/// criterion): on the *same* seed and the *same* failure schedule, an
/// Octopus ring — whose pods can push evacuated VMs into the neighbour's
/// pool — migrates strictly more VMs and kills strictly fewer than disjoint
/// symmetric pods, whose stricken VMs can only fall back to their own hosts'
/// local DRAM.
#[test]
fn octopus_overlap_survives_emc_failures_better_than_symmetric_pods() {
    let trace = small_trace();
    let sym = run_multipool_fleet(&trace, &drilled_config(&trace, PodStyle::Symmetric, 4.0))
        .unwrap()
        .fleet;
    let oct =
        run_multipool_fleet(&trace, &drilled_config(&trace, PodStyle::Octopus, 4.0)).unwrap().fleet;
    // Both replays saw the same drill: the plan depends only on
    // (drill seed, duration, group count), which the two cells share.
    assert_eq!(sym.emc_failures, oct.emc_failures);
    assert!(sym.emc_failures > 0, "the drill must fire: {sym:?}");
    assert!(sym.vms_killed > 0, "a tight symmetric fleet must lose VMs: {sym:?}");
    assert!(
        oct.vms_migrated > sym.vms_migrated,
        "overlap must migrate strictly more: octopus {} vs symmetric {}",
        oct.vms_migrated,
        sym.vms_migrated
    );
    assert!(
        oct.vms_killed < sym.vms_killed,
        "overlap must kill strictly fewer: octopus {} vs symmetric {}",
        oct.vms_killed,
        sym.vms_killed
    );
    assert!(oct.availability() > sym.availability());
    // Every migration's copy window opened and closed on the timeline.
    assert_eq!(oct.migration_completions, oct.vms_migrated);
    assert_eq!(sym.migration_completions, sym.vms_migrated);
    assert!(!oct.evacuation_copy_time.is_zero());
}

/// Determinism of failure drills: the drilled sweep on the parallel runner
/// must equal the same cells replayed one by one, inline and on forced
/// worker threads, bit for bit, a rerun must reproduce it, and a zero-rate
/// drill must reproduce the drill-free replay exactly.
#[test]
fn failure_drill_sweep_is_deterministic_and_zero_rate_matches_plain_replay() {
    let trace = small_trace();
    let mut configs = Vec::new();
    for pod in [PodStyle::Symmetric, PodStyle::Octopus] {
        for rate_per_day in [0.0, 4.0] {
            configs.push(
                MultiPoolConfig::for_trace(&trace, pod, 4, 0.25, GroupSchedulerKind::RoundRobin, 7)
                    .with_drill(FailureDrillSpec { rate_per_day, kind: DrillKind::Emc, seed: 99 }),
            );
        }
    }
    assert!(sweep::worker_count(configs.len()) >= 1);
    let swept = multipool_sweep(|| TraceCursor::new(&trace), &configs).unwrap();
    assert_sweep_matches_the_replays(&trace, &configs, &swept);
    let again = multipool_sweep(|| TraceCursor::new(&trace), &configs).unwrap();
    assert_eq!(swept, again, "same inputs must reproduce the sweep bit for bit");
    for (config, outcome) in configs.iter().zip(&swept) {
        let drill = config.drill.expect("every cell is drilled");
        if drill.rate_per_day == 0.0 {
            // A zero-rate drill cell is exactly the plain multipool replay.
            let plain =
                run_multipool_fleet(&trace, &MultiPoolConfig { drill: None, ..config.clone() })
                    .unwrap();
            assert_eq!(outcome, &plain, "zero-rate drill must be bit-identical");
            assert_eq!(outcome.fleet.emc_failures, 0);
        } else {
            assert!(outcome.fleet.emc_failures > 0, "{outcome:?}");
        }
    }
}

/// Regression for the host-port lifecycle: a 20-host fleet shares the
/// default 16-port pool, and over a multi-day trace more than 16 distinct
/// hosts end up holding pool slices — impossible before port detach/reattach
/// existed (the fleet was capped at the first 16 hosts forever).
#[test]
fn long_trace_cycles_more_hosts_than_ports_through_one_pool() {
    let config = ClusterConfig { servers: 20, ..ClusterConfig::small() };
    let trace = TraceGenerator::new(config, 1).generate(0);
    let scheduler = GroupSchedulerKind::RoundRobin;
    let config = MultiPoolConfig::for_trace(&trace, PodStyle::Symmetric, 1, 0.20, scheduler, 7);
    assert_eq!(config.control.hosts, 20, "for_trace no longer caps hosts at the port count");
    let outcome = run_multipool_fleet(&trace, &config).unwrap().fleet;
    assert!(
        outcome.pooled_host_count > 16,
        "hosts must cycle through the 16 ports over the trace: {} pooled hosts",
        outcome.pooled_host_count
    );
    // Port pressure shows up as all-local fallbacks, not hard failures.
    assert!(outcome.fallback_all_local > 0);
    assert!(outcome.scheduled_vms > 0);
}

/// The pinned 24-server / 15-day replay must keep reproducing the outcome
/// captured from the implementation *before* the event-core and accounting
/// refactor (indexed event queue, incremental peaks and conservation
/// counters, and a live-VM arena that one id-to-group map has since
/// replaced) — the whole optimization is only admissible because it is
/// bit-identical. The comparison goes through `Debug` strings:
/// Rust's shortest-roundtrip float formatting makes equal strings equivalent
/// to bit-equal `f64` GiB-hour sums.
#[test]
fn arena_replay_reproduces_the_pre_refactor_golden_outcome() {
    let trace = TraceGenerator::new(
        ClusterConfig { servers: 24, duration_days: 15, ..ClusterConfig::azure_like() },
        1,
    )
    .generate(0);

    let plain = run_multipool_fleet(
        &trace,
        &MultiPoolConfig::for_trace(
            &trace,
            PodStyle::Symmetric,
            2,
            0.20,
            GroupSchedulerKind::RoundRobin,
            7,
        ),
    )
    .unwrap();
    assert_eq!(
        format!("{:?}", plain.fleet),
        "FleetOutcome { scheduled_vms: 1322, rejected_vms: 5, fallback_all_local: 205, \
         violations: 6, mitigations: 235, mitigation_copy_time: 95.4s, \
         reconfig_completions: 235, peak_degraded_vms: 11, qos_passes: 60, \
         releases_completed: 1092, emc_failures: 0, vms_migrated: 0, vms_killed: 0, \
         migration_completions: 0, evacuation_copy_time: 0ns, vms_drained: 0, \
         vms_rebalanced: 0, emcs_repaired: 0, groups_decommissioned: 0, \
         groups_expanded: 0, pooled_host_count: 24, \
         sum_local_peaks: Bytes(7187627769856), sum_host_pool_peaks: Bytes(5243081326592), \
         sum_total_peaks: Bytes(10335838797824), pool_peak: Bytes(1978906181632), \
         pool_gib_hours: 826997.7958333329, total_gib_hours: 2593592.516944444, vms_borrowed: 0, borrowed_gib_hours: 0.0 }"
    );
    assert_eq!(plain.cross_group_placements, 0);

    let drilled =
        run_multipool_fleet(&trace, &drilled_config(&trace, PodStyle::Octopus, 4.0)).unwrap();
    assert_eq!(
        format!("{:?}", drilled.fleet),
        "FleetOutcome { scheduled_vms: 1187, rejected_vms: 140, fallback_all_local: 983, \
         violations: 3, mitigations: 23, mitigation_copy_time: 5.7s, \
         reconfig_completions: 23, peak_degraded_vms: 6, qos_passes: 60, \
         releases_completed: 80, emc_failures: 58, vms_migrated: 93, vms_killed: 13, \
         migration_completions: 93, evacuation_copy_time: 101.75s, vms_drained: 0, \
         vms_rebalanced: 0, emcs_repaired: 0, groups_decommissioned: 0, \
         groups_expanded: 0, pooled_host_count: 24, \
         sum_local_peaks: Bytes(4648228356096), sum_host_pool_peaks: Bytes(3273838821376), \
         sum_total_peaks: Bytes(7260642213888), pool_peak: Bytes(2966748659712), \
         pool_gib_hours: 55719.272500000094, total_gib_hours: 1727270.4544444447, vms_borrowed: 0, borrowed_gib_hours: 0.0 }"
    );
    assert_eq!(drilled.cross_group_placements, 89);
}

/// The split-ownership payoff, pinned on the 15-day bench trace: Octopus
/// overlap with cross-pod slice borrowing recovers strictly more DRAM
/// savings than the re-homing baseline (14.5% — see ROADMAP.md), because
/// the borrow rung serves pool pressure without moving the VM's host out
/// of its home pod.
#[test]
fn borrowing_recovers_more_dram_savings_than_rehoming_on_the_bench_trace() {
    let trace = TraceGenerator::new(
        ClusterConfig { servers: 24, duration_days: 15, ..ClusterConfig::azure_like() },
        1,
    )
    .generate(0);
    let base = MultiPoolConfig::for_trace(
        &trace,
        PodStyle::Octopus,
        4,
        0.20,
        GroupSchedulerKind::TightestFit,
        6,
    );
    let sharded = run_multipool_fleet(
        &trace,
        &MultiPoolConfig::for_trace(
            &trace,
            PodStyle::Symmetric,
            4,
            0.20,
            GroupSchedulerKind::TightestFit,
            6,
        ),
    )
    .unwrap();
    let borrowing = run_multipool_fleet(&trace, &base.clone().with_borrowing(true)).unwrap();
    assert!(borrowing.fleet.vms_borrowed > 0, "{:?}", borrowing.fleet);
    // Every borrow keeps its host home: pool pressure no longer re-homes.
    assert_eq!(borrowing.cross_group_placements, 0, "{borrowing:?}");
    assert!(
        borrowing.fleet.dram_savings_fraction() > 0.145,
        "borrowing must beat the pinned re-homing baseline: {}",
        borrowing.fleet.dram_savings_fraction(),
    );
    assert!(
        borrowing.fleet.dram_savings_fraction() > sharded.fleet.dram_savings_fraction(),
        "overlap with borrowing must beat no-overlap sharding: {} vs {}",
        borrowing.fleet.dram_savings_fraction(),
        sharded.fleet.dram_savings_fraction(),
    );
}

/// Many small pods, every scheduler: 64 two-host Octopus pods with
/// borrowing on, pod 5 decommissioned at hour 12 and expanded back at hour
/// 36, so the set of online groups shrinks and regrows mid-replay. Pinned
/// per scheduler kind from the replay before the fleet-wide group index, so
/// the index's home-group choice is held to the per-arrival group scan it
/// replaced — at 64 groups, where ties across identical pods are the norm.
#[test]
fn many_two_host_pods_reproduce_the_pinned_outcome_for_every_scheduler() {
    let trace = TraceGenerator::new(
        ClusterConfig { servers: 128, duration_days: 2, ..ClusterConfig::small() },
        1,
    )
    .generate(0);
    let plan = LifecyclePlan {
        events: vec![
            LifecycleEvent { time: 12 * 3_600, op: LifecycleOp::DecommissionGroup { group: 5 } },
            LifecycleEvent {
                time: 36 * 3_600,
                op: LifecycleOp::ExpandGroup { group: 5, capacity: Bytes::from_gib(64) },
            },
        ],
    };
    let config = |scheduler| {
        MultiPoolConfig::for_trace(&trace, PodStyle::Octopus, 64, 0.20, scheduler, 7)
            .with_borrowing(true)
            .with_lifecycle(plan.clone())
    };
    let any = config(GroupSchedulerKind::RoundRobin);
    let policy = PondPolicy::train(&trace, &any.control.policy, any.seed);
    for (scheduler, fleet, cross_group) in [
        (
            GroupSchedulerKind::RoundRobin,
            "FleetOutcome { scheduled_vms: 1638, rejected_vms: 16, fallback_all_local: 469, \
            violations: 20, mitigations: 233, mitigation_copy_time: 81.55s, \
            reconfig_completions: 233, peak_degraded_vms: 62, qos_passes: 8, \
            releases_completed: 1166, emc_failures: 0, vms_migrated: 0, vms_killed: 0, \
            migration_completions: 13, evacuation_copy_time: 23.4s, vms_drained: 13, \
            vms_rebalanced: 0, emcs_repaired: 0, groups_decommissioned: 1, groups_expanded: 1, \
            pooled_host_count: 128, sum_local_peaks: Bytes(34063385624576), \
            sum_host_pool_peaks: Bytes(12473658769408), sum_total_peaks: Bytes(44374528360448), \
            pool_peak: Bytes(10496900071424), pool_gib_hours: 1584166.713888889, \
            total_gib_hours: 5963953.315833333, vms_borrowed: 224, \
            borrowed_gib_hours: 340249.65944444435 }",
            10,
        ),
        (
            GroupSchedulerKind::MostFreePool,
            "FleetOutcome { scheduled_vms: 1633, rejected_vms: 21, fallback_all_local: 285, \
            violations: 22, mitigations: 239, mitigation_copy_time: 79.85s, \
            reconfig_completions: 239, peak_degraded_vms: 61, qos_passes: 8, \
            releases_completed: 1347, emc_failures: 0, vms_migrated: 0, vms_killed: 0, \
            migration_completions: 16, evacuation_copy_time: 27.05s, vms_drained: 16, \
            vms_rebalanced: 0, emcs_repaired: 0, groups_decommissioned: 1, groups_expanded: 1, \
            pooled_host_count: 126, sum_local_peaks: Bytes(30942018142208), \
            sum_host_pool_peaks: Bytes(12151536222208), sum_total_peaks: Bytes(40928890847232), \
            pool_peak: Bytes(10511932456960), pool_gib_hours: 1670523.1238888884, \
            total_gib_hours: 5842981.039166667, vms_borrowed: 2, \
            borrowed_gib_hours: 5721.0025000000005 }",
            21,
        ),
        (
            GroupSchedulerKind::TightestFit,
            "FleetOutcome { scheduled_vms: 1645, rejected_vms: 9, fallback_all_local: 836, \
            violations: 11, mitigations: 179, mitigation_copy_time: 59.1s, \
            reconfig_completions: 179, peak_degraded_vms: 31, qos_passes: 8, \
            releases_completed: 811, emc_failures: 0, vms_migrated: 0, vms_killed: 1, \
            migration_completions: 23, evacuation_copy_time: 51s, vms_drained: 23, \
            vms_rebalanced: 0, emcs_repaired: 0, groups_decommissioned: 1, groups_expanded: 1, \
            pooled_host_count: 80, sum_local_peaks: Bytes(31390842224640), \
            sum_host_pool_peaks: Bytes(8506182729728), sum_total_peaks: Bytes(39089571102720), \
            pool_peak: Bytes(6793564520448), pool_gib_hours: 1001933.7319444442, \
            total_gib_hours: 5974205.110833334, vms_borrowed: 438, \
            borrowed_gib_hours: 736987.1586111112 }",
            0,
        ),
    ] {
        let outcome =
            run_multipool_source(TraceCursor::new(&trace), &config(scheduler), policy.clone())
                .unwrap();
        assert_eq!(outcome.fleet.groups_decommissioned, 1, "{scheduler:?}");
        assert_eq!(outcome.fleet.groups_expanded, 1, "{scheduler:?}");
        assert_eq!(format!("{:?}", outcome.fleet), fleet, "{scheduler:?}");
        assert_eq!(outcome.cross_group_placements, cross_group, "{scheduler:?}");
    }
}
