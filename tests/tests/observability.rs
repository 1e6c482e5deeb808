//! Observer neutrality pinned end to end: watching a replay must never
//! change it. Three pins:
//!
//! * a proptest drives random arrival schedules through the composed
//!   lifecycle drill (failures + repairs + decommission + expansion +
//!   rebalance) three ways — unobserved, observed by a
//!   [`TimeSeriesRecorder`], and observed by a [`MetricsObserver`] — and
//!   requires all three [`MultiPoolOutcome`]s bit-identical, plus the
//!   recorder's own series reproducible across runs;
//! * on a single pool (one symmetric group), the observed replay equals the
//!   unobserved one and [`NullObserver`] equals the plain function on the
//!   same stream;
//! * the metrics a [`MetricsObserver`] accumulates must reconcile with the
//!   replay's own outcome counters (events observed, arrivals decided,
//!   QoS passes seen) — the registry is a projection of the replay, not a
//!   second bookkeeper that can drift.

use cluster_sim::source::TraceCursor;
use cluster_sim::trace::{ClusterTrace, CustomerId, GuestOs, VmRequest, VmType};
use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
use cxl_hw::topology::PodStyle;
use cxl_hw::units::Bytes;
use pond_core::multipool::{
    run_multipool_source, run_multipool_source_observed, DrillKind, FailureDrillSpec,
    GroupSchedulerKind, LifecycleEvent, LifecycleOp, LifecyclePlan, MultiPoolConfig, RebalanceSpec,
};
use pond_core::policy::PondPolicy;
use pond_metrics::{MetricsObserver, NullObserver, TimeSeriesRecorder};
use proptest::prelude::*;

/// The fixed cluster shape every random schedule replays on (the same
/// 4-server shape as `lifecycle_drills.rs`, sharded into 2 Octopus groups).
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

/// The composed drill: every lifecycle code path an observer can watch —
/// failures healing, pod 1 draining out, pod 0 expanding, rebalancing.
fn drilled_config() -> MultiPoolConfig {
    MultiPoolConfig::for_trace(
        &shaped(Vec::new()),
        PodStyle::Octopus,
        2,
        0.20,
        GroupSchedulerKind::RoundRobin,
        7,
    )
    .with_drill(FailureDrillSpec {
        rate_per_day: 24.0,
        kind: DrillKind::EmcWithRepair { mttr_secs: 7_200 },
        seed: 99,
    })
    .with_lifecycle(LifecyclePlan {
        events: vec![
            LifecycleEvent {
                time: 86_400 / 3,
                op: LifecycleOp::ExpandGroup { group: 0, capacity: Bytes::from_gib(16) },
            },
            LifecycleEvent { time: 86_400 / 2, op: LifecycleOp::DecommissionGroup { group: 1 } },
        ],
    })
    .with_rebalance(RebalanceSpec { starved_fraction: 0.5, max_moves_per_pass: 2 })
}

/// One policy trained once on the small generated trace and cached for
/// every proptest case.
fn trained_policy() -> &'static PondPolicy {
    static TRAINED: std::sync::OnceLock<PondPolicy> = std::sync::OnceLock::new();
    TRAINED.get_or_init(|| {
        let trace = TraceGenerator::new(ClusterConfig::small(), 1).generate(0);
        let config = drilled_config();
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

proptest! {
    /// Watching a random replay through the composed lifecycle drill — with
    /// a time-series recorder or a metrics registry — must cost zero bits
    /// of outcome, and the recorded series itself must be a pure function
    /// of the replay.
    #[test]
    fn observed_replays_are_bit_identical_on_random_schedules(
        entries in proptest::collection::vec(arb_entry(), 0..60),
    ) {
        let trace = build_trace(entries);
        prop_assert_eq!(trace.validate(), Ok(()));
        let config = drilled_config();
        let policy = trained_policy();

        let unobserved =
            run_multipool_source(TraceCursor::new(&trace), &config, policy.clone()).unwrap();

        let mut recorder = TimeSeriesRecorder::new();
        let recorded = run_multipool_source_observed(
            TraceCursor::new(&trace), &config, policy.clone(), &mut recorder,
        ).unwrap();
        prop_assert_eq!(&recorded, &unobserved);
        prop_assert_eq!(recorder.points().len() as u64, unobserved.fleet.qos_passes);

        let mut metrics = MetricsObserver::new();
        let metered = run_multipool_source_observed(
            TraceCursor::new(&trace), &config, policy.clone(), &mut metrics,
        ).unwrap();
        prop_assert_eq!(&metered, &unobserved);

        // The series is reproducible: observing twice records the same points.
        let mut again = TimeSeriesRecorder::new();
        run_multipool_source_observed(
            TraceCursor::new(&trace), &config, policy.clone(), &mut again,
        ).unwrap();
        prop_assert_eq!(again.points(), recorder.points());
    }
}

fn small_trace() -> ClusterTrace {
    TraceGenerator::new(ClusterConfig::small(), 1).generate(0)
}

/// On a single pool the entry points agree: `run_multipool_source` is the
/// `NullObserver` case of the observed loop, and a real observer costs
/// nothing there either. Two cells: a 15% pool at seed 42 and a 20% pool at
/// seed 7.
#[test]
fn single_pool_observed_replay_matches_the_plain_entry_point() {
    let trace = small_trace();
    let scheduler = GroupSchedulerKind::RoundRobin;
    for (pool_fraction, seed) in [(0.15, 42), (0.20, 7)] {
        let config = MultiPoolConfig::for_trace(
            &trace,
            PodStyle::Symmetric,
            1,
            pool_fraction,
            scheduler,
            seed,
        );
        let policy = PondPolicy::train(&trace, &config.control.policy, config.seed);

        let plain =
            run_multipool_source(TraceCursor::new(&trace), &config, policy.clone()).unwrap();
        let nulled = run_multipool_source_observed(
            TraceCursor::new(&trace),
            &config,
            policy.clone(),
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(nulled, plain, "NullObserver must equal the plain entry point");

        let mut recorder = TimeSeriesRecorder::new();
        let recorded =
            run_multipool_source_observed(TraceCursor::new(&trace), &config, policy, &mut recorder)
                .unwrap();
        assert_eq!(recorded, plain, "a recording observer must cost zero bits");
        assert_eq!(recorder.points().len() as u64, plain.fleet.qos_passes);
        // Single pool: every point carries exactly one group sample.
        assert!(recorder.points().iter().all(|p| p.groups.len() == 1));
        assert!(recorder.points().last().unwrap().fleet_availability > 0.0);
    }
}

/// The metrics registry reconciles with the outcome it watched: events,
/// decisions, and QoS passes all line up with the replay's own counters.
#[test]
fn metrics_reconcile_with_the_observed_outcome() {
    let trace = small_trace();
    let config = drilled_config();
    let policy = trained_policy();

    let mut metrics = MetricsObserver::new();
    let outcome = run_multipool_source_observed(
        TraceCursor::new(&trace),
        &config,
        policy.clone(),
        &mut metrics,
    )
    .unwrap();

    let registry = metrics.registry();
    let fleet = &outcome.fleet;
    assert_eq!(
        registry.counter("events.arrival"),
        fleet.scheduled_vms + fleet.rejected_vms,
        "every arrival event is counted"
    );
    assert_eq!(registry.counter("events.snapshot"), fleet.qos_passes);
    assert_eq!(
        registry.counter_prefix_sum("ladder."),
        fleet.scheduled_vms + fleet.rejected_vms,
        "every arrival lands on exactly one ladder rung"
    );
    assert_eq!(
        registry.counter("lifecycle.emc_failure"),
        fleet.emc_failures,
        "every failure traces one lifecycle op"
    );
    assert_eq!(registry.counter("lifecycle.emc_repair"), fleet.emcs_repaired);
    assert_eq!(registry.counter("lifecycle.expansion"), fleet.groups_expanded);
    assert_eq!(
        registry.counter("lifecycle.decommission_complete"),
        fleet.groups_decommissioned,
        "every decommission completes exactly once"
    );
    assert_eq!(registry.counter("lifecycle.vm_rebalanced"), fleet.vms_rebalanced);
    // The lifetime histogram saw exactly the scheduled VMs.
    assert_eq!(
        registry.histogram("vm.lifetime_secs").map_or(0, |h| h.total()),
        fleet.scheduled_vms
    );
}
