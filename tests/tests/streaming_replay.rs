//! The streaming arrival path is only admissible because it is invisible:
//! replaying through an [`ArrivalSource`] must produce bit-identical
//! outcomes to the materialized-trace path. Two pins:
//!
//! * a proptest drives random arrival/departure schedules through the
//!   streamed adapter and through the retained pre-refactor reference
//!   replay, comparing the *full* [`FleetOutcome`] (QoS snapshot counters
//!   included);
//! * a golden test streams the 15-day bench trace — training prefix
//!   included, the request vector never materialized — and must reproduce
//!   the pre-refactor outcome pinned in `multipool_integration.rs`.

use cluster_sim::source::{ArrivalSource, TraceCursor};
use cluster_sim::trace::{ClusterTrace, CustomerId, GuestOs, VmRequest, VmType};
use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
use cxl_hw::topology::PodStyle;
use cxl_hw::units::Bytes;
use pond_core::fleet::run_fleet_reference;
use pond_core::multipool::{run_multipool_source, GroupSchedulerKind, MultiPoolConfig};
use pond_core::policy::PondPolicy;
use proptest::prelude::*;

/// The fixed cluster shape every random schedule replays on. Holding the
/// shape constant lets one trained policy serve every proptest case (the
/// fleet config derives from servers and DRAM, not from the schedule).
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

/// A policy trained once on the small generated trace and cached for every
/// proptest case, so the property spends its time replaying schedules, not
/// retraining models.
fn trained_policy() -> &'static (PondPolicy, MultiPoolConfig) {
    static TRAINED: std::sync::OnceLock<(PondPolicy, MultiPoolConfig)> = std::sync::OnceLock::new();
    TRAINED.get_or_init(|| {
        let trace = TraceGenerator::new(ClusterConfig::small(), 1).generate(0);
        let scheduler = GroupSchedulerKind::RoundRobin;
        let config = MultiPoolConfig::for_trace(
            &shaped(Vec::new()),
            PodStyle::Symmetric,
            1,
            0.20,
            scheduler,
            7,
        );
        let policy = PondPolicy::train(&trace, &config.control.policy, config.seed);
        (policy, config)
    })
}

/// One random schedule entry, before ids are assigned: the shape/timing
/// fields `(arrival, lifetime, cores, memory GiB)` and the metadata fields
/// `(customer, vm type, guest os, region, untouched %)`.
type Entry = ((u64, u64, u32, u64), (u32, usize, u8, u8, u8));

/// Generates one entry: arrival within the horizon (the boundary
/// `arrival == duration` included), lifetimes that freely overshoot the
/// horizon, and sizes large enough to force rejections and all-local
/// fallbacks as well as clean placements.
fn arb_entry() -> impl Strategy<Value = Entry> {
    (
        (
            0..=86_400u64, // arrival
            1..200_000u64, // lifetime (may outlive the trace)
            1..=16u32,     // cores
            1..=96u64,     // memory GiB (up to ~3/4 of one server)
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
    /// Random arrival/departure schedules replay bit-identically through
    /// the streamed adapter and through the retained reference replay
    /// (materialized trace, five-heap queue, full host scans). The whole
    /// [`FleetOutcome`] is compared — placement counts, QoS snapshot
    /// counters, peaks, and the float GiB-hour sums.
    #[test]
    fn streamed_replay_matches_the_reference_on_random_schedules(
        entries in proptest::collection::vec(arb_entry(), 0..120),
    ) {
        let trace = build_trace(entries);
        prop_assert_eq!(trace.validate(), Ok(()));
        let (policy, config) = trained_policy();

        let streamed =
            run_multipool_source(TraceCursor::new(&trace), config, policy.clone()).unwrap();
        let reference = run_fleet_reference(&trace, config, policy.clone()).unwrap();
        prop_assert_eq!(streamed.fleet, reference);
    }
}

/// The 15-day bench-scale golden, streamed end to end: the policy trains on
/// a streamed prefix and the replay consumes the lazy generator directly —
/// the request vector is never materialized — yet the outcome must
/// reproduce, down to the float GiB-hour sums in the `Debug` string, the
/// pre-refactor outcome pinned by
/// `arena_replay_reproduces_the_pre_refactor_golden_outcome`.
#[test]
fn a_streamed_15_day_replay_reproduces_the_materialized_golden() {
    let generator = TraceGenerator::new(
        ClusterConfig { servers: 24, duration_days: 15, ..ClusterConfig::azure_like() },
        1,
    );
    let header = generator.stream(0).header().clone();
    let config = MultiPoolConfig::for_header(
        &header,
        PodStyle::Symmetric,
        2,
        0.20,
        GroupSchedulerKind::RoundRobin,
        7,
    );
    let policy =
        PondPolicy::train_source(|| generator.stream(0), &config.control.policy, config.seed)
            .expect("generator streams are well-formed");
    let outcome = run_multipool_source(generator.stream(0), &config, policy).unwrap();
    assert_eq!(
        format!("{:?}", outcome.fleet),
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
    assert_eq!(outcome.cross_group_placements, 0);
}
