//! Fleet-replay throughput benchmark on an 8192-server trace.
//!
//! Replays one day of fleet arrivals through the full Pond control plane
//! twice: once on the rebuilt event core (a per-second departure calendar
//! beside one timeline heap, and O(1) incremental peak/conservation
//! accounting) and once through [`run_fleet_reference`] — the retained
//! pre-index replay loop, with one heap per event class, a full host scan
//! after every event, and hash-set bookkeeping. Both replays produce the
//! *same* [`FleetOutcome`] bit for bit (asserted on every run), so the
//! timing difference is purely the event-core data structures. The
//! prediction models are trained once, outside the timed region, and shared
//! by both replays.
//!
//! The fleet stays at 8192 servers behind one pool, although so large a
//! fleet barely pools, because the reference's cost is its O(hosts) scan
//! after every event and only a wide fleet makes that scan show. On fleets
//! that pool (16 hosts x 30 and 180 days, 64 hosts x 30 days; 16–48% of
//! DRAM saved) the indexed replay ran at 0.88–1.00x the reference in two
//! sets of best-of-3 timings, against 6.0–6.4x here, so no floor there
//! could price the index.
//!
//! Run with `cargo bench -p pond-bench --bench fleet`. The report times
//! the two replays in alternating rounds and prints every round; its final
//! line prints the best-of-5 events/sec and speedup, and the acceptance bar
//! is >= 5x.
//!
//! [`run_fleet_reference`]: pond_core::fleet::run_fleet_reference

use cluster_sim::source::TraceCursor;
use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
use cluster_sim::ClusterTrace;
use cxl_hw::topology::PodStyle;
use pond_core::fleet::{run_fleet_reference, FleetOutcome};
use pond_core::multipool::{run_multipool_source, GroupSchedulerKind, MultiPoolConfig};
use pond_core::policy::PondPolicy;
use std::time::{Duration, Instant};

const SERVERS: u32 = 8192;

/// Timed rounds in the explicit report; each arm keeps its best.
const RUNS: usize = 5;

fn bench_trace() -> ClusterTrace {
    let config =
        ClusterConfig { servers: SERVERS, duration_days: 1, ..ClusterConfig::azure_like() };
    TraceGenerator::new(config, 1).generate(0)
}

/// The single pool: one symmetric round-robin group holding every host.
fn single_pool(trace: &ClusterTrace) -> MultiPoolConfig {
    let scheduler = GroupSchedulerKind::RoundRobin;
    MultiPoolConfig::for_trace(trace, PodStyle::Symmetric, 1, 0.20, scheduler, 7)
}

/// The replay engine's single-pool outcome.
fn indexed_replay(
    trace: &ClusterTrace,
    config: &MultiPoolConfig,
    policy: PondPolicy,
) -> FleetOutcome {
    run_multipool_source(TraceCursor::new(trace), config, policy).unwrap().fleet
}

fn reference_replay(
    trace: &ClusterTrace,
    config: &MultiPoolConfig,
    policy: PondPolicy,
) -> FleetOutcome {
    run_fleet_reference(trace, config, policy).unwrap()
}

/// Events the replay processed: arrivals (placed and rejected), departures
/// (one per placed VM), release and reconfiguration completions, and QoS
/// snapshot ticks. The single-pool replay schedules no failure-drill events.
fn replay_events(outcome: &FleetOutcome) -> u64 {
    outcome.scheduled_vms
        + outcome.rejected_vms
        + outcome.scheduled_vms
        + outcome.releases_completed
        + outcome.reconfig_completions
        + outcome.qos_passes
}

/// Wall time of one replay, cloning the consumed policy outside the timed
/// region.
fn timed(
    policy: &PondPolicy,
    replay: impl FnOnce(PondPolicy) -> FleetOutcome,
) -> (Duration, FleetOutcome) {
    let policy = policy.clone();
    let start = Instant::now();
    let outcome = replay(policy);
    (start.elapsed(), outcome)
}

fn main() {
    // Explicit throughput report: best-of-5 full replays of each loop on the
    // same trace and the same trained policy. The arms alternate round by
    // round, and each round swaps which runs first, so a slow phase of a
    // shared machine lands on both arms instead of on one. Every round
    // cross-checks the two outcomes bit for bit.
    let trace = bench_trace();
    let config = single_pool(&trace);
    let policy = PondPolicy::train(&trace, &config.control.policy, config.seed);
    println!("fleet trace: {} servers, {} requests, 1 day", trace.servers, trace.requests.len());
    let (mut indexed, mut reference) = (Duration::MAX, Duration::MAX);
    let mut outcome = None;
    for round in 0..RUNS {
        let indexed_arm = || timed(&policy, |policy| indexed_replay(&trace, &config, policy));
        let reference_arm = || timed(&policy, |policy| reference_replay(&trace, &config, policy));
        let indexed_first = round % 2 == 0;
        let ((indexed_time, indexed_outcome), (reference_time, reference_outcome)) =
            if indexed_first {
                let indexed_run = indexed_arm();
                (indexed_run, reference_arm())
            } else {
                let reference_run = reference_arm();
                (indexed_arm(), reference_run)
            };
        assert_eq!(
            indexed_outcome, reference_outcome,
            "round {round}: the indexed and reference replays must produce identical outcomes"
        );
        println!(
            "round {round} ({} first): reference {reference_time:.2?}, indexed {indexed_time:.2?}",
            if indexed_first { "indexed" } else { "reference" }
        );
        indexed = indexed.min(indexed_time);
        reference = reference.min(reference_time);
        outcome = Some(indexed_outcome);
    }
    let outcome = outcome.expect("at least one round");
    let events = replay_events(&outcome);
    let speedup = reference.as_secs_f64() / indexed.as_secs_f64();
    println!(
        "fleet replay on {SERVERS} servers: reference {:.2?} vs indexed {:.2?} -> {speedup:.2}x speedup \
         ({events} events, {:.0} vs {:.0} events/sec)",
        reference,
        indexed,
        events as f64 / reference.as_secs_f64(),
        events as f64 / indexed.as_secs_f64(),
    );
    assert!(
        speedup >= 5.0,
        "expected the rebuilt event core to be >= 5x faster than the reference replay, got {speedup:.2}x"
    );
}
