//! Replay heap is O(live VMs), not O(trace length).
//!
//! One streamed, pooled, borrowing fleet replays at two horizons. A longer
//! horizon has more requests but the same fleet and about the same number
//! of VMs alive at once, so the replay's peak live heap may grow only by
//! the customer history, 8 B per completed VM plus its vector's spare
//! capacity. A per-event or per-slice log kept for the whole replay grows
//! by hundreds of bytes per request and fails the bound.
//!
//! The counting allocator sees every allocation in this test binary, so
//! the binary holds this one test and nothing runs beside it.

use cluster_sim::source::{summarize, ArrivalSource};
use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
use cxl_hw::topology::PodStyle;
use pond_core::multipool::{run_multipool_source, GroupSchedulerKind, MultiPoolConfig};
use pond_core::policy::PondPolicy;
use pond_tests::heap::{self, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Replays `days` of a 32-server fleet in two Octopus pods with a 20% pool
/// and borrowing on, streamed from the generator. Returns the requests in
/// the trace and the peak heap the replay held above what was live when it
/// started (the trained policy and the source are built before).
fn replay_peak(days: u32) -> (u64, usize) {
    let cluster = ClusterConfig { servers: 32, duration_days: days, ..ClusterConfig::azure_like() };
    let generator = TraceGenerator::new(cluster, 1);
    let requests = summarize(generator.stream(0)).expect("generator streams never fail").requests;
    let header = generator.stream(0).header().clone();
    let scheduler = GroupSchedulerKind::TightestFit;
    let config = MultiPoolConfig::for_header(&header, PodStyle::Octopus, 2, 0.20, scheduler, 7)
        .with_borrowing(true);
    let policy = PondPolicy::train_source(|| generator.stream(0), &config.control.policy, 7)
        .expect("generator streams never fail");
    let source = generator.stream(0);

    let before = heap::reset_peak();
    let outcome = run_multipool_source(source, &config, policy).expect("the replay runs");
    let peak = heap::peak() - before;

    // The fleet must really pool and borrow, or the bound tests nothing.
    assert!(outcome.fleet.pool_dram_fraction() > 0.0, "{days} days: nothing pooled");
    assert!(outcome.fleet.vms_borrowed > 0, "{days} days: nothing borrowed");
    (requests, peak)
}

#[test]
fn replay_heap_grows_by_the_customer_history_alone() {
    let (short_requests, short_peak) = replay_peak(15);
    let (long_requests, long_peak) = replay_peak(60);
    assert!(long_requests > 3 * short_requests, "{short_requests} vs {long_requests} requests");
    let per_request =
        (long_peak as f64 - short_peak as f64) / (long_requests - short_requests) as f64;
    assert!(
        per_request < 64.0,
        "peak replay heap grew {per_request:.1} B per extra request: {short_peak} B at \
         {short_requests} requests, {long_peak} B at {long_requests}"
    );
}
