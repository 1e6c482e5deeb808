//! Replay heap per live VM.
//!
//! A 1-day fleet shaped like `pondbench`'s `wide` at 1/8 scale (1,024
//! servers in 64 borrowing Octopus pods of 16, a 20% pool, `TightestFit`)
//! replays from a materialized trace. About two thirds of its VMs are alive
//! at the peak, so the replay's peak heap is its live state: each VM's
//! running record, B-tree slots, id map entry and departure calendar
//! entry, plus each pod's share of its plane. The peak heap divided by the
//! peak number of VMs whose [arrival, departure) intervals overlap must
//! stay under the bound.
//!
//! This fleet measures 608.4 B per live VM (6,589 of them). The bound,
//! 650 B, sits below the 712.0 B it measures when each host also keeps a
//! per-VM allocation map and each running record carries a `VirtualMachine`
//! copy of its request (48 B more per record), and below 608.4 + 48 B, so
//! bringing back the record's copy alone fails it too. Keeping whole
//! records in the plane's B-tree leaves, cloning a workload profile into
//! every VM and growing each departure-calendar bucket to four entries
//! measured 1,007 B.
//!
//! The test replays the fleet twice and requires the same peak heap both
//! times. The replay's id map is a `HashMap` whose table rehashes in place
//! or doubles depending on where its hash keys put the removed entries, so
//! random keys would make the peak differ between identical runs.
//!
//! The counting allocator sees every allocation in this test binary, so
//! the binary holds this one test and nothing runs beside it.

use cluster_sim::source::TraceCursor;
use cluster_sim::trace::ClusterTrace;
use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
use cxl_hw::topology::PodStyle;
use pond_core::multipool::{run_multipool_source, GroupSchedulerKind, MultiPoolConfig};
use pond_core::policy::PondPolicy;
use pond_tests::heap::{self, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most requests whose [arrival, departure) intervals overlap.
fn peak_live(trace: &ClusterTrace) -> u64 {
    let mut edges: Vec<(u64, i64)> =
        trace.requests.iter().flat_map(|r| [(r.arrival, 1), (r.departure(), -1)]).collect();
    // At equal times a departure (-1) sorts first: the interval is open.
    edges.sort_unstable();
    let live = edges.iter().scan(0, |live, &(_, step)| {
        *live += step;
        Some(*live)
    });
    live.max().unwrap_or(0) as u64
}

#[test]
fn replay_heap_per_live_vm_stays_under_the_budget() {
    let cluster = ClusterConfig { servers: 1_024, duration_days: 1, ..ClusterConfig::azure_like() };
    let trace = TraceGenerator::new(cluster, 1).with_seed(42).generate(0);
    let scheduler = GroupSchedulerKind::TightestFit;
    let mut config = MultiPoolConfig::for_trace(&trace, PodStyle::Octopus, 64, 0.20, scheduler, 7)
        .with_borrowing(true);
    config.qos_interval = 6 * 3_600;
    let policy = PondPolicy::train(&trace, &config.control.policy, config.seed);
    let live = peak_live(&trace);

    let replay = |policy: PondPolicy| {
        let before = heap::reset_peak();
        let outcome = run_multipool_source(TraceCursor::new(&trace), &config, policy)
            .expect("the replay runs");
        (outcome, heap::peak() - before)
    };
    let (outcome, peak) = replay(policy.clone());
    let (again, peak_again) = replay(policy);
    assert_eq!(outcome, again, "the two replays differ");
    assert_eq!(peak, peak_again, "two identical replays reached different peak heaps");

    // The fleet must really pool and borrow, or the bound tests nothing.
    assert!(outcome.fleet.pool_dram_fraction() > 0.0, "nothing pooled");
    assert!(outcome.fleet.vms_borrowed > 0, "nothing borrowed");
    let per_vm = peak as f64 / live as f64;
    assert!(
        per_vm < 650.0,
        "the replay held {per_vm:.1} B per live VM: {peak} B of peak heap for {live} live VMs"
    );
}
