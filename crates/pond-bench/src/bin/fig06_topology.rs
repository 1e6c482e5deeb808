//! Figure 6/7 (fleet sharding): how the pool *grouping* — not just the pool
//! size — drives DRAM savings. Shards the same fleet into 4 pool groups and
//! sweeps the pod overlap degree across every topology style — symmetric
//! pods (degree 0), the Octopus ring (1), k-regular rings (k), and
//! two-level pod-of-pods clusters — with cross-pod slice borrowing off
//! (pool pressure re-homes the whole VM to a neighbour pod) and on (the
//! host stays home and only the slices come from a reachable lender).
//! An unsharded single-pool row anchors what sharding gives up.

use cluster_sim::source::TraceCursor;
use cxl_hw::topology::PodStyle;
use pond_bench::{bench_trace, pct, print_header};
use pond_core::multipool::{multipool_sweep, GroupSchedulerKind, MultiPoolConfig};

fn main() {
    print_header(
        "Figure 6/7 (fleet sharding)",
        "DRAM savings vs. pod overlap degree, with and without slice borrowing",
    );
    let trace = bench_trace();
    let fraction = 0.20;
    let groups = 4u16;
    let styles = [
        PodStyle::Symmetric,
        PodStyle::Octopus,
        PodStyle::KRegular { k: 2 },
        PodStyle::KRegular { k: 3 },
        PodStyle::PodOfPods { cluster: 2 },
        PodStyle::PodOfPods { cluster: 4 },
    ];
    let cell = |pod, groups| {
        MultiPoolConfig::for_trace(
            &trace,
            pod,
            groups,
            fraction,
            GroupSchedulerKind::TightestFit,
            6,
        )
    };
    let mut configs = vec![cell(PodStyle::Symmetric, 1)];
    for pod in styles {
        for borrowing in [false, true] {
            configs.push(cell(pod, groups).with_borrowing(borrowing));
        }
    }
    let outcomes = multipool_sweep(|| TraceCursor::new(&trace), &configs)
        .expect("multipool replay must not fail");

    println!(
        "{:>12} {:>7} {:>8} {:>7} {:>12} {:>11} {:>9} {:>12} {:>10}",
        "pods",
        "groups",
        "overlap",
        "borrow",
        "DRAM saved",
        "pool share",
        "borrowed",
        "cross-group",
        "fallbacks"
    );
    for (config, outcome) in configs.iter().zip(&outcomes) {
        let fleet = &outcome.fleet;
        let overlap = config
            .group_topology()
            .expect("a completed sweep cell has a valid topology")
            .overlap_degree();
        println!(
            "{:>12} {:>7} {:>8} {:>7} {:>12} {:>11} {:>9} {:>12} {:>10}",
            config.pod.name(),
            config.groups,
            overlap,
            if config.borrowing { "on" } else { "off" },
            pct(fleet.dram_savings_fraction()),
            pct(fleet.pool_dram_fraction()),
            fleet.vms_borrowed,
            outcome.cross_group_placements,
            fleet.fallback_all_local,
        );
    }
    println!(
        "\nat {} pool: sharding the fleet shrinks each group's statistical multiplexing \
         pool; overlap claws part of it back, and slice borrowing recovers more of it \
         than re-homing because the VM's host never leaves its home pod",
        pct(fraction)
    );
    println!(
        "paper: Pond's savings grow with pool scope (Figure 3); pods trade that for blast radius"
    );
}
