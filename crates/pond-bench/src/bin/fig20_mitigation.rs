//! Figure 20 (fleet replay): QoS mitigation behaviour of the full Pond
//! pipeline across CXL latency scenarios — how often ground-truth slowdowns
//! exceed the PDM, how many VMs the QoS monitor reconfigures back to
//! all-local memory, and the pool→local copy time those mitigations charge
//! to the event timeline (50 ms per GiB).

use cluster_sim::source::TraceCursor;
use cxl_hw::latency::LatencyScenario;
use cxl_hw::topology::PodStyle;
use pond_bench::{bench_trace, pct, print_header};
use pond_core::multipool::{multipool_sweep, GroupSchedulerKind, MultiPoolConfig};

fn main() {
    print_header(
        "Figure 20 (fleet replay)",
        "violation and mitigation rates vs. pool percentage, per latency scenario",
    );
    let trace = bench_trace();
    let fractions = [0.10, 0.20, 0.30];
    let cells: Vec<(LatencyScenario, f64)> = LatencyScenario::all()
        .into_iter()
        .flat_map(|scenario| fractions.map(|fraction| (scenario, fraction)))
        .collect();
    let (pod, scheduler) = (PodStyle::Symmetric, GroupSchedulerKind::RoundRobin);
    let configs: Vec<MultiPoolConfig> = cells
        .iter()
        .map(|&(scenario, fraction)| {
            let mut config = MultiPoolConfig::for_trace(&trace, pod, 1, fraction, scheduler, 20);
            config.control.policy.scenario = scenario;
            config
        })
        .collect();
    let outcomes =
        multipool_sweep(|| TraceCursor::new(&trace), &configs).expect("fleet replay must not fail");

    println!(
        "{:>13} {:>7} {:>11} {:>10} {:>11} {:>12} {:>11}",
        "scenario", "pool %", "violations", "mitigated", "mit. rate", "copy time", "DRAM saved"
    );
    for (&(scenario, fraction), outcome) in cells.iter().zip(&outcomes) {
        let o = &outcome.fleet;
        println!(
            "{:>13} {:>7} {:>11} {:>10} {:>11} {:>11.1}s {:>11}",
            scenario.to_string(),
            pct(fraction),
            pct(o.violation_fraction()),
            o.mitigations,
            pct(o.mitigation_rate()),
            o.mitigation_copy_time.as_secs_f64(),
            pct(o.dram_savings_fraction()),
        );
    }
    println!(
        "\npaper: Pond keeps scheduling mispredictions near the 2% target and the QoS \
         monitor reconfigures the mispredicted tail within its budget"
    );
}
