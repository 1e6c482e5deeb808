//! Quickstart: build a 16-socket Pond pool, train the prediction models on a
//! synthetic cluster trace, and schedule a handful of VMs through the full
//! control plane (prediction → pool onlining → zNUMA → QoS monitoring).
//!
//! Run with: `cargo run -p pond-examples --example quickstart`

use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
use cxl_hw::latency::LatencyModel;
use cxl_hw::topology::PoolTopology;
use pond_core::control_plane::{ControlPlaneConfig, PondControlPlane};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The hardware: a 16-socket Pond pool and its access latency.
    let topology = PoolTopology::pond(16)?;
    let latency = LatencyModel::default();
    println!(
        "16-socket Pond pool: {} access latency ({:.0}% of NUMA-local {})",
        latency.pool_access_latency(&topology),
        latency.pool_latency_percent(&topology),
        latency.local_dram_latency()
    );

    // 2. Train Pond's two prediction models on a synthetic cluster trace.
    let trace = TraceGenerator::new(ClusterConfig::small(), 1).generate(0);
    let mut plane = PondControlPlane::new(&trace, ControlPlaneConfig::default(), 42)?;
    println!(
        "control plane ready: {} hosts, {} pool capacity",
        plane.config().hosts,
        plane.pool().available()
    );

    // 3. Schedule the first 25 VM arrivals end to end.
    let mut placed = Vec::new();
    for request in trace.requests.iter().take(25) {
        let now = Duration::from_secs(request.arrival);
        match plane.handle_request(request, now) {
            Ok(summary) => {
                println!(
                    "placed {} on host {}: {} local + {} pool{}",
                    summary.vm,
                    summary.host,
                    summary.local,
                    summary.pool,
                    if summary.has_znuma { " (zNUMA)" } else { "" }
                );
                placed.push((summary.vm, request.departure()));
            }
            Err(err) => println!("could not place vm {}: {err}", request.id),
        }
    }

    // 4. One QoS pass: mitigate any VM whose prediction looks wrong.
    let pass = plane.run_qos_pass(Duration::from_secs(3600))?;
    println!(
        "QoS pass complete: {} VMs reconfigured to all-local memory ({:?} of copy time)",
        pass.reconfigured, pass.copy_time
    );

    // 5. Departures release pool slices asynchronously.
    for (vm, departure) in placed {
        let _ = plane.handle_departure_split(vm, Duration::from_secs(departure))?;
    }
    println!(
        "all VMs departed; {} of pool capacity still offlining, {} free",
        plane.pool().pending_release(),
        plane.pool().available()
    );
    Ok(())
}
