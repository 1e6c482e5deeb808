//! Integration tests for the event-driven fleet replay: the control plane
//! driven through `cluster-sim`'s event core must agree with driving
//! [`PondControlPlane`] directly on the same request sequence, conserve pool
//! accounting at every event, and produce bit-identical sweeps.

use cluster_sim::source::TraceCursor;
use cluster_sim::sweep::parallel_map_with;
use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
use cluster_sim::ClusterTrace;
use cxl_hw::topology::PodStyle;
use cxl_hw::units::Bytes;
use hypervisor_sim::vm::VmId;
use pond_core::control_plane::PondControlPlane;
use pond_core::multipool::{
    multipool_sweep, run_multipool_fleet, GroupSchedulerKind, MultiPoolConfig,
};
use std::time::Duration;

fn small_trace() -> ClusterTrace {
    TraceGenerator::new(ClusterConfig::small(), 1).generate(0)
}

/// The single pool: one symmetric round-robin group sized to the trace.
fn single_pool(trace: &ClusterTrace, pool_fraction: f64) -> MultiPoolConfig {
    let scheduler = GroupSchedulerKind::RoundRobin;
    MultiPoolConfig::for_trace(trace, PodStyle::Symmetric, 1, pool_fraction, scheduler, 7)
}

/// Drives the control plane directly (no event queue) over the same merged
/// arrival/departure order the event core produces — departures before
/// arrivals at equal times, ties in request order — and returns the placement
/// fingerprint: (scheduled, rejected, fallbacks, pool GiB-hours).
fn drive_directly(trace: &ClusterTrace, config: &MultiPoolConfig) -> (u64, u64, u64, f64) {
    let mut plane = PondControlPlane::new(trace, config.control.clone(), config.seed).unwrap();

    // class 0 = departure, 1 = arrival, matching the event core's tie order.
    let mut events: Vec<(u64, u8, usize)> = Vec::new();
    for (index, request) in trace.requests.iter().enumerate() {
        events.push((request.arrival, 1, index));
    }
    events.sort_unstable_by_key(|&(time, class, index)| (time, class, index));

    let (mut scheduled, mut rejected, mut fallbacks, mut pool_gib_hours) = (0u64, 0u64, 0u64, 0.0);
    let mut pending_departures: Vec<(u64, usize)> = Vec::new();
    let mut cursor = 0;
    while cursor < events.len() {
        // Splice any departures due before (or at) this event's time into the
        // stream, earliest first, request order at ties.
        let (time, _, index) = events[cursor];
        pending_departures.sort_unstable();
        while let Some(&(dep_time, dep_index)) = pending_departures.first() {
            if dep_time > time {
                break;
            }
            pending_departures.remove(0);
            let vm = VmId(trace.requests[dep_index].id);
            let _ = plane.handle_departure_split(vm, Duration::from_secs(dep_time)).unwrap();
            plane.assert_pool_conserved();
        }
        let request = &trace.requests[index];
        match plane.handle_request(request, Duration::from_secs(time)) {
            Ok(summary) => {
                scheduled += 1;
                fallbacks += u64::from(summary.fallback_all_local);
                pool_gib_hours += summary.pool.as_gib_f64() * request.lifetime as f64 / 3600.0;
                pending_departures.push((request.departure(), index));
            }
            Err(_) => rejected += 1,
        }
        plane.assert_pool_conserved();
        cursor += 1;
    }
    // Drain the tail of departures after the last arrival.
    pending_departures.sort_unstable();
    for (dep_time, dep_index) in pending_departures {
        let vm = VmId(trace.requests[dep_index].id);
        let _ = plane.handle_departure_split(vm, Duration::from_secs(dep_time)).unwrap();
        plane.assert_pool_conserved();
    }
    assert_eq!(plane.running_vms(), 0);

    // After the offlining delays elapse, every slice is back in the buffer.
    plane.complete_releases(Duration::from_secs(u32::MAX as u64));
    plane.assert_pool_conserved();
    assert_eq!(plane.pool().available(), config.control.pool_capacity);

    (scheduled, rejected, fallbacks, pool_gib_hours)
}

/// The event-driven replay and the hand-driven control plane are two drivers
/// of the same machine: on the same request sequence (QoS passes disabled so
/// both see identical mutations) they must place, reject, and fall back
/// identically, down to the pool GiB-hours served.
#[test]
fn fleet_replay_agrees_with_driving_the_control_plane_directly() {
    let trace = small_trace();
    let mut config = single_pool(&trace, 0.20);
    config.qos_interval = 0;

    let fleet = run_multipool_fleet(&trace, &config).unwrap().fleet;
    let (scheduled, rejected, fallbacks, pool_gib_hours) = drive_directly(&trace, &config);

    assert_eq!(fleet.scheduled_vms, scheduled);
    assert_eq!(fleet.rejected_vms, rejected);
    assert_eq!(fleet.fallback_all_local, fallbacks);
    assert!(
        (fleet.pool_gib_hours - pool_gib_hours).abs() < 1e-9,
        "identical placements must serve identical pool GiB-hours: {} vs {}",
        fleet.pool_gib_hours,
        pool_gib_hours
    );
}

/// With QoS passes on, the replay exercises every mutation path (placement,
/// mitigation, async release) under the per-event conservation debug-asserts
/// inside the replay; reaching the end without a panic *is* the invariant,
/// and the end state must show a fully drained pool.
#[test]
fn fleet_replay_conserves_pool_accounting_with_qos_enabled() {
    let trace = small_trace();
    let config = single_pool(&trace, 0.20);
    let outcome = run_multipool_fleet(&trace, &config).unwrap().fleet;
    assert!(outcome.scheduled_vms > 0);
    assert!(outcome.qos_passes > 0);
    assert!(outcome.releases_completed > 0, "async releases must complete as events");
    assert!(outcome.pool_peak <= config.control.pool_capacity);
    assert!(outcome.sum_host_pool_peaks >= Bytes::ZERO);
}

/// The pool-fraction sweep on the parallel runner (default worker count)
/// must equal, cell for cell in fraction order, the same replays run
/// inline on the calling thread and on forced worker threads, so the
/// threaded path is checked even on a one-CPU machine.
#[test]
fn fleet_pool_sweep_is_deterministic() {
    let trace = small_trace();
    let fractions = [0.05, 0.20, 0.40];
    let configs: Vec<MultiPoolConfig> =
        fractions.iter().map(|&fraction| single_pool(&trace, fraction)).collect();
    let sweep = multipool_sweep(|| TraceCursor::new(&trace), &configs).unwrap();
    assert_eq!(sweep.len(), fractions.len());
    for workers in [1, 4] {
        let cells = parallel_map_with(workers, &configs, |_, config| {
            run_multipool_fleet(&trace, config).unwrap()
        });
        assert_eq!(cells.len(), fractions.len());
        for ((outcome, cell), &fraction) in sweep.iter().zip(&cells).zip(&fractions) {
            assert_eq!(outcome, cell, "pool {fraction} at {workers} workers");
        }
    }
}
