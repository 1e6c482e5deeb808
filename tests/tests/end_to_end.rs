//! End-to-end integration tests spanning the hardware, hypervisor, workload,
//! cluster, and control-plane crates.

use cluster_sim::scheduler::{AllLocal, FixedPoolFraction};
use cluster_sim::simulation::{Simulation, SimulationConfig};
use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
use cxl_hw::latency::{LatencyModel, LatencyScenario};
use cxl_hw::topology::PoolTopology;
use cxl_hw::units::Bytes;
use pond_core::control_plane::{ControlPlaneConfig, PondControlPlane};
use pond_core::policy::{PondPolicy, PondPolicyConfig};
use std::time::Duration;

fn small_trace() -> cluster_sim::ClusterTrace {
    TraceGenerator::new(ClusterConfig::small(), 1).generate(0)
}

fn medium_trace() -> cluster_sim::ClusterTrace {
    let config = ClusterConfig { servers: 24, duration_days: 12, ..ClusterConfig::small() };
    TraceGenerator::new(config, 1).generate(0)
}

/// The headline end-to-end result: Pond saves DRAM relative to no pooling
/// while keeping QoS violations near the configured target, and beats the
/// static strawman's savings-per-violation trade-off.
#[test]
fn pond_end_to_end_savings_and_qos() {
    let trace = medium_trace();
    let policy = PondPolicy::train(&trace, &PondPolicyConfig::default(), 11);
    let sim_config = SimulationConfig { pool_size_sockets: 16, ..Default::default() };

    let pond = Simulation::new(sim_config.clone(), policy).run(&trace);
    let baseline = Simulation::new(sim_config.clone(), AllLocal).run(&trace);
    let static15 = Simulation::new(sim_config, FixedPoolFraction::new(0.15)).run(&trace);

    // No pooling: no savings, no violations.
    assert_eq!(baseline.violations, 0);
    assert!(baseline.dram_savings_fraction().abs() < 1e-9);

    // Pond: meaningful savings at low violation rates.
    assert!(
        pond.dram_savings_fraction() > 0.02,
        "Pond should save DRAM: {}",
        pond.dram_savings_fraction()
    );
    assert!(
        pond.violation_fraction() < 0.08,
        "Pond should stay near its QoS target: {}",
        pond.violation_fraction()
    );

    // Pond saves at least as much as the static 15% strawman.
    assert!(
        pond.dram_savings_fraction() >= static15.dram_savings_fraction() - 0.01,
        "pond {} vs static {}",
        pond.dram_savings_fraction(),
        static15.dram_savings_fraction()
    );
}

/// The latency story that motivates small pools: a 16-socket Pond pool stays
/// close to the paper's 180 ns / 212% point and far below a switch-only design.
#[test]
fn latency_model_matches_paper_design_points() {
    let model = LatencyModel::default();
    let pond16 = PoolTopology::pond(16).unwrap();
    let latency = model.pool_access_latency(&pond16);
    assert!((175.0..=185.0).contains(&latency.as_nanos()));
    let switch16 = PoolTopology::switch_only(16).unwrap();
    assert!(model.pool_access_latency(&switch16).as_nanos() > latency.as_nanos() * 1.3);
    // The emulation scenarios bracket the Pond design points.
    assert!(LatencyScenario::Increase182.multiplier() < LatencyScenario::Increase222.multiplier());
}

/// Drives the full control plane (prediction, pool manager, hypervisor, QoS)
/// over a trace prefix and checks resource accounting stays consistent.
#[test]
fn control_plane_accounting_is_consistent() {
    let trace = small_trace();
    let config = ControlPlaneConfig { pool_capacity: Bytes::from_gib(256), ..Default::default() };
    let mut plane = PondControlPlane::new(&trace, config, 3).unwrap();

    let mut placed = Vec::new();
    for request in trace.requests.iter().take(80) {
        let now = Duration::from_secs(request.arrival);
        if let Ok(summary) = plane.handle_request(request, now) {
            assert_eq!(summary.local + summary.pool, request.memory);
            placed.push(summary.vm);
        }
    }
    assert!(!placed.is_empty());
    assert_eq!(plane.running_vms(), placed.len());

    // Pool capacity assigned to hosts covers what the hosts pinned (and
    // so onlined).
    let host_pool_pinned: Bytes = plane.hosts().iter().map(|h| h.pool_allocated()).sum();
    let pool_assigned = plane.pool().pool().assigned_capacity();
    assert!(
        pool_assigned >= host_pool_pinned,
        "pool assigned {pool_assigned} must cover host pinned {host_pool_pinned}"
    );

    // QoS pass and departures leave the system consistent.
    plane.run_qos_pass(Duration::from_secs(7200)).unwrap();
    for vm in placed {
        let _ = plane.handle_departure_split(vm, Duration::from_secs(1_000_000)).unwrap();
    }
    assert_eq!(plane.running_vms(), 0);
}

/// The workload suite, hypervisor spill model, and cluster simulator agree on
/// the zero-pool case: without pool memory nothing slows down.
#[test]
fn all_local_configuration_has_no_slowdowns_anywhere() {
    let trace = small_trace();
    let outcome = Simulation::new(SimulationConfig::default(), AllLocal).run(&trace);
    assert!(outcome.slowdowns.iter().all(|&s| s == 0.0));
    assert_eq!(outcome.sum_pool_peaks, Bytes::ZERO);
}

/// Determinism across the whole stack: the same seeds produce identical
/// simulation outcomes (a requirement for reproducible experiments).
#[test]
fn simulations_are_deterministic() {
    let trace = small_trace();
    let config = SimulationConfig::default();
    let a = Simulation::new(config.clone(), FixedPoolFraction::new(0.3)).run(&trace);
    let b = Simulation::new(config, FixedPoolFraction::new(0.3)).run(&trace);
    assert_eq!(a, b);
}

/// The parallel sweep runner reproduces the serial reference bit for bit
/// across the whole stack: trained Pond policy, QoS mitigation, several pool
/// sizes and traces, all fanned out over threads.
#[test]
fn parallel_pool_size_sweep_is_bit_identical_with_pond_policy() {
    let traces = TraceGenerator::new(ClusterConfig::small(), 2).generate_all();
    let policy = PondPolicy::train(&traces[0], &PondPolicyConfig::default(), 7);
    let config = SimulationConfig::default();
    let pool_sizes = [8u16, 32];
    let parallel =
        cluster_sim::pooling::pool_size_sweep(&traces, &pool_sizes, &config, || policy.clone());
    let serial =
        cluster_sim::pooling::pool_size_sweep_serial(&traces, &pool_sizes, &config, || {
            policy.clone()
        });
    assert_eq!(parallel, serial);
}
