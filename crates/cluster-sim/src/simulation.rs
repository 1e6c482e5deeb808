//! The event-driven cluster simulator (§6.1 "Simulations").
//!
//! The simulator replays a [`ClusterTrace`] against a set of servers, lets a
//! [`MemoryPolicy`] decide every VM's local/pool split, and tracks the
//! quantities the paper's figures need: stranding snapshots, per-server and
//! per-pool peak memory (which determine how much DRAM would have to be
//! provisioned), pool usage in GiB-hours, QoS violations, and pool-release
//! events.
//!
//! Arrivals, departures, and snapshot ticks are processed as one strictly
//! time-ordered stream (see [`crate::event`]): a snapshot at time `t` sees
//! exactly the VMs live at `t`, and every departure — including those after
//! the final arrival — is drained and recorded before the run ends.

use crate::event::{Event, EventQueue};
use crate::pooling::required_dram_fraction;
use crate::scheduler::{align_pool_memory, MemoryPolicy, PlacementEngine};
use crate::source::TraceCursor;
use crate::trace::ClusterTrace;
use cxl_hw::latency::LatencyScenario;
use cxl_hw::units::Bytes;
use workload_model::spill::SpillModel;
use workload_model::WorkloadSuite;

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Pool size in CPU sockets (servers are dual-socket, so a 16-socket pool
    /// spans 8 servers). `0` means one pool spanning the whole cluster.
    pub pool_size_sockets: u16,
    /// Emulated CXL latency scenario used to evaluate VM slowdowns.
    pub scenario: LatencyScenario,
    /// Performance degradation margin: slowdowns above this are violations.
    pub pdm: f64,
    /// Whether server DRAM is a hard limit (true for stranding studies,
    /// false for DRAM-requirement analysis).
    pub enforce_memory_capacity: bool,
    /// Whether the QoS monitor converts violating VMs to all-local memory.
    pub qos_mitigation: bool,
    /// The smallest VM size sold, in cores (stranding threshold).
    pub min_vm_cores: u32,
    /// Interval between stranding snapshots, in seconds (`0` disables them).
    pub snapshot_interval: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            pool_size_sockets: 16,
            scenario: LatencyScenario::Increase182,
            pdm: 0.05,
            enforce_memory_capacity: false,
            qos_mitigation: true,
            min_vm_cores: 2,
            snapshot_interval: 86_400,
        }
    }
}

/// One stranding snapshot (the raw data behind Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct StrandingSample {
    /// Snapshot time in seconds since trace start.
    pub time: u64,
    /// Fraction of the cluster's cores allocated to VMs.
    pub scheduled_cores_fraction: f64,
    /// Stranded memory as a fraction of the cluster's DRAM.
    pub stranded_fraction: f64,
    /// Stranded memory per server (for rack-level aggregation).
    pub per_server_stranded: Vec<Bytes>,
}

/// A pool-release event: a departing VM returned this much pool memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolRelease {
    /// Time of the departure in seconds.
    pub time: u64,
    /// Pool capacity released.
    pub amount: Bytes,
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// Name of the memory policy that ran.
    pub policy: String,
    /// VMs successfully scheduled.
    pub scheduled_vms: u64,
    /// VMs that could not be placed.
    pub rejected_vms: u64,
    /// Sum over servers of each server's peak local-memory usage.
    pub sum_local_peaks: Bytes,
    /// Sum over pool groups of each group's peak pool usage — the pool DRAM
    /// that actually has to be provisioned.
    pub sum_pool_peaks: Bytes,
    /// Sum over servers of each server's peak pool usage — the DRAM the same
    /// pool-eligible memory would need if it could not be shared.
    pub sum_server_pool_peaks: Bytes,
    /// Sum over servers of each server's peak total (local + pool) usage —
    /// the DRAM a pool-less provisioning would need.
    pub sum_total_peaks: Bytes,
    /// GiB-hours of VM memory served from the pool.
    pub pool_gb_hours: f64,
    /// GiB-hours of VM memory overall.
    pub total_gb_hours: f64,
    /// Number of VMs whose slowdown exceeded the PDM (scheduling mispredictions).
    pub violations: u64,
    /// Number of violating VMs the QoS monitor reconfigured to all-local.
    pub mitigations: u64,
    /// Per-VM slowdowns (for distribution plots).
    pub slowdowns: Vec<f64>,
    /// Stranding snapshots over time.
    pub stranding_samples: Vec<StrandingSample>,
    /// Pool-release events (for offlining-rate analysis).
    pub pool_releases: Vec<PoolRelease>,
}

impl SimulationOutcome {
    /// Fraction of scheduled VMs that violated the PDM.
    pub fn violation_fraction(&self) -> f64 {
        if self.scheduled_vms == 0 {
            0.0
        } else {
            self.violations as f64 / self.scheduled_vms as f64
        }
    }

    /// Average fraction of VM memory served from the pool, weighted by GB-hours.
    pub fn pool_dram_fraction(&self) -> f64 {
        if self.total_gb_hours == 0.0 {
            0.0
        } else {
            self.pool_gb_hours / self.total_gb_hours
        }
    }

    /// Relative DRAM requirement (1.0 = no savings, lower is better):
    /// [`required_dram_fraction`] over the per-server total and pool peaks
    /// and the per-group pool peaks.
    pub fn required_dram_fraction(&self) -> f64 {
        required_dram_fraction(
            self.sum_total_peaks,
            self.sum_server_pool_peaks,
            self.sum_pool_peaks,
        )
    }

    /// DRAM savings relative to the pool-less baseline.
    pub fn dram_savings_fraction(&self) -> f64 {
        1.0 - self.required_dram_fraction()
    }
}

#[derive(Debug, Clone, Copy)]
struct ActiveVm {
    server: usize,
    cores: u32,
    pool: Bytes,
    group: usize,
}

/// Debug-build invariant: the incrementally maintained per-group and
/// per-server pool counters equal the sums over the live VMs' effective pool
/// memory. Runs after every event, so any drift is caught at the event that
/// introduced it.
#[cfg(debug_assertions)]
fn assert_pool_conservation(
    active: &std::collections::HashMap<u64, ActiveVm>,
    cur_pool: &[Bytes],
    cur_server_pool: &[Bytes],
) {
    let mut group_sums = vec![Bytes::ZERO; cur_pool.len()];
    let mut server_sums = vec![Bytes::ZERO; cur_server_pool.len()];
    for vm in active.values() {
        group_sums[vm.group] += vm.pool;
        server_sums[vm.server] += vm.pool;
    }
    assert_eq!(group_sums, cur_pool, "per-group pool accounting must match live VMs");
    assert_eq!(server_sums, cur_server_pool, "per-server pool accounting must match live VMs");
}

/// The cluster simulator.
#[derive(Debug)]
pub struct Simulation<P> {
    config: SimulationConfig,
    policy: P,
    suite: WorkloadSuite,
    spill: SpillModel,
}

impl<P: MemoryPolicy> Simulation<P> {
    /// Creates a simulator with the given configuration and memory policy.
    pub fn new(config: SimulationConfig, policy: P) -> Self {
        Simulation {
            config,
            policy,
            suite: WorkloadSuite::standard(),
            spill: SpillModel::default(),
        }
    }

    /// Read access to the policy (e.g. to inspect learned state after a run).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Runs the simulation over a trace and returns the aggregated outcome.
    pub fn run(&mut self, trace: &ClusterTrace) -> SimulationOutcome {
        let servers_per_group = if self.config.pool_size_sockets == 0 {
            trace.servers.max(1) as usize
        } else {
            ((self.config.pool_size_sockets as usize) / 2).max(1)
        };
        let group_count = (trace.servers as usize).div_ceil(servers_per_group);

        let mut engine = PlacementEngine::new(
            trace.servers,
            trace.cores_per_server,
            trace.dram_per_server,
            self.config.enforce_memory_capacity,
        );

        let mut peak_local = vec![Bytes::ZERO; trace.servers as usize];
        let mut cur_total = vec![Bytes::ZERO; trace.servers as usize];
        let mut peak_total = vec![Bytes::ZERO; trace.servers as usize];
        let mut cur_pool = vec![Bytes::ZERO; group_count];
        let mut peak_pool = vec![Bytes::ZERO; group_count];
        let mut cur_server_pool = vec![Bytes::ZERO; trace.servers as usize];
        let mut peak_server_pool = vec![Bytes::ZERO; trace.servers as usize];

        let mut active: std::collections::HashMap<u64, ActiveVm> = std::collections::HashMap::new();

        let mut outcome = SimulationOutcome {
            policy: self.policy.name().to_string(),
            scheduled_vms: 0,
            rejected_vms: 0,
            sum_local_peaks: Bytes::ZERO,
            sum_pool_peaks: Bytes::ZERO,
            sum_server_pool_peaks: Bytes::ZERO,
            sum_total_peaks: Bytes::ZERO,
            pool_gb_hours: 0.0,
            total_gb_hours: 0.0,
            violations: 0,
            mitigations: 0,
            slowdowns: Vec::with_capacity(trace.len()),
            stranding_samples: Vec::new(),
            pool_releases: Vec::new(),
        };

        let total_cores = trace.total_cores() as f64;
        let total_dram = trace.total_dram().as_u64() as f64;
        let min_vm_cores = self.config.min_vm_cores;

        let take_snapshot =
            |time: u64, engine: &PlacementEngine, outcome: &mut SimulationOutcome| {
                let (used, _total) = engine.core_usage();
                let per_server: Vec<Bytes> =
                    engine.servers().iter().map(|s| s.stranded_memory(min_vm_cores)).collect();
                let stranded: Bytes = per_server.iter().copied().sum();
                outcome.stranding_samples.push(StrandingSample {
                    time,
                    scheduled_cores_fraction: used as f64 / total_cores,
                    stranded_fraction: stranded.as_u64() as f64 / total_dram,
                    per_server_stranded: per_server,
                });
            };

        // The single time-ordered event loop: at equal times departures apply
        // first, then snapshots, then arrivals, so a snapshot at time `t`
        // observes exactly the VMs live at `t`. The queue keeps delivering
        // departures after the last arrival (and past the trace duration), so
        // every pooled VM's release is recorded.
        let mut events = EventQueue::new(TraceCursor::new(trace), self.config.snapshot_interval);
        while let Some(event) = events.next_event() {
            match event {
                // The departure token is the trace index the arrival passed
                // to `schedule_departure` below.
                Event::Departure { time, token } => {
                    let departed = &trace.requests[token];
                    // Departures are only scheduled for placed VMs, so the
                    // lookup can only miss on malformed traces that reuse an
                    // id (the later arrival overwrites the earlier entry);
                    // tolerate the orphan departure rather than abort.
                    let Some(vm) = active.remove(&departed.id) else { continue };
                    engine.remove(vm.server, departed.id, vm.cores);
                    cur_total[vm.server] = cur_total[vm.server].saturating_sub(departed.memory);
                    cur_pool[vm.group] = cur_pool[vm.group].saturating_sub(vm.pool);
                    cur_server_pool[vm.server] = cur_server_pool[vm.server].saturating_sub(vm.pool);
                    if !vm.pool.is_zero() {
                        outcome.pool_releases.push(PoolRelease { time, amount: vm.pool });
                    }
                }
                // This simulator models pool offlining and mitigation copies
                // as instantaneous and runs no failure or lifecycle drills,
                // so it never schedules completions or lifecycle operations;
                // those paths are exercised by `pond-core`'s fleet replays.
                Event::Completion { .. } | Event::Lifecycle { .. } => {}
                Event::Snapshot { time } => take_snapshot(time, &engine, &mut outcome),
                Event::Arrival { time: _, request_index } => {
                    let request = &trace.requests[request_index];

                    // Ask the policy for the local/pool split.
                    let pool = align_pool_memory(request, self.policy.pool_memory(request));
                    let local = request.memory - pool;

                    let Some((server, _placement)) = engine.place(request, local) else {
                        outcome.rejected_vms += 1;
                        continue;
                    };
                    outcome.scheduled_vms += 1;

                    // Ground-truth QoS outcome: how much of the touched
                    // working set spills onto pool memory, and the resulting
                    // slowdown.
                    let workload = self
                        .suite
                        .at(request.workload_index % self.suite.len())
                        .expect("workload index is taken modulo the suite size");
                    let spill_fraction =
                        SpillModel::spill_fraction(request.touched_memory(), local);
                    let slowdown =
                        self.spill.spill_slowdown(workload, self.config.scenario, spill_fraction);
                    let exceeded = slowdown > self.config.pdm;
                    self.policy.observe_outcome(request, slowdown, exceeded);
                    outcome.slowdowns.push(slowdown);

                    let mut effective_pool = pool;
                    if exceeded {
                        outcome.violations += 1;
                        if self.config.qos_mitigation && !pool.is_zero() {
                            // The QoS monitor migrates the VM to all-local memory.
                            let grown = engine.grow_local(server, request.id, pool);
                            debug_assert!(grown, "the VM was just placed on this server");
                            effective_pool = Bytes::ZERO;
                            outcome.mitigations += 1;
                        }
                    }

                    let group = (server / servers_per_group).min(group_count - 1);
                    active.insert(
                        request.id,
                        ActiveVm { server, cores: request.cores, pool: effective_pool, group },
                    );
                    events.schedule_departure(
                        request.departure(),
                        request_index as u64,
                        request_index,
                    );

                    // Update peaks and GiB-hour accounting.
                    cur_total[server] += request.memory;
                    cur_pool[group] += effective_pool;
                    cur_server_pool[server] += effective_pool;
                    peak_total[server] = peak_total[server].max(cur_total[server]);
                    peak_pool[group] = peak_pool[group].max(cur_pool[group]);
                    peak_server_pool[server] =
                        peak_server_pool[server].max(cur_server_pool[server]);
                    let local_now = engine.servers()[server].used_memory();
                    peak_local[server] = peak_local[server].max(local_now);

                    let hours = request.lifetime as f64 / 3600.0;
                    outcome.pool_gb_hours += effective_pool.as_gib_f64() * hours;
                    outcome.total_gb_hours += request.memory.as_gib_f64() * hours;
                }
            }

            // Conservation invariant, checked at every event in debug builds:
            // the incremental group/server pool counters must equal the sums
            // over the currently live VMs.
            #[cfg(debug_assertions)]
            assert_pool_conservation(&active, &cur_pool, &cur_server_pool);
        }
        debug_assert!(active.is_empty(), "every placed VM must have departed");
        debug_assert!(cur_pool.iter().all(|b| b.is_zero()), "all pool memory must be released");

        outcome.sum_local_peaks = peak_local.iter().copied().sum();
        outcome.sum_pool_peaks = peak_pool.iter().copied().sum();
        outcome.sum_server_pool_peaks = peak_server_pool.iter().copied().sum();
        outcome.sum_total_peaks = peak_total.iter().copied().sum();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{AllLocal, FixedPoolFraction};
    use crate::trace::{CustomerId, GuestOs, VmRequest, VmType};
    use crate::tracegen::{ClusterConfig, TraceGenerator};

    fn small_trace() -> ClusterTrace {
        TraceGenerator::new(ClusterConfig::small(), 1).generate(0)
    }

    /// A hand-built request: `untouched_fraction: 1.0` keeps the VM spill-free
    /// under any policy, so manual-trace tests never trip QoS machinery.
    fn manual_request(id: u64, arrival: u64, lifetime: u64, cores: u32, gib: u64) -> VmRequest {
        VmRequest {
            id,
            arrival,
            lifetime,
            cores,
            memory: Bytes::from_gib(gib),
            customer: CustomerId(0),
            vm_type: VmType::GeneralPurpose,
            guest_os: GuestOs::Linux,
            region: 0,
            workload_index: 0,
            untouched_fraction: 1.0,
        }
    }

    fn manual_trace(requests: Vec<VmRequest>, duration: u64) -> ClusterTrace {
        ClusterTrace {
            cluster_id: 0,
            servers: 1,
            cores_per_server: 8,
            dram_per_server: Bytes::from_gib(64),
            duration,
            requests,
        }
    }

    /// Regression (event core): every pooled VM's departure is drained and its
    /// release recorded — including departures after the final arrival, which
    /// the old drain-at-arrival loop silently dropped.
    #[test]
    fn every_pooled_vm_is_released_exactly_once() {
        // Three VMs whose departures all land after the last arrival.
        let trace = manual_trace(
            vec![
                manual_request(1, 0, 5_000, 2, 8),
                manual_request(2, 10, 5_000, 2, 8),
                manual_request(3, 20, 5_000, 2, 8),
            ],
            1_000,
        );
        let config = SimulationConfig { qos_mitigation: false, ..Default::default() };
        let outcome = Simulation::new(config, FixedPoolFraction::new(0.5)).run(&trace);
        assert_eq!(outcome.scheduled_vms, 3);
        // Each VM pooled 4 GiB; exactly one release per VM, at its departure.
        assert_eq!(outcome.pool_releases.len(), 3);
        for release in &outcome.pool_releases {
            assert_eq!(release.amount, Bytes::from_gib(4));
        }
        let times: Vec<u64> = outcome.pool_releases.iter().map(|r| r.time).collect();
        assert_eq!(times, vec![5_000, 5_010, 5_020]);
    }

    /// Regression (event core) on a generated trace: releases recorded after
    /// the last arrival prove the post-trace drain happens at all.
    #[test]
    fn departures_after_the_last_arrival_are_recorded() {
        let trace = small_trace();
        let config = SimulationConfig { qos_mitigation: false, ..Default::default() };
        let outcome = Simulation::new(config, FixedPoolFraction::new(0.5)).run(&trace);
        let last_arrival = trace.requests.last().expect("non-empty trace").arrival;
        assert!(
            outcome.pool_releases.iter().any(|r| r.time > last_arrival),
            "some VM outlives the last arrival and must still release its pool memory"
        );
    }

    /// Regression (event core): a snapshot at time `t` reflects exactly the
    /// VMs live at `t` — departures later than `t` must not be applied early,
    /// and departures before `t` must not linger.
    #[test]
    fn snapshots_interleave_with_departures_in_time_order() {
        // VM 1 occupies half the server's cores during [0, 150); VM 2 during
        // [250, 350). Snapshots tick at 100/200/300/400.
        let trace = manual_trace(
            vec![manual_request(1, 0, 150, 4, 8), manual_request(2, 250, 100, 4, 8)],
            400,
        );
        let config = SimulationConfig { snapshot_interval: 100, ..Default::default() };
        let outcome = Simulation::new(config, AllLocal).run(&trace);
        let fractions: Vec<(u64, f64)> = outcome
            .stranding_samples
            .iter()
            .map(|s| (s.time, s.scheduled_cores_fraction))
            .collect();
        assert_eq!(
            fractions,
            vec![(100, 0.5), (200, 0.0), (300, 0.5), (400, 0.0)],
            "snapshot at 100 must still see VM 1 (departs at 150); \
             snapshot at 400 must not see VM 2 (departed at 350)"
        );
    }

    /// Satellite: identical trace + config -> identical outcome, across
    /// several seeds and configurations (the event stream is fully ordered,
    /// so there is no source of nondeterminism left).
    #[test]
    fn identical_inputs_produce_identical_outcomes() {
        for seed in [0, 1, 2] {
            let trace = TraceGenerator::new(ClusterConfig::small(), 3).generate(seed);
            for config in [
                SimulationConfig::default(),
                SimulationConfig { enforce_memory_capacity: true, ..Default::default() },
                SimulationConfig { qos_mitigation: false, ..Default::default() },
            ] {
                let a = Simulation::new(config.clone(), FixedPoolFraction::new(0.4)).run(&trace);
                let b = Simulation::new(config, FixedPoolFraction::new(0.4)).run(&trace);
                assert_eq!(a, b, "seed {seed}");
            }
        }
    }

    /// Satellite: pool-memory conservation. The run loop asserts after every
    /// event (debug builds) that the incremental per-group and per-server
    /// pool counters equal the sums over live VMs — this test drives the
    /// paths that mutate them (placement, mitigation, departure) under
    /// configs where the invariant would drift if any update went missing.
    #[test]
    fn pool_accounting_is_conserved_at_every_event() {
        let trace = small_trace();
        for config in [
            SimulationConfig { qos_mitigation: true, ..Default::default() },
            SimulationConfig { qos_mitigation: false, ..Default::default() },
            SimulationConfig {
                enforce_memory_capacity: true,
                pool_size_sockets: 4,
                ..Default::default()
            },
        ] {
            let outcome = Simulation::new(config, FixedPoolFraction::new(0.5)).run(&trace);
            // After the full drain, everything allocated was released.
            let released: Bytes = outcome.pool_releases.iter().map(|r| r.amount).sum();
            let mitigated_or_zero = outcome.scheduled_vms - outcome.pool_releases.len() as u64;
            assert!(released > Bytes::ZERO);
            assert!(
                mitigated_or_zero >= outcome.mitigations,
                "VMs without a release are exactly the zero-pool and mitigated ones"
            );
        }
    }

    #[test]
    fn all_local_policy_uses_no_pool() {
        let trace = small_trace();
        let mut sim = Simulation::new(SimulationConfig::default(), AllLocal);
        let outcome = sim.run(&trace);
        assert!(outcome.scheduled_vms > 0);
        assert_eq!(outcome.sum_pool_peaks, Bytes::ZERO);
        assert_eq!(outcome.pool_dram_fraction(), 0.0);
        assert_eq!(outcome.violations, 0, "all-local VMs never slow down");
        assert!(outcome.dram_savings_fraction().abs() < 1e-9);
        assert_eq!(outcome.policy, "all-local");
    }

    #[test]
    fn fixed_fraction_moves_memory_to_the_pool() {
        let trace = small_trace();
        let config = SimulationConfig { qos_mitigation: false, ..Default::default() };
        // A 40% static split: aggressive enough that VMs with low untouched
        // memory spill far past the PDM, which is exactly Figure 16's lesson.
        let mut sim = Simulation::new(config, FixedPoolFraction::new(0.4));
        let outcome = sim.run(&trace);
        assert!(outcome.scheduled_vms > 0);
        assert!(outcome.sum_pool_peaks > Bytes::ZERO);
        let frac = outcome.pool_dram_fraction();
        assert!((0.25..=0.45).contains(&frac), "pool fraction {frac}");
        // Pooling should reduce the DRAM requirement relative to the baseline.
        assert!(outcome.required_dram_fraction() <= 1.0);
        // Some VMs spill and violate the PDM (Figure 16's lesson).
        assert!(outcome.violations > 0);
        assert!(!outcome.pool_releases.is_empty());
    }

    #[test]
    fn qos_mitigation_reduces_pool_usage_but_not_violations() {
        let trace = small_trace();
        let base = SimulationConfig { qos_mitigation: false, ..Default::default() };
        let with_qos = SimulationConfig { qos_mitigation: true, ..Default::default() };
        let out_plain = Simulation::new(base, FixedPoolFraction::new(0.5)).run(&trace);
        let out_qos = Simulation::new(with_qos, FixedPoolFraction::new(0.5)).run(&trace);
        assert_eq!(
            out_plain.violations, out_qos.violations,
            "mispredictions are counted either way"
        );
        assert!(out_qos.mitigations > 0);
        assert_eq!(out_plain.mitigations, 0);
        assert!(out_qos.pool_gb_hours < out_plain.pool_gb_hours);
    }

    #[test]
    fn larger_pools_do_not_increase_the_dram_requirement() {
        let trace = small_trace();
        let mut previous = f64::INFINITY;
        for pool_sockets in [2u16, 8, 16] {
            let config = SimulationConfig {
                pool_size_sockets: pool_sockets,
                qos_mitigation: false,
                ..Default::default()
            };
            let outcome = Simulation::new(config, FixedPoolFraction::new(0.5)).run(&trace);
            let required = outcome.required_dram_fraction();
            assert!(
                required <= previous + 1e-9,
                "pool of {pool_sockets} sockets requires {required}, more than smaller pool {previous}"
            );
            previous = required;
        }
    }

    #[test]
    fn stranding_snapshots_are_recorded() {
        let trace = small_trace();
        let config = SimulationConfig {
            enforce_memory_capacity: true,
            snapshot_interval: 6 * 3600,
            ..Default::default()
        };
        let outcome = Simulation::new(config, AllLocal).run(&trace);
        assert!(outcome.stranding_samples.len() >= 8, "3 days of 6-hour snapshots");
        for s in &outcome.stranding_samples {
            assert!((0.0..=1.0).contains(&s.scheduled_cores_fraction));
            assert!((0.0..=1.0).contains(&s.stranded_fraction));
            assert_eq!(s.per_server_stranded.len(), trace.servers as usize);
        }
    }

    #[test]
    fn outcome_accessors_are_consistent() {
        let trace = small_trace();
        let outcome = Simulation::new(
            SimulationConfig { qos_mitigation: false, ..Default::default() },
            FixedPoolFraction::new(0.2),
        )
        .run(&trace);
        let sharing_gain = outcome.sum_server_pool_peaks.saturating_sub(outcome.sum_pool_peaks);
        let required = outcome.sum_total_peaks.saturating_sub(sharing_gain);
        assert_eq!(
            outcome.required_dram_fraction(),
            required.as_u64() as f64 / outcome.sum_total_peaks.as_u64() as f64
        );
        assert!(outcome.sum_server_pool_peaks >= outcome.sum_pool_peaks);
        assert!(
            (outcome.violation_fraction()
                - outcome.violations as f64 / outcome.scheduled_vms as f64)
                .abs()
                < 1e-12
        );
        assert_eq!(outcome.slowdowns.len() as u64, outcome.scheduled_vms);
    }
}
