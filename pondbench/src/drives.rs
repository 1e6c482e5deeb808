//! Layer drives: single calls into each layer's public functions, timed
//! from outside the program on the traced run's own inputs.

use crate::report::{Metrics, TimeUnit};
use crate::spans::Trace;
use crate::stats::{proc_status_mib, Samples};
use crate::workload::{Input, Prepared};
use cluster_sim::event::{Event, EventQueue};
use cluster_sim::source::ArrivalSource;
use cluster_sim::trace::{CustomerId, VmRequest};
use cxl_hw::units::Bytes;
use hypervisor_sim::vm::VmId;
use pond_core::control_plane::{ControlPlaneConfig, PondControlPlane};
use pond_core::error::PondError;
use pond_core::multipool::GroupView;
use pond_core::policy::{PondDecision, PondPolicy};
use pond_core::sensitivity::{training_dataset, SensitivityModel};
use pond_core::untouched::{UntouchedMemoryModel, UntouchedModelConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use workload_model::WorkloadSuite;

/// Boosting rounds the policy's untouched-memory model trains with.
const UNTOUCHED_ROUNDS: usize = 50;

/// Threshold steps the sensitivity calibration sweeps.
const CALIBRATION_STEPS: usize = 200;

/// Every request of the input, in arrival order.
pub fn all_requests(prepared: &Prepared) -> Vec<VmRequest> {
    match &prepared.input {
        Input::Trace(trace) => trace.requests.clone(),
        Input::Stream(_) => {
            let mut source = prepared.source();
            let mut requests = Vec::with_capacity(prepared.requests as usize);
            while let Some(request) = source.next_request().expect("generator streams never fail") {
                requests.push(request);
            }
            requests
        }
    }
}

/// The control-plane configuration of pod `g`, as the replay builds it.
fn pod_config(prepared: &Prepared, g: usize) -> Result<ControlPlaneConfig, PondError> {
    let topology = prepared.config.group_topology()?;
    Ok(ControlPlaneConfig {
        hosts: topology.hosts_in(g),
        pool_capacity: topology.pool(g).total_capacity(),
        ..prepared.config.control.clone()
    })
}

/// The drives that need the traced replay's results: the source, the
/// event queue, training, and pod 0's policy and control plane.
pub fn after_replay(
    prepared: &Prepared,
    requests: &[VmRequest],
    trace: &Trace,
    metrics: &mut Metrics,
) -> Result<(), PondError> {
    source(prepared, metrics);
    queue(prepared, metrics);
    training(prepared, requests, metrics);
    // Pod 0's arrivals: ids ascend in arrival order in both lists.
    let mut ids = trace.group0_requests.iter().peekable();
    let pod: Vec<&VmRequest> = requests
        .iter()
        .filter(|r| {
            let hit = ids.peek() == Some(&&r.id);
            if hit {
                ids.next();
            }
            hit
        })
        .collect();
    policy(prepared, &pod, metrics);
    control_plane(prepared, &pod, metrics)
}

/// `PondControlPlane::with_policy` once per pod, then the group views and
/// the peak scan on those idle planes: one view build per request, and one
/// scan per arrival and per departure. Runs before any replay in the
/// process, so memory earlier replays freed cannot hide the planes'
/// resident-memory growth.
pub fn planes_and_scans(
    prepared: &Prepared,
    requests: &[VmRequest],
    metrics: &mut Metrics,
) -> Result<(), PondError> {
    let events = 2 * requests.len() as u64;
    let groups = usize::from(prepared.config.groups);
    let configs: Vec<ControlPlaneConfig> =
        (0..groups).map(|g| pod_config(prepared, g)).collect::<Result<_, _>>()?;
    let rss_before = proc_status_mib("VmRSS:").unwrap_or(0.0);
    let start = Instant::now();
    let mut planes = Vec::with_capacity(groups);
    for config in configs {
        planes.push(PondControlPlane::with_policy(config, prepared.policy.clone())?);
    }
    let build = start.elapsed();
    let rss_after = proc_status_mib("VmRSS:").unwrap_or(0.0);
    metrics.put("planes.build_s", build.as_secs_f64(), "s");
    metrics.put("planes.rss_mib", rss_after - rss_before, "MiB");

    // The view every arrival builds of every group, and the group choice.
    // The buffer is reused, so the timing covers the calls, not allocation.
    let mut scheduler = prepared.config.scheduler.build();
    let mut views: Vec<GroupView> = Vec::with_capacity(groups);
    let start = Instant::now();
    for request in requests {
        views.clear();
        views.extend(planes.iter().map(|plane| GroupView {
            pool_free: plane.pool().available(),
            most_free_host: plane.most_free_host().map_or(Bytes::ZERO, |(_, f)| f),
            tightest_feasible: plane.tightest_feasible_host(request.memory).map(|(_, f)| f),
            running_vms: plane.running_vms(),
        }));
        black_box(scheduler.choose(request, &views));
    }
    let viewing = start.elapsed();
    metrics.put("sched.groups", groups as f64, "count");
    metrics.put("sched.views_n", requests.len() as f64, "count");
    metrics.put(
        "sched.views_us_per_arrival",
        viewing.as_secs_f64() * 1e6 / requests.len().max(1) as f64,
        "us",
    );

    // The peak scan every event ends with: `drain_touched` on every plane.
    let mut peaks: Vec<Vec<u64>> = planes.iter().map(|p| vec![0; p.hosts().len()]).collect();
    let start = Instant::now();
    for _ in 0..events {
        for (plane, peak) in planes.iter_mut().zip(&mut peaks) {
            let dirty = plane.drain_touched(|i, host| {
                peak[i] = peak[i].max((host.local_allocated() + host.pool_allocated()).as_u64());
            });
            black_box(dirty);
        }
    }
    let scan = start.elapsed();
    metrics.put("peaks.scan_n", events as f64, "count");
    metrics.put("peaks.scan_us_per_event", scan.as_secs_f64() * 1e6 / events.max(1) as f64, "us");
    Ok(())
}

/// `ArrivalSource::next_request`, one call at a time, and the time to
/// produce the whole input from the generator.
fn source(prepared: &Prepared, metrics: &mut Metrics) {
    let generator = prepared.workload.generator(prepared.seed);
    let start = Instant::now();
    let produced = if prepared.workload.materialized() {
        generator.generate(0).requests.len() as u64
    } else {
        let mut stream = generator.stream(0);
        let mut count = 0u64;
        while stream.next_request().expect("generator streams never fail").is_some() {
            count += 1;
        }
        count
    };
    metrics.put("source.requests", produced as f64, "count");
    metrics.put("source.generate_s", start.elapsed().as_secs_f64(), "s");

    let mut source = prepared.source();
    let mut pulls = Samples::default();
    loop {
        let start = Instant::now();
        let next = source.next_request().expect("generator streams never fail");
        pulls.since(start);
        if black_box(next).is_none() {
            break;
        }
    }
    metrics.timing("source.pull_n", "source.pull_", &mut pulls, TimeUnit::Ns, Some(0.999));
}

/// `EventQueue::next_event` and `schedule_departure` with no control plane:
/// every arrival is scheduled to depart at its own departure time.
fn queue(prepared: &Prepared, metrics: &mut Metrics) {
    let mut events = EventQueue::new(prepared.source(), prepared.config.qos_interval);
    let mut next = Samples::default();
    let mut schedule = Samples::default();
    loop {
        let start = Instant::now();
        let event = events.next_event();
        next.since(start);
        let Some(event) = event else { break };
        if let Event::Arrival { request_index, .. } = event {
            let request = events.take_arrival();
            let start = Instant::now();
            events.schedule_departure(request.departure(), request_index as u64, request_index);
            schedule.since(start);
        }
    }
    metrics.timing("queue.next_n", "queue.next_", &mut next, TimeUnit::Ns, None);
    metrics.timing("queue.schedule_n", "queue.schedule_", &mut schedule, TimeUnit::Ns, None);
}

/// The two models the policy trains, timed apart, on the same prefix and
/// with the same calls `PondPolicy::train` makes.
fn training(prepared: &Prepared, requests: &[VmRequest], metrics: &mut Metrics) {
    let config = &prepared.config.control.policy;
    let seed = prepared.config.seed;
    let total = requests.len();
    let rows = ((total as f64 * config.training_fraction).round().max(1.0) as usize).min(total);
    let suite = WorkloadSuite::standard();

    let start = Instant::now();
    let mut sensitivity = SensitivityModel::train(&suite, &config.sensitivity, seed);
    let data = training_dataset(&suite, &config.sensitivity, seed ^ 0xA5);
    let (_, validation) = data.train_test_split(0.5, seed ^ 0x5A);
    sensitivity.calibrate_threshold(&validation, config.sensitivity_fp_budget(), CALIBRATION_STEPS);
    let sensitivity_s = start.elapsed().as_secs_f64();
    black_box(sensitivity);

    let start = Instant::now();
    let untouched = UntouchedMemoryModel::train(
        &requests[..rows],
        &UntouchedModelConfig { quantile: config.untouched_quantile, rounds: UNTOUCHED_ROUNDS },
        seed,
    );
    let untouched_s = start.elapsed().as_secs_f64();
    black_box(untouched);

    metrics.put("train.rows", rows as f64, "count");
    metrics.put("train.sensitivity_s", sensitivity_s, "s");
    metrics.put("train.untouched_s", untouched_s, "s");
}

/// `PondPolicy::try_decide` at each of pod 0's arrivals and
/// `record_completion` at each of their departures, in time order
/// (departures first at equal times).
fn policy(prepared: &Prepared, pod: &[&VmRequest], metrics: &mut Metrics) {
    let mut policy = prepared.policy.clone();
    let mut decide = Samples::default();
    let mut record = Samples::default();
    let (mut fully_pool, mut znuma, mut all_local) = (0u64, 0u64, 0u64);
    let mut departures: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut complete = |policy: &mut PondPolicy, request: &VmRequest| {
        let start = Instant::now();
        policy.record_completion(
            request.customer,
            request.untouched_fraction,
            request.workload_index,
        );
        record.since(start);
    };
    for (i, request) in pod.iter().enumerate() {
        while let Some(&Reverse((time, j))) = departures.peek() {
            if time > request.arrival {
                break;
            }
            departures.pop();
            complete(&mut policy, pod[j]);
        }
        let start = Instant::now();
        let decision = policy.try_decide(request);
        decide.since(start);
        match decision.expect("serving features match the trained schemas") {
            PondDecision::FullyPool => fully_pool += 1,
            PondDecision::Znuma { .. } => znuma += 1,
            PondDecision::AllLocal => all_local += 1,
        }
        departures.push(Reverse((request.departure(), i)));
    }
    while let Some(Reverse((_, j))) = departures.pop() {
        complete(&mut policy, pod[j]);
    }
    let customers = prepared.workload.generator(prepared.seed).config().customers;
    let history_max =
        (0..customers).map(|c| policy.history().count(CustomerId(c))).max().unwrap_or(0);
    metrics.timing("policy.decide_n", "policy.decide_", &mut decide, TimeUnit::Ns, Some(0.999));
    metrics.timing("policy.record_n", "policy.record_", &mut record, TimeUnit::Ns, Some(0.999));
    metrics.put("policy.history_max", history_max as f64, "count");
    metrics.put("policy.fully_pool", fully_pool as f64, "count");
    metrics.put("policy.znuma", znuma as f64, "count");
    metrics.put("policy.all_local", all_local as f64, "count");
}

/// Event times are whole seconds; sub-second completions land on the next.
fn ceil_secs(duration: Duration) -> u64 {
    duration.as_secs() + u64::from(duration.subsec_nanos() > 0)
}

/// Pod 0's control plane driven directly, without the event queue: its
/// arrivals, their departures, the asynchronous releases they start and
/// QoS passes at the replay's cadence, merged in the event core's tie order
/// (departure, release, QoS pass, arrival).
fn control_plane(
    prepared: &Prepared,
    pod: &[&VmRequest],
    metrics: &mut Metrics,
) -> Result<(), PondError> {
    let mut plane =
        PondControlPlane::with_policy(pod_config(prepared, 0)?, prepared.policy.clone())?;
    let interval = prepared.config.qos_interval;
    let horizon = prepared.source().header().duration;
    let mut next_qos = if interval == 0 { u64::MAX } else { interval.min(horizon) };
    let mut departures: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut releases: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    let (mut request_t, mut departure_t, mut release_t) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut arrivals = pod.iter().enumerate().peekable();
    loop {
        let departure = departures.peek().map(|&Reverse((t, _))| t);
        let release = releases.peek().map(|&Reverse(t)| t);
        let arrival = arrivals.peek().map(|(_, r)| r.arrival);
        let candidates = [
            (departure, 1u8),
            (release, 2),
            ((next_qos != u64::MAX).then_some(next_qos), 4),
            (arrival, 5),
        ];
        let Some((time, class)) =
            candidates.into_iter().filter_map(|(t, c)| t.map(|t| (t, c))).min()
        else {
            break;
        };
        let now = Duration::from_secs(time);
        match class {
            1 => {
                let Reverse((_, i)) = departures.pop().expect("peeked departure");
                let start = Instant::now();
                let outcome = plane.handle_departure_split(VmId(pod[i].id), now)?;
                departure_t.since(start);
                if let Some(ready) = outcome.release_ready {
                    releases.push(Reverse(ceil_secs(ready)));
                }
            }
            2 => {
                releases.pop();
                let start = Instant::now();
                black_box(plane.complete_releases(now));
                release_t.since(start);
            }
            4 => {
                next_qos = if time >= horizon { u64::MAX } else { (time + interval).min(horizon) };
                for mitigation in plane.run_qos_pass(now)?.mitigated {
                    if let Some(ready) = mitigation.release_ready {
                        releases.push(Reverse(ceil_secs(ready)));
                    }
                }
            }
            _ => {
                let (i, request) = arrivals.next().expect("peeked arrival");
                let start = Instant::now();
                let placed = plane.handle_request(request, now);
                request_t.since(start);
                if placed.is_ok() {
                    departures.push(Reverse((request.departure(), i)));
                }
            }
        }
    }
    metrics.timing("cp.request_n", "cp.request_", &mut request_t, TimeUnit::Us, Some(0.999));
    metrics.timing("cp.departure_n", "cp.departure_", &mut departure_t, TimeUnit::Us, None);
    metrics.timing("cp.releases_n", "cp.releases_", &mut release_t, TimeUnit::Us, None);
    metrics.put("cp.stage_failures", plane.rejected_vms() as f64, "count");
    Ok(())
}
