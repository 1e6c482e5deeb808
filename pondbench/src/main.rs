//! Benchmark of the sharded multipool Pond replay on fleets that really pool.
//!
//! ```text
//! cargo run --release --manifest-path pondbench/Cargo.toml -- \
//!     --workload <wide|long|drill> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up three times, replaying it untraced after
//! each set-up and then until the replays have taken `--seconds`, and prints
//! the end-to-end metrics (median set-up time, median replay throughput);
//! both are timed in the thread's on-CPU seconds (see `stats::Stopwatch`). `--trace 1` runs a traced replay between
//! two untraced ones plus the layer drives and prints the per-layer metrics.
//! Every replay's outcome is checked (see `checks.rs`); a failed check
//! prints no metric and exits non-zero. The last stdout line is the JSON
//! result. `README.md` beside this file describes the workloads and metrics.

mod checks;
mod drives;
mod names;
mod report;
mod spans;
mod stats;
mod workload;

use checks::{check_outcome, fingerprint, popped_events};
use names::{END_TO_END, PER_LAYER};
use pond_core::multipool::MultiPoolOutcome;
use pond_metrics::LadderRung;
use report::{Metrics, TimeUnit};
use spans::{SpanRecorder, Trace, ACCOUNTING_TOLERANCE, EVENT_CLASSES, RUNGS};
use stats::{median, proc_status_mib, Elapsed, Stopwatch};
use std::process::ExitCode;
use workload::{Prepared, Workload};

/// The input seed when `--seed` is not given: the trace generator's own
/// default.
const DEFAULT_SEED: u64 = cluster_sim::tracegen::TraceGenerator::DEFAULT_SEED;

/// Set-ups per untraced run, each followed by a replay: `setup_s` is the
/// median of these, and `events_per_s` a median of at least this many
/// replays, so one slow set-up or replay cannot move either.
const SETUPS: usize = 3;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required (wide, long or drill)")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("pondbench: {error}");
            eprintln!(
                "usage: pondbench --workload <wide|long|drill> [--seed <n>] [--seconds <n>] \
                 [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "pondbench: workload {} seed {} (default {DEFAULT_SEED}) seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace { traced(&args) } else { untraced(&args) };
    match result {
        Ok((metrics, attempted)) => {
            println!("{}", metrics.json(true, attempted, 0));
            ExitCode::SUCCESS
        }
        Err(Failure { errors, attempted, failed }) => {
            for error in &errors {
                eprintln!("pondbench: check failed: {error}");
            }
            println!("{}", Metrics::default().json(false, attempted.max(1), failed.max(1)));
            ExitCode::FAILURE
        }
    }
}

/// A run that failed a check or errored: it reports no metric.
struct Failure {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Failure {
    fn one(error: impl ToString) -> Failure {
        Failure { errors: vec![error.to_string()], attempted: 1, failed: 1 }
    }
}

/// One-line summary of an outcome, to stderr.
fn describe(outcome: &MultiPoolOutcome) -> String {
    let f = &outcome.fleet;
    format!(
        "scheduled={} rejected={} fallbacks={} saved={:.3}% violations={} killed={} \
         migrated={} drained={} rebalanced={} borrowed={} failures={}",
        f.scheduled_vms,
        f.rejected_vms,
        f.fallback_all_local,
        100.0 * f.dram_savings_fraction(),
        f.violations,
        f.vms_killed,
        f.vms_migrated,
        f.vms_drained,
        f.vms_rebalanced,
        f.vms_borrowed,
        f.emc_failures,
    )
}

/// Wall and on-CPU time, for stderr.
fn describe_time(elapsed: Elapsed) -> String {
    match elapsed.cpu {
        Some(cpu) => format!("{cpu:.3} s on CPU ({:.3} s wall)", elapsed.wall),
        None => format!("{:.3} s wall (no per-thread CPU time; wall time is used)", elapsed.wall),
    }
}

/// Share of requests rejected or killed.
fn failed_fraction(outcome: &MultiPoolOutcome, requests: u64) -> f64 {
    let f = &outcome.fleet;
    (f.rejected_vms + f.vms_killed) as f64 / requests.max(1) as f64
}

/// The untraced run: `SETUPS` rounds of set-up then replay, so the timed
/// replays sample the machine across the whole run, then more replays until
/// the replays have taken `--seconds` in all.
fn untraced(args: &Args) -> Result<(Metrics, u64), Failure> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    let mut rates = Vec::new();
    let mut replay_secs = 0.0;
    let mut errors = Vec::new();
    let mut failed = 0u64;
    let mut first: Option<(String, MultiPoolOutcome)> = None;
    while setups.len() < SETUPS || replay_secs < args.seconds {
        if setups.len() < SETUPS {
            drop(prepared.take());
            let watch = Stopwatch::start();
            let fresh = Prepared::set_up(args.workload, args.seed);
            let elapsed = watch.elapsed();
            eprintln!(
                "set-up: {}; {} requests; peak RSS so far {:.1} MiB",
                describe_time(elapsed),
                fresh.requests,
                proc_status_mib("VmHWM:").unwrap_or(0.0)
            );
            setups.push(elapsed.secs());
            prepared = Some(fresh);
        }
        let prepared = prepared.as_ref().expect("set up before the first replay");
        let (outcome, elapsed) = prepared.replay().map_err(Failure::one)?;
        replay_secs += elapsed.wall;
        let mut replay_errors = check_outcome(&outcome, prepared.requests);
        let print = fingerprint(&outcome);
        match &first {
            None => {
                eprintln!("outcome: {}", describe(&outcome));
                first = Some((print, outcome.clone()));
            }
            Some((expected, _)) if *expected != print => {
                replay_errors.push("a repeated replay's outcome differs".to_string());
            }
            Some(_) => {}
        }
        let events = popped_events(&outcome, &prepared.config);
        let rate = events as f64 / elapsed.secs();
        eprintln!(
            "replay {}: {}, {events} events, {rate:.0} events/s",
            rates.len() + 1,
            describe_time(elapsed)
        );
        rates.push(rate);
        failed += u64::from(!replay_errors.is_empty());
        errors.extend(replay_errors);
    }
    let prepared = prepared.expect("at least one set-up");
    let attempted = rates.len() as u64;
    if !errors.is_empty() {
        return Err(Failure { errors, attempted, failed });
    }
    let (_, outcome) = first.expect("at least one replay");
    let fleet = &outcome.fleet;
    let mut metrics = Metrics::default();
    metrics.put("events_per_s", median(&rates), "1/s");
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("peak_rss_mib", proc_status_mib("VmHWM:").unwrap_or(0.0), "MiB");
    metrics.put("dram_saved_pct", 100.0 * fleet.dram_savings_fraction(), "%");
    metrics.put("served_pct", 100.0 * (1.0 - failed_fraction(&outcome, prepared.requests)), "%");
    metrics.put("pdm_met_pct", 100.0 * (1.0 - fleet.violation_fraction()), "%");
    metrics.put("availability_pct", 100.0 * fleet.availability(), "%");
    let metrics = metrics.ordered(&END_TO_END).map_err(Failure::one)?;
    metrics.print();
    Ok((metrics, attempted))
}

/// The traced run: the planes drive, a traced replay between two untraced
/// ones, the outcome and accounting checks, then the remaining layer drives.
fn traced(args: &Args) -> Result<(Metrics, u64), Failure> {
    let prepared = Prepared::set_up(args.workload, args.seed);
    let requests = drives::all_requests(&prepared);
    let mut metrics = Metrics::default();
    eprintln!("layer drives:");
    drives::planes_and_scans(&prepared, &requests, &mut metrics).map_err(Failure::one)?;

    // Untraced, traced, untraced: the overhead is taken against the mean of
    // the two untraced replays, so a slow drift of the machine cancels.
    let (untraced, before) = prepared.replay().map_err(Failure::one)?;
    let mut recorder = SpanRecorder::default();
    let (traced, traced_wall) = prepared.replay_traced(&mut recorder).map_err(Failure::one)?;
    let mut trace = recorder.finish();
    let (untraced_again, after) = prepared.replay().map_err(Failure::one)?;
    let (before, after) = (before.wall, after.wall);
    let untraced_wall = (before + after) / 2.0;
    eprintln!("untraced replays {before:.3} s and {after:.3} s, traced {traced_wall:.3} s");
    eprintln!("outcome: {}", describe(&traced));

    let mut errors = check_outcome(&untraced, prepared.requests);
    errors.extend(check_outcome(&traced, prepared.requests));
    if fingerprint(&traced) != fingerprint(&untraced)
        || fingerprint(&untraced_again) != fingerprint(&untraced)
    {
        errors.push("the traced outcome differs from the untraced outcome".to_string());
    }
    let numerator = popped_events(&untraced, &prepared.config);
    if numerator != trace.pops {
        errors
            .push(format!("events_per_s numerator {numerator} != traced pop count {}", trace.pops));
    }
    if trace.nesting_errors > 0 {
        errors.push(format!("{} spans fall outside their parent", trace.nesting_errors));
    }
    if trace.accounting_error() > ACCOUNTING_TOLERANCE {
        errors.push(format!(
            "prelude + self times + tail = {} ns, wall {} ns: off by more than {}%",
            trace.accounted_ns(),
            trace.wall_ns,
            100.0 * ACCOUNTING_TOLERANCE
        ));
    }
    if !errors.is_empty() {
        let failed = errors.len() as u64;
        return Err(Failure { errors, attempted: 3, failed });
    }
    eprintln!(
        "trace: {} pops; wall {:.3} s = prelude {:.3} + spans {:.3} + tail {:.3} \
         (accounting error {:.2e}); untraced {:.3} s (mean)",
        trace.pops,
        traced_wall,
        trace.prelude_ns as f64 / 1e9,
        trace.spans_ns as f64 / 1e9,
        trace.tail_ns as f64 / 1e9,
        trace.accounting_error(),
        untraced_wall,
    );
    replay_metrics(&prepared, &traced, &mut trace, traced_wall / untraced_wall, &mut metrics);
    drives::after_replay(&prepared, &requests, &trace, &mut metrics).map_err(Failure::one)?;
    let metrics = metrics.ordered(&PER_LAYER).map_err(Failure::one)?;
    metrics.print();
    Ok((metrics, 3))
}

/// The per-layer metrics the traced replay itself yields: the prelude and
/// tail, per-class time, the ladder's spans and rungs, QoS passes,
/// relocations, the outcome shares the rungs explain, and the tracing
/// overhead (`slowdown` is traced ÷ untraced wall time).
fn replay_metrics(
    prepared: &Prepared,
    outcome: &MultiPoolOutcome,
    trace: &mut Trace,
    slowdown: f64,
    metrics: &mut Metrics,
) {
    metrics.put("replay.prelude_s", trace.prelude_ns as f64 / 1e9, "s");
    metrics.put("replay.tail_s", trace.tail_ns as f64 / 1e9, "s");
    eprintln!("  per event class (pops, inclusive s, self s):");
    for class in EVENT_CLASSES {
        let (count, ns) = trace.inclusive.get(class).copied().unwrap_or((0, 0));
        let own = trace.self_ns.get(class).copied().unwrap_or(0);
        metrics.put(format!("event.{class}.count"), count as f64, "count");
        metrics.put(format!("event.{class}.s"), ns as f64 / 1e9, "s");
        eprintln!("    {class:<15} {count:>9} {:>9.3} {:>9.3}", ns as f64 / 1e9, own as f64 / 1e9);
    }
    let mut samples = std::mem::take(&mut trace.child_samples);
    let mut child = |name: &str| samples.remove(name).unwrap_or_default();
    let us = TimeUnit::Us;
    let (mut place, mut commit) = (child("arrival.place"), child("arrival.commit"));
    let (mut qos, mut relocate) = (child("qos.pass"), child("relocate"));
    metrics.timing("arrival.place_n", "arrival.place_", &mut place, us, Some(0.999));
    metrics.timing("arrival.commit_n", "arrival.commit_", &mut commit, us, Some(0.999));
    metrics.timing("qos.passes", "qos.pass_", &mut qos, us, Some(0.99));
    metrics.timing("relocate.n", "relocate.", &mut relocate, us, Some(0.999));
    metrics.put("relocate.moves", trace.moves as f64, "count");
    metrics.put("relocate.killed", trace.killed as f64, "count");

    let decisions: u64 = trace.rungs.values().sum();
    for rung in RUNGS {
        let count = trace.rungs.get(rung.name()).copied().unwrap_or(0);
        metrics.put(format!("rung.{}", rung.name()), count as f64, "count");
    }
    let pooled: u64 =
        [LadderRung::PooledHome, LadderRung::BorrowedNeighbor, LadderRung::PooledNeighbor]
            .iter()
            .map(|rung| trace.rungs.get(rung.name()).copied().unwrap_or(0))
            .sum();
    metrics.put("rung.pooled_ratio", pooled as f64 / decisions.max(1) as f64, "ratio");
    let fleet = &outcome.fleet;
    metrics.put(
        "fallback_pct",
        100.0 * fleet.fallback_all_local as f64 / fleet.scheduled_vms.max(1) as f64,
        "%",
    );
    metrics.put("failed_pct", 100.0 * failed_fraction(outcome, prepared.requests), "%");
    metrics.put("pdm_violation_pct", 100.0 * fleet.violation_fraction(), "%");
    metrics.put("trace.overhead_pct", 100.0 * (slowdown - 1.0), "%");
}
