//! The three benchmark workloads: fleet shape, pooling setup, trace source,
//! and the set-up / replay steps every mode shares.
//!
//! All three shard the fleet into 16-host pods on 16-socket pools, so each
//! pod's hosts fit its 16 CXL ports and the fleet really pools. Borrowing is
//! on, QoS passes run every 6 h, and the policy trains on the first
//! min(40%, 32,768) requests. `README.md` beside this file says why each
//! workload exists and which layer it loads.

use crate::spans::SpanRecorder;
use crate::stats::{Elapsed, Stopwatch};
use cluster_sim::source::{summarize, ArrivalSource, SourceError, TraceCursor, TraceHeader};
use cluster_sim::trace::{ClusterTrace, VmRequest};
use cluster_sim::tracegen::{ClusterConfig, GeneratorSource, TraceGenerator};
use cxl_hw::topology::PodStyle;
use cxl_hw::units::Bytes;
use pond_core::error::PondError;
use pond_core::multipool::{
    run_multipool_source, run_multipool_source_observed, DrillKind, FailureDrillSpec,
    GroupSchedulerKind, LifecycleEvent, LifecycleOp, LifecyclePlan, MultiPoolConfig,
    MultiPoolOutcome, RebalanceSpec,
};
use pond_core::policy::PondPolicy;
use std::time::Instant;

/// Hosts per pod: one per CXL port of a 16-socket pool.
const HOSTS_PER_POD: u32 = 16;

/// Seed of the prediction models and telemetry sampling. Fixed, so the
/// `--seed` argument varies only the inputs (trace and failure drill).
const MODEL_SEED: u64 = 7;

/// The cap on the materialized training prefix.
const MAX_TRAINING_ROWS: f64 = 32_768.0;

/// Seconds between QoS passes.
const QOS_INTERVAL_SECS: u64 = 6 * 3_600;

/// Mean time to repair a failed EMC in the `drill` workload.
const DRILL_MTTR_SECS: u64 = 6 * 3_600;

/// EMC failures per simulated day across the `drill` fleet.
const DRILL_FAILURES_PER_DAY: f64 = 16.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8,192 servers × 1 day in 512 Octopus pods: the per-arrival group
    /// scan and the per-event peak scan are O(pods) and dominate.
    Wide,
    /// 64 servers × 1,095 days in 4 pods, streamed and never materialized:
    /// per-VM work and customer histories that grow with the horizon.
    Long,
    /// 256 servers × 180 days in 16 pods under an EMC failure drill, a
    /// lifecycle plan and rebalancing: the only workload that relocates VMs.
    Drill,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Wide, Workload::Long, Workload::Drill];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Wide => "wide",
            Workload::Long => "long",
            Workload::Drill => "drill",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn servers(self) -> u32 {
        match self {
            Workload::Wide => 8_192,
            Workload::Long => 64,
            Workload::Drill => 256,
        }
    }

    fn days(self) -> u32 {
        match self {
            Workload::Wide => 1,
            Workload::Long => 1_095,
            Workload::Drill => 180,
        }
    }

    /// Whether the trace is generated up front (`wide`, `drill`) or streamed
    /// from the generator on every pass (`long`).
    pub fn materialized(self) -> bool {
        !matches!(self, Workload::Long)
    }

    /// The trace generator for `seed`.
    pub fn generator(self, seed: u64) -> TraceGenerator {
        let cluster = ClusterConfig {
            servers: self.servers(),
            duration_days: self.days(),
            ..ClusterConfig::azure_like()
        };
        TraceGenerator::new(cluster, 1).with_seed(seed)
    }

    /// The multipool configuration for a trace of `requests` requests.
    fn config(self, header: &TraceHeader, requests: u64, seed: u64) -> MultiPoolConfig {
        let groups = u16::try_from(self.servers() / HOSTS_PER_POD).expect("pod count fits u16");
        let (pool_fraction, scheduler) = match self {
            Workload::Wide | Workload::Long => (0.20, GroupSchedulerKind::TightestFit),
            Workload::Drill => (0.30, GroupSchedulerKind::RoundRobin),
        };
        let mut config = MultiPoolConfig::for_header(
            header,
            PodStyle::Octopus,
            groups,
            pool_fraction,
            scheduler,
            MODEL_SEED,
        )
        .with_borrowing(true);
        config.qos_interval = QOS_INTERVAL_SECS;
        let policy = &mut config.control.policy;
        policy.training_fraction =
            policy.training_fraction.min(MAX_TRAINING_ROWS / requests.max(1) as f64);
        if self == Workload::Drill {
            // `fig_lifecycle`'s `full` phase, scaled up: three-quarter local
            // DRAM so drains and rebalances move real load.
            let local = &mut config.control.local_dram_per_host;
            *local = Bytes::from_gib(local.as_gib() * 3 / 4);
            let duration = header.duration;
            config = config
                .with_drill(FailureDrillSpec {
                    rate_per_day: DRILL_FAILURES_PER_DAY,
                    kind: DrillKind::EmcWithRepair { mttr_secs: DRILL_MTTR_SECS },
                    seed,
                })
                .with_lifecycle(LifecyclePlan {
                    events: vec![
                        LifecycleEvent {
                            time: duration / 3,
                            op: LifecycleOp::ExpandGroup {
                                group: 0,
                                capacity: Bytes::from_gib(32),
                            },
                        },
                        LifecycleEvent {
                            time: duration / 2,
                            op: LifecycleOp::DecommissionGroup { group: 3 },
                        },
                    ],
                })
                .with_rebalance(RebalanceSpec { starved_fraction: 0.10, max_moves_per_pass: 2 });
        }
        config
    }
}

/// The replay input: a materialized trace or a generator to stream from.
pub enum Input {
    /// The whole trace, generated during set-up.
    Trace(ClusterTrace),
    /// The generator; each pass re-streams the same requests.
    Stream(TraceGenerator),
}

/// Everything one set-up produces: the input, its size, the configuration,
/// and the trained policy.
pub struct Prepared {
    /// The workload this was prepared for.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// The replay input.
    pub input: Input,
    /// Requests in the input.
    pub requests: u64,
    /// The multipool configuration.
    pub config: MultiPoolConfig,
    /// The trained policy, cloned into every replay.
    pub policy: PondPolicy,
}

impl Prepared {
    /// The set-up `setup_s` measures: trace generation (materialized) or a
    /// counting pass over the stream (streamed), then policy training on the
    /// capped prefix.
    pub fn set_up(workload: Workload, seed: u64) -> Prepared {
        let generator = workload.generator(seed);
        let (input, requests, header) = if workload.materialized() {
            let trace = generator.generate(0);
            let requests = trace.requests.len() as u64;
            let header = TraceHeader::of_trace(&trace);
            (Input::Trace(trace), requests, header)
        } else {
            let summary = summarize(generator.stream(0)).expect("generator streams never fail");
            let header = generator.stream(0).header().clone();
            (Input::Stream(generator), summary.requests, header)
        };
        let config = workload.config(&header, requests, seed);
        let policy = match &input {
            Input::Trace(trace) => PondPolicy::train(trace, &config.control.policy, config.seed),
            Input::Stream(generator) => PondPolicy::train_source(
                || generator.stream(0),
                &config.control.policy,
                config.seed,
            )
            .expect("generator streams never fail"),
        };
        Prepared { workload, seed, input, requests, config, policy }
    }

    /// A fresh source over the input.
    pub fn source(&self) -> Source<'_> {
        match &self.input {
            Input::Trace(trace) => Source::Cursor(TraceCursor::new(trace)),
            Input::Stream(generator) => Source::Generator(generator.stream(0)),
        }
    }

    /// One untraced replay on a clone of the trained policy; the clone is
    /// made before the clocks start. Returns the outcome and the replay's
    /// time.
    pub fn replay(&self) -> Result<(MultiPoolOutcome, Elapsed), PondError> {
        let policy = self.policy.clone();
        let source = self.source();
        let watch = Stopwatch::start();
        let outcome = match source {
            Source::Cursor(cursor) => run_multipool_source(cursor, &self.config, policy),
            Source::Generator(stream) => run_multipool_source(stream, &self.config, policy),
        }?;
        Ok((outcome, watch.elapsed()))
    }

    /// One replay with `recorder` wired in; same clock rules as
    /// [`Prepared::replay`]. The recorder is told when the call starts and
    /// returns, so it can account for the time before the first pop and
    /// after the last.
    pub fn replay_traced(
        &self,
        recorder: &mut SpanRecorder,
    ) -> Result<(MultiPoolOutcome, f64), PondError> {
        let policy = self.policy.clone();
        let source = self.source();
        let start = Instant::now();
        recorder.call_started(start);
        let outcome = match source {
            Source::Cursor(cursor) => {
                run_multipool_source_observed(cursor, &self.config, policy, recorder)
            }
            Source::Generator(stream) => {
                run_multipool_source_observed(stream, &self.config, policy, recorder)
            }
        };
        let end = Instant::now();
        recorder.call_returned(end);
        Ok((outcome?, (end - start).as_secs_f64()))
    }
}

/// The two concrete sources a workload streams from.
pub enum Source<'a> {
    /// Over a materialized trace.
    Cursor(TraceCursor<'a>),
    /// Lazily generated.
    Generator(GeneratorSource),
}

impl ArrivalSource for Source<'_> {
    fn header(&self) -> &TraceHeader {
        match self {
            Source::Cursor(cursor) => cursor.header(),
            Source::Generator(stream) => stream.header(),
        }
    }

    fn next_request(&mut self) -> Result<Option<VmRequest>, SourceError> {
        match self {
            Source::Cursor(cursor) => cursor.next_request(),
            Source::Generator(stream) => stream.next_request(),
        }
    }
}
