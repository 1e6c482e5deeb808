//! Time-series recording: per-group availability / savings / occupancy
//! samples at snapshot ticks, plus an env-gated JSONL structured event log.
//!
//! The in-memory series is purely deterministic — it derives from replay
//! state at simulated snapshot times, so two observed replays of the same
//! `(trace, config, seed)` record identical point streams. The JSONL log is
//! an I/O side channel for post-hoc forensics: writes are best-effort (a
//! full disk never perturbs the replay) and the log never feeds back into
//! the recorded series.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Duration;

use cluster_sim::event::Event;
use cluster_sim::pooling::required_dram_fraction;
use cxl_hw::pool::GroupState;
use cxl_hw::units::Bytes;

use crate::observer::{
    availability, DecisionTrace, GroupSample, LifecycleOpKind, LifecycleTrace, QosPassTrace,
    ReplayObserver,
};

/// Environment variable naming the JSONL event-log path. When set,
/// [`TimeSeriesRecorder::from_env`] opens (truncates) that file and streams
/// one JSON object per decision, QoS pass, lifecycle operation, and
/// snapshot sample.
pub const EVENT_LOG_ENV: &str = "POND_EVENT_LOG";

/// One group's slice of a snapshot-tick sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupSeries {
    /// The pool group.
    pub group: usize,
    /// Whether the group still accepts placements at this tick.
    pub online: bool,
    /// Cumulative availability: the share of the group's scheduled VMs not
    /// killed, [`GroupSample::availability`].
    pub availability: f64,
    /// Cumulative DRAM savings fraction versus an all-local fleet.
    pub dram_savings: f64,
    /// Fraction of live pool capacity in use right now.
    pub occupancy: f64,
    /// Pool capacity free for new placements, in bytes.
    pub pool_free: u64,
    /// VMs running on the group right now.
    pub running_vms: u64,
}

/// One snapshot-tick point: fleet-level aggregates plus the per-group
/// breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesPoint {
    /// Simulated snapshot time in seconds since trace start.
    pub time: u64,
    /// Fleet-wide cumulative availability: the share of all scheduled VMs
    /// not killed, the formula of the replay outcome's availability.
    pub fleet_availability: f64,
    /// Fleet-wide cumulative DRAM savings fraction, from the groups' summed
    /// peaks as the replay outcome computes it.
    pub fleet_savings: f64,
    /// VMs running fleet-wide right now.
    pub live_vms: u64,
    /// Per-group samples, in group order.
    pub groups: Vec<GroupSeries>,
}

/// A [`ReplayObserver`] that records one [`TimeSeriesPoint`] per snapshot
/// tick and optionally streams a JSONL structured event log.
#[derive(Debug)]
pub struct TimeSeriesRecorder {
    points: Vec<TimeSeriesPoint>,
    log: Option<BufWriter<File>>,
}

impl Default for TimeSeriesRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSeriesRecorder {
    /// A recorder with no event log.
    pub fn new() -> Self {
        TimeSeriesRecorder { points: Vec::new(), log: None }
    }

    /// A recorder streaming the JSONL event log to `path` (truncated).
    pub fn with_log<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(TimeSeriesRecorder { points: Vec::new(), log: Some(BufWriter::new(file)) })
    }

    /// A recorder honoring [`EVENT_LOG_ENV`]: with a log when the variable
    /// names a path, without one otherwise. Fails only when the named path
    /// cannot be created.
    pub fn from_env() -> io::Result<Self> {
        match std::env::var_os(EVENT_LOG_ENV) {
            Some(path) if !path.is_empty() => Self::with_log(path),
            _ => Ok(Self::new()),
        }
    }

    /// The recorded snapshot-tick points, in time order.
    pub fn points(&self) -> &[TimeSeriesPoint] {
        &self.points
    }

    /// Consumes the recorder and returns the points, flushing the log.
    pub fn into_points(mut self) -> Vec<TimeSeriesPoint> {
        if let Some(log) = self.log.as_mut() {
            let _ = log.flush();
        }
        std::mem::take(&mut self.points)
    }

    fn line(&mut self, line: &str) {
        if let Some(log) = self.log.as_mut() {
            let _ = writeln!(log, "{line}");
        }
    }
}

impl Drop for TimeSeriesRecorder {
    fn drop(&mut self) {
        if let Some(log) = self.log.as_mut() {
            let _ = log.flush();
        }
    }
}

fn secs(d: Duration) -> u64 {
    d.as_secs()
}

impl ReplayObserver for TimeSeriesRecorder {
    fn on_event(&mut self, event: &Event) {
        // Raw queue pops are too hot for the log (one per VM arrival and
        // departure); only lifecycle classes are worth a forensic line, and
        // those arrive with richer payloads via `on_lifecycle_op`. Keep this
        // hook free so the event log stays proportional to decisions.
        let _ = event;
    }

    fn on_decision(&mut self, decision: &DecisionTrace) {
        if self.log.is_none() {
            return;
        }
        let group = match decision.group {
            Some(g) => g.to_string(),
            None => "null".to_string(),
        };
        let line = format!(
            "{{\"kind\": \"decision\", \"time\": {}, \"home_group\": {}, \"group\": {}, \"rung\": \"{}\", \"reason\": \"{}\", \"memory_bytes\": {}, \"lifetime_secs\": {}}}",
            decision.time,
            decision.home_group,
            group,
            decision.rung.name(),
            decision.reason.name(),
            decision.memory.as_u64(),
            decision.lifetime,
        );
        self.line(&line);
    }

    fn on_qos_pass(&mut self, pass: &QosPassTrace) {
        if self.log.is_none() || pass.reconfigured == 0 {
            return;
        }
        let line = format!(
            "{{\"kind\": \"qos_pass\", \"time\": {}, \"group\": {}, \"reconfigured\": {}, \"copy_secs\": {}}}",
            pass.time,
            pass.group,
            pass.reconfigured,
            secs(pass.copy_time),
        );
        self.line(&line);
    }

    fn on_lifecycle_op(&mut self, op: &LifecycleTrace) {
        if self.log.is_none() {
            return;
        }
        let detail = match op.kind {
            LifecycleOpKind::EmcFailure { affected } => {
                format!("\"affected\": {affected}")
            }
            LifecycleOpKind::EmcRepair { restored } => {
                format!("\"restored_bytes\": {}", restored.as_u64())
            }
            LifecycleOpKind::DecommissionStarted { running } => {
                format!("\"running\": {running}")
            }
            LifecycleOpKind::DecommissionComplete => String::from("\"done\": true"),
            LifecycleOpKind::Expansion { capacity } => {
                format!("\"capacity_bytes\": {}", capacity.as_u64())
            }
            LifecycleOpKind::VmEvacuated { dest, copy }
            | LifecycleOpKind::VmDrained { dest, copy } => {
                let dest = match dest {
                    Some(d) => d.to_string(),
                    None => "null".to_string(),
                };
                format!("\"dest\": {dest}, \"copy_secs\": {}", secs(copy))
            }
            LifecycleOpKind::VmRebalanced { dest, copy } => {
                format!("\"dest\": {dest}, \"copy_secs\": {}", secs(copy))
            }
        };
        let line = format!(
            "{{\"kind\": \"lifecycle\", \"op\": \"{}\", \"time\": {}, \"group\": {}, {detail}}}",
            op.kind.name(),
            op.time,
            op.group,
        );
        self.line(&line);
    }

    fn on_snapshot(&mut self, time: u64, groups: &[GroupSample]) {
        let mut scheduled = 0u64;
        let mut killed = 0u64;
        let mut live_vms = 0u64;
        let mut sum_total = Bytes::ZERO;
        let mut sum_host_pool = Bytes::ZERO;
        let mut pool_peaks = Bytes::ZERO;
        let mut series = Vec::with_capacity(groups.len());
        for sample in groups {
            scheduled += sample.scheduled_vms;
            killed += sample.vms_killed;
            live_vms += sample.running_vms;
            sum_total += sample.sum_total_peaks;
            sum_host_pool += sample.sum_host_pool_peaks;
            pool_peaks += sample.pool_peak;
            series.push(GroupSeries {
                group: sample.group,
                online: sample.state == GroupState::Online,
                availability: sample.availability(),
                dram_savings: sample.dram_savings_fraction(),
                occupancy: sample.pool_occupancy_fraction(),
                pool_free: sample.pool_free.as_u64(),
                running_vms: sample.running_vms,
            });
        }
        let fleet_availability = availability(scheduled, killed);
        let fleet_savings = 1.0 - required_dram_fraction(sum_total, sum_host_pool, pool_peaks);
        if self.log.is_some() {
            let mut per_group = String::new();
            for (i, s) in series.iter().enumerate() {
                if i > 0 {
                    per_group.push_str(", ");
                }
                per_group.push_str(&format!(
                    "{{\"group\": {}, \"online\": {}, \"availability\": {:.6}, \"occupancy\": {:.6}, \"running_vms\": {}}}",
                    s.group, s.online, s.availability, s.occupancy, s.running_vms,
                ));
            }
            let line = format!(
                "{{\"kind\": \"snapshot\", \"time\": {time}, \"fleet_availability\": {fleet_availability:.6}, \"fleet_savings\": {fleet_savings:.6}, \"live_vms\": {live_vms}, \"groups\": [{per_group}]}}",
            );
            self.line(&line);
        }
        self.points.push(TimeSeriesPoint {
            time,
            fleet_availability,
            fleet_savings,
            live_vms,
            groups: series,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(group: usize, scheduled: u64, killed: u64) -> GroupSample {
        GroupSample {
            group,
            state: GroupState::Online,
            pool_free: Bytes::from_gib(50),
            pool_offlining: Bytes::new(0),
            pool_pinned: Bytes::new(0),
            pool_live: Bytes::from_gib(100),
            pool_lent: Bytes::new(0),
            pool_borrowed: Bytes::new(0),
            running_vms: 5,
            scheduled_vms: scheduled,
            vms_killed: killed,
            sum_total_peaks: Bytes::from_gib(400),
            sum_host_pool_peaks: Bytes::from_gib(100),
            pool_peak: Bytes::from_gib(40),
        }
    }

    #[test]
    fn snapshot_aggregates_fleet_from_group_sums() {
        let mut recorder = TimeSeriesRecorder::new();
        recorder.on_snapshot(3600, &[sample(0, 90, 9), sample(1, 60, 15)]);
        let points = recorder.points();
        assert_eq!(points.len(), 1);
        let point = &points[0];
        assert_eq!(point.time, 3600);
        assert_eq!(point.live_vms, 10);
        // fleet: 24 of 150 scheduled VMs killed.
        assert!((point.fleet_availability - 0.84).abs() < 1e-12);
        // fleet: required = 800 - (200 - 80) = 680 of 800 baseline.
        assert!((point.fleet_savings - 0.15).abs() < 1e-12);
        assert_eq!(point.groups.len(), 2);
        assert!((point.groups[0].availability - 0.9).abs() < 1e-12);
        assert!((point.groups[1].occupancy - 0.5).abs() < 1e-12);
    }

    #[test]
    fn event_log_writes_one_json_object_per_line() {
        let dir = std::env::temp_dir();
        let path = dir.join("pond_metrics_timeseries_test.jsonl");
        {
            let mut recorder = TimeSeriesRecorder::with_log(&path).unwrap();
            recorder.on_decision(&DecisionTrace {
                time: 7,
                vm: Some(0),
                home_group: 0,
                group: Some(1),
                rung: crate::observer::LadderRung::PooledNeighbor,
                reason: crate::observer::FallbackReason::HomePoolFull,
                memory: Bytes::from_gib(8),
                lifetime: 600,
            });
            recorder.on_lifecycle_op(&LifecycleTrace {
                time: 9,
                group: 1,
                kind: LifecycleOpKind::EmcFailure { affected: 3 },
            });
            recorder.on_snapshot(3600, &[sample(0, 1, 0)]);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\": \"decision\""));
        assert!(lines[0].contains("\"rung\": \"pooled_neighbor\""));
        assert!(lines[1].contains("\"op\": \"emc_failure\""));
        assert!(lines[2].contains("\"kind\": \"snapshot\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn from_env_without_variable_has_no_log() {
        // The variable is absent in the test environment by default.
        if std::env::var_os(EVENT_LOG_ENV).is_none() {
            let recorder = TimeSeriesRecorder::from_env().unwrap();
            assert!(recorder.log.is_none());
        }
    }
}
