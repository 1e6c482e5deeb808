//! The traced replay's observer: spans kept in memory, one per popped event
//! plus the children the replay's hooks delimit.
//!
//! Every hook takes a timestamp. A popped event's span runs from its pop to
//! the next pop; inside it, an arrival splits into `arrival.place` (pop →
//! `on_decision`) and `arrival.commit` (`on_decision` → next pop), and each
//! `qos.pass` and `relocate` span runs from the previous hook inside the
//! event to the hook that reports it. A span's parent is the popped event's
//! sequence number. The last pop's span cannot be told apart from the
//! replay's epilogue (outcome aggregation, dropping the control planes), so
//! it is reported as the tail.

use crate::stats::Samples;
use cluster_sim::event::Event;
use pond_metrics::{
    event_class, DecisionTrace, LadderRung, LifecycleOpKind, LifecycleTrace, QosPassTrace,
    ReplayObserver,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// The ten event classes, in report order.
pub const EVENT_CLASSES: [&str; 10] = [
    "arrival",
    "departure",
    "release",
    "reconfig_done",
    "migration_done",
    "snapshot",
    "emc_failure",
    "emc_repair",
    "decommission",
    "expansion",
];

/// The ladder rungs, in report order.
pub const RUNGS: [LadderRung; 6] = [
    LadderRung::PooledHome,
    LadderRung::BorrowedNeighbor,
    LadderRung::PooledNeighbor,
    LadderRung::AllLocalHome,
    LadderRung::AllLocalNeighbor,
    LadderRung::Rejected,
];

/// One recorded span. Times are nanoseconds since the replay call started.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// An event class or a child span name.
    name: &'static str,
    /// Start, ns.
    start: u64,
    /// End, ns.
    end: u64,
    /// Sequence number of the popped event this span belongs to.
    parent: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Records the traced replay.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    origin: Option<Instant>,
    returned: Option<Instant>,
    /// Event spans, one per pop, in pop order (the last one's end is set
    /// only when the call returns).
    events: Vec<Span>,
    /// Child spans, in time order.
    children: Vec<Span>,
    /// End of the last child span or hook inside the current event, ns.
    mark: u64,
    /// Whether the current event is an arrival still waiting for its
    /// decision.
    placing: bool,
    /// Ladder decisions per rung.
    rungs: BTreeMap<&'static str, u64>,
    /// VMs relocated to another group.
    moves: u64,
    /// VMs a relocation could not place.
    killed: u64,
    /// Request ids whose arrival landed in group 0, in arrival order.
    group0_requests: Vec<u64>,
}

impl SpanRecorder {
    fn now_ns(&self) -> u64 {
        let origin = self.origin.expect("the replay call started");
        (Instant::now() - origin).as_nanos() as u64
    }

    /// Called right before the replay function is entered.
    pub fn call_started(&mut self, at: Instant) {
        self.origin = Some(at);
    }

    /// Called right after the replay function returns.
    pub fn call_returned(&mut self, at: Instant) {
        self.returned = Some(at);
    }

    fn current_seq(&self) -> u64 {
        self.events.len().saturating_sub(1) as u64
    }

    fn child(&mut self, name: &'static str, end: u64) {
        let start = self.mark;
        self.children.push(Span { name, start, end, parent: self.current_seq() });
        self.mark = end;
    }

    /// The finished trace.
    pub fn finish(self) -> Trace {
        let origin = self.origin.expect("the replay call started");
        let returned = self.returned.expect("the replay call returned");
        let wall_ns = (returned - origin).as_nanos() as u64;
        let (prelude_ns, tail_ns, spans_ns) = match (self.events.first(), self.events.last()) {
            (Some(first), Some(last)) => (first.start, wall_ns - last.start, last.start),
            _ => (wall_ns, 0, 0),
        };
        // Every span but the last pop's: that one is the tail.
        let closed = self.events.len().saturating_sub(1);
        let mut inclusive: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for span in &self.events {
            inclusive.entry(span.name).or_default().0 += 1;
        }
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut children_of = vec![0u64; self.events.len()];
        let mut child_samples: BTreeMap<&'static str, Samples> = BTreeMap::new();
        let mut nesting_errors = 0u64;
        for child in &self.children {
            let parent = &self.events[child.parent as usize];
            let parent_end = if (child.parent as usize) < closed { parent.end } else { wall_ns };
            if child.start < parent.start || child.end > parent_end || child.end < child.start {
                nesting_errors += 1;
            }
            children_of[child.parent as usize] += child.ns();
            *self_ns.entry(child.name).or_default() += child.ns();
            child_samples.entry(child.name).or_default().push(child.ns());
        }
        for (seq, span) in self.events.iter().take(closed).enumerate() {
            inclusive.entry(span.name).or_default().1 += span.ns();
            let own = span.ns().checked_sub(children_of[seq]);
            nesting_errors += u64::from(own.is_none());
            *self_ns.entry(span.name).or_default() += own.unwrap_or(0);
        }
        // The tail's children (a last-pop arrival's commit, say) belong to
        // the tail, not to a class.
        if closed < self.events.len() {
            for child in self.children.iter().filter(|c| c.parent as usize == closed) {
                *self_ns.entry(child.name).or_default() -= child.ns();
            }
        }
        Trace {
            wall_ns,
            prelude_ns,
            tail_ns,
            spans_ns,
            inclusive,
            self_ns,
            child_samples,
            nesting_errors,
            pops: self.events.len() as u64,
            rungs: self.rungs,
            moves: self.moves,
            killed: self.killed,
            group0_requests: self.group0_requests,
        }
    }
}

impl ReplayObserver for SpanRecorder {
    fn on_event(&mut self, event: &Event) {
        let now = self.now_ns();
        if let Some(last) = self.events.last_mut() {
            last.end = now;
        }
        if !self.placing && self.events.last().is_some_and(|e| e.name == "arrival") {
            self.child("arrival.commit", now);
        }
        let parent = self.events.len() as u64;
        self.events.push(Span { name: event_class(event), start: now, end: now, parent });
        self.mark = now;
        self.placing = matches!(event, Event::Arrival { .. });
    }

    fn on_decision(&mut self, decision: &DecisionTrace) {
        let now = self.now_ns();
        self.child("arrival.place", now);
        self.placing = false;
        *self.rungs.entry(decision.rung.name()).or_default() += 1;
        if decision.group == Some(0) {
            if let Some(vm) = decision.vm {
                self.group0_requests.push(vm);
            }
        }
    }

    fn on_qos_pass(&mut self, _pass: &QosPassTrace) {
        let now = self.now_ns();
        self.child("qos.pass", now);
    }

    fn on_lifecycle_op(&mut self, op: &LifecycleTrace) {
        let now = self.now_ns();
        match op.kind {
            LifecycleOpKind::VmEvacuated { dest, .. } | LifecycleOpKind::VmDrained { dest, .. } => {
                self.child("relocate", now);
                if dest.is_some() {
                    self.moves += 1;
                } else {
                    self.killed += 1;
                }
            }
            LifecycleOpKind::VmRebalanced { .. } => {
                self.child("relocate", now);
                self.moves += 1;
            }
            _ => self.mark = now,
        }
    }
}

/// The accounting of one traced replay.
#[derive(Debug)]
pub struct Trace {
    /// The replay call's wall time, ns.
    pub wall_ns: u64,
    /// From the call to the first pop, ns.
    pub prelude_ns: u64,
    /// From the last pop to the return, ns.
    pub tail_ns: u64,
    /// From the first pop to the last, ns.
    pub spans_ns: u64,
    /// Per event class: (pops, inclusive ns of the closed spans).
    pub inclusive: BTreeMap<&'static str, (u64, u64)>,
    /// Per span name (event classes and child spans): self ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Per child span name: the durations.
    pub child_samples: BTreeMap<&'static str, Samples>,
    /// Child spans outside their parent, or parents shorter than their
    /// children (must be zero).
    pub nesting_errors: u64,
    /// Events popped.
    pub pops: u64,
    /// Ladder decisions per rung name.
    pub rungs: BTreeMap<&'static str, u64>,
    /// VMs relocated to another group.
    pub moves: u64,
    /// VMs a relocation could not place.
    pub killed: u64,
    /// Request ids whose arrival landed in group 0.
    pub group0_requests: Vec<u64>,
}

/// Allowed gap between the replay's wall time and its accounted parts.
pub const ACCOUNTING_TOLERANCE: f64 = 0.001;

impl Trace {
    /// prelude + Σ self time over every span name + tail, ns.
    pub fn accounted_ns(&self) -> u64 {
        self.prelude_ns + self.self_ns.values().sum::<u64>() + self.tail_ns
    }

    /// |accounted − wall| / wall.
    pub fn accounting_error(&self) -> f64 {
        (self.accounted_ns() as f64 - self.wall_ns as f64).abs() / self.wall_ns.max(1) as f64
    }
}
