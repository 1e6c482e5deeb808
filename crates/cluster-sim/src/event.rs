//! The time-ordered event core of the cluster simulator.
//!
//! The simulator processes six classes of events: pool-lifecycle operations
//! — memory-device (EMC) failures, repairs, group decommissions and
//! expansions (scheduled up front by failure-drill and lifecycle drivers) —
//! VM arrivals (streamed from an [`ArrivalSource`]), VM departures
//! (scheduled when a VM is placed), asynchronous pool-slice release
//! completions (scheduled by pool-aware drivers such as `pond-core`'s fleet
//! simulator), copy completions — reconfiguration copies (scheduled when a
//! QoS mitigation starts its pool→local copy) and migration copies
//! (scheduled when an evacuated VM starts copying to its new home) — and
//! periodic snapshot ticks. [`EventQueue`] merges the sources into a single
//! stream ordered by time, with a fixed tie order at equal times:
//!
//! 1. **Lifecycle operations** ([`Event::Lifecycle`]) — a failure at time
//!    `t` applies before anything else at `t`: the departures, snapshots,
//!    and arrivals sharing its timestamp all observe the degraded
//!    (post-failure) pool. Repairs, graceful decommissions and live
//!    expansions share this rung: they are infrastructure state changes
//!    that, like failures, must be visible to every same-instant observer.
//!    Within the rung the order is [`LifecycleKind`]'s: failure, then
//!    repair, then decommission, then expansion — a pool that dies and is
//!    replaced at the same instant ends up healthy, and a decommission races
//!    an expansion by draining first.
//! 2. **Departures** — a snapshot or arrival at time `t` observes every
//!    departure with time `<= t`.
//! 3. **Releases** ([`CompletionKind::Release`]) — offlining that finishes
//!    at `t` refills the pool buffer before a snapshot samples it and before
//!    an arrival at `t` tries to allocate from it.
//! 4. **Copy completions** ([`CompletionKind::Reconfig`] and
//!    [`CompletionKind::Migration`]) — a mitigation or migration copy that
//!    finishes at `t` ends the VM's degraded-mode window before the snapshot
//!    at `t` observes it. When both collide at the same instant,
//!    reconfiguration completions pop first.
//! 5. **Snapshots** — a snapshot at time `t` runs before an arrival at `t`,
//!    so it never reflects VMs that arrive at the very instant it samples.
//! 6. **Arrivals** — in stream order.
//!
//! Releases and copy completions are one event, [`Event::Completion`],
//! whose [`CompletionKind`] orders classes 3 and 4. Simultaneous departures
//! pop in ascending scheduling sequence (drivers pass the VM's arrival
//! ordinal, preserving trace order whatever the departure tokens are: VM
//! ids need not rise with arrival order), simultaneous lifecycle operations
//! of one kind in ascending index order, and simultaneous completions of
//! one kind in ascending order of the pool group they carry, making the
//! whole stream deterministic.
//! Processing events strictly in this order is what guarantees (by
//! construction) that snapshots never observe the future and that
//! departures after the final arrival are still drained: the queue is only
//! exhausted when *all* sources are.
//!
//! # Data structures
//!
//! [`EventQueue`] is built for replay throughput in O(live VMs) memory. It
//! keeps four fronts and pops the least `(time, class)` among them, where
//! the class is an [`Event`] variant's place in the tie order above:
//!
//! * **Arrivals** are a one-request lookahead over the source cursor — the
//!   queue never materializes the trace.
//! * **Departures** — by far the busiest scheduled class (one per placed
//!   VM) — live in an incremental per-second calendar: a [`BTreeMap`] keyed
//!   by departure second whose buckets hold `(seq, token)` entries sorted
//!   ascending behind a pop cursor. Arming a departure at placement time is
//!   O(log live-seconds + bucket); popping takes the head of the first
//!   bucket and frees the bucket when it drains, so the calendar holds only
//!   departures of currently-live VMs. Most seconds hold one departure, so
//!   a new bucket allocates room for exactly one 16-byte entry; a second
//!   entry grows it to four, then it doubles.
//! * **Lifecycle operations and completions** share one binary heap keyed
//!   by `(time, rank, payload)`, the rank being the event's kind: lifecycle
//!   kinds before completion kinds, each in declaration order. The payload
//!   (lifecycle index or pool group) orders simultaneous events of one
//!   kind.
//! * **Snapshots** are a counter.
//!
//! No two fronts hold the same class, so the least front is unique. The
//! retained [`ReferenceEventQueue`] keeps one heap each for lifecycle
//! operations, departures and completions over a materialized trace; a
//! proptest pins the streamed queue to it event for event, and
//! `pond-core`'s reference replay runs on it.
//!
//! Snapshot ticks fire every `snapshot_interval` seconds; when the interval
//! does not divide the source's duration, a final tick fires *at* the
//! duration so end-of-trace stranding statistics never miss the tail
//! window.

use crate::source::{ArrivalSource, SourceError, TraceHeader};
use crate::trace::{ClusterTrace, VmRequest};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// The pool-lifecycle operations that share the first rung of the tie
/// order. Declaration order is pop order at equal times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LifecycleKind {
    /// A pooled memory device (EMC) fails. It pops before everything else
    /// at its time, so every observer at `t` — including the snapshot
    /// sharing the timestamp — sees the degraded window, never a pool that
    /// quietly healed between events.
    EmcFailure,
    /// A failed EMC is repaired (replaced in its pool slot). Popping after
    /// failures, a device that dies and is swapped at the same instant
    /// comes back healthy.
    EmcRepair,
    /// A pool group begins a graceful decommission: it stops accepting
    /// placements and drains its VMs through migration — it never kills.
    /// Same-instant snapshots and arrivals observe the draining group.
    Decommission,
    /// A pool group gains capacity live: a new EMC attaches (or a
    /// replacement pod re-onlines a decommissioned slot). Popping last, it
    /// lets a same-instant decommission drain before the replacement joins.
    Expansion,
}

/// The completions a driver schedules as work finishes asynchronously.
/// Declaration order is pop order at equal times: releases refill the pool
/// buffer before the copy completions end degraded-mode windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CompletionKind {
    /// An asynchronous pool-slice release completes: capacity that was
    /// offlining becomes reusable. The plain cluster simulator models
    /// releases as instantaneous and never schedules one.
    Release,
    /// A QoS-mitigation reconfiguration copy completes: the VM that ran
    /// degraded while its pool memory copied to local DRAM is back at full
    /// speed.
    Reconfig,
    /// An evacuation-migration copy completes: a VM re-homed after a
    /// failure (or drained, or rebalanced) is done copying its memory to
    /// the destination and leaves its in-migration degraded window.
    Migration,
}

/// One simulation event, tagged with its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A pool-lifecycle operation. `index` echoes whatever the driver
    /// passed to [`EventQueue::schedule_lifecycle`] — `pond-core`'s replay
    /// passes the operation's position in its lifecycle plan; the queue
    /// itself only orders the event.
    Lifecycle {
        /// Operation time in seconds since trace start.
        time: u64,
        /// Which operation, and its place within the lifecycle rung.
        kind: LifecycleKind,
        /// The driver's handle for the operation.
        index: usize,
    },
    /// A previously placed VM departs. `token` echoes whatever handle the
    /// driver passed to [`EventQueue::schedule_departure`]: the VM id in the
    /// multi-pool replay, a trace index in the reference replay.
    Departure {
        /// Departure time in seconds since trace start.
        time: u64,
        /// The driver's handle for the departing VM.
        token: usize,
    },
    /// A release or copy completion, scheduled with
    /// [`EventQueue::schedule_completion`].
    Completion {
        /// Completion time in seconds since trace start.
        time: u64,
        /// What completed, and its place in the tie order.
        kind: CompletionKind,
        /// The pool group the completion belongs to: the pool the slices
        /// return to, the group whose QoS pass started the copy, or the
        /// group the migrated VM left.
        group: usize,
    },
    /// A periodic stranding snapshot tick.
    Snapshot {
        /// Snapshot time in seconds since trace start.
        time: u64,
    },
    /// The next VM request in the stream arrives. The request itself is
    /// claimed with [`EventQueue::take_arrival`].
    Arrival {
        /// Arrival time in seconds since trace start.
        time: u64,
        /// Ordinal of the arrival in the stream (for in-memory sources,
        /// equal to the request's index in the trace).
        request_index: usize,
    },
}

impl Event {
    /// The event's time in seconds since trace start.
    pub fn time(&self) -> u64 {
        match *self {
            Event::Lifecycle { time, .. }
            | Event::Departure { time, .. }
            | Event::Completion { time, .. }
            | Event::Snapshot { time }
            | Event::Arrival { time, .. } => time,
        }
    }

    /// The event's class, its place in the tie order at equal times.
    fn class(&self) -> Class {
        match self {
            Event::Lifecycle { .. } => Class::Lifecycle,
            Event::Departure { .. } => Class::Departure,
            Event::Completion { .. } => Class::Completion,
            Event::Snapshot { .. } => Class::Snapshot,
            Event::Arrival { .. } => Class::Arrival,
        }
    }
}

/// A scheduled departure, ordered for a max-heap so the earliest (and, at
/// equal times, lowest `(seq, token)`) pops first. Used by the reference
/// queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Departure {
    time: u64,
    seq: u64,
    token: usize,
}

impl Ord for Departure {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest departure pops first.
        other.time.cmp(&self.time).then(other.seq.cmp(&self.seq)).then(other.token.cmp(&self.token))
    }
}

impl PartialOrd for Departure {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The incremental departure calendar: a map from departure second to the
/// bucket of `(seq, token)` entries due that second, each bucket sorted
/// ascending behind a pop cursor. Holds only departures of currently-live
/// VMs — entries are inserted when a VM is placed and freed when its bucket
/// drains.
#[derive(Debug, Default)]
struct DepartureCalendar {
    buckets: BTreeMap<u64, CalendarBucket>,
}

/// One second's departures. `entries[head..]` is sorted ascending and still
/// pending; everything before `head` has popped. A bucket is created with
/// capacity for its first entry only (16 B, not `Vec`'s first growth to
/// four entries, 64 B).
#[derive(Debug)]
struct CalendarBucket {
    entries: Vec<(u64, usize)>,
    head: usize,
}

impl DepartureCalendar {
    /// Arms a departure at `time`. Simultaneous departures pop in ascending
    /// `(seq, token)` order regardless of arming order; an entry armed
    /// "behind" already-popped peers of the same second simply becomes the
    /// bucket's new head, exactly as a heap would deliver it next.
    fn schedule(&mut self, time: u64, seq: u64, token: usize) {
        let bucket = self
            .buckets
            .entry(time)
            .or_insert_with(|| CalendarBucket { entries: Vec::with_capacity(1), head: 0 });
        let pending = &bucket.entries[bucket.head..];
        let at = bucket.head + pending.partition_point(|&entry| entry <= (seq, token));
        bucket.entries.insert(at, (seq, token));
    }

    /// The time of the earliest pending departure.
    fn peek(&self) -> Option<u64> {
        self.buckets.keys().next().copied()
    }

    /// Pops the earliest pending departure as `(time, token)`, freeing its
    /// bucket when drained.
    fn pop(&mut self) -> Option<(u64, usize)> {
        let mut entry = self.buckets.first_entry()?;
        let time = *entry.key();
        let bucket = entry.get_mut();
        let (_, token) = bucket.entries[bucket.head];
        bucket.head += 1;
        if bucket.head == bucket.entries.len() {
            entry.remove();
        }
        Some((time, token))
    }
}

/// The five event classes, one per [`Event`] variant, in tie order at equal
/// times: declaration order is pop order, so the order between classes is
/// written once, here, and within the lifecycle and completion rungs in the
/// two kind enums.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Lifecycle,
    Departure,
    Completion,
    Snapshot,
    Arrival,
}

/// A timeline entry's place in the tie order: lifecycle operations before
/// completions, as [`Class`] orders them, then by kind. The queue's fronts
/// compare the entry's one-byte class instead: carrying this two-byte rank
/// through the front selection made draining a 512-server, 30-day trace
/// take about 150 ns per event instead of 117 (2-vCPU VM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rank {
    Lifecycle(LifecycleKind),
    Completion(CompletionKind),
}

impl Rank {
    fn class(self) -> Class {
        match self {
            Rank::Lifecycle(_) => Class::Lifecycle,
            Rank::Completion(_) => Class::Completion,
        }
    }
}

/// The next snapshot tick at construction: the first interval multiple,
/// clamped to the horizon so a tail tick fires at the trace duration even
/// when the interval overshoots it. `u64::MAX` means "no more snapshots".
fn initial_snapshot(interval: u64, horizon: u64) -> u64 {
    if interval == 0 || horizon == 0 {
        u64::MAX
    } else {
        interval.min(horizon)
    }
}

/// The tick after a snapshot at `time`: the next interval step, clamped to
/// the horizon (the tail tick); `u64::MAX` once the horizon has fired.
fn advance_snapshot(time: u64, interval: u64, horizon: u64) -> u64 {
    if time >= horizon {
        u64::MAX
    } else {
        time.saturating_add(interval).min(horizon)
    }
}

/// Merges arrivals, scheduled departures, lifecycle operations, release
/// and copy completions, and snapshot ticks into one time-ordered event
/// stream.
///
/// Arrivals stream from an [`ArrivalSource`] (already sorted by arrival
/// time) through a one-request lookahead; departures and completions are
/// pushed by the caller as VMs are placed, as pool slices start offlining,
/// and as copies start, and lifecycle operations up front; snapshot ticks
/// fire every `snapshot_interval` seconds up to and including the source's
/// duration, with a final tail tick at the duration when the interval does
/// not divide it (an interval of `0` disables snapshots). Scheduled events
/// past the duration are still delivered — the queue only ends when every
/// source is exhausted.
///
/// When the source errors mid-stream, the queue latches the error, stops
/// immediately (returns `None`), and exposes the cause via
/// [`EventQueue::source_error`] — drivers check it after the drain.
///
/// Internally departures live in an incremental per-second calendar (armed
/// at placement time, holding only live VMs) and every other scheduled
/// event in one heap; see the module docs for the layout.
/// [`ReferenceEventQueue`] is the three-heap implementation the test suite
/// compares against.
#[derive(Debug)]
pub struct EventQueue<S> {
    source: S,
    /// The next not-yet-delivered arrival, pulled ahead from the source.
    lookahead: Option<VmRequest>,
    /// The most recently delivered arrival, waiting for
    /// [`EventQueue::take_arrival`].
    last_arrival: Option<VmRequest>,
    next_ordinal: usize,
    error: Option<SourceError>,
    /// Lifecycle operations and completions, keyed by
    /// `(time, rank, payload)`.
    timeline: BinaryHeap<Reverse<(u64, Rank, usize)>>,
    departures: DepartureCalendar,
    next_snapshot: u64,
    snapshot_interval: u64,
    snapshot_horizon: u64,
}

impl<S: ArrivalSource> EventQueue<S> {
    /// Creates the queue over an arrival source with the given snapshot
    /// cadence. The snapshot horizon is the source's
    /// [`TraceHeader::duration`].
    pub fn new(mut source: S, snapshot_interval: u64) -> Self {
        let horizon = source.header().duration;
        let mut error = None;
        let lookahead = match source.next_request() {
            Ok(request) => request,
            Err(e) => {
                error = Some(e);
                None
            }
        };
        EventQueue {
            source,
            lookahead,
            last_arrival: None,
            next_ordinal: 0,
            error,
            timeline: BinaryHeap::new(),
            departures: DepartureCalendar::default(),
            next_snapshot: initial_snapshot(snapshot_interval, horizon),
            snapshot_interval,
            snapshot_horizon: horizon,
        }
    }

    /// The source's cluster shape and horizon.
    pub fn header(&self) -> &TraceHeader {
        self.source.header()
    }

    /// The latched source error, if the stream died. Drivers check this
    /// after [`EventQueue::next_event`] returns `None` to distinguish a
    /// clean drain from a truncated one.
    pub fn source_error(&self) -> Option<&SourceError> {
        self.error.as_ref()
    }

    /// Claims the request behind the most recent [`Event::Arrival`]. Must be
    /// called at most once per arrival event, before the next call to
    /// [`EventQueue::next_event`].
    ///
    /// # Panics
    ///
    /// Panics when no unclaimed arrival is pending (no arrival delivered
    /// yet, or the request was already taken).
    pub fn take_arrival(&mut self) -> VmRequest {
        self.last_arrival.take().expect("an unclaimed arrival must be pending")
    }

    /// Schedules a departure event (called when a VM is placed). `seq`
    /// breaks ties among simultaneous departures — drivers pass the VM's
    /// arrival ordinal so equal-time departures pop in trace order whatever
    /// `token` is (a VM id need not rise with arrival order); `token` is
    /// echoed back verbatim in [`Event::Departure`].
    pub fn schedule_departure(&mut self, time: u64, seq: u64, token: usize) {
        self.departures.schedule(time, seq, token);
    }

    /// Schedules a lifecycle operation (called up front by failure-drill
    /// and lifecycle drivers). `index` is echoed back in
    /// [`Event::Lifecycle`]; simultaneous operations of one kind pop in
    /// ascending `index` order.
    pub fn schedule_lifecycle(&mut self, time: u64, kind: LifecycleKind, index: usize) {
        self.timeline.push(Reverse((time, Rank::Lifecycle(kind), index)));
    }

    /// Schedules a completion (called when pool slices start their
    /// asynchronous offlining, or when a mitigation or migration copy
    /// starts; `time` is when the work finishes). `group` is echoed back in
    /// [`Event::Completion`]; simultaneous completions of one kind pop in
    /// ascending `group` order.
    pub fn schedule_completion(&mut self, time: u64, kind: CompletionKind, group: usize) {
        self.timeline.push(Reverse((time, Rank::Completion(kind), group)));
    }

    /// Pops the next event in time order (ties: lifecycle operations by
    /// kind, departure, completions by kind, snapshot, arrival). Returns
    /// `None` once every source is exhausted, or immediately after the
    /// arrival source errors (see [`EventQueue::source_error`]).
    pub fn next_event(&mut self) -> Option<Event> {
        if self.error.is_some() {
            return None;
        }
        let fronts = [
            self.timeline.peek().map(|&Reverse((time, rank, _))| (time, rank.class())),
            self.departures.peek().map(|time| (time, Class::Departure)),
            (self.next_snapshot != u64::MAX).then_some((self.next_snapshot, Class::Snapshot)),
            self.lookahead.as_ref().map(|request| (request.arrival, Class::Arrival)),
        ];
        let (time, class) = fronts.into_iter().flatten().min()?;
        Some(match class {
            Class::Departure => {
                let (time, token) = self.departures.pop().expect("peeked departure");
                Event::Departure { time, token }
            }
            Class::Snapshot => {
                self.next_snapshot =
                    advance_snapshot(time, self.snapshot_interval, self.snapshot_horizon);
                Event::Snapshot { time }
            }
            Class::Arrival => {
                let request = self.lookahead.take().expect("peeked arrival");
                let event = Event::Arrival { time, request_index: self.next_ordinal };
                self.next_ordinal += 1;
                self.last_arrival = Some(request);
                match self.source.next_request() {
                    Ok(next) => self.lookahead = next,
                    Err(e) => self.error = Some(e),
                }
                event
            }
            Class::Lifecycle | Class::Completion => {
                let Reverse((time, rank, payload)) = self.timeline.pop().expect("peeked event");
                match rank {
                    Rank::Lifecycle(kind) => Event::Lifecycle { time, kind, index: payload },
                    Rank::Completion(kind) => Event::Completion { time, kind, group: payload },
                }
            }
        })
    }
}

/// The original heap-per-source event queue over a materialized trace,
/// retained as the test-only reference implementation: lifecycle
/// operations, departures and completions each live in a [`BinaryHeap`] of
/// their own, and [`ReferenceEventQueue::next_event`] peeks every source.
/// The equivalence proptest drives random schedules through this queue and
/// the streamed [`EventQueue`] and asserts bit-identical event streams;
/// `pond-core`'s reference replay uses it the same way to pin the optimized
/// fleet replay. Carries the same tail-snapshot semantics as the streamed
/// queue (a final tick at the trace duration when the interval does not
/// divide it).
#[derive(Debug)]
pub struct ReferenceEventQueue<'a> {
    requests: &'a ClusterTrace,
    next_arrival: usize,
    lifecycle: BinaryHeap<Reverse<(u64, LifecycleKind, usize)>>,
    departures: BinaryHeap<Departure>,
    completions: BinaryHeap<Reverse<(u64, CompletionKind, usize)>>,
    next_snapshot: u64,
    snapshot_interval: u64,
    snapshot_horizon: u64,
}

impl<'a> ReferenceEventQueue<'a> {
    /// Creates the reference queue over a trace with the given snapshot
    /// cadence; same contract as [`EventQueue::new`].
    pub fn new(trace: &'a ClusterTrace, snapshot_interval: u64) -> Self {
        debug_assert!(
            trace.requests.windows(2).all(|pair| pair[0].arrival <= pair[1].arrival),
            "trace arrivals must be sorted by time"
        );
        ReferenceEventQueue {
            requests: trace,
            next_arrival: 0,
            lifecycle: BinaryHeap::new(),
            departures: BinaryHeap::new(),
            completions: BinaryHeap::new(),
            next_snapshot: initial_snapshot(snapshot_interval, trace.duration),
            snapshot_interval,
            snapshot_horizon: trace.duration,
        }
    }

    /// Schedules a departure event; same contract as
    /// [`EventQueue::schedule_departure`].
    pub fn schedule_departure(&mut self, time: u64, seq: u64, token: usize) {
        self.departures.push(Departure { time, seq, token });
    }

    /// Schedules a lifecycle operation; same contract as
    /// [`EventQueue::schedule_lifecycle`].
    pub fn schedule_lifecycle(&mut self, time: u64, kind: LifecycleKind, index: usize) {
        self.lifecycle.push(Reverse((time, kind, index)));
    }

    /// Schedules a completion; same contract as
    /// [`EventQueue::schedule_completion`].
    pub fn schedule_completion(&mut self, time: u64, kind: CompletionKind, group: usize) {
        self.completions.push(Reverse((time, kind, group)));
    }

    /// Pops the next event in time order; same contract as
    /// [`EventQueue::next_event`].
    pub fn next_event(&mut self) -> Option<Event> {
        // Each source's head, in tie order. No two sources share a class, so
        // the least `(time, class)` is unique.
        let heads = [
            self.lifecycle.peek().map(|&Reverse((time, kind, index))| Event::Lifecycle {
                time,
                kind,
                index,
            }),
            self.departures.peek().map(|dep| Event::Departure { time: dep.time, token: dep.token }),
            self.completions.peek().map(|&Reverse((time, kind, group))| Event::Completion {
                time,
                kind,
                group,
            }),
            (self.next_snapshot != u64::MAX)
                .then_some(Event::Snapshot { time: self.next_snapshot }),
            self.requests.requests.get(self.next_arrival).map(|request| Event::Arrival {
                time: request.arrival,
                request_index: self.next_arrival,
            }),
        ];
        let event =
            heads.into_iter().flatten().min_by_key(|event| (event.time(), event.class()))?;
        match event {
            Event::Lifecycle { .. } => {
                self.lifecycle.pop();
            }
            Event::Departure { .. } => {
                self.departures.pop();
            }
            Event::Completion { .. } => {
                self.completions.pop();
            }
            Event::Snapshot { time } => {
                self.next_snapshot =
                    advance_snapshot(time, self.snapshot_interval, self.snapshot_horizon);
            }
            Event::Arrival { .. } => self.next_arrival += 1,
        }
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::TraceCursor;
    use crate::trace::{CustomerId, GuestOs, VmRequest, VmType};
    use cxl_hw::units::Bytes;
    use proptest::prelude::*;
    use CompletionKind::{Migration, Reconfig, Release};
    use LifecycleKind::{Decommission, EmcFailure, EmcRepair, Expansion};

    fn request(id: u64, arrival: u64, lifetime: u64) -> VmRequest {
        VmRequest {
            id,
            arrival,
            lifetime,
            cores: 2,
            memory: Bytes::from_gib(8),
            customer: CustomerId(0),
            vm_type: VmType::GeneralPurpose,
            guest_os: GuestOs::Linux,
            region: 0,
            workload_index: 0,
            untouched_fraction: 0.5,
        }
    }

    fn trace(requests: Vec<VmRequest>, duration: u64) -> ClusterTrace {
        ClusterTrace {
            cluster_id: 0,
            servers: 1,
            cores_per_server: 8,
            dram_per_server: Bytes::from_gib(64),
            duration,
            requests,
        }
    }

    /// Drains the queue, scheduling each arrival's departure as the simulator
    /// would (claiming the request via the arrival cursor), and returns the
    /// event stream.
    fn drain(trace: &ClusterTrace, snapshot_interval: u64) -> Vec<Event> {
        let mut queue = EventQueue::new(TraceCursor::new(trace), snapshot_interval);
        let mut events = Vec::new();
        while let Some(event) = queue.next_event() {
            if let Event::Arrival { request_index, .. } = event {
                let request = queue.take_arrival();
                queue.schedule_departure(request.departure(), request_index as u64, request_index);
            }
            events.push(event);
        }
        assert_eq!(queue.source_error(), None);
        events
    }

    #[test]
    fn events_come_out_in_time_order() {
        let t = trace(vec![request(1, 0, 150), request(2, 250, 100)], 400);
        let events = drain(&t, 100);
        let times: Vec<u64> = events.iter().map(Event::time).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "stream must be time-ordered: {events:?}");
        assert_eq!(
            events,
            vec![
                Event::Arrival { time: 0, request_index: 0 },
                Event::Snapshot { time: 100 },
                Event::Departure { time: 150, token: 0 },
                Event::Snapshot { time: 200 },
                Event::Arrival { time: 250, request_index: 1 },
                Event::Snapshot { time: 300 },
                Event::Departure { time: 350, token: 1 },
                Event::Snapshot { time: 400 },
            ]
        );
    }

    #[test]
    fn departures_after_the_last_arrival_are_drained() {
        let t = trace(vec![request(1, 0, 10_000)], 400);
        let events = drain(&t, 0);
        // The departure at 10 000 s lies past both the last arrival and the
        // trace duration, and is still delivered.
        assert_eq!(
            events,
            vec![
                Event::Arrival { time: 0, request_index: 0 },
                Event::Departure { time: 10_000, token: 0 },
            ]
        );
    }

    #[test]
    fn equal_times_order_departure_snapshot_arrival() {
        // VM 1 departs at exactly t=100; a snapshot ticks at 100; VM 2
        // arrives at 100.
        let t = trace(vec![request(1, 0, 100), request(2, 100, 50)], 100);
        let events = drain(&t, 100);
        assert_eq!(
            events,
            vec![
                Event::Arrival { time: 0, request_index: 0 },
                Event::Departure { time: 100, token: 0 },
                Event::Snapshot { time: 100 },
                Event::Arrival { time: 100, request_index: 1 },
                Event::Departure { time: 150, token: 1 },
            ]
        );
    }

    #[test]
    fn equal_times_order_releases_after_departures_and_before_snapshots() {
        // VM 1 departs at exactly t=100; a release completes at 100; a
        // snapshot ticks at 100; VM 2 arrives at 100.
        let t = trace(vec![request(1, 0, 100), request(2, 100, 50)], 100);
        let mut queue = EventQueue::new(TraceCursor::new(&t), 100);
        queue.schedule_completion(100, Release, 0);
        let mut events = Vec::new();
        while let Some(event) = queue.next_event() {
            if let Event::Arrival { request_index, .. } = event {
                let request = queue.take_arrival();
                queue.schedule_departure(request.departure(), request_index as u64, request_index);
            }
            events.push(event);
        }
        assert_eq!(
            events,
            vec![
                Event::Arrival { time: 0, request_index: 0 },
                Event::Departure { time: 100, token: 0 },
                Event::Completion { time: 100, kind: Release, group: 0 },
                Event::Snapshot { time: 100 },
                Event::Arrival { time: 100, request_index: 1 },
                Event::Departure { time: 150, token: 1 },
            ]
        );
    }

    #[test]
    fn reconfig_completions_order_after_releases_and_before_snapshots() {
        // At t=100: a release, a reconfiguration completion, a snapshot, and
        // an arrival all collide; the degraded-mode window must end after the
        // buffer refill and before the snapshot observes the fleet.
        let t = trace(vec![request(1, 100, 50)], 100);
        let mut queue = EventQueue::new(TraceCursor::new(&t), 100);
        queue.schedule_completion(100, Release, 0);
        queue.schedule_completion(100, Reconfig, 0);
        let mut events = Vec::new();
        while let Some(event) = queue.next_event() {
            events.push(event);
        }
        assert_eq!(
            events,
            vec![
                Event::Completion { time: 100, kind: Release, group: 0 },
                Event::Completion { time: 100, kind: Reconfig, group: 0 },
                Event::Snapshot { time: 100 },
                Event::Arrival { time: 100, request_index: 0 },
            ]
        );
    }

    #[test]
    fn reconfig_completions_pop_earliest_first_and_drain_past_duration() {
        let t = trace(vec![], 100);
        let mut queue = EventQueue::new(TraceCursor::new(&t), 0);
        queue.schedule_completion(10_000, Reconfig, 0);
        queue.schedule_completion(5_000, Reconfig, 0);
        assert_eq!(
            queue.next_event(),
            Some(Event::Completion { time: 5_000, kind: Reconfig, group: 0 })
        );
        assert_eq!(
            queue.next_event(),
            Some(Event::Completion { time: 10_000, kind: Reconfig, group: 0 })
        );
        assert_eq!(queue.next_event(), None);
    }

    #[test]
    fn releases_past_the_trace_duration_are_drained() {
        let t = trace(vec![], 100);
        let mut queue = EventQueue::new(TraceCursor::new(&t), 0);
        queue.schedule_completion(10_000, Release, 0);
        queue.schedule_completion(5_000, Release, 0);
        assert_eq!(
            queue.next_event(),
            Some(Event::Completion { time: 5_000, kind: Release, group: 0 })
        );
        assert_eq!(
            queue.next_event(),
            Some(Event::Completion { time: 10_000, kind: Release, group: 0 })
        );
        assert_eq!(queue.next_event(), None);
    }

    #[test]
    fn simultaneous_departures_pop_in_request_order() {
        let t = trace(vec![request(1, 0, 100), request(2, 50, 50), request(3, 60, 40)], 100);
        let events = drain(&t, 0);
        let departures: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                Event::Departure { token, .. } => Some(*token),
                _ => None,
            })
            .collect();
        assert_eq!(departures, vec![0, 1, 2], "all depart at t=100, in request order");
    }

    #[test]
    fn simultaneous_departures_order_by_seq_before_token() {
        // Tokens (VM ids) can invert their order relative to arrival order;
        // the seq key must win the tie so the pop order stays the trace
        // order.
        let t = trace(vec![], 100);
        let mut queue = EventQueue::new(TraceCursor::new(&t), 0);
        // Arrival ordinal 5 is VM 0; ordinal 2 is VM 9.
        queue.schedule_departure(50, 5, 0);
        queue.schedule_departure(50, 2, 9);
        assert_eq!(queue.next_event(), Some(Event::Departure { time: 50, token: 9 }));
        assert_eq!(queue.next_event(), Some(Event::Departure { time: 50, token: 0 }));
        assert_eq!(queue.next_event(), None);
    }

    #[test]
    fn zero_interval_disables_snapshots() {
        let t = trace(vec![request(1, 0, 50)], 1_000_000);
        let events = drain(&t, 0);
        assert!(events.iter().all(|e| !matches!(e, Event::Snapshot { .. })));
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn snapshots_include_a_tail_tick_at_the_trace_duration() {
        // 100 does not divide 250: the final stranding window still gets a
        // snapshot, at the duration itself (regression for the tail window
        // the old queue silently dropped).
        let t = trace(vec![], 250);
        let events = drain(&t, 100);
        assert_eq!(
            events,
            vec![
                Event::Snapshot { time: 100 },
                Event::Snapshot { time: 200 },
                Event::Snapshot { time: 250 },
            ],
        );
        // A divisible horizon is unchanged: no double tick at the end.
        let t = trace(vec![], 200);
        assert_eq!(
            drain(&t, 100),
            vec![Event::Snapshot { time: 100 }, Event::Snapshot { time: 200 }],
        );
    }

    #[test]
    fn an_interval_past_the_duration_still_snapshots_the_whole_trace() {
        // One tick at the duration: the single stranding window is observed
        // exactly once, even though the cadence never fires within it.
        let t = trace(vec![], 250);
        assert_eq!(drain(&t, 400), vec![Event::Snapshot { time: 250 }]);
        // A zero-length trace has no window to observe.
        let t = trace(vec![], 0);
        assert_eq!(drain(&t, 400), vec![]);
    }

    #[test]
    fn failures_order_before_everything_else_at_equal_times() {
        // At t=100: a failure, a departure, a release, both copy-completion
        // kinds, a snapshot, and an arrival all collide. The failure must
        // apply first so every observer at t=100 sees the degraded pool, and
        // the reconfiguration completion must pop before the migration
        // completion within the shared copy rung.
        let t = trace(vec![request(1, 0, 100), request(2, 100, 50)], 100);
        let mut queue = EventQueue::new(TraceCursor::new(&t), 100);
        queue.schedule_lifecycle(100, Expansion, 0);
        queue.schedule_lifecycle(100, Decommission, 2);
        queue.schedule_lifecycle(100, EmcRepair, 0);
        queue.schedule_lifecycle(100, EmcFailure, 0);
        queue.schedule_completion(100, Release, 0);
        queue.schedule_completion(100, Migration, 0);
        queue.schedule_completion(100, Reconfig, 0);
        let mut events = Vec::new();
        while let Some(event) = queue.next_event() {
            if let Event::Arrival { request_index, .. } = event {
                let request = queue.take_arrival();
                queue.schedule_departure(request.departure(), request_index as u64, request_index);
            }
            events.push(event);
        }
        assert_eq!(
            events,
            vec![
                Event::Arrival { time: 0, request_index: 0 },
                Event::Lifecycle { time: 100, kind: EmcFailure, index: 0 },
                Event::Lifecycle { time: 100, kind: EmcRepair, index: 0 },
                Event::Lifecycle { time: 100, kind: Decommission, index: 2 },
                Event::Lifecycle { time: 100, kind: Expansion, index: 0 },
                Event::Departure { time: 100, token: 0 },
                Event::Completion { time: 100, kind: Release, group: 0 },
                Event::Completion { time: 100, kind: Reconfig, group: 0 },
                Event::Completion { time: 100, kind: Migration, group: 0 },
                Event::Snapshot { time: 100 },
                Event::Arrival { time: 100, request_index: 1 },
                Event::Departure { time: 150, token: 1 },
            ]
        );
    }

    #[test]
    fn lifecycle_events_pop_in_plan_order_and_drain_past_duration() {
        // Within the shared rung the fixed order is failure < repair <
        // decommission < expansion; within each kind, simultaneous events
        // pop in ascending plan-index (or group) order, and all of them
        // drain even past the trace duration.
        let t = trace(vec![], 100);
        let mut queue = EventQueue::new(TraceCursor::new(&t), 0);
        queue.schedule_lifecycle(5_000, EmcRepair, 1);
        queue.schedule_lifecycle(5_000, EmcRepair, 0);
        queue.schedule_lifecycle(5_000, Expansion, 0);
        queue.schedule_lifecycle(5_000, Decommission, 3);
        queue.schedule_lifecycle(5_000, Decommission, 1);
        queue.schedule_lifecycle(200, EmcRepair, 2);
        assert_eq!(
            queue.next_event(),
            Some(Event::Lifecycle { time: 200, kind: EmcRepair, index: 2 })
        );
        assert_eq!(
            queue.next_event(),
            Some(Event::Lifecycle { time: 5_000, kind: EmcRepair, index: 0 })
        );
        assert_eq!(
            queue.next_event(),
            Some(Event::Lifecycle { time: 5_000, kind: EmcRepair, index: 1 })
        );
        assert_eq!(
            queue.next_event(),
            Some(Event::Lifecycle { time: 5_000, kind: Decommission, index: 1 })
        );
        assert_eq!(
            queue.next_event(),
            Some(Event::Lifecycle { time: 5_000, kind: Decommission, index: 3 })
        );
        assert_eq!(
            queue.next_event(),
            Some(Event::Lifecycle { time: 5_000, kind: Expansion, index: 0 })
        );
        assert_eq!(queue.next_event(), None);
    }

    #[test]
    fn simultaneous_failures_pop_in_plan_order_and_drain_past_duration() {
        let t = trace(vec![], 100);
        let mut queue = EventQueue::new(TraceCursor::new(&t), 0);
        queue.schedule_lifecycle(5_000, EmcFailure, 1);
        queue.schedule_lifecycle(5_000, EmcFailure, 0);
        queue.schedule_lifecycle(200, EmcFailure, 3);
        assert_eq!(
            queue.next_event(),
            Some(Event::Lifecycle { time: 200, kind: EmcFailure, index: 3 })
        );
        assert_eq!(
            queue.next_event(),
            Some(Event::Lifecycle { time: 5_000, kind: EmcFailure, index: 0 })
        );
        assert_eq!(
            queue.next_event(),
            Some(Event::Lifecycle { time: 5_000, kind: EmcFailure, index: 1 })
        );
        assert_eq!(queue.next_event(), None);
    }

    #[test]
    fn migration_completions_pop_earliest_first_and_drain_past_duration() {
        let t = trace(vec![], 100);
        let mut queue = EventQueue::new(TraceCursor::new(&t), 0);
        queue.schedule_completion(10_000, Migration, 0);
        queue.schedule_completion(5_000, Migration, 0);
        assert_eq!(
            queue.next_event(),
            Some(Event::Completion { time: 5_000, kind: Migration, group: 0 })
        );
        assert_eq!(
            queue.next_event(),
            Some(Event::Completion { time: 10_000, kind: Migration, group: 0 })
        );
        assert_eq!(queue.next_event(), None);
    }

    #[test]
    fn scheduled_departures_pop_earliest_first() {
        let t = trace(vec![], 0);
        let mut queue = EventQueue::new(TraceCursor::new(&t), 0);
        queue.schedule_departure(10, 0, 0);
        queue.schedule_departure(5, 1, 1);
        assert_eq!(queue.next_event(), Some(Event::Departure { time: 5, token: 1 }));
        assert_eq!(queue.next_event(), Some(Event::Departure { time: 10, token: 0 }));
        assert_eq!(queue.next_event(), None);
    }

    #[test]
    fn rejected_vms_never_fire_departures() {
        // Request 0 is "rejected" (its departure is never armed); requests 1
        // and 2 are placed. The calendar holds only armed departures, so
        // nothing from request 0 ever pops.
        let t = trace(vec![request(1, 0, 500), request(2, 10, 100), request(3, 20, 980)], 1_000);
        let mut queue = EventQueue::new(TraceCursor::new(&t), 0);
        let mut events = Vec::new();
        while let Some(event) = queue.next_event() {
            if let Event::Arrival { request_index, .. } = event {
                let request = queue.take_arrival();
                if request_index != 0 {
                    queue.schedule_departure(
                        request.departure(),
                        request_index as u64,
                        request_index,
                    );
                }
            }
            events.push(event);
        }
        assert_eq!(
            events,
            vec![
                Event::Arrival { time: 0, request_index: 0 },
                Event::Arrival { time: 10, request_index: 1 },
                Event::Arrival { time: 20, request_index: 2 },
                Event::Departure { time: 110, token: 1 },
                Event::Departure { time: 1_000, token: 2 },
            ]
        );
    }

    #[test]
    fn zero_lifetime_vm_departs_between_its_own_arrival_and_the_next() {
        // Request 0 lives 0 seconds and departs at t=10 — the same instant
        // requests 1 and 2 arrive. The departure must pop between arrival 0's
        // processing and arrival 1 (departures order before arrivals at equal
        // times).
        let t = trace(vec![request(1, 10, 0), request(2, 10, 0), request(3, 10, 50)], 100);
        let mut queue = EventQueue::new(TraceCursor::new(&t), 0);
        let mut events = Vec::new();
        while let Some(event) = queue.next_event() {
            if let Event::Arrival { request_index, .. } = event {
                let request = queue.take_arrival();
                queue.schedule_departure(request.departure(), request_index as u64, request_index);
            }
            events.push(event);
        }
        assert_eq!(
            events,
            vec![
                Event::Arrival { time: 10, request_index: 0 },
                Event::Departure { time: 10, token: 0 },
                Event::Arrival { time: 10, request_index: 1 },
                Event::Departure { time: 10, token: 1 },
                Event::Arrival { time: 10, request_index: 2 },
                Event::Departure { time: 60, token: 2 },
            ]
        );
    }

    #[test]
    fn a_source_error_latches_and_stops_the_stream() {
        struct Failing {
            header: TraceHeader,
            yielded: bool,
        }
        impl ArrivalSource for Failing {
            fn header(&self) -> &TraceHeader {
                &self.header
            }
            fn next_request(&mut self) -> Result<Option<VmRequest>, SourceError> {
                if self.yielded {
                    Err(SourceError::Malformed("stream truncated".into()))
                } else {
                    self.yielded = true;
                    Ok(Some(request(1, 0, 50)))
                }
            }
        }
        let source = Failing {
            header: TraceHeader {
                cluster_id: 0,
                servers: 1,
                cores_per_server: 8,
                dram_per_server: Bytes::from_gib(64),
                duration: 100,
            },
            yielded: false,
        };
        let mut queue = EventQueue::new(source, 0);
        // The first arrival pops; pulling its successor hits the error, so
        // the queue stops immediately — before any scheduled departure.
        assert_eq!(queue.next_event(), Some(Event::Arrival { time: 0, request_index: 0 }));
        let r = queue.take_arrival();
        queue.schedule_departure(r.departure(), 0, 0);
        assert_eq!(queue.next_event(), None);
        assert!(matches!(queue.source_error(), Some(SourceError::Malformed(_))));
    }

    /// Every lifecycle and completion kind, for the proptest to draw from.
    const LIFECYCLE_KINDS: [LifecycleKind; 4] = [EmcFailure, EmcRepair, Decommission, Expansion];
    const COMPLETION_KINDS: [CompletionKind; 3] = [Release, Reconfig, Migration];

    /// Drives one random schedule through a queue: `arm[i]` decides whether
    /// arrival `i` schedules its departure (a rejected VM does not),
    /// `extras` injects lifecycle operations and completions of every kind,
    /// and out-of-band departures (foreign tokens, arbitrary times) before
    /// the drain, and `reactions[k]` lets the `k`-th popped event schedule a
    /// completion of any kind or a foreign-token departure 0–2 s after it, as
    /// a replay schedules them mid-drain. A 0 s reaction lands behind events
    /// of the same second that already popped.
    macro_rules! drive_schedule {
        ($queue:expr, $trace:expr, $arm:expr, $extras:expr, $reactions:expr) => {{
            let mut queue = $queue;
            for (i, &(class, time, index)) in $extras.iter().enumerate() {
                match class {
                    0..=3 => queue.schedule_lifecycle(time, LIFECYCLE_KINDS[class], index % 4),
                    4..=6 => {
                        queue.schedule_completion(time, COMPLETION_KINDS[class - 4], index % 4)
                    }
                    // Foreign tokens at arbitrary times.
                    7 => {
                        let token = $trace.requests.len() + i;
                        queue.schedule_departure(time, token as u64, token);
                    }
                    // In-range tokens with arbitrary times, including
                    // collisions with armed departures.
                    _ => {
                        let token = index % ($trace.requests.len() + 1);
                        queue.schedule_departure(time, token as u64, token);
                    }
                }
            }
            let mut events = Vec::new();
            while let Some(event) = queue.next_event() {
                if let Event::Arrival { request_index, .. } = event {
                    if $arm[request_index] {
                        let request = &$trace.requests[request_index];
                        queue.schedule_departure(
                            request.departure(),
                            request_index as u64,
                            request_index,
                        );
                    }
                }
                if let Some(&(kind, delay, index)) = $reactions.get(events.len()) {
                    let time = event.time() + delay;
                    match kind {
                        0..=2 => queue.schedule_completion(time, COMPLETION_KINDS[kind], index % 4),
                        3 => {
                            let token = $trace.requests.len() + $extras.len() + events.len();
                            queue.schedule_departure(time, index as u64, token);
                        }
                        // Most pops schedule nothing.
                        _ => {}
                    }
                }
                events.push(event);
                assert!(events.len() < 10_000, "runaway drain");
            }
            events
        }};
    }

    proptest! {
        /// The streamed queue and the materialized reference queue emit
        /// bit-identical event streams for arbitrary schedules: colliding
        /// timestamps, zero-lifetime VMs, rejected VMs, every event kind
        /// (lifecycle operations included), and events scheduled mid-drain
        /// at or just after the time that popped.
        #[test]
        fn streamed_queue_matches_the_materialized_reference_queue(
            shape in proptest::collection::vec((0u64..8, 0u64..120, proptest::bool::ANY), 0..24),
            extras in proptest::collection::vec((0usize..9, 0u64..400, 0usize..32), 0..16),
            reactions in proptest::collection::vec((0usize..8, 0u64..3, 0usize..32), 0..64),
            duration in 0u64..350,
        ) {
            let mut arrival = 0;
            let mut requests = Vec::new();
            let mut arm = Vec::new();
            for (i, &(delta, lifetime, place)) in shape.iter().enumerate() {
                arrival += delta;
                requests.push(request(i as u64, arrival, lifetime));
                arm.push(place);
            }
            let t = trace(requests, duration);
            let streamed = drive_schedule!(
                EventQueue::new(TraceCursor::new(&t), 30),
                &t,
                arm,
                extras,
                reactions
            );
            let reference =
                drive_schedule!(ReferenceEventQueue::new(&t, 30), &t, arm, extras, reactions);
            prop_assert_eq!(streamed, reference);
        }
    }
}
