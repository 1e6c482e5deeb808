//! The time-ordered event core of the cluster simulator.
//!
//! The simulator processes six classes of events: memory-device (EMC)
//! failures (scheduled by failure-drill drivers), VM arrivals (streamed
//! from an [`ArrivalSource`]), VM departures (scheduled when a VM is
//! placed), asynchronous pool-slice release completions (scheduled by
//! pool-aware drivers such as `pond-core`'s fleet simulator), copy
//! completions — reconfiguration copies (scheduled when a QoS mitigation
//! starts its pool→local copy) and migration copies (scheduled when an
//! evacuated VM starts copying to its new home) — and periodic snapshot
//! ticks. [`EventQueue`] merges the sources into a single stream ordered by
//! time, with a fixed tie order at equal times:
//!
//! 1. **Failures and lifecycle operations** — a failure at time `t` applies
//!    before anything else at `t`: the departures, snapshots, and arrivals
//!    sharing its timestamp all observe the degraded (post-failure) pool.
//!    The pool-lifecycle events share this rung — repairs
//!    ([`Event::EmcRepair`]), graceful decommissions
//!    ([`Event::GroupDecommission`]), and live expansions
//!    ([`Event::GroupExpansion`]) are infrastructure state changes that,
//!    like failures, must be visible to every same-instant observer.
//!    Within the rung the order is fixed: failure, then repair, then
//!    decommission, then expansion — a pool that dies and is replaced at
//!    the same instant ends up healthy, and a decommission races an
//!    expansion by draining first.
//! 2. **Departures** — a snapshot or arrival at time `t` observes every
//!    departure with time `<= t`.
//! 3. **Releases** — offlining that finishes at `t` refills the pool buffer
//!    before a snapshot samples it and before an arrival at `t` tries to
//!    allocate from it.
//! 4. **Copy completions** — a mitigation or migration copy that finishes
//!    at `t` ends the VM's degraded-mode window before the snapshot at `t`
//!    observes it. The two copy kinds share one rung; when both collide at
//!    the same instant, reconfiguration completions pop first.
//! 5. **Snapshots** — a snapshot at time `t` runs before an arrival at `t`,
//!    so it never reflects VMs that arrive at the very instant it samples.
//! 6. **Arrivals** — in stream order.
//!
//! Simultaneous departures pop in ascending scheduling sequence (drivers
//! pass the VM's arrival ordinal, preserving trace order whatever the
//! departure tokens are: VM ids need not rise with arrival order),
//! simultaneous failures in ascending drill-plan order, and simultaneous
//! completions of one kind (release, reconfiguration, migration) in
//! ascending order of the pool group they carry, making the whole stream
//! deterministic.
//! Processing events strictly in this order is what guarantees (by
//! construction) that snapshots never observe the future and that
//! departures after the final arrival are still drained: the queue is only
//! exhausted when *all* sources are.
//!
//! # Data structures
//!
//! [`EventQueue`] is built for replay throughput in O(live VMs) memory. It
//! keeps four fronts and pops the least `(time, rank)` among them, where the
//! rank is a class's place in the tie order above:
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
//! * **Every other scheduled class** — failures, lifecycle operations,
//!   releases, copy completions — shares one binary heap keyed by
//!   `(time, rank, payload)`; the payload (plan index or pool group) orders
//!   simultaneous events of one class.
//! * **Snapshots** are a counter.
//!
//! No two fronts hold the same rank, so the least front is unique. The
//! retained [`ReferenceEventQueue`] keeps one heap per class over a
//! materialized trace; a proptest pins the streamed queue to it event for
//! event, and `pond-core`'s reference replay runs on it.
//!
//! Snapshot ticks fire every `snapshot_interval` seconds; when the interval
//! does not divide the source's duration, a final tick fires *at* the
//! duration so end-of-trace stranding statistics never miss the tail
//! window.

use crate::source::{ArrivalSource, SourceError, TraceHeader};
use crate::trace::{ClusterTrace, VmRequest};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// One simulation event, tagged with its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A pooled memory device (EMC) fails. `failure_index` indexes the
    /// driver's failure-drill plan (which EMC of which pool group dies); the
    /// queue itself only orders the event. Only delivered when the driver
    /// schedules failures via [`EventQueue::schedule_emc_failure`]. Failures
    /// order *before* departures at equal times, so every observer at `t` —
    /// including the snapshot sharing the timestamp — sees the degraded
    /// window, never a pool that quietly healed between events.
    EmcFailure {
        /// Failure time in seconds since trace start.
        time: u64,
        /// Index of the failure in the driver's drill plan.
        failure_index: usize,
    },
    /// A failed pooled memory device (EMC) is repaired (replaced in its
    /// pool slot). `repair_index` indexes the driver's repair plan (which
    /// EMC of which pool group returns to service). Shares the failure rung
    /// at equal times, popping after failures: a device that dies and is
    /// swapped at the same instant comes back healthy. Only delivered when
    /// the driver schedules repairs via [`EventQueue::schedule_emc_repair`].
    EmcRepair {
        /// Repair time in seconds since trace start.
        time: u64,
        /// Index of the repair in the driver's lifecycle plan.
        repair_index: usize,
    },
    /// A pool group begins a graceful decommission: the group stops
    /// accepting placements and drains its VMs through migration — it never
    /// kills. Shares the failure rung at equal times (after failures and
    /// repairs), so same-instant snapshots and arrivals observe the
    /// draining group. Only delivered when the driver schedules
    /// decommissions via [`EventQueue::schedule_group_decommission`].
    GroupDecommission {
        /// Decommission time in seconds since trace start.
        time: u64,
        /// The pool group being decommissioned.
        group: usize,
    },
    /// A pool group gains capacity live: a new EMC attaches (or a
    /// replacement pod re-onlines a decommissioned slot).
    /// `expansion_index` indexes the driver's expansion plan. Shares the
    /// failure rung at equal times, popping last within it, so a
    /// same-instant decommission drains before the replacement joins. Only
    /// delivered when the driver schedules expansions via
    /// [`EventQueue::schedule_group_expansion`].
    GroupExpansion {
        /// Expansion time in seconds since trace start.
        time: u64,
        /// Index of the expansion in the driver's lifecycle plan.
        expansion_index: usize,
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
    /// An asynchronous pool-slice release completes: capacity that was
    /// offlining becomes reusable. Only delivered when the driver schedules
    /// releases via [`EventQueue::schedule_release`]; the plain cluster
    /// simulator models releases as instantaneous and never does.
    Release {
        /// Completion time in seconds since trace start.
        time: u64,
        /// The pool group whose pool the slices return to.
        group: usize,
    },
    /// A QoS-mitigation reconfiguration copy completes: the VM that was
    /// running degraded while its pool memory copied to local DRAM is back
    /// at full speed. Only delivered when the driver schedules completions
    /// via [`EventQueue::schedule_reconfig_done`].
    ReconfigDone {
        /// Copy-completion time in seconds since trace start.
        time: u64,
        /// The pool group whose QoS pass started the copy.
        group: usize,
    },
    /// An evacuation-migration copy completes: a VM that was re-homed after
    /// a failure is done copying its memory to the destination and leaves
    /// its degraded in-migration window. Shares the copy-completion rung
    /// with [`Event::ReconfigDone`] (reconfigurations pop first at identical
    /// instants). Only delivered when the driver schedules completions via
    /// [`EventQueue::schedule_migration_done`].
    MigrationDone {
        /// Copy-completion time in seconds since trace start.
        time: u64,
        /// The pool group the migrated VM left.
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
            Event::EmcFailure { time, .. }
            | Event::EmcRepair { time, .. }
            | Event::GroupDecommission { time, .. }
            | Event::GroupExpansion { time, .. }
            | Event::Departure { time, .. }
            | Event::Release { time, .. }
            | Event::ReconfigDone { time, .. }
            | Event::MigrationDone { time, .. }
            | Event::Snapshot { time }
            | Event::Arrival { time, .. } => time,
        }
    }

    /// Tie order at equal times — the six-class contract: failures and
    /// lifecycle operations (failure, repair, decommission, expansion — in
    /// that fixed peek order within the shared rung), then departures, then
    /// releases, then copy completions (reconfiguration and migration share
    /// the rung; reconfigurations peek first), then snapshots, then
    /// arrivals.
    fn class(&self) -> u8 {
        match self {
            Event::EmcFailure { .. }
            | Event::EmcRepair { .. }
            | Event::GroupDecommission { .. }
            | Event::GroupExpansion { .. } => 0,
            Event::Departure { .. } => 1,
            Event::Release { .. } => 2,
            Event::ReconfigDone { .. } | Event::MigrationDone { .. } => 3,
            Event::Snapshot { .. } => 4,
            Event::Arrival { .. } => 5,
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

/// A class's place in the tie order at equal times. Declaration order is
/// pop order, so the order is written once, here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rank {
    Failure,
    Repair,
    Decommission,
    Expansion,
    Departure,
    Release,
    Reconfig,
    Migration,
    Snapshot,
    Arrival,
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

/// Merges arrivals, scheduled departures, EMC failures, release
/// completions, copy completions, and snapshot ticks into one time-ordered
/// event stream.
///
/// Arrivals stream from an [`ArrivalSource`] (already sorted by arrival
/// time) through a one-request lookahead; departures, release completions,
/// and copy completions are pushed by the caller as VMs are placed, as pool
/// slices start offlining, and as copies start; snapshot ticks fire every
/// `snapshot_interval` seconds up to and including the source's duration,
/// with a final tail tick at the duration when the interval does not divide
/// it (an interval of `0` disables snapshots). Scheduled events past the
/// duration are still delivered — the queue only ends when every source is
/// exhausted.
///
/// When the source errors mid-stream, the queue latches the error, stops
/// immediately (returns `None`), and exposes the cause via
/// [`EventQueue::source_error`] — drivers check it after the drain.
///
/// Internally departures live in an incremental per-second calendar (armed
/// at placement time, holding only live VMs) and every other scheduled
/// class in one heap; see the module docs for the layout.
/// [`ReferenceEventQueue`] is the heap-per-class implementation the test
/// suite compares against.
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
    /// Failures, lifecycle operations, releases and copy completions, keyed
    /// by `(time, rank, payload)`.
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

    /// Schedules an EMC-failure event (called up front by failure-drill
    /// drivers; `failure_index` identifies the entry in the driver's plan).
    /// Simultaneous failures pop in ascending `failure_index` order.
    pub fn schedule_emc_failure(&mut self, time: u64, failure_index: usize) {
        self.timeline.push(Reverse((time, Rank::Failure, failure_index)));
    }

    /// Schedules an EMC-repair event (called up front by lifecycle drivers;
    /// `repair_index` identifies the entry in the driver's repair plan).
    /// Simultaneous repairs pop in ascending `repair_index` order.
    pub fn schedule_emc_repair(&mut self, time: u64, repair_index: usize) {
        self.timeline.push(Reverse((time, Rank::Repair, repair_index)));
    }

    /// Schedules a graceful group-decommission event (called up front by
    /// lifecycle drivers; `group` is the pool group to drain). Simultaneous
    /// decommissions pop in ascending `group` order.
    pub fn schedule_group_decommission(&mut self, time: u64, group: usize) {
        self.timeline.push(Reverse((time, Rank::Decommission, group)));
    }

    /// Schedules a live group-expansion event (called up front by lifecycle
    /// drivers; `expansion_index` identifies the entry in the driver's
    /// expansion plan). Simultaneous expansions pop in ascending
    /// `expansion_index` order.
    pub fn schedule_group_expansion(&mut self, time: u64, expansion_index: usize) {
        self.timeline.push(Reverse((time, Rank::Expansion, expansion_index)));
    }

    /// Schedules a migration-copy completion event (called when an evacuated
    /// VM starts copying to its new home; `time` is when the copy finishes
    /// and the VM leaves its in-migration degraded window). `group` is
    /// echoed back in [`Event::MigrationDone`]; simultaneous completions pop
    /// in ascending `group` order.
    pub fn schedule_migration_done(&mut self, time: u64, group: usize) {
        self.timeline.push(Reverse((time, Rank::Migration, group)));
    }

    /// Schedules a release-completion event (called when pool slices start
    /// their asynchronous offlining; `time` is when the offlining finishes).
    /// `group` is echoed back in [`Event::Release`]; simultaneous releases
    /// pop in ascending `group` order.
    pub fn schedule_release(&mut self, time: u64, group: usize) {
        self.timeline.push(Reverse((time, Rank::Release, group)));
    }

    /// Schedules a reconfiguration-copy completion event (called when a QoS
    /// mitigation starts its pool→local copy; `time` is when the copy
    /// finishes and the VM leaves degraded mode). `group` is echoed back in
    /// [`Event::ReconfigDone`]; simultaneous completions pop in ascending
    /// `group` order.
    pub fn schedule_reconfig_done(&mut self, time: u64, group: usize) {
        self.timeline.push(Reverse((time, Rank::Reconfig, group)));
    }

    /// Pops the next event in time order (ties: failure, repair,
    /// decommission, expansion, departure, release, reconfiguration
    /// completion, migration completion, snapshot, arrival). Returns `None`
    /// once every source is exhausted, or immediately after the arrival
    /// source errors (see [`EventQueue::source_error`]).
    pub fn next_event(&mut self) -> Option<Event> {
        if self.error.is_some() {
            return None;
        }
        let fronts = [
            self.timeline.peek().map(|&Reverse((time, rank, _))| (time, rank)),
            self.departures.peek().map(|time| (time, Rank::Departure)),
            (self.next_snapshot != u64::MAX).then_some((self.next_snapshot, Rank::Snapshot)),
            self.lookahead.as_ref().map(|request| (request.arrival, Rank::Arrival)),
        ];
        let (time, rank) = fronts.into_iter().flatten().min()?;
        Some(match rank {
            Rank::Departure => {
                let (time, token) = self.departures.pop().expect("peeked departure");
                Event::Departure { time, token }
            }
            Rank::Snapshot => {
                self.next_snapshot =
                    advance_snapshot(time, self.snapshot_interval, self.snapshot_horizon);
                Event::Snapshot { time }
            }
            Rank::Arrival => {
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
            _ => {
                let Reverse((time, rank, payload)) = self.timeline.pop().expect("peeked event");
                match rank {
                    Rank::Failure => Event::EmcFailure { time, failure_index: payload },
                    Rank::Repair => Event::EmcRepair { time, repair_index: payload },
                    Rank::Decommission => Event::GroupDecommission { time, group: payload },
                    Rank::Expansion => Event::GroupExpansion { time, expansion_index: payload },
                    Rank::Release => Event::Release { time, group: payload },
                    Rank::Reconfig => Event::ReconfigDone { time, group: payload },
                    Rank::Migration => Event::MigrationDone { time, group: payload },
                    Rank::Departure | Rank::Snapshot | Rank::Arrival => {
                        unreachable!("{rank:?} has a front of its own")
                    }
                }
            }
        })
    }
}

/// Total order key: time first, then the event class (see [`Event::class`]).
fn keyed(event: Event) -> (u64, u8) {
    (event.time(), event.class())
}

/// The original heap-per-source event queue over a materialized trace,
/// retained as the test-only reference implementation: every scheduled
/// source is a [`BinaryHeap`] and [`ReferenceEventQueue::next_event`] peeks
/// every source in tie order. The equivalence proptest drives random schedules
/// through this queue and the streamed [`EventQueue`] and asserts
/// bit-identical event streams; `pond-core`'s reference replay uses it the
/// same way to pin the optimized fleet replay. Carries the same
/// tail-snapshot semantics as the streamed queue (a final tick at the trace
/// duration when the interval does not divide it).
#[derive(Debug)]
pub struct ReferenceEventQueue<'a> {
    requests: &'a ClusterTrace,
    next_arrival: usize,
    failures: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    repairs: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    decommissions: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    expansions: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    departures: BinaryHeap<Departure>,
    releases: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    reconfigs: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    migrations: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
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
            failures: BinaryHeap::new(),
            repairs: BinaryHeap::new(),
            decommissions: BinaryHeap::new(),
            expansions: BinaryHeap::new(),
            departures: BinaryHeap::new(),
            releases: BinaryHeap::new(),
            reconfigs: BinaryHeap::new(),
            migrations: BinaryHeap::new(),
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

    /// Schedules an EMC-failure event; same contract as
    /// [`EventQueue::schedule_emc_failure`].
    pub fn schedule_emc_failure(&mut self, time: u64, failure_index: usize) {
        self.failures.push(std::cmp::Reverse((time, failure_index)));
    }

    /// Schedules an EMC-repair event; same contract as
    /// [`EventQueue::schedule_emc_repair`].
    pub fn schedule_emc_repair(&mut self, time: u64, repair_index: usize) {
        self.repairs.push(std::cmp::Reverse((time, repair_index)));
    }

    /// Schedules a graceful group-decommission event; same contract as
    /// [`EventQueue::schedule_group_decommission`].
    pub fn schedule_group_decommission(&mut self, time: u64, group: usize) {
        self.decommissions.push(std::cmp::Reverse((time, group)));
    }

    /// Schedules a live group-expansion event; same contract as
    /// [`EventQueue::schedule_group_expansion`].
    pub fn schedule_group_expansion(&mut self, time: u64, expansion_index: usize) {
        self.expansions.push(std::cmp::Reverse((time, expansion_index)));
    }

    /// Schedules a migration-copy completion event; same contract as
    /// [`EventQueue::schedule_migration_done`].
    pub fn schedule_migration_done(&mut self, time: u64, group: usize) {
        self.migrations.push(std::cmp::Reverse((time, group)));
    }

    /// Schedules a release-completion event; same contract as
    /// [`EventQueue::schedule_release`].
    pub fn schedule_release(&mut self, time: u64, group: usize) {
        self.releases.push(std::cmp::Reverse((time, group)));
    }

    /// Schedules a reconfiguration-copy completion event; same contract as
    /// [`EventQueue::schedule_reconfig_done`].
    pub fn schedule_reconfig_done(&mut self, time: u64, group: usize) {
        self.reconfigs.push(std::cmp::Reverse((time, group)));
    }

    fn peek_snapshot(&self) -> Option<u64> {
        (self.next_snapshot != u64::MAX).then_some(self.next_snapshot)
    }

    /// Pops the next event in time order; same contract as
    /// [`EventQueue::next_event`].
    pub fn next_event(&mut self) -> Option<Event> {
        // Sources are peeked in tie order with a strict-less comparison, so
        // the earliest-peeked candidate wins every exact tie — including the
        // reconfiguration-before-migration order within the shared
        // copy-completion class.
        let mut best: Option<Event> = None;
        if let Some(&std::cmp::Reverse((time, failure_index))) = self.failures.peek() {
            best = Some(Event::EmcFailure { time, failure_index });
        }
        if let Some(&std::cmp::Reverse((time, repair_index))) = self.repairs.peek() {
            let candidate = Event::EmcRepair { time, repair_index };
            if best.is_none_or(|b| keyed(candidate) < keyed(b)) {
                best = Some(candidate);
            }
        }
        if let Some(&std::cmp::Reverse((time, group))) = self.decommissions.peek() {
            let candidate = Event::GroupDecommission { time, group };
            if best.is_none_or(|b| keyed(candidate) < keyed(b)) {
                best = Some(candidate);
            }
        }
        if let Some(&std::cmp::Reverse((time, expansion_index))) = self.expansions.peek() {
            let candidate = Event::GroupExpansion { time, expansion_index };
            if best.is_none_or(|b| keyed(candidate) < keyed(b)) {
                best = Some(candidate);
            }
        }
        if let Some(dep) = self.departures.peek() {
            let candidate = Event::Departure { time: dep.time, token: dep.token };
            if best.is_none_or(|b| keyed(candidate) < keyed(b)) {
                best = Some(candidate);
            }
        }
        if let Some(&std::cmp::Reverse((time, group))) = self.releases.peek() {
            let candidate = Event::Release { time, group };
            if best.is_none_or(|b| keyed(candidate) < keyed(b)) {
                best = Some(candidate);
            }
        }
        if let Some(&std::cmp::Reverse((time, group))) = self.reconfigs.peek() {
            let candidate = Event::ReconfigDone { time, group };
            if best.is_none_or(|b| keyed(candidate) < keyed(b)) {
                best = Some(candidate);
            }
        }
        if let Some(&std::cmp::Reverse((time, group))) = self.migrations.peek() {
            let candidate = Event::MigrationDone { time, group };
            if best.is_none_or(|b| keyed(candidate) < keyed(b)) {
                best = Some(candidate);
            }
        }
        if let Some(time) = self.peek_snapshot() {
            let candidate = Event::Snapshot { time };
            if best.is_none_or(|b| keyed(candidate) < keyed(b)) {
                best = Some(candidate);
            }
        }
        if let Some(request) = self.requests.requests.get(self.next_arrival) {
            let candidate =
                Event::Arrival { time: request.arrival, request_index: self.next_arrival };
            if best.is_none_or(|b| keyed(candidate) < keyed(b)) {
                best = Some(candidate);
            }
        }
        match best? {
            event @ Event::EmcFailure { .. } => {
                self.failures.pop();
                Some(event)
            }
            event @ Event::EmcRepair { .. } => {
                self.repairs.pop();
                Some(event)
            }
            event @ Event::GroupDecommission { .. } => {
                self.decommissions.pop();
                Some(event)
            }
            event @ Event::GroupExpansion { .. } => {
                self.expansions.pop();
                Some(event)
            }
            event @ Event::Departure { .. } => {
                self.departures.pop();
                Some(event)
            }
            event @ Event::Release { .. } => {
                self.releases.pop();
                Some(event)
            }
            event @ Event::ReconfigDone { .. } => {
                self.reconfigs.pop();
                Some(event)
            }
            event @ Event::MigrationDone { .. } => {
                self.migrations.pop();
                Some(event)
            }
            event @ Event::Snapshot { .. } => {
                self.next_snapshot = advance_snapshot(
                    self.next_snapshot,
                    self.snapshot_interval,
                    self.snapshot_horizon,
                );
                Some(event)
            }
            event @ Event::Arrival { .. } => {
                self.next_arrival += 1;
                Some(event)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::TraceCursor;
    use crate::trace::{CustomerId, GuestOs, VmRequest, VmType};
    use cxl_hw::units::Bytes;
    use proptest::prelude::*;

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
        queue.schedule_release(100, 0);
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
                Event::Release { time: 100, group: 0 },
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
        queue.schedule_release(100, 0);
        queue.schedule_reconfig_done(100, 0);
        let mut events = Vec::new();
        while let Some(event) = queue.next_event() {
            events.push(event);
        }
        assert_eq!(
            events,
            vec![
                Event::Release { time: 100, group: 0 },
                Event::ReconfigDone { time: 100, group: 0 },
                Event::Snapshot { time: 100 },
                Event::Arrival { time: 100, request_index: 0 },
            ]
        );
    }

    #[test]
    fn reconfig_completions_pop_earliest_first_and_drain_past_duration() {
        let t = trace(vec![], 100);
        let mut queue = EventQueue::new(TraceCursor::new(&t), 0);
        queue.schedule_reconfig_done(10_000, 0);
        queue.schedule_reconfig_done(5_000, 0);
        assert_eq!(queue.next_event(), Some(Event::ReconfigDone { time: 5_000, group: 0 }));
        assert_eq!(queue.next_event(), Some(Event::ReconfigDone { time: 10_000, group: 0 }));
        assert_eq!(queue.next_event(), None);
    }

    #[test]
    fn releases_past_the_trace_duration_are_drained() {
        let t = trace(vec![], 100);
        let mut queue = EventQueue::new(TraceCursor::new(&t), 0);
        queue.schedule_release(10_000, 0);
        queue.schedule_release(5_000, 0);
        assert_eq!(queue.next_event(), Some(Event::Release { time: 5_000, group: 0 }));
        assert_eq!(queue.next_event(), Some(Event::Release { time: 10_000, group: 0 }));
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
        queue.schedule_group_expansion(100, 0);
        queue.schedule_group_decommission(100, 2);
        queue.schedule_emc_repair(100, 0);
        queue.schedule_emc_failure(100, 0);
        queue.schedule_release(100, 0);
        queue.schedule_migration_done(100, 0);
        queue.schedule_reconfig_done(100, 0);
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
                Event::EmcFailure { time: 100, failure_index: 0 },
                Event::EmcRepair { time: 100, repair_index: 0 },
                Event::GroupDecommission { time: 100, group: 2 },
                Event::GroupExpansion { time: 100, expansion_index: 0 },
                Event::Departure { time: 100, token: 0 },
                Event::Release { time: 100, group: 0 },
                Event::ReconfigDone { time: 100, group: 0 },
                Event::MigrationDone { time: 100, group: 0 },
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
        queue.schedule_emc_repair(5_000, 1);
        queue.schedule_emc_repair(5_000, 0);
        queue.schedule_group_expansion(5_000, 0);
        queue.schedule_group_decommission(5_000, 3);
        queue.schedule_group_decommission(5_000, 1);
        queue.schedule_emc_repair(200, 2);
        assert_eq!(queue.next_event(), Some(Event::EmcRepair { time: 200, repair_index: 2 }));
        assert_eq!(queue.next_event(), Some(Event::EmcRepair { time: 5_000, repair_index: 0 }));
        assert_eq!(queue.next_event(), Some(Event::EmcRepair { time: 5_000, repair_index: 1 }));
        assert_eq!(queue.next_event(), Some(Event::GroupDecommission { time: 5_000, group: 1 }));
        assert_eq!(queue.next_event(), Some(Event::GroupDecommission { time: 5_000, group: 3 }));
        assert_eq!(
            queue.next_event(),
            Some(Event::GroupExpansion { time: 5_000, expansion_index: 0 })
        );
        assert_eq!(queue.next_event(), None);
    }

    #[test]
    fn simultaneous_failures_pop_in_plan_order_and_drain_past_duration() {
        let t = trace(vec![], 100);
        let mut queue = EventQueue::new(TraceCursor::new(&t), 0);
        queue.schedule_emc_failure(5_000, 1);
        queue.schedule_emc_failure(5_000, 0);
        queue.schedule_emc_failure(200, 3);
        assert_eq!(queue.next_event(), Some(Event::EmcFailure { time: 200, failure_index: 3 }));
        assert_eq!(queue.next_event(), Some(Event::EmcFailure { time: 5_000, failure_index: 0 }));
        assert_eq!(queue.next_event(), Some(Event::EmcFailure { time: 5_000, failure_index: 1 }));
        assert_eq!(queue.next_event(), None);
    }

    #[test]
    fn migration_completions_pop_earliest_first_and_drain_past_duration() {
        let t = trace(vec![], 100);
        let mut queue = EventQueue::new(TraceCursor::new(&t), 0);
        queue.schedule_migration_done(10_000, 0);
        queue.schedule_migration_done(5_000, 0);
        assert_eq!(queue.next_event(), Some(Event::MigrationDone { time: 5_000, group: 0 }));
        assert_eq!(queue.next_event(), Some(Event::MigrationDone { time: 10_000, group: 0 }));
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

    /// Drives one random schedule through a queue: `arm[i]` decides whether
    /// arrival `i` schedules its departure (a rejected VM does not),
    /// `extras` injects failures, releases, copy completions, lifecycle
    /// operations (repairs, decommissions, expansions), and out-of-band
    /// departures (foreign tokens, arbitrary times) before the drain, and
    /// `reactions[k]` lets the `k`-th popped event schedule a release, a
    /// reconfiguration or migration completion, or a foreign-token departure
    /// 0–2 s after it, as a replay schedules them mid-drain. A 0 s reaction
    /// lands behind events of the same second that already popped.
    macro_rules! drive_schedule {
        ($queue:expr, $trace:expr, $arm:expr, $extras:expr, $reactions:expr) => {{
            let mut queue = $queue;
            for (i, &(class, time, index)) in $extras.iter().enumerate() {
                match class {
                    0 => queue.schedule_emc_failure(time, i),
                    1 => queue.schedule_release(time, index % 4),
                    2 => queue.schedule_reconfig_done(time, index % 4),
                    3 => queue.schedule_migration_done(time, index % 4),
                    6 => queue.schedule_emc_repair(time, i),
                    7 => queue.schedule_group_decommission(time, index % 4),
                    8 => queue.schedule_group_expansion(time, i),
                    // Foreign tokens at arbitrary times.
                    4 => {
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
                        0 => queue.schedule_release(time, index % 4),
                        1 => queue.schedule_reconfig_done(time, index % 4),
                        2 => queue.schedule_migration_done(time, index % 4),
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
            extras in proptest::collection::vec((0u8..9, 0u64..400, 0usize..32), 0..16),
            reactions in proptest::collection::vec((0u8..8, 0u64..3, 0usize..32), 0..64),
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
