//! # pond-metrics
//!
//! Deterministic observability for the Pond fleet replays.
//!
//! The replays in `pond-core` surface a final `FleetOutcome` plus coarse
//! snapshots — a single opaque number per 75-day drill. This crate adds the
//! missing visibility without touching replay semantics:
//!
//! * [`MetricsRegistry`] — counters and fixed-bucket histograms,
//!   keyed by name and recorded in *simulated* time only, so two replays of
//!   the same trace produce byte-identical registries.
//! * [`ReplayObserver`] — the hook contract the replay loops call into:
//!   every popped event, every placement-ladder decision (rung + fallback
//!   reason), every QoS pass, every lifecycle operation, and a per-group
//!   sample at each snapshot tick. [`NullObserver`] disables every hook at
//!   compile time ([`ReplayObserver::ENABLED`] is `false`), so the
//!   unobserved replay monomorphizes to the pre-observability loop.
//! * [`MetricsObserver`] — an observer that feeds a [`MetricsRegistry`]:
//!   event counts by class, ladder-rung hits per group, copy-time and
//!   VM-lifetime histograms.
//! * [`TimeSeriesRecorder`] — an observer that samples per-group
//!   availability, DRAM savings, and pool occupancy at snapshot ticks, and
//!   (when the [`EVENT_LOG_ENV`] environment variable names a path) writes
//!   a JSONL structured event log for post-hoc decision forensics.
//!
//! ## Determinism rules
//!
//! Observers are read-only with respect to the replay: every hook receives
//! shared references and returns nothing, so an observed replay and an
//! unobserved replay of the same `(trace, config, seed)` produce
//! bit-identical outcomes — which the integration suite proptest-pins. All
//! metric values derive from simulated time and replay state; wall-clock
//! profiling lives in `pond-bench`, never here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod observer;
pub mod registry;
pub mod timeseries;

pub use observer::{
    event_class, DecisionTrace, FallbackReason, GroupSample, LadderRung, LifecycleOpKind,
    LifecycleTrace, MetricsObserver, NullObserver, QosPassTrace, ReplayObserver,
};
pub use registry::{Histogram, MetricsRegistry};
pub use timeseries::{GroupSeries, TimeSeriesPoint, TimeSeriesRecorder, EVENT_LOG_ENV};
