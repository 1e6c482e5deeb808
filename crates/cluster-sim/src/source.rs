//! Streaming arrival sources: bounded-memory replacements for a materialized
//! [`ClusterTrace`].
//!
//! Replays used to require the whole request vector up front, so memory grew
//! with trace length. An [`ArrivalSource`] instead yields time-sorted
//! [`VmRequest`]s one at a time behind a [`TraceHeader`] carrying the cluster
//! shape, letting the event core and the fleet replays hold only the *live*
//! VMs. Three implementations ship here and in the neighbouring modules:
//!
//! * [`TraceCursor`] — zero-copy adapter over an in-memory [`ClusterTrace`],
//!   keeping every existing caller working.
//! * [`crate::tracegen::GeneratorSource`] — lazy synthetic generation, so
//!   sweeps stop allocating the trace per grid point.
//! * `AzureTraceReader` (feature `azure-trace`, module `pond_trace`)
//!   — a dependency-free reader for Azure-packing-style CSV traces.
//!
//! [`Validated`] wraps any source with the full streaming validation
//! (per-request consistency, sortedness, horizon bounds); [`TraceCursor`]
//! itself is deliberately permissive so the event-core tests can drive edge
//! cases (zero-lifetime VMs, arrivals past the horizon) that trace-level
//! validation rejects.

use crate::trace::{ClusterTrace, VmRequest};
use cxl_hw::units::Bytes;
use std::fmt;

/// The cluster shape and horizon a source replays against: everything a
/// [`ClusterTrace`] carries except the request vector itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Cluster identifier.
    pub cluster_id: u32,
    /// Number of servers in the cluster.
    pub servers: u32,
    /// Cores per server (across both sockets).
    pub cores_per_server: u32,
    /// DRAM per server (across both sockets).
    pub dram_per_server: Bytes,
    /// Trace duration in seconds.
    pub duration: u64,
}

impl TraceHeader {
    /// The header of a materialized trace.
    pub fn of_trace(trace: &ClusterTrace) -> Self {
        TraceHeader {
            cluster_id: trace.cluster_id,
            servers: trace.servers,
            cores_per_server: trace.cores_per_server,
            dram_per_server: trace.dram_per_server,
            duration: trace.duration,
        }
    }

    /// Total cores in the cluster.
    pub fn total_cores(&self) -> u64 {
        self.servers as u64 * self.cores_per_server as u64
    }

    /// Total DRAM in the cluster.
    pub fn total_dram(&self) -> Bytes {
        Bytes::new(self.dram_per_server.as_u64() * self.servers as u64)
    }
}

/// Why a source stopped yielding requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// The stream violated the trace contract (unsorted, invalid request,
    /// arrival past the horizon, unparseable record, ...).
    Malformed(String),
    /// The underlying reader failed (I/O on a file-backed source).
    Io(String),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Malformed(detail) => write!(f, "malformed trace stream: {detail}"),
            SourceError::Io(detail) => write!(f, "trace stream i/o error: {detail}"),
        }
    }
}

impl std::error::Error for SourceError {}

/// A stream of time-sorted VM arrivals plus the cluster shape they run on.
///
/// The contract: [`ArrivalSource::next_request`] yields requests with
/// non-decreasing `arrival`, each at most `header().duration`, until it
/// returns `Ok(None)`; after that it keeps returning `Ok(None)`. Sources
/// backed by external data enforce the contract as they stream (wrap with
/// [`Validated`] or validate inline); in-memory adapters over already-checked
/// data may skip the per-request work.
pub trait ArrivalSource {
    /// The cluster shape and horizon this source replays against.
    fn header(&self) -> &TraceHeader;

    /// The next arrival in time order, or `Ok(None)` once the stream is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`SourceError`] when the underlying stream is malformed or
    /// unreadable; the stream is dead afterwards.
    fn next_request(&mut self) -> Result<Option<VmRequest>, SourceError>;

    /// How many requests remain to be yielded, when the source knows.
    fn len_hint(&self) -> Option<u64> {
        None
    }
}

/// In-memory adapter: streams a materialized [`ClusterTrace`] by reference.
///
/// Permissive by design — the trace is assumed already validated (or is a
/// deliberate edge-case fixture from the event-core tests), so no
/// per-request checks run. Wrap in [`Validated`] for the full streaming
/// checks.
#[derive(Debug)]
pub struct TraceCursor<'a> {
    header: TraceHeader,
    requests: &'a [VmRequest],
    next: usize,
}

impl<'a> TraceCursor<'a> {
    /// Streams `trace`'s requests in order.
    pub fn new(trace: &'a ClusterTrace) -> Self {
        TraceCursor { header: TraceHeader::of_trace(trace), requests: &trace.requests, next: 0 }
    }
}

impl ArrivalSource for TraceCursor<'_> {
    fn header(&self) -> &TraceHeader {
        &self.header
    }

    fn next_request(&mut self) -> Result<Option<VmRequest>, SourceError> {
        let Some(request) = self.requests.get(self.next) else {
            return Ok(None);
        };
        self.next += 1;
        Ok(Some(request.clone()))
    }

    fn len_hint(&self) -> Option<u64> {
        Some((self.requests.len() - self.next) as u64)
    }
}

/// Wraps a source with the full streaming validation: per-request
/// consistency ([`VmRequest::validate`]), non-decreasing arrivals, and
/// arrivals bounded by the header's duration (`arrival == duration` stays
/// legal — the VM lands on the final tick).
#[derive(Debug)]
pub struct Validated<S> {
    inner: S,
    last_arrival: u64,
}

impl<S: ArrivalSource> Validated<S> {
    /// Validates `inner` as it streams.
    pub fn new(inner: S) -> Self {
        Validated { inner, last_arrival: 0 }
    }
}

impl<S: ArrivalSource> ArrivalSource for Validated<S> {
    fn header(&self) -> &TraceHeader {
        self.inner.header()
    }

    fn next_request(&mut self) -> Result<Option<VmRequest>, SourceError> {
        let Some(request) = self.inner.next_request()? else {
            return Ok(None);
        };
        request.validate().map_err(SourceError::Malformed)?;
        if request.arrival < self.last_arrival {
            return Err(SourceError::Malformed(format!(
                "vm {} arrives at {}, before the previous arrival at {}",
                request.id, request.arrival, self.last_arrival
            )));
        }
        let duration = self.inner.header().duration;
        if request.arrival > duration {
            return Err(SourceError::Malformed(format!(
                "vm {} arrives at {} past the trace duration {}",
                request.id, request.arrival, duration
            )));
        }
        self.last_arrival = request.arrival;
        Ok(Some(request))
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

/// Whole-trace statistics computed in one streaming pass, so summary lines
/// don't need the materialized request vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// Number of requests in the stream.
    pub requests: u64,
    /// Σ cores × min(lifetime, duration − arrival): allocated core-seconds
    /// clipped to the trace horizon.
    pub core_seconds: u64,
    /// Total cores in the cluster (from the header).
    pub total_cores: u64,
    /// Trace duration in seconds (from the header).
    pub duration: u64,
}

impl TraceSummary {
    /// The average number of concurrently allocated cores over the trace
    /// duration, as a fraction of the cluster's cores. Matches
    /// [`ClusterTrace::mean_core_utilization`] exactly on the same requests.
    pub fn mean_core_utilization(&self) -> f64 {
        mean_core_utilization(self.core_seconds, self.total_cores, self.duration)
    }
}

/// Core-seconds a request holds within the trace horizon:
/// `cores × min(lifetime, duration − arrival)`.
///
/// This clipping rule is the single definition shared by the streaming
/// [`summarize`] pass and [`ClusterTrace::mean_core_utilization`], so
/// summary lines printed from either path agree bit for bit.
pub fn clipped_core_seconds(request: &VmRequest, duration: u64) -> u64 {
    request.cores as u64 * request.lifetime.min(duration.saturating_sub(request.arrival))
}

/// The mean fraction of `total_cores` held over `duration`, given the total
/// clipped core-seconds. Returns `0.0` for an empty cluster or horizon.
pub fn mean_core_utilization(core_seconds: u64, total_cores: u64, duration: u64) -> f64 {
    if total_cores == 0 || duration == 0 {
        return 0.0;
    }
    core_seconds as f64 / (total_cores * duration) as f64
}

/// Consumes `source` and accumulates its [`TraceSummary`].
///
/// # Errors
///
/// Propagates any [`SourceError`] the stream raises.
pub fn summarize<S: ArrivalSource>(mut source: S) -> Result<TraceSummary, SourceError> {
    let header = source.header();
    let (total_cores, duration) = (header.total_cores(), header.duration);
    let mut summary = TraceSummary { requests: 0, core_seconds: 0, total_cores, duration };
    while let Some(request) = source.next_request()? {
        summary.requests += 1;
        summary.core_seconds += clipped_core_seconds(&request, duration);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CustomerId, GuestOs, VmType};

    fn request(id: u64, arrival: u64) -> VmRequest {
        VmRequest {
            id,
            arrival,
            lifetime: 3600,
            cores: 4,
            memory: Bytes::from_gib(16),
            customer: CustomerId(1),
            vm_type: VmType::GeneralPurpose,
            guest_os: GuestOs::Linux,
            region: 0,
            workload_index: 0,
            untouched_fraction: 0.5,
        }
    }

    fn trace(requests: Vec<VmRequest>) -> ClusterTrace {
        ClusterTrace {
            cluster_id: 3,
            servers: 2,
            cores_per_server: 8,
            dram_per_server: Bytes::from_gib(64),
            duration: 7200,
            requests,
        }
    }

    #[test]
    fn the_shared_utilization_helper_pins_the_clipping_rule() {
        // A request ending inside the horizon contributes cores × lifetime.
        assert_eq!(clipped_core_seconds(&request(1, 0), 7200), 4 * 3600);
        // One straddling the horizon is clipped to the remaining seconds.
        assert_eq!(clipped_core_seconds(&request(2, 5400), 7200), 4 * 1800);
        // One arriving at (or past) the horizon contributes nothing.
        assert_eq!(clipped_core_seconds(&request(3, 7200), 7200), 0);

        assert!((mean_core_utilization(4 * 3600, 16, 7200) - 0.125).abs() < 1e-12);
        assert_eq!(mean_core_utilization(100, 0, 7200), 0.0);
        assert_eq!(mean_core_utilization(100, 16, 0), 0.0);

        // The materialized and streamed paths agree because they share it.
        let trace = trace(vec![request(1, 0), request(2, 5400), request(3, 7200)]);
        let summary = summarize(TraceCursor::new(&trace)).unwrap();
        assert_eq!(summary.core_seconds, 4 * 3600 + 4 * 1800);
        assert_eq!(summary.mean_core_utilization(), trace.mean_core_utilization());
    }

    #[test]
    fn cursor_streams_the_trace_in_order() {
        let trace = trace(vec![request(1, 0), request(2, 100), request(3, 7200)]);
        let mut cursor = TraceCursor::new(&trace);
        assert_eq!(cursor.header(), &TraceHeader::of_trace(&trace));
        assert_eq!(cursor.header().total_cores(), 16);
        assert_eq!(cursor.header().total_dram(), Bytes::from_gib(128));
        assert_eq!(cursor.len_hint(), Some(3));
        let mut seen = Vec::new();
        while let Some(r) = cursor.next_request().unwrap() {
            seen.push(r.id);
        }
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(cursor.len_hint(), Some(0));
        // Exhausted sources keep yielding None.
        assert_eq!(cursor.next_request().unwrap(), None);
    }

    #[test]
    fn validated_accepts_a_legal_stream_and_the_horizon_boundary() {
        let trace = trace(vec![request(1, 0), request(2, 100), request(3, 7200)]);
        let mut source = Validated::new(TraceCursor::new(&trace));
        let mut count = 0;
        while source.next_request().unwrap().is_some() {
            count += 1;
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn validated_rejects_out_of_order_streams() {
        let trace = trace(vec![request(1, 500), request(2, 100)]);
        let mut source = Validated::new(TraceCursor::new(&trace));
        source.next_request().unwrap();
        let err = match source.next_request() {
            Err(SourceError::Malformed(detail)) => detail,
            other => panic!("expected a malformed-stream error, got {other:?}"),
        };
        assert!(err.contains("before the previous arrival"), "{err}");
    }

    #[test]
    fn validated_rejects_arrivals_past_the_horizon() {
        let trace = trace(vec![request(1, 7201)]);
        let mut source = Validated::new(TraceCursor::new(&trace));
        assert!(matches!(source.next_request(), Err(SourceError::Malformed(_))));
    }

    #[test]
    fn validated_rejects_invalid_requests() {
        let mut bad = request(1, 0);
        bad.lifetime = 0;
        let trace = trace(vec![bad]);
        let mut source = Validated::new(TraceCursor::new(&trace));
        let err = source.next_request().unwrap_err();
        assert!(err.to_string().contains("zero lifetime"), "{err}");
    }

    #[test]
    fn streaming_summary_matches_the_materialized_stats() {
        // One request's lifetime spills past the horizon so the clipping
        // path is exercised.
        let mut long = request(3, 7000);
        long.lifetime = 10_000;
        let trace = trace(vec![request(1, 0), request(2, 100), long]);
        let summary = summarize(TraceCursor::new(&trace)).unwrap();
        assert_eq!(summary.requests, 3);
        let streamed = summary.mean_core_utilization();
        let materialized = trace.mean_core_utilization();
        assert_eq!(streamed, materialized);
    }
}
