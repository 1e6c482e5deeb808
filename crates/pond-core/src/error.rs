//! Error type for the Pond control plane.

use cxl_hw::units::{Bytes, HostId};
use std::error::Error;
use std::fmt;

/// Errors raised by Pond's control-plane operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PondError {
    /// The pool cannot supply the requested capacity. Carries the shortfall
    /// as structured fields — the description is rendered only when the
    /// error is actually displayed, because on large fleets this variant is
    /// thrown (and swallowed by the all-local fallback) on most arrivals.
    PoolExhausted {
        /// The requested capacity.
        requested: Bytes,
        /// The host the request came from.
        host: HostId,
        /// Free buffer capacity reachable by that host.
        reachable: Bytes,
        /// Free buffer capacity pool-wide.
        available: Bytes,
        /// Capacity still offlining (not yet back in the buffer).
        offlining: Bytes,
    },
    /// No host in the pool group can place the VM.
    NoFeasibleHost {
        /// The VM request id.
        vm: u64,
    },
    /// A model was used before it was trained or with inconsistent features.
    Model {
        /// Description of the problem.
        detail: String,
    },
    /// A hardware-layer operation failed.
    Hardware(cxl_hw::CxlError),
    /// A host-memory operation failed.
    HostMemory(String),
    /// The streaming arrival source feeding a replay failed (malformed or
    /// unreadable trace stream).
    TraceStream(String),
    /// A configuration field holds a value outside its domain.
    InvalidConfig {
        /// The field and the value it held.
        detail: String,
    },
}

impl fmt::Display for PondError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PondError::PoolExhausted { requested, host, reachable, available, offlining } => {
                write!(
                    f,
                    "pool exhausted: requested {requested}, buffer holds {reachable} \
                     reachable by {host} ({available} pool-wide, {offlining} still offlining)"
                )
            }
            PondError::NoFeasibleHost { vm } => write!(f, "no feasible host for vm {vm}"),
            PondError::Model { detail } => write!(f, "model error: {detail}"),
            PondError::Hardware(e) => write!(f, "hardware error: {e}"),
            PondError::HostMemory(e) => write!(f, "host memory error: {e}"),
            PondError::TraceStream(e) => write!(f, "trace stream error: {e}"),
            PondError::InvalidConfig { detail } => write!(f, "invalid config: {detail}"),
        }
    }
}

impl Error for PondError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PondError::Hardware(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cxl_hw::CxlError> for PondError {
    fn from(e: cxl_hw::CxlError) -> Self {
        PondError::Hardware(e)
    }
}

impl From<cluster_sim::source::SourceError> for PondError {
    fn from(e: cluster_sim::source::SourceError) -> Self {
        PondError::TraceStream(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let err = PondError::NoFeasibleHost { vm: 9 };
        assert_eq!(err.to_string(), "no feasible host for vm 9");
        assert!(err.source().is_none());

        let hw = PondError::from(cxl_hw::CxlError::UnsupportedPoolSize { sockets: 5 });
        assert!(hw.to_string().contains("unsupported pool size"));
        assert!(hw.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<PondError>();
    }
}
