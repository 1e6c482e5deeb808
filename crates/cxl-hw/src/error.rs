//! Error type for the hardware layer.

use crate::units::{Bytes, EmcId, HostId};
use std::error::Error;
use std::fmt;

use crate::slice::SliceId;

/// Errors raised by the CXL hardware model.
///
/// Every fallible public function in this crate returns `Result<_, CxlError>`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CxlError {
    /// A pool was requested with a socket count the EMC design does not support.
    UnsupportedPoolSize {
        /// The socket count that was requested.
        sockets: u16,
    },
    /// A slice index was outside the EMC's capacity.
    SliceOutOfRange {
        /// The offending slice.
        slice: SliceId,
        /// Number of slices the EMC actually has.
        slices: u64,
    },
    /// A slice release or access referenced a slice the host does not own.
    SliceNotOwned {
        /// The slice in question.
        slice: SliceId,
        /// The host that attempted the operation.
        host: HostId,
    },
    /// The pool has no free capacity to satisfy an assignment request.
    InsufficientPoolCapacity {
        /// Bytes requested.
        requested: Bytes,
        /// Bytes currently unassigned across the pool.
        available: Bytes,
    },
    /// A host id is not attached to this pool/EMC.
    UnknownHost {
        /// The host in question.
        host: HostId,
    },
    /// An EMC id does not exist in this pool.
    UnknownEmc {
        /// The EMC in question.
        emc: EmcId,
    },
    /// The component has failed and cannot serve requests.
    ComponentFailed {
        /// Human-readable description of the failed component.
        component: String,
    },
    /// A host's EMC port cannot be detached while the host still owns slices.
    PortInUse {
        /// The host whose port was to be detached.
        host: HostId,
        /// Slices the host still owns on the EMC.
        slices: u64,
    },
    /// A pool-group topology was requested with an invalid shape.
    InvalidGroupTopology {
        /// Human-readable description of the problem.
        detail: String,
    },
}

impl fmt::Display for CxlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CxlError::UnsupportedPoolSize { sockets } => {
                write!(f, "unsupported pool size of {sockets} sockets")
            }
            CxlError::SliceOutOfRange { slice, slices } => {
                write!(f, "slice {slice} out of range for EMC with {slices} slices")
            }
            CxlError::SliceNotOwned { slice, host } => {
                write!(f, "slice {slice} not owned by {host}")
            }
            CxlError::InsufficientPoolCapacity { requested, available } => {
                write!(
                    f,
                    "insufficient pool capacity: requested {requested}, available {available}"
                )
            }
            CxlError::UnknownHost { host } => write!(f, "unknown host {host}"),
            CxlError::UnknownEmc { emc } => write!(f, "unknown EMC {emc}"),
            CxlError::ComponentFailed { component } => {
                write!(f, "component has failed: {component}")
            }
            CxlError::PortInUse { host, slices } => {
                write!(f, "cannot detach {host}: it still owns {slices} slices")
            }
            CxlError::InvalidGroupTopology { detail } => {
                write!(f, "invalid pool-group topology: {detail}")
            }
        }
    }
}

impl Error for CxlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let err = CxlError::UnsupportedPoolSize { sockets: 7 };
        assert_eq!(err.to_string(), "unsupported pool size of 7 sockets");

        let err = CxlError::SliceNotOwned { slice: SliceId(4), host: HostId(1) };
        assert_eq!(err.to_string(), "slice 4 not owned by host1");

        let err = CxlError::PortInUse { host: HostId(2), slices: 3 };
        assert_eq!(err.to_string(), "cannot detach host2: it still owns 3 slices");
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<CxlError>();
    }
}
