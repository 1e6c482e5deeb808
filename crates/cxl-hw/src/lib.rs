//! # cxl-hw
//!
//! Hardware-layer model of the Pond CXL memory pool (ASPLOS '23, §4.1).
//!
//! This crate models the pieces of Pond that live below the hypervisor:
//!
//! * [`emc`] — the External Memory Controller (EMC), a multi-headed CXL
//!   device that exposes DDR5 capacity to up to 16 directly-attached CPU
//!   sockets and enforces per-slice ownership via a permission table.
//! * [`mod@slice`] — 1 GiB memory slices (the paper's "1 GB"), the granularity at which pool capacity
//!   is moved between hosts.
//! * [`topology`] — pool topology construction for 8/16/32/64-socket pools,
//!   including CXL switches and retimers for the larger configurations, plus
//!   the switch-only strawman the paper compares against (Figure 8).
//! * [`latency`] — the nanosecond-level latency composition model used to
//!   produce Figures 7 and 8.
//! * [`pool`] — pool-level slice ownership state machine with
//!   `add_capacity`/`release_capacity` flows, offlining timing, and EMC
//!   failure, repair and expansion (§4.2). The blast radius of an EMC
//!   failure in VM terms is the control plane's
//!   (`pond_core::control_plane::PondControlPlane::handle_emc_failure`).
//!
//! # Example
//!
//! Compute the pool access latency of a 16-socket Pond pool and compare it
//! with the NUMA-local baseline:
//!
//! ```
//! use cxl_hw::topology::PoolTopology;
//! use cxl_hw::latency::LatencyModel;
//!
//! let topo = PoolTopology::pond(16).expect("16 sockets is a supported Pond size");
//! let model = LatencyModel::default();
//! let pool_ns = model.pool_access_latency(&topo).as_nanos();
//! let local_ns = model.local_dram_latency().as_nanos();
//! assert!(pool_ns > local_ns);
//! assert!(pool_ns < 200.0, "16-socket Pond stays below 200ns, got {pool_ns}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod emc;
pub mod error;
pub mod latency;
pub mod pool;
pub mod slice;
pub mod topology;
pub mod units;

pub use error::CxlError;
pub use latency::{Latency, LatencyModel};
pub use pool::PoolState;
pub use slice::{SliceId, SliceState};
pub use topology::{PodStyle, PoolGroupTopology, PoolTopology};
pub use units::{Bytes, HostId};
