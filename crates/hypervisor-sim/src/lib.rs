//! # hypervisor-sim
//!
//! The system-software layer of Pond (ASPLOS '23, §4.2) as a discrete model:
//!
//! * [`vm`] — virtual machines with a local/pool memory split and the
//!   workload running inside them.
//! * [`vnuma`] — the virtual NUMA topology a VM sees, including the
//!   zero-core **zNUMA** node that backs pool memory (Figure 10).
//! * [`guest`] — the guest OS memory manager: NUMA-preferential allocation
//!   that fills the local vNUMA node before touching zNUMA, and the resulting
//!   traffic split (Figures 15 and 16).
//! * [`host`] — host-side physical memory accounting: the hypervisor-private
//!   partition that contains fragmentation, and the local and pool memory
//!   pinned for VMs.
//! * [`reconfig`] — the QoS mitigation path: a one-time reconfiguration that
//!   copies a VM's pool memory to local DRAM behind a temporarily disabled
//!   virtualization accelerator, and its copy time (50 ms per GiB).
//!
//! # Example
//!
//! ```
//! use hypervisor_sim::vm::{VmConfig, VirtualMachine};
//! use hypervisor_sim::guest::GuestAllocation;
//! use cxl_hw::units::Bytes;
//! use workload_model::WorkloadSuite;
//!
//! let suite = WorkloadSuite::standard();
//! let profile = suite.get("redis/ycsb-a").unwrap().clone();
//! let config = VmConfig {
//!     cores: 8,
//!     memory: Bytes::from_gib(64),
//!     pool_memory: Bytes::from_gib(16),
//! };
//! let vm = VirtualMachine::launch(1, config, profile);
//! let alloc = GuestAllocation::for_vm(&vm);
//! // The guest fills the local node first.
//! assert!(alloc.local_allocated() >= alloc.znuma_allocated());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod guest;
pub mod host;
pub mod reconfig;
pub mod vm;
pub mod vnuma;

pub use guest::GuestAllocation;
pub use host::HostMemory;
pub use vm::{VirtualMachine, VmConfig, VmId};
pub use vnuma::{VNumaNode, VNumaTopology};
