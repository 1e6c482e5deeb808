//! # pond-core
//!
//! The core of the Pond reproduction (ASPLOS '23): the distributed
//! control-plane logic, the two ML prediction models, the combined-model
//! optimizer of Eq. (1), the QoS monitor with its mitigation path, and the
//! end-to-end memory-allocation policy that plugs into the cluster simulator.
//!
//! Layer map (paper section → module):
//!
//! * §4.2 pool memory ownership → [`pool_manager`] (on top of `cxl-hw`)
//! * §4.3 control-plane workflow (Figure 11) → [`control_plane`]
//! * §6.5 whole-fleet trace replay (Figures 19–20) → [`fleet`] (the replay
//!   outcome, its accounting, and the reference loop that checks the engine)
//! * §4.1 pool grouping at fleet scale → [`multipool`] (the replay engine: N
//!   pool groups on one event queue, pod topologies, group-aware scheduling;
//!   a single pool is one symmetric group)
//! * §4.4 latency-insensitivity model (Figure 12) → [`sensitivity`]
//! * §4.4 untouched-memory model (Figure 14) → [`untouched`]
//! * §4.4 Eq. (1) parameterization → [`combined`]
//! * §4.3 QoS monitoring and mitigation → [`qos`]
//! * §6.5 end-to-end policy (Figure 13 decision flow) → [`policy`]
//!
//! # Example
//!
//! Train both models and run the Pond policy over a synthetic cluster trace:
//!
//! ```
//! use pond_core::policy::{PondPolicy, PondPolicyConfig};
//! use cluster_sim::{Simulation, SimulationConfig, TraceGenerator, ClusterConfig};
//!
//! let trace = TraceGenerator::new(ClusterConfig::small(), 1).generate(0);
//! let policy = PondPolicy::train(&trace, &PondPolicyConfig::default(), 7);
//! let mut sim = Simulation::new(SimulationConfig::default(), policy);
//! let outcome = sim.run(&trace);
//! assert!(outcome.scheduled_vms > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod combined;
pub mod control_plane;
pub mod error;
pub mod fleet;
mod group_index;
pub mod multipool;
pub mod policy;
pub mod pool_manager;
pub mod qos;
pub mod sensitivity;
pub mod untouched;

pub use combined::{CombinedModel, CombinedModelConfig};
pub use error::PondError;
pub use fleet::FleetOutcome;
pub use multipool::{
    multipool_sweep, run_multipool_fleet, run_multipool_source, run_multipool_source_observed,
    GroupScheduler, GroupSchedulerKind, MultiPoolConfig, MultiPoolOutcome,
};
pub use policy::{PondPolicy, PondPolicyConfig};
pub use pool_manager::PondPoolManager;
pub use qos::{QosDecision, QosMonitor};
pub use sensitivity::{SensitivityModel, SensitivityModelConfig};
pub use untouched::{UntouchedMemoryModel, UntouchedModelConfig};
