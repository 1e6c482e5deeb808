//! VM request traces: the events the cluster simulator replays.

use cxl_hw::units::Bytes;
use std::fmt;

/// Identifier of a customer (tenant). Customers exhibit correlated behaviour
/// across their VMs, which is what makes Pond's metadata-based predictions
/// work (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CustomerId(pub u32);

impl fmt::Display for CustomerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "customer{}", self.0)
    }
}

/// Guest operating system, one of the metadata features of the
/// untouched-memory model (Figure 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuestOs {
    /// A Linux distribution.
    Linux,
    /// Windows Server.
    Windows,
}

/// VM series/type, loosely mirroring cloud VM families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmType {
    /// General-purpose (balanced DRAM:core ratio).
    GeneralPurpose,
    /// Memory-optimized (high DRAM:core ratio).
    MemoryOptimized,
    /// Compute-optimized (low DRAM:core ratio).
    ComputeOptimized,
    /// Burstable / small VMs.
    Burstable,
}

impl VmType {
    /// All VM types.
    pub const ALL: [VmType; 4] = [
        VmType::GeneralPurpose,
        VmType::MemoryOptimized,
        VmType::ComputeOptimized,
        VmType::Burstable,
    ];

    /// Nominal GiB of memory per core for the type.
    pub fn gib_per_core(self) -> u64 {
        match self {
            VmType::GeneralPurpose => 4,
            VmType::MemoryOptimized => 8,
            VmType::ComputeOptimized => 2,
            VmType::Burstable => 2,
        }
    }

    /// Encodes the type as a small integer feature for the ML models.
    pub fn as_feature(self) -> f64 {
        match self {
            VmType::GeneralPurpose => 0.0,
            VmType::MemoryOptimized => 1.0,
            VmType::ComputeOptimized => 2.0,
            VmType::Burstable => 3.0,
        }
    }
}

/// One VM request in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct VmRequest {
    /// Unique id within the trace.
    pub id: u64,
    /// Arrival time in seconds from the start of the trace.
    pub arrival: u64,
    /// Lifetime in seconds.
    pub lifetime: u64,
    /// Number of cores requested.
    pub cores: u32,
    /// Memory requested.
    pub memory: Bytes,
    /// The requesting customer.
    pub customer: CustomerId,
    /// The VM type/series.
    pub vm_type: VmType,
    /// Guest operating system.
    pub guest_os: GuestOs,
    /// Region index (coarse location feature).
    pub region: u8,
    /// Index into the 158-workload suite describing what runs inside.
    pub workload_index: usize,
    /// Ground truth: fraction of the rented memory the VM never touches.
    pub untouched_fraction: f64,
}

impl VmRequest {
    /// Departure time in seconds.
    ///
    /// Saturates at `u64::MAX` instead of wrapping so a malformed trace that
    /// slipped past validation degrades to "never departs" rather than
    /// scheduling a departure in the past and corrupting the event order.
    pub fn departure(&self) -> u64 {
        self.arrival.saturating_add(self.lifetime)
    }

    /// Memory the VM actually touches.
    pub fn touched_memory(&self) -> Bytes {
        self.memory.scaled(1.0 - self.untouched_fraction)
    }

    /// Memory the VM never touches.
    pub fn untouched_memory(&self) -> Bytes {
        self.memory.saturating_sub(self.touched_memory())
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err(format!("vm {} has zero cores", self.id));
        }
        if self.memory.is_zero() {
            return Err(format!("vm {} has zero memory", self.id));
        }
        if self.lifetime == 0 {
            return Err(format!("vm {} has zero lifetime", self.id));
        }
        // `departure()` is `arrival + lifetime`; a wrapping sum would land in
        // the past and corrupt the event order of any replay of this trace.
        if self.arrival.checked_add(self.lifetime).is_none() {
            return Err(format!(
                "vm {} departure overflows: arrival {} + lifetime {}",
                self.id, self.arrival, self.lifetime
            ));
        }
        if !(0.0..=1.0).contains(&self.untouched_fraction) {
            return Err(format!(
                "vm {} has untouched fraction {}",
                self.id, self.untouched_fraction
            ));
        }
        Ok(())
    }
}

/// A whole cluster's trace: the server shape plus every VM request, sorted by
/// arrival time.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTrace {
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
    /// VM requests sorted by arrival time.
    pub requests: Vec<VmRequest>,
}

impl ClusterTrace {
    /// Total cores in the cluster.
    pub fn total_cores(&self) -> u64 {
        self.servers as u64 * self.cores_per_server as u64
    }

    /// Total DRAM in the cluster.
    pub fn total_dram(&self) -> Bytes {
        Bytes::new(self.dram_per_server.as_u64() * self.servers as u64)
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The average number of concurrently allocated cores over the trace
    /// duration, as a fraction of the cluster's cores. Shares the clipping
    /// rule with the streaming summary via
    /// [`clipped_core_seconds`](crate::source::clipped_core_seconds).
    pub fn mean_core_utilization(&self) -> f64 {
        let core_seconds: u64 = self
            .requests
            .iter()
            .map(|r| crate::source::clipped_core_seconds(r, self.duration))
            .sum();
        crate::source::mean_core_utilization(core_seconds, self.total_cores(), self.duration)
    }

    /// Validates the trace: request ordering, id uniqueness, and per-request
    /// consistency.
    pub fn validate(&self) -> Result<(), String> {
        for pair in self.requests.windows(2) {
            if pair[1].arrival < pair[0].arrival {
                return Err(format!("requests out of order: {} before {}", pair[1].id, pair[0].id));
            }
        }
        // Replays key per-VM state (departure times, running records) by VM
        // id; an aliased trace would silently overwrite one VM's bookkeeping
        // with another's.
        let mut ids: Vec<u64> = self.requests.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        for pair in ids.windows(2) {
            if pair[0] == pair[1] {
                return Err(format!("duplicate vm id {} in trace", pair[0]));
            }
        }
        for request in &self.requests {
            request.validate()?;
            // Arrivals strictly beyond the horizon would never be replayed
            // (the queue drains at `duration`), silently shrinking the trace.
            // `arrival == duration` is legal: the VM arrives on the final
            // tick, exactly like the tail snapshot.
            if request.arrival > self.duration {
                return Err(format!(
                    "vm {} arrives at {} past the trace duration {}",
                    request.id, request.arrival, self.duration
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn request_memory_accounting() {
        let r = request(1, 0);
        assert_eq!(r.departure(), 3600);
        assert_eq!(r.touched_memory(), Bytes::from_gib(8));
        assert_eq!(r.untouched_memory(), Bytes::from_gib(8));
        assert_eq!(r.validate(), Ok(()));
    }

    #[test]
    fn request_validation_catches_errors() {
        let mut r = request(1, 0);
        r.cores = 0;
        assert!(r.validate().is_err());
        let mut r = request(1, 0);
        r.untouched_fraction = 1.5;
        assert!(r.validate().is_err());
        let mut r = request(1, 0);
        r.lifetime = 0;
        assert!(r.validate().is_err());
        let mut r = request(1, 0);
        r.memory = Bytes::ZERO;
        assert!(r.validate().is_err());
    }

    #[test]
    fn vm_type_features_are_distinct() {
        let features: std::collections::BTreeSet<u64> =
            VmType::ALL.iter().map(|t| t.as_feature() as u64).collect();
        assert_eq!(features.len(), VmType::ALL.len());
        assert!(VmType::MemoryOptimized.gib_per_core() > VmType::ComputeOptimized.gib_per_core());
    }

    #[test]
    fn trace_utilization_and_validation() {
        let trace = ClusterTrace {
            cluster_id: 0,
            servers: 2,
            cores_per_server: 8,
            dram_per_server: Bytes::from_gib(64),
            duration: 7200,
            requests: vec![request(1, 0), request(2, 100)],
        };
        assert_eq!(trace.total_cores(), 16);
        assert_eq!(trace.total_dram(), Bytes::from_gib(128));
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
        // 2 VMs × 4 cores × 3600 s over 16 cores × 7200 s = 0.25.
        let util = trace.mean_core_utilization();
        assert!((util - 0.25).abs() < 0.01, "{util}");
        assert_eq!(trace.validate(), Ok(()));
    }

    #[test]
    fn overflowing_departure_is_rejected() {
        let mut r = request(1, u64::MAX - 100);
        r.lifetime = 101;
        assert!(r.validate().unwrap_err().contains("overflow"));
        // The exact boundary still validates.
        r.lifetime = 100;
        assert_eq!(r.validate(), Ok(()));
        assert_eq!(r.departure(), u64::MAX);
    }

    #[test]
    fn malformed_departure_saturates_instead_of_wrapping() {
        // A request that validation would reject (overflowing sum) must not
        // wrap into the past if a caller computes its departure anyway.
        let mut r = request(1, u64::MAX - 100);
        r.lifetime = 500;
        assert!(r.validate().is_err());
        assert_eq!(r.departure(), u64::MAX);
    }

    #[test]
    fn arrivals_past_the_duration_are_rejected() {
        let mut trace = ClusterTrace {
            cluster_id: 0,
            servers: 2,
            cores_per_server: 8,
            dram_per_server: Bytes::from_gib(64),
            duration: 7200,
            requests: vec![request(1, 0), request(2, 7201)],
        };
        assert!(trace.validate().unwrap_err().contains("past the trace duration"));
        // The boundary stays legal: arriving on the final tick is fine.
        trace.requests[1].arrival = 7200;
        assert_eq!(trace.validate(), Ok(()));
    }

    #[test]
    fn aliased_vm_ids_are_rejected() {
        // Two requests sharing id 7: a replay keyed by VM id would overwrite
        // the first VM's departure bookkeeping with the second's.
        let trace = ClusterTrace {
            cluster_id: 0,
            servers: 2,
            cores_per_server: 8,
            dram_per_server: Bytes::from_gib(64),
            duration: 7200,
            requests: vec![request(7, 0), request(3, 50), request(7, 100)],
        };
        assert!(trace.validate().unwrap_err().contains("duplicate vm id 7"));
    }

    #[test]
    fn out_of_order_traces_are_rejected() {
        let trace = ClusterTrace {
            cluster_id: 0,
            servers: 1,
            cores_per_server: 8,
            dram_per_server: Bytes::from_gib(64),
            duration: 7200,
            requests: vec![request(1, 500), request(2, 100)],
        };
        assert!(trace.validate().is_err());
    }
}
