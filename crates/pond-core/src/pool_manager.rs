//! The Pool Manager (§4.2–4.3): slice assignment with a free buffer and
//! asynchronous release.
//!
//! Onlining pool memory on a host is effectively instantaneous, but
//! offlining takes 10–100 ms per GiB slice (the paper's "per GB"), so it
//! must never sit on the VM-start critical path. Pond therefore keeps a
//! buffer of unassigned pool capacity and replenishes it asynchronously as
//! departed VMs' slices finish offlining (Figure 9, Finding 10).
//! [`PondPoolManager::release_async`] reports when each release will
//! complete so event-driven callers (the fleet replay in [`crate::fleet`])
//! can schedule the completion as a first-class event.

use crate::error::PondError;
use cxl_hw::pool::{EmcFailureReport, PoolSlice, PoolState};
use cxl_hw::topology::PoolTopology;
use cxl_hw::units::{Bytes, EmcId, HostId};
use std::collections::VecDeque;
use std::time::Duration;

/// A release that has been initiated but whose offlining has not finished.
#[derive(Debug, Clone, PartialEq)]
struct PendingRelease {
    host: HostId,
    slices: Vec<PoolSlice>,
    ready_at: Duration,
}

/// The Pool Manager.
#[derive(Debug, Clone, PartialEq)]
pub struct PondPoolManager {
    pool: PoolState,
    pending: VecDeque<PendingRelease>,
    // Incremental mirror of the slice count summed over `pending`, so
    // `pending_release()` — called by every conservation check and pool
    // exhaustion message — is O(1).
    pending_slices: u64,
    // Earliest `ready_at` over `pending` (`Duration::MAX` when none), so
    // `process_releases` — called on every VM arrival to freshen the buffer —
    // is O(1) when nothing has finished offlining yet, instead of draining
    // and rebuilding the whole pending queue each time.
    next_ready: Duration,
}

impl PondPoolManager {
    /// Creates a Pool Manager for a pool topology.
    pub fn new(topology: &PoolTopology) -> Self {
        PondPoolManager {
            pool: PoolState::from_topology(topology),
            pending: VecDeque::new(),
            pending_slices: 0,
            next_ready: Duration::MAX,
        }
    }

    /// Read access to the underlying pool state.
    pub fn pool(&self) -> &PoolState {
        &self.pool
    }

    /// Free capacity available for immediate assignment (the buffer).
    pub fn available(&self) -> Bytes {
        self.pool.free_capacity()
    }

    /// Free buffer capacity a specific host can actually reach: only EMCs
    /// the host is attached to, or that still have a free CXL port, count.
    /// A pool whose ports are all held by other hosts is exhausted from this
    /// host's view even when slices are free.
    pub fn available_for(&self, host: HostId) -> Bytes {
        self.pool.free_capacity_for(host)
    }

    /// Capacity still tied up in releases that have not completed. Served
    /// from the incremental counter in O(1);
    /// [`PondPoolManager::assert_pending_conserved`] cross-checks the
    /// counter against the pending entries.
    pub fn pending_release(&self) -> Bytes {
        Bytes::from_gib(self.pending_slices)
    }

    /// Cross-checks the incremental pending-slice counter against the
    /// pending entries themselves — the full-scan half of the conservation
    /// check, run at snapshot ticks and end of replay.
    ///
    /// # Panics
    ///
    /// Panics when the counter drifted from the entries it mirrors.
    pub fn assert_pending_conserved(&self) {
        let recomputed: u64 = self.pending.iter().map(|p| p.slices.len() as u64).sum();
        assert_eq!(
            recomputed, self.pending_slices,
            "pending-slice counter drifted from the pending release entries"
        );
        assert_eq!(
            self.earliest_pending(),
            self.next_ready,
            "next-ready cache drifted from the pending release entries"
        );
    }

    fn earliest_pending(&self) -> Duration {
        self.pending.iter().map(|p| p.ready_at).min().unwrap_or(Duration::MAX)
    }

    /// Allocates pool capacity for a VM start at time `now`.
    ///
    /// Onlining is fast, so the call succeeds immediately as long as the
    /// buffer holds enough *already-free* capacity on EMCs this host can
    /// reach; capacity still offlining does not count (that is exactly why
    /// the buffer exists), and neither does capacity behind ports held
    /// exclusively by other hosts.
    ///
    /// # Errors
    ///
    /// Returns [`PondError::PoolExhausted`] if the host-reachable free
    /// buffer cannot cover the request.
    pub fn allocate(
        &mut self,
        host: HostId,
        amount: Bytes,
        now: Duration,
    ) -> Result<Vec<PoolSlice>, PondError> {
        let _ = now;
        if amount.is_zero() {
            return Ok(Vec::new());
        }
        let reachable = self.available_for(host);
        if reachable < Bytes::from_gib(amount.slices_ceil()) {
            return Err(PondError::PoolExhausted {
                requested: amount,
                host,
                reachable,
                available: self.available(),
                offlining: self.pending_release(),
            });
        }
        Ok(self.pool.add_capacity(host, amount)?)
    }

    /// Initiates the asynchronous release of a departed VM's slices. The
    /// capacity becomes reusable only after the per-GiB offlining delay.
    ///
    /// Returns the time at which the offlining completes (and therefore when
    /// [`PondPoolManager::process_releases`] will return the capacity to the
    /// buffer), or `None` when there was nothing to release. Event-driven
    /// callers schedule a release event at that time.
    ///
    /// # Errors
    ///
    /// Propagates ownership errors from the hardware layer.
    pub fn release_async(
        &mut self,
        host: HostId,
        slices: Vec<PoolSlice>,
        now: Duration,
    ) -> Result<Option<Duration>, PondError> {
        if slices.is_empty() {
            return Ok(None);
        }
        let offline_time = self.pool.begin_release(host, &slices)?;
        let ready_at = now + offline_time;
        self.pending_slices += slices.len() as u64;
        self.next_ready = self.next_ready.min(ready_at);
        self.pending.push_back(PendingRelease { host, slices, ready_at });
        Ok(Some(ready_at))
    }

    /// Completes every pending release whose offlining delay has elapsed by
    /// `now`. Returns the capacity returned to the buffer.
    pub fn process_releases(&mut self, now: Duration) -> Bytes {
        if now < self.next_ready {
            // Nothing has finished offlining: the drain below would complete
            // no entry, so skip the queue rebuild entirely.
            return Bytes::ZERO;
        }
        let mut freed = Bytes::ZERO;
        let mut remaining = VecDeque::new();
        while let Some(pending) = self.pending.pop_front() {
            if pending.ready_at <= now {
                let amount = Bytes::from_gib(pending.slices.len() as u64);
                self.pending_slices -= pending.slices.len() as u64;
                self.pool.complete_release(pending.host, &pending.slices).expect(
                    "pending releases reference slices this manager put into releasing state",
                );
                freed += amount;
            } else {
                remaining.push_back(pending);
            }
        }
        self.pending = remaining;
        self.next_ready = self.earliest_pending();
        freed
    }

    /// Fails one EMC behind the pool and reconciles the manager's in-flight
    /// state with the hardware teardown: every pending release loses the
    /// slices that lived on the dead device (they can neither complete nor
    /// return to the buffer — the capacity itself is gone), and entries left
    /// empty disappear. Without this pruning, the next
    /// [`PondPoolManager::process_releases`] would try to complete a release
    /// for slices the device already forgot — the double-free half of the
    /// port-lifecycle race.
    ///
    /// # Errors
    ///
    /// Propagates [`cxl_hw::CxlError::UnknownEmc`] for unknown devices.
    pub fn fail_emc(&mut self, emc: EmcId) -> Result<EmcFailureReport, PondError> {
        let report = self.pool.fail_emc(emc)?;
        for pending in &mut self.pending {
            let before = pending.slices.len();
            pending.slices.retain(|s| s.emc != emc);
            self.pending_slices -= (before - pending.slices.len()) as u64;
        }
        self.pending.retain(|p| !p.slices.is_empty());
        self.next_ready = self.earliest_pending();
        Ok(report)
    }

    /// Repairs (replaces) a failed EMC, returning the capacity that
    /// rejoined the free buffer ([`Bytes::ZERO`] when the device was
    /// healthy). The repaired device comes back empty — [`Emc::fail`]
    /// already tore its assignments down and
    /// [`PondPoolManager::fail_emc`] already pruned its mid-offlining
    /// slices from the pending queue, so nothing is resurrected: free and
    /// live capacity grow by exactly the same amount and the conservation
    /// invariant (free + pending + assigned == live) holds across the
    /// repair.
    ///
    /// # Errors
    ///
    /// Propagates [`cxl_hw::CxlError::UnknownEmc`] for unknown devices.
    ///
    /// [`Emc::fail`]: cxl_hw::emc::Emc::fail
    pub fn restore_emc(&mut self, emc: EmcId) -> Result<Bytes, PondError> {
        Ok(self.pool.restore_emc(emc)?)
    }

    /// Attaches a new EMC to the pool live (capacity expansion), returning
    /// its device id. The new capacity is immediately part of the free
    /// buffer for every reachable host.
    pub fn attach_emc(&mut self, config: cxl_hw::emc::EmcConfig) -> EmcId {
        self.pool.attach_emc(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager() -> PondPoolManager {
        let topology = PoolTopology::pond_with_capacity(16, Bytes::from_gib(64)).unwrap();
        PondPoolManager::new(&topology)
    }

    #[test]
    fn allocation_consumes_the_buffer() {
        let mut m = manager();
        assert_eq!(m.available(), Bytes::from_gib(64));
        let slices = m.allocate(HostId(0), Bytes::from_gib(8), Duration::ZERO).unwrap();
        assert_eq!(slices.len(), 8);
        assert_eq!(m.available(), Bytes::from_gib(56));
        assert!(m.allocate(HostId(1), Bytes::ZERO, Duration::ZERO).unwrap().is_empty());
    }

    #[test]
    fn released_capacity_is_unavailable_until_offlining_completes() {
        let mut m = manager();
        let slices = m.allocate(HostId(0), Bytes::from_gib(60), Duration::ZERO).unwrap();
        let ready = m.release_async(HostId(0), slices, Duration::from_secs(10)).unwrap();
        // 60 GiB at 100 ms/GiB = 6 s of offlining.
        assert_eq!(ready, Some(Duration::from_secs(16)));
        // Immediately after the release the capacity is still offlining.
        assert_eq!(m.available(), Bytes::from_gib(4));
        assert_eq!(m.pending_release(), Bytes::from_gib(60));
        let err = m.allocate(HostId(1), Bytes::from_gib(10), Duration::from_secs(10)).unwrap_err();
        assert!(matches!(err, PondError::PoolExhausted { .. }));
        // Not ready one second later.
        assert_eq!(m.process_releases(Duration::from_secs(11)), Bytes::ZERO);
        // Ready after the offlining delay.
        let freed = m.process_releases(Duration::from_secs(17));
        assert_eq!(freed, Bytes::from_gib(60));
        assert_eq!(m.available(), Bytes::from_gib(64));
        assert!(m.allocate(HostId(1), Bytes::from_gib(10), Duration::from_secs(17)).is_ok());
    }

    #[test]
    fn release_records_track_rates() {
        // 4 GiB at the default worst-case 100 ms/GiB offline in 400 ms
        // (10 GiB/s), whenever the release starts.
        let mut m = manager();
        for i in 0..4u64 {
            let now = Duration::from_secs(i);
            let slices = m.allocate(HostId(0), Bytes::from_gib(4), now).unwrap();
            let ready = m.release_async(HostId(0), slices, now).unwrap();
            assert_eq!(ready, Some(now + Duration::from_millis(400)));
        }
        assert_eq!(m.pending_release(), Bytes::from_gib(16));
        assert_eq!(m.process_releases(Duration::from_secs(100)), Bytes::from_gib(16));
        assert_eq!(m.pending_release(), Bytes::ZERO);
    }

    #[test]
    fn a_long_sequence_cycles_more_hosts_than_ports_through_the_pool() {
        // Regression for the host-port lifecycle: the default 16-socket pool
        // has 16 CXL ports, but 24 hosts can share it over time because a
        // drained host's port detaches when its last slice finishes
        // offlining. Before detach existed, host 16 failed to attach.
        let mut m = manager();
        for h in 0..24u16 {
            let t = Duration::from_secs(u64::from(h) * 100);
            let slices = m.allocate(HostId(h), Bytes::from_gib(4), t).unwrap();
            let ready = m.release_async(HostId(h), slices, t).unwrap().unwrap();
            assert_eq!(m.process_releases(ready), Bytes::from_gib(4));
        }
        assert_eq!(m.available(), Bytes::from_gib(64));
    }

    #[test]
    fn concurrent_port_exhaustion_is_pool_exhaustion() {
        // All 16 ports held with live slices: a 17th host sees an exhausted
        // pool even though free slices remain.
        let mut m = manager();
        for h in 0..16u16 {
            m.allocate(HostId(h), Bytes::from_gib(1), Duration::ZERO).unwrap();
        }
        assert!(m.available() > Bytes::ZERO);
        assert_eq!(m.available_for(HostId(16)), Bytes::ZERO);
        let err = m.allocate(HostId(16), Bytes::from_gib(1), Duration::ZERO).unwrap_err();
        assert!(matches!(err, PondError::PoolExhausted { .. }));
    }

    #[test]
    fn emc_failure_mid_offlining_prunes_the_pending_release() {
        // Same race from the device side: the EMC dies while slices are
        // offlining. The pending entry must lose exactly the dead slices so
        // the scheduled release completion finds nothing to double-free.
        let mut m = manager();
        let slices = m.allocate(HostId(2), Bytes::from_gib(4), Duration::ZERO).unwrap();
        let emc = slices[0].emc;
        let ready = m.release_async(HostId(2), slices, Duration::ZERO).unwrap().unwrap();

        let report = m.fail_emc(emc).unwrap();
        assert_eq!(report.lost.len(), 4);
        assert_eq!(m.pending_release(), Bytes::ZERO);
        assert_eq!(m.available(), Bytes::ZERO, "the only EMC is dead");
        // The stale deadline passes without a panic or double-free.
        assert_eq!(m.process_releases(ready), Bytes::ZERO);
        assert!(m.allocate(HostId(3), Bytes::from_gib(1), ready).is_err());
    }

    #[test]
    fn repairing_an_emc_that_failed_mid_offlining_restores_exactly_live_capacity() {
        // Lifecycle race regression: the EMC dies while slices are
        // offlining (the failure pruned them from the pending queue), then
        // the device is repaired. The repair must restore exactly the
        // device's capacity — all of it free, none of it resurrected into
        // the pending queue — with the conservation invariant green
        // throughout.
        let mut m = manager();
        let slices = m.allocate(HostId(2), Bytes::from_gib(4), Duration::ZERO).unwrap();
        let emc = slices[0].emc;
        let ready = m.release_async(HostId(2), slices, Duration::ZERO).unwrap().unwrap();
        m.fail_emc(emc).unwrap();
        m.assert_pending_conserved();
        assert_eq!(m.available(), Bytes::ZERO, "the only EMC is dead");

        let restored = m.restore_emc(emc).unwrap();
        assert_eq!(restored, Bytes::from_gib(64), "the full device rejoins");
        assert_eq!(m.pool().live_capacity(), Bytes::from_gib(64));
        assert_eq!(m.available(), Bytes::from_gib(64), "everything comes back free");
        assert_eq!(m.pending_release(), Bytes::ZERO, "pruned slices stay pruned");
        m.assert_pending_conserved();
        // The pre-failure release deadline passing is a no-op — nothing to
        // double-free on the replaced device.
        assert_eq!(m.process_releases(ready + Duration::from_secs(1)), Bytes::ZERO);
        assert_eq!(m.available(), Bytes::from_gib(64));
        // Repairing a healthy device is a no-op.
        assert_eq!(m.restore_emc(emc).unwrap(), Bytes::ZERO);
        // The repaired capacity is allocatable again.
        assert_eq!(m.allocate(HostId(3), Bytes::from_gib(2), ready).unwrap().len(), 2);
    }

    #[test]
    fn attaching_an_emc_expands_the_buffer_live() {
        let mut m = manager();
        let all = m.allocate(HostId(0), Bytes::from_gib(64), Duration::ZERO).unwrap();
        assert_eq!(all.len(), 64);
        assert_eq!(m.available(), Bytes::ZERO);
        let id = m.attach_emc(cxl_hw::emc::EmcConfig::pond_16_socket(Bytes::from_gib(8)));
        assert_eq!(m.available(), Bytes::from_gib(8));
        assert_eq!(m.pool().live_capacity(), Bytes::from_gib(72));
        m.assert_pending_conserved();
        let extra = m.allocate(HostId(1), Bytes::from_gib(8), Duration::ZERO).unwrap();
        assert!(extra.iter().all(|s| s.emc == id), "new slices come from the new device");
    }

    #[test]
    fn empty_release_is_a_noop() {
        let mut m = manager();
        assert_eq!(m.release_async(HostId(0), Vec::new(), Duration::ZERO).unwrap(), None);
        assert_eq!(m.pending_release(), Bytes::ZERO);
    }

    #[test]
    fn double_release_of_foreign_slices_fails() {
        let mut m = manager();
        let slices = m.allocate(HostId(0), Bytes::from_gib(2), Duration::ZERO).unwrap();
        assert!(m.release_async(HostId(1), slices, Duration::ZERO).is_err());
    }
}
