//! The live-VM arena: bounded bookkeeping for streamed fleet replays.
//!
//! The pre-streaming replays indexed every per-VM fact by *trace request
//! index* — `placed: Vec<bool>`, `group_of_vm: Vec<u32>`, and a whole-trace
//! id→index table — so bookkeeping memory grew with trace length even though
//! only the live VMs matter at any instant. [`LiveVmArena`] replaces all of
//! that with a growable slot arena keyed by a compact token: a placement
//! allocates a slot holding the full [`VmRequest`] (the trace itself may no
//! longer be materialized), a departure frees it, and freed slots are
//! recycled through a free list. Peak arena size is the peak number of
//! concurrently live VMs, not the trace length.
//!
//! The recycling contract that keeps token reuse safe: a slot stays
//! allocated until the VM's *scheduled departure event* pops, even when the
//! VM stopped running earlier (killed by an EMC failure). The departure
//! event is the single place a token is returned to the free list, so every
//! token in flight on the event timeline refers to exactly one allocation
//! and a recycled token can never alias a VM whose departure is still
//! queued.
//!
//! Id lookups (QoS mitigations and EMC blast radii report [`VmId`]s, not
//! tokens) go through a live-only hash map, so they too are O(live VMs).
//!
//! [`VmId`]: hypervisor_sim::vm::VmId

use cluster_sim::trace::VmRequest;
use std::collections::HashMap;

/// Group marker for a VM that is not currently running in any pool group:
/// either the replay is single-group (and never sets a group), or the VM was
/// killed by a failure drill and awaits its no-op departure event.
pub const NO_GROUP: u32 = u32::MAX;

/// One live VM's bookkeeping.
#[derive(Debug, Clone)]
struct Slot {
    request: VmRequest,
    /// Arrival ordinal — the tie-break feeding the event core's
    /// deterministic simultaneous-departure order.
    seq: u64,
    /// The pool group the VM currently runs in ([`NO_GROUP`] when none).
    group: u32,
}

/// A growable arena of live VMs with free-list slot recycling.
///
/// Tokens returned by [`LiveVmArena::alloc`] stay valid until the matching
/// [`LiveVmArena::free`]; see the module docs for the recycling contract.
#[derive(Debug, Default)]
pub struct LiveVmArena {
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    by_id: HashMap<u64, u32>,
    live: usize,
    peak_live: usize,
}

impl LiveVmArena {
    /// An empty arena.
    pub fn new() -> Self {
        LiveVmArena::default()
    }

    /// Allocates a slot for a placed VM and returns its token, recycling a
    /// freed slot when one is available. `seq` is the VM's arrival ordinal.
    /// On a duplicate id the later allocation wins the id lookup (matching
    /// the hash-map bookkeeping this replaces). Streaming validation does
    /// not catch a duplicate, so the multipool replay checks
    /// [`LiveVmArena::slot_of`] itself and refuses an arrival whose id is
    /// still live.
    pub fn alloc(&mut self, request: VmRequest, seq: u64) -> usize {
        let id = request.id;
        let slot = Slot { request, seq, group: NO_GROUP };
        let token = match self.free.pop() {
            Some(token) => {
                debug_assert!(self.slots[token as usize].is_none(), "free list holds live slot");
                self.slots[token as usize] = Some(slot);
                token
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "more than u32::MAX live VMs");
                self.slots.push(Some(slot));
                (self.slots.len() - 1) as u32
            }
        };
        self.by_id.insert(id, token);
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        token as usize
    }

    /// Frees `token` (the VM's departure event popped) and returns the slot's
    /// final group marker. The token may be recycled by the next
    /// [`LiveVmArena::alloc`].
    ///
    /// # Panics
    ///
    /// Panics when `token` is not allocated — a double free means a
    /// departure event was delivered twice.
    pub fn free(&mut self, token: usize) -> u32 {
        let slot = self.slots[token].take().expect("departure event freed an unallocated slot");
        // Only unmap the id if it still points here: on duplicate ids the
        // later allocation owns the lookup.
        if self.by_id.get(&slot.request.id) == Some(&(token as u32)) {
            self.by_id.remove(&slot.request.id);
        }
        self.free.push(token as u32);
        self.live -= 1;
        slot.group
    }

    /// The request held in an allocated slot.
    ///
    /// # Panics
    ///
    /// Panics when `token` is not allocated.
    pub fn request(&self, token: usize) -> &VmRequest {
        &self.slots[token].as_ref().expect("token refers to a live slot").request
    }

    /// The arrival ordinal of an allocated slot.
    ///
    /// # Panics
    ///
    /// Panics when `token` is not allocated.
    pub fn seq(&self, token: usize) -> u64 {
        self.slots[token].as_ref().expect("token refers to a live slot").seq
    }

    /// The group marker of an allocated slot ([`NO_GROUP`] when the VM runs
    /// in no group).
    ///
    /// # Panics
    ///
    /// Panics when `token` is not allocated.
    pub fn group(&self, token: usize) -> u32 {
        self.slots[token].as_ref().expect("token refers to a live slot").group
    }

    /// Sets the group marker of an allocated slot ([`NO_GROUP`] to mark a
    /// killed VM whose departure event is still queued).
    ///
    /// # Panics
    ///
    /// Panics when `token` is not allocated.
    pub fn set_group(&mut self, token: usize, group: u32) {
        self.slots[token].as_mut().expect("token refers to a live slot").group = group;
    }

    /// The slot token of the live VM with `id`, if one is allocated.
    pub fn slot_of(&self, id: u64) -> Option<usize> {
        self.by_id.get(&id).map(|&token| token as usize)
    }

    /// The departure time of the live VM with `id`, if one is allocated —
    /// the QoS pass's GiB-hour take-back hook.
    pub fn departure_of(&self, id: u64) -> Option<u64> {
        self.slot_of(id).map(|token| self.request(token).departure())
    }

    /// Currently allocated slots.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Peak concurrently allocated slots over the arena's lifetime — the
    /// quantity that bounds a streamed replay's bookkeeping memory.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Total slots ever grown (`peak_live` plus transient recycling slack).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::trace::{CustomerId, GuestOs, VmType};
    use cxl_hw::units::Bytes;

    fn request(id: u64, arrival: u64) -> VmRequest {
        VmRequest {
            id,
            arrival,
            lifetime: 100,
            cores: 2,
            memory: Bytes::from_gib(8),
            customer: CustomerId(1),
            vm_type: VmType::GeneralPurpose,
            guest_os: GuestOs::Linux,
            region: 0,
            workload_index: 0,
            untouched_fraction: 0.5,
        }
    }

    #[test]
    fn alloc_free_recycles_slots_and_tracks_peaks() {
        let mut arena = LiveVmArena::new();
        let a = arena.alloc(request(10, 0), 0);
        let b = arena.alloc(request(11, 5), 1);
        assert_eq!((arena.live(), arena.peak_live()), (2, 2));
        assert_eq!(arena.request(a).id, 10);
        assert_eq!(arena.seq(b), 1);
        assert_eq!(arena.slot_of(11), Some(b));
        assert_eq!(arena.departure_of(10), Some(100));

        assert_eq!(arena.free(a), NO_GROUP);
        assert_eq!(arena.slot_of(10), None);
        // The freed slot is recycled; the peak stays.
        let c = arena.alloc(request(12, 9), 2);
        assert_eq!(c, a);
        assert_eq!((arena.live(), arena.peak_live(), arena.capacity()), (2, 2, 2));
        assert_eq!(arena.request(c).id, 12);
    }

    #[test]
    fn groups_survive_until_the_departure_frees_the_slot() {
        let mut arena = LiveVmArena::new();
        let t = arena.alloc(request(7, 0), 0);
        assert_eq!(arena.group(t), NO_GROUP);
        arena.set_group(t, 3);
        assert_eq!(arena.group(t), 3);
        // A killed VM is marked groupless but keeps its slot (and id
        // lookup) until the scheduled departure pops.
        arena.set_group(t, NO_GROUP);
        assert_eq!(arena.slot_of(7), Some(t));
        assert_eq!(arena.free(t), NO_GROUP);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn duplicate_ids_let_the_later_allocation_win_the_lookup() {
        let mut arena = LiveVmArena::new();
        let first = arena.alloc(request(5, 0), 0);
        let second = arena.alloc(request(5, 1), 1);
        assert_eq!(arena.slot_of(5), Some(second));
        // Freeing the shadowed slot must not unmap the winner.
        arena.free(first);
        assert_eq!(arena.slot_of(5), Some(second));
        arena.free(second);
        assert_eq!(arena.slot_of(5), None);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn double_free_panics() {
        let mut arena = LiveVmArena::new();
        let t = arena.alloc(request(1, 0), 0);
        arena.free(t);
        arena.free(t);
    }
}
