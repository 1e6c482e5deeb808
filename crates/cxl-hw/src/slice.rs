//! Memory slices: the 1 GiB granularity at which pool capacity moves (the
//! paper's "1 GB" slices, realized as binary GiB in this reproduction).
//!
//! The Pond EMC assigns memory to hosts in 1 GB-aligned slices. Each slice is
//! owned by at most one host at a time; the EMC records the owner in a
//! permission table and rejects accesses from any other host (§4.1).

use crate::units::HostId;
use std::fmt;

/// Index of a 1 GiB slice within a single EMC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SliceId(pub u64);

impl SliceId {
    /// Returns the raw slice index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SliceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Ownership state of a single slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SliceState {
    /// The slice is not assigned to any host (offline from every host's view).
    #[default]
    Unassigned,
    /// The slice is assigned to (and online at) the given host.
    Assigned(HostId),
    /// The slice is being released: the owning host is offlining it but the
    /// EMC has not yet cleared the permission entry. Offlining takes
    /// 10–100 ms/GB (§4.2), so this transient state is visible to the pool
    /// manager.
    Releasing(HostId),
}

impl SliceState {
    /// The host that currently holds the slice, if any.
    ///
    /// A slice in the [`SliceState::Releasing`] state still belongs to the
    /// releasing host until the EMC clears the entry.
    pub fn owner(self) -> Option<HostId> {
        match self {
            SliceState::Unassigned => None,
            SliceState::Assigned(h) | SliceState::Releasing(h) => Some(h),
        }
    }

    /// True when the slice can be handed to a new host right now.
    pub fn is_free(self) -> bool {
        matches!(self, SliceState::Unassigned)
    }
}

/// The EMC permission table: one ownership entry per 1 GiB slice.
///
/// Occupancy queries are cheap: `assigned_count`/`free_count` are O(1) from
/// an incremental counter, and `first_free` walks a hierarchical free bitmap
/// (64-ary, so three levels cover 262,144 slices) instead of scanning the
/// entries. The fleet replay issues these queries on every VM arrival and
/// release completion, so scanning the whole table each time made slice
/// traffic O(slices) per GiB moved — quadratic over a replay.
///
/// ```
/// use cxl_hw::slice::{PermissionTable, SliceId};
/// use cxl_hw::units::HostId;
/// let table = PermissionTable::new(1024);
/// assert_eq!(table.free_count(), 1024);
/// assert_eq!(table.first_free(), Some(SliceId(0)));
/// assert!(!table.access_allowed(SliceId(0), HostId(3)), "nobody owns a free slice");
/// ```
#[derive(Debug, Clone)]
pub struct PermissionTable {
    entries: Vec<SliceState>,
    /// Number of non-free entries; kept in sync by [`PermissionTable::set`].
    assigned: u64,
    /// Free-slice index: bit `i` of `free.levels[0]` is set iff entry `i` is
    /// free, with each higher level summarizing 64 words of the one below.
    free: FreeBitmap,
    /// Per-host owned-slice counts (assigned + releasing), kept in sync by
    /// [`PermissionTable::set`]. There is at most one entry per attached
    /// CXL port (a host, or a cross-pod port lending to another pod), so
    /// linear search beats a map. Entries are removed when a host's count
    /// reaches zero.
    owners: Vec<(HostId, u64)>,
}

/// A 64-ary hierarchical bitmap over slice indices: level 0 holds one bit
/// per slice (1 = free), and bit `w` of a word at level `k + 1` is set iff
/// word `w` at level `k` is non-zero. `first_set` descends from the top via
/// `trailing_zeros`, so finding the lowest free slice is O(levels) — exact
/// lowest-index-first order, never a scan. A lowest-free *cursor* is not
/// enough here: each time a low slice frees and is re-taken, a cursor has to
/// re-scan forward across the whole occupied run, which made allocation
/// O(slices) again on large fragmented pools.
#[derive(Debug, Clone, Default)]
struct FreeBitmap {
    /// `levels[0]` is the bit-per-slice layer; the last level is one word.
    levels: Vec<Vec<u64>>,
}

impl FreeBitmap {
    /// Creates a bitmap of `len` bits, all set (every slice starts free).
    fn all_free(len: usize) -> Self {
        let mut levels = Vec::new();
        let mut bits = len;
        while bits > 0 {
            let words = bits.div_ceil(64);
            let mut level = vec![u64::MAX; words];
            // Clear the bits beyond `bits` so a set bit always maps to a
            // real slice (or a real word, on summary levels).
            if bits % 64 != 0 {
                level[words - 1] = (1u64 << (bits % 64)) - 1;
            }
            levels.push(level);
            if words == 1 {
                break;
            }
            bits = words;
        }
        FreeBitmap { levels }
    }

    fn set(&mut self, index: usize) {
        let mut i = index;
        for level in &mut self.levels {
            let was = level[i / 64];
            level[i / 64] = was | (1u64 << (i % 64));
            if was != 0 {
                // The summary bit above was already set.
                break;
            }
            i /= 64;
        }
    }

    fn clear(&mut self, index: usize) {
        let mut i = index;
        for level in &mut self.levels {
            level[i / 64] &= !(1u64 << (i % 64));
            if level[i / 64] != 0 {
                // The word still has bits, so the summary above stays set.
                break;
            }
            i /= 64;
        }
    }

    /// Lowest set bit, if any: descend from the single top-level word.
    fn first_set(&self) -> Option<usize> {
        let top = *self.levels.last()?.first()?;
        if top == 0 {
            return None;
        }
        let mut word = 0usize;
        for level in self.levels.iter().rev() {
            word = word * 64 + level[word].trailing_zeros() as usize;
        }
        Some(word)
    }
}

/// Equality is over the logical table (the entries); the derived occupancy
/// fields are excluded so tables that reached the same state via different
/// histories still compare equal.
impl PartialEq for PermissionTable {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl PermissionTable {
    /// Creates a table for `slices` slices, all unassigned.
    pub fn new(slices: u64) -> Self {
        PermissionTable {
            entries: vec![SliceState::Unassigned; slices as usize],
            assigned: 0,
            free: FreeBitmap::all_free(slices as usize),
            owners: Vec::new(),
        }
    }

    /// Number of slices tracked by the table.
    pub fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    /// True when the table tracks no slices.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the state of a slice, or `None` if the index is out of range.
    pub fn get(&self, slice: SliceId) -> Option<SliceState> {
        self.entries.get(slice.index()).copied()
    }

    /// Sets the state of a slice. Returns the previous state.
    ///
    /// Callers are expected to have validated the transition; the table
    /// itself only stores state. Returns `None` if the index is out of range.
    pub(crate) fn set(&mut self, slice: SliceId, state: SliceState) -> Option<SliceState> {
        let index = slice.index();
        let entry = self.entries.get_mut(index)?;
        let previous = std::mem::replace(entry, state);
        let (old_owner, new_owner) = (previous.owner(), state.owner());
        if old_owner != new_owner {
            if let Some(host) = old_owner {
                self.decrement_owner(host);
            }
            if let Some(host) = new_owner {
                self.increment_owner(host);
            }
        }
        match (previous.is_free(), state.is_free()) {
            (true, false) => {
                self.assigned += 1;
                self.free.clear(index);
            }
            (false, true) => {
                self.assigned -= 1;
                self.free.set(index);
            }
            // Free-to-free and occupied-to-occupied transitions (for example
            // `Assigned` -> `Releasing`) leave the occupancy unchanged.
            _ => {}
        }
        Some(previous)
    }

    /// Iterates over `(slice, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SliceId, SliceState)> + '_ {
        self.entries.iter().enumerate().map(|(i, s)| (SliceId(i as u64), *s))
    }

    /// Number of slices currently assigned (including ones mid-release). O(1).
    pub fn assigned_count(&self) -> u64 {
        self.assigned
    }

    /// Number of slices free for assignment. O(1).
    pub fn free_count(&self) -> u64 {
        self.len() - self.assigned
    }

    fn increment_owner(&mut self, host: HostId) {
        match self.owners.iter_mut().find(|(h, _)| *h == host) {
            Some((_, count)) => *count += 1,
            None => self.owners.push((host, 1)),
        }
    }

    fn decrement_owner(&mut self, host: HostId) {
        let pos = self
            .owners
            .iter()
            .position(|(h, _)| *h == host)
            .expect("a slice's owner has an owner-count entry");
        self.owners[pos].1 -= 1;
        if self.owners[pos].1 == 0 {
            self.owners.swap_remove(pos);
        }
    }

    /// Slices owned by a given host (assigned or releasing).
    pub fn owned_by(&self, host: HostId) -> Vec<SliceId> {
        if self.owned_count(host) == 0 {
            return Vec::new();
        }
        self.iter().filter(|(_, s)| s.owner() == Some(host)).map(|(id, _)| id).collect()
    }

    /// Number of slices owned by a given host (assigned or releasing).
    /// O(concurrent owners), which the EMC's port count bounds — the replay
    /// asks this on every release completion (port auto-detach) so a full
    /// table scan here was O(slices) per departure.
    pub fn owned_count(&self, host: HostId) -> u64 {
        self.owners.iter().find(|(h, _)| *h == host).map_or(0, |(_, count)| *count)
    }

    /// First free slice, if any. The EMC hands out the lowest-index free
    /// slice which keeps assignments compact and offlining ranges contiguous.
    /// O(levels) in the free bitmap — effectively constant.
    pub fn first_free(&self) -> Option<SliceId> {
        self.free.first_set().map(|i| SliceId(i as u64))
    }

    /// Checks whether `requester` is allowed to access `slice`.
    ///
    /// Mirrors the EMC's per-access ownership check: the request succeeds only
    /// when the requester matches the slice owner.
    pub fn access_allowed(&self, slice: SliceId, requester: HostId) -> bool {
        matches!(self.get(slice), Some(state) if state.owner() == Some(requester))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_table_is_fully_free() {
        let table = PermissionTable::new(16);
        assert_eq!(table.len(), 16);
        assert_eq!(table.free_count(), 16);
        assert_eq!(table.assigned_count(), 0);
        assert_eq!(table.first_free(), Some(SliceId(0)));
        assert!(!table.is_empty());
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut table = PermissionTable::new(4);
        let prev = table.set(SliceId(2), SliceState::Assigned(HostId(3)));
        assert_eq!(prev, Some(SliceState::Unassigned));
        assert_eq!(table.get(SliceId(2)), Some(SliceState::Assigned(HostId(3))));
        assert_eq!(table.assigned_count(), 1);
        assert_eq!(table.owned_by(HostId(3)), vec![SliceId(2)]);
    }

    #[test]
    fn out_of_range_returns_none() {
        let mut table = PermissionTable::new(4);
        assert_eq!(table.get(SliceId(4)), None);
        assert_eq!(table.set(SliceId(9), SliceState::Unassigned), None);
    }

    #[test]
    fn access_check_matches_ownership() {
        let mut table = PermissionTable::new(4);
        table.set(SliceId(1), SliceState::Assigned(HostId(0)));
        assert!(table.access_allowed(SliceId(1), HostId(0)));
        assert!(!table.access_allowed(SliceId(1), HostId(1)));
        assert!(!table.access_allowed(SliceId(0), HostId(0)));
        assert!(!table.access_allowed(SliceId(99), HostId(0)));
    }

    #[test]
    fn releasing_slice_still_owned() {
        let mut table = PermissionTable::new(4);
        table.set(SliceId(0), SliceState::Releasing(HostId(5)));
        assert_eq!(table.get(SliceId(0)).unwrap().owner(), Some(HostId(5)));
        assert!(!table.get(SliceId(0)).unwrap().is_free());
        assert_eq!(table.first_free(), Some(SliceId(1)));
    }

    proptest! {
        /// Invariant: assigned + free always equals the table size, whatever
        /// sequence of state updates is applied.
        #[test]
        fn counts_partition_table(ops in proptest::collection::vec((0u64..32, 0u16..8, 0u8..3), 0..64)) {
            let mut table = PermissionTable::new(32);
            for (slice, host, kind) in ops {
                let state = match kind {
                    0 => SliceState::Unassigned,
                    1 => SliceState::Assigned(HostId(host)),
                    _ => SliceState::Releasing(HostId(host)),
                };
                table.set(SliceId(slice), state);
                prop_assert_eq!(table.assigned_count() + table.free_count(), 32);
            }
        }

        /// Invariant: a slice is owned by at most one host, so summing
        /// per-host ownership never exceeds the assigned count.
        #[test]
        fn ownership_is_exclusive(assignments in proptest::collection::vec((0u64..16, 0u16..4), 0..40)) {
            let mut table = PermissionTable::new(16);
            for (slice, host) in assignments {
                table.set(SliceId(slice), SliceState::Assigned(HostId(host)));
            }
            let per_host: u64 = (0..4u16).map(|h| table.owned_by(HostId(h)).len() as u64).sum();
            prop_assert_eq!(per_host, table.assigned_count());
            let counted: u64 = (0..4u16).map(|h| table.owned_count(HostId(h))).sum();
            prop_assert_eq!(counted, table.assigned_count());
        }

        /// The free bitmap's `first_free` always equals a naive scan for the
        /// lowest free entry, across a multi-level table (130 slices spans
        /// three bitmap words) under arbitrary churn.
        #[test]
        fn first_free_matches_a_naive_scan(ops in proptest::collection::vec((0u64..130, 0u8..3), 0..200)) {
            let mut table = PermissionTable::new(130);
            for (slice, kind) in ops {
                let state = match kind {
                    0 => SliceState::Unassigned,
                    1 => SliceState::Assigned(HostId(1)),
                    _ => SliceState::Releasing(HostId(1)),
                };
                table.set(SliceId(slice), state);
                let naive = table.iter().find(|(_, s)| s.is_free()).map(|(id, _)| id);
                prop_assert_eq!(table.first_free(), naive);
            }
        }
    }
}
