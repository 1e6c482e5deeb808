//! The replay's control planes behind a touched-group set, and the
//! fleet-wide group index that lets an arrival pick its home group without
//! looking at every pod.
//!
//! [`GroupScheduler::choose`](crate::multipool::GroupScheduler::choose) over
//! one [`GroupView`] per online group is the
//! specification of home-group choice, but building those views is O(pods)
//! per arrival. The replay instead keeps a [`GroupIndex`]: exactly the
//! state the three built-in schedulers read, filed in ordered sets and
//! refreshed only for the groups an event touched.
//!
//! * [`Planes`] owns the planes. Its one mutable accessor, [`Planes::touch`],
//!   records the group as touched; it has no `IndexMut` or `DerefMut`, so
//!   the compiler rejects any mutation that would bypass the touched set.
//! * At the end of every event the replay drains the touched groups
//!   ([`Planes::drain_touched`]) and re-files their hosts' free DRAM and
//!   their free pool in the index. The index is therefore current whenever
//!   the next arrival reads it, which is all the views ever were: a snapshot
//!   taken before the arrival mutates anything.
//!
//! Every group has at least one host (`PoolGroupTopology` rejects more
//! groups than hosts), which the tightest-fit fallback relies on.

use crate::control_plane::PondControlPlane;
use crate::multipool::{GroupScheduler, GroupSchedulerKind, GroupView};
use cluster_sim::trace::VmRequest;
use cxl_hw::pool::GroupState;
use cxl_hw::units::Bytes;
use hypervisor_sim::host::HostMemory;
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::ops::Deref;

/// The replay's control planes, one per group, with every mutable access
/// recorded in a touched-group set.
#[derive(Debug)]
pub(crate) struct Planes {
    planes: Vec<PondControlPlane>,
    /// Groups mutably accessed since the last [`Planes::drain_touched`],
    /// each once, in first-touch order.
    touched: Vec<usize>,
    is_touched: Vec<bool>,
}

impl Planes {
    pub(crate) fn new(planes: Vec<PondControlPlane>) -> Self {
        let is_touched = vec![false; planes.len()];
        Planes { planes, touched: Vec::new(), is_touched }
    }

    /// Mutable access to `group`'s plane — the only one there is — marking
    /// the group touched.
    pub(crate) fn touch(&mut self, group: usize) -> &mut PondControlPlane {
        if !self.is_touched[group] {
            self.is_touched[group] = true;
            self.touched.push(group);
        }
        &mut self.planes[group]
    }

    /// Visits every group touched since the last call and clears the set.
    pub(crate) fn drain_touched(&mut self, mut visit: impl FnMut(usize, &mut PondControlPlane)) {
        for &group in &self.touched {
            self.is_touched[group] = false;
            visit(group, &mut self.planes[group]);
        }
        self.touched.clear();
    }
}

impl Deref for Planes {
    type Target = [PondControlPlane];

    fn deref(&self) -> &[PondControlPlane] {
        &self.planes
    }
}

/// The ordered state one built-in scheduler reads, over online groups only.
#[derive(Debug)]
enum Mirror {
    /// [`GroupSchedulerKind::RoundRobin`]'s cursor: one step per choice,
    /// taken modulo the online count.
    RoundRobin { next: usize },
    /// `(Reverse(pool_free), group)`: the first entry is the most free pool,
    /// lowest group at ties.
    MostFreePool(BTreeSet<(Reverse<Bytes>, usize)>),
    /// `(local_free, group, host)` over every online group's hosts.
    TightestFit(BTreeSet<(Bytes, usize, usize)>),
}

/// A fleet-wide index answering one scheduler kind's home-group choice in
/// O(log hosts), equal to that scheduler's
/// [`choose`](crate::multipool::GroupScheduler::choose) over the views of
/// the online groups (mapped back through the online list).
#[derive(Debug)]
pub(crate) struct GroupIndex {
    mirror: Mirror,
    /// Groups that accept placements, ascending: the scheduler's view order.
    online: Vec<usize>,
    is_online: Vec<bool>,
    /// The last value filed per group and per host, online or not, so an
    /// entry can be found again when it moves or its group comes back.
    pool_free: Vec<Bytes>,
    host_free: Vec<Vec<Bytes>>,
}

impl GroupIndex {
    /// An index over groups that all start online, with `pool_free[g]` free
    /// pool and `host_free[g][h]` free local DRAM on host `h` of group `g`.
    pub(crate) fn new(
        kind: GroupSchedulerKind,
        pool_free: Vec<Bytes>,
        host_free: Vec<Vec<Bytes>>,
    ) -> Self {
        debug_assert_eq!(pool_free.len(), host_free.len());
        debug_assert!(host_free.iter().all(|hosts| !hosts.is_empty()), "every group has a host");
        let mirror = match kind {
            GroupSchedulerKind::RoundRobin => Mirror::RoundRobin { next: 0 },
            GroupSchedulerKind::MostFreePool => Mirror::MostFreePool(
                pool_free.iter().enumerate().map(|(g, &free)| (Reverse(free), g)).collect(),
            ),
            GroupSchedulerKind::TightestFit => Mirror::TightestFit(
                host_free
                    .iter()
                    .enumerate()
                    .flat_map(|(g, hosts)| hosts.iter().enumerate().map(move |(h, &f)| (f, g, h)))
                    .collect(),
            ),
        };
        GroupIndex {
            mirror,
            online: (0..pool_free.len()).collect(),
            is_online: vec![true; pool_free.len()],
            pool_free,
            host_free,
        }
    }

    /// An index over `planes`, all online, filed with what
    /// [`GroupIndex::refresh`] re-files.
    pub(crate) fn of_planes(kind: GroupSchedulerKind, planes: &[PondControlPlane]) -> Self {
        let pool_free = planes.iter().map(|p| p.pool().available()).collect();
        let host_free =
            planes.iter().map(|p| p.hosts().iter().map(HostMemory::local_free).collect()).collect();
        GroupIndex::new(kind, pool_free, host_free)
    }

    /// The home group for a VM of `memory`, or `None` when no group is
    /// online. Advances the round-robin cursor only when it chooses.
    pub(crate) fn choose(&mut self, memory: Bytes) -> Option<usize> {
        if self.online.is_empty() {
            return None;
        }
        Some(match &mut self.mirror {
            Mirror::RoundRobin { next } => {
                let group = self.online[*next % self.online.len()];
                *next = next.wrapping_add(1);
                group
            }
            Mirror::MostFreePool(pools) => pools.first().expect("online groups are filed").1,
            Mirror::TightestFit(hosts) => {
                // The tightest host that fits, lowest group at ties; if none
                // fits, the lowest group holding the most free host.
                let fit = hosts.range((memory, 0, 0)..).next().or_else(|| {
                    let &(most, _, _) = hosts.last()?;
                    hosts.range((most, 0, 0)..).next()
                });
                fit.expect("online groups have hosts").1
            }
        })
    }

    /// Re-files `group` from its plane: every host changed since the last
    /// `drain_touched`, each also handed to `sample`, then the free pool.
    /// Returns whether the pool's assigned capacity may have grown.
    pub(crate) fn refresh(
        &mut self,
        group: usize,
        plane: &mut PondControlPlane,
        mut sample: impl FnMut(usize, &HostMemory),
    ) -> bool {
        let pool_dirty = plane.drain_touched(|host, memory| {
            sample(host, memory);
            self.set_host_free(group, host, memory.local_free());
        });
        self.set_pool_free(group, plane.pool().available());
        pool_dirty
    }

    /// Re-files host `host` of `group` at `free` local DRAM.
    pub(crate) fn set_host_free(&mut self, group: usize, host: usize, free: Bytes) {
        let old = std::mem::replace(&mut self.host_free[group][host], free);
        if let (Mirror::TightestFit(hosts), true) = (&mut self.mirror, self.is_online[group]) {
            if old != free {
                hosts.remove(&(old, group, host));
                hosts.insert((free, group, host));
            }
        }
    }

    /// Re-files `group` at `free` pool capacity.
    pub(crate) fn set_pool_free(&mut self, group: usize, free: Bytes) {
        let old = std::mem::replace(&mut self.pool_free[group], free);
        if let (Mirror::MostFreePool(pools), true) = (&mut self.mirror, self.is_online[group]) {
            if old != free {
                pools.remove(&(Reverse(old), group));
                pools.insert((Reverse(free), group));
            }
        }
    }

    /// Takes `group` into or out of the choice, filing or unfiling its
    /// entries from their last values.
    pub(crate) fn set_online(&mut self, group: usize, online: bool) {
        if self.is_online[group] == online {
            return;
        }
        self.is_online[group] = online;
        self.online = (0..self.is_online.len()).filter(|&g| self.is_online[g]).collect();
        match &mut self.mirror {
            Mirror::RoundRobin { .. } => {}
            Mirror::MostFreePool(pools) => {
                let entry = (Reverse(self.pool_free[group]), group);
                if online {
                    pools.insert(entry);
                } else {
                    pools.remove(&entry);
                }
            }
            Mirror::TightestFit(hosts) => {
                for (host, &free) in self.host_free[group].iter().enumerate() {
                    if online {
                        hosts.insert((free, group, host));
                    } else {
                        hosts.remove(&(free, group, host));
                    }
                }
            }
        }
    }
}

/// The specification [`GroupIndex::choose`] mirrors: `scheduler` over a view
/// of every group whose state accepts placements, mapped back to a group, or
/// `None` without consulting the scheduler when no group does. O(groups), so
/// the replay runs it only in debug builds, at every arrival.
pub(crate) fn scheduler_choice(
    scheduler: &mut GroupScheduler,
    planes: &[PondControlPlane],
    states: &[GroupState],
    request: &VmRequest,
) -> Option<usize> {
    let online: Vec<usize> =
        (0..planes.len()).filter(|&g| states[g].accepts_placements()).collect();
    if online.is_empty() {
        return None;
    }
    let views: Vec<GroupView> =
        online.iter().map(|&g| GroupView::of(&planes[g], request)).collect();
    Some(online[scheduler.choose(request, &views)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::trace::{CustomerId, GuestOs, VmType};
    use proptest::prelude::*;

    /// Few distinct values, so ties across groups are the norm.
    fn host_free(level: u8) -> Bytes {
        Bytes::from_gib(16 * u64::from(level % 4))
    }

    fn pool_free(level: u8) -> Bytes {
        Bytes::from_gib(64 * u64::from(level % 3))
    }

    /// 64 GiB fits no host: the no-feasible-host fallback.
    const MEMORY_GIB: [u64; 4] = [8, 16, 40, 64];

    fn request(memory: Bytes) -> VmRequest {
        VmRequest {
            id: 0,
            arrival: 0,
            lifetime: 1,
            cores: 2,
            memory,
            customer: CustomerId(0),
            vm_type: VmType::GeneralPurpose,
            guest_os: GuestOs::Linux,
            region: 0,
            workload_index: 0,
            untouched_fraction: 0.5,
        }
    }

    /// The model fleet and, per scheduler kind, the spec scheduler and the
    /// index under test, fed the same updates.
    struct Harness {
        pools: Vec<Bytes>,
        hosts: Vec<Vec<Bytes>>,
        online: Vec<bool>,
        kinds: Vec<(GroupSchedulerKind, GroupScheduler, GroupIndex)>,
    }

    impl Harness {
        fn new(pools: Vec<Bytes>, hosts: Vec<Vec<Bytes>>) -> Self {
            let kinds = GroupSchedulerKind::ALL
                .into_iter()
                .map(|kind| {
                    (kind, kind.build(), GroupIndex::new(kind, pools.clone(), hosts.clone()))
                })
                .collect();
            Harness { online: vec![true; pools.len()], pools, hosts, kinds }
        }

        fn set_host(&mut self, group: usize, host: usize, free: Bytes) {
            self.hosts[group][host] = free;
            self.kinds.iter_mut().for_each(|(_, _, index)| index.set_host_free(group, host, free));
        }

        fn set_pool(&mut self, group: usize, free: Bytes) {
            self.pools[group] = free;
            self.kinds.iter_mut().for_each(|(_, _, index)| index.set_pool_free(group, free));
        }

        fn set_online(&mut self, group: usize, online: bool) {
            self.online[group] = online;
            self.kinds.iter_mut().for_each(|(_, _, index)| index.set_online(group, online));
        }

        /// Every kind's index choice against its scheduler over the views
        /// of the online groups; the scheduler runs only when one is online.
        fn check(&mut self, memory: Bytes) {
            let request = request(memory);
            let online: Vec<usize> = (0..self.pools.len()).filter(|&g| self.online[g]).collect();
            let views: Vec<GroupView> = online
                .iter()
                .map(|&g| GroupView {
                    pool_free: self.pools[g],
                    most_free_host: self.hosts[g].iter().copied().max().unwrap_or(Bytes::ZERO),
                    tightest_feasible: self.hosts[g].iter().copied().filter(|&f| f >= memory).min(),
                    running_vms: 0,
                })
                .collect();
            for (kind, scheduler, index) in &mut self.kinds {
                let spec = (!online.is_empty()).then(|| online[scheduler.choose(&request, &views)]);
                assert_eq!(index.choose(memory), spec, "{kind:?} over {views:?}");
            }
        }
    }

    proptest! {
        #[test]
        fn the_index_chooses_what_every_scheduler_chooses(
            groups in 1usize..65,
            hosts_per_group in proptest::collection::vec(1usize..5, 64..65),
            levels in proptest::collection::vec((0u8..4, 0u8..3), 256..257),
            steps in proptest::collection::vec(
                (0u8..4, 0usize..64, 0usize..4, 0u8..12, 0usize..4),
                1..48,
            ),
        ) {
            let mut level = levels.iter().copied().cycle();
            let pools: Vec<Bytes> =
                (0..groups).map(|_| pool_free(level.next().unwrap().1)).collect();
            let hosts: Vec<Vec<Bytes>> = hosts_per_group[..groups]
                .iter()
                .map(|&n| (0..n).map(|_| host_free(level.next().unwrap().0)).collect())
                .collect();
            let mut fleet = Harness::new(pools, hosts);
            fleet.check(Bytes::from_gib(8));
            for (op, group, host, value, memory) in steps {
                let group = group % groups;
                match op {
                    0 => {
                        let host = host % fleet.hosts[group].len();
                        fleet.set_host(group, host, host_free(value));
                    }
                    1 => fleet.set_pool(group, pool_free(value)),
                    2 => fleet.set_online(group, !fleet.online[group]),
                    // Everything offline but `group`: an online set of one.
                    _ => (0..groups).for_each(|g| fleet.set_online(g, g == group)),
                }
                fleet.check(Bytes::from_gib(MEMORY_GIB[memory]));
            }
            // Always end on the edges: one group online and a VM no host
            // fits, then no group online at all.
            (0..groups).for_each(|g| fleet.set_online(g, g == groups - 1));
            fleet.check(Bytes::from_gib(64));
            fleet.set_online(groups - 1, false);
            fleet.check(Bytes::from_gib(8));
            // And back: a group rejoins with the values it had when it left.
            (0..groups).for_each(|g| fleet.set_online(g, true));
            fleet.check(Bytes::from_gib(16));
        }
    }
}
