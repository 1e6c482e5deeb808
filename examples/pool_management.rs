//! Pool management (Figure 9): drive the EMC slice-ownership flows directly —
//! add capacity to hosts, release it asynchronously when VMs depart, and
//! observe the permission checks and what an EMC failure takes down (§4.2).
//!
//! Run with: `cargo run -p pond-examples --example pool_management`

use cxl_hw::topology::PoolTopology;
use cxl_hw::units::{Bytes, EmcId, HostId};
use pond_core::pool_manager::PondPoolManager;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8-socket pool with 64 GiB of capacity behind one multi-headed EMC.
    let topology = PoolTopology::pond_with_capacity(8, Bytes::from_gib(64))?;
    let mut manager = PondPoolManager::new(&topology);
    println!(
        "pool created: {} free across {} EMC(s)",
        manager.available(),
        manager.pool().emc_count()
    );

    // t=0: VM1 on host 1 gets 2 GB of pool memory; VM2 on host 1 gets 4 GB.
    let vm1 = manager.allocate(HostId(1), Bytes::from_gib(2), Duration::ZERO)?;
    let vm2 = manager.allocate(HostId(1), Bytes::from_gib(4), Duration::ZERO)?;
    println!("t=0  host1 owns {} of pool memory", manager.pool().capacity_of(HostId(1)));

    // The EMC enforces ownership on every access.
    let emc = manager.pool().emc(EmcId(0)).expect("EMC 0 exists");
    println!(
        "access checks: owner -> {:?}, other host -> {:?}",
        emc.check_access(HostId(1), vm1[0].slice),
        emc.check_access(HostId(2), vm1[0].slice)
    );

    // t=1: VM2 departs; its slices offline asynchronously (10-100 ms/GB).
    manager.release_async(HostId(1), vm2, Duration::from_secs(1))?;
    println!(
        "t=1  release initiated: {} still offlining, {} immediately available",
        manager.pending_release(),
        manager.available()
    );

    // t=2: the offlining completes and the capacity returns to the buffer.
    let freed = manager.process_releases(Duration::from_secs(2));
    println!("t=2  offlining finished: {freed} returned, buffer now {}", manager.available());

    // t=3: a new VM on host 2 takes 1 GB from the replenished buffer.
    manager.allocate(HostId(2), Bytes::from_gib(1), Duration::from_secs(3))?;
    println!("t=3  host2 owns {}", manager.pool().capacity_of(HostId(2)));

    // t=4: the EMC fails. Every slice on it is lost, assigned or
    // mid-release, and so is every host's CXL port; the control plane maps
    // the lost slices back to VMs (`PondControlPlane::handle_emc_failure`).
    let report = manager.fail_emc(EmcId(0))?;
    let ports: Vec<String> = report.ports_lost.iter().map(ToString::to_string).collect();
    println!(
        "t=4  {} failed: {} slice(s) lost, ports lost by {}, buffer now {}",
        report.emc,
        report.lost.len(),
        ports.join(" and "),
        manager.available()
    );
    Ok(())
}
