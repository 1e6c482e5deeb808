//! The metric names each mode prints, as `BENCHMARK.json` lists them.

/// The end-to-end metrics an untraced run prints.
pub const END_TO_END: [&str; 7] = [
    "events_per_s",
    "setup_s",
    "peak_rss_mib",
    "dram_saved_pct",
    "served_pct",
    "pdm_met_pct",
    "availability_pct",
];

/// The per-layer metrics a traced run prints, layer by layer from the
/// arrival source outwards.
pub const PER_LAYER: [&str; 84] = [
    "source.requests",
    "source.generate_s",
    "source.pull_n",
    "source.pull_ns_p50",
    "source.pull_ns_p999",
    "train.rows",
    "train.sensitivity_s",
    "train.untouched_s",
    "replay.prelude_s",
    "replay.tail_s",
    "planes.build_s",
    "planes.rss_mib",
    "sched.groups",
    "sched.views_n",
    "sched.views_us_per_arrival",
    "peaks.scan_n",
    "peaks.scan_us_per_event",
    "arrival.place_n",
    "arrival.place_us_p50",
    "arrival.place_us_p999",
    "arrival.commit_n",
    "arrival.commit_us_p50",
    "arrival.commit_us_p999",
    "rung.pooled_home",
    "rung.borrowed_neighbor",
    "rung.pooled_neighbor",
    "rung.all_local_home",
    "rung.all_local_neighbor",
    "rung.rejected",
    "rung.pooled_ratio",
    "fallback_pct",
    "failed_pct",
    "policy.decide_n",
    "policy.decide_ns_p50",
    "policy.decide_ns_p999",
    "policy.record_n",
    "policy.record_ns_p50",
    "policy.record_ns_p999",
    "policy.history_max",
    "policy.fully_pool",
    "policy.znuma",
    "policy.all_local",
    "pdm_violation_pct",
    "cp.request_n",
    "cp.request_us_p50",
    "cp.request_us_p999",
    "cp.departure_n",
    "cp.departure_us_p50",
    "cp.releases_n",
    "cp.releases_us_p50",
    "cp.stage_failures",
    "qos.passes",
    "qos.pass_us_p50",
    "qos.pass_us_p99",
    "event.arrival.count",
    "event.arrival.s",
    "event.departure.count",
    "event.departure.s",
    "event.release.count",
    "event.release.s",
    "event.reconfig_done.count",
    "event.reconfig_done.s",
    "event.migration_done.count",
    "event.migration_done.s",
    "event.snapshot.count",
    "event.snapshot.s",
    "event.emc_failure.count",
    "event.emc_failure.s",
    "event.emc_repair.count",
    "event.emc_repair.s",
    "event.decommission.count",
    "event.decommission.s",
    "event.expansion.count",
    "event.expansion.s",
    "queue.next_n",
    "queue.next_ns_p50",
    "queue.schedule_n",
    "queue.schedule_ns_p50",
    "relocate.n",
    "relocate.moves",
    "relocate.killed",
    "relocate.us_p50",
    "relocate.us_p999",
    "trace.overhead_pct",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn listed(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\": [")).expect("the array is present");
        let body = &json[start..];
        let end = body.find(']').expect("the array is closed");
        body[..end]
            .split("{\"name\": \"")
            .skip(1)
            .map(|item| item.split('"').next().expect("a quoted name").to_string())
            .collect()
    }

    #[test]
    fn the_printed_names_are_the_listed_names() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(listed(json, "end_to_end"), END_TO_END);
        assert_eq!(listed(json, "per_layer"), PER_LAYER);
    }
}
