//! Outcome checks made at the benchmark boundary.
//!
//! Every timed run is a release build, where the replay's `debug_assert`s
//! are compiled out, so the identities below are checked here instead. Any
//! failure fails the run: it prints no metric.

use pond_core::fleet::FleetOutcome;
use pond_core::multipool::{DrillKind, MultiPoolConfig, MultiPoolOutcome};

/// Checks one replay's outcome: the pooling guard, the arrival identity,
/// the per-group migration identity, and that the fleet aggregate is the
/// per-group sum of every additive field. Returns every violation found.
pub fn check_outcome(outcome: &MultiPoolOutcome, requests: u64) -> Vec<String> {
    let mut errors = Vec::new();
    let fleet = &outcome.fleet;

    // A fleet that does not pool measures nothing Pond is about.
    if fleet.pool_gib_hours <= 0.0 {
        errors.push(format!("pooling guard: pool_gib_hours is {}", fleet.pool_gib_hours));
    }
    if fleet.dram_savings_fraction() <= 0.0 {
        errors.push(format!(
            "pooling guard: DRAM saved is {:.4}%",
            100.0 * fleet.dram_savings_fraction()
        ));
    }

    if requests != fleet.scheduled_vms + fleet.rejected_vms {
        errors.push(format!(
            "arrivals {requests} != scheduled {} + rejected {}",
            fleet.scheduled_vms, fleet.rejected_vms
        ));
    }

    for (group, g) in outcome.per_group.iter().enumerate() {
        let relocated = g.vms_migrated + g.vms_drained + g.vms_rebalanced;
        if g.migration_completions != relocated {
            errors.push(format!(
                "group {group}: migration completions {} != migrated {} + drained {} + \
                 rebalanced {}",
                g.migration_completions, g.vms_migrated, g.vms_drained, g.vms_rebalanced
            ));
        }
    }

    let summed = additive_sum(&outcome.per_group);
    let mut aggregate = fleet.clone();
    // The two non-additive fields: shared snapshot ticks and the fleet-wide
    // peak of in-flight copies.
    aggregate.qos_passes = summed.qos_passes;
    aggregate.peak_degraded_vms = summed.peak_degraded_vms;
    if format!("{aggregate:?}") != format!("{summed:?}") {
        errors.push(format!(
            "fleet aggregate != per-group sum:\n  fleet {aggregate:?}\n  sum   {summed:?}"
        ));
    }
    errors
}

/// Sums every field of the per-group outcomes, in group order (the order
/// the replay aggregates in, so floating-point sums match bit for bit).
/// Destructures each outcome so a new field cannot be left out of the check.
fn additive_sum(per_group: &[FleetOutcome]) -> FleetOutcome {
    let mut sum = FleetOutcome::default();
    for g in per_group {
        let FleetOutcome {
            scheduled_vms,
            rejected_vms,
            fallback_all_local,
            violations,
            mitigations,
            mitigation_copy_time,
            reconfig_completions,
            peak_degraded_vms,
            qos_passes,
            releases_completed,
            emc_failures,
            vms_migrated,
            vms_killed,
            migration_completions,
            evacuation_copy_time,
            vms_drained,
            vms_rebalanced,
            emcs_repaired,
            groups_decommissioned,
            groups_expanded,
            pooled_host_count,
            sum_local_peaks,
            sum_host_pool_peaks,
            sum_total_peaks,
            pool_peak,
            pool_gib_hours,
            total_gib_hours,
            vms_borrowed,
            borrowed_gib_hours,
        } = g;
        sum.scheduled_vms += scheduled_vms;
        sum.rejected_vms += rejected_vms;
        sum.fallback_all_local += fallback_all_local;
        sum.violations += violations;
        sum.mitigations += mitigations;
        sum.mitigation_copy_time += *mitigation_copy_time;
        sum.reconfig_completions += reconfig_completions;
        sum.peak_degraded_vms += peak_degraded_vms;
        sum.qos_passes += qos_passes;
        sum.releases_completed += releases_completed;
        sum.emc_failures += emc_failures;
        sum.vms_migrated += vms_migrated;
        sum.vms_killed += vms_killed;
        sum.migration_completions += migration_completions;
        sum.evacuation_copy_time += *evacuation_copy_time;
        sum.vms_drained += vms_drained;
        sum.vms_rebalanced += vms_rebalanced;
        sum.emcs_repaired += emcs_repaired;
        sum.groups_decommissioned += groups_decommissioned;
        sum.groups_expanded += groups_expanded;
        sum.pooled_host_count += pooled_host_count;
        sum.sum_local_peaks += *sum_local_peaks;
        sum.sum_host_pool_peaks += *sum_host_pool_peaks;
        sum.sum_total_peaks += *sum_total_peaks;
        sum.pool_peak += *pool_peak;
        sum.pool_gib_hours += pool_gib_hours;
        sum.total_gib_hours += total_gib_hours;
        sum.vms_borrowed += vms_borrowed;
        sum.borrowed_gib_hours += borrowed_gib_hours;
    }
    sum
}

/// Events the replay pops, derived from its outcome and configuration: one
/// arrival per request, one departure per scheduled VM (a killed VM's
/// departure still pops), every completion event, every snapshot tick, and
/// every planned drill and lifecycle event. The traced run checks this
/// against the observer's pop count, so the untraced `events_per_s`
/// numerator is the number of events the replay really handled.
pub fn popped_events(outcome: &MultiPoolOutcome, config: &MultiPoolConfig) -> u64 {
    let fleet = &outcome.fleet;
    let repairs = match config.drill.map(|drill| drill.kind) {
        Some(DrillKind::EmcWithRepair { .. }) => fleet.emc_failures,
        _ => 0,
    };
    let planned_lifecycle = config.lifecycle.as_ref().map_or(0, |plan| plan.events.len() as u64);
    fleet.scheduled_vms
        + fleet.rejected_vms
        + fleet.scheduled_vms
        + fleet.releases_completed
        + fleet.reconfig_completions
        + fleet.migration_completions
        + fleet.qos_passes
        + fleet.emc_failures
        + repairs
        + planned_lifecycle
}

/// The outcome's simulated figures as one exact string: two replays agree
/// bit for bit exactly when these agree (`{:?}` prints every float in full).
pub fn fingerprint(outcome: &MultiPoolOutcome) -> String {
    format!("{outcome:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_hw::topology::PodStyle;
    use cxl_hw::units::Bytes;

    /// Two pooling groups whose aggregate is built the way the replay
    /// builds it.
    fn outcome() -> MultiPoolOutcome {
        let group = |scheduled: u64, pool_gib_hours: f64| FleetOutcome {
            scheduled_vms: scheduled,
            rejected_vms: 1,
            vms_migrated: 2,
            vms_drained: 1,
            migration_completions: 3,
            sum_total_peaks: Bytes::from_gib(100),
            sum_host_pool_peaks: Bytes::from_gib(30),
            pool_peak: Bytes::from_gib(10),
            pool_gib_hours,
            total_gib_hours: 10.0 * pool_gib_hours,
            qos_passes: 4,
            ..FleetOutcome::default()
        };
        let per_group = vec![group(10, 0.1), group(20, 0.2)];
        let mut fleet = additive_sum(&per_group);
        fleet.qos_passes = 4;
        MultiPoolOutcome {
            fleet,
            per_group,
            cross_group_placements: 0,
            scheduler: "round-robin".to_string(),
            pod: PodStyle::Octopus,
        }
    }

    #[test]
    fn a_consistent_pooling_outcome_passes() {
        assert_eq!(check_outcome(&outcome(), 32), Vec::<String>::new());
    }

    #[test]
    fn a_fleet_that_does_not_pool_fails_the_guard() {
        let mut unpooled = outcome();
        unpooled.fleet.pool_gib_hours = 0.0;
        unpooled.fleet.sum_host_pool_peaks = Bytes::ZERO;
        unpooled.fleet.pool_peak = Bytes::ZERO;
        let errors = check_outcome(&unpooled, 32);
        assert!(errors.iter().any(|e| e.contains("pool_gib_hours")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("DRAM saved")), "{errors:?}");
    }

    #[test]
    fn broken_identities_are_reported() {
        let mut broken = outcome();
        broken.per_group[1].migration_completions = 2;
        let errors = check_outcome(&broken, 33);
        assert!(errors.iter().any(|e| e.starts_with("arrivals 33")), "{errors:?}");
        assert!(errors.iter().any(|e| e.starts_with("group 1: migration")), "{errors:?}");
        assert!(errors.iter().any(|e| e.starts_with("fleet aggregate")), "{errors:?}");
    }
}
