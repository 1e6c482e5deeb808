//! Stranded-memory analysis (Figure 2 and §3.1).
//!
//! Figure 2a buckets cluster-days by scheduled-core percentage and reports
//! the mean, 5th, and 95th percentile of stranded memory in each bucket.
//! Figure 2b shows stranding over time for individual racks.

use crate::simulation::StrandingSample;
use cxl_hw::units::Bytes;

/// Aggregate stranding statistics for one scheduled-cores bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct StrandingBucket {
    /// Lower edge of the bucket (fraction of cores scheduled, inclusive).
    pub cores_from: f64,
    /// Upper edge of the bucket (exclusive).
    pub cores_to: f64,
    /// Number of samples in the bucket.
    pub samples: usize,
    /// Mean stranded-memory fraction.
    pub mean: f64,
    /// 5th percentile of the stranded-memory fraction.
    pub p5: f64,
    /// 95th percentile of the stranded-memory fraction.
    pub p95: f64,
    /// Maximum observed stranded-memory fraction (outliers).
    pub max: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[pos]
}

/// Buckets stranding samples by scheduled-core fraction (Figure 2a).
///
/// `bucket_edges` are the lower edges of the buckets, e.g. `[0.6, 0.7, 0.8, 0.9]`
/// reproduces the paper's 60/70/80/90% buckets. Samples below the first edge
/// are ignored; the last bucket is open-ended.
pub fn bucket_by_scheduled_cores(
    samples: &[StrandingSample],
    bucket_edges: &[f64],
) -> Vec<StrandingBucket> {
    bucket_edges
        .iter()
        .enumerate()
        .map(|(i, &from)| {
            let to = bucket_edges.get(i + 1).copied().unwrap_or(1.01);
            let mut values: Vec<f64> = samples
                .iter()
                .filter(|s| s.scheduled_cores_fraction >= from && s.scheduled_cores_fraction < to)
                .map(|s| s.stranded_fraction)
                .collect();
            values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let mean = if values.is_empty() {
                0.0
            } else {
                values.iter().sum::<f64>() / values.len() as f64
            };
            StrandingBucket {
                cores_from: from,
                cores_to: to,
                samples: values.len(),
                mean,
                p5: percentile(&values, 0.05),
                p95: percentile(&values, 0.95),
                max: values.last().copied().unwrap_or(0.0),
            }
        })
        .collect()
}

/// Stranding time series for one rack (Figure 2b).
#[derive(Debug, Clone, PartialEq)]
pub struct RackSeries {
    /// Rack index.
    pub rack: usize,
    /// `(time in seconds, stranded fraction of the rack's DRAM)` points.
    pub points: Vec<(u64, f64)>,
}

/// Aggregates per-server stranded memory into racks of `servers_per_rack`
/// servers and returns one time series per rack.
///
/// # Panics
///
/// Panics if `servers_per_rack` is zero or `dram_per_server` is zero.
pub fn rack_time_series(
    samples: &[StrandingSample],
    servers_per_rack: usize,
    dram_per_server: Bytes,
) -> Vec<RackSeries> {
    assert!(servers_per_rack > 0, "a rack needs at least one server");
    assert!(!dram_per_server.is_zero(), "servers need DRAM");
    let Some(first) = samples.first() else {
        return Vec::new();
    };
    let racks = first.per_server_stranded.len().div_ceil(servers_per_rack);
    (0..racks)
        .map(|rack| {
            let lo = rack * servers_per_rack;
            let points = samples
                .iter()
                .map(|s| {
                    let hi = ((rack + 1) * servers_per_rack).min(s.per_server_stranded.len());
                    let stranded: Bytes = s.per_server_stranded[lo..hi].iter().copied().sum();
                    let capacity = dram_per_server.as_u64() * (hi - lo).max(1) as u64;
                    (s.time, stranded.as_u64() as f64 / capacity as f64)
                })
                .collect();
            RackSeries { rack, points }
        })
        .collect()
}

/// Drops the warm-up prefix of a sample series (the paper's clusters are in
/// steady state; ours start warm but the first day still ramps packing).
pub fn skip_warmup(samples: &[StrandingSample], warmup_secs: u64) -> Vec<StrandingSample> {
    samples.iter().filter(|s| s.time >= warmup_secs).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(time: u64, cores: f64, stranded: f64, per_server: Vec<u64>) -> StrandingSample {
        StrandingSample {
            time,
            scheduled_cores_fraction: cores,
            stranded_fraction: stranded,
            per_server_stranded: per_server.into_iter().map(Bytes::from_gib).collect(),
        }
    }

    #[test]
    fn bucketing_partitions_by_core_utilization() {
        let samples = vec![
            sample(0, 0.65, 0.02, vec![]),
            sample(1, 0.75, 0.06, vec![]),
            sample(2, 0.78, 0.08, vec![]),
            sample(3, 0.92, 0.20, vec![]),
        ];
        let buckets = bucket_by_scheduled_cores(&samples, &[0.6, 0.7, 0.8, 0.9]);
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0].samples, 1);
        assert_eq!(buckets[1].samples, 2);
        assert_eq!(buckets[2].samples, 0);
        assert_eq!(buckets[3].samples, 1);
        assert!((buckets[1].mean - 0.07).abs() < 1e-12);
        assert_eq!(buckets[3].max, 0.20);
        // Empty bucket reports zeros rather than NaN.
        assert_eq!(buckets[2].mean, 0.0);
    }

    #[test]
    fn percentiles_are_ordered() {
        let samples: Vec<StrandingSample> =
            (0..100).map(|i| sample(i, 0.85, i as f64 / 500.0, vec![])).collect();
        let buckets = bucket_by_scheduled_cores(&samples, &[0.8]);
        let b = &buckets[0];
        assert!(b.p5 <= b.mean);
        assert!(b.mean <= b.p95);
        assert!(b.p95 <= b.max);
    }

    #[test]
    fn rack_series_groups_servers() {
        let samples = vec![
            sample(0, 0.8, 0.1, vec![10, 0, 20, 0]),
            sample(86400, 0.8, 0.1, vec![0, 0, 40, 40]),
        ];
        let racks = rack_time_series(&samples, 2, Bytes::from_gib(100));
        assert_eq!(racks.len(), 2);
        // Rack 0 = servers 0-1: 10/200 then 0/200.
        assert!((racks[0].points[0].1 - 0.05).abs() < 1e-12);
        assert!((racks[0].points[1].1 - 0.0).abs() < 1e-12);
        // Rack 1 = servers 2-3: 20/200 then 80/200.
        assert!((racks[1].points[1].1 - 0.4).abs() < 1e-12);
    }

    #[test]
    fn rack_series_handles_empty_input() {
        assert!(rack_time_series(&[], 2, Bytes::from_gib(100)).is_empty());
    }

    #[test]
    fn skip_warmup_drops_early_samples() {
        let samples = vec![sample(0, 0.5, 0.0, vec![]), sample(200_000, 0.8, 0.1, vec![])];
        let filtered = skip_warmup(&samples, 86_400);
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered[0].time, 200_000);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn rack_series_rejects_zero_rack_size() {
        let _ = rack_time_series(&[sample(0, 0.5, 0.0, vec![1])], 0, Bytes::from_gib(1));
    }
}
