//! The deterministic metrics registry: counters and fixed-bucket histograms
//! keyed by name.
//!
//! Everything here is ordinary owned state — no interior mutability, no
//! wall-clock reads, no background aggregation — so a registry filled by a
//! deterministic replay compares equal across runs, threads, and machines.
//! Names are free-form dotted strings (`events.arrival`,
//! `ladder.group2.pooled_home`); the registry stores them in sorted order.

use std::collections::BTreeMap;

/// A fixed-bucket histogram over `u64` values (seconds, GiB, counts).
///
/// `bounds` are inclusive upper bucket edges in ascending order; one
/// overflow bucket catches everything above the last edge. Buckets are fixed
/// at construction so two histograms fed the same values always agree
/// bucket for bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// An empty histogram with the given inclusive upper bucket edges.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "a histogram needs at least one bucket edge");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bucket edges must be strictly ascending");
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], total: 0, sum: 0 }
    }

    /// Records one value.
    pub fn observe(&mut self, value: u64) {
        let bucket = self.bounds.partition_point(|&edge| edge < value);
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket counts: one per edge, plus the trailing overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// The registry: two deterministic name-keyed stores.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the named counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to the named counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Records `value` into the named histogram, creating it with `bounds`
    /// on first use. Later calls ignore `bounds` — the first caller fixes
    /// the buckets.
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// The named counter's value (zero when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if ever observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Sum of the values of every counter whose name starts with `prefix` —
    /// e.g. `events.` totals every event class.
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(name, _)| name.starts_with(prefix))
            .map(|(_, &value)| value)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_inclusive_upper_edges() {
        let mut h = Histogram::new(&[10, 100]);
        for value in [0, 10, 11, 100, 101, 5000] {
            h.observe(value);
        }
        assert_eq!(h.counts(), &[2, 2, 2]);
        assert_eq!(h.total(), 6);
        assert_eq!(h.sum(), 10 + 11 + 100 + 101 + 5000);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_are_rejected() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn registry_is_deterministic_regardless_of_insertion_order() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.inc("z.late");
        a.inc("a.early");
        a.observe("h", &[1, 2], 3);
        a.observe("g", &[5], 9);
        b.observe("g", &[5], 9);
        b.observe("h", &[1, 2], 3);
        b.inc("a.early");
        b.inc("z.late");
        assert_eq!(a, b);
        assert_eq!(a.counter("a.early"), 1);
    }

    #[test]
    fn prefix_sum_totals_a_namespace() {
        let mut r = MetricsRegistry::new();
        r.add("events.arrival", 5);
        r.add("events.departure", 3);
        r.add("eventsx", 100);
        r.add("ladder.group0.pooled_home", 9);
        assert_eq!(r.counter_prefix_sum("events."), 8);
        assert_eq!(r.counter("events.arrival"), 5);
        assert_eq!(r.counter("missing"), 0);
    }
}
