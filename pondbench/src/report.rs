//! The metric list a run prints and the one-line JSON result.

use crate::stats::Samples;
use std::fmt::Write as _;

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

/// The unit a per-call timing is reported in.
#[derive(Debug, Clone, Copy)]
pub enum TimeUnit {
    /// Nanoseconds.
    Ns,
    /// Microseconds.
    Us,
}

impl TimeUnit {
    fn name(self) -> &'static str {
        match self {
            TimeUnit::Ns => "ns",
            TimeUnit::Us => "us",
        }
    }

    fn scale(self, ns: f64) -> f64 {
        match self {
            TimeUnit::Ns => ns,
            TimeUnit::Us => ns / 1_000.0,
        }
    }
}

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// Adds a per-call timing: its sample count under `count`, then
    /// `<prefix><unit>_p50` and, when `tail` names a percentile (0.999 or
    /// 0.99), `<prefix><unit>_p999` (or `_p99`) holding the highest
    /// percentile up to `tail` that has at least ten samples beyond it.
    /// Prints which percentile that was to stderr.
    pub fn timing(
        &mut self,
        count: &str,
        prefix: &str,
        samples: &mut Samples,
        unit: TimeUnit,
        tail: Option<f64>,
    ) {
        let u = unit.name();
        let p50 = unit.scale(samples.p50());
        self.put(count, samples.len() as f64, "count");
        self.put(format!("{prefix}{u}_p50"), p50, u);
        let mut line = format!("  {count:<22} {:<9} p50 {p50:.3} {u}", samples.len());
        if let Some(cap) = tail {
            let label = if cap >= 0.999 { "p999" } else { "p99" };
            let (p, ns) = samples.tail(cap);
            self.put(format!("{prefix}{u}_{label}"), unit.scale(ns), u);
            let _ = write!(line, ", {label} (p{}) {:.3} {u}", 100.0 * p, unit.scale(ns));
        }
        eprintln!("{line}");
    }

    /// The metrics reordered to `names`, or the names missing and extra.
    pub fn ordered(mut self, names: &[&str]) -> Result<Metrics, String> {
        let mut ordered = Metrics::default();
        let mut missing = Vec::new();
        for &name in names {
            match self.entries.iter().position(|(n, _, _)| n == name) {
                Some(at) => ordered.entries.push(self.entries.swap_remove(at)),
                None => missing.push(name.to_string()),
            }
        }
        let extra: Vec<String> = self.entries.into_iter().map(|(n, _, _)| n).collect();
        if missing.is_empty() && extra.is_empty() {
            Ok(ordered)
        } else {
            Err(format!("metric names differ from the list: missing {missing:?}, extra {extra:?}"))
        }
    }

    /// Prints every metric to stderr, one per line.
    pub fn print(&self) {
        for (name, value, unit) in &self.entries {
            eprintln!("  {name:<34} {value:>16.4} {unit}");
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and the metrics
    /// object with each value in full precision.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_every_digit_and_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.put("latency_ms", 1.203_456_789, "ms");
        metrics.put("count", 3.0, "count");
        assert_eq!(
            metrics.json(true, 5, 0),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
