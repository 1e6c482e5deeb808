//! Per-call timing samples and the statistics the report takes from them.

use std::time::Instant;

/// The percentiles a tail figure may use, highest first.
const TAIL_PERCENTILES: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: f64 = 10.0;

/// Nanosecond durations of single calls.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// Records one call that started at `start` and ended now.
    pub fn since(&mut self, start: Instant) {
        self.push(start.elapsed().as_nanos() as u64);
    }

    /// Records one duration in nanoseconds.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// The nearest-rank percentile `p` in nanoseconds (0 when empty).
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.sort();
        if self.ns.is_empty() {
            return 0.0;
        }
        let rank = (p * self.ns.len() as f64).ceil().max(1.0) as usize;
        self.ns[rank.min(self.ns.len()) - 1] as f64
    }

    /// The median in nanoseconds.
    pub fn p50(&mut self) -> f64 {
        self.percentile(0.5)
    }

    /// The highest of p99.9, p99, p90 and p50, no higher than `cap`, that
    /// still has at least ten samples beyond it: `(percentile, value in ns)`.
    pub fn tail(&mut self, cap: f64) -> (f64, f64) {
        let n = self.len() as f64;
        let p = TAIL_PERCENTILES
            .into_iter()
            .find(|&p| p <= cap && (1.0 - p) * n >= MIN_BEYOND)
            .unwrap_or(0.5);
        (p, self.percentile(p))
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Reads a `Vm*:` line (in KiB) from `/proc/self/status`, in MiB.
pub fn proc_status_mib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Nanoseconds this thread has spent running on a CPU, from the scheduler's
/// per-thread accounting (`/proc/thread-self/schedstat`). With paravirtual
/// steal accounting, time the hypervisor gives the vCPU to another guest is
/// not counted.
fn thread_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// Times one stretch of this thread's work in wall and on-CPU seconds.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: Option<u64>,
}

/// What a [`Stopwatch`] measured.
#[derive(Debug, Clone, Copy)]
pub struct Elapsed {
    /// Wall-clock seconds.
    pub wall: f64,
    /// Seconds on a CPU, when the scheduler reports them.
    pub cpu: Option<f64>,
}

impl Elapsed {
    /// The on-CPU seconds, or the wall seconds where those are unavailable.
    pub fn secs(&self) -> f64 {
        self.cpu.unwrap_or(self.wall)
    }
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Stopwatch {
        Stopwatch { cpu_ns: thread_cpu_ns(), wall: Instant::now() }
    }

    /// The time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Elapsed {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = thread_cpu_ns().zip(self.cpu_ns).map(|(now, then)| (now - then) as f64 / 1e9);
        Elapsed { wall, cpu }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let mut samples = Samples::default();
        for ns in 1..=1_000 {
            samples.push(ns);
        }
        assert_eq!(samples.p50(), 500.0);
        // 1,000 samples: p99 has 10 beyond it, p99.9 only 1.
        assert_eq!(samples.tail(0.999), (0.99, 990.0));
        for ns in 1_001..=10_000 {
            samples.push(ns);
        }
        assert_eq!(samples.tail(0.999), (0.999, 9_990.0));
        assert_eq!(samples.tail(0.99), (0.99, 9_900.0));
    }

    #[test]
    fn few_samples_fall_back_to_the_median() {
        let mut samples = Samples::default();
        samples.push(7);
        assert_eq!(samples.tail(0.999), (0.5, 7.0));
        assert_eq!(Samples::default().tail(0.999), (0.5, 0.0));
    }

    #[test]
    fn a_busy_thread_is_on_a_cpu_for_about_its_wall_time() {
        let watch = Stopwatch::start();
        let mut x = 0u64;
        while watch.elapsed().wall < 0.05 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let elapsed = watch.elapsed();
        let cpu = elapsed.cpu.expect("the scheduler reports per-thread CPU time");
        assert!(cpu > 0.0 && cpu <= elapsed.wall * 1.01, "{elapsed:?}");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
