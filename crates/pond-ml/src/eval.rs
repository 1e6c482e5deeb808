//! Model-evaluation utilities: confusion matrices and the false-positive
//! trade-off curve from Figure 17.
//!
//! Conventions follow the paper: a *false positive* of the latency
//! insensitivity model is a workload marked insensitive whose slowdown
//! actually exceeds the PDM, reported as a percentage of **all** workloads
//! (so Eq. (1)'s `FP + OP ≤ 100 − TP` adds up). The untouched-memory
//! model's overprediction rate (Figure 18) is measured in `pond-core`,
//! where a VM's pool share is whole slices.

/// Binary confusion counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// Predicted positive, actually positive.
    pub true_positives: usize,
    /// Predicted positive, actually negative.
    pub false_positives: usize,
    /// Predicted negative, actually negative.
    pub true_negatives: usize,
    /// Predicted negative, actually positive.
    pub false_negatives: usize,
}

impl ConfusionMatrix {
    /// Builds the matrix by thresholding scores: a sample is predicted
    /// positive when `score >= threshold`; it is actually positive when its
    /// label is `>= 0.5`.
    ///
    /// # Panics
    ///
    /// Panics if `scores` and `labels` have different lengths.
    pub fn from_scores(scores: &[f64], labels: &[f64], threshold: f64) -> Self {
        assert_eq!(scores.len(), labels.len(), "scores and labels must align");
        let mut m = ConfusionMatrix::default();
        for (&s, &l) in scores.iter().zip(labels) {
            let predicted = s >= threshold;
            let actual = l >= 0.5;
            match (predicted, actual) {
                (true, true) => m.true_positives += 1,
                (true, false) => m.false_positives += 1,
                (false, false) => m.true_negatives += 1,
                (false, true) => m.false_negatives += 1,
            }
        }
        m
    }

    /// Total number of samples.
    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// Fraction of all samples that were predicted positive.
    pub fn positive_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.true_positives + self.false_positives) as f64 / self.total() as f64
    }

    /// False positives as a fraction of **all** samples — the paper's FP
    /// metric in Figure 17 and Eq. (1).
    pub fn false_positive_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.false_positives as f64 / self.total() as f64
    }
}

/// One point on the FP-vs-coverage curve (Figure 17).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Score threshold used for this point.
    pub threshold: f64,
    /// Fraction of workloads labeled positive (latency-insensitive).
    pub positive_fraction: f64,
    /// False positives as a fraction of all workloads.
    pub false_positive_fraction: f64,
}

/// Sweeps the score threshold and reports the trade-off between coverage
/// (how many workloads are marked positive) and false positives, sorted by
/// increasing coverage.
///
/// # Panics
///
/// Panics if `scores` and `labels` have different lengths or `steps == 0`.
pub fn threshold_sweep(scores: &[f64], labels: &[f64], steps: usize) -> Vec<OperatingPoint> {
    assert_eq!(scores.len(), labels.len(), "scores and labels must align");
    assert!(steps > 0, "at least one threshold step is required");
    let mut points: Vec<OperatingPoint> = (0..=steps)
        .map(|i| {
            let threshold = i as f64 / steps as f64;
            let m = ConfusionMatrix::from_scores(scores, labels, threshold);
            OperatingPoint {
                threshold,
                positive_fraction: m.positive_fraction(),
                false_positive_fraction: m.false_positive_fraction(),
            }
        })
        .collect();
    points.sort_by(|a, b| {
        a.positive_fraction.partial_cmp(&b.positive_fraction).unwrap_or(std::cmp::Ordering::Equal)
    });
    points
}

/// Picks the operating point with the largest coverage whose false-positive
/// fraction stays at or below `fp_budget`. Returns `None` when even the most
/// conservative point exceeds the budget.
pub fn best_point_within_fp_budget(
    points: &[OperatingPoint],
    fp_budget: f64,
) -> Option<OperatingPoint> {
    points
        .iter()
        .filter(|p| p.false_positive_fraction <= fp_budget)
        .max_by(|a, b| {
            a.positive_fraction
                .partial_cmp(&b.positive_fraction)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn confusion_matrix_counts() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [1.0, 0.0, 1.0, 0.0];
        let m = ConfusionMatrix::from_scores(&scores, &labels, 0.5);
        assert_eq!(m.true_positives, 1);
        assert_eq!(m.false_positives, 1);
        assert_eq!(m.false_negatives, 1);
        assert_eq!(m.true_negatives, 1);
        assert_eq!(m.total(), 4);
        assert_eq!(m.positive_fraction(), 0.5);
        assert_eq!(m.false_positive_fraction(), 0.25);
    }

    #[test]
    fn empty_matrix_is_all_zero() {
        let m = ConfusionMatrix::from_scores(&[], &[], 0.5);
        assert_eq!(m.total(), 0);
        assert_eq!(m.positive_fraction(), 0.0);
        assert_eq!(m.false_positive_fraction(), 0.0);
    }

    #[test]
    fn threshold_sweep_is_monotone_in_coverage() {
        let scores: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let labels: Vec<f64> = (0..100).map(|i| if i % 3 == 0 { 1.0 } else { 0.0 }).collect();
        let points = threshold_sweep(&scores, &labels, 20);
        assert_eq!(points.len(), 21);
        for pair in points.windows(2) {
            assert!(pair[1].positive_fraction >= pair[0].positive_fraction);
            // False positives can only grow as more items are marked positive.
            assert!(pair[1].false_positive_fraction >= pair[0].false_positive_fraction - 1e-12);
        }
    }

    #[test]
    fn best_point_respects_the_budget() {
        let scores = [0.95, 0.9, 0.6, 0.4, 0.2];
        let labels = [1.0, 1.0, 0.0, 1.0, 0.0];
        let points = threshold_sweep(&scores, &labels, 100);
        let pick = best_point_within_fp_budget(&points, 0.0).unwrap();
        assert!(pick.false_positive_fraction <= 0.0 + 1e-12);
        assert!(pick.positive_fraction >= 0.4 - 1e-12, "both clean positives are reachable");
        let generous = best_point_within_fp_budget(&points, 1.0).unwrap();
        assert!(generous.positive_fraction >= pick.positive_fraction);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_rejected() {
        let _ = ConfusionMatrix::from_scores(&[1.0], &[1.0, 2.0], 0.5);
    }

    proptest! {
        /// The positive and FP fractions are both within [0, 1].
        #[test]
        fn metrics_are_bounded(
            scores in proptest::collection::vec(0.0f64..1.0, 1..50),
            threshold in 0.0f64..1.0,
            seed in 0u64..100
        ) {
            let labels: Vec<f64> = scores.iter().enumerate()
                .map(|(i, _)| if (i as u64 + seed) % 3 == 0 { 1.0 } else { 0.0 })
                .collect();
            let m = ConfusionMatrix::from_scores(&scores, &labels, threshold);
            for v in [m.positive_fraction(), m.false_positive_fraction()] {
                prop_assert!((0.0..=1.0).contains(&v));
            }
            prop_assert_eq!(m.total(), scores.len());
        }
    }
}
