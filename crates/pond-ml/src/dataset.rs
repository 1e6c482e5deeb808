//! Feature matrices, labels, and deterministic splitting utilities.

use crate::error::MlError;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_pcg::Pcg64;

/// A dense dataset: named feature columns, one row per sample, one numeric
/// label per row. Classification tasks encode labels as 0.0 / 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    feature_names: Vec<String>,
    rows: Vec<Vec<f64>>,
    labels: Vec<f64>,
}

impl Dataset {
    /// Creates a dataset and validates its shape.
    ///
    /// # Errors
    ///
    /// * [`MlError::EmptyDataset`] if there are no rows.
    /// * [`MlError::LabelMismatch`] if `labels.len() != rows.len()`.
    /// * [`MlError::InconsistentRow`] if any row's length differs from the
    ///   number of feature names.
    /// * [`MlError::NonFinite`] for the first NaN or infinite feature value
    ///   or label, in row order: the tree learners order every feature
    ///   column, which needs finite values.
    pub fn new(
        feature_names: Vec<String>,
        rows: Vec<Vec<f64>>,
        labels: Vec<f64>,
    ) -> Result<Self, MlError> {
        if rows.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if labels.len() != rows.len() {
            return Err(MlError::LabelMismatch { rows: rows.len(), labels: labels.len() });
        }
        for (i, row) in rows.iter().enumerate() {
            if row.len() != feature_names.len() {
                return Err(MlError::InconsistentRow {
                    row: i,
                    got: row.len(),
                    expected: feature_names.len(),
                });
            }
        }
        for (i, (row, label)) in rows.iter().zip(&labels).enumerate() {
            if let Some(feature) = row.iter().position(|v| !v.is_finite()) {
                let feature = Some(feature_names[feature].clone());
                return Err(MlError::NonFinite { row: i, feature });
            }
            if !label.is_finite() {
                return Err(MlError::NonFinite { row: i, feature: None });
            }
        }
        Ok(Dataset { feature_names, rows, labels })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the dataset has no rows. (Construction forbids this, but
    /// subset views can be empty.)
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Feature column names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The feature row for a sample.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// The label for a sample.
    pub fn label(&self, i: usize) -> f64 {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// Mean of the labels (useful as a base prediction).
    pub fn label_mean(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            self.labels.iter().sum::<f64>() / self.labels.len() as f64
        }
    }

    /// Builds a new dataset from a subset of row indices (rows are copied).
    /// Out-of-range indices are ignored.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut rows = Vec::with_capacity(indices.len());
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            if i < self.rows.len() {
                rows.push(self.rows[i].clone());
                labels.push(self.labels[i]);
            }
        }
        Dataset { feature_names: self.feature_names.clone(), rows, labels }
    }

    /// Splits the dataset into `(train, test)` with the given train fraction,
    /// shuffling deterministically with `seed`.
    ///
    /// The 100-fold validation in the paper's Figure 17 uses repeated random
    /// equal splits; calling this with `train_fraction = 0.5` and varying
    /// seeds reproduces that procedure.
    ///
    /// # Panics
    ///
    /// Panics unless `train_fraction` is within `(0, 1)`.
    pub fn train_test_split(&self, train_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(train_fraction > 0.0 && train_fraction < 1.0, "train fraction must be in (0, 1)");
        let mut indices: Vec<usize> = (0..self.len()).collect();
        let mut rng = Pcg64::seed_from_u64(seed);
        indices.shuffle(&mut rng);
        let cut = ((self.len() as f64) * train_fraction).round() as usize;
        let cut = cut.clamp(1, self.len().saturating_sub(1).max(1));
        (self.subset(&indices[..cut]), self.subset(&indices[cut..]))
    }

    /// Draws a bootstrap sample (sampling rows with replacement) of the same
    /// size as the dataset. Used by the random forest.
    pub fn bootstrap(&self, seed: u64) -> Dataset {
        let mut rng = Pcg64::seed_from_u64(seed);
        let indices: Vec<usize> =
            (0..self.len()).map(|_| rand::Rng::gen_range(&mut rng, 0..self.len())).collect();
        self.subset(&indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toy(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, (i * 2) as f64]).collect();
        let labels: Vec<f64> = (0..n).map(|i| i as f64).collect();
        Dataset::new(vec!["a".into(), "b".into()], rows, labels).unwrap()
    }

    #[test]
    fn construction_validates_shapes() {
        assert_eq!(Dataset::new(vec!["a".into()], vec![], vec![]), Err(MlError::EmptyDataset));
        assert_eq!(
            Dataset::new(vec!["a".into()], vec![vec![1.0]], vec![]),
            Err(MlError::LabelMismatch { rows: 1, labels: 0 })
        );
        assert_eq!(
            Dataset::new(vec!["a".into()], vec![vec![1.0, 2.0]], vec![0.0]),
            Err(MlError::InconsistentRow { row: 0, got: 2, expected: 1 })
        );
    }

    #[test]
    fn construction_rejects_non_finite_values() {
        let names = || vec!["a".to_string(), "b".to_string()];
        assert_eq!(
            Dataset::new(names(), vec![vec![1.0, 2.0], vec![3.0, f64::NAN]], vec![0.0, 1.0]),
            Err(MlError::NonFinite { row: 1, feature: Some("b".into()) })
        );
        assert_eq!(
            Dataset::new(names(), vec![vec![1.0, 2.0], vec![3.0, 4.0]], vec![f64::INFINITY, 1.0]),
            Err(MlError::NonFinite { row: 0, feature: None })
        );
        assert_eq!(
            Dataset::new(names(), vec![vec![f64::NEG_INFINITY, 2.0]], vec![f64::NAN]),
            Err(MlError::NonFinite { row: 0, feature: Some("a".into()) })
        );
        // Signed zeros are finite.
        assert!(Dataset::new(names(), vec![vec![-0.0, 0.0]], vec![-0.0]).is_ok());
    }

    #[test]
    fn accessors_work() {
        let d = toy(5);
        assert_eq!(d.len(), 5);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.row(2), &[2.0, 4.0]);
        assert_eq!(d.label(3), 3.0);
        assert_eq!(d.label_mean(), 2.0);
        assert_eq!(d.feature_names(), &["a".to_string(), "b".to_string()]);
        assert!(!d.is_empty());
    }

    #[test]
    fn subset_selects_rows_and_ignores_out_of_range() {
        let d = toy(5);
        let s = d.subset(&[0, 4, 99]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.label(1), 4.0);
    }

    #[test]
    fn train_test_split_partitions_all_rows() {
        let d = toy(100);
        let (train, test) = d.train_test_split(0.7, 42);
        assert_eq!(train.len() + test.len(), 100);
        assert_eq!(train.len(), 70);
        // Deterministic for a fixed seed.
        let (train2, _) = d.train_test_split(0.7, 42);
        assert_eq!(train.labels(), train2.labels());
        // Different seeds shuffle differently.
        let (train3, _) = d.train_test_split(0.7, 43);
        assert_ne!(train.labels(), train3.labels());
    }

    #[test]
    fn bootstrap_has_same_size_and_is_deterministic() {
        let d = toy(50);
        let b1 = d.bootstrap(7);
        let b2 = d.bootstrap(7);
        assert_eq!(b1.len(), 50);
        assert_eq!(b1.labels(), b2.labels());
    }

    #[test]
    #[should_panic(expected = "train fraction")]
    fn split_rejects_bad_fraction() {
        toy(10).train_test_split(1.5, 0);
    }

    proptest! {
        /// Splits partition the dataset for any valid fraction.
        #[test]
        fn split_partition_property(n in 2usize..200, frac in 0.05f64..0.95, seed in 0u64..1000) {
            let d = toy(n);
            let (train, test) = d.train_test_split(frac, seed);
            prop_assert_eq!(train.len() + test.len(), n);
            prop_assert!(!train.is_empty());
        }
    }
}
