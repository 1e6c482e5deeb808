//! Random-forest classifier — Pond's latency-insensitivity model family (§5).
//!
//! The paper trains a Scikit-learn `RandomForest` on ~200 core-PMU counters
//! to classify whether a workload's slowdown on pool memory stays within the
//! performance degradation margin. This module provides the equivalent:
//! bootstrap-aggregated CART trees with per-split feature subsampling,
//! returning a probability that can be thresholded to trade false positives
//! against coverage (Figure 17).

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::tree::{DecisionTree, TreeConfig};

/// Hyperparameters for the random forest.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestConfig {
    /// Number of trees.
    pub trees: usize,
    /// Per-tree growth parameters. When `max_features` is `None`, the forest
    /// uses `sqrt(n_features)` per split, the usual default for classification.
    pub tree: TreeConfig,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig { trees: 100, tree: TreeConfig { max_depth: 10, ..Default::default() } }
    }
}

/// A fitted random-forest binary classifier.
///
/// Labels are interpreted as probabilities of the positive class, so training
/// labels should be 0.0 or 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_features: usize,
}

impl RandomForest {
    /// Fits a forest on the dataset. Deterministic for a given `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config.trees` is zero.
    pub fn fit(data: &Dataset, config: &ForestConfig, seed: u64) -> Self {
        assert!(config.trees > 0, "a forest needs at least one tree");
        let mut tree_config = config.tree.clone();
        if tree_config.max_features.is_none() {
            let k = (data.n_features() as f64).sqrt().ceil() as usize;
            tree_config.max_features = Some(k.max(1));
        }
        let trees = (0..config.trees)
            .map(|i| {
                let tree_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
                let sample = data.bootstrap(tree_seed);
                DecisionTree::fit(&sample, &tree_config, tree_seed ^ 0xABCD)
            })
            .collect();
        RandomForest { trees, n_features: data.n_features() }
    }

    /// Probability of the positive class for one feature vector
    /// (the mean of the trees' leaf values).
    ///
    /// # Panics
    ///
    /// Panics if the feature count differs from training.
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.n_features, "feature count mismatch");
        let sum: f64 = self.trees.iter().map(|t| t.predict(features)).sum();
        (sum / self.trees.len() as f64).clamp(0.0, 1.0)
    }

    /// Hard classification at a probability threshold.
    pub fn predict(&self, features: &[f64], threshold: f64) -> bool {
        self.predict_proba(features) >= threshold
    }

    /// Non-panicking [`RandomForest::predict_proba`] for online serving
    /// paths (one prediction per VM arrival), where a feature-schema
    /// mismatch should surface as an error instead of unwinding through the
    /// control plane.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureCountMismatch`] when the feature count
    /// differs from training.
    pub fn try_predict_proba(&self, features: &[f64]) -> Result<f64, MlError> {
        if features.len() != self.n_features {
            return Err(MlError::FeatureCountMismatch {
                got: features.len(),
                expected: self.n_features,
            });
        }
        Ok(self.predict_proba(features))
    }

    /// Non-panicking [`RandomForest::predict`]: the hard classification at a
    /// probability threshold, with the feature schema validated instead of
    /// asserted. This is what online serving paths (one decision per VM
    /// arrival, mid fleet replay) call, so a malformed feature row becomes
    /// an error the replay can propagate rather than a panic that takes the
    /// whole sweep down.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureCountMismatch`] when the feature count
    /// differs from training.
    pub fn try_predict(&self, features: &[f64], threshold: f64) -> Result<bool, MlError> {
        Ok(self.try_predict_proba(features)? >= threshold)
    }

    /// Probabilities for every row of a dataset.
    pub fn predict_proba_batch(&self, data: &Dataset) -> Result<Vec<f64>, MlError> {
        if data.n_features() != self.n_features {
            return Err(MlError::FeatureCountMismatch {
                got: data.n_features(),
                expected: self.n_features,
            });
        }
        Ok(data.rows().iter().map(|r| self.predict_proba(r)).collect())
    }

    /// Number of trees in the forest.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of features the forest was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_pcg::Pcg64;

    /// Synthetic classification task: positive iff x0 + x1 > 1.0, with two
    /// noise features.
    fn classification_data(n: usize, seed: u64) -> Dataset {
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x0: f64 = rng.gen();
            let x1: f64 = rng.gen();
            let noise0: f64 = rng.gen();
            let noise1: f64 = rng.gen();
            rows.push(vec![x0, x1, noise0, noise1]);
            labels.push(if x0 + x1 > 1.0 { 1.0 } else { 0.0 });
        }
        Dataset::new(vec!["x0".into(), "x1".into(), "n0".into(), "n1".into()], rows, labels)
            .unwrap()
    }

    #[test]
    fn forest_learns_a_linear_boundary() {
        let train = classification_data(600, 1);
        let test = classification_data(200, 2);
        let forest =
            RandomForest::fit(&train, &ForestConfig { trees: 40, ..Default::default() }, 0);
        let correct = test
            .rows()
            .iter()
            .zip(test.labels())
            .filter(|(row, &label)| forest.predict(row, 0.5) == (label > 0.5))
            .count();
        let accuracy = correct as f64 / test.len() as f64;
        assert!(accuracy > 0.85, "accuracy {accuracy}");
    }

    #[test]
    fn probabilities_are_calibrated_at_the_extremes() {
        let train = classification_data(600, 3);
        let forest =
            RandomForest::fit(&train, &ForestConfig { trees: 30, ..Default::default() }, 0);
        assert!(forest.predict_proba(&[0.95, 0.95, 0.5, 0.5]) > 0.8);
        assert!(forest.predict_proba(&[0.05, 0.05, 0.5, 0.5]) < 0.2);
    }

    #[test]
    fn fit_is_deterministic_for_a_seed() {
        let data = classification_data(200, 4);
        let a = RandomForest::fit(&data, &ForestConfig { trees: 10, ..Default::default() }, 42);
        let b = RandomForest::fit(&data, &ForestConfig { trees: 10, ..Default::default() }, 42);
        assert_eq!(a, b);
        let c = RandomForest::fit(&data, &ForestConfig { trees: 10, ..Default::default() }, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn try_predict_proba_reports_schema_mismatch_without_panicking() {
        let data = classification_data(100, 6);
        let forest = RandomForest::fit(&data, &ForestConfig { trees: 5, ..Default::default() }, 0);
        assert!(matches!(
            forest.try_predict_proba(&[0.5, 0.5]),
            Err(crate::MlError::FeatureCountMismatch { got: 2, expected: 4 })
        ));
        let good = forest.try_predict_proba(&[0.5, 0.5, 0.5, 0.5]).unwrap();
        assert_eq!(good, forest.predict_proba(&[0.5, 0.5, 0.5, 0.5]));
    }

    #[test]
    fn try_predict_propagates_schema_mismatch_instead_of_panicking() {
        // Regression: the hard-classification path used to go through the
        // asserting `predict`, so one malformed feature row unwound through
        // whatever replay was mid-flight. The row is one feature short and
        // one feature long; both must come back as errors, and a well-formed
        // row must agree with the panicking API exactly.
        let data = classification_data(100, 9);
        let forest = RandomForest::fit(&data, &ForestConfig { trees: 5, ..Default::default() }, 0);
        assert!(matches!(
            forest.try_predict(&[0.5, 0.5, 0.5], 0.5),
            Err(crate::MlError::FeatureCountMismatch { got: 3, expected: 4 })
        ));
        assert!(matches!(
            forest.try_predict(&[0.5; 5], 0.5),
            Err(crate::MlError::FeatureCountMismatch { got: 5, expected: 4 })
        ));
        let row = [0.9, 0.8, 0.5, 0.5];
        assert_eq!(forest.try_predict(&row, 0.5).unwrap(), forest.predict(&row, 0.5));
    }

    #[test]
    fn batch_prediction_checks_feature_count() {
        let data = classification_data(100, 5);
        let forest = RandomForest::fit(&data, &ForestConfig { trees: 5, ..Default::default() }, 0);
        assert_eq!(forest.predict_proba_batch(&data).unwrap().len(), 100);
        let wrong = Dataset::new(vec!["a".into()], vec![vec![1.0]], vec![0.0]).unwrap();
        assert!(matches!(
            forest.predict_proba_batch(&wrong),
            Err(MlError::FeatureCountMismatch { .. })
        ));
    }

    #[test]
    fn forest_exposes_shape() {
        let data = classification_data(50, 7);
        let forest = RandomForest::fit(&data, &ForestConfig { trees: 7, ..Default::default() }, 0);
        assert_eq!(forest.n_trees(), 7);
        assert_eq!(forest.n_features(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_rejected() {
        let data = classification_data(10, 8);
        let _ = RandomForest::fit(&data, &ForestConfig { trees: 0, ..Default::default() }, 0);
    }
}
