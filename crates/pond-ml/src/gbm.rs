//! Gradient-boosted regression trees with quantile (pinball) loss — the
//! untouched-memory model family (§4.4, §5).
//!
//! The paper predicts the *minimum* untouched memory over a VM's lifetime
//! with a LightGBM quantile regression at a configurable target percentile;
//! predicting a low quantile makes the model conservative, which is what
//! keeps overpredictions (VMs that touch more than predicted) rare. This
//! module implements the same idea: boosted CART trees whose leaf values are
//! per-leaf residual quantiles.

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::tree::{DecisionTree, Presorted, TreeConfig};
use std::cmp::Ordering;

/// Loss function for gradient boosting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loss {
    /// Ordinary least squares (predicts the conditional mean).
    SquaredError,
    /// Pinball loss at quantile `q` (predicts the conditional `q`-quantile).
    Quantile(f64),
}

/// Hyperparameters for the boosted model.
#[derive(Debug, Clone, PartialEq)]
pub struct GbmConfig {
    /// Number of boosting rounds.
    pub rounds: usize,
    /// Shrinkage applied to every tree's contribution.
    pub learning_rate: f64,
    /// The loss to optimize.
    pub loss: Loss,
    /// Per-tree growth parameters (boosted trees are usually shallow).
    pub tree: TreeConfig,
}

impl Default for GbmConfig {
    fn default() -> Self {
        GbmConfig {
            rounds: 100,
            learning_rate: 0.1,
            loss: Loss::SquaredError,
            tree: TreeConfig { max_depth: 4, min_samples_leaf: 5, ..Default::default() },
        }
    }
}

impl GbmConfig {
    /// Configuration matching the paper's untouched-memory model: quantile
    /// regression at the given target percentile (e.g. 0.05 predicts a value
    /// the VM's true untouched memory exceeds 95% of the time).
    pub fn quantile(q: f64) -> Self {
        GbmConfig { loss: Loss::Quantile(q), ..Default::default() }
    }
}

/// A fitted gradient-boosted tree ensemble.
///
/// # Example
///
/// ```
/// use pond_ml::dataset::Dataset;
/// use pond_ml::gbm::{GbmConfig, GradientBoostedTrees};
///
/// let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 100) as f64]).collect();
/// let labels: Vec<f64> = rows.iter().map(|r| r[0] * 2.0 + 5.0).collect();
/// let data = Dataset::new(vec!["x".into()], rows, labels)?;
/// let model = GradientBoostedTrees::fit(&data, &GbmConfig::default(), 0);
/// let pred = model.predict(&[50.0]);
/// assert!((pred - 105.0).abs() < 10.0);
/// # Ok::<(), pond_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoostedTrees {
    base_prediction: f64,
    learning_rate: f64,
    trees: Vec<DecisionTree>,
    n_features: usize,
    loss: Loss,
}

/// The order `quantile_of` reads `values` in: `partial_cmp`, so −0.0 and 0.0
/// tie.
fn by_value(a: &f64, b: &f64) -> Ordering {
    a.partial_cmp(b).unwrap_or(Ordering::Equal)
}

/// The `q`-quantile of `values` (0.0 for none): the order statistics at
/// ⌊q·(n − 1)⌋ and ⌈q·(n − 1)⌉, interpolated linearly. It reorders `values`.
///
/// The result equals, by `to_bits`, reading the two positions off a stable
/// sort of `values` in their given order, but takes them by selection,
/// O(n) rather than O(n log n). Values that tie under `partial_cmp` share
/// their bits except ±0.0 (and NaN, which ties with everything), so when
/// `values` hold a −0.0 or a NaN the stable sort itself decides which of the
/// tied values sits at each position.
fn quantile_of(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (low, high) = if values.iter().any(|v| v.is_nan() || (*v == 0.0 && v.is_sign_negative())) {
        values.sort_by(by_value);
        (values[lo], values[hi])
    } else {
        let (_, &mut low, above) = values.select_nth_unstable_by(lo, by_value);
        let high = if hi == lo {
            low
        } else {
            *above.iter().min_by(|a, b| by_value(a, b)).expect("hi < len, so above holds it")
        };
        (low, high)
    };
    if lo == hi {
        low
    } else {
        let frac = pos - lo as f64;
        low * (1.0 - frac) + high * frac
    }
}

impl GradientBoostedTrees {
    /// Fits the boosted ensemble. Deterministic for a given `seed`.
    ///
    /// Each round fits one tree to the loss's pseudo-residuals. Under a
    /// quantile loss each leaf's value then becomes the `q`-quantile of its
    /// rows' raw residuals (label minus prediction), taken by selection.
    /// Every row then moves by the learning rate times its leaf's value.
    /// The tree builder hands back each leaf's rows, in ascending row order,
    /// so a round never walks a row down the tree. The ensemble is the one
    /// that walking every row to its leaf, gathering and fully sorting the
    /// residuals of each leaf and re-predicting every row would fit, equal
    /// by `to_bits`. The test-only `gbm::reference` does exactly that.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero, the learning rate is not in `(0, 1]`, a
    /// quantile loss is configured with `q` outside `(0, 1)`, or the dataset
    /// has more than 2³¹ rows.
    pub fn fit(data: &Dataset, config: &GbmConfig, seed: u64) -> Self {
        assert!(config.rounds > 0, "boosting needs at least one round");
        assert!(
            config.learning_rate > 0.0 && config.learning_rate <= 1.0,
            "learning rate must be in (0, 1]"
        );
        if let Loss::Quantile(q) = config.loss {
            assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
        }

        let base_prediction = match config.loss {
            Loss::SquaredError => data.label_mean(),
            Loss::Quantile(q) => {
                let mut labels = data.labels().to_vec();
                quantile_of(&mut labels, q)
            }
        };

        let presorted = Presorted::new(data);
        let mut predictions = vec![base_prediction; data.len()];
        let mut residuals = Vec::with_capacity(data.len());
        let mut trees = Vec::with_capacity(config.rounds);

        for round in 0..config.rounds {
            // Pseudo-residuals: negative gradient of the loss at the current
            // predictions.
            residuals.clear();
            let labels = data.labels().iter().zip(&predictions);
            match config.loss {
                Loss::SquaredError => residuals.extend(labels.map(|(y, f)| y - f)),
                Loss::Quantile(q) => {
                    residuals.extend(labels.map(|(y, f)| if y > f { q } else { q - 1.0 }))
                }
            }

            let (mut tree, leaves) = DecisionTree::fit_presorted(
                &presorted,
                &residuals,
                &config.tree,
                tree_seed(seed, round),
            );
            // Under a quantile loss, replace leaf means of the gradient with
            // the per-leaf q-quantile of the raw residuals (y - F), the
            // standard post-fit adjustment for quantile boosting. The
            // pseudo-residuals are spent once the tree is fit, so their
            // buffer holds each leaf's raw residuals in turn. Leaves hold
            // disjoint rows, so a leaf's step never changes the predictions
            // another leaf's residuals read.
            tree.adjust_leaves(|leaf, mean| {
                let rows = leaves.of(leaf);
                let value = match config.loss {
                    Loss::Quantile(q) if !rows.is_empty() => {
                        residuals.clear();
                        residuals.extend(
                            rows.iter().map(|&i| data.label(i as usize) - predictions[i as usize]),
                        );
                        quantile_of(&mut residuals, q)
                    }
                    _ => mean,
                };
                for &i in rows {
                    predictions[i as usize] += config.learning_rate * value;
                }
                value
            });
            trees.push(tree);
        }

        GradientBoostedTrees {
            base_prediction,
            learning_rate: config.learning_rate,
            trees,
            n_features: data.n_features(),
            loss: config.loss,
        }
    }

    /// Predicts the target for one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if the feature count differs from training.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.n_features, "feature count mismatch");
        self.base_prediction
            + self.learning_rate * self.trees.iter().map(|t| t.predict(features)).sum::<f64>()
    }

    /// Non-panicking [`GradientBoostedTrees::predict`] for online serving
    /// paths (one prediction per VM arrival), where a feature-schema
    /// mismatch should surface as an error instead of unwinding through the
    /// control plane.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureCountMismatch`] when the feature count
    /// differs from training.
    pub fn try_predict(&self, features: &[f64]) -> Result<f64, MlError> {
        if features.len() != self.n_features {
            return Err(MlError::FeatureCountMismatch {
                got: features.len(),
                expected: self.n_features,
            });
        }
        Ok(self.predict(features))
    }

    /// Number of boosting rounds in the fitted model.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The loss that was optimized.
    pub fn loss(&self) -> Loss {
        self.loss
    }

    /// Number of features the model was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

/// The seed of round `round`'s tree.
fn tree_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(round as u64)
}

/// The boosting round [`GradientBoostedTrees::fit`] replaced, kept as the
/// oracle the fit must match bit for bit: each round walks every row down
/// the tree to its leaf (`DecisionTree::leaf_id`), pushes its residual into
/// a `HashMap` of per-leaf `Vec`s, stably sorts each leaf's residuals in full
/// and re-predicts every row through the tree. Its trees come from the CART
/// oracle, the per-node sort, so it checks the split search's run flags too.
#[cfg(test)]
pub(crate) mod reference {
    use super::{tree_seed, GbmConfig, GradientBoostedTrees, Loss};
    use crate::dataset::Dataset;
    use crate::tree;
    use std::collections::HashMap;

    /// The `q`-quantile read off a full stable sort of `values`.
    pub(crate) fn sorted_quantile(values: &mut [f64], q: f64) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            values[lo]
        } else {
            let frac = pos - lo as f64;
            values[lo] * (1.0 - frac) + values[hi] * frac
        }
    }

    pub(crate) fn fit(data: &Dataset, config: &GbmConfig, seed: u64) -> GradientBoostedTrees {
        let base_prediction = match config.loss {
            Loss::SquaredError => data.label_mean(),
            Loss::Quantile(q) => sorted_quantile(&mut data.labels().to_vec(), q),
        };
        let mut predictions = vec![base_prediction; data.len()];
        let mut trees = Vec::with_capacity(config.rounds);
        for round in 0..config.rounds {
            let residuals: Vec<f64> = match config.loss {
                Loss::SquaredError => {
                    (0..data.len()).map(|i| data.label(i) - predictions[i]).collect()
                }
                Loss::Quantile(q) => (0..data.len())
                    .map(|i| if data.label(i) > predictions[i] { q } else { q - 1.0 })
                    .collect(),
            };
            let mut tree = tree::reference::fit_with_targets(
                data,
                &residuals,
                &config.tree,
                tree_seed(seed, round),
            );
            if let Loss::Quantile(q) = config.loss {
                let mut leaf_residuals: HashMap<usize, Vec<f64>> = HashMap::new();
                for (i, &prediction) in predictions.iter().enumerate() {
                    let leaf = tree.leaf_id(data.row(i));
                    leaf_residuals.entry(leaf).or_default().push(data.label(i) - prediction);
                }
                tree.adjust_leaves(|leaf, value| match leaf_residuals.get_mut(&leaf) {
                    Some(rs) => sorted_quantile(rs, q),
                    None => value,
                });
            }
            for (i, pred) in predictions.iter_mut().enumerate() {
                *pred += config.learning_rate * tree.predict(data.row(i));
            }
            trees.push(tree);
        }
        GradientBoostedTrees {
            base_prediction,
            learning_rate: config.learning_rate,
            trees,
            n_features: data.n_features(),
            loss: config.loss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_pcg::Pcg64;

    /// Whether both ensembles hold the same trees, thresholds, leaf values
    /// and base prediction, by `to_bits`.
    fn same_bits(a: &GradientBoostedTrees, b: &GradientBoostedTrees) -> bool {
        a.base_prediction.to_bits() == b.base_prediction.to_bits()
            && a.learning_rate.to_bits() == b.learning_rate.to_bits()
            && a.n_features == b.n_features
            && a.loss == b.loss
            && a.trees.len() == b.trees.len()
            && a.trees.iter().zip(&b.trees).all(|(x, y)| x.same_bits(y))
    }

    #[test]
    fn quantile_of_matches_the_stable_sort() {
        let cases: [(&[f64], f64); 8] = [
            // lo == hi: q · (n − 1) is whole.
            (&[3.0, 1.0, 2.0, 5.0, 4.0], 0.5),
            (&[3.0, 1.0, 2.0, 5.0, 4.0], 0.25),
            // hi == lo + 1, with the two order statistics distinct.
            (&[9.0, 1.0, 4.0, 7.0], 0.5),
            (&[9.0, 1.0, 4.0, 7.0, 2.0, 8.0], 0.05),
            // One value.
            (&[-2.5], 0.3),
            // ±0.0 ties: the stable sort keeps their order, so the sign read
            // at a position depends on it.
            (&[0.0, -0.0, 1.0], 0.25),
            (&[-0.0, 0.0, -1.0, 0.0], 0.5),
            (&[-0.0, 0.0, 0.0, -0.0, -1.0], 0.6),
        ];
        for (values, q) in cases {
            let fast = quantile_of(&mut values.to_vec(), q);
            let sorted = reference::sorted_quantile(&mut values.to_vec(), q);
            assert_eq!(fast.to_bits(), sorted.to_bits(), "{values:?} at q = {q}");
        }
        assert_eq!(quantile_of(&mut [], 0.5), 0.0);
        // The stable sort of [0.0, −0.0, …] keeps +0.0 first.
        assert_eq!(quantile_of(&mut [0.0, -0.0, 1.0], 0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(quantile_of(&mut [-0.0, 0.0, 1.0], 0.0).to_bits(), (-0.0f64).to_bits());
    }

    proptest! {
        /// The fit grows exactly the ensemble of the boosting oracle: the
        /// per-row leaf walk, a `HashMap` of leaf residuals, full stable
        /// sorts and per-row re-prediction over the per-node-sort trees.
        #[test]
        fn fit_matches_the_boosting_oracle(
            (n_rows, n_features, label_kind) in (1usize..80, 0usize..5, 0u8..5),
            (quantile_loss, q, learning_rate) in (0u8..2, 0.01f64..0.99, 0.05f64..1.0),
            (min_leaf, max_depth, rounds) in (0usize..3, 0usize..5, 1usize..11),
            max_features in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let data = crate::tree::tests::oracle_dataset(n_rows, n_features, label_kind, seed);
            let config = GbmConfig {
                rounds,
                learning_rate,
                loss: if quantile_loss == 1 { Loss::Quantile(q) } else { Loss::SquaredError },
                tree: TreeConfig {
                    max_depth,
                    min_samples_split: 2,
                    min_samples_leaf: [0, 1, 5][min_leaf],
                    max_features: (max_features > 0).then_some(max_features),
                },
            };
            let model = GradientBoostedTrees::fit(&data, &config, seed);
            let oracle = reference::fit(&data, &config, seed);
            prop_assert!(same_bits(&model, &oracle), "{model:?}\ndiffers from {oracle:?}");
        }
    }

    fn linear_data(n: usize, noise: f64, seed: u64) -> Dataset {
        let mut rng = Pcg64::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.gen::<f64>() * 10.0]).collect();
        let labels: Vec<f64> =
            rows.iter().map(|r| 3.0 * r[0] + 2.0 + (rng.gen::<f64>() - 0.5) * noise).collect();
        Dataset::new(vec!["x".into()], rows, labels).unwrap()
    }

    #[test]
    fn try_predict_reports_schema_mismatch_without_panicking() {
        let data = linear_data(100, 0.0, 9);
        let model = GradientBoostedTrees::fit(&data, &GbmConfig::default(), 0);
        assert!(matches!(
            model.try_predict(&[1.0, 2.0]),
            Err(crate::MlError::FeatureCountMismatch { got: 2, expected: 1 })
        ));
        assert_eq!(model.try_predict(&[4.0]).unwrap(), model.predict(&[4.0]));
    }

    #[test]
    fn squared_error_fits_a_linear_function() {
        let data = linear_data(400, 0.0, 1);
        let model = GradientBoostedTrees::fit(&data, &GbmConfig::default(), 0);
        for x in [1.0, 5.0, 9.0] {
            let pred = model.predict(&[x]);
            let truth = 3.0 * x + 2.0;
            assert!((pred - truth).abs() < 2.0, "x={x}: pred {pred} vs {truth}");
        }
    }

    #[test]
    fn quantile_loss_brackets_the_distribution() {
        // Labels are uniform in [0, 10], independent of the feature. The 10th
        // percentile prediction should land near 1 and the 90th near 9.
        let mut rng = Pcg64::seed_from_u64(2);
        let rows: Vec<Vec<f64>> = (0..2000).map(|_| vec![rng.gen::<f64>()]).collect();
        let labels: Vec<f64> = (0..2000).map(|_| rng.gen::<f64>() * 10.0).collect();
        let data = Dataset::new(vec!["x".into()], rows, labels).unwrap();

        let low = GradientBoostedTrees::fit(&data, &GbmConfig::quantile(0.1), 0);
        let high = GradientBoostedTrees::fit(&data, &GbmConfig::quantile(0.9), 0);
        let p_low = low.predict(&[0.5]);
        let p_high = high.predict(&[0.5]);
        assert!(p_low < p_high, "quantiles must be ordered: {p_low} vs {p_high}");
        assert!((0.0..=3.5).contains(&p_low), "10th percentile ~1, got {p_low}");
        assert!((6.5..=10.0).contains(&p_high), "90th percentile ~9, got {p_high}");
    }

    #[test]
    fn quantile_coverage_matches_target() {
        // For a conditional model, roughly (1-q) of samples should fall below
        // the q-quantile prediction... i.e. q of samples are >= prediction
        // when predicting a low quantile.
        let data = linear_data(800, 4.0, 3);
        let q = 0.2;
        let model = GradientBoostedTrees::fit(&data, &GbmConfig::quantile(q), 0);
        let below = (0..data.len()).filter(|&i| data.label(i) < model.predict(data.row(i))).count()
            as f64
            / data.len() as f64;
        assert!((below - q).abs() < 0.1, "fraction below the {q}-quantile prediction was {below}");
    }

    #[test]
    fn more_rounds_reduce_training_error() {
        let data = linear_data(300, 1.0, 4);
        let small =
            GradientBoostedTrees::fit(&data, &GbmConfig { rounds: 5, ..Default::default() }, 0);
        let large =
            GradientBoostedTrees::fit(&data, &GbmConfig { rounds: 200, ..Default::default() }, 0);
        let mse = |m: &GradientBoostedTrees| {
            (0..data.len()).map(|i| (m.predict(data.row(i)) - data.label(i)).powi(2)).sum::<f64>()
                / data.len() as f64
        };
        assert!(mse(&large) < mse(&small));
        assert_eq!(large.n_trees(), 200);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let data = linear_data(100, 1.0, 5);
        let a = GradientBoostedTrees::fit(&data, &GbmConfig::default(), 9);
        let b = GradientBoostedTrees::fit(&data, &GbmConfig::default(), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn loss_and_shape_are_exposed() {
        let data = linear_data(50, 1.0, 7);
        let model = GradientBoostedTrees::fit(&data, &GbmConfig::quantile(0.3), 0);
        assert_eq!(model.loss(), Loss::Quantile(0.3));
        assert_eq!(model.n_features(), 1);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1)")]
    fn invalid_quantile_rejected() {
        let data = linear_data(20, 1.0, 8);
        let _ = GradientBoostedTrees::fit(&data, &GbmConfig::quantile(1.5), 0);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn invalid_learning_rate_rejected() {
        let data = linear_data(20, 1.0, 8);
        let _ = GradientBoostedTrees::fit(
            &data,
            &GbmConfig { learning_rate: 0.0, ..Default::default() },
            0,
        );
    }
}
