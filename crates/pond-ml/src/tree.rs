//! CART regression trees — the shared building block for the random forest
//! and the gradient-boosted model.
//!
//! Trees are grown greedily with variance-reduction (MSE) splits. Binary
//! classification reuses the same machinery by encoding labels as 0.0/1.0 and
//! reading leaf means as probabilities.
//!
//! # Split search
//!
//! The search is the exact presorted one of SLIQ and XGBoost ("exact
//! greedy"): every feature's row ids are sorted once per dataset, by (value,
//! row id), and each node is one contiguous range of every such order. A
//! split stably partitions that range of each order, so the children's ranges
//! keep the (value, row id) order and a whole tree level costs
//! O(features × rows) instead of a sort per node and feature.
//! [`GradientBoostedTrees::fit`](crate::gbm::GradientBoostedTrees::fit)
//! sorts once for all of its rounds; [`DecisionTree::fit`] and
//! [`DecisionTree::fit_with_targets`] sort per call.
//!
//! A split can fall only between unequal values, so each entry of an order
//! carries a *run-start* flag in the top bit of its 32-bit row id. The
//! invariant: within a node's range, an entry's flag is set exactly when it
//! is the range's first entry or its value differs (under `==`) from the
//! entry before it. The scan reads feature values only at flagged entries,
//! where it computes a threshold, and otherwise touches just the ids and
//! the targets. The stable partition keeps the invariant: a child's entry
//! starts a run when a parent flag lies after the previous entry sent to the
//! same side, up to and including its own, because the parent's values
//! between the two ascend. That is, it is the first entry of its parent run
//! to go to its side, which is how the partition marks it. Row ids
//! therefore have 31 bits, and the presort panics past 2³¹ rows.
//!
//! A leaf is one range of the builder's ascending `rows` array, final once
//! the leaf is made. The crate-internal `fit_presorted` hands those ranges
//! back as `LeafRows`, so gradient boosting reads each leaf's rows without
//! walking them down the tree again.
//!
//! The trees are bit-identical to those of a per-node stable sort, which the
//! tests keep as the oracle: values tie under `partial_cmp` (so −0.0 and 0.0
//! tie) and ties keep ascending row id; the scan accumulates the left child's
//! sums in (value, row id) order; leaf and parent sums run in ascending row
//! order; and nodes are built depth first, left first, so `max_features`
//! draws from the RNG in the same order. The presort needs a total order on
//! every feature column, so feature values must be finite; [`Dataset::new`]
//! rejects NaN and infinite features and labels.

use crate::dataset::Dataset;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_pcg::Pcg64;
use std::ops::Range;

/// Hyperparameters controlling tree growth.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root is depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples that must land in each child.
    pub min_samples_leaf: usize,
    /// If set, only this many randomly-chosen features are considered per
    /// split (random-forest style feature subsampling).
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: 8, min_samples_split: 2, min_samples_leaf: 1, max_features: None }
    }
}

/// A node in the fitted tree.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        /// Identifier of the leaf (used by gradient boosting to adjust values).
        id: usize,
        /// Predicted value.
        value: f64,
        /// Number of training samples that reached the leaf.
        samples: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted CART regression tree.
///
/// # Example
///
/// ```
/// use pond_ml::dataset::Dataset;
/// use pond_ml::tree::{DecisionTree, TreeConfig};
///
/// let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
/// let labels: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 10.0 }).collect();
/// let data = Dataset::new(vec!["x".into()], rows, labels)?;
/// let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
/// assert!(tree.predict(&[10.0]) < 1.0);
/// assert!(tree.predict(&[90.0]) > 9.0);
/// # Ok::<(), pond_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    root: Node,
    n_features: usize,
    n_leaves: usize,
}

/// A row index inside the split search: 32 bits, so the partitions move half
/// the bytes a `usize` would. In a presorted order the top bit is the
/// [`RUN_START`] flag, so row ids have 31 bits.
pub(crate) type RowId = u32;

/// The run-start flag of a presorted order's entry: set when the entry is
/// its node range's first or its value differs from the previous entry's.
const RUN_START: RowId = 1 << 31;

/// A dataset's feature columns, each with its row ids sorted once by
/// (value, row id): the input of the presorted split search. Sorting is
/// stable over ascending row ids with `partial_cmp`, so −0.0 and 0.0 tie and
/// keep row order, as the per-node sort did; that needs finite values, which
/// [`Dataset::new`] guarantees.
#[derive(Debug)]
pub(crate) struct Presorted {
    /// Stored rather than read off a column: a dataset may have no features.
    n_rows: usize,
    /// `columns[feature][row]`.
    columns: Vec<Vec<f64>>,
    /// `orders[feature]`: every row id, sorted by (value, row id), each
    /// flagged with [`RUN_START`] where a run of equal values starts.
    orders: Vec<Vec<RowId>>,
}

impl Presorted {
    /// # Panics
    ///
    /// Panics if the dataset has more than 2³¹ rows: an order's entries keep
    /// their [`RUN_START`] flag in the row id's top bit.
    pub(crate) fn new(data: &Dataset) -> Self {
        let n_rows = data.len();
        assert!(n_rows <= RUN_START as usize, "the split search indexes rows with 31 bits");
        let columns: Vec<Vec<f64>> = (0..data.n_features())
            .map(|feature| data.rows().iter().map(|row| row[feature]).collect())
            .collect();
        let orders = columns
            .iter()
            .map(|column| {
                let mut order: Vec<RowId> = (0..n_rows as RowId).collect();
                order.sort_by(|&a, &b| {
                    column[a as usize]
                        .partial_cmp(&column[b as usize])
                        .expect("dataset values are finite")
                });
                let mut previous = None;
                for entry in &mut order {
                    let value = column[*entry as usize];
                    if previous != Some(value) {
                        *entry |= RUN_START;
                    }
                    previous = Some(value);
                }
                order
            })
            .collect();
        Presorted { n_rows, columns, orders }
    }
}

/// The training rows each leaf of a fitted tree holds, in the order the
/// builder left them.
#[derive(Debug)]
pub(crate) struct LeafRows {
    /// Every row id, grouped by leaf and ascending within a leaf.
    rows: Vec<RowId>,
    /// `ranges[leaf_id]`: that leaf's part of `rows`.
    ranges: Vec<Range<usize>>,
}

impl LeafRows {
    /// The rows that reach leaf `id`, ascending.
    pub(crate) fn of(&self, id: usize) -> &[RowId] {
        &self.rows[self.ranges[id].clone()]
    }
}

/// Grows one tree. A node is one range `lo..hi`, the same in `rows` and in
/// every `orders[feature]`: splitting it stably partitions that range of
/// each, so a child's range stays sorted like its parent's.
struct Builder<'a> {
    data: &'a Presorted,
    targets: &'a [f64],
    config: &'a TreeConfig,
    rng: Pcg64,
    /// Row ids in ascending order: leaf and parent sums run in this order.
    rows: Vec<RowId>,
    /// Per feature, row ids in (value, row id) order with their
    /// [`RUN_START`] flags: the split scan's order.
    orders: Vec<Vec<RowId>>,
    /// Per row, whether it goes left at the split being applied.
    goes_left: Vec<bool>,
    /// The right child's ids during a partition.
    scratch: Vec<RowId>,
    /// Each leaf's range of `rows`, indexed by leaf id.
    leaves: Vec<Range<usize>>,
}

impl<'a> Builder<'a> {
    fn new(data: &'a Presorted, targets: &'a [f64], config: &'a TreeConfig, seed: u64) -> Self {
        Builder {
            data,
            targets,
            config,
            rng: Pcg64::seed_from_u64(seed),
            rows: (0..data.n_rows as RowId).collect(),
            orders: data.orders.clone(),
            goes_left: vec![false; data.n_rows],
            scratch: vec![0; data.n_rows],
            leaves: Vec::new(),
        }
    }

    /// A leaf over `rows[lo..hi]`, which no later split touches.
    fn leaf(&mut self, lo: usize, hi: usize) -> Node {
        let rows = &self.rows[lo..hi];
        let value = if rows.is_empty() {
            0.0
        } else {
            rows.iter().map(|&i| self.targets[i as usize]).sum::<f64>() / rows.len() as f64
        };
        let id = self.leaves.len();
        self.leaves.push(lo..hi);
        Node::Leaf { id, value, samples: rows.len() }
    }

    /// Builds the subtree of node `lo..hi`, depth first and left first, so
    /// `max_features` draws from the RNG in node order.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> Node {
        let len = hi - lo;
        if depth >= self.config.max_depth
            || len < self.config.min_samples_split
            || len < 2 * self.config.min_samples_leaf
        {
            return self.leaf(lo, hi);
        }
        let Some((feature, threshold)) = self.best_split(lo, hi) else {
            return self.leaf(lo, hi);
        };
        let column = &self.data.columns[feature];
        let mut n_left = 0;
        for &row in &self.rows[lo..hi] {
            let left = column[row as usize] <= threshold;
            self.goes_left[row as usize] = left;
            n_left += usize::from(left);
        }
        if n_left < self.config.min_samples_leaf || len - n_left < self.config.min_samples_leaf {
            return self.leaf(lo, hi);
        }
        stable_partition(&mut self.rows[lo..hi], &self.goes_left, &mut self.scratch);
        // Children at the depth limit are leaves, which read only `rows`.
        if depth + 1 < self.config.max_depth {
            for order in &mut self.orders {
                partition_runs(&mut order[lo..hi], &self.goes_left, &mut self.scratch);
            }
        }
        let left_node = self.build(lo, lo + n_left, depth + 1);
        let right_node = self.build(lo + n_left, hi, depth + 1);
        Node::Split { feature, threshold, left: Box::new(left_node), right: Box::new(right_node) }
    }

    /// Finds the (feature, threshold) pair with the greatest reduction in the
    /// sum of squared errors, or `None` when no split improves on the parent.
    fn best_split(&mut self, lo: usize, hi: usize) -> Option<(usize, f64)> {
        let n_features = self.data.columns.len();
        let mut candidates: Vec<usize> = (0..n_features).collect();
        if let Some(k) = self.config.max_features {
            candidates.shuffle(&mut self.rng);
            candidates.truncate(k.max(1).min(n_features));
        }

        let rows = &self.rows[lo..hi];
        let total_sum: f64 = rows.iter().map(|&i| self.targets[i as usize]).sum();
        let total_sq: f64 = rows.iter().map(|&i| self.targets[i as usize].powi(2)).sum();
        let n = rows.len() as f64;
        let parent_sse = total_sq - total_sum * total_sum / n;

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for &feature in &candidates {
            let order = &self.orders[feature][lo..hi];
            let column = &self.data.columns[feature];
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for split_at in 1..order.len() {
                let prev = (order[split_at - 1] & !RUN_START) as usize;
                left_sum += self.targets[prev];
                left_sq += self.targets[prev].powi(2);

                if order[split_at] & RUN_START == 0 {
                    continue; // cannot split between identical values
                }
                let left_n = split_at as f64;
                let right_n = n - left_n;
                if (split_at < self.config.min_samples_leaf)
                    || ((order.len() - split_at) < self.config.min_samples_leaf)
                {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse = (left_sq - left_sum * left_sum / left_n)
                    + (right_sq - right_sum * right_sum / right_n);
                if best.is_none_or(|(_, _, b)| sse < b) {
                    // Feature values are read only here, at a run start.
                    let cur = (order[split_at] & !RUN_START) as usize;
                    best = Some((feature, (column[prev] + column[cur]) / 2.0, sse));
                }
            }
        }
        match best {
            Some((feature, threshold, sse)) if sse < parent_sse - 1e-12 => {
                Some((feature, threshold))
            }
            _ => None,
        }
    }
}

/// Moves the ids with `goes_left` set to the front of `ids`, keeping the
/// order within each side. Branch-free: every id is written to both sides'
/// next slot and only the side it belongs to advances, since which side an
/// id takes is as good as random. The left slot never passes the id being
/// read, so no write lands on an unread id.
fn stable_partition(ids: &mut [RowId], goes_left: &[bool], scratch: &mut [RowId]) {
    let mut n_left = 0;
    let mut n_right = 0;
    for k in 0..ids.len() {
        let id = ids[k];
        let left = goes_left[id as usize];
        ids[n_left] = id;
        scratch[n_right] = id;
        n_left += usize::from(left);
        n_right += usize::from(!left);
    }
    ids[n_left..].copy_from_slice(&scratch[..n_right]);
}

/// [`stable_partition`] for a presorted order's flagged entries. An entry
/// starts a run in its child when it is the first of its parent run to go
/// to its side: then no entry of its own value went there before it, and
/// the previous one that did holds a lesser value. So the entries move
/// unchanged, each keeping its own flag, and at every run start the first
/// slot each side filled during the run that just ended is flagged. A side
/// that filled none holds its next slot there, which the next entry written
/// to it (or the final copy) overwrites.
fn partition_runs(entries: &mut [RowId], goes_left: &[bool], scratch: &mut [RowId]) {
    let mut n_left = 0;
    let mut n_right = 0;
    // Where each side's first entry of the current run goes.
    let mut left_start = 0;
    let mut right_start = 0;
    for k in 0..entries.len() {
        let entry = entries[k];
        if entry & RUN_START != 0 {
            entries[left_start] |= RUN_START;
            scratch[right_start] |= RUN_START;
            left_start = n_left;
            right_start = n_right;
        }
        let left = goes_left[(entry & !RUN_START) as usize];
        entries[n_left] = entry;
        scratch[n_right] = entry;
        n_left += usize::from(left);
        n_right += usize::from(!left);
    }
    if left_start < n_left {
        entries[left_start] |= RUN_START;
    }
    if right_start < n_right {
        scratch[right_start] |= RUN_START;
    }
    entries[n_left..].copy_from_slice(&scratch[..n_right]);
}

impl DecisionTree {
    /// Fits a tree on the dataset's own labels.
    pub fn fit(data: &Dataset, config: &TreeConfig, seed: u64) -> Self {
        Self::fit_with_targets(data, data.labels(), config, seed)
    }

    /// Fits a tree predicting arbitrary `targets` (one per dataset row),
    /// such as gradient boosting's pseudo-residuals.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of rows, or if the
    /// dataset has more than 2³¹ rows.
    pub fn fit_with_targets(
        data: &Dataset,
        targets: &[f64],
        config: &TreeConfig,
        seed: u64,
    ) -> Self {
        assert_eq!(targets.len(), data.len(), "one target per row is required");
        Self::fit_presorted(&Presorted::new(data), targets, config, seed).0
    }

    /// [`DecisionTree::fit_with_targets`] over an already presorted dataset,
    /// so a caller fitting many trees on one dataset sorts it once, with the
    /// rows each leaf holds.
    pub(crate) fn fit_presorted(
        data: &Presorted,
        targets: &[f64],
        config: &TreeConfig,
        seed: u64,
    ) -> (Self, LeafRows) {
        assert_eq!(targets.len(), data.n_rows, "one target per row is required");
        let mut builder = Builder::new(data, targets, config, seed);
        let root = builder.build(0, data.n_rows, 0);
        let n_leaves = builder.leaves.len();
        let tree = DecisionTree { root, n_features: data.columns.len(), n_leaves };
        (tree, LeafRows { rows: builder.rows, ranges: builder.leaves })
    }

    /// Predicts the value for a feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the training feature count.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.n_features, "feature count mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { value, .. } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    node = if features[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Returns the id of the leaf a feature vector falls into: the walk the
    /// boosting oracle makes per row, where the fit reads [`LeafRows`].
    #[cfg(test)]
    pub(crate) fn leaf_id(&self, features: &[f64]) -> usize {
        assert_eq!(features.len(), self.n_features, "feature count mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { id, .. } => return *id,
                Node::Split { feature, threshold, left, right } => {
                    node = if features[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Replaces each leaf value with `f(leaf_id, current_value)`.
    /// Gradient-boosted quantile regression uses this to set leaves to
    /// per-leaf residual quantiles rather than means.
    pub fn adjust_leaves<F>(&mut self, mut f: F)
    where
        F: FnMut(usize, f64) -> f64,
    {
        fn walk<F: FnMut(usize, f64) -> f64>(node: &mut Node, f: &mut F) {
            match node {
                Node::Leaf { id, value, .. } => *value = f(*id, *value),
                Node::Split { left, right, .. } => {
                    walk(left, f);
                    walk(right, f);
                }
            }
        }
        walk(&mut self.root, &mut f);
    }

    /// Number of leaves in the tree.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Number of features the tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Depth of the tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn depth(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + depth(left).max(depth(right)),
            }
        }
        depth(&self.root)
    }

    /// Whether both trees have the same shape, features, leaf ids and sample
    /// counts, and every threshold and leaf value has the same bits
    /// (`PartialEq` on `f64` would let −0.0 pass for 0.0).
    #[cfg(test)]
    pub(crate) fn same_bits(&self, other: &DecisionTree) -> bool {
        fn same_nodes(a: &Node, b: &Node) -> bool {
            match (a, b) {
                (
                    Node::Leaf { id: id_a, value: value_a, samples: samples_a },
                    Node::Leaf { id: id_b, value: value_b, samples: samples_b },
                ) => {
                    id_a == id_b && value_a.to_bits() == value_b.to_bits() && samples_a == samples_b
                }
                (
                    Node::Split { feature: f_a, threshold: t_a, left: l_a, right: r_a },
                    Node::Split { feature: f_b, threshold: t_b, left: l_b, right: r_b },
                ) => {
                    f_a == f_b
                        && t_a.to_bits() == t_b.to_bits()
                        && same_nodes(l_a, l_b)
                        && same_nodes(r_a, r_b)
                }
                _ => false,
            }
        }
        same_nodes(&self.root, &other.root)
            && self.n_features == other.n_features
            && self.n_leaves == other.n_leaves
    }
}

/// The per-node-sort builder the presorted search replaced: every node copies
/// its row ids and stably sorts them again for each candidate feature. Kept
/// as the oracle the presorted trees must match bit for bit, and the tree
/// learner of the boosting oracle, `gbm::reference`.
#[cfg(test)]
pub(crate) mod reference {
    use super::{DecisionTree, Node, TreeConfig};
    use crate::dataset::Dataset;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rand_pcg::Pcg64;

    struct Builder<'a> {
        rows: &'a [Vec<f64>],
        targets: &'a [f64],
        config: &'a TreeConfig,
        rng: Pcg64,
        next_leaf_id: usize,
    }

    impl Builder<'_> {
        fn leaf(&mut self, indices: &[usize]) -> Node {
            let value = if indices.is_empty() {
                0.0
            } else {
                indices.iter().map(|&i| self.targets[i]).sum::<f64>() / indices.len() as f64
            };
            let id = self.next_leaf_id;
            self.next_leaf_id += 1;
            Node::Leaf { id, value, samples: indices.len() }
        }

        fn build(&mut self, indices: &mut [usize], depth: usize) -> Node {
            if depth >= self.config.max_depth
                || indices.len() < self.config.min_samples_split
                || indices.len() < 2 * self.config.min_samples_leaf
            {
                return self.leaf(indices);
            }
            match self.best_split(indices) {
                None => self.leaf(indices),
                Some((feature, threshold)) => {
                    let (mut left, mut right): (Vec<usize>, Vec<usize>) =
                        indices.iter().partition(|&&i| self.rows[i][feature] <= threshold);
                    if left.len() < self.config.min_samples_leaf
                        || right.len() < self.config.min_samples_leaf
                    {
                        return self.leaf(indices);
                    }
                    let left_node = self.build(&mut left, depth + 1);
                    let right_node = self.build(&mut right, depth + 1);
                    Node::Split {
                        feature,
                        threshold,
                        left: Box::new(left_node),
                        right: Box::new(right_node),
                    }
                }
            }
        }

        fn best_split(&mut self, indices: &[usize]) -> Option<(usize, f64)> {
            let n_features = self.rows[indices[0]].len();
            let mut candidates: Vec<usize> = (0..n_features).collect();
            if let Some(k) = self.config.max_features {
                candidates.shuffle(&mut self.rng);
                candidates.truncate(k.max(1).min(n_features));
            }

            let total_sum: f64 = indices.iter().map(|&i| self.targets[i]).sum();
            let total_sq: f64 = indices.iter().map(|&i| self.targets[i].powi(2)).sum();
            let n = indices.len() as f64;
            let parent_sse = total_sq - total_sum * total_sum / n;

            let mut best: Option<(usize, f64, f64)> = None;
            for &feature in &candidates {
                let mut order: Vec<usize> = indices.to_vec();
                order.sort_by(|&a, &b| {
                    self.rows[a][feature]
                        .partial_cmp(&self.rows[b][feature])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });

                let mut left_sum = 0.0;
                let mut left_sq = 0.0;
                for split_at in 1..order.len() {
                    let prev = order[split_at - 1];
                    left_sum += self.targets[prev];
                    left_sq += self.targets[prev].powi(2);

                    let prev_val = self.rows[prev][feature];
                    let cur_val = self.rows[order[split_at]][feature];
                    if prev_val == cur_val {
                        continue;
                    }
                    let left_n = split_at as f64;
                    let right_n = n - left_n;
                    if (split_at < self.config.min_samples_leaf)
                        || ((order.len() - split_at) < self.config.min_samples_leaf)
                    {
                        continue;
                    }
                    let right_sum = total_sum - left_sum;
                    let right_sq = total_sq - left_sq;
                    let sse = (left_sq - left_sum * left_sum / left_n)
                        + (right_sq - right_sum * right_sum / right_n);
                    if best.is_none_or(|(_, _, b)| sse < b) {
                        best = Some((feature, (prev_val + cur_val) / 2.0, sse));
                    }
                }
            }
            match best {
                Some((feature, threshold, sse)) if sse < parent_sse - 1e-12 => {
                    Some((feature, threshold))
                }
                _ => None,
            }
        }
    }

    pub(crate) fn fit_with_targets(
        data: &Dataset,
        targets: &[f64],
        config: &TreeConfig,
        seed: u64,
    ) -> DecisionTree {
        let mut builder = Builder {
            rows: data.rows(),
            targets,
            config,
            rng: Pcg64::seed_from_u64(seed),
            next_leaf_id: 0,
        };
        let mut indices: Vec<usize> = (0..data.len()).collect();
        let root = if indices.is_empty() {
            builder.leaf(&indices)
        } else {
            builder.build(&mut indices, 0)
        };
        DecisionTree { root, n_features: data.n_features(), n_leaves: builder.next_leaf_id }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    /// How many splits of `tree` test each feature.
    fn split_counts(tree: &DecisionTree) -> Vec<usize> {
        fn walk(node: &Node, counts: &mut [usize]) {
            if let Node::Split { feature, left, right, .. } = node {
                counts[*feature] += 1;
                walk(left, counts);
                walk(right, counts);
            }
        }
        let mut counts = vec![0; tree.n_features];
        walk(&tree.root, &mut counts);
        counts
    }

    /// Fits `targets` with the presorted search and with the per-node-sort
    /// oracle, and asserts the two trees match bit for bit (`PartialEq` on
    /// `f64` would let −0.0 pass for 0.0).
    fn assert_matches_oracle(data: &Dataset, targets: &[f64], config: &TreeConfig, seed: u64) {
        let tree = DecisionTree::fit_with_targets(data, targets, config, seed);
        let oracle = reference::fit_with_targets(data, targets, config, seed);
        assert!(
            tree.same_bits(&oracle),
            "presorted tree {tree:?}\ndiffers from the per-node sort's {oracle:?}\nconfig {config:?}"
        );
    }

    /// Columns of four kinds chosen per feature: heavily tied small
    /// integers, mixed ±0.0 (equal under `partial_cmp`, distinct in bits),
    /// continuous values, and a constant. The labels are one of: the two
    /// quantile residuals {q, q − 1}, small integers, continuous values,
    /// ±0.0 beside two other tied values, or one constant (maybe −0.0).
    pub(crate) fn oracle_dataset(
        n_rows: usize,
        n_features: usize,
        label_kind: u8,
        seed: u64,
    ) -> Dataset {
        let mut rng = Pcg64::seed_from_u64(seed);
        let kinds: Vec<u8> = (0..n_features).map(|_| rng.gen_range(0..4)).collect();
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| {
                kinds
                    .iter()
                    .map(|kind| match kind {
                        0 => rng.gen_range(0..4) as f64,
                        1 => [-0.0, 0.0, 1.0, -1.0][rng.gen_range(0..4)],
                        2 => rng.gen::<f64>() * 20.0 - 10.0,
                        _ => 7.0,
                    })
                    .collect()
            })
            .collect();
        let q = rng.gen::<f64>();
        let constant = [-0.0, 0.0, 0.5][rng.gen_range(0..3)];
        let labels: Vec<f64> = (0..n_rows)
            .map(|_| match label_kind {
                0 => {
                    if rng.gen::<bool>() {
                        q
                    } else {
                        q - 1.0
                    }
                }
                1 => rng.gen_range(0..3) as f64,
                2 => rng.gen::<f64>() * 100.0 - 50.0,
                3 => [-0.0, 0.0, 0.25, 1.0][rng.gen_range(0..4)],
                _ => constant,
            })
            .collect();
        let names = (0..n_features).map(|f| format!("f{f}")).collect();
        Dataset::new(names, rows, labels).unwrap()
    }

    #[test]
    fn a_single_row_matches_the_oracle() {
        let data =
            Dataset::new(vec!["x".into(), "y".into()], vec![vec![-0.0, 3.0]], vec![0.25]).unwrap();
        let no_rows = data.subset(&[]);
        let loose = TreeConfig { min_samples_split: 0, min_samples_leaf: 0, ..Default::default() };
        for config in [TreeConfig::default(), loose] {
            assert_matches_oracle(&data, data.labels(), &config, 0);
            assert_matches_oracle(&no_rows, no_rows.labels(), &config, 0);
        }
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
        assert_eq!((tree.n_leaves(), tree.predict(&[5.0, 5.0])), (1, 0.25));
    }

    #[test]
    fn zero_feature_columns_fit_the_mean_of_every_row() {
        let labels = vec![1.0, 2.0, 6.0];
        let data = Dataset::new(vec![], vec![vec![]; 3], labels).unwrap();
        let config = TreeConfig { max_features: Some(2), ..Default::default() };
        assert_matches_oracle(&data, data.labels(), &config, 4);
        let tree = DecisionTree::fit(&data, &config, 4);
        assert_eq!((tree.n_leaves(), tree.n_features(), tree.predict(&[])), (1, 0, 3.0));
    }

    #[test]
    fn signed_zeros_tie_and_keep_row_order() {
        // Column b is column a with two of its zeros negated, so both columns
        // give the same split. Under the per-node sort the zeros tie in row
        // order, both scans add 0.1 + 0.1 + 1.0 and feature a wins the tie.
        // Under `total_cmp` b would add 0.1 + 1.0 + 0.1, which rounds to a
        // smaller error, and the root would split on b.
        let rows = vec![
            vec![0.0, -0.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![0.0, -0.0],
            vec![1.0, 1.0],
        ];
        let labels = vec![0.1, 0.1, 0.1, 0.2, 1.0, 0.1];
        let data = Dataset::new(vec!["a".into(), "b".into()], rows, labels).unwrap();
        assert_matches_oracle(&data, data.labels(), &TreeConfig::default(), 0);
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
        assert_eq!(split_counts(&tree), vec![1, 0]);
    }

    fn step_dataset(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, 1.0]).collect();
        let labels: Vec<f64> = (0..n).map(|i| if i < n / 2 { 0.0 } else { 1.0 }).collect();
        Dataset::new(vec!["x".into(), "bias".into()], rows, labels).unwrap()
    }

    #[test]
    fn learns_a_step_function() {
        let data = step_dataset(100);
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
        assert!(tree.predict(&[5.0, 1.0]) < 0.1);
        assert!(tree.predict(&[95.0, 1.0]) > 0.9);
        assert!(tree.depth() >= 1);
        assert!(tree.n_leaves() >= 2);
    }

    #[test]
    fn constant_labels_yield_a_single_leaf() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let labels = vec![3.5; 20];
        let data = Dataset::new(vec!["x".into()], rows, labels).unwrap();
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict(&[100.0]), 3.5);
    }

    #[test]
    fn max_depth_zero_predicts_the_mean() {
        let data = step_dataset(10);
        let tree = DecisionTree::fit(&data, &TreeConfig { max_depth: 0, ..Default::default() }, 0);
        assert!((tree.predict(&[0.0, 1.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let data = step_dataset(10);
        let tree =
            DecisionTree::fit(&data, &TreeConfig { min_samples_leaf: 6, ..Default::default() }, 0);
        // A split would require two children of >= 6 samples out of 10 — impossible.
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn fit_with_targets_overrides_labels() {
        let data = step_dataset(40);
        let targets: Vec<f64> = (0..40).map(|i| i as f64 * 2.0).collect();
        let tree = DecisionTree::fit_with_targets(&data, &targets, &TreeConfig::default(), 0);
        let lo = tree.predict(&[2.0, 1.0]);
        let hi = tree.predict(&[38.0, 1.0]);
        assert!(hi > lo + 10.0);
    }

    #[test]
    fn leaf_ids_are_stable_and_adjustable() {
        let data = step_dataset(100);
        let mut tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
        let id_low = tree.leaf_id(&[1.0, 1.0]);
        let id_high = tree.leaf_id(&[99.0, 1.0]);
        assert_ne!(id_low, id_high);
        tree.adjust_leaves(|id, v| if id == id_low { -5.0 } else { v });
        assert_eq!(tree.predict(&[1.0, 1.0]), -5.0);
        assert!(tree.predict(&[99.0, 1.0]) > 0.9);
    }

    #[test]
    fn feature_split_counts_identify_the_informative_feature() {
        let data = step_dataset(100);
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
        let counts = split_counts(&tree);
        assert!(counts[0] >= 1, "feature 0 is informative: {counts:?}");
        assert_eq!(counts[1], 0, "constant bias feature should never be split on");
    }

    #[test]
    fn feature_subsampling_still_produces_a_tree() {
        let data = step_dataset(60);
        let tree = DecisionTree::fit(
            &data,
            &TreeConfig { max_features: Some(1), ..Default::default() },
            3,
        );
        assert_eq!(tree.n_features(), 2);
        // The tree may occasionally pick the useless feature at the root, but
        // prediction must still work.
        let _ = tree.predict(&[10.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn predict_rejects_wrong_arity() {
        let data = step_dataset(10);
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
        let _ = tree.predict(&[1.0]);
    }

    /// Whether every entry of `order` carries [`RUN_START`] exactly when it
    /// is the first or its value differs (under `==`) from the one before.
    fn flags_mark_runs(order: &[RowId], column: &[f64]) -> bool {
        let value = |entry: RowId| column[(entry & !RUN_START) as usize];
        order.iter().enumerate().all(|(k, &entry)| {
            let starts = k == 0 || value(entry) != value(order[k - 1]);
            (entry & RUN_START != 0) == starts
        })
    }

    proptest! {
        /// The presort flags every run start, and partitioning any node range
        /// by any row subset keeps the flags exact in both children,
        /// partition after partition.
        #[test]
        fn partitions_keep_the_run_flags(
            (n_rows, n_features, seed) in (1usize..90, 1usize..5, 0u64..u64::MAX),
            partitions in 1usize..8,
        ) {
            let data = oracle_dataset(n_rows, n_features, 1, seed);
            let presorted = Presorted::new(&data);
            let mut rng = Pcg64::seed_from_u64(seed ^ 0x5EED);
            let mut orders = presorted.orders.clone();
            let mut goes_left = vec![false; n_rows];
            let mut scratch = vec![0; n_rows];
            let mut ranges = Vec::with_capacity(partitions + 1);
            ranges.push(0..n_rows);
            for (order, column) in orders.iter().zip(&presorted.columns) {
                prop_assert!(flags_mark_runs(order, column));
            }
            for _ in 0..partitions {
                let range = ranges.swap_remove(rng.gen_range(0..ranges.len()));
                goes_left.iter_mut().for_each(|left| *left = rng.gen());
                let n_left = orders[0][range.clone()]
                    .iter()
                    .filter(|&&entry| goes_left[(entry & !RUN_START) as usize])
                    .count();
                for order in &mut orders {
                    partition_runs(&mut order[range.clone()], &goes_left, &mut scratch);
                }
                ranges.push(range.start..range.start + n_left);
                ranges.push(range.start + n_left..range.end);
                for (order, column) in orders.iter().zip(&presorted.columns) {
                    for node in &ranges {
                        prop_assert!(flags_mark_runs(&order[node.clone()], column));
                    }
                }
            }
        }

        /// The tree's predictions on its own training points achieve an MSE
        /// no worse than predicting the mean (it can only refine the mean).
        #[test]
        fn never_worse_than_the_mean(labels in proptest::collection::vec(-10.0f64..10.0, 10..60)) {
            let rows: Vec<Vec<f64>> = (0..labels.len()).map(|i| vec![i as f64]).collect();
            let data = Dataset::new(vec!["x".into()], rows, labels.clone()).unwrap();
            let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
            let mean = data.label_mean();
            let mse_tree: f64 = (0..data.len())
                .map(|i| (tree.predict(data.row(i)) - data.label(i)).powi(2))
                .sum::<f64>() / data.len() as f64;
            let mse_mean: f64 = labels.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / labels.len() as f64;
            prop_assert!(mse_tree <= mse_mean + 1e-9);
        }

        /// Deeper trees never increase training error.
        #[test]
        fn deeper_is_no_worse_on_training_data(seed in 0u64..50) {
            let n = 64usize;
            let mut rng_vals: Vec<f64> = Vec::with_capacity(n);
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            for _ in 0..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                rng_vals.push(((state >> 33) as f64) / (u32::MAX as f64) * 10.0);
            }
            let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
            let data = Dataset::new(vec!["x".into()], rows, rng_vals).unwrap();
            let shallow = DecisionTree::fit(&data, &TreeConfig { max_depth: 2, ..Default::default() }, 0);
            let deep = DecisionTree::fit(&data, &TreeConfig { max_depth: 6, ..Default::default() }, 0);
            let mse = |t: &DecisionTree| -> f64 {
                (0..data.len()).map(|i| (t.predict(data.row(i)) - data.label(i)).powi(2)).sum::<f64>() / data.len() as f64
            };
            prop_assert!(mse(&deep) <= mse(&shallow) + 1e-9);
        }

        /// The presorted search grows exactly the per-node sort's tree, and
        /// one `Presorted` serves any number of fits unchanged (the boosting
        /// rounds share one).
        #[test]
        fn presorted_search_matches_the_per_node_sort(
            (n_rows, n_features, label_kind) in (1usize..90, 0usize..6, 0u8..5),
            (max_depth, min_samples_split, min_samples_leaf) in (0usize..7, 0usize..9, 0usize..6),
            max_features in 0usize..7,
            seed in 0u64..u64::MAX,
        ) {
            let data = oracle_dataset(n_rows, n_features, label_kind, seed);
            let config = TreeConfig {
                max_depth,
                min_samples_split,
                min_samples_leaf,
                max_features: (max_features > 0).then_some(max_features),
            };
            assert_matches_oracle(&data, data.labels(), &config, seed);

            let presorted = Presorted::new(&data);
            let residuals: Vec<f64> =
                data.labels().iter().map(|&y| if y > 0.0 { 0.3 } else { -0.7 }).collect();
            for targets in [data.labels(), &residuals] {
                let (tree, _) = DecisionTree::fit_presorted(&presorted, targets, &config, seed);
                let oracle = reference::fit_with_targets(&data, targets, &config, seed);
                prop_assert!(tree.same_bits(&oracle));
            }
        }
    }
}
