//! Combining the two prediction models — Eq. (1) and Figure 20.
//!
//! Pond exposes two knobs: the false-positive budget of the latency
//! insensitivity model (FP) and the overprediction budget of the
//! untouched-memory model (OP). Given a performance degradation margin (PDM)
//! and a target fraction of VMs that must stay within it (TP), Pond solves
//!
//! ```text
//! maximize   LI + UM
//! subject to FP + OP ≤ 100 − TP
//! ```
//!
//! where LI is the fraction of VMs marked latency-insensitive (placed fully
//! on the pool) and UM the average untouched memory placed on the pool for
//! the rest.

use crate::untouched::UntouchedEvalPoint;
use pond_ml::eval::OperatingPoint;

/// Configuration of the combined model: the QoS target it must respect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CombinedModelConfig {
    /// Performance degradation margin (e.g. 0.05).
    pub pdm: f64,
    /// Target fraction of VMs that must stay within the PDM (e.g. 0.98).
    pub tp: f64,
}

impl Default for CombinedModelConfig {
    fn default() -> Self {
        CombinedModelConfig { pdm: 0.05, tp: 0.98 }
    }
}

impl CombinedModelConfig {
    /// The total misprediction budget `100 − TP`, as a fraction.
    pub fn budget(&self) -> f64 {
        (1.0 - self.tp).max(0.0)
    }
}

/// A candidate operating point of the untouched-memory model: the quantile it
/// was trained at plus its measured trade-off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UntouchedCandidate {
    /// Quantile the model predicts.
    pub quantile: f64,
    /// Measured average-untouched / overprediction trade-off.
    pub point: UntouchedEvalPoint,
}

/// The chosen combination of operating points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CombinedChoice {
    /// Operating point of the sensitivity model (threshold, LI, FP).
    pub sensitivity: OperatingPoint,
    /// Operating point of the untouched-memory model.
    pub untouched: UntouchedCandidate,
}

impl CombinedChoice {
    /// The paper's objective value `LI + UM`.
    pub fn objective(&self) -> f64 {
        self.sensitivity.positive_fraction + self.untouched.point.avg_untouched_fraction
    }

    /// Expected share of VM memory on the pool: LI VMs contribute their whole
    /// memory, the rest contribute their untouched share.
    pub fn expected_pool_share(&self) -> f64 {
        let li = self.sensitivity.positive_fraction;
        li + (1.0 - li) * self.untouched.point.avg_untouched_fraction
    }

    /// Expected fraction of VMs that will exceed the PDM (scheduling
    /// mispredictions): false positives of the sensitivity model plus
    /// overpredictions of the untouched model among the remaining VMs.
    pub fn expected_mispredictions(&self) -> f64 {
        let li = self.sensitivity.positive_fraction;
        self.sensitivity.false_positive_fraction
            + (1.0 - li) * self.untouched.point.overprediction_rate
    }

    /// The constraint value `FP + OP` used in Eq. (1).
    pub fn constraint_value(&self) -> f64 {
        self.sensitivity.false_positive_fraction + self.untouched.point.overprediction_rate
    }
}

/// The combined model: the solved choice for a given configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CombinedModel {
    /// The configuration that was solved for.
    pub config: CombinedModelConfig,
    /// The chosen operating points.
    pub choice: CombinedChoice,
}

impl CombinedModel {
    /// Solves Eq. (1) by exhaustive search over the candidate operating
    /// points of both models. Returns `None` when no combination satisfies
    /// the budget (which can only happen if even the most conservative
    /// candidates mispredict too much).
    pub fn solve(
        config: CombinedModelConfig,
        sensitivity_points: &[OperatingPoint],
        untouched_candidates: &[UntouchedCandidate],
    ) -> Option<Self> {
        let mut best: Option<CombinedChoice> = None;
        for s in sensitivity_points {
            for u in untouched_candidates {
                let choice = CombinedChoice { sensitivity: *s, untouched: *u };
                if choice.constraint_value() > config.budget() + 1e-12 {
                    continue;
                }
                if best.is_none_or(|b| choice.objective() > b.objective()) {
                    best = Some(choice);
                }
            }
        }
        best.map(|choice| CombinedModel { config, choice })
    }

    /// Sweeps the misprediction budget and reports, for each budget, the pool
    /// share achievable within it — the trade-off plotted in Figure 20.
    pub fn tradeoff_curve(
        sensitivity_points: &[OperatingPoint],
        untouched_candidates: &[UntouchedCandidate],
        budgets: &[f64],
    ) -> Vec<TradeoffPoint> {
        budgets
            .iter()
            .map(|&budget| {
                let config = CombinedModelConfig { pdm: 0.05, tp: 1.0 - budget };
                let solved = Self::solve(config, sensitivity_points, untouched_candidates);
                TradeoffPoint {
                    budget,
                    pool_share: solved.map_or(0.0, |m| m.choice.expected_pool_share()),
                    mispredictions: solved.map_or(0.0, |m| m.choice.expected_mispredictions()),
                }
            })
            .collect()
    }
}

/// One point of the Figure 20 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// The misprediction budget used (`100 − TP`).
    pub budget: f64,
    /// Average share of VM memory placed on the pool.
    pub pool_share: f64,
    /// Expected fraction of VMs exceeding the PDM.
    pub mispredictions: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sens(threshold: f64, li: f64, fp: f64) -> OperatingPoint {
        OperatingPoint { threshold, positive_fraction: li, false_positive_fraction: fp }
    }

    fn unt(quantile: f64, um: f64, op: f64) -> UntouchedCandidate {
        UntouchedCandidate {
            quantile,
            point: UntouchedEvalPoint { avg_untouched_fraction: um, overprediction_rate: op },
        }
    }

    fn candidates() -> (Vec<OperatingPoint>, Vec<UntouchedCandidate>) {
        (
            vec![sens(0.9, 0.05, 0.001), sens(0.7, 0.25, 0.01), sens(0.5, 0.45, 0.05)],
            vec![unt(0.05, 0.20, 0.005), unt(0.2, 0.30, 0.02), unt(0.5, 0.45, 0.10)],
        )
    }

    #[test]
    fn solve_respects_the_budget_and_maximizes_the_objective() {
        let (s, u) = candidates();
        let config = CombinedModelConfig { pdm: 0.05, tp: 0.98 };
        let model = CombinedModel::solve(config, &s, &u).unwrap();
        assert!(model.choice.constraint_value() <= config.budget() + 1e-12);
        // With a 2% budget the best feasible combination is LI=25% (FP=1%)
        // and UM=20% (OP=0.5%): objective 0.45.
        assert!((model.choice.objective() - 0.45).abs() < 1e-9, "{:?}", model.choice);
        assert!(model.choice.expected_pool_share() > 0.3);
        assert!(model.choice.expected_mispredictions() <= 0.02 + 1e-9);
    }

    #[test]
    fn tighter_targets_yield_smaller_pool_shares() {
        let (s, u) = candidates();
        let strict = CombinedModel::solve(CombinedModelConfig { pdm: 0.05, tp: 0.999 }, &s, &u);
        let loose = CombinedModel::solve(CombinedModelConfig { pdm: 0.05, tp: 0.90 }, &s, &u);
        let strict_share = strict.map_or(0.0, |m| m.choice.expected_pool_share());
        let loose_share = loose.map_or(0.0, |m| m.choice.expected_pool_share());
        assert!(loose_share >= strict_share);
    }

    #[test]
    fn infeasible_budgets_return_none() {
        let s = vec![sens(0.5, 0.5, 0.10)];
        let u = vec![unt(0.5, 0.5, 0.10)];
        assert!(CombinedModel::solve(CombinedModelConfig { pdm: 0.05, tp: 0.99 }, &s, &u).is_none());
    }

    #[test]
    fn tradeoff_curve_is_monotone_in_the_budget() {
        let (s, u) = candidates();
        let curve = CombinedModel::tradeoff_curve(&s, &u, &[0.001, 0.005, 0.01, 0.02, 0.05, 0.10]);
        assert_eq!(curve.len(), 6);
        for pair in curve.windows(2) {
            assert!(pair[1].pool_share >= pair[0].pool_share - 1e-12);
        }
        // The combined model beats either model alone at a 2% budget: pooling
        // both knobs yields more than the best single-knob option.
        let at_2pct = curve.iter().find(|p| (p.budget - 0.02).abs() < 1e-9).unwrap();
        assert!(at_2pct.pool_share > 0.25);
    }

    #[test]
    fn config_budget() {
        assert!((CombinedModelConfig::default().budget() - 0.02).abs() < 1e-12);
        assert_eq!(CombinedModelConfig { pdm: 0.05, tp: 1.2 }.budget(), 0.0);
    }
}
