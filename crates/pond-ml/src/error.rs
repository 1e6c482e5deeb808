//! Error type for the ML substrate.

use std::error::Error;
use std::fmt;

/// Errors raised when constructing datasets or fitting/evaluating models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MlError {
    /// The dataset has no rows.
    EmptyDataset,
    /// A row's feature count does not match the declared feature names.
    InconsistentRow {
        /// Index of the offending row.
        row: usize,
        /// Number of features in the row.
        got: usize,
        /// Number of features declared.
        expected: usize,
    },
    /// The number of labels does not match the number of rows.
    LabelMismatch {
        /// Number of rows.
        rows: usize,
        /// Number of labels.
        labels: usize,
    },
    /// A feature value or a label is NaN or infinite. Tree training orders
    /// every feature column, which needs finite values.
    NonFinite {
        /// Index of the offending row.
        row: usize,
        /// Name of the offending feature, or `None` when the label is.
        feature: Option<String>,
    },
    /// A parameter was outside its valid range.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Explanation of the constraint that was violated.
        reason: String,
    },
    /// A prediction was requested with the wrong number of features.
    FeatureCountMismatch {
        /// Number of features supplied.
        got: usize,
        /// Number of features the model was trained on.
        expected: usize,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::EmptyDataset => write!(f, "dataset has no rows"),
            MlError::InconsistentRow { row, got, expected } => {
                write!(f, "row {row} has {got} features, expected {expected}")
            }
            MlError::LabelMismatch { rows, labels } => {
                write!(f, "dataset has {rows} rows but {labels} labels")
            }
            MlError::NonFinite { row, feature: Some(name) } => {
                write!(f, "row {row} has a non-finite value for feature {name}")
            }
            MlError::NonFinite { row, feature: None } => {
                write!(f, "row {row} has a non-finite label")
            }
            MlError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter {name}: {reason}")
            }
            MlError::FeatureCountMismatch { got, expected } => {
                write!(f, "prediction input has {got} features, model expects {expected}")
            }
        }
    }
}

impl Error for MlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(MlError::EmptyDataset.to_string(), "dataset has no rows");
        let err = MlError::InconsistentRow { row: 3, got: 2, expected: 5 };
        assert!(err.to_string().contains("row 3"));
        let err = MlError::NonFinite { row: 4, feature: Some("cores".into()) };
        assert_eq!(err.to_string(), "row 4 has a non-finite value for feature cores");
        assert_eq!(
            MlError::NonFinite { row: 2, feature: None }.to_string(),
            "row 2 has a non-finite label"
        );
        let err = MlError::InvalidParameter { name: "trees", reason: "must be > 0".into() };
        assert!(err.to_string().contains("trees"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<MlError>();
    }
}
