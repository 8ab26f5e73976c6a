//! Error types shared by the collaborative-filtering substrate.

use std::fmt;

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, CfError>;

/// Errors produced by the CF substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum CfError {
    /// A user id referenced by an operation is not present in the rating matrix.
    UnknownUser(u32),
    /// An item id referenced by an operation is not present in the rating matrix.
    UnknownItem(u32),
    /// A rating value was not finite, or otherwise outside the allowed scale.
    InvalidRating {
        /// Offending value.
        value: f64,
        /// Human-readable context for the failure.
        context: &'static str,
    },
    /// The operation requires a non-empty rating matrix.
    EmptyMatrix,
    /// An algorithm received an invalid hyper-parameter (e.g. `k == 0`, negative α).
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Human-readable description of the constraint that was violated.
        message: String,
    },
    /// Model training failed to make progress (e.g. ALS produced non-finite factors).
    TrainingDiverged(String),
    /// A delta names an id past what its own size can grow the matrix to (the rule of
    /// `RatingMatrix::check_delta_growth`).
    IdPastGrowthBound {
        /// The largest user id the delta rates with, if any.
        max_user: Option<u32>,
        /// The largest item id the delta rates or declares, if any.
        max_item: Option<u32>,
        /// User ids must stay below this: the matrix's users plus the delta's events.
        user_bound: usize,
        /// Item ids must stay below this: the matrix's items plus the delta's events
        /// and declarations.
        item_bound: usize,
    },
}

impl fmt::Display for CfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfError::UnknownUser(u) => write!(f, "unknown user id {u}"),
            CfError::UnknownItem(i) => write!(f, "unknown item id {i}"),
            CfError::InvalidRating { value, context } => {
                write!(f, "invalid rating value {value} ({context})")
            }
            CfError::EmptyMatrix => write!(f, "operation requires a non-empty rating matrix"),
            CfError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            CfError::TrainingDiverged(msg) => write!(f, "training diverged: {msg}"),
            CfError::IdPastGrowthBound {
                max_user,
                max_item,
                user_bound,
                item_bound,
            } => write!(
                f,
                "delta names ids up to user {max_user:?} and item {max_item:?}, but its events \
                 and declarations can grow the matrix to at most {user_bound} users and \
                 {item_bound} items"
            ),
        }
    }
}

impl std::error::Error for CfError {}

impl CfError {
    /// Helper to build an [`CfError::InvalidParameter`] error.
    pub fn invalid_parameter(name: &'static str, message: impl Into<String>) -> Self {
        CfError::InvalidParameter {
            name,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_human_readably() {
        assert_eq!(CfError::UnknownUser(3).to_string(), "unknown user id 3");
        assert_eq!(CfError::UnknownItem(9).to_string(), "unknown item id 9");
        assert!(CfError::EmptyMatrix.to_string().contains("non-empty"));
        let e = CfError::invalid_parameter("k", "must be positive");
        assert_eq!(e.to_string(), "invalid parameter `k`: must be positive");
        let e = CfError::InvalidRating {
            value: f64::NAN,
            context: "builder",
        };
        assert!(e.to_string().contains("invalid rating"));
        assert!(CfError::TrainingDiverged("nan loss".into())
            .to_string()
            .contains("nan loss"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&CfError::EmptyMatrix);
    }
}
