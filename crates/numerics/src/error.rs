use std::fmt;

use crate::budget::SolveInterrupted;

/// Errors produced by the numerical kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericsError {
    /// The solve was interrupted by its [`crate::budget::SolveBudget`]
    /// (cancellation or deadline) — a control-plane outcome, not a
    /// numerical failure.
    Interrupted(SolveInterrupted),
    /// A (near-)zero pivot was encountered during factorisation.
    SingularMatrix {
        /// Index of the offending pivot column/row.
        index: usize,
        /// Magnitude of the best available pivot.
        pivot: f64,
    },
    /// An iterative method exhausted its iteration budget.
    NotConverged {
        /// Iterations actually performed.
        iterations: usize,
        /// Residual norm at the last iteration.
        residual: f64,
        /// Convergence target that was not met.
        tolerance: f64,
    },
    /// Operand shapes are incompatible.
    DimensionMismatch {
        /// Description of the mismatch (e.g. `"matvec: 3x4 * len 5"`).
        context: String,
    },
    /// An argument was outside its valid domain.
    InvalidArgument {
        /// Description of the invalid argument.
        context: String,
    },
}

impl fmt::Display for NumericsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericsError::Interrupted(i) => write!(f, "{i}"),
            NumericsError::SingularMatrix { index, pivot } => {
                write!(f, "singular matrix: pivot {pivot:.3e} at index {index}")
            }
            NumericsError::NotConverged {
                iterations,
                residual,
                tolerance,
            } => write!(
                f,
                "iteration did not converge: residual {residual:.3e} > tol {tolerance:.3e} \
                 after {iterations} iterations"
            ),
            NumericsError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            NumericsError::InvalidArgument { context } => {
                write!(f, "invalid argument: {context}")
            }
        }
    }
}

impl NumericsError {
    /// The interruption payload, when this error is a budget outcome.
    pub fn interrupted(&self) -> Option<&SolveInterrupted> {
        match self {
            NumericsError::Interrupted(i) => Some(i),
            _ => None,
        }
    }
}

impl From<SolveInterrupted> for NumericsError {
    fn from(i: SolveInterrupted) -> Self {
        NumericsError::Interrupted(i)
    }
}

impl std::error::Error for NumericsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_key_numbers() {
        let e = NumericsError::SingularMatrix {
            index: 7,
            pivot: 1e-30,
        };
        let s = e.to_string();
        assert!(s.contains("7"));
        assert!(s.contains("singular"));
    }

    #[test]
    fn not_converged_display() {
        let e = NumericsError::NotConverged {
            iterations: 100,
            residual: 1.0,
            tolerance: 1e-9,
        };
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericsError>();
    }
}
