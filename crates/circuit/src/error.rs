use std::fmt;

use rfsim_numerics::SolveInterrupted;

/// Errors produced while building or analysing circuits.
#[derive(Debug, Clone)]
pub enum CircuitError {
    /// The solve was interrupted by its
    /// [`SolveBudget`](rfsim_numerics::SolveBudget) — cancellation or
    /// deadline. A control-plane outcome, not a solver failure: callers
    /// with fallback ladders (gmin stepping, continuation, step halving)
    /// must propagate it instead of retrying.
    Interrupted(SolveInterrupted),
    /// A device parameter was outside its valid range.
    InvalidParameter {
        /// Device name.
        device: String,
        /// Explanation of the problem.
        context: String,
    },
    /// Two devices share a name, or a name was not found.
    BadName {
        /// The offending name.
        name: String,
        /// Explanation.
        context: String,
    },
    /// The nonlinear solve failed to converge.
    ConvergenceFailure {
        /// Which analysis failed (e.g. `"dc operating point"`).
        analysis: String,
        /// Iterations performed.
        iterations: usize,
        /// Final residual norm.
        residual: f64,
    },
    /// The Newton iteration *diverged*: every damping trial produced a
    /// non-finite residual, so no step — however small — stays on the
    /// residual surface. Unlike [`CircuitError::ConvergenceFailure`]
    /// (which burns `max_iters` making finite-but-insufficient
    /// progress), divergence is detected the moment it happens and is
    /// the typed signal a recovery ladder
    /// ([`fall_back`](crate::driver::fall_back)) uses to move to
    /// its next rung instead of committing a NaN iterate.
    Diverged {
        /// Which analysis diverged.
        analysis: String,
        /// Iterations completed before divergence.
        iterations: usize,
        /// Best (finite) residual norm seen before divergence, infinite
        /// if the very first residual was already non-finite.
        best_residual: f64,
    },
    /// A source lacks the bivariate (multi-time) description required by an
    /// MPDE analysis.
    MissingBivariateSource {
        /// Device name.
        device: String,
    },
    /// Error bubbled up from the numerical kernels.
    Numerics(rfsim_numerics::NumericsError),
    /// Structural problem with the assembled system.
    Structural {
        /// Explanation.
        context: String,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::Interrupted(i) => write!(f, "{i}"),
            CircuitError::InvalidParameter { device, context } => {
                write!(f, "invalid parameter on device '{device}': {context}")
            }
            CircuitError::BadName { name, context } => {
                write!(f, "bad name '{name}': {context}")
            }
            CircuitError::ConvergenceFailure {
                analysis,
                iterations,
                residual,
            } => write!(
                f,
                "{analysis} failed to converge after {iterations} iterations \
                 (residual {residual:.3e})"
            ),
            CircuitError::Diverged {
                analysis,
                iterations,
                best_residual,
            } => write!(
                f,
                "{analysis} diverged after {iterations} iterations: every damping \
                 trial produced a non-finite residual (best finite residual \
                 {best_residual:.3e})"
            ),
            CircuitError::MissingBivariateSource { device } => write!(
                f,
                "source '{device}' has no bivariate (multi-time) waveform; \
                 attach one with SourceSpec::bi for MPDE analyses"
            ),
            CircuitError::Numerics(e) => write!(f, "numerics: {e}"),
            CircuitError::Structural { context } => write!(f, "structural error: {context}"),
        }
    }
}

impl std::error::Error for CircuitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CircuitError::Numerics(e) => Some(e),
            _ => None,
        }
    }
}

impl CircuitError {
    /// The interruption payload, when this error is a budget outcome.
    pub fn interrupted(&self) -> Option<&SolveInterrupted> {
        match self {
            CircuitError::Interrupted(i) => Some(i),
            _ => None,
        }
    }

    /// Whether this error is a budget interruption (and must be
    /// propagated, never absorbed by a retry ladder).
    pub fn is_interrupted(&self) -> bool {
        matches!(self, CircuitError::Interrupted(_))
    }

    /// Whether a recovery ladder may absorb this error and try its next
    /// rung. Solver outcomes — divergence, running out of iterations, a
    /// singular or otherwise failed numerical kernel — are recoverable:
    /// a different rung (gmin stepping, continuation, an unseeded
    /// retry) can legitimately succeed where this one failed.
    /// Interruptions (the control plane asked for the stop) and
    /// structural / parameter / naming errors (every rung would fail
    /// identically) are not.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            CircuitError::Diverged { .. }
                | CircuitError::ConvergenceFailure { .. }
                | CircuitError::Numerics(_)
        )
    }
}

impl From<rfsim_numerics::NumericsError> for CircuitError {
    fn from(e: rfsim_numerics::NumericsError) -> Self {
        // An interruption keeps its typed identity across the layer
        // boundary instead of being buried inside a Numerics wrapper.
        match e {
            rfsim_numerics::NumericsError::Interrupted(i) => CircuitError::Interrupted(i),
            other => CircuitError::Numerics(other),
        }
    }
}

impl From<SolveInterrupted> for CircuitError {
    fn from(i: SolveInterrupted) -> Self {
        CircuitError::Interrupted(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_device() {
        let e = CircuitError::InvalidParameter {
            device: "R1".into(),
            context: "resistance must be positive".into(),
        };
        assert!(e.to_string().contains("R1"));
    }

    #[test]
    fn numerics_error_wraps() {
        let inner = rfsim_numerics::NumericsError::SingularMatrix {
            index: 0,
            pivot: 0.0,
        };
        let e: CircuitError = inner.into();
        assert!(e.to_string().contains("singular"));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn recoverability_splits_solver_outcomes_from_structural_faults() {
        let diverged = CircuitError::Diverged {
            analysis: "dc operating point".into(),
            iterations: 3,
            best_residual: f64::INFINITY,
        };
        assert!(diverged.is_recoverable());
        assert!(!diverged.is_interrupted());
        assert!(diverged.to_string().contains("diverged after 3"));
        let structural = CircuitError::Structural {
            context: "floating node".into(),
        };
        assert!(!structural.is_recoverable());
        let interrupted = CircuitError::Interrupted(SolveInterrupted {
            reason: rfsim_numerics::InterruptReason::Cancelled,
            iterations: 1,
            best_residual: 1.0,
            elapsed: std::time::Duration::from_millis(1),
        });
        assert!(!interrupted.is_recoverable());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CircuitError>();
    }
}
