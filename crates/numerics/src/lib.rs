//! Hand-rolled numerical kernels for the `rfsim` workspace.
//!
//! This crate supplies every numerical primitive the RF steady-state engine
//! needs, built from scratch (no external linear-algebra or FFT crates):
//!
//! * [`budget`] — the solve control plane: [`budget::SolveBudget`]
//!   bundles a cooperative [`budget::CancelToken`], a wall-clock
//!   deadline and a progress callback, polled by every iterative solver
//!   below.
//! * [`dense`] — dense matrices with LU (partial pivoting) solves.
//! * [`sparse`] — triplet/CSR/CSC sparse matrices, plus the
//!   [`sparse::CscAssembly`]/[`sparse::CsrAssembly`] pattern caches that
//!   map triplet slots to compressed value slots so fixed-structure
//!   Jacobians re-assemble by in-place scatter (no sort/dedup/alloc).
//! * [`sparse_lu`] — left-looking sparse LU (Gilbert–Peierls) with partial
//!   pivoting and fill-reducing ordering (reverse Cuthill–McKee), split
//!   KLU-style into a one-time symbolic analysis
//!   ([`sparse_lu::SymbolicLu`]: permutations, pivot order, elimination
//!   patterns) and numeric-only refactorisation
//!   ([`sparse_lu::SparseLu::refactor_in_place`]) for the
//!   pattern-invariant matrices of Newton hot paths.
//! * [`krylov`] — restarted GMRES with pluggable preconditioners
//!   (identity, block-Jacobi). Block-Jacobi factors every diagonal block
//!   through one shared symbolic analysis, with a dense partial-pivoting
//!   fallback per block, and refreshes its factors in place.
//! * [`telemetry`] — fixed-allocation observability primitives: the
//!   log-bucketed [`telemetry::LatencyHistogram`] and the bounded
//!   per-job lifecycle [`telemetry::Timeline`], fed by the budget's
//!   progress-callback chain.
//! * [`json`] — dependency-free strict JSON reader/writer shared by the
//!   bench-regression gate and the `rfsim-serve` wire protocol.
//! * [`fft`] — complex arithmetic, radix-2 and Bluestein FFTs, single-bin
//!   DFT for harmonic extraction.
//! * [`diff`] — periodic differentiation stencils (backward Euler, central,
//!   BDF2) and spectral differentiation: the discrete `∂/∂t1`, `∂/∂t2`
//!   operators of the MPDE method.
//! * [`interp`] — periodic 1-D and 2-D interpolation.
//!
//! # Example
//!
//! ```
//! use rfsim_numerics::sparse::Triplets;
//! use rfsim_numerics::sparse_lu::SparseLu;
//!
//! # fn main() -> Result<(), rfsim_numerics::NumericsError> {
//! let mut t = Triplets::new(2, 2);
//! t.push(0, 0, 4.0);
//! t.push(0, 1, 1.0);
//! t.push(1, 0, 1.0);
//! t.push(1, 1, 3.0);
//! let a = t.to_csc();
//! let lu = SparseLu::factor(&a, Default::default())?;
//! let x = lu.solve(&[1.0, 2.0]);
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod budget;
pub mod dense;
pub mod diff;
pub mod fft;
pub mod interp;
pub mod json;
pub mod krylov;
pub mod sparse;
pub mod sparse_lu;
pub mod telemetry;
pub mod vector;

mod error;

pub use budget::{
    BudgetMeter, CancelToken, InterruptReason, SolveBudget, SolveInterrupted, SolveProgress,
};
pub use error::NumericsError;
pub use telemetry::{
    HistogramSummary, LatencyHistogram, Timeline, TimelineEvent, TimelineEventKind,
};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NumericsError>;
