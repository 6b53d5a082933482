//! # rfsim — time-domain RF steady state for closely spaced tones
//!
//! A from-scratch Rust reproduction of Roychowdhury, *"A Time-domain RF
//! Steady-State Method for Closely Spaced Tones"* (DAC 2002): the sheared
//! multi-time PDE (MPDE) method, the SPICE-class circuit substrate it runs
//! on, the shooting and harmonic-balance baselines it is compared against,
//! and the RF measurement layer used in the paper's evaluation.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`numerics`] | `rfsim-numerics` | dense/sparse LA, sparse LU with symbolic reuse, GMRES, FFT, periodic differentiation |
//! | [`circuit`] | `rfsim-circuit` | MNA, device models, DC operating point, transient |
//! | [`shooting`] | `rfsim-shooting` | Newton/Krylov shooting, periodic FD collocation |
//! | [`hb`] | `rfsim-hb` | single- and two-tone harmonic balance |
//! | [`mpde`] | `rfsim-mpde` | **the paper's method**: sheared MPDE grids, FDTD Newton, continuation, envelope following |
//! | [`rf`] | `rfsim-rf` | PRBS, conversion gain, distortion, eye/ISI, the batched [`rf::sweep::SweepEngine`] |
//! | [`circuits`] | `rfsim-circuits` | balanced LO-doubling mixer, unbalanced mixer, fixtures |
//! | [`serve`] | `rfsim-serve` | the memoising simulation service: solution store, priority queue, wire protocol |
//!
//! # Solver architecture: factor once, refactor forever
//!
//! Every engine in this workspace bottoms out in the same Newton hot path:
//! assemble a sparse Jacobian from device stamps, solve `J·dx = −F`, repeat.
//! The Jacobian's *sparsity structure* is fixed for the life of a circuit —
//! only its values change — so all structural work is done once and cached:
//!
//! 1. **Assembly** — device stamps push a value-independent triplet
//!    sequence (exact zeros included). A
//!    [`numerics::sparse::CscAssembly`] / [`numerics::sparse::CsrAssembly`]
//!    slot map, built on the first assembly, scatters every later one into
//!    the compressed matrix in place: no counting sort, no dedup, no
//!    allocation.
//! 2. **Factorisation** — [`numerics::sparse_lu::SparseLu::factor`] runs
//!    the full Gilbert–Peierls pipeline (RCM ordering, DFS reach, threshold
//!    pivoting) once; its [`numerics::sparse_lu::SymbolicLu`] structure
//!    then drives numeric-only
//!    [`numerics::sparse_lu::SparseLu::refactor_in_place`] calls —
//!    triangular solves over the recorded pattern, no ordering, no reach,
//!    no pivot search, zero allocation. MPDE grids of 8 000 unknowns and
//!    more skip the factor: Newton solves them by GMRES preconditioned
//!    with one dense block per grid point, which on the paper's 40×30
//!    grid is 2.5–3× faster than direct LU, and falls back to this path
//!    on breakdown.
//! 3. **Persistence** — a [`circuit::newton::LinearSolverWorkspace`] owns
//!    both caches plus the factors and lives *across* Newton solves: the
//!    transient integrator carries one over all timesteps, the DC ladder
//!    over all gmin/source rungs, the MPDE solver into its continuation
//!    fallback, shooting across all inner steps and outer iterations, and
//!    sweeps across parameter points. Structural changes are detected (the
//!    slot map verifies every stamp; the factor fingerprints the pattern)
//!    and answered by a transparent rebuild, and a refactorisation whose
//!    recorded pivot vanishes falls back to a fresh factorisation that may
//!    repivot.
//!
//! On the scaled-mixer MPDE Jacobian this makes a numeric refactorisation
//! ~4.6× cheaper than a full factorisation and the end-to-end transient and
//! MPDE solves 2–2.7× faster than the seed implementation (`BENCH_pr1.json`).
//!
//! # Quickstart
//!
//! ```
//! use rfsim::circuit::{BiWaveform, CircuitBuilder, Envelope, GROUND};
//! use rfsim::mpde::solver::{solve_mpde, MpdeOptions};
//!
//! # fn main() -> Result<(), rfsim::circuit::CircuitError> {
//! // An RC filter driven by a carrier 1 kHz below 1 MHz: the MPDE grid
//! // spans one carrier period × one difference period.
//! let (f1, fd) = (1e6, 1e3);
//! let mut b = CircuitBuilder::new();
//! let inp = b.node("in");
//! let out = b.node("out");
//! b.vsource("VRF", inp, GROUND, BiWaveform::ShearedCarrier {
//!     amplitude: 1.0, k: 1, f1, fd, phase: 0.0, envelope: Envelope::Unit,
//! })?;
//! b.resistor("R1", inp, out, 1e3)?;
//! b.capacitor("C1", out, GROUND, 1e-9)?;
//! let circuit = b.build()?;
//! let sol = solve_mpde(&circuit, 1.0 / f1, 1.0 / fd,
//!     MpdeOptions { n1: 16, n2: 8, ..Default::default() })?;
//! println!("solved {} unknowns in {} Newton iterations",
//!     sol.stats.system_size, sol.stats.total_newton_iterations);
//! # Ok(())
//! # }
//! ```

pub mod runner;

pub use rfsim_circuit as circuit;
pub use rfsim_circuits as circuits;
pub use rfsim_hb as hb;
pub use rfsim_mpde as mpde;
pub use rfsim_netlist as netlist;
pub use rfsim_numerics as numerics;
pub use rfsim_rf as rf;
pub use rfsim_serve as serve;
pub use rfsim_shooting as shooting;
