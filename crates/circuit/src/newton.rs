//! Damped Newton–Raphson on sparse nonlinear systems.
//!
//! Shared by the DC operating point, the transient integrators, and (via
//! the same options/statistics types) the steady-state engines. Convergence
//! follows SPICE practice: the update must satisfy a mixed
//! relative/absolute tolerance per unknown *kind* (voltage vs current).
//!
//! # Linear-solver state reuse
//!
//! The Jacobian sparsity pattern of a circuit is fixed for its lifetime, so
//! all per-structure work — triplet compression order, RCM ordering, the
//! Gilbert–Peierls symbolic reach, the pivot order — is computed once and
//! cached in a [`LinearSolverWorkspace`]. Every subsequent Newton iteration
//! assembles in place and runs a numeric-only
//! [`SparseLu::refactor_in_place`]. A fresh Jacobian takes one of two
//! routes into the workspace:
//!
//! * the **triplet route**: the system pushes triplets
//!   ([`NewtonSystem::residual_and_jacobian`]), which the cached slot maps
//!   scatter into CSR or CSC form, verifying every stamp position (DC,
//!   transient, shooting, HB2, periodic FD, envelope, any wrapper);
//! * the **compiled route**: a system that compiled its CSR pattern once
//!   writes the values straight into the workspace's CSR matrix
//!   ([`NewtonSystem::residual_and_compiled_jacobian`]; every MPDE grid).
//!   Krylov reads that matrix; direct LU gathers its CSC values through a
//!   CSR→CSC slot map built once per pattern.
//!
//! Callers that solve many same-structure
//! systems in sequence (transient timesteps, gmin/source stepping,
//! MPDE continuation, shooting, parameter sweeps) pass one workspace to
//! every [`newton_solve_budgeted`] call so the cache also persists
//! *across* Newton solves. That function is the one Newton entry point;
//! backends with fallback rungs chain them onto its result with
//! [`fall_back`](crate::driver::fall_back).

use rfsim_numerics::krylov::{gmres_budgeted, BlockJacobiPrecond, GmresOptions};
use rfsim_numerics::sparse::{CscAssembly, CscMatrix, CsrAssembly, CsrMatrix, Triplets};
use rfsim_numerics::sparse_lu::{LuOptions, SparseLu};
use rfsim_numerics::vector::{norm2, wrms_ratio};
use rfsim_numerics::NumericsError;
use rfsim_numerics::SolveBudget;

use crate::circuit::UnknownKind;
use crate::{CircuitError, Result};

/// How each Newton linear system `J·dx = −F` is solved.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LinearSolver {
    /// Sparse direct LU (Gilbert–Peierls with RCM ordering). The default.
    #[default]
    Direct,
    /// Restarted GMRES preconditioned with block-Jacobi over fixed-size
    /// diagonal blocks. The right choice for MPDE grid Jacobians
    /// (`block_size` = circuit unknowns per grid point): every block is a
    /// locally nonsingular circuit matrix even when individual rows have
    /// zero diagonals. When the preconditioner refresh or GMRES breaks
    /// down, that step falls back to direct LU and the rest of the Newton
    /// solve stays direct; the next solve tries GMRES again.
    GmresBlockJacobi {
        /// Diagonal block size (must divide the system dimension).
        block_size: usize,
        /// Relative residual tolerance of the inner solve.
        rtol: f64,
        /// Restart length.
        restart: usize,
        /// Matvec budget.
        max_iters: usize,
    },
    /// The grid-solve policy of
    /// [`NewtonProfile::Grid`](crate::driver::NewtonProfile::Grid),
    /// resolved at the first fresh Jacobian of each Newton solve. A
    /// Jacobian with at least 8 000 unknowns that declares its diagonal
    /// block size ([`Triplets::declare_block_size`] on the triplet route,
    /// [`CompiledJacobian::block_size`] on the compiled one; the MPDE
    /// grid Jacobian declares it on both) runs
    /// [`LinearSolver::GmresBlockJacobi`] with fixed inner settings.
    /// Anything else runs [`LinearSolver::Direct`], with the same bits
    /// and counters as asking for it outright.
    Auto,
}

/// Unknowns from which [`LinearSolver::Auto`] runs GMRES + block-Jacobi.
/// Set from the warm-workspace crossover, where direct LU skips its full
/// factor (the sweep engine's and serve's case). Krylov speedup over
/// direct with the shared-symbolic block-Jacobi factor, on the fig4 mixer
/// (pattern 1011, best of 6 solves on one workspace, two runs on 2 vCPUs,
/// grid n1×n2): 0.89× at 1 920 unknowns (16×8), 1.09× at 4 320 (24×12),
/// 1.34–1.37× at 5 760 (24×16), 1.39–1.40× at 6 720 (28×16), 1.29–1.30×
/// at 7 680 (32×16), 1.17–1.19× at 8 100 (36×15), 1.26–1.31× at 8 400
/// (35×16), 1.20–1.22× at 9 600 (40×16), 1.11–1.14× at 11 520 (48×16)
/// and 2.27–2.31× at 18 000 (40×30). The crossover now sits near 4 000
/// unknowns; the threshold stays at 8 000 until a change that moves it
/// re-checks the grids it would move. Every serve grid and corpus netlist
/// sits far below either value.
const KRYLOV_MIN_DIM: usize = 8_000;

/// Inner relative tolerance of the [`LinearSolver::Auto`] Krylov solve.
/// Measured on the 40×30 fig4 grid: 1e-3 takes 8 Newton iterations on
/// every pattern (79 ms per solve); 1e-2 takes 9 (73 ms); 1e-1 takes 10
/// (67 ms) and moves the envelope by 8.6e-8 V; 1e-8 doubles the time and
/// saves no iteration. An Eisenstat–Walker forcing term (choice 2,
/// γ = 0.9, α = 2) took 82–99 ms and 9–10.6 iterations.
const KRYLOV_RTOL: f64 = 1e-3;

/// Restart length of the [`LinearSolver::Auto`] Krylov solve. Restart 60
/// measured the same on fig4 (81.4 vs 81.7 ms per solve); 30 holds half
/// the basis.
const KRYLOV_RESTART: usize = 30;

/// Matvec cap per [`LinearSolver::Auto`] linear solve. fig4 needs about
/// 8.7 per Newton step, so an attempt that is going to fail is cut off
/// cheaply and falls back to direct LU.
const KRYLOV_MAX_MATVECS: usize = 300;

/// What [`LinearSolver::Auto`] means for a `dim`-unknown Jacobian that
/// declares `block_size`.
fn resolve_auto(dim: usize, block_size: Option<usize>) -> LinearSolver {
    match block_size {
        Some(block_size) if dim >= KRYLOV_MIN_DIM => LinearSolver::GmresBlockJacobi {
            block_size,
            rtol: KRYLOV_RTOL,
            restart: KRYLOV_RESTART,
            max_iters: KRYLOV_MAX_MATVECS,
        },
        _ => LinearSolver::Direct,
    }
}

/// Where a fresh Jacobian is: in the caller's triplets (the triplet
/// route), or already in the workspace's CSR matrix (the compiled route,
/// [`NewtonSystem::residual_and_compiled_jacobian`]).
#[derive(Debug, Clone, Copy)]
enum Jacobian<'a> {
    Triplets(&'a Triplets),
    Compiled,
}

impl LinearSolver {
    /// Solves one fresh Newton system. A Krylov breakdown falls back to
    /// direct LU, counts one `direct_fallbacks` and turns `self` into
    /// [`LinearSolver::Direct`], so a failing Krylov attempt is paid once
    /// per Newton solve.
    fn solve_with(
        &mut self,
        ws: &mut LinearSolverWorkspace,
        jac: Jacobian<'_>,
        rhs: &[f64],
        budget: &SolveBudget,
    ) -> Result<Vec<f64>> {
        debug_assert!(*self != LinearSolver::Auto, "resolved before solving");
        if let LinearSolver::GmresBlockJacobi {
            block_size,
            rtol,
            restart,
            max_iters,
        } = *self
        {
            let opts = GmresOptions {
                rtol,
                restart,
                max_iters,
            };
            if let Some(x) = ws.solve_block_jacobi(jac, rhs, block_size, opts, budget)? {
                return Ok(x);
            }
            ws.stats.direct_fallbacks += 1;
            *self = LinearSolver::Direct;
        }
        ws.solve_direct(jac, rhs)
    }
}

/// Counters describing how much structural work a
/// [`LinearSolverWorkspace`] avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Full factorisations (ordering + symbolic reach + pivot search).
    pub full_factorizations: usize,
    /// Numeric-only refactorisations through the cached symbolic structure.
    pub refactorizations: usize,
    /// Refactorisations whose recorded pivot vanished and that fell back
    /// to a full factorisation (also counted in `full_factorizations`).
    pub full_fallbacks: usize,
    /// Times the Jacobian's pattern changed (once per structure in the
    /// steady state): a triplet-route slot map (re)built because the
    /// stamp sequence changed, or the CSR matrix re-created for a
    /// compiled Jacobian's pattern.
    pub pattern_rebuilds: usize,
    /// Chord (modified-Newton) solves reusing the last factors outright.
    pub cached_solves: usize,
    /// Successful preconditioned-Krylov solves.
    pub iterative_solves: usize,
    /// Matrix–vector products of those solves (their
    /// [`GmresStats::iterations`](rfsim_numerics::krylov::GmresStats)).
    pub krylov_matvecs: usize,
    /// Krylov breakdowns recovered by the shared direct path.
    pub direct_fallbacks: usize,
    /// In-place numeric refreshes of a cached block-Jacobi
    /// preconditioner (no allocation).
    pub precond_refreshes: usize,
    /// Preconditioner (re)builds from scratch (first use, structural
    /// change, or recovery from a refresh breakdown).
    pub precond_rebuilds: usize,
    /// Fallback rungs entered through
    /// [`fall_back`](crate::driver::fall_back): rungs beyond a solve's
    /// first attempt (a solve that converges first try counts 0).
    pub rung_attempts: usize,
    /// Fallback rungs that produced the accepted solution: solves
    /// rescued by a fallback rung.
    pub rung_successes: usize,
}

impl WorkspaceStats {
    /// Adds `other`'s counters into `self` — the aggregation the sweep
    /// engine uses to roll per-workspace counters up to batch level.
    pub fn absorb(&mut self, other: &WorkspaceStats) {
        let WorkspaceStats {
            full_factorizations,
            refactorizations,
            full_fallbacks,
            pattern_rebuilds,
            cached_solves,
            iterative_solves,
            krylov_matvecs,
            direct_fallbacks,
            precond_refreshes,
            precond_rebuilds,
            rung_attempts,
            rung_successes,
        } = other;
        self.full_factorizations += full_factorizations;
        self.refactorizations += refactorizations;
        self.full_fallbacks += full_fallbacks;
        self.pattern_rebuilds += pattern_rebuilds;
        self.cached_solves += cached_solves;
        self.iterative_solves += iterative_solves;
        self.krylov_matvecs += krylov_matvecs;
        self.direct_fallbacks += direct_fallbacks;
        self.precond_refreshes += precond_refreshes;
        self.precond_rebuilds += precond_rebuilds;
        self.rung_attempts += rung_attempts;
        self.rung_successes += rung_successes;
    }
}

/// Reusable linear-solver state for Newton iterations over a fixed-pattern
/// Jacobian.
///
/// A fresh Jacobian reaches the workspace by one of two routes:
///
/// * **Triplet route.** The system pushes triplets
///   ([`NewtonSystem::residual_and_jacobian`]); cached slot maps scatter
///   them in place into the CSR matrix (Krylov path) or the CSC matrix
///   (direct path), verifying every stamp position.
/// * **Compiled route.** A system that compiled its Jacobian's CSR pattern
///   writes the values straight into the workspace's CSR matrix
///   ([`NewtonSystem::residual_and_compiled_jacobian`], the MPDE grid).
///   The Krylov path reads that matrix directly; the direct path gathers
///   its CSC values through a CSR→CSC slot map built once per pattern.
///
/// Either way the sparse LU factors keep their symbolic structure for
/// numeric-only refactorisation, and the block-Jacobi preconditioner is
/// refreshed in place. Safe for *any* sequence of systems and routes: a
/// structural change is detected (the slot maps verify every stamp
/// position, a compiled pattern is compared outright, the factor stores
/// and compares the exact pattern), and a switch of route drops the other
/// route's slot maps, so each is answered by a transparent rebuild rather
/// than a wrong solve.
#[derive(Debug, Default)]
pub struct LinearSolverWorkspace {
    /// Triplets → CSC on the triplet route, CSR → CSC on the compiled one.
    csc_assembly: Option<CscAssembly>,
    csc: Option<CscMatrix>,
    lu: Option<SparseLu>,
    /// Triplets → CSR (triplet route only).
    csr_assembly: Option<CsrAssembly>,
    csr: Option<CsrMatrix>,
    /// Whether the last fresh Jacobian took the compiled route (and the
    /// slot maps belong to it).
    compiled: bool,
    /// Cached block-Jacobi preconditioner, refreshed in place per solve
    /// while the dimensions and block size hold.
    block_jacobi: Option<BlockJacobiPrecond>,
    /// Reuse counters (diagnostics; cheap to read, never reset internally).
    pub stats: WorkspaceStats,
}

impl LinearSolverWorkspace {
    /// Creates an empty workspace; caches fill in on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the slot maps when the Jacobian arrives by the other route
    /// than the one they were built for.
    fn enter_route(&mut self, compiled: bool) {
        if self.compiled != compiled {
            self.compiled = compiled;
            self.csc_assembly = None;
            self.csr_assembly = None;
        }
    }

    /// Takes a compiled Jacobian that `recreated` (or not) the CSR matrix
    /// with a new pattern: a re-creation counts one pattern rebuild and
    /// drops what describes the old pattern.
    fn accept_compiled(&mut self, recreated: bool) {
        self.enter_route(true);
        if recreated {
            self.stats.pattern_rebuilds += 1;
            self.block_jacobi = None;
            self.csc_assembly = None;
        }
    }

    /// Brings the cached CSC matrix up to date with `jac`, rebuilding its
    /// slot map on structural change: a triplet scatter, or the compiled
    /// CSR matrix's values gathered through a CSR→CSC map.
    fn assemble_csc(&mut self, jac: Jacobian<'_>) -> &CscMatrix {
        match jac {
            Jacobian::Triplets(t) => {
                if CscAssembly::assemble_cached(&mut self.csc_assembly, &mut self.csc, t) {
                    self.stats.pattern_rebuilds += 1;
                    // The factor's symbolic structure describes the old
                    // pattern.
                    self.lu = None;
                }
            }
            Jacobian::Compiled => {
                let csr = self.csr.as_ref().expect("written by the compiled route");
                if self.csc_assembly.is_none() {
                    let asm = CscAssembly::of_csr(csr);
                    self.csc = Some(asm.zero_matrix());
                    self.csc_assembly = Some(asm);
                    self.lu = None;
                }
                let asm = self.csc_assembly.as_ref().expect("built above");
                asm.scatter_values(csr.data(), self.csc.as_mut().expect("built with the map"));
            }
        }
        self.csc.as_ref().expect("assembled above")
    }

    /// Brings the cached CSR matrix up to date with `jac` (Krylov path:
    /// matvecs and preconditioner construction). Triplets scatter through
    /// the slot map, rebuilt on structural change; a compiled Jacobian is
    /// already there.
    fn assemble_csr(&mut self, jac: Jacobian<'_>) -> &CsrMatrix {
        if let Jacobian::Triplets(t) = jac {
            if CsrAssembly::assemble_cached(&mut self.csr_assembly, &mut self.csr, t) {
                self.stats.pattern_rebuilds += 1;
                // The cached preconditioner describes the old pattern.
                self.block_jacobi = None;
            }
        }
        self.csr.as_ref().expect("assembled above")
    }

    /// Assembles `jac` and brings the cached block-Jacobi preconditioner
    /// up to date with it (in-place refresh while dimensions and block
    /// size hold, rebuild otherwise).
    ///
    /// # Errors
    ///
    /// Propagates a singular diagonal block; the caller falls back to the
    /// direct path.
    fn block_jacobi_ready(&mut self, jac: Jacobian<'_>, block_size: usize) -> Result<()> {
        self.assemble_csr(jac);
        let csr = self.csr.as_ref().expect("assembled above");
        match &mut self.block_jacobi {
            Some(bj) if bj.block_size() == block_size && bj.matches(csr) => {
                if let Err(e) = bj.refactor_in_place(csr) {
                    self.block_jacobi = None;
                    return Err(e.into());
                }
                self.stats.precond_refreshes += 1;
            }
            _ => {
                self.block_jacobi = Some(BlockJacobiPrecond::new(csr, block_size)?);
                self.stats.precond_rebuilds += 1;
            }
        }
        Ok(())
    }

    /// GMRES + block-Jacobi on `jac`, or `None` when the preconditioner
    /// refresh or GMRES breaks down (the caller falls back to direct LU).
    ///
    /// # Errors
    ///
    /// Only an interruption: a control-plane stop, not a breakdown, so it
    /// propagates instead of triggering the direct fallback.
    fn solve_block_jacobi(
        &mut self,
        jac: Jacobian<'_>,
        rhs: &[f64],
        block_size: usize,
        opts: GmresOptions,
        budget: &SolveBudget,
    ) -> Result<Option<Vec<f64>>> {
        if self.block_jacobi_ready(jac, block_size).is_err() {
            return Ok(None);
        }
        let csr = self.csr.as_ref().expect("assembled by block_jacobi_ready");
        let pre = self
            .block_jacobi
            .as_ref()
            .expect("refreshed by block_jacobi_ready");
        let x0 = vec![0.0; rhs.len()];
        match gmres_budgeted(csr, pre, rhs, &x0, opts, budget) {
            Ok((x, gmres)) => {
                self.stats.iterative_solves += 1;
                self.stats.krylov_matvecs += gmres.iterations;
                Ok(Some(x))
            }
            Err(NumericsError::Interrupted(i)) => Err(i.into()),
            Err(_) => Ok(None),
        }
    }

    /// The shared direct-LU path: in-place assembly, numeric-only
    /// refactorisation when the cached symbolic structure still applies,
    /// full factorisation otherwise (first use, or a recorded pivot that
    /// vanished). Used by [`LinearSolver::Direct`] and as the Krylov
    /// fallback.
    fn solve_direct(&mut self, jac: Jacobian<'_>, rhs: &[f64]) -> Result<Vec<f64>> {
        self.assemble_csc(jac);
        let csc = self.csc.as_ref().expect("assembled above");
        match &mut self.lu {
            Some(lu) => match lu.refactor_in_place(csc) {
                Ok(()) => self.stats.refactorizations += 1,
                Err(_) => {
                    // A vanished pivot (or stale structure): fall back to
                    // a full factorisation, free to repivot.
                    *lu = SparseLu::factor(csc, LuOptions::default())?;
                    self.stats.full_factorizations += 1;
                    self.stats.full_fallbacks += 1;
                }
            },
            None => {
                self.lu = Some(SparseLu::factor(csc, LuOptions::default())?);
                self.stats.full_factorizations += 1;
            }
        }
        Ok(self.lu.as_ref().expect("factored above").solve(rhs))
    }

    /// Solves against the *last* factorisation without refactoring
    /// (chord/modified-Newton steps). `None` if nothing is factored yet.
    fn solve_cached(&mut self, rhs: &[f64]) -> Option<Vec<f64>> {
        let lu = self.lu.as_ref()?;
        self.stats.cached_solves += 1;
        Some(lu.solve(rhs))
    }

    /// Whether a direct factorisation is available for chord reuse.
    pub fn has_factors(&self) -> bool {
        self.lu.is_some()
    }
}

/// A nonlinear algebraic system `F(x) = 0` with a sparse Jacobian.
pub trait NewtonSystem {
    /// Problem dimension.
    fn dim(&self) -> usize;

    /// Evaluates `F(x)` into `out`.
    fn residual(&self, x: &[f64], out: &mut [f64]);

    /// Evaluates `F(x)` into `out` and its Jacobian into `jac`
    /// (`jac` arrives empty): the triplet route.
    fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets);

    /// The compiled route, for a system that compiled its Jacobian's CSR
    /// pattern once: evaluates `F(x)` into `out` and writes the Jacobian
    /// into `jac`, the workspace's CSR matrix, first re-creating it with
    /// the compiled pattern when it is absent or holds another pattern.
    ///
    /// The default returns `None`, meaning "no compiled Jacobian": it
    /// touches nothing, and Newton takes the triplet route through
    /// [`NewtonSystem::residual_and_jacobian`]. A forwarding wrapper that
    /// does not forward this method therefore takes the triplet route.
    fn residual_and_compiled_jacobian(
        &self,
        _x: &[f64],
        _out: &mut [f64],
        _jac: &mut Option<CsrMatrix>,
    ) -> Option<CompiledJacobian> {
        None
    }
}

/// What [`NewtonSystem::residual_and_compiled_jacobian`] reports about the
/// Jacobian it wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledJacobian {
    /// The diagonal block size, as [`Triplets::declare_block_size`]
    /// declares it on the triplet route.
    pub block_size: Option<usize>,
    /// Whether the matrix was (re)created because it was absent or held
    /// another pattern.
    pub recreated: bool,
}

/// Relative tolerance on a Newton update (and, with [`ABSTOL_V`], the
/// weight of transient's local-truncation-error estimate and of
/// shooting's periodicity test).
pub const RELTOL: f64 = 1e-3;

/// Absolute update tolerance for voltage-like unknowns (volts).
pub const ABSTOL_V: f64 = 1e-6;

/// Absolute update tolerance for current-like unknowns (amperes).
const ABSTOL_I: f64 = 1e-9;

/// Residual 2-norm below which a line-search trial is always accepted and
/// a damped step, a chord step or a stagnated iteration may count as
/// converged: the guard against converging updates on a stagnated
/// residual. Set generously.
const RESIDUAL_TOL: f64 = 1e-6;

/// Per-iteration clamp on voltage-unknown updates (volts). Plays the
/// role of SPICE's junction limiting: exponential devices (diode, BJT)
/// otherwise provoke multi-hundred-volt Newton overshoots whose
/// backtracked steps cycle without converging. Applied per component
/// before the line search; current unknowns are not clamped.
const MAX_VOLTAGE_STEP: f64 = 2.0;

/// Options for [`newton_solve_budgeted`].
#[derive(Debug, Clone, Copy)]
pub struct NewtonOptions {
    /// Maximum Newton iterations.
    pub max_iters: usize,
    /// Linear-solver strategy for the Newton updates.
    pub linear: LinearSolver,
    /// Chord (modified-Newton) steps: after each fresh Jacobian
    /// factorisation, reuse the factors for up to this many further
    /// iterations. Convergence is only declared on a fresh-Jacobian step,
    /// so accuracy is unaffected; large sparse systems (the MPDE grids)
    /// typically gain 2–3× wall clock. Only applies to direct LU steps:
    /// [`LinearSolver::Direct`], [`LinearSolver::Auto`] when it resolves
    /// to direct, and the rest of a solve after a Krylov fallback.
    pub jacobian_reuse: usize,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iters: 100,
            linear: LinearSolver::Direct,
            jacobian_reuse: 0,
        }
    }
}

/// Statistics from a Newton solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonStats {
    /// Newton iterations performed.
    pub iterations: usize,
    /// Final residual 2-norm.
    pub residual: f64,
    /// Whether damping was ever engaged.
    pub damped: bool,
}

/// Solves `F(x) = 0` by damped Newton under a [`SolveBudget`]: the one
/// Newton entry point, and the solve control plane's entry into the
/// Newton core.
///
/// `kinds` selects the absolute tolerance per unknown; pass an empty slice
/// to treat every unknown as voltage-like.
///
/// Passing the same [`LinearSolverWorkspace`] to a sequence of solves over
/// the same circuit structure (transient timesteps, gmin/source-stepping
/// rungs, continuation steps, shooting sweeps) reuses the assembly slot
/// maps and the symbolic LU across *all* of them: after the very first
/// iteration of the first solve, every direct linear solve is a numeric
/// refactorisation. Pass [`SolveBudget::unlimited`] for an unbudgeted
/// solve.
///
/// The budget is polled cooperatively: at the top of every iteration, at
/// every damping (line-search) trial, and — through
/// [`rfsim_numerics::krylov::gmres_budgeted`] — inside the Krylov inner
/// loops of the iterative linear solvers, so cancellation latency is
/// bounded by one residual evaluation or one matvec, not one full solve.
///
/// Interruption is a clean exit: the workspace keeps its cached
/// structure and factors, fully reusable by the next solve.
///
/// # Errors
///
/// * [`CircuitError::Interrupted`] when the budget fires.
/// * [`CircuitError::ConvergenceFailure`] if the iteration budget is
///   exhausted.
/// * [`CircuitError::Diverged`] if every damping trial of some step
///   produces a non-finite residual — the iterate is left untouched and
///   the error returns immediately, never after `max_iters` of NaN.
/// * [`CircuitError::Numerics`] if the Jacobian is singular.
pub fn newton_solve_budgeted<S: NewtonSystem>(
    system: &S,
    x0: &[f64],
    kinds: &[UnknownKind],
    options: NewtonOptions,
    workspace: &mut LinearSolverWorkspace,
    budget: &SolveBudget,
) -> Result<(Vec<f64>, NewtonStats)> {
    let mut meter = budget.meter();
    let n = system.dim();
    let mut x = x0.to_vec();
    let mut residual = vec![0.0; n];
    let mut trial = vec![0.0; n];
    let mut trial_res = vec![0.0; n];
    // Allocated the first time the triplet route runs.
    let mut triplets: Option<Triplets> = None;
    let mut neg_f = vec![0.0; n];
    let mut scaled_dx = vec![0.0; n];
    let mut damped = false;
    let mut stagnant = 0usize;
    let mut prev_norm = f64::INFINITY;

    // The linear solver of this solve: `Auto` is resolved at the first
    // fresh Jacobian, and a Krylov breakdown turns it direct.
    let mut linear = options.linear;
    // Chord (modified-Newton) state: how many more iterations may reuse
    // the workspace's last factorisation outright.
    let mut chord_enabled = options.jacobian_reuse > 0 && linear == LinearSolver::Direct;
    let mut chord_left = 0usize;

    system.residual(&x, &mut residual);
    let mut res_norm = norm2(&residual);

    for iter in 1..=options.max_iters {
        meter.check()?;
        let fresh = !(chord_enabled && chord_left > 0 && workspace.has_factors());
        if fresh {
            let block_size = match system.residual_and_compiled_jacobian(
                &x,
                &mut residual,
                &mut workspace.csr,
            ) {
                Some(answer) => {
                    workspace.accept_compiled(answer.recreated);
                    answer.block_size
                }
                None => {
                    workspace.enter_route(false);
                    let jac = triplets.get_or_insert_with(|| Triplets::with_capacity(n, n, 16 * n));
                    jac.clear();
                    system.residual_and_jacobian(&x, &mut residual, jac);
                    jac.block_size()
                }
            };
            if linear == LinearSolver::Auto {
                linear = resolve_auto(n, block_size);
                chord_enabled = options.jacobian_reuse > 0 && linear == LinearSolver::Direct;
            }
            if chord_enabled {
                chord_left = options.jacobian_reuse;
            }
        } else {
            system.residual(&x, &mut residual);
            chord_left -= 1;
        }
        res_norm = norm2(&residual);

        // Newton step: J·dx = −F.
        for (nf, r) in neg_f.iter_mut().zip(&residual) {
            *nf = -r;
        }
        let mut dx = if fresh {
            let krylov = linear != LinearSolver::Direct;
            // The route the last fresh Jacobian took.
            let jac = match &triplets {
                Some(t) if !workspace.compiled => Jacobian::Triplets(t),
                _ => Jacobian::Compiled,
            };
            let dx = match linear.solve_with(workspace, jac, &neg_f, budget) {
                Ok(dx) => dx,
                // Re-stamp an inner-loop interruption with outer
                // (Newton-level) iteration context before reporting.
                Err(CircuitError::Interrupted(i)) => return Err(meter.interrupt(i.reason).into()),
                Err(e) => return Err(e),
            };
            if krylov && linear == LinearSolver::Direct {
                // The Krylov attempt fell back: the rest of this solve is
                // direct, with chord reuse of the factors just computed.
                chord_enabled = options.jacobian_reuse > 0;
                chord_left = options.jacobian_reuse;
            }
            dx
        } else {
            // The fresh-step decision above checked `has_factors()`, but a
            // missing factorisation here must degrade to a typed error,
            // not a panic: a rung transition or interrupt handler that
            // cleared the workspace between iterations would otherwise
            // take the whole scheduler thread down with it.
            chord_solve(workspace, &neg_f)?
        };
        // Voltage-update limiting (junction limiting): clamp per component
        // so one over-eager exponential cannot poison the whole step.
        for (d, kind) in dx.iter_mut().zip(kinds) {
            if *kind == UnknownKind::NodeVoltage {
                *d = d.clamp(-MAX_VOLTAGE_STEP, MAX_VOLTAGE_STEP);
            }
        }

        // Damped backtracking line search on the residual norm: halve α
        // down to 1e-15 if necessary (stiff exponentials can demand
        // microscopic first steps). The convergence test below counts
        // α ≥ 0.99 as an undamped step.
        let mut alpha: f64 = 1.0;
        let mut accepted = false;
        let mut best: Option<(f64, f64)> = None; // (alpha, norm)
        while alpha >= 1e-15 {
            for i in 0..n {
                trial[i] = x[i] + alpha * dx[i];
            }
            system.residual(&trial, &mut trial_res);
            let trial_norm = norm2(&trial_res);
            if trial_norm.is_finite() {
                if trial_norm < res_norm || trial_norm < RESIDUAL_TOL {
                    accepted = true;
                    break;
                }
                if best.is_none_or(|(_, bn)| trial_norm < bn) {
                    best = Some((alpha, trial_norm));
                }
            }
            alpha *= 0.5;
            damped = true;
            // Damping trials each cost a residual evaluation — on big
            // grid systems that is where a hung solve spends its time,
            // so cancellation is polled per trial.
            meter.check()?;
        }
        if !accepted {
            if !fresh {
                // A stale-Jacobian step failed its line search: discard it
                // and refactor next iteration instead of limping forward.
                chord_left = 0;
                continue;
            }
            // No improving step found: take the least-bad *finite* trial
            // to keep moving (Newton sometimes must climb a residual
            // ridge). If every trial residual was non-finite there is no
            // such trial — committing one anyway would overwrite `x` with
            // a NaN/Inf iterate that the stagnation counter cannot see
            // (`NaN >= anything` is false, so it resets every iteration)
            // and the solve would burn the rest of `max_iters` at NaN.
            // That is divergence: report it as the typed ladder signal.
            let Some((best_alpha, _)) = best else {
                return Err(CircuitError::Diverged {
                    analysis: "newton".into(),
                    iterations: iter,
                    best_residual: if res_norm.is_finite() {
                        res_norm.min(meter.best_residual())
                    } else {
                        meter.best_residual()
                    },
                });
            };
            alpha = best_alpha;
            for i in 0..n {
                trial[i] = x[i] + alpha * dx[i];
            }
            system.residual(&trial, &mut trial_res);
            damped = true;
        }
        x.copy_from_slice(&trial);
        res_norm = norm2(&trial_res);

        // Convergence: weighted update norm ≤ 1, and either the step was
        // essentially undamped (quadratic regime) or the residual itself is
        // small. A heavily damped tiny step must not masquerade as
        // convergence.
        for (s, d) in scaled_dx.iter_mut().zip(&dx) {
            *s = alpha * d;
        }
        let ratio = weighted_update_ratio(&scaled_dx, &x, kinds);
        // Stagnation at the linear-solver noise floor: if the residual sits
        // below `RESIDUAL_TOL` and stops improving, the update criterion can
        // chatter forever on ill-scaled unknowns — accept.
        if res_norm >= 0.999 * prev_norm {
            stagnant += 1;
        } else {
            stagnant = 0;
        }
        prev_norm = res_norm;
        let stagnated_converged = stagnant >= 3 && res_norm <= RESIDUAL_TOL;
        let would_converge = stagnated_converged
            || (ratio <= 1.0
                && res_norm.is_finite()
                && (alpha >= 0.99 || res_norm <= RESIDUAL_TOL));
        if would_converge {
            if fresh || res_norm <= RESIDUAL_TOL {
                return Ok((
                    x,
                    NewtonStats {
                        iterations: iter,
                        residual: res_norm,
                        damped,
                    },
                ));
            }
            // A chord step looks converged: confirm with a fresh Jacobian.
            chord_left = 0;
        }
        meter.note_iteration(res_norm)?;
    }
    Err(CircuitError::ConvergenceFailure {
        analysis: "newton".into(),
        iterations: options.max_iters,
        residual: res_norm,
    })
}

/// A chord (modified-Newton) linear solve through the workspace's cached
/// factors, as a typed error rather than a panic when the factors are
/// gone. Unreachable in today's single-threaded iteration (the fresh-step
/// decision pre-checks [`LinearSolverWorkspace::has_factors`]), but the
/// failure mode must stay an error: the serve scheduler treats a panic as
/// a bug, not weather.
fn chord_solve(workspace: &mut LinearSolverWorkspace, neg_f: &[f64]) -> Result<Vec<f64>> {
    workspace
        .solve_cached(neg_f)
        .ok_or_else(|| CircuitError::Structural {
            context: "chord step requested but the workspace holds no cached factors \
                      (cleared between the reuse decision and the solve)"
                .into(),
        })
}

/// Weighted update ratio with per-kind absolute tolerances.
///
/// Contract: `kinds` is either empty — every unknown is then judged
/// against the *voltage* tolerance [`ABSTOL_V`], which is only correct for
/// systems with no branch-current unknowns (scalar test systems, pure
/// nodal reductions) — or it names every unknown. All production
/// backends thread real kinds (`Circuit::unknown_kinds` et al.); the
/// empty-slice path exists for kind-less callers that own that
/// trade-off.
fn weighted_update_ratio(dx: &[f64], x: &[f64], kinds: &[UnknownKind]) -> f64 {
    debug_assert!(
        kinds.is_empty() || kinds.len() == dx.len(),
        "kinds must be empty (all-voltage tolerances) or cover every unknown \
         ({} kinds for {} unknowns)",
        kinds.len(),
        dx.len()
    );
    if kinds.is_empty() {
        return wrms_ratio(dx, x, RELTOL, ABSTOL_V);
    }
    dx.iter()
        .zip(x)
        .zip(kinds)
        .map(|((&d, &xi), kind)| {
            let abstol = match kind {
                UnknownKind::NodeVoltage => ABSTOL_V,
                UnknownKind::BranchCurrent => ABSTOL_I,
            };
            d.abs() / (RELTOL * xi.abs() + abstol)
        })
        .fold(0.0_f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An unbudgeted solve through `ws`, every unknown voltage-like.
    fn solve_in<S: NewtonSystem>(
        system: &S,
        x0: &[f64],
        options: NewtonOptions,
        ws: &mut LinearSolverWorkspace,
    ) -> Result<(Vec<f64>, NewtonStats)> {
        newton_solve_budgeted(system, x0, &[], options, ws, &SolveBudget::unlimited())
    }

    /// [`solve_in`] on a fresh workspace.
    fn solve<S: NewtonSystem>(
        system: &S,
        x0: &[f64],
        options: NewtonOptions,
    ) -> Result<(Vec<f64>, NewtonStats)> {
        solve_in(system, x0, options, &mut LinearSolverWorkspace::new())
    }

    /// Scalar test system: x² − 4 = 0.
    struct Quadratic;

    impl NewtonSystem for Quadratic {
        fn dim(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) {
            out[0] = x[0] * x[0] - 4.0;
        }
        fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
            self.residual(x, out);
            jac.push(0, 0, 2.0 * x[0]);
        }
    }

    /// 2-D Rosenbrock-gradient-like system with coupling.
    struct Coupled;

    impl NewtonSystem for Coupled {
        fn dim(&self) -> usize {
            2
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) {
            out[0] = x[0] + x[1] - 3.0;
            out[1] = x[0] * x[1] - 2.0;
        }
        fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
            self.residual(x, out);
            jac.push(0, 0, 1.0);
            jac.push(0, 1, 1.0);
            jac.push(1, 0, x[1]);
            jac.push(1, 1, x[0]);
        }
    }

    #[test]
    fn solves_quadratic() {
        let (x, stats) = solve(&Quadratic, &[3.0], NewtonOptions::default()).expect("newton");
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!(stats.iterations < 10);
    }

    #[test]
    fn solves_coupled_system() {
        let (x, _) = solve(&Coupled, &[2.5, 0.1], NewtonOptions::default()).expect("newton");
        // Roots: (1, 2) or (2, 1). The update-based convergence criterion
        // guarantees ~reltol·|x| accuracy, not machine precision.
        let ok = (x[0] - 1.0).abs() < 1e-4 && (x[1] - 2.0).abs() < 1e-4
            || (x[0] - 2.0).abs() < 1e-4 && (x[1] - 1.0).abs() < 1e-4;
        assert!(ok, "got {x:?}");
    }

    #[test]
    fn quadratic_convergence_rate() {
        // From a good starting point, Newton on x²−4 should converge in
        // very few iterations.
        let (_, stats) = solve(&Quadratic, &[2.1], NewtonOptions::default()).expect("newton");
        assert!(stats.iterations <= 4, "iterations = {}", stats.iterations);
        assert!(!stats.damped);
    }

    #[test]
    fn iteration_budget_enforced() {
        let opts = NewtonOptions {
            max_iters: 1,
            ..Default::default()
        };
        assert!(matches!(
            solve(&Quadratic, &[100.0], opts),
            Err(CircuitError::ConvergenceFailure { .. })
        ));
    }

    /// Finite residual only at the starting point: every damping trial,
    /// however small the step, lands on NaN. Committing the least-bad
    /// trial anyway would poison `x` and burn `max_iters` at NaN (the
    /// stagnation counter cannot fire on NaN).
    struct NaNRidge;

    impl NewtonSystem for NaNRidge {
        fn dim(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) {
            out[0] = if x[0] == 0.0 { 1.0 } else { f64::NAN };
        }
        fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
            self.residual(x, out);
            jac.push(0, 0, 1.0);
        }
    }

    #[test]
    fn non_finite_damping_trials_return_typed_divergence() {
        let err =
            solve(&NaNRidge, &[0.0], NewtonOptions::default()).expect_err("no finite step exists");
        match err {
            CircuitError::Diverged {
                analysis,
                iterations,
                best_residual,
            } => {
                assert_eq!(analysis, "newton");
                // Detected the moment the line search exhausts — far
                // inside the iteration budget, not after max_iters of NaN.
                assert_eq!(iterations, 1);
                assert!(
                    iterations < NewtonOptions::default().max_iters,
                    "divergence must not burn the whole budget"
                );
                // No finite residual was ever accepted.
                assert!(best_residual.is_infinite() || best_residual == 1.0);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn divergence_does_not_commit_nan_iterate() {
        // Run through a caller-owned workspace too, and assert the error
        // is recoverable (ladder fuel), not an interruption.
        let mut ws = LinearSolverWorkspace::new();
        let err =
            solve_in(&NaNRidge, &[0.0], NewtonOptions::default(), &mut ws).expect_err("diverges");
        assert!(err.is_recoverable());
        assert!(!err.is_interrupted());
    }

    #[test]
    fn chord_solve_without_factors_is_a_typed_error() {
        let mut ws = LinearSolverWorkspace::new();
        assert!(!ws.has_factors());
        let err = chord_solve(&mut ws, &[1.0]).expect_err("no factors cached");
        assert!(
            matches!(err, CircuitError::Structural { .. }),
            "got {err:?}"
        );
        assert!(
            !err.is_recoverable(),
            "a cleared workspace is a bug, not weather"
        );
    }

    #[test]
    fn damping_rescues_overshoot() {
        // Steep exponential-style system where a full Newton step overshoots.
        struct Exponential;
        impl NewtonSystem for Exponential {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, x: &[f64], out: &mut [f64]) {
                out[0] = x[0].clamp(-700.0, 700.0).exp() - 1.0;
            }
            fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
                self.residual(x, out);
                jac.push(0, 0, x[0].clamp(-700.0, 700.0).exp());
            }
        }
        let (x, _) = solve(&Exponential, &[-30.0], NewtonOptions::default()).expect("newton");
        assert!(x[0].abs() < 1e-4, "root of e^x−1 is 0, got {}", x[0]);
    }

    #[test]
    fn chord_newton_matches_full_newton() {
        let full = solve(&Coupled, &[2.5, 0.1], NewtonOptions::default()).expect("full newton");
        let chord = solve(
            &Coupled,
            &[2.5, 0.1],
            NewtonOptions {
                jacobian_reuse: 3,
                ..Default::default()
            },
        )
        .expect("chord newton");
        assert!((full.0[0] - chord.0[0]).abs() < 1e-4);
        assert!((full.0[1] - chord.0[1]).abs() < 1e-4);
    }

    #[test]
    fn chord_newton_solves_stiff_exponential() {
        struct Exponential;
        impl NewtonSystem for Exponential {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, x: &[f64], out: &mut [f64]) {
                out[0] = x[0].clamp(-700.0, 700.0).exp() - 1.0;
            }
            fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
                self.residual(x, out);
                jac.push(0, 0, x[0].clamp(-700.0, 700.0).exp());
            }
        }
        let (x, _) = solve(
            &Exponential,
            &[3.0],
            NewtonOptions {
                jacobian_reuse: 4,
                ..Default::default()
            },
        )
        .expect("chord on exponential");
        assert!(x[0].abs() < 1e-4, "got {}", x[0]);
    }

    #[test]
    fn workspace_reuses_symbolic_across_solves() {
        let mut ws = LinearSolverWorkspace::new();
        let (x1, _) = solve_in(&Coupled, &[2.5, 0.1], NewtonOptions::default(), &mut ws)
            .expect("first solve");
        // One structural setup, then numeric-only refactorisations.
        assert_eq!(ws.stats.full_factorizations, 1);
        assert_eq!(ws.stats.pattern_rebuilds, 1);
        assert!(ws.stats.refactorizations >= 1);
        let refactors_after_first = ws.stats.refactorizations;
        let (x2, _) = solve_in(&Coupled, &[2.0, 0.5], NewtonOptions::default(), &mut ws)
            .expect("second solve");
        assert_eq!(
            ws.stats.full_factorizations, 1,
            "second solve must not redo symbolic work"
        );
        assert_eq!(ws.stats.pattern_rebuilds, 1);
        assert!(ws.stats.refactorizations > refactors_after_first);
        // Both solves land on a root.
        for x in [&x1, &x2] {
            let ok = (x[0] - 1.0).abs() < 1e-3 && (x[1] - 2.0).abs() < 1e-3
                || (x[0] - 2.0).abs() < 1e-3 && (x[1] - 1.0).abs() < 1e-3;
            assert!(ok, "got {x:?}");
        }
    }

    #[test]
    fn vanished_pivot_falls_back_to_a_full_factor() {
        // RCM orders `Coupled`'s column 1 first and pivots it on the
        // (1, 1) entry x0. A second solve from x0 = 0 kills that pivot on
        // the same pattern: the workspace must repivot with one full
        // factor and then solve exactly as a fresh workspace does.
        let mut ws = LinearSolverWorkspace::new();
        solve_in(&Coupled, &[2.5, 0.1], NewtonOptions::default(), &mut ws).expect("first");
        assert_eq!(ws.stats.full_fallbacks, 0, "{:?}", ws.stats);
        let (x, stats) =
            solve_in(&Coupled, &[0.0, 3.0], NewtonOptions::default(), &mut ws).expect("second");
        assert_eq!(ws.stats.full_fallbacks, 1, "{:?}", ws.stats);
        assert_eq!(ws.stats.full_factorizations, 2, "{:?}", ws.stats);
        assert_eq!(ws.stats.pattern_rebuilds, 1, "{:?}", ws.stats);
        let (x_fresh, stats_fresh) =
            solve(&Coupled, &[0.0, 3.0], NewtonOptions::default()).expect("fresh");
        assert_eq!(bits(&x), bits(&x_fresh));
        assert_eq!(stats, stats_fresh);
    }

    #[test]
    fn workspace_chord_counts_cached_solves() {
        let mut ws = LinearSolverWorkspace::new();
        let opts = NewtonOptions {
            jacobian_reuse: 3,
            ..Default::default()
        };
        let (x, _) = solve_in(&Coupled, &[2.5, 0.1], opts, &mut ws).expect("chord newton");
        let ok = (x[0] - 1.0).abs() < 1e-3 && (x[1] - 2.0).abs() < 1e-3
            || (x[0] - 2.0).abs() < 1e-3 && (x[1] - 1.0).abs() < 1e-3;
        assert!(ok, "got {x:?}");
        assert!(
            ws.stats.cached_solves >= 1,
            "chord steps should reuse factors: {:?}",
            ws.stats
        );
    }

    #[test]
    fn workspace_survives_structural_change() {
        // Solving a different system with the same workspace must rebuild
        // the caches transparently and still converge.
        let mut ws = LinearSolverWorkspace::new();
        solve_in(&Coupled, &[2.5, 0.1], NewtonOptions::default(), &mut ws).expect("coupled");
        let (x, _) = solve_in(&Quadratic, &[3.0], NewtonOptions::default(), &mut ws)
            .expect("quadratic after coupled");
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert_eq!(ws.stats.pattern_rebuilds, 2);
        assert_eq!(ws.stats.full_factorizations, 2);
    }

    #[test]
    fn workspace_is_send() {
        // A workspace holds no thread-bound state, so callers may hand it
        // to a worker thread.
        fn assert_send<T: Send>() {}
        assert_send::<LinearSolverWorkspace>();
    }

    #[test]
    fn gmres_block_jacobi_refreshes_cached_preconditioner() {
        // Two solves over one structure build the preconditioner once,
        // every later iteration refreshes it in place. Block size 1 gives
        // the 2-unknown system two blocks.
        let opts = NewtonOptions {
            linear: LinearSolver::GmresBlockJacobi {
                block_size: 1,
                rtol: 1e-10,
                restart: 20,
                max_iters: 200,
            },
            ..Default::default()
        };
        let mut ws = LinearSolverWorkspace::new();
        solve_in(&Coupled, &[2.5, 0.1], opts, &mut ws).expect("first");
        solve_in(&Coupled, &[2.0, 0.5], opts, &mut ws).expect("second");
        assert!(ws.stats.iterative_solves >= 2, "{:?}", ws.stats);
        assert!(
            ws.stats.krylov_matvecs >= ws.stats.iterative_solves,
            "every Krylov solve costs at least one matvec: {:?}",
            ws.stats
        );
        assert_eq!(ws.stats.direct_fallbacks, 0, "{:?}", ws.stats);
        assert_eq!(
            ws.stats.precond_rebuilds, 1,
            "one build, then in-place refreshes: {:?}",
            ws.stats
        );
        assert!(
            ws.stats.precond_refreshes >= 1,
            "later iterations must refresh, not rebuild: {:?}",
            ws.stats
        );
        // A structural change rebuilds the preconditioner transparently.
        solve_in(&Quadratic, &[3.0], opts, &mut ws).expect("different structure");
        assert_eq!(ws.stats.precond_rebuilds, 2, "{:?}", ws.stats);
    }

    /// A nonlinear periodic chain of 2-unknown blocks, each coupled to the
    /// next, shaped like a grid Jacobian. With `declare` it declares its
    /// block size. With `singular_first_block` the first block's rows
    /// read only the second block's unknowns, and the first block's
    /// unknowns are read by the second block's rows instead: the Jacobian
    /// stays nonsingular, but its first diagonal block is empty, so no
    /// block-Jacobi preconditioner can be built.
    struct BlockChain {
        blocks: usize,
        declare: bool,
        singular_first_block: bool,
    }

    impl BlockChain {
        fn grid(blocks: usize) -> Self {
            BlockChain {
                blocks,
                declare: true,
                singular_first_block: false,
            }
        }

        /// The fewest blocks that reach the Krylov threshold.
        fn above_threshold() -> Self {
            Self::grid(KRYLOV_MIN_DIM.div_ceil(2))
        }

        fn eval(&self, x: &[f64], out: &mut [f64], mut jac: Option<&mut Triplets>) {
            let mut push = |r: usize, c: usize, v: f64| {
                if let Some(j) = jac.as_deref_mut() {
                    j.push(r, c, v);
                }
            };
            for k in 0..self.blocks {
                let (a, b) = (2 * k, 2 * k + 1);
                if k == 0 && self.singular_first_block {
                    out[a] = x[2] - 1.0;
                    out[b] = x[3] - 1.0;
                    push(a, 2, 1.0);
                    push(b, 3, 1.0);
                    continue;
                }
                let next = 2 * ((k + 1) % self.blocks);
                out[a] = 3.0 * x[a] + x[b] + 0.1 * x[a].powi(3) - 0.5 * x[next] - 1.0;
                out[b] = x[a] + 2.0 * x[b] + 0.1 * x[b].powi(3) - 0.5 * x[next + 1] - 2.0;
                push(a, a, 3.0 + 0.3 * x[a] * x[a]);
                push(a, b, 1.0);
                push(a, next, -0.5);
                push(b, a, 1.0);
                push(b, b, 2.0 + 0.3 * x[b] * x[b]);
                push(b, next + 1, -0.5);
                if k == 1 && self.singular_first_block {
                    out[a] += x[0];
                    out[b] += x[1];
                    push(a, 0, 1.0);
                    push(b, 1, 1.0);
                }
            }
        }
    }

    impl NewtonSystem for BlockChain {
        fn dim(&self) -> usize {
            2 * self.blocks
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) {
            self.eval(x, out, None);
        }
        fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
            self.eval(x, out, Some(jac));
            if self.declare {
                jac.declare_block_size(2);
            }
        }
    }

    fn grid_profile() -> NewtonOptions {
        crate::driver::NewtonProfile::Grid.options()
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn auto_is_direct_bit_for_bit_below_threshold_or_undeclared() {
        let direct = NewtonOptions {
            linear: LinearSolver::Direct,
            ..grid_profile()
        };
        let undeclared = BlockChain {
            declare: false,
            ..BlockChain::above_threshold()
        };
        for system in [BlockChain::grid(64), undeclared] {
            let x0 = vec![0.0; system.dim()];
            let mut ws_auto = LinearSolverWorkspace::new();
            let mut ws_direct = LinearSolverWorkspace::new();
            let (xa, sa) = solve_in(&system, &x0, grid_profile(), &mut ws_auto).expect("auto");
            let (xd, sd) = solve_in(&system, &x0, direct, &mut ws_direct).expect("direct");
            assert_eq!(bits(&xa), bits(&xd));
            assert_eq!(sa, sd);
            assert_eq!(ws_auto.stats, ws_direct.stats);
            assert!(ws_auto.stats.cached_solves > 0, "chord reuse kept");
        }
    }

    #[test]
    fn auto_runs_block_jacobi_gmres_above_threshold() {
        let system = BlockChain::above_threshold();
        let x0 = vec![0.0; system.dim()];
        let mut ws = LinearSolverWorkspace::new();
        let (x, _) = solve_in(&system, &x0, grid_profile(), &mut ws).expect("krylov");
        assert!(ws.stats.iterative_solves > 0, "{:?}", ws.stats);
        assert!(ws.stats.krylov_matvecs > 0, "{:?}", ws.stats);
        assert_eq!(ws.stats.full_factorizations, 0, "{:?}", ws.stats);
        assert_eq!(ws.stats.direct_fallbacks, 0, "{:?}", ws.stats);
        assert_eq!(ws.stats.cached_solves, 0, "no chord steps on Krylov");
        let direct = NewtonOptions {
            linear: LinearSolver::Direct,
            ..grid_profile()
        };
        let (xd, _) = solve(&system, &x0, direct).expect("direct");
        let d = rfsim_numerics::vector::norm_inf(&rfsim_numerics::vector::sub(&x, &xd));
        assert!(d < 1e-6, "Krylov vs direct: {d}");
    }

    #[test]
    fn krylov_fallback_is_sticky_within_a_solve() {
        let system = BlockChain {
            singular_first_block: true,
            ..BlockChain::above_threshold()
        };
        let x0 = vec![0.0; system.dim()];
        let mut ws = LinearSolverWorkspace::new();
        let (x, stats) = solve_in(&system, &x0, grid_profile(), &mut ws).expect("fallback");
        assert!(stats.iterations > 2, "several fresh Jacobians: {stats:?}");
        // One failed Krylov attempt, then direct work only: one full
        // factor, and refactors or chord solves for the later steps.
        assert_eq!(ws.stats.direct_fallbacks, 1, "{:?}", ws.stats);
        assert_eq!(ws.stats.iterative_solves, 0, "{:?}", ws.stats);
        assert_eq!(ws.stats.full_factorizations, 1, "{:?}", ws.stats);
        assert!(ws.stats.refactorizations > 0, "{:?}", ws.stats);
        assert!(ws.stats.cached_solves > 0, "chord reuse after the fallback");
        // The direct solve with the same chord reuse takes the same steps.
        let direct = NewtonOptions {
            linear: LinearSolver::Direct,
            ..grid_profile()
        };
        let mut ws_direct = LinearSolverWorkspace::new();
        let (xd, _) = solve_in(&system, &x0, direct, &mut ws_direct).expect("direct");
        assert_eq!(bits(&x), bits(&xd));
        assert_eq!(ws.stats.refactorizations, ws_direct.stats.refactorizations);
        assert_eq!(ws.stats.cached_solves, ws_direct.stats.cached_solves);
        // The next Newton solve tries Krylov again.
        solve_in(&system, &x0, grid_profile(), &mut ws).expect("second");
        assert_eq!(ws.stats.direct_fallbacks, 2, "{:?}", ws.stats);
    }

    #[test]
    fn kinds_affect_tolerances() {
        // A 1 µA update on a current unknown is not converged
        // (ABSTOL_I = 1 nA), though it would be for a voltage unknown
        // (ABSTOL_V = 1 µV).
        let step = ABSTOL_V;
        assert!(step > ABSTOL_I);
        let ratio_i = weighted_update_ratio(&[step], &[0.0], &[UnknownKind::BranchCurrent]);
        assert!(ratio_i > 1.0);
        let ratio_v = weighted_update_ratio(&[step], &[0.0], &[UnknownKind::NodeVoltage]);
        assert!(ratio_v <= 1.0);
    }
}
