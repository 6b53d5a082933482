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
//! assembles in place through the cached slot maps and runs a numeric-only
//! [`SparseLu::refactor_in_place`]. Callers that solve many same-structure
//! systems in sequence (transient timesteps, gmin/source stepping,
//! MPDE continuation, shooting, parameter sweeps) pass one workspace to
//! every [`newton_solve_budgeted`] call so the cache also persists
//! *across* Newton solves. That function is the one Newton entry point;
//! the backends reach it through the
//! [`NewtonDriver`](crate::driver::NewtonDriver) recovery ladder.

use rfsim_numerics::krylov::{gmres_budgeted, BlockJacobiPrecond, GmresOptions};
use rfsim_numerics::sparse::{
    CscAssembly, CscMatrix, CsrAssembly, CsrMatrix, PatternFingerprint, Triplets,
};
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
    /// block size ([`Triplets::declare_block_size`], as the MPDE grid
    /// Jacobian does) runs [`LinearSolver::GmresBlockJacobi`] with fixed
    /// inner settings. Anything else runs [`LinearSolver::Direct`], with
    /// the same bits and counters as asking for it outright.
    Auto,
}

/// Unknowns from which [`LinearSolver::Auto`] runs GMRES + block-Jacobi.
/// Set from the warm-workspace crossover, where direct LU skips its full
/// factor (the sweep engine's and serve's case). Krylov speedup over
/// direct on the fig4 mixer (pattern 1011, best of 5–7 solves each, two
/// runs on 2 vCPUs): 0.69× at 1 920 unknowns, 0.83× at 4 320, 1.02–1.04×
/// at 5 760, 1.06× at 6 720, 0.96–0.97× at 7 680, 1.09–1.11× at 8 100,
/// 1.27× at 8 400, 1.17× at 9 600, 1.40× at 11 520, 1.79× at 18 000.
/// Cold workspaces favour Krylov from 4 320 up (1.22×). Every serve grid
/// and corpus netlist sits far below the threshold.
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

/// What [`LinearSolver::Auto`] means for a `dim`-unknown Jacobian `jac`.
fn resolve_auto(dim: usize, jac: &Triplets) -> LinearSolver {
    match jac.block_size() {
        Some(block_size) if dim >= KRYLOV_MIN_DIM => LinearSolver::GmresBlockJacobi {
            block_size,
            rtol: KRYLOV_RTOL,
            restart: KRYLOV_RESTART,
            max_iters: KRYLOV_MAX_MATVECS,
        },
        _ => LinearSolver::Direct,
    }
}

impl LinearSolver {
    /// Solves one fresh Newton system. A Krylov breakdown falls back to
    /// direct LU, counts one `direct_fallbacks` and turns `self` into
    /// [`LinearSolver::Direct`], so a failing Krylov attempt is paid once
    /// per Newton solve.
    fn solve_with(
        &mut self,
        ws: &mut LinearSolverWorkspace,
        jac: &Triplets,
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
                ..Default::default()
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
    /// KLU-style in-pattern pivot exchanges performed by restricted
    /// pivoting — operating-point jumps that would previously have cost a
    /// full re-factorisation each.
    pub pivot_exchanges: usize,
    /// Refactorisations that found no admissible in-pattern pivot and fell
    /// back to a full factorisation (also counted in
    /// `full_factorizations`).
    pub full_fallbacks: usize,
    /// Times the assembly slot maps had to be (re)built because the stamp
    /// sequence changed (once per structure in the steady state).
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
    /// Recovery-ladder rungs attempted by a
    /// [`NewtonDriver`](crate::driver::NewtonDriver) solve (a one-rung
    /// solve that converges first try counts 1).
    pub rung_attempts: usize,
    /// Rungs that produced the accepted solution (one per successful
    /// driver solve; `rung_attempts − rung_successes` is the recovery
    /// work the ladder absorbed).
    pub rung_successes: usize,
}

impl WorkspaceStats {
    /// Adds `other`'s counters into `self` — the aggregation
    /// [`WorkspaceCache::solver_stats`] and the sweep engine use to roll
    /// per-workspace counters up to batch level.
    pub fn absorb(&mut self, other: &WorkspaceStats) {
        let WorkspaceStats {
            full_factorizations,
            refactorizations,
            pivot_exchanges,
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
        self.pivot_exchanges += pivot_exchanges;
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
/// Owns the cached triplet→CSC/CSR slot maps, the in-place-assembled
/// matrices, and the sparse LU factors whose symbolic structure is reused
/// by numeric-only refactorisation. Safe for *any* sequence of systems: a
/// structural change is detected (the slot map verifies every stamp
/// position, the factor stores and compares the exact pattern) and
/// answered by a
/// transparent rebuild rather than a wrong solve.
#[derive(Debug, Default)]
pub struct LinearSolverWorkspace {
    csc_assembly: Option<CscAssembly>,
    csc: Option<CscMatrix>,
    lu: Option<SparseLu>,
    csr_assembly: Option<CsrAssembly>,
    csr: Option<CsrMatrix>,
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

    /// Assembles `jac` into the cached CSC matrix through the slot map,
    /// rebuilding both on structural change.
    fn assemble_csc(&mut self, jac: &Triplets) -> &CscMatrix {
        if CscAssembly::assemble_cached(&mut self.csc_assembly, &mut self.csc, jac) {
            self.stats.pattern_rebuilds += 1;
            // The factor's symbolic structure describes the old pattern.
            self.lu = None;
        }
        self.csc.as_ref().expect("assembled above")
    }

    /// Assembles `jac` into the cached CSR matrix (Krylov path: matvecs and
    /// preconditioner construction), rebuilding on structural change.
    fn assemble_csr(&mut self, jac: &Triplets) -> &CsrMatrix {
        if CsrAssembly::assemble_cached(&mut self.csr_assembly, &mut self.csr, jac) {
            self.stats.pattern_rebuilds += 1;
            // The cached preconditioner describes the old pattern.
            self.block_jacobi = None;
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
    fn block_jacobi_ready(&mut self, jac: &Triplets, block_size: usize) -> Result<()> {
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
        jac: &Triplets,
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
    /// refactorisation when the cached symbolic structure still applies
    /// (restricted pivoting repairs vanished pivots in-pattern), full
    /// factorisation otherwise. Used by [`LinearSolver::Direct`] and as
    /// the Krylov fallback.
    fn solve_direct(&mut self, jac: &Triplets, rhs: &[f64]) -> Result<Vec<f64>> {
        self.assemble_csc(jac);
        let csc = self.csc.as_ref().expect("assembled above");
        match &mut self.lu {
            Some(lu) => match lu.refactor_in_place(csc) {
                Ok(report) => {
                    self.stats.refactorizations += 1;
                    self.stats.pivot_exchanges += report.pivot_exchanges;
                }
                Err(_) => {
                    // No admissible in-pattern pivot (or stale structure):
                    // fall back to a full factorisation, free to repivot.
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

    /// Fingerprint of the CSC Jacobian pattern this workspace is currently
    /// tuned to, or `None` before its first direct assembly. Equal to the
    /// fingerprint of the matrices it was fed, so a caller can verify that
    /// a workspace checked out of a [`WorkspaceCache`] really did warm up
    /// on the structure it is about to solve.
    pub fn pattern_fingerprint(&self) -> Option<PatternFingerprint> {
        self.csc_assembly
            .as_ref()
            .map(CscAssembly::pattern_fingerprint)
    }
}

/// A pool of [`LinearSolverWorkspace`]s keyed by sparsity-pattern
/// fingerprint, so batches of solves over *mixed* Jacobian structures each
/// reuse a workspace warmed on their own structure instead of thrashing a
/// single workspace through rebuild after rebuild.
///
/// The cache is a check-out / check-in pool rather than a map of borrows:
/// [`WorkspaceCache::checkout`] removes a workspace (or creates a fresh one
/// on a miss) and [`WorkspaceCache::checkin`] returns it after use, which
/// lets several workers hold same-fingerprint workspaces concurrently while
/// the cache itself sits behind one brief lock. A checked-in workspace is
/// keyed by [`LinearSolverWorkspace::pattern_fingerprint`]; callers pass
/// the key they routed by, and a workspace whose actual structure diverged
/// (e.g. its last solve re-keyed it) is simply stored under its real key.
///
/// Fingerprints are routing keys, not correctness guarantees — the
/// workspace itself still verifies every stamp position and the factor's
/// stored pattern, so a colliding key costs one transparent rebuild, never
/// a wrong solve (see [`PatternFingerprint`]).
///
/// Parked workspaces hold full LU factors, so a long-lived cache fed an
/// unbounded stream of distinct structures would grow without limit; the
/// pool therefore holds at most [`WorkspaceCache::capacity`] workspaces
/// (default [`WorkspaceCache::DEFAULT_CAPACITY`]) and a check-in beyond
/// that simply drops the incoming workspace — the next checkout of its
/// pattern rebuilds, it never solves wrong.
#[derive(Debug)]
pub struct WorkspaceCache {
    pool: std::collections::HashMap<PatternFingerprint, Vec<LinearSolverWorkspace>>,
    capacity: usize,
    /// Solver counters inherited from workspaces the cache has dropped
    /// (capacity overflow or [`WorkspaceCache::clear`]), so
    /// [`WorkspaceCache::solver_stats`] never loses history.
    absorbed: WorkspaceStats,
    /// Checkouts that found a warmed workspace.
    pub hits: usize,
    /// Checkouts that had to create a fresh workspace.
    pub misses: usize,
}

impl Default for WorkspaceCache {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl WorkspaceCache {
    /// Default bound on parked workspaces: comfortably above any realistic
    /// concurrent-topology count while capping worst-case retention.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache parking at most `capacity` workspaces
    /// (clamped to ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        WorkspaceCache {
            pool: std::collections::HashMap::new(),
            capacity: capacity.max(1),
            absorbed: WorkspaceStats::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// Maximum number of workspaces the pool will retain.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Takes a workspace warmed on `key`'s structure out of the pool, or
    /// returns a fresh one when none is available.
    pub fn checkout(&mut self, key: PatternFingerprint) -> LinearSolverWorkspace {
        let popped = match self.pool.get_mut(&key) {
            Some(parked) => {
                let ws = parked.pop();
                if parked.is_empty() {
                    // Keep the map from accumulating empty entries over a
                    // long-lived cache's lifetime.
                    self.pool.remove(&key);
                }
                ws
            }
            None => None,
        };
        match popped {
            Some(ws) => {
                self.hits += 1;
                ws
            }
            None => {
                self.misses += 1;
                LinearSolverWorkspace::new()
            }
        }
    }

    /// Returns a workspace to the pool under the structure it actually
    /// holds (falling back to `key` for a never-used workspace). A full
    /// pool (see [`WorkspaceCache::capacity`]) drops the workspace instead.
    pub fn checkin(&mut self, key: PatternFingerprint, ws: LinearSolverWorkspace) {
        if self.len() >= self.capacity {
            self.absorbed.absorb(&ws.stats);
            return;
        }
        let actual = ws.pattern_fingerprint().unwrap_or(key);
        self.pool.entry(actual).or_default().push(ws);
    }

    /// Number of workspaces currently parked in the pool.
    pub fn len(&self) -> usize {
        self.pool.values().map(Vec::len).sum()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct fingerprints with parked workspaces.
    pub fn num_patterns(&self) -> usize {
        self.pool.values().filter(|v| !v.is_empty()).count()
    }

    /// Aggregated solver counters across every workspace this cache has
    /// seen: the currently parked ones plus everything absorbed from
    /// dropped workspaces. Workspaces currently checked out report here
    /// once they are checked back in.
    pub fn solver_stats(&self) -> WorkspaceStats {
        let mut total = self.absorbed;
        for ws in self.pool.values().flatten() {
            total.absorb(&ws.stats);
        }
        total
    }

    /// Folds externally accumulated counters into this cache's history —
    /// how the sweep engine's determinism mode (which solves on private
    /// throwaway caches) still reports its solver work through
    /// [`WorkspaceCache::solver_stats`].
    pub fn absorb_stats(&mut self, stats: &WorkspaceStats) {
        self.absorbed.absorb(stats);
    }

    /// Drops all parked workspaces (counters are kept — their solver
    /// stats fold into [`WorkspaceCache::solver_stats`]).
    pub fn clear(&mut self) {
        for (_, parked) in self.pool.drain() {
            for ws in parked {
                self.absorbed.absorb(&ws.stats);
            }
        }
    }
}

/// A nonlinear algebraic system `F(x) = 0` with a sparse Jacobian.
pub trait NewtonSystem {
    /// Problem dimension.
    fn dim(&self) -> usize;

    /// Evaluates `F(x)` into `out`.
    fn residual(&self, x: &[f64], out: &mut [f64]);

    /// Evaluates `F(x)` into `out` and its Jacobian into `jac`
    /// (`jac` arrives empty).
    fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets);
}

/// Options for [`newton_solve_budgeted`], and through it for every
/// [`NewtonDriver`](crate::driver::NewtonDriver) rung.
#[derive(Debug, Clone, Copy)]
pub struct NewtonOptions {
    /// Maximum Newton iterations.
    pub max_iters: usize,
    /// Relative tolerance on the update.
    pub reltol: f64,
    /// Absolute tolerance for voltage-like unknowns (volts).
    pub abstol_v: f64,
    /// Absolute tolerance for current-like unknowns (amperes).
    pub abstol_i: f64,
    /// Smallest damping factor tried before declaring failure of the
    /// line search (the full step is still taken if the residual grows
    /// more slowly than this guard).
    pub min_damping: f64,
    /// Residual must also drop below `residual_tol` (∞-norm guard against
    /// converging updates on a stagnated residual). Set generously.
    pub residual_tol: f64,
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
    /// Per-iteration clamp on voltage-unknown updates (volts). Plays the
    /// role of SPICE's junction limiting: exponential devices (diode, BJT)
    /// otherwise provoke multi-hundred-volt Newton overshoots whose
    /// backtracked steps cycle without converging. Applied per component
    /// before the line search; current unknowns are not clamped.
    pub max_voltage_step: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iters: 100,
            reltol: 1e-3,
            abstol_v: 1e-6,
            abstol_i: 1e-9,
            min_damping: 1.0 / 1024.0,
            residual_tol: 1e-6,
            linear: LinearSolver::Direct,
            jacobian_reuse: 0,
            max_voltage_step: 2.0,
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
/// The budget's stagnation guard watches the *accepted* residual per
/// iteration (best-residual plateau), catching both flat plateaus and
/// oscillating iterates long before `max_iters` burns down; it never
/// fires once the residual is below `options.residual_tol`, where the
/// built-in stagnation-acceptance rule takes over.
///
/// Interruption is a clean exit: the workspace keeps its cached
/// structure and factors and checks back into any [`WorkspaceCache`]
/// fully reusable.
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
    let mut jac = Triplets::with_capacity(n, n, 16 * n);
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
            jac.clear();
            system.residual_and_jacobian(&x, &mut residual, &mut jac);
            if linear == LinearSolver::Auto {
                linear = resolve_auto(n, &jac);
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
            let dx = match linear.solve_with(workspace, &jac, &neg_f, budget) {
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
        if options.max_voltage_step.is_finite() && !kinds.is_empty() {
            let lim = options.max_voltage_step;
            for (d, kind) in dx.iter_mut().zip(kinds) {
                if *kind == UnknownKind::NodeVoltage {
                    *d = d.clamp(-lim, lim);
                }
            }
        }

        // Damped backtracking line search on the residual norm. We halve far
        // below `min_damping` if necessary (stiff exponentials can demand
        // microscopic first steps); `min_damping` only gates what counts as
        // an *undamped* step for the convergence test below.
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
                if trial_norm < res_norm || trial_norm < options.residual_tol {
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
        let ratio = weighted_update_ratio(&scaled_dx, &x, kinds, &options);
        // Stagnation at the linear-solver noise floor: if the residual sits
        // below `residual_tol` and stops improving, the update criterion can
        // chatter forever on ill-scaled unknowns — accept.
        if res_norm >= 0.999 * prev_norm {
            stagnant += 1;
        } else {
            stagnant = 0;
        }
        prev_norm = res_norm;
        let stagnated_converged = stagnant >= 3 && res_norm <= options.residual_tol;
        let would_converge = stagnated_converged
            || (ratio <= 1.0
                && res_norm.is_finite()
                && (alpha >= 0.99 || res_norm <= options.residual_tol));
        if would_converge {
            if fresh || res_norm <= options.residual_tol {
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
        if let Err(i) = meter.note_iteration(res_norm) {
            // At the noise floor the built-in stagnation-acceptance rule
            // above owns the plateau; the guard only kills solves that
            // plateau *above* tolerance.
            if i.reason != rfsim_numerics::InterruptReason::Stagnated
                || res_norm > options.residual_tol
            {
                return Err(i.into());
            }
        }
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
/// against the *voltage* tolerance `abstol_v`, which is only correct for
/// systems with no branch-current unknowns (scalar test systems, pure
/// nodal reductions) — or it names every unknown. All production
/// backends thread real kinds (`Circuit::unknown_kinds` et al.); the
/// empty-slice path exists for kind-less callers that own that
/// trade-off.
fn weighted_update_ratio(
    dx: &[f64],
    x: &[f64],
    kinds: &[UnknownKind],
    options: &NewtonOptions,
) -> f64 {
    debug_assert!(
        kinds.is_empty() || kinds.len() == dx.len(),
        "kinds must be empty (all-voltage tolerances) or cover every unknown \
         ({} kinds for {} unknowns)",
        kinds.len(),
        dx.len()
    );
    if kinds.is_empty() {
        return wrms_ratio(dx, x, options.reltol, options.abstol_v);
    }
    dx.iter()
        .zip(x)
        .zip(kinds)
        .map(|((&d, &xi), kind)| {
            let abstol = match kind {
                UnknownKind::NodeVoltage => options.abstol_v,
                UnknownKind::BranchCurrent => options.abstol_i,
            };
            d.abs() / (options.reltol * xi.abs() + abstol)
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
            reltol: 1e-15,
            abstol_v: 1e-18,
            ..Default::default()
        };
        assert!(matches!(
            solve(&Quadratic, &[100.0], opts),
            Err(CircuitError::ConvergenceFailure { .. })
        ));
    }

    /// Finite residual only at the starting point: every damping trial,
    /// however small the step, lands on NaN. The old fallback committed
    /// the `min_damping` trial anyway, poisoning `x` and burning
    /// `max_iters` at NaN (the stagnation counter cannot fire on NaN).
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
        // The sweep engine moves checked-out workspaces onto pool workers.
        fn assert_send<T: Send>() {}
        assert_send::<LinearSolverWorkspace>();
        assert_send::<WorkspaceCache>();
    }

    #[test]
    fn workspace_cache_routes_by_fingerprint() {
        // Upfront keys, the way the sweep engine derives them: from the
        // structure of the system about to be solved.
        let probe = |dim: usize| {
            Triplets::new(dim, dim)
                .pattern_fingerprint()
                .mix(dim as u64)
        };
        let mut cache = WorkspaceCache::new();
        // Warm one workspace on each system.
        let mut ws_c = cache.checkout(probe(2));
        solve_in(&Coupled, &[2.5, 0.1], NewtonOptions::default(), &mut ws_c).expect("coupled");
        let key_c = ws_c.pattern_fingerprint().expect("warmed");
        let mut ws_q = cache.checkout(probe(1));
        solve_in(&Quadratic, &[3.0], NewtonOptions::default(), &mut ws_q).expect("quadratic");
        let key_q = ws_q.pattern_fingerprint().expect("warmed");
        assert_ne!(key_c, key_q);
        cache.checkin(key_c, ws_c);
        cache.checkin(key_q, ws_q);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.num_patterns(), 2);

        // Checking out by the right key returns the warmed workspace: the
        // next solve does no structural work at all.
        let mut ws = cache.checkout(key_c);
        assert_eq!(ws.pattern_fingerprint(), Some(key_c));
        let before = ws.stats;
        solve_in(&Coupled, &[2.0, 0.5], NewtonOptions::default(), &mut ws).expect("coupled again");
        assert_eq!(ws.stats.pattern_rebuilds, before.pattern_rebuilds);
        assert_eq!(ws.stats.full_factorizations, before.full_factorizations);
        assert!(ws.stats.refactorizations > before.refactorizations);
        cache.checkin(key_c, ws);
        assert_eq!(cache.hits, 1);
        let fresh = cache.checkout(probe(7));
        assert!(fresh.pattern_fingerprint().is_none());
        assert_eq!(cache.misses, 3); // two warmups + the fresh probe
    }

    #[test]
    fn workspace_cache_respects_capacity() {
        let probe = |n: u64| Triplets::new(1, 1).pattern_fingerprint().mix(n);
        let mut cache = WorkspaceCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        for n in 0..5 {
            cache.checkin(probe(n), LinearSolverWorkspace::new());
        }
        // Check-ins beyond the bound are dropped, not parked.
        assert_eq!(cache.len(), 2);
        // Draining a key removes its (now empty) pool entry entirely.
        let _ = cache.checkout(probe(0));
        assert_eq!(cache.num_patterns(), 1);
        assert_eq!(cache.len(), 1);
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
    fn cache_aggregates_solver_stats_across_workspaces() {
        let probe = |dim: usize| {
            Triplets::new(dim, dim)
                .pattern_fingerprint()
                .mix(dim as u64)
        };
        let mut cache = WorkspaceCache::with_capacity(1);
        let mut ws_a = cache.checkout(probe(2));
        solve_in(&Coupled, &[2.5, 0.1], NewtonOptions::default(), &mut ws_a).expect("a");
        let mut ws_b = cache.checkout(probe(1));
        solve_in(&Quadratic, &[3.0], NewtonOptions::default(), &mut ws_b).expect("b");
        let expect_refactors = ws_a.stats.refactorizations + ws_b.stats.refactorizations;
        let key_a = ws_a.pattern_fingerprint().expect("warmed");
        let key_b = ws_b.pattern_fingerprint().expect("warmed");
        cache.checkin(key_a, ws_a);
        // Capacity 1: the second check-in is dropped, but its counters are
        // absorbed rather than lost.
        cache.checkin(key_b, ws_b);
        assert_eq!(cache.len(), 1);
        let stats = cache.solver_stats();
        assert_eq!(stats.refactorizations, expect_refactors);
        assert_eq!(stats.full_factorizations, 2);
        // Clear folds the parked workspace's counters into the absorbed
        // total as well.
        cache.clear();
        assert_eq!(cache.solver_stats().refactorizations, expect_refactors);
    }

    #[test]
    fn kinds_affect_tolerances() {
        let kinds = [UnknownKind::BranchCurrent];
        let opts = NewtonOptions::default();
        // A 1 µA update on a current unknown is not converged
        // (abstol_i = 1 nA), though it would be for a voltage unknown.
        let ratio_i = weighted_update_ratio(&[1e-6], &[0.0], &kinds, &opts);
        assert!(ratio_i > 1.0);
        let ratio_v = weighted_update_ratio(&[1e-6], &[0.0], &[UnknownKind::NodeVoltage], &opts);
        assert!(ratio_v <= 1.0);
    }

    /// `F(x) = 1` with a unit Jacobian: a perfectly flat residual
    /// plateau far above tolerance. No step helps, no damping trial
    /// helps — only the stagnation guard can end it early.
    struct Plateau;

    impl NewtonSystem for Plateau {
        fn dim(&self) -> usize {
            1
        }
        fn residual(&self, _x: &[f64], out: &mut [f64]) {
            out[0] = 1.0;
        }
        fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
            self.residual(x, out);
            jac.push(0, 0, 1.0);
        }
    }

    /// A residual that *oscillates* with the iterate instead of sitting
    /// flat: the reported Jacobian flips sign across x = 0.5, so Newton
    /// bounces between the two lobes, the per-iteration residual wobbles
    /// between ~1.0 and ~1.1, and the *best* residual never improves —
    /// the failure shape the guard's best-residual window exists for.
    struct Oscillator;

    impl NewtonSystem for Oscillator {
        fn dim(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) {
            out[0] = 1.0 + 0.1 * x[0] * x[0];
        }
        fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
            self.residual(x, out);
            jac.push(0, 0, if x[0] < 0.5 { -1.0 } else { 1.1 });
        }
    }

    #[test]
    fn stagnation_guard_ends_residual_plateau_early() {
        let options = NewtonOptions {
            max_iters: 500,
            ..Default::default()
        };
        let budget = rfsim_numerics::SolveBudget::unlimited().with_stagnation_guard(4, 1e-2);
        let err = newton_solve_budgeted(
            &Plateau,
            &[0.0],
            &[],
            options,
            &mut LinearSolverWorkspace::new(),
            &budget,
        )
        .expect_err("a flat plateau above tolerance must be interrupted");
        let i = err.interrupted().expect("typed interruption");
        assert_eq!(i.reason, rfsim_numerics::InterruptReason::Stagnated);
        assert!(
            i.iterations < 50,
            "guard must fire long before max_iters: {} iterations",
            i.iterations
        );
        assert!((i.best_residual - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stagnation_guard_ends_oscillating_iterates_early() {
        let options = NewtonOptions {
            max_iters: 500,
            ..Default::default()
        };
        let budget = rfsim_numerics::SolveBudget::unlimited().with_stagnation_guard(4, 1e-2);
        let err = newton_solve_budgeted(
            &Oscillator,
            &[0.0],
            &[],
            options,
            &mut LinearSolverWorkspace::new(),
            &budget,
        )
        .expect_err("an oscillating iterate must be interrupted");
        let i = err.interrupted().expect("typed interruption");
        assert_eq!(i.reason, rfsim_numerics::InterruptReason::Stagnated);
        assert!(
            i.iterations < 50,
            "guard must fire long before max_iters: {} iterations",
            i.iterations
        );
        assert!(i.best_residual >= 1.0, "the residual never improved");
    }

    #[test]
    fn stagnation_guard_never_kills_a_converging_solve() {
        // The same tight guard on a healthy quadratic: convergence wins,
        // and the sub-tolerance plateau exemption keeps the guard quiet
        // at the noise floor.
        let budget = rfsim_numerics::SolveBudget::unlimited().with_stagnation_guard(4, 1e-2);
        let (x, _) = newton_solve_budgeted(
            &Quadratic,
            &[3.0],
            &[],
            NewtonOptions::default(),
            &mut LinearSolverWorkspace::new(),
            &budget,
        )
        .expect("healthy solves pass through the guard");
        assert!((x[0] - 2.0).abs() < 1e-9);
    }
}
