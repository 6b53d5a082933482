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
//! MPDE continuation, shooting, parameter sweeps) should create one
//! workspace and pass it to [`newton_solve_with_workspace`] so the cache
//! also persists *across* Newton solves; [`newton_solve`] is the
//! convenience wrapper that scopes the workspace to a single solve.

use rfsim_numerics::krylov::{gmres_budgeted, BlockJacobiPrecond, GmresOptions, Ilu0};
use rfsim_numerics::pool::WorkerPool;
use rfsim_numerics::sparse::{
    CscAssembly, CscMatrix, CsrAssembly, CsrMatrix, PatternFingerprint, Triplets,
};
use rfsim_numerics::sparse_lu::{LuOptions, SparseLu};
use rfsim_numerics::vector::{norm2, wrms_ratio};
use rfsim_numerics::NumericsError;
use rfsim_numerics::SolveBudget;

use crate::circuit::UnknownKind;
use crate::{CircuitError, Result};

/// How a [`LinearSolverWorkspace`] runs the numeric refactorisation that
/// dominates every direct Newton iteration after the first.
///
/// Both strategies ride the same resilience ladder
/// (see [`rfsim_numerics::sparse_lu`]): numeric-only refresh of the cached
/// symbolic structure, KLU-style in-pattern pivot exchange when an
/// operating-point jump kills a recorded pivot, and a full
/// re-factorisation only when no in-pattern row qualifies.
#[derive(Debug, Clone, Default)]
pub enum RefactorStrategy {
    /// Refactor on the calling thread. The default, and the right choice
    /// on single-core hosts or for small circuit Jacobians.
    #[default]
    Sequential,
    /// Pipeline the per-column numeric refactorisation across the pool's
    /// workers ([`SparseLu::refactor_in_place_parallel`]). Worth it for
    /// the large MPDE/HB grid Jacobians (`n·N1·N2` unknowns) on
    /// multi-core hosts; pivot exchanges still run on the sequential
    /// fallback inside the same call.
    Parallel(WorkerPool),
}

/// How each Newton linear system `J·dx = −F` is solved.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LinearSolver {
    /// Sparse direct LU (Gilbert–Peierls with RCM ordering). The default.
    #[default]
    Direct,
    /// Restarted GMRES preconditioned with ILU(0); falls back to the direct
    /// solver if the preconditioner or iteration breaks down. This is the
    /// "iterative linear solution methods" configuration of the paper.
    /// Note: MNA matrices with voltage sources have structurally zero
    /// diagonals, which ILU(0) rejects — prefer
    /// [`LinearSolver::GmresBlockJacobi`] for such systems.
    GmresIlu0 {
        /// Relative residual tolerance of the inner solve.
        rtol: f64,
        /// Restart length.
        restart: usize,
        /// Matvec budget.
        max_iters: usize,
    },
    /// Restarted GMRES preconditioned with block-Jacobi over fixed-size
    /// diagonal blocks. The right choice for MPDE grid Jacobians
    /// (`block_size` = circuit unknowns per grid point): every block is a
    /// locally nonsingular circuit matrix even when individual rows have
    /// zero diagonals. Falls back to the direct solver on breakdown.
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
}

impl LinearSolver {
    /// A reasonable GMRES+ILU(0) configuration.
    pub fn gmres_default() -> Self {
        LinearSolver::GmresIlu0 {
            rtol: 1e-9,
            restart: 80,
            max_iters: 2000,
        }
    }

    fn solve_with(
        &self,
        ws: &mut LinearSolverWorkspace,
        jac: &Triplets,
        rhs: &[f64],
        budget: &SolveBudget,
    ) -> Result<Vec<f64>> {
        match self {
            LinearSolver::Direct => ws.solve_direct(jac, rhs),
            LinearSolver::GmresIlu0 {
                rtol,
                restart,
                max_iters,
            } => {
                let opts = GmresOptions {
                    rtol: *rtol,
                    restart: *restart,
                    max_iters: *max_iters,
                    ..Default::default()
                };
                let x0 = vec![0.0; rhs.len()];
                let solved = match ws.ilu_ready(jac) {
                    Ok(()) => {
                        let csr = ws.csr.as_ref().expect("assembled by ilu_ready");
                        let ilu = ws.ilu.as_ref().expect("refreshed by ilu_ready");
                        // An interruption is a control-plane stop, not an
                        // iteration breakdown: it must propagate, never
                        // trigger the direct fallback.
                        match gmres_budgeted(csr, ilu, rhs, &x0, opts, budget) {
                            Ok(pair) => Some(pair),
                            Err(NumericsError::Interrupted(i)) => return Err(i.into()),
                            Err(_) => None,
                        }
                    }
                    Err(_) => None,
                };
                match solved {
                    Some((x, _)) => {
                        ws.stats.iterative_solves += 1;
                        Ok(x)
                    }
                    None => {
                        ws.stats.direct_fallbacks += 1;
                        ws.solve_direct(jac, rhs)
                    }
                }
            }
            LinearSolver::GmresBlockJacobi {
                block_size,
                rtol,
                restart,
                max_iters,
            } => {
                let opts = GmresOptions {
                    rtol: *rtol,
                    restart: *restart,
                    max_iters: *max_iters,
                    ..Default::default()
                };
                let x0 = vec![0.0; rhs.len()];
                let solved = match ws.block_jacobi_ready(jac, *block_size) {
                    Ok(()) => {
                        let csr = ws.csr.as_ref().expect("assembled by block_jacobi_ready");
                        let pre = ws
                            .block_jacobi
                            .as_ref()
                            .expect("refreshed by block_jacobi_ready");
                        match gmres_budgeted(csr, pre, rhs, &x0, opts, budget) {
                            Ok(pair) => Some(pair),
                            Err(NumericsError::Interrupted(i)) => return Err(i.into()),
                            Err(_) => None,
                        }
                    }
                    Err(_) => None,
                };
                match solved {
                    Some((x, _)) => {
                        ws.stats.iterative_solves += 1;
                        Ok(x)
                    }
                    None => {
                        ws.stats.direct_fallbacks += 1;
                        ws.solve_direct(jac, rhs)
                    }
                }
            }
        }
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
    /// Refactorisations carried by the parallel column pipeline
    /// ([`RefactorStrategy::Parallel`]); a subset of `refactorizations`.
    pub parallel_refactorizations: usize,
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
    /// Krylov breakdowns recovered by the shared direct path.
    pub direct_fallbacks: usize,
    /// In-place numeric refreshes of a cached ILU(0)/block-Jacobi
    /// preconditioner over its existing pattern (no allocation).
    pub precond_refreshes: usize,
    /// Preconditioner refreshes carried by the pooled block-parallel path
    /// ([`RefactorStrategy::Parallel`]); a subset of `precond_refreshes`.
    pub parallel_precond_refreshes: usize,
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
            parallel_refactorizations,
            pivot_exchanges,
            full_fallbacks,
            pattern_rebuilds,
            cached_solves,
            iterative_solves,
            direct_fallbacks,
            precond_refreshes,
            parallel_precond_refreshes,
            precond_rebuilds,
            rung_attempts,
            rung_successes,
        } = other;
        self.full_factorizations += full_factorizations;
        self.refactorizations += refactorizations;
        self.parallel_refactorizations += parallel_refactorizations;
        self.pivot_exchanges += pivot_exchanges;
        self.full_fallbacks += full_fallbacks;
        self.pattern_rebuilds += pattern_rebuilds;
        self.cached_solves += cached_solves;
        self.iterative_solves += iterative_solves;
        self.direct_fallbacks += direct_fallbacks;
        self.precond_refreshes += precond_refreshes;
        self.parallel_precond_refreshes += parallel_precond_refreshes;
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
    /// Cached ILU(0) preconditioner, refreshed in place per solve while
    /// the CSR pattern holds.
    ilu: Option<Ilu0>,
    /// Cached block-Jacobi preconditioner, refreshed in place per solve
    /// while the dimensions and block size hold.
    block_jacobi: Option<BlockJacobiPrecond>,
    /// How direct refactorisations run (sequential or pooled).
    refactor_strategy: RefactorStrategy,
    /// Reuse counters (diagnostics; cheap to read, never reset internally).
    pub stats: WorkspaceStats,
}

impl LinearSolverWorkspace {
    /// Creates an empty workspace; caches fill in on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty workspace running direct refactorisations under
    /// `strategy`.
    pub fn with_strategy(strategy: RefactorStrategy) -> Self {
        LinearSolverWorkspace {
            refactor_strategy: strategy,
            ..Default::default()
        }
    }

    /// Replaces the refactorisation strategy (cached factors and
    /// preconditioners are kept — the strategy only changes how the next
    /// numeric refresh is scheduled).
    pub fn set_refactor_strategy(&mut self, strategy: RefactorStrategy) {
        self.refactor_strategy = strategy;
    }

    /// The current refactorisation strategy.
    pub fn refactor_strategy(&self) -> &RefactorStrategy {
        &self.refactor_strategy
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
            // Cached preconditioners describe the old pattern.
            self.ilu = None;
            self.block_jacobi = None;
        }
        self.csr.as_ref().expect("assembled above")
    }

    /// Assembles `jac` and brings the cached ILU(0) preconditioner up to
    /// date with it: an in-place numeric refresh while the pattern holds,
    /// a rebuild otherwise.
    ///
    /// # Errors
    ///
    /// Propagates ILU(0) breakdown (structurally missing diagonal or zero
    /// pivot); the caller falls back to the direct path.
    fn ilu_ready(&mut self, jac: &Triplets) -> Result<()> {
        self.assemble_csr(jac);
        let csr = self.csr.as_ref().expect("assembled above");
        match &mut self.ilu {
            Some(ilu) if ilu.same_pattern(csr) => {
                if let Err(e) = ilu.refactor_in_place(csr) {
                    // Breakdown leaves unspecified values: drop the cache
                    // so the next attempt rebuilds.
                    self.ilu = None;
                    return Err(e.into());
                }
                self.stats.precond_refreshes += 1;
            }
            _ => {
                self.ilu = Some(Ilu0::new(csr)?);
                self.stats.precond_rebuilds += 1;
            }
        }
        Ok(())
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
                // The blocks are embarrassingly parallel, so the refresh
                // follows the workspace's refactor strategy the same way
                // the direct LU path does (bit-identical either way).
                let refreshed = match &self.refactor_strategy {
                    RefactorStrategy::Sequential => bj.refactor_in_place(csr).map(|()| false),
                    RefactorStrategy::Parallel(pool) => bj.refactor_in_place_parallel(csr, pool),
                };
                match refreshed {
                    Err(e) => {
                        self.block_jacobi = None;
                        return Err(e.into());
                    }
                    Ok(pooled) => {
                        self.stats.precond_refreshes += 1;
                        if pooled {
                            self.stats.parallel_precond_refreshes += 1;
                        }
                    }
                }
            }
            _ => {
                self.block_jacobi = Some(BlockJacobiPrecond::new(csr, block_size)?);
                self.stats.precond_rebuilds += 1;
            }
        }
        Ok(())
    }

    /// The shared direct-LU path: in-place assembly, numeric-only
    /// refactorisation when the cached symbolic structure still applies
    /// (restricted pivoting repairs vanished pivots in-pattern; the
    /// strategy decides sequential vs pooled execution), full
    /// factorisation otherwise. Used by [`LinearSolver::Direct`] and as
    /// the fallback of both Krylov configurations.
    fn solve_direct(&mut self, jac: &Triplets, rhs: &[f64]) -> Result<Vec<f64>> {
        self.assemble_csc(jac);
        let csc = self.csc.as_ref().expect("assembled above");
        match &mut self.lu {
            Some(lu) => {
                let refreshed = match &self.refactor_strategy {
                    RefactorStrategy::Sequential => lu.refactor_in_place(csc),
                    RefactorStrategy::Parallel(pool) => lu.refactor_in_place_parallel(csc, pool),
                };
                match refreshed {
                    Ok(report) => {
                        self.stats.refactorizations += 1;
                        self.stats.pivot_exchanges += report.pivot_exchanges;
                        if report.parallel {
                            self.stats.parallel_refactorizations += 1;
                        }
                    }
                    Err(_) => {
                        // No admissible in-pattern pivot (or stale
                        // structure): fall back to a full factorisation,
                        // free to repivot.
                        *lu = SparseLu::factor(csc, LuOptions::default())?;
                        self.stats.full_factorizations += 1;
                        self.stats.full_fallbacks += 1;
                    }
                }
            }
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

/// Options for [`newton_solve`].
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
    /// typically gain 2–3× wall clock. Only applies to
    /// [`LinearSolver::Direct`].
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

/// Solves `F(x) = 0` by damped Newton with sparse LU linear solves.
///
/// `kinds` selects the absolute tolerance per unknown; pass an empty slice
/// to treat every unknown as voltage-like.
///
/// # Errors
///
/// * [`CircuitError::ConvergenceFailure`] if the iteration budget is
///   exhausted.
/// * [`CircuitError::Diverged`] if every damping trial of some step
///   produces a non-finite residual — the iterate is left untouched and
///   the error returns immediately, never after `max_iters` of NaN.
/// * [`CircuitError::Numerics`] if the Jacobian is singular.
pub fn newton_solve<S: NewtonSystem>(
    system: &S,
    x0: &[f64],
    kinds: &[UnknownKind],
    options: NewtonOptions,
) -> Result<(Vec<f64>, NewtonStats)> {
    let mut workspace = LinearSolverWorkspace::new();
    newton_solve_with_workspace(system, x0, kinds, options, &mut workspace)
}

/// [`newton_solve`] with caller-owned linear-solver state.
///
/// Passing the same [`LinearSolverWorkspace`] to a sequence of solves over
/// the same circuit structure (transient timesteps, gmin/source-stepping
/// rungs, continuation steps, shooting sweeps) reuses the assembly slot
/// maps and the symbolic LU across *all* of them: after the very first
/// iteration of the first solve, every direct linear solve is a numeric
/// refactorisation.
///
/// # Errors
///
/// Same contract as [`newton_solve`].
pub fn newton_solve_with_workspace<S: NewtonSystem>(
    system: &S,
    x0: &[f64],
    kinds: &[UnknownKind],
    options: NewtonOptions,
    workspace: &mut LinearSolverWorkspace,
) -> Result<(Vec<f64>, NewtonStats)> {
    newton_solve_budgeted(
        system,
        x0,
        kinds,
        options,
        workspace,
        &SolveBudget::unlimited(),
    )
}

/// [`newton_solve_with_workspace`] under a [`SolveBudget`] — the solve
/// control plane's entry into the Newton core.
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
/// [`CircuitError::Interrupted`] when the budget fires, plus everything
/// [`newton_solve`] returns.
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
    let mut damped = false;
    let mut stagnant = 0usize;
    let mut prev_norm = f64::INFINITY;

    // Chord (modified-Newton) state: how many more iterations may reuse
    // the workspace's last factorisation outright.
    let chord_enabled = options.jacobian_reuse > 0 && options.linear == LinearSolver::Direct;
    let mut chord_left = 0usize;

    system.residual(&x, &mut residual);
    let mut res_norm = norm2(&residual);

    for iter in 1..=options.max_iters {
        meter.check()?;
        let fresh = !(chord_enabled && chord_left > 0 && workspace.has_factors());
        if fresh {
            jac.clear();
            system.residual_and_jacobian(&x, &mut residual, &mut jac);
            if chord_enabled {
                chord_left = options.jacobian_reuse;
            }
        } else {
            system.residual(&x, &mut residual);
            chord_left -= 1;
        }
        res_norm = norm2(&residual);

        // Newton step: J·dx = −F.
        let neg_f: Vec<f64> = residual.iter().map(|v| -v).collect();
        let mut dx = if fresh {
            match options.linear.solve_with(workspace, &jac, &neg_f, budget) {
                Ok(dx) => dx,
                // Re-stamp an inner-loop interruption with outer
                // (Newton-level) iteration context before reporting.
                Err(CircuitError::Interrupted(i)) => return Err(meter.interrupt(i.reason).into()),
                Err(e) => return Err(e),
            }
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
        let scaled_dx: Vec<f64> = dx.iter().map(|d| alpha * d).collect();
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
        let (x, stats) =
            newton_solve(&Quadratic, &[3.0], &[], NewtonOptions::default()).expect("newton");
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!(stats.iterations < 10);
    }

    #[test]
    fn solves_coupled_system() {
        let (x, _) =
            newton_solve(&Coupled, &[2.5, 0.1], &[], NewtonOptions::default()).expect("newton");
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
        let (_, stats) =
            newton_solve(&Quadratic, &[2.1], &[], NewtonOptions::default()).expect("newton");
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
            newton_solve(&Quadratic, &[100.0], &[], opts),
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
        let err = newton_solve(&NaNRidge, &[0.0], &[], NewtonOptions::default())
            .expect_err("no finite step exists");
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
        // Run through the workspace wrapper too, and assert the error is
        // recoverable (ladder fuel), not an interruption.
        let mut ws = LinearSolverWorkspace::new();
        let err =
            newton_solve_with_workspace(&NaNRidge, &[0.0], &[], NewtonOptions::default(), &mut ws)
                .expect_err("diverges");
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
        let (x, _) =
            newton_solve(&Exponential, &[-30.0], &[], NewtonOptions::default()).expect("newton");
        assert!(x[0].abs() < 1e-4, "root of e^x−1 is 0, got {}", x[0]);
    }

    #[test]
    fn chord_newton_matches_full_newton() {
        let full = newton_solve(&Coupled, &[2.5, 0.1], &[], NewtonOptions::default())
            .expect("full newton");
        let chord = newton_solve(
            &Coupled,
            &[2.5, 0.1],
            &[],
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
        let (x, _) = newton_solve(
            &Exponential,
            &[3.0],
            &[],
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
        let (x1, _) = newton_solve_with_workspace(
            &Coupled,
            &[2.5, 0.1],
            &[],
            NewtonOptions::default(),
            &mut ws,
        )
        .expect("first solve");
        // One structural setup, then numeric-only refactorisations.
        assert_eq!(ws.stats.full_factorizations, 1);
        assert_eq!(ws.stats.pattern_rebuilds, 1);
        assert!(ws.stats.refactorizations >= 1);
        let refactors_after_first = ws.stats.refactorizations;
        let (x2, _) = newton_solve_with_workspace(
            &Coupled,
            &[2.0, 0.5],
            &[],
            NewtonOptions::default(),
            &mut ws,
        )
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
        let (x, _) = newton_solve_with_workspace(&Coupled, &[2.5, 0.1], &[], opts, &mut ws)
            .expect("chord newton");
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
        newton_solve_with_workspace(
            &Coupled,
            &[2.5, 0.1],
            &[],
            NewtonOptions::default(),
            &mut ws,
        )
        .expect("coupled");
        let (x, _) =
            newton_solve_with_workspace(&Quadratic, &[3.0], &[], NewtonOptions::default(), &mut ws)
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
        newton_solve_with_workspace(
            &Coupled,
            &[2.5, 0.1],
            &[],
            NewtonOptions::default(),
            &mut ws_c,
        )
        .expect("coupled");
        let key_c = ws_c.pattern_fingerprint().expect("warmed");
        let mut ws_q = cache.checkout(probe(1));
        newton_solve_with_workspace(&Quadratic, &[3.0], &[], NewtonOptions::default(), &mut ws_q)
            .expect("quadratic");
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
        newton_solve_with_workspace(
            &Coupled,
            &[2.0, 0.5],
            &[],
            NewtonOptions::default(),
            &mut ws,
        )
        .expect("coupled again");
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
    fn parallel_strategy_matches_sequential_and_counts() {
        // Width-2 pool: even on a single-core host the pipeline threads
        // run (timeshared), so correctness and counters are testable
        // everywhere; the speedup itself is covered by the multi-core CI
        // job.
        let mut seq_ws = LinearSolverWorkspace::new();
        let (x_seq, _) = newton_solve_with_workspace(
            &Coupled,
            &[2.5, 0.1],
            &[],
            NewtonOptions::default(),
            &mut seq_ws,
        )
        .expect("sequential");
        let mut par_ws =
            LinearSolverWorkspace::with_strategy(RefactorStrategy::Parallel(WorkerPool::new(2)));
        assert!(matches!(
            par_ws.refactor_strategy(),
            RefactorStrategy::Parallel(_)
        ));
        let (x_par, _) = newton_solve_with_workspace(
            &Coupled,
            &[2.5, 0.1],
            &[],
            NewtonOptions::default(),
            &mut par_ws,
        )
        .expect("parallel");
        assert_eq!(x_seq, x_par, "pipeline must be bit-identical");
        assert!(par_ws.stats.refactorizations >= 1);
        assert_eq!(
            par_ws.stats.parallel_refactorizations, par_ws.stats.refactorizations,
            "every refresh of this solve should ride the pipeline"
        );
        assert_eq!(seq_ws.stats.parallel_refactorizations, 0);
        // Strategy can be swapped mid-life without losing the caches.
        par_ws.set_refactor_strategy(RefactorStrategy::Sequential);
        let before = par_ws.stats;
        newton_solve_with_workspace(
            &Coupled,
            &[2.0, 0.5],
            &[],
            NewtonOptions::default(),
            &mut par_ws,
        )
        .expect("after strategy swap");
        assert_eq!(par_ws.stats.full_factorizations, before.full_factorizations);
        assert_eq!(
            par_ws.stats.parallel_refactorizations,
            before.parallel_refactorizations
        );
    }

    #[test]
    fn gmres_ilu0_refreshes_cached_preconditioner() {
        // Two solves over one structure: the first builds the ILU(0)
        // preconditioner, every later iteration refreshes it in place.
        let opts = NewtonOptions {
            linear: LinearSolver::gmres_default(),
            ..Default::default()
        };
        let mut ws = LinearSolverWorkspace::new();
        newton_solve_with_workspace(&Coupled, &[2.5, 0.1], &[], opts, &mut ws).expect("first");
        newton_solve_with_workspace(&Coupled, &[2.0, 0.5], &[], opts, &mut ws).expect("second");
        assert!(ws.stats.iterative_solves >= 2);
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
        newton_solve_with_workspace(&Quadratic, &[3.0], &[], opts, &mut ws)
            .expect("different structure");
        assert_eq!(ws.stats.precond_rebuilds, 2);
    }

    #[test]
    fn gmres_block_jacobi_parallel_refresh_matches_sequential() {
        // block_size 1 on the 2-unknown system gives two independent
        // blocks — enough for the pooled refresh to actually chunk.
        let opts = NewtonOptions {
            linear: LinearSolver::GmresBlockJacobi {
                block_size: 1,
                rtol: 1e-10,
                restart: 20,
                max_iters: 200,
            },
            ..Default::default()
        };
        let mut seq = LinearSolverWorkspace::new();
        let (x_seq, _) = newton_solve_with_workspace(&Coupled, &[2.5, 0.1], &[], opts, &mut seq)
            .expect("sequential");
        newton_solve_with_workspace(&Coupled, &[2.0, 0.5], &[], opts, &mut seq).expect("seq 2");
        let mut par =
            LinearSolverWorkspace::with_strategy(RefactorStrategy::Parallel(WorkerPool::new(2)));
        let (x_par, _) = newton_solve_with_workspace(&Coupled, &[2.5, 0.1], &[], opts, &mut par)
            .expect("parallel");
        newton_solve_with_workspace(&Coupled, &[2.0, 0.5], &[], opts, &mut par).expect("par 2");
        assert_eq!(x_seq, x_par, "block-parallel refresh must be bit-identical");
        assert!(par.stats.precond_refreshes >= 1, "{:?}", par.stats);
        assert_eq!(
            par.stats.parallel_precond_refreshes, par.stats.precond_refreshes,
            "every refresh under the Parallel strategy rides the pool: {:?}",
            par.stats
        );
        assert_eq!(seq.stats.parallel_precond_refreshes, 0);
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
        newton_solve_with_workspace(
            &Coupled,
            &[2.5, 0.1],
            &[],
            NewtonOptions::default(),
            &mut ws_a,
        )
        .expect("a");
        let mut ws_b = cache.checkout(probe(1));
        newton_solve_with_workspace(&Quadratic, &[3.0], &[], NewtonOptions::default(), &mut ws_b)
            .expect("b");
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
