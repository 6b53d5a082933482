//! Warm-started parameter sweeps and the batched multi-topology
//! [`SweepEngine`].
//!
//! Steady-state solutions vary smoothly with source amplitude, bias and
//! tone spacing, so each sweep point seeds the next solve — the standard
//! way to trace gain-compression curves cheaply. This module runs that
//! idea for one circuit family ([`amplitude_sweep`]) and for *batches* of
//! families with mixed Jacobian structures ([`SweepEngine`]):
//!
//! * **Per-sweep workspaces** — a sweep owns its
//!   [`LinearSolverWorkspace`]s, one per circuit structure it meets,
//!   keyed by the circuit's MNA [`PatternFingerprint`] and the solution
//!   size. Every point after the first on one structure runs
//!   numeric-only refactorisations; a family that switches topology
//!   mid-sweep re-keys to (or back to) the workspace warmed on its new
//!   structure. Fingerprints are routing keys only — the workspace itself
//!   still verifies every stamp position and the stored factor pattern,
//!   so a hash collision costs a transparent rebuild, never a wrong solve.
//! * **Independent jobs** — every job of a batch solves on its own
//!   workspaces from its own initial guess, so its result is bit-identical
//!   to running it alone through [`amplitude_sweep`], whatever else the
//!   batch holds and however wide the pool is. The `rfsim-serve` solution
//!   store relies on this: a re-solve reproduces the stored bytes.
//! * **Worker pool** — jobs whose circuits share a structure form a
//!   *topology group*; independent groups execute concurrently on a
//!   hand-rolled fixed-thread [`WorkerPool`], and a width-1 pool
//!   degenerates to exact sequential execution. Size it with
//!   [`WorkerPool::from_available_parallelism`] unless you know better.
//!
//! Three steady-state backends ride the same machinery: the sheared-MPDE
//! solver ([`MpdeSweepJob`]), two-tone harmonic balance ([`Hb2SweepJob`])
//! and single-tone periodic collocation ([`PeriodicFdSweepJob`]).
//! Multi-parameter (amplitude × tone-spacing) grids run as one batch with
//! one job per spacing row: each row is an amplitude chain on the
//! `[0, t1_period) × [0, 1/fd)` grid.
//!
//! The engine keeps no solutions and no workspaces between batches:
//! repeated requests are memoised one layer up, in the `rfsim-serve`
//! solution store.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use rfsim_circuit::driver::{fall_back, RungKind};
use rfsim_circuit::fault::SolveFault;
use rfsim_circuit::newton::{LinearSolverWorkspace, WorkspaceStats};
use rfsim_circuit::{Circuit, Result};
use rfsim_hb::hb2::{hb2_solve_budgeted, Hb2Options, Hb2Result};
use rfsim_mpde::solver::{solve_mpde_budgeted, InitialGuess, MpdeOptions};
use rfsim_mpde::MpdeSolution;
use rfsim_numerics::sparse::PatternFingerprint;
use rfsim_numerics::SolveBudget;
use rfsim_shooting::{periodic_fd_pss_budgeted, PeriodicFdOptions, PeriodicFdResult};

use crate::pool::WorkerPool;

/// One point of an amplitude sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept value (e.g. RF amplitude in volts).
    pub value: f64,
    /// The MPDE solution at this point.
    pub solution: MpdeSolution,
}

/// One point of a two-tone harmonic-balance sweep.
#[derive(Debug, Clone)]
pub struct Hb2SweepPoint {
    /// The swept value.
    pub value: f64,
    /// The HB solution at this point.
    pub solution: Hb2Result,
}

/// One point of a periodic-collocation sweep.
#[derive(Debug, Clone)]
pub struct PeriodicFdSweepPoint {
    /// The swept value.
    pub value: f64,
    /// The PSS solution at this point.
    pub solution: PeriodicFdResult,
}

/// A steady-state solver that can participate in warm-started sweeps.
/// Implementations exist for the sheared MPDE engine ([`MpdeBackend`]),
/// two-tone HB ([`Hb2Backend`]) and periodic collocation
/// ([`PeriodicFdBackend`]).
pub trait SweepBackend {
    /// Steady-state solution produced per sweep point.
    type Solution;

    /// Flattened solution length for `circuit` — gates whether a previous
    /// solution can seed the next solve, and keys the sweep's workspaces
    /// together with the circuit's MNA fingerprint.
    fn dim(&self, circuit: &Circuit) -> usize;

    /// One steady-state solve, warm-started from `guess` when given and
    /// running under `budget` (pass [`SolveBudget::unlimited`] for an
    /// unconstrained solve).
    ///
    /// # Errors
    ///
    /// Propagates solver convergence and structural failures;
    /// [`rfsim_circuit::CircuitError::Interrupted`] when the budget stops
    /// the solve.
    fn solve(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        workspace: &mut LinearSolverWorkspace,
        budget: &SolveBudget,
    ) -> Result<Self::Solution>;

    /// The flattened samples of `solution` (the next point's warm start).
    fn samples<'a>(&self, solution: &'a Self::Solution) -> &'a [f64];
}

/// Sheared-MPDE sweep backend (the paper's method).
#[derive(Debug, Clone)]
pub struct MpdeBackend {
    t1_period: f64,
    t2_period: f64,
    options: MpdeOptions,
}

impl SweepBackend for MpdeBackend {
    type Solution = MpdeSolution;

    fn dim(&self, circuit: &Circuit) -> usize {
        circuit.num_unknowns() * self.options.n1 * self.options.n2
    }

    fn solve(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        workspace: &mut LinearSolverWorkspace,
        budget: &SolveBudget,
    ) -> Result<MpdeSolution> {
        let mut options = self.options.clone();
        if let Some(g) = guess {
            options.initial_guess = InitialGuess::Samples(g.to_vec());
        }
        solve_mpde_budgeted(
            circuit,
            self.t1_period,
            self.t2_period,
            options,
            workspace,
            budget,
        )
    }

    fn samples<'a>(&self, solution: &'a MpdeSolution) -> &'a [f64] {
        &solution.solution.data
    }
}

/// Two-tone harmonic-balance sweep backend.
#[derive(Debug, Clone)]
pub struct Hb2Backend {
    period1: f64,
    period2: f64,
    options: Hb2Options,
}

impl SweepBackend for Hb2Backend {
    type Solution = Hb2Result;

    fn dim(&self, circuit: &Circuit) -> usize {
        // hb2_solve clamps both axes to at least 4 points.
        circuit.num_unknowns() * self.options.n1.max(4) * self.options.n2.max(4)
    }

    fn solve(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        workspace: &mut LinearSolverWorkspace,
        budget: &SolveBudget,
    ) -> Result<Hb2Result> {
        hb2_solve_budgeted(
            circuit,
            self.period1,
            self.period2,
            guess,
            self.options,
            workspace,
            budget,
        )
    }

    fn samples<'a>(&self, solution: &'a Hb2Result) -> &'a [f64] {
        &solution.samples
    }
}

/// Single-tone periodic-collocation sweep backend.
#[derive(Debug, Clone)]
pub struct PeriodicFdBackend {
    period: f64,
    options: PeriodicFdOptions,
}

impl SweepBackend for PeriodicFdBackend {
    type Solution = PeriodicFdResult;

    fn dim(&self, circuit: &Circuit) -> usize {
        // periodic_fd_pss clamps the sample count to the stencil width.
        circuit.num_unknowns() * self.options.n_samples.max(self.options.scheme.min_points())
    }

    fn solve(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        workspace: &mut LinearSolverWorkspace,
        budget: &SolveBudget,
    ) -> Result<PeriodicFdResult> {
        periodic_fd_pss_budgeted(circuit, self.period, guess, self.options, workspace, budget)
    }

    fn samples<'a>(&self, solution: &'a PeriodicFdResult) -> &'a [f64] {
        &solution.samples
    }
}

/// A circuit family: the swept value in, the circuit at that operating
/// point out.
pub type CircuitFamily = Box<dyn Fn(f64) -> Result<Circuit> + Send + Sync>;

/// Per-job outcome of a generic batch: the traced `(value, solution)`
/// pairs, or the first error the job hit.
pub type SweepResult<S> = Result<Vec<(f64, S)>>;

/// One sweep job: a circuit family, the values to trace, and the backend
/// configuration to solve each point with.
pub struct SweepJob<B> {
    /// Diagnostic name carried through to results and logs.
    pub label: String,
    /// Swept values, traced in order with warm-start chaining.
    pub values: Vec<f64>,
    /// Backend configuration shared by all points.
    pub backend: B,
    make_circuit: CircuitFamily,
    budget: Option<SolveBudget>,
    fault: Option<SolveFault>,
}

impl<B> std::fmt::Debug for SweepJob<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepJob")
            .field("label", &self.label)
            .field("points", &self.values.len())
            .field("budget", &self.budget)
            .field("fault", &self.fault)
            .finish()
    }
}

impl<B> SweepJob<B> {
    /// Runs this job under its own [`SolveBudget`] instead of the batch
    /// budget. The budget covers every point of the sweep: the chain
    /// fail-fasts between points and every Newton/Krylov iteration inside
    /// a point polls it, so a cancel or an expired deadline surfaces as
    /// [`rfsim_circuit::CircuitError::Interrupted`] in this job's result
    /// slot without touching its batch neighbours.
    #[must_use]
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The per-job budget set by [`SweepJob::with_budget`], if any.
    pub fn budget(&self) -> Option<&SolveBudget> {
        self.budget.as_ref()
    }

    /// Injects a deterministic [`SolveFault`] ahead of every point's solve
    /// — test/drill instrumentation for the control plane (see
    /// [`rfsim_circuit::fault`]). A faulted job only ever fails or hangs
    /// *itself*; it cannot corrupt results.
    #[must_use]
    pub fn with_fault(mut self, fault: SolveFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The injected fault set by [`SweepJob::with_fault`], if any.
    pub fn fault(&self) -> Option<&SolveFault> {
        self.fault.as_ref()
    }
}

/// An MPDE amplitude-sweep job for [`SweepEngine::run_mpde_batch`].
pub type MpdeSweepJob = SweepJob<MpdeBackend>;

/// A two-tone HB sweep job for [`SweepEngine::run_hb2_batch`].
pub type Hb2SweepJob = SweepJob<Hb2Backend>;

/// A periodic-collocation sweep job for
/// [`SweepEngine::run_periodic_fd_batch`].
pub type PeriodicFdSweepJob = SweepJob<PeriodicFdBackend>;

impl SweepJob<MpdeBackend> {
    /// An MPDE sweep of `values` over the family `make_circuit`, solving
    /// each point on the `[0, t1_period) × [0, t2_period)` grid.
    pub fn new(
        label: impl Into<String>,
        values: Vec<f64>,
        t1_period: f64,
        t2_period: f64,
        options: MpdeOptions,
        make_circuit: impl Fn(f64) -> Result<Circuit> + Send + Sync + 'static,
    ) -> Self {
        SweepJob {
            label: label.into(),
            values,
            backend: MpdeBackend {
                t1_period,
                t2_period,
                options,
            },
            make_circuit: Box::new(make_circuit),
            budget: None,
            fault: None,
        }
    }
}

impl SweepJob<Hb2Backend> {
    /// A two-tone HB sweep of `values` over the family `make_circuit`.
    pub fn new(
        label: impl Into<String>,
        values: Vec<f64>,
        period1: f64,
        period2: f64,
        options: Hb2Options,
        make_circuit: impl Fn(f64) -> Result<Circuit> + Send + Sync + 'static,
    ) -> Self {
        SweepJob {
            label: label.into(),
            values,
            backend: Hb2Backend {
                period1,
                period2,
                options,
            },
            make_circuit: Box::new(make_circuit),
            budget: None,
            fault: None,
        }
    }
}

impl SweepJob<PeriodicFdBackend> {
    /// A periodic-collocation sweep of `values` over the family
    /// `make_circuit`, solving each point over one `period`.
    pub fn new(
        label: impl Into<String>,
        values: Vec<f64>,
        period: f64,
        options: PeriodicFdOptions,
        make_circuit: impl Fn(f64) -> Result<Circuit> + Send + Sync + 'static,
    ) -> Self {
        SweepJob {
            label: label.into(),
            values,
            backend: PeriodicFdBackend { period, options },
            make_circuit: Box::new(make_circuit),
            budget: None,
            fault: None,
        }
    }
}

/// Snapshot of the engine's workspace counters, summed over every sweep it
/// has run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Re-keys that found a workspace the same sweep had already warmed
    /// (a family returning to a structure it solved earlier in the sweep).
    pub hits: usize,
    /// Workspaces built: one per sweep and distinct structure it met.
    pub misses: usize,
}

/// Batched multi-topology sweep engine: groups jobs by circuit structure
/// and runs the groups concurrently on a fixed-thread worker pool, every
/// job on workspaces of its own.
///
/// The engine keeps no state between batches beyond its counters, so
/// every job's result is bit-identical to its solo [`amplitude_sweep`].
///
/// ```
/// use rfsim_circuit::{BiWaveform, CircuitBuilder, Envelope, GROUND};
/// use rfsim_mpde::solver::MpdeOptions;
/// use rfsim_rf::pool::WorkerPool;
/// use rfsim_rf::sweep::{amplitude_sweep, MpdeSweepJob, SweepEngine};
///
/// # fn main() -> Result<(), rfsim_circuit::CircuitError> {
/// let (f1, fd) = (1e6, 10e3);
/// // A family of RC output stages, parameterised by load resistance.
/// let family = move |r_load: f64| {
///     move |amplitude: f64| {
///         let mut b = CircuitBuilder::new();
///         let inp = b.node("in");
///         let out = b.node("out");
///         b.vsource(
///             "VRF",
///             inp,
///             GROUND,
///             BiWaveform::ShearedCarrier {
///                 amplitude,
///                 k: 1,
///                 f1,
///                 fd,
///                 phase: 0.0,
///                 envelope: Envelope::Unit,
///             },
///         )?;
///         b.resistor("R1", inp, out, r_load)?;
///         b.capacitor("C1", out, GROUND, 160e-12)?;
///         b.build()
///     }
/// };
/// let opts = MpdeOptions {
///     n1: 8,
///     n2: 4,
///     ..Default::default()
/// };
/// let jobs = vec![
///     MpdeSweepJob::new("load-1k", vec![0.1, 0.2], 1.0 / f1, 1.0 / fd,
///                       opts.clone(), family(1e3)),
///     MpdeSweepJob::new("load-2k", vec![0.1, 0.2], 1.0 / f1, 1.0 / fd,
///                       opts.clone(), family(2e3)),
/// ];
/// let engine = SweepEngine::with_pool(WorkerPool::new(2));
/// let results = engine.run_mpde_batch(&jobs);
/// // Both families share one topology, yet each job solved on its own
/// // workspace: the second matches its solo sweep bit for bit.
/// let solo = amplitude_sweep(&[0.1, 0.2], 1.0 / f1, 1.0 / fd, opts, family(2e3))?;
/// let batched = results[1].as_ref().expect("sweep converges");
/// for (b, s) in batched.iter().zip(&solo) {
///     assert_eq!(b.solution.solution.data, s.solution.solution.data);
/// }
/// assert_eq!(engine.cache_stats().misses, 2);
/// # Ok(())
/// # }
/// ```
pub struct SweepEngine {
    pool: WorkerPool,
    /// Workspace and solver counters summed over every finished sweep.
    totals: Mutex<(CacheSnapshot, WorkspaceStats)>,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// An engine sized to the machine
    /// ([`WorkerPool::from_available_parallelism`]).
    pub fn new() -> Self {
        Self::with_pool(WorkerPool::from_available_parallelism())
    }

    /// An engine running on an explicit pool.
    pub fn with_pool(pool: WorkerPool) -> Self {
        SweepEngine {
            pool,
            totals: Mutex::new(Default::default()),
        }
    }

    /// Does nothing and returns the engine unchanged: the engine keeps no
    /// solution memo (the `rfsim-serve` solution store is the one memo
    /// layer). Kept only because the repository benchmark (`perfbench/`)
    /// still calls it.
    #[must_use]
    pub fn with_solution_memo(self, _capacity: usize) -> Self {
        self
    }

    /// Does nothing and returns the engine unchanged: every job already
    /// solves independently of its group neighbours. Kept only because
    /// the repository benchmark (`perfbench/`) still calls it.
    #[must_use]
    pub fn chain_topology_groups(self, _chain: bool) -> Self {
        self
    }

    /// The worker pool this engine schedules groups onto.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Workspace counters summed over every sweep this engine has run.
    pub fn cache_stats(&self) -> CacheSnapshot {
        self.totals.lock().expect("engine totals poisoned").0
    }

    /// Aggregated linear-solver counters across every workspace the
    /// engine's sweeps have used — refactorisations vs full
    /// factorisations and vanished-pivot fallbacks, preconditioner
    /// refreshes vs rebuilds. Take the snapshot between batches: a sweep
    /// reports when it finishes.
    pub fn solver_stats(&self) -> WorkspaceStats {
        self.totals.lock().expect("engine totals poisoned").1
    }

    /// Folds a finished sweep's workspace counters into the engine totals.
    fn absorb(&self, workspaces: &SweepWorkspaces) {
        let mut totals = self.totals.lock().expect("engine totals poisoned");
        totals.0.hits += workspaces.hits;
        totals.0.misses += workspaces.entries.len();
        for (_, _, ws) in &workspaces.entries {
            totals.1.absorb(&ws.stats);
        }
    }

    /// Runs a batch of sweep jobs over any backend: builds each job's
    /// first circuit, groups jobs by circuit structure, executes the
    /// groups concurrently on the pool, and returns per-job results in
    /// input order. A job that fails leaves the other jobs untouched — its
    /// slot carries the error.
    pub fn run_batch<B>(&self, jobs: &[SweepJob<B>]) -> Vec<SweepResult<B::Solution>>
    where
        B: SweepBackend + Sync,
        B::Solution: Send,
    {
        self.run_batch_with_budget(jobs, &SolveBudget::unlimited())
    }

    /// [`SweepEngine::run_batch`] under a batch-wide [`SolveBudget`]. The
    /// budget fans out to a [`SolveBudget::child`] per sub-job, so one
    /// batch cancel (or deadline) stops every worker promptly: each job
    /// slot whose solve was cut short carries
    /// [`rfsim_circuit::CircuitError::Interrupted`], while already-settled
    /// slots keep their results. A job with its own
    /// [`SweepJob::with_budget`] runs under that budget instead.
    pub fn run_batch_with_budget<B>(
        &self,
        jobs: &[SweepJob<B>],
        budget: &SolveBudget,
    ) -> Vec<SweepResult<B::Solution>>
    where
        B: SweepBackend + Sync,
        B::Solution: Send,
    {
        // Each job's first circuit is built once, in parallel: it keys the
        // job's group here and is the first point's circuit in the sweep.
        let firsts = self.pool.run(jobs.len(), |j| {
            let job = &jobs[j];
            job.values.first().map(|&v| (job.make_circuit)(v))
        });

        let mut results: Vec<Option<SweepResult<B::Solution>>> =
            (0..jobs.len()).map(|_| None).collect();
        // Deterministic group order (BTreeMap) keeps scheduling stable.
        type GroupKey = (PatternFingerprint, usize);
        let mut groups: BTreeMap<GroupKey, Vec<(usize, Circuit)>> = BTreeMap::new();
        for (j, first) in firsts.into_iter().enumerate() {
            match first {
                None => results[j] = Some(Ok(Vec::new())),
                Some(Err(e)) => results[j] = Some(Err(e)),
                Some(Ok(circuit)) => {
                    let key = (
                        circuit.jacobian_fingerprint(),
                        jobs[j].backend.dim(&circuit),
                    );
                    groups.entry(key).or_default().push((j, circuit));
                }
            }
        }
        let groups: Vec<Vec<(usize, Circuit)>> = groups.into_values().collect();

        // A group's jobs run back to back in one pool task. Grouping does
        // not change any result (every job solves on its own workspaces);
        // it bounds memory. One pool task per job measured 13% more
        // jobs/s on serve traffic but 31% more peak RSS (13.6 → 17.9 MB),
        // because every extra thread that allocates a grid Jacobian gets
        // its own glibc malloc arena. `WorkerPool::run` runs a one-task
        // batch inline on the calling thread, so a request whose rows
        // share one structure never leaves the scheduler thread.
        let group_outs = self.pool.run(groups.len(), |g| {
            groups[g]
                .iter()
                .map(|(j, first)| {
                    let job = &jobs[*j];
                    // Per-job budget: the job's own if set, else a child
                    // of the batch budget — so cancelling the batch
                    // reaches every job, and a per-job deadline never
                    // leaks to neighbours.
                    let job_budget = job.budget.clone().unwrap_or_else(|| budget.child());
                    let mut workspaces = SweepWorkspaces::default();
                    let result = sweep_chain(
                        &job.backend,
                        &job.values,
                        &mut |v| (job.make_circuit)(v),
                        Some(first),
                        &mut workspaces,
                        &job_budget,
                        job.fault.as_ref(),
                    );
                    self.absorb(&workspaces);
                    (*j, result)
                })
                .collect::<Vec<_>>()
        });
        for group in group_outs {
            for (j, result) in group {
                results[j] = Some(result);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every job is either empty, failed its build, or ran in a group"))
            .collect()
    }

    /// [`SweepEngine::run_batch`] for MPDE jobs, with results wrapped as
    /// [`SweepPoint`]s. An amplitude × tone-spacing grid is one job per
    /// spacing row.
    pub fn run_mpde_batch(&self, jobs: &[MpdeSweepJob]) -> Vec<Result<Vec<SweepPoint>>> {
        self.run_batch(jobs)
            .into_iter()
            .map(|r| {
                r.map(|points| {
                    points
                        .into_iter()
                        .map(|(value, solution)| SweepPoint { value, solution })
                        .collect()
                })
            })
            .collect()
    }

    /// [`SweepEngine::run_batch`] for two-tone HB jobs.
    pub fn run_hb2_batch(&self, jobs: &[Hb2SweepJob]) -> Vec<Result<Vec<Hb2SweepPoint>>> {
        self.run_batch(jobs)
            .into_iter()
            .map(|r| {
                r.map(|points| {
                    points
                        .into_iter()
                        .map(|(value, solution)| Hb2SweepPoint { value, solution })
                        .collect()
                })
            })
            .collect()
    }

    /// [`SweepEngine::run_batch`] for periodic-collocation jobs.
    pub fn run_periodic_fd_batch(
        &self,
        jobs: &[PeriodicFdSweepJob],
    ) -> Vec<Result<Vec<PeriodicFdSweepPoint>>> {
        self.run_batch(jobs)
            .into_iter()
            .map(|r| {
                r.map(|points| {
                    points
                        .into_iter()
                        .map(|(value, solution)| PeriodicFdSweepPoint { value, solution })
                        .collect()
                })
            })
            .collect()
    }
}

/// The workspaces one sweep owns, one per `(circuit fingerprint, solution
/// size)` it meets. The backend and its grid shape are fixed within a
/// sweep, so the circuit's MNA fingerprint changes whenever the backend's
/// Jacobian pattern does.
#[derive(Default)]
struct SweepWorkspaces {
    entries: Vec<(PatternFingerprint, usize, LinearSolverWorkspace)>,
    /// Re-keys that found an entry already warmed by this sweep.
    hits: usize,
}

impl SweepWorkspaces {
    /// Index of the workspace for `(fingerprint, dim)`, building an empty
    /// one on first sight.
    fn index(&mut self, fingerprint: PatternFingerprint, dim: usize) -> usize {
        match self
            .entries
            .iter()
            .position(|(f, d, _)| *f == fingerprint && *d == dim)
        {
            Some(i) => {
                self.hits += 1;
                i
            }
            None => {
                self.entries
                    .push((fingerprint, dim, LinearSolverWorkspace::new()));
                self.entries.len() - 1
            }
        }
    }
}

/// The warm-start chain shared by every sweep flavour: builds the circuit
/// per point (the first point uses `first` when given), routes each
/// point's solve to the sweep's workspace for that circuit's structure
/// (re-keying transparently when `make_circuit` changes the topology
/// mid-sweep), and seeds each solve from the previous solution.
fn sweep_chain<B: SweepBackend>(
    backend: &B,
    values: &[f64],
    make_circuit: &mut dyn FnMut(f64) -> Result<Circuit>,
    mut first: Option<&Circuit>,
    workspaces: &mut SweepWorkspaces,
    budget: &SolveBudget,
    fault: Option<&SolveFault>,
) -> SweepResult<B::Solution> {
    let started = Instant::now();
    let mut out = Vec::with_capacity(values.len());
    let mut prev: Option<Vec<f64>> = None;
    let mut current: Option<usize> = None;
    for &value in values {
        // Fail fast between points: the solvers poll the budget inside
        // each point, so this check only closes the gap where a cancel
        // lands between one point finishing and the next starting. The
        // "iterations" slot reports completed sweep points, and there is
        // no single residual for a chain.
        if !budget.is_unlimited() {
            if let Some(i) = budget.interruption(started, out.len(), f64::INFINITY) {
                return Err(i.into());
            }
        }
        if let Some(f) = fault {
            f.run(budget)?;
        }
        let built;
        let circuit = match first.take() {
            Some(c) => c,
            None => {
                built = make_circuit(value)?;
                &built
            }
        };
        let fingerprint = circuit.jacobian_fingerprint();
        let dim = backend.dim(circuit);
        let same_topology = current.is_some_and(|i| {
            let (f, d, _) = &workspaces.entries[i];
            *f == fingerprint && *d == dim
        });
        // A warm start carried over from a different topology is a hint
        // (retried unseeded on failure), not the trusted same-structure
        // warm start.
        let rekeyed = !same_topology && current.is_some();
        if !same_topology {
            current = Some(workspaces.index(fingerprint, dim));
        }
        let workspace = &mut workspaces.entries[current.expect("keyed above")].2;
        // The warm start is dropped if the solution layout no longer
        // matches (a re-key changed the number of unknowns).
        let guess = prev.take().filter(|g| g.len() == dim);
        // The sweep point's recovery ladder: the (possibly seeded) solve,
        // plus — when the warm start was only a hint — a retry from the
        // job's own initial guess. `fall_back` classifies the failure:
        // interruptions and structural errors are never retried.
        let mut solved = backend.solve(circuit, guess.as_deref(), workspace, budget);
        if rekeyed && guess.is_some() {
            solved = fall_back(
                solved,
                RungKind::RetryUnseeded,
                workspace,
                budget,
                |ws, b| backend.solve(circuit, None, ws, b),
            );
        }
        let solution = solved?;
        prev = Some(backend.samples(&solution).to_vec());
        out.push((value, solution));
    }
    Ok(out)
}

/// Sweeps a circuit-family parameter, rebuilding the circuit per point via
/// `make_circuit` and warm-starting each MPDE solve from the previous
/// solution.
///
/// Sweep points usually share one topology, making every solve after the
/// first a chain of numeric-only refactorisations. If `make_circuit`
/// changes the Jacobian sparsity pattern mid-sweep (an element switched
/// in above some drive, say), the sweep *re-keys* transparently: each
/// pattern gets its own workspace, warm starts are dropped whenever the
/// unknown layout changes, and no stale structure is ever applied to the
/// wrong matrix. For batches of families, prefer [`SweepEngine`], which
/// runs independent jobs concurrently.
///
/// # Errors
///
/// Propagates the first failed solve.
pub fn amplitude_sweep<F>(
    values: &[f64],
    t1_period: f64,
    t2_period: f64,
    base_options: MpdeOptions,
    mut make_circuit: F,
) -> Result<Vec<SweepPoint>>
where
    F: FnMut(f64) -> Result<Circuit>,
{
    let backend = MpdeBackend {
        t1_period,
        t2_period,
        options: base_options,
    };
    let points = sweep_chain(
        &backend,
        values,
        &mut make_circuit,
        None,
        &mut SweepWorkspaces::default(),
        &SolveBudget::unlimited(),
        None,
    )?;
    Ok(points
        .into_iter()
        .map(|(value, solution)| SweepPoint { value, solution })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim_circuit::{BiWaveform, CircuitBuilder, Envelope, Waveform, GROUND};

    fn rc_family(
        f1: f64,
        fd: f64,
        r: f64,
        c: f64,
    ) -> impl Fn(f64) -> Result<Circuit> + Send + Sync + 'static {
        move |a: f64| {
            let mut b = CircuitBuilder::new();
            let inp = b.node("in");
            let out = b.node("out");
            b.vsource(
                "VRF",
                inp,
                GROUND,
                BiWaveform::ShearedCarrier {
                    amplitude: a,
                    k: 1,
                    f1,
                    fd,
                    phase: 0.0,
                    envelope: Envelope::Unit,
                },
            )?;
            b.resistor("R1", inp, out, r)?;
            b.capacitor("C1", out, GROUND, c)?;
            b.build()
        }
    }

    fn small_opts() -> MpdeOptions {
        MpdeOptions {
            n1: 16,
            n2: 8,
            ..Default::default()
        }
    }

    #[test]
    fn sweep_scales_linearly_for_linear_circuit() {
        let (f1, fd) = (1e6, 10e3);
        let amps = [0.1, 0.2, 0.4];
        let points = amplitude_sweep(
            &amps,
            1.0 / f1,
            1.0 / fd,
            small_opts(),
            rc_family(f1, fd, 1e3, 160e-12),
        )
        .expect("sweep");
        assert_eq!(points.len(), 3);
        // Output scales with input for a linear circuit.
        let peak = |p: &SweepPoint| {
            p.solution
                .solution
                .surface(1)
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()))
        };
        let (p0, p1, p2) = (peak(&points[0]), peak(&points[1]), peak(&points[2]));
        assert!((p1 / p0 - 2.0).abs() < 0.05, "{p0} {p1}");
        assert!((p2 / p1 - 2.0).abs() < 0.05, "{p1} {p2}");
        // Warm starts make later points cheap.
        let _ = Waveform::Dc(0.0);
    }

    #[test]
    fn amplitude_sweep_rekeys_on_mid_sweep_topology_change() {
        // Above 0.25 V the family switches in a feedthrough capacitor
        // (same unknowns, new coupling): the old single-workspace sweep
        // silently assumed one topology; now each pattern gets its own
        // workspace and results match the per-topology runs.
        let (f1, fd) = (1e6, 10e3);
        let family = |a: f64| {
            let mut b = CircuitBuilder::new();
            let inp = b.node("in");
            let out = b.node("out");
            b.vsource(
                "VRF",
                inp,
                GROUND,
                BiWaveform::ShearedCarrier {
                    amplitude: a,
                    k: 1,
                    f1,
                    fd,
                    phase: 0.0,
                    envelope: Envelope::Unit,
                },
            )?;
            b.resistor("R1", inp, out, 1e3)?;
            b.capacitor("C1", out, GROUND, 160e-12)?;
            if a > 0.25 {
                b.capacitor("CX", inp, out, 20e-12)?;
            }
            b.build()
        };
        let amps = [0.1, 0.2, 0.3, 0.4];
        let points = amplitude_sweep(&amps, 1.0 / f1, 1.0 / fd, small_opts(), family)
            .expect("mixed-topology sweep");
        assert_eq!(points.len(), 4);
        for (p, &a) in points.iter().zip(&amps) {
            let single = rfsim_mpde::solver::solve_mpde(
                &family(a).expect("build"),
                1.0 / f1,
                1.0 / fd,
                small_opts(),
            )
            .expect("single solve");
            let d: f64 = p
                .solution
                .solution
                .data
                .iter()
                .zip(&single.solution.data)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max);
            assert!(d < 1e-3, "amplitude {a}: sweep vs single differ by {d}");
        }
    }

    #[test]
    fn amplitude_sweep_survives_dimension_change() {
        // The unknown count itself changes mid-sweep (an added node): the
        // warm start must be dropped, not fed into the wrong-size system.
        let (f1, fd) = (1e6, 10e3);
        let family = |a: f64| {
            let mut b = CircuitBuilder::new();
            let inp = b.node("in");
            let out = b.node("out");
            b.vsource(
                "VRF",
                inp,
                GROUND,
                BiWaveform::ShearedCarrier {
                    amplitude: a,
                    k: 1,
                    f1,
                    fd,
                    phase: 0.0,
                    envelope: Envelope::Unit,
                },
            )?;
            if a > 0.15 {
                let mid = b.node("mid");
                b.resistor("R1a", inp, mid, 0.5e3)?;
                b.resistor("R1b", mid, out, 0.5e3)?;
            } else {
                b.resistor("R1", inp, out, 1e3)?;
            }
            b.capacitor("C1", out, GROUND, 160e-12)?;
            b.build()
        };
        let points = amplitude_sweep(
            &[0.1, 0.2],
            1.0 / f1,
            1.0 / fd,
            MpdeOptions {
                n1: 8,
                n2: 4,
                ..Default::default()
            },
            family,
        )
        .expect("dimension-changing sweep");
        assert_eq!(points.len(), 2);
        assert_ne!(
            points[0].solution.stats.system_size,
            points[1].solution.stats.system_size
        );
    }

    #[test]
    fn engine_batch_matches_sequential_bit_for_bit() {
        let (f1, fd) = (1e6, 10e3);
        let jobs = vec![
            MpdeSweepJob::new(
                "rc",
                vec![0.1, 0.2],
                1.0 / f1,
                1.0 / fd,
                small_opts(),
                rc_family(f1, fd, 1e3, 160e-12),
            ),
            MpdeSweepJob::new(
                "rrc",
                vec![0.1, 0.3],
                1.0 / f1,
                1.0 / fd,
                small_opts(),
                |a: f64| {
                    let mut b = CircuitBuilder::new();
                    let inp = b.node("in");
                    let mid = b.node("mid");
                    let out = b.node("out");
                    b.vsource(
                        "VRF",
                        inp,
                        GROUND,
                        BiWaveform::ShearedCarrier {
                            amplitude: a,
                            k: 1,
                            f1: 1e6,
                            fd: 10e3,
                            phase: 0.0,
                            envelope: Envelope::Unit,
                        },
                    )?;
                    b.resistor("R1", inp, mid, 500.0)?;
                    b.resistor("R2", mid, out, 500.0)?;
                    b.capacitor("C1", out, GROUND, 160e-12)?;
                    b.build()
                },
            ),
        ];
        let engine = SweepEngine::with_pool(WorkerPool::new(2));
        let batch = engine.run_mpde_batch(&jobs);
        // Distinct topologies → two groups, each job on fresh workspaces:
        // identical execution to sequential amplitude_sweep calls.
        let seq_rc = amplitude_sweep(
            &[0.1, 0.2],
            1.0 / f1,
            1.0 / fd,
            small_opts(),
            rc_family(f1, fd, 1e3, 160e-12),
        )
        .expect("sequential rc");
        let batch_rc = batch[0].as_ref().expect("batch rc");
        for (b, s) in batch_rc.iter().zip(&seq_rc) {
            assert_eq!(b.solution.solution.data, s.solution.solution.data);
        }
        assert_eq!(batch[1].as_ref().expect("batch rrc").len(), 2);
    }

    #[test]
    fn engine_groups_same_topology_jobs() {
        // Three families, one topology: one group, yet every job solves
        // independently — bit-identical to its solo sweep, whatever the
        // pool width and whichever job ran first.
        let (f1, fd) = (1e6, 10e3);
        let loads = [1e3, 2e3, 4e3];
        let jobs: Vec<MpdeSweepJob> = loads
            .iter()
            .map(|&r| {
                MpdeSweepJob::new(
                    format!("r{r}"),
                    vec![0.1, 0.2],
                    1.0 / f1,
                    1.0 / fd,
                    small_opts(),
                    rc_family(f1, fd, r, 160e-12),
                )
            })
            .collect();
        for threads in [1, 2] {
            let engine = SweepEngine::with_pool(WorkerPool::new(threads));
            let results = engine.run_mpde_batch(&jobs);
            for (result, &r) in results.iter().zip(&loads) {
                let solo = amplitude_sweep(
                    &[0.1, 0.2],
                    1.0 / f1,
                    1.0 / fd,
                    small_opts(),
                    rc_family(f1, fd, r, 160e-12),
                )
                .expect("solo sweep");
                let batched = result.as_ref().expect("sweep");
                assert_eq!(batched.len(), solo.len());
                for (b, s) in batched.iter().zip(&solo) {
                    assert_eq!(
                        b.solution.solution.data, s.solution.solution.data,
                        "r = {r}, {threads} thread(s): batched job must match its solo sweep"
                    );
                }
            }
            // One workspace per job, none shared.
            let stats = engine.cache_stats();
            assert_eq!((stats.hits, stats.misses), (0, 3), "{stats:?}");
        }
    }

    #[test]
    fn engine_builds_each_point_circuit_once() {
        // The engine keys a job's group on its first circuit and solves
        // the first point on that same circuit: 2 jobs × 2 values build
        // exactly 4 circuits.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let (f1, fd) = (1e6, 10e3);
        let builds = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<MpdeSweepJob> = [1e3, 2e3]
            .iter()
            .map(|&r| {
                let counter = Arc::clone(&builds);
                let family = rc_family(f1, fd, r, 160e-12);
                MpdeSweepJob::new(
                    format!("r{r}"),
                    vec![0.1, 0.2],
                    1.0 / f1,
                    1.0 / fd,
                    small_opts(),
                    move |a: f64| {
                        counter.fetch_add(1, Ordering::SeqCst);
                        family(a)
                    },
                )
            })
            .collect();
        let engine = SweepEngine::with_pool(WorkerPool::new(2));
        for result in engine.run_batch(&jobs) {
            assert_eq!(result.expect("sweep").len(), 2);
        }
        assert_eq!(builds.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn engine_counts_a_return_to_a_solved_structure_as_a_hit() {
        // 0.1 and 0.2 solve the plain RC stage, 0.3 one with a split
        // series resistor (an extra node): the sweep builds two
        // workspaces and re-keys back to the first one for its last point.
        let (f1, fd) = (1e6, 10e3);
        let base = rc_family(f1, fd, 1e3, 160e-12);
        let family = move |a: f64| {
            if a <= 0.25 {
                return base(a);
            }
            let mut b = CircuitBuilder::new();
            let inp = b.node("in");
            let out = b.node("out");
            b.vsource(
                "VRF",
                inp,
                GROUND,
                BiWaveform::ShearedCarrier {
                    amplitude: a,
                    k: 1,
                    f1,
                    fd,
                    phase: 0.0,
                    envelope: Envelope::Unit,
                },
            )?;
            let mid = b.node("mid");
            b.resistor("R1a", inp, mid, 0.5e3)?;
            b.resistor("R1b", mid, out, 0.5e3)?;
            b.capacitor("C1", out, GROUND, 160e-12)?;
            b.build()
        };
        let jobs = vec![MpdeSweepJob::new(
            "switching",
            vec![0.1, 0.3, 0.2],
            1.0 / f1,
            1.0 / fd,
            small_opts(),
            family,
        )];
        let engine = SweepEngine::with_pool(WorkerPool::new(1));
        assert_eq!(
            engine.run_mpde_batch(&jobs)[0]
                .as_ref()
                .expect("sweep")
                .len(),
            3
        );
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 2), "{stats:?}");
    }

    #[test]
    fn engine_reports_per_job_errors() {
        let (f1, fd) = (1e6, 10e3);
        let jobs = vec![
            MpdeSweepJob::new("empty", vec![], 1.0 / f1, 1.0 / fd, small_opts(), {
                rc_family(f1, fd, 1e3, 160e-12)
            }),
            MpdeSweepJob::new(
                "bad-build",
                vec![0.1],
                1.0 / f1,
                1.0 / fd,
                small_opts(),
                |_a: f64| {
                    let mut b = CircuitBuilder::new();
                    let inp = b.node("in");
                    b.resistor("R1", inp, GROUND, -1.0)?; // invalid value
                    b.build()
                },
            ),
            MpdeSweepJob::new(
                "good",
                vec![0.1],
                1.0 / f1,
                1.0 / fd,
                small_opts(),
                rc_family(f1, fd, 1e3, 160e-12),
            ),
        ];
        let engine = SweepEngine::with_pool(WorkerPool::new(1));
        let results = engine.run_mpde_batch(&jobs);
        assert!(matches!(&results[0], Ok(v) if v.is_empty()));
        assert!(results[1].is_err());
        assert_eq!(results[2].as_ref().expect("good job").len(), 1);
    }

    #[test]
    fn hb2_and_periodic_fd_batches_run() {
        let (f1, fd) = (1e6, 10e3);
        let hb_jobs = vec![Hb2SweepJob::new(
            "hb-rc",
            vec![0.1, 0.2],
            1.0 / f1,
            1.0 / fd,
            rfsim_hb::Hb2Options {
                n1: 8,
                n2: 4,
                ..Default::default()
            },
            rc_family(f1, fd, 1e3, 160e-12),
        )];
        let fd_jobs = vec![PeriodicFdSweepJob::new(
            "fd-rc",
            vec![0.5, 1.0],
            1.0 / 200e3,
            PeriodicFdOptions {
                n_samples: 32,
                ..Default::default()
            },
            |a: f64| {
                let mut b = CircuitBuilder::new();
                let inp = b.node("in");
                let out = b.node("out");
                b.vsource("V1", inp, GROUND, Waveform::sine(a, 200e3))?;
                b.resistor("R1", inp, out, 1e3)?;
                b.capacitor("C1", out, GROUND, 1e-9)?;
                b.build()
            },
        )];
        let engine = SweepEngine::with_pool(WorkerPool::new(2));
        let hb = engine.run_hb2_batch(&hb_jobs);
        let points = hb[0].as_ref().expect("hb sweep");
        assert_eq!(points.len(), 2);
        // Linear circuit: amplitude doubles with drive.
        let peak = |p: &Hb2SweepPoint| {
            p.solution
                .surface(1)
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()))
        };
        assert!((peak(&points[1]) / peak(&points[0]) - 2.0).abs() < 0.05);
        let pss = engine.run_periodic_fd_batch(&fd_jobs);
        assert_eq!(pss[0].as_ref().expect("fd sweep").len(), 2);
    }

    #[test]
    fn engine_surfaces_solver_stats() {
        let (f1, fd) = (1e6, 10e3);
        let jobs = vec![MpdeSweepJob::new(
            "rc",
            vec![0.1, 0.2, 0.3],
            1.0 / f1,
            1.0 / fd,
            small_opts(),
            rc_family(f1, fd, 1e3, 160e-12),
        )];
        let engine = SweepEngine::with_pool(WorkerPool::new(1));
        let results = engine.run_mpde_batch(&jobs);
        assert_eq!(results[0].as_ref().expect("sweep").len(), 3);
        // One structure: a single full factorisation, then numeric-only
        // refactorisations across the later points.
        let stats = engine.solver_stats();
        assert!(stats.refactorizations >= 2, "{stats:?}");
        assert_eq!(stats.full_factorizations, 1, "{stats:?}");
        assert_eq!(stats.full_fallbacks, 0, "{stats:?}");
    }

    #[test]
    fn batch_cancel_fans_out_to_every_job_and_leaves_engine_reusable() {
        let (f1, fd) = (1e6, 10e3);
        let jobs: Vec<MpdeSweepJob> = [1e3, 2e3]
            .iter()
            .map(|&r| {
                MpdeSweepJob::new(
                    format!("r{r}"),
                    vec![0.1, 0.2],
                    1.0 / f1,
                    1.0 / fd,
                    small_opts(),
                    rc_family(f1, fd, r, 160e-12),
                )
            })
            .collect();
        let engine = SweepEngine::with_pool(WorkerPool::new(2));
        let token = rfsim_numerics::CancelToken::new();
        token.cancel();
        let budget = SolveBudget::unlimited().with_cancel(token);
        let results = engine.run_batch_with_budget(&jobs, &budget);
        for r in &results {
            let e = r.as_ref().expect_err("cancelled batch");
            let i = e.interrupted().expect("typed interruption");
            assert_eq!(i.reason, rfsim_numerics::InterruptReason::Cancelled);
        }
        // The cancel poisoned nothing: the same engine solves the same
        // batch cleanly afterwards.
        let retry = engine.run_batch(&jobs);
        assert!(retry.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn per_job_budget_and_fault_fail_only_their_job() {
        let (f1, fd) = (1e6, 10e3);
        let job = |r: f64| {
            MpdeSweepJob::new(
                format!("r{r}"),
                vec![0.1, 0.2],
                1.0 / f1,
                1.0 / fd,
                small_opts(),
                rc_family(f1, fd, r, 160e-12),
            )
        };
        // A cancelled per-job budget interrupts its job; a diverge fault
        // fails its job numerically; the healthy neighbour is untouched.
        let cancelled = rfsim_numerics::CancelToken::new();
        cancelled.cancel();
        let jobs = vec![
            job(1e3).with_budget(SolveBudget::unlimited().with_cancel(cancelled)),
            job(2e3),
            job(3e3).with_fault(rfsim_circuit::fault::SolveFault::diverge()),
        ];
        let engine = SweepEngine::with_pool(WorkerPool::new(2));
        let results = engine.run_batch_with_budget(&jobs, &SolveBudget::unlimited());
        let interrupted = results[0].as_ref().expect_err("cancelled job");
        assert!(interrupted.is_interrupted());
        assert!(results[1].is_ok(), "healthy neighbour survives");
        let faulted = results[2].as_ref().expect_err("faulted job");
        assert!(
            !faulted.is_interrupted(),
            "a diverge fault is a numerical failure, not an interruption: {faulted}"
        );
    }
}
