//! The MPDE solve rebuilt from public parts, with a span around every
//! layer call, and per-call layer costs measured by replaying the solve's
//! last Jacobian through the sparse-LU and device-evaluation entry points.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rfsim_circuit::dcop::{dc_operating_point, DcOptions};
use rfsim_circuit::newton::{
    newton_solve_budgeted, LinearSolverWorkspace, NewtonSystem, WorkspaceStats,
};
use rfsim_circuit::Circuit;
use rfsim_mpde::fdtd::MpdeSystem;
use rfsim_mpde::{MpdeOptions, MultitimeGrid};
use rfsim_numerics::sparse::{CscAssembly, Triplets};
use rfsim_numerics::sparse_lu::{LuOptions, SparseLu};
use rfsim_numerics::SolveBudget;

use crate::measure::{mean, median, ms};
use crate::report::Metrics;
use crate::trace::{TracedSystem, Tracer};

/// One traced solve of the plain Newton rung.
#[derive(Debug, Clone)]
pub struct TracedSolve {
    /// The converged grid samples (bit-identical to `solve_mpde`'s).
    pub data: Vec<f64>,
    /// What the solve cost, layer by layer.
    pub sample: SolveSample,
}

/// Per-solve counts, span times and replayed per-call costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveSample {
    /// Newton iterations.
    pub iters: usize,
    /// Linear-solver counters of the solve's workspace.
    pub stats: WorkspaceStats,
    /// The `mpde.solve` span: the whole traced solve, replay excluded.
    pub solve_ms: f64,
    /// The `newton.solve` span.
    pub newton_ms: f64,
    /// Residual-only calls.
    pub residual_calls: usize,
    /// Total residual time (ms).
    pub residual_ms: f64,
    /// Residual-and-Jacobian calls.
    pub jacobian_calls: usize,
    /// Total residual-and-Jacobian time (ms).
    pub jacobian_ms: f64,
    /// The DC operating point that seeds the grid.
    pub dcop_ms: f64,
    /// Per-call linear-algebra costs on the solve's last Jacobian.
    pub costs: LuCosts,
    /// One device evaluation of every grid point at that Jacobian's state.
    pub device_ms: f64,
}

/// `solve_mpde`'s plain rung rebuilt from public parts: DC operating
/// point, `MpdeSystem::new`, then `newton_solve_budgeted` with the
/// options' Newton profile on a cold workspace. Spans: `mpde.solve` with
/// children `dcop.seed`, `mpde.build` and `newton.solve`, which holds one
/// `mpde.residual` / `mpde.jacobian` span per call. The last Jacobian is
/// then replayed right away, so its per-call costs are measured under the
/// same host conditions as the solve they price.
///
/// # Errors
///
/// Whatever the DC, system build, Newton solve or replayed factorisation
/// returns.
pub fn traced_mpde_solve(
    circuit: &Circuit,
    t1_period: f64,
    t2_period: f64,
    options: &MpdeOptions,
    tracer: &RefCell<Tracer>,
    op: u64,
) -> rfsim_circuit::Result<TracedSolve> {
    let root = tracer.borrow_mut().open("mpde.solve", None, op);
    let dc = tracer.borrow_mut().open("dcop.seed", Some(root), op);
    let seed = dc_operating_point(circuit, DcOptions::default())?;
    tracer.borrow_mut().close(dc);

    let build = tracer.borrow_mut().open("mpde.build", Some(root), op);
    let grid = MultitimeGrid::new(options.n1, options.n2, t1_period, t2_period);
    let system = MpdeSystem::new(circuit, grid, options.scheme1, options.scheme2)?;
    let x0: Vec<f64> = (0..grid.num_points())
        .flat_map(|_| seed.solution.iter().copied())
        .collect();
    tracer.borrow_mut().close(build);

    let newton = tracer.borrow_mut().open("newton.solve", Some(root), op);
    let traced = TracedSystem::new(&system, tracer, newton, op);
    let mut workspace = LinearSolverWorkspace::new();
    let solved = newton_solve_budgeted(
        &traced,
        &x0,
        system.kinds(),
        options.newton,
        &mut workspace,
        &SolveBudget::unlimited(),
    );
    tracer.borrow_mut().close(newton);
    tracer.borrow_mut().close(root);
    let last_x = traced.into_last_jacobian_x();
    let (data, stats) = solved?;

    let mut log = tracer.borrow_mut();
    let mut sample = SolveSample {
        iters: stats.iterations,
        stats: workspace.stats,
        solve_ms: log.spans()[root].ms(),
        newton_ms: log.spans()[newton].ms(),
        dcop_ms: log.spans()[dc].ms(),
        ..Default::default()
    };
    for child in log.children(newton) {
        if child.name == "mpde.residual" {
            sample.residual_calls += 1;
            sample.residual_ms += child.ms();
        } else {
            sample.jacobian_calls += 1;
            sample.jacobian_ms += child.ms();
        }
    }

    let dim = system.dim();
    let mut residual = vec![0.0; dim];
    let mut jac = Triplets::with_capacity(dim, dim, 16 * dim);
    system.residual_and_jacobian(&last_x, &mut residual, &mut jac);
    let rhs: Vec<f64> = residual.iter().map(|v| -v).collect();
    sample.costs = replay_lu(&jac, &rhs, &mut log, op)?;
    sample.device_ms = device_eval_ms(circuit, &last_x, &mut log, op);
    Ok(TracedSolve { data, sample })
}

/// Most calls one replay times per entry point: enough for a steady median
/// of a microsecond-scale call, few enough that a traced run's span file
/// stays a few megabytes.
const MAX_REPLAY_CALLS: usize = 100;

/// Per-call costs of the linear-algebra layers on one Jacobian.
#[derive(Debug, Clone, Copy, Default)]
pub struct LuCosts {
    /// Full factorisation (ordering, symbolic reach, pivot search).
    pub factor_ms: f64,
    /// Numeric-only refactorisation.
    pub refactor_ms: f64,
    /// Triangular solve against the factors.
    pub solve_ms: f64,
    /// Slot-map scatter of the triplets into the cached CSC matrix.
    pub scatter_ms: f64,
    /// nnz(L+U) / nnz(A).
    pub fill_ratio: f64,
}

/// Median time (ms) of `f`, called at least once and then until 20 ms have
/// passed or it ran [`MAX_REPLAY_CALLS`] times, recording each call as a
/// span `name`.
fn timed_calls(
    tracer: &mut Tracer,
    name: &'static str,
    parent: usize,
    op: u64,
    mut f: impl FnMut(),
) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.is_empty()
        || (started.elapsed() < Duration::from_millis(20) && times.len() < MAX_REPLAY_CALLS)
    {
        let t0 = Instant::now();
        f();
        let t1 = Instant::now();
        times.push(ms(t1 - t0));
        tracer.record(name, t0, t1, Some(parent), op);
    }
    median(&times)
}

/// Replays `jac` through the same calls the Newton workspace makes:
/// `CscAssembly::assemble_cached`, `SparseLu::factor`,
/// `refactor_in_place` and `solve`, each timed as its own span.
///
/// # Errors
///
/// A singular factorisation.
pub fn replay_lu(
    jac: &Triplets,
    rhs: &[f64],
    tracer: &mut Tracer,
    op: u64,
) -> rfsim_numerics::Result<LuCosts> {
    let root = tracer.open("replay.lu", None, op);
    let (mut assembly, mut csc) = (None, None);
    CscAssembly::assemble_cached(&mut assembly, &mut csc, jac);
    let scatter_ms = timed_calls(tracer, "sparse.scatter", root, op, || {
        black_box(CscAssembly::assemble_cached(&mut assembly, &mut csc, jac));
    });
    let csc = csc.expect("assembled above");
    let (mut lu, mut factor_error) = (None, None);
    let factor_ms = timed_calls(tracer, "lu.factor", root, op, || {
        match SparseLu::factor(&csc, LuOptions::default()) {
            Ok(fresh) => lu = Some(fresh),
            Err(e) => factor_error = Some(e),
        }
    });
    if let Some(e) = factor_error {
        return Err(e);
    }
    let mut lu = lu.expect("factored above");
    let mut refactor_result = Ok(());
    let refactor_ms = timed_calls(tracer, "lu.refactor", root, op, || {
        if let Err(e) = lu.refactor_in_place(&csc) {
            refactor_result = Err(e);
        }
    });
    refactor_result?;
    let solve_ms = timed_calls(tracer, "lu.solve", root, op, || {
        black_box(lu.solve(rhs));
    });
    tracer.close(root);
    Ok(LuCosts {
        factor_ms,
        refactor_ms,
        solve_ms,
        scatter_ms,
        fill_ratio: lu.nnz() as f64 / csc.nnz() as f64,
    })
}

/// Time (ms) of one device evaluation of every point in `x` (a flattened
/// sequence of circuit states): `eval_q` and `eval_f` with their Jacobian
/// stamps, as the grid assembly calls them.
pub fn device_eval_ms(circuit: &Circuit, x: &[f64], tracer: &mut Tracer, op: u64) -> f64 {
    let n = circuit.num_unknowns();
    let (mut q, mut f) = (vec![0.0; n], vec![0.0; n]);
    let root = tracer.open("replay.device", None, op);
    let cost = timed_calls(tracer, "circuit.device_eval", root, op, || {
        for xj in x.chunks_exact(n) {
            let mut c = Triplets::with_capacity(n, n, 8 * n);
            let mut g = Triplets::with_capacity(n, n, 8 * n);
            circuit.eval_q(xj, &mut q, Some(&mut c));
            circuit.eval_f(xj, &mut f, Some(&mut g));
            black_box((&c, &g));
        }
    });
    tracer.close(root);
    cost
}

/// Fills the LU, scatter, MPDE, device, Newton and DC layer metrics from
/// traced solves. Per-call costs are medians over the solves' replays.
///
/// The Newton span's measured children are its residual and Jacobian
/// spans plus the linear algebra the workspace counters say it ran, each
/// priced at the cost replayed right after that solve; the rest is
/// Newton's self time.
pub fn fill_solver_layers(metrics: &mut Metrics, samples: &[SolveSample]) {
    let per_solve =
        |f: &dyn Fn(&SolveSample) -> f64| -> Vec<f64> { samples.iter().map(f).collect() };
    let total = |f: &dyn Fn(&SolveSample) -> f64| -> f64 { samples.iter().map(f).sum() };
    let full = |s: &SolveSample| s.stats.full_factorizations as f64;
    let refac = |s: &SolveSample| s.stats.refactorizations as f64;
    let cached = |s: &SolveSample| s.stats.cached_solves as f64;
    let children = |s: &SolveSample| {
        s.residual_ms
            + s.jacobian_ms
            + full(s) * s.costs.factor_ms
            + refac(s) * s.costs.refactor_ms
            + (full(s) + refac(s) + cached(s)) * s.costs.solve_ms
            + (full(s) + refac(s)) * s.costs.scatter_ms
    };

    metrics.set("lu.factor_ms", median(&per_solve(&|s| s.costs.factor_ms)));
    metrics.set(
        "lu.refactor_ms",
        median(&per_solve(&|s| s.costs.refactor_ms)),
    );
    metrics.set("lu.solve_ms", median(&per_solve(&|s| s.costs.solve_ms)));
    metrics.set("lu.fill_ratio", median(&per_solve(&|s| s.costs.fill_ratio)));
    metrics.set(
        "sparse.scatter_ms",
        median(&per_solve(&|s| s.costs.scatter_ms)),
    );
    metrics.set(
        "circuit.device_eval_ms",
        median(&per_solve(&|s| s.device_ms)),
    );
    metrics.set("lu.factor_calls", mean(&per_solve(&full)));
    metrics.set("lu.refactor_calls", mean(&per_solve(&refac)));
    metrics.set("lu.cached_solves", mean(&per_solve(&cached)));
    metrics.set(
        "lu.full_fallbacks",
        mean(&per_solve(&|s| s.stats.full_fallbacks as f64)),
    );
    let calls = |f: &dyn Fn(&SolveSample) -> f64| total(f).max(1.0);
    metrics.set(
        "mpde.residual_ms",
        total(&|s| s.residual_ms) / calls(&|s| s.residual_calls as f64),
    );
    metrics.set(
        "mpde.residual_calls",
        mean(&per_solve(&|s| s.residual_calls as f64)),
    );
    metrics.set(
        "mpde.jacobian_ms",
        total(&|s| s.jacobian_ms) / calls(&|s| s.jacobian_calls as f64),
    );
    metrics.set(
        "mpde.jacobian_calls",
        mean(&per_solve(&|s| s.jacobian_calls as f64)),
    );
    metrics.set("newton.iters", mean(&per_solve(&|s| s.iters as f64)));
    metrics.set(
        "newton.chord_share",
        total(&cached) / (total(&cached) + total(&full) + total(&refac)).max(1.0),
    );
    metrics.set(
        "newton.self_ms",
        median(&per_solve(&|s| s.newton_ms - children(s))),
    );
    metrics.set(
        "newton.coverage",
        median(&per_solve(&|s| children(s) / s.newton_ms)),
    );
    metrics.set("dcop.seed_ms", median(&per_solve(&|s| s.dcop_ms)));
}
