//! Bench-regression gate: the measurement scenarios, JSON schema helpers
//! and comparison rules behind the `bench_gate` binary and the CI
//! `bench-gate` job (see `docs/benching.md`).
//!
//! Absolute wall times are machine-bound, so the gate compares
//! machine-portable **ratios** (speedup of the optimised path over its
//! baseline path, both measured in the same process seconds apart)
//! against the ratios committed in the previous PR's `BENCH_*.json`,
//! within a relative tolerance. A ratio may improve freely; it fails the
//! gate when it drops more than `tolerance` below its baseline.

use std::time::Instant;

use rfsim_circuit::newton::{
    LinearSolver, LinearSolverWorkspace, NewtonOptions, NewtonSystem, WorkspaceStats,
};
use rfsim_circuits::{BalancedMixer, BalancedMixerParams};
use rfsim_mpde::fdtd::MpdeSystem;
use rfsim_mpde::solver::{solve_mpde_budgeted, MpdeOptions};
use rfsim_numerics::sparse::Triplets;
use rfsim_numerics::sparse_lu::{LuOptions, Ordering, SparseLu};
use rfsim_numerics::SolveBudget;

use crate::paper::{comparison_grid, scaled_mixer};

/// Median of a sample of nanosecond measurements.
fn median_ns(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Times `reps` runs of `f` and returns the median nanoseconds.
pub fn time_median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median_ns(samples)
}

/// Times `reps` interleaved runs of the pair `(a, b)` and returns the
/// median nanoseconds of each side. Alternating the sides within every
/// rep makes both sample the same window of machine state (CPU
/// frequency, cache pressure, co-tenant load), so the *ratio* of the two
/// medians stays meaningful even when the machine drifts over the
/// seconds a scenario takes — which back-to-back blocks of `a`-then-`b`
/// are not robust against.
pub fn time_paired_median_ns(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let mut sa = Vec::with_capacity(reps);
    let mut sb = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        a();
        sa.push(t0.elapsed().as_nanos() as f64);
        let t1 = Instant::now();
        b();
        sb.push(t1.elapsed().as_nanos() as f64);
    }
    (median_ns(sa), median_ns(sb))
}

/// The scaled-mixer MPDE grid Jacobian of the refactor check (assembled
/// once at the DC operating point).
fn mpde_jacobian(n1: usize, n2: usize) -> Triplets {
    let mixer = scaled_mixer(10e6, 200.0);
    let grid = comparison_grid(&mixer, n1, n2);
    let sys = MpdeSystem::new(&mixer.circuit, grid, Default::default(), Default::default())
        .expect("system");
    let dim = sys.dim();
    let op =
        rfsim_circuit::dcop::dc_operating_point(&mixer.circuit, Default::default()).expect("dc");
    let mut x0 = Vec::with_capacity(dim);
    for _ in 0..grid.num_points() {
        x0.extend_from_slice(&op.solution);
    }
    let mut r = vec![0.0; dim];
    let mut jac = Triplets::with_capacity(dim, dim, 40 * dim);
    sys.residual_and_jacobian(&x0, &mut r, &mut jac);
    jac
}

/// `refactor_in_place` vs full `factor` medians (ns) on the scaled-mixer
/// MPDE Jacobian — the per-Newton-iteration cost after/before symbolic
/// reuse.
pub fn refactor_vs_full(reps: usize) -> (f64, f64) {
    let csc = mpde_jacobian(24, 16).to_csc();
    let mut lu = SparseLu::factor(&csc, LuOptions::default()).expect("factor");
    time_paired_median_ns(
        reps,
        || {
            lu.refactor_in_place(&csc).expect("refactor");
        },
        || {
            SparseLu::factor(&csc, LuOptions::default()).expect("factor");
        },
    )
}

/// Outcome of the drifting-operating-point scenario.
#[derive(Debug, Clone, Copy)]
pub struct DriftOutcome {
    /// Median ns for the full drift sequence with restricted pivoting.
    pub restricted_ns: f64,
    /// Median ns for the same sequence with restricted pivoting disabled
    /// (every stressed refresh pays a full re-factorisation).
    pub fallback_ns: f64,
    /// Pivot-stressing refreshes per sequence.
    pub stressed_refreshes: usize,
    /// Stressed refreshes the restricted-pivoting run repaired in-pattern.
    pub in_pattern_repairs: usize,
    /// Stressed refreshes that still fell back to a full factorisation.
    pub full_fallbacks: usize,
}

impl DriftOutcome {
    /// Fraction of pivot-stressing refreshes kept in-pattern.
    pub fn hit_rate(&self) -> f64 {
        self.in_pattern_repairs as f64 / self.stressed_refreshes as f64
    }

    /// Fraction that fell back to a full factorisation.
    pub fn fallback_rate(&self) -> f64 {
        self.full_fallbacks as f64 / self.stressed_refreshes as f64
    }
}

/// Dense diagonally dominant `bs × bs` blocks — the per-grid-point circuit
/// blocks of an MPDE Jacobian, where every in-block row exchange is
/// structurally admissible.
pub fn dense_block_matrix(seed: u64, nblocks: usize, bs: usize) -> Triplets {
    let mut state = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(0x2545F4914F6CDD1D);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let n = nblocks * bs;
    let mut t = Triplets::new(n, n);
    for blk in 0..nblocks {
        let base = blk * bs;
        for i in 0..bs {
            let mut offdiag = 0.0;
            for j in 0..bs {
                if i != j {
                    let v = next() * 2.0 - 1.0;
                    t.push(base + i, base + j, v);
                    offdiag += v.abs();
                }
            }
            t.push(base + i, base + i, offdiag + 1.0 + next());
        }
    }
    t
}

/// Same positions as `t`, values transformed by `f(row, col, v)`.
fn remap(t: &Triplets, f: impl Fn(usize, usize, f64) -> f64) -> Triplets {
    let mut out = Triplets::new(t.rows(), t.cols());
    let csr = t.to_csr();
    for i in 0..t.rows() {
        let (cols, vals) = csr.row(i);
        for (c, v) in cols.iter().zip(vals) {
            out.push(i, *c, f(i, *c, *v));
        }
    }
    out
}

/// Pivot-stressing refreshes per [`drift_sequence`] run.
const DRIFT_STEPS: usize = 12;

/// One run of the drifting-operating-point sequence: value refreshes on a
/// block Jacobian where every step kills the *current* pivot entry of one
/// block's leading column (the sharpest drift a sweep can produce) and
/// jitters everything else. With `restricted` pivoting the stressed
/// refreshes repair in-pattern; with the repair disabled
/// (`restricted = false`) each detected kill costs a full
/// re-factorisation. (Note this baseline is *repair disabled*, not the
/// pre-PR-3 code: the old absolute `pivot_abs_min` detection would have
/// silently accepted these ~1e-13 pivots and kept refactoring on a
/// numerically degraded factor — the comparison here is between the two
/// honest responses to a detected kill.) Returns
/// `(in_pattern_repairs, full_fallbacks)` over the [`DRIFT_STEPS`]
/// stressed refreshes.
fn drift_sequence(restricted: bool) -> (usize, usize) {
    let (nblocks, bs) = (48, 8);
    let t0 = dense_block_matrix(42, nblocks, bs);
    let a0 = t0.to_csc();
    let opts = LuOptions {
        ordering: Ordering::Natural,
        restricted_pivoting: restricted,
        ..Default::default()
    };
    let (mut repairs, mut fallbacks) = (0usize, 0usize);
    let mut lu = SparseLu::factor(&a0, opts).expect("factor");
    for step in 0..DRIFT_STEPS {
        let victim_col = (step % nblocks) * bs;
        let victim = lu.current_row_permutation()[victim_col];
        let gain = 1.0 + 0.02 * ((step + 1) as f64).sin();
        let tk = remap(&t0, |i, j, v| {
            if i == victim && j == victim_col {
                v * 1e-13
            } else {
                v * gain
            }
        });
        let ak = tk.to_csc();
        match lu.refactor_in_place(&ak) {
            Ok(report) => {
                if report.pivot_exchanges > 0 {
                    repairs += 1;
                }
            }
            Err(_) => {
                fallbacks += 1;
                lu = SparseLu::factor(&ak, opts).expect("fallback factor");
            }
        }
    }
    (repairs, fallbacks)
}

/// Times `drift_sequence` under both pivoting modes and aggregates the
/// in-pattern/fallback counts of the restricted runs.
pub fn drift_scenario(reps: usize) -> DriftOutcome {
    let (mut repairs, mut fallbacks) = (0usize, 0usize);
    let (restricted_ns, fallback_ns) = time_paired_median_ns(
        reps,
        || {
            let (r, f) = drift_sequence(true);
            repairs += r;
            fallbacks += f;
        },
        || {
            drift_sequence(false);
        },
    );
    DriftOutcome {
        restricted_ns,
        fallback_ns,
        stressed_refreshes: reps * DRIFT_STEPS,
        in_pattern_repairs: repairs,
        full_fallbacks: fallbacks,
    }
}

/// MPDE warm-workspace vs cold-workspace solve medians (ns) on the
/// balanced mixer — the reuse lever every sweep point after the first
/// rides, sized for a CI gate.
pub fn mpde_warm_vs_cold(reps: usize) -> (f64, f64) {
    let mixer = scaled_mixer(10e6, 100.0);
    let opts = MpdeOptions {
        n1: 24,
        n2: 12,
        ..Default::default()
    };
    let unlimited = SolveBudget::unlimited();
    let mut ws = LinearSolverWorkspace::new();
    solve_mpde_budgeted(
        &mixer.circuit,
        mixer.params.t1_period(),
        mixer.params.t2_period(),
        opts.clone(),
        &mut ws,
        &unlimited,
    )
    .expect("prime");
    let (warm, cold) = time_paired_median_ns(
        reps,
        || {
            solve_mpde_budgeted(
                &mixer.circuit,
                mixer.params.t1_period(),
                mixer.params.t2_period(),
                opts.clone(),
                &mut ws,
                &unlimited,
            )
            .expect("warm solve");
        },
        || {
            let mut cold_ws = LinearSolverWorkspace::new();
            solve_mpde_budgeted(
                &mixer.circuit,
                mixer.params.t1_period(),
                mixer.params.t2_period(),
                opts.clone(),
                &mut cold_ws,
                &unlimited,
            )
            .expect("cold solve");
        },
    );
    (warm, cold)
}

/// Outcome of the Krylov-vs-direct MPDE scenario.
#[derive(Debug, Clone, Copy)]
pub struct KrylovOutcome {
    /// Median ns of a cold `MpdeOptions::default()` solve (GMRES +
    /// block-Jacobi under the Newton grid policy).
    pub krylov_ns: f64,
    /// Median ns of the same cold solve pinned to direct LU.
    pub direct_ns: f64,
    /// Workspace counters of one default solve.
    pub stats: WorkspaceStats,
    /// Newton iterations of that solve.
    pub newton_iterations: usize,
}

impl KrylovOutcome {
    /// Krylov speedup: direct solve time over default solve time.
    pub fn speedup(&self) -> f64 {
        self.direct_ns / self.krylov_ns
    }
}

/// The paper's fig4 solve — the balanced mixer carrying pattern `1011`
/// on the 40×30 grid, 18 000 unknowns — with `MpdeOptions::default()`,
/// which the Newton grid policy sends to GMRES + block-Jacobi, paired
/// against the same options pinned to [`LinearSolver::Direct`]. Both
/// sides solve on cold workspaces, as perfbench's `fig4_mixer` does.
pub fn mpde_krylov_vs_direct(reps: usize) -> KrylovOutcome {
    let mixer = BalancedMixer::build(BalancedMixerParams {
        rf_bits: vec![true, false, true, true],
        ..Default::default()
    })
    .expect("mixer builds");
    let krylov = MpdeOptions::default();
    let direct = MpdeOptions {
        newton: NewtonOptions {
            linear: LinearSolver::Direct,
            ..krylov.newton
        },
        ..krylov.clone()
    };
    let unlimited = SolveBudget::unlimited();
    let solve = |options: &MpdeOptions| {
        let mut ws = LinearSolverWorkspace::new();
        let sol = solve_mpde_budgeted(
            &mixer.circuit,
            mixer.params.t1_period(),
            mixer.params.t2_period(),
            options.clone(),
            &mut ws,
            &unlimited,
        )
        .expect("40x30 solve");
        (ws.stats, sol.stats.newton_iterations)
    };
    let (stats, newton_iterations) = solve(&krylov);
    let (krylov_ns, direct_ns) = time_paired_median_ns(
        reps,
        || {
            solve(&krylov);
        },
        || {
            solve(&direct);
        },
    );
    KrylovOutcome {
        krylov_ns,
        direct_ns,
        stats,
        newton_iterations,
    }
}

/// Outcome of the repeated-batch memoisation scenario.
#[derive(Debug, Clone, Copy)]
pub struct MemoOutcome {
    /// Median ns to serve the grid with the solution store cold (evicted
    /// before every rep: full submit + solve + wait).
    pub fresh_ns: f64,
    /// Median ns to serve the identical grid from the solution store.
    pub memo_ns: f64,
    /// Memo-hit completions observed during the memo reps.
    pub memo_hits: usize,
    /// Whether every result — fresh re-solves and memo hits alike —
    /// carried the bit-identical sample digest of the first solve.
    pub bit_identical: bool,
}

impl MemoOutcome {
    /// Store speedup: fresh solve time over memo-hit time.
    pub fn speedup(&self) -> f64 {
        self.fresh_ns / self.memo_ns
    }
}

/// The repeated-batch serving scenario (PR 4 acceptance criterion): a
/// long-lived `rfsim-serve` service is asked for the same
/// amplitude × tone-spacing MPDE grid over and over — the dashboard /
/// regression-sweep traffic shape. Fresh reps evict the store first and
/// pay the full solve; memo reps are served from the store and must be
/// (a) ≥ 10x faster and (b) bit-identical to the fresh solves.
pub fn memo_roundtrip(reps: usize) -> MemoOutcome {
    use std::time::Duration;

    use rfsim_serve::service::{ServeConfig, SimService};
    use rfsim_serve::spec::JobSpec;

    let service = SimService::start(ServeConfig {
        threads: 1,
        ..Default::default()
    });
    let mut spec = JobSpec::mpde("diode_clipper", 1e6, vec![0.1, 0.2], vec![10e3, 20e3]);
    spec.n1 = 16;
    spec.n2 = 8;
    let wait = Duration::from_secs(600);
    let run = |s: &SimService| {
        let id = s.submit(&spec).expect("submit");
        s.wait(id, wait).expect("serve")
    };
    let reference = run(&service).digest();
    let mut bit_identical = true;
    let fresh_ns = time_median_ns(reps, || {
        service.evict(None);
        bit_identical &= run(&service).digest() == reference;
    });
    // Re-prime, then measure pure store service time.
    bit_identical &= run(&service).digest() == reference;
    let hits_before = service.stats().counters.total().memo_hits;
    let memo_ns = time_median_ns(reps, || {
        bit_identical &= run(&service).digest() == reference;
    });
    let memo_hits = service.stats().counters.total().memo_hits - hits_before;
    MemoOutcome {
        fresh_ns,
        memo_ns,
        memo_hits,
        bit_identical,
    }
}

/// Outcome of the netlist-submission serving scenario.
#[derive(Debug, Clone, Copy)]
pub struct NetlistSubmitOutcome {
    /// Median ns for a cold netlist submit: evicted store *and*
    /// unhosted family, so each rep pays parse + canonical hash +
    /// register + full solve.
    pub fresh_ns: f64,
    /// Median ns to serve the identical netlist text from the store
    /// (parse + hash + memo hit, no solve).
    pub memo_ns: f64,
    /// Memo-hit completions observed during the memo reps.
    pub memo_hits: usize,
    /// Whether every rep — cold re-solves and memo hits alike — carried
    /// the bit-identical sample digest of the first solve.
    pub bit_identical: bool,
}

impl NetlistSubmitOutcome {
    /// Store speedup: cold netlist submit time over memo-hit time.
    pub fn speedup(&self) -> f64 {
        self.fresh_ns / self.memo_ns
    }
}

/// The netlist front-door scenario (PR 10 acceptance criterion): the
/// same `.rfn` text is submitted to a long-lived service over and over.
/// The first submit of each cold rep registers the content-addressed
/// dynamic family and solves; memo reps resubmit the identical text and
/// must be served from the solution store — (a) ≥ 10x faster than the
/// cold path and (b) bit-identical. This pins the whole text → hash →
/// family → store pipeline, including `evict` fully unhosting dynamic
/// families (a cold rep after evict must re-register, not memo-hit).
pub fn netlist_submit_scenario(reps: usize) -> NetlistSubmitOutcome {
    use std::time::Duration;

    use rfsim_serve::service::{ServeConfig, SimService};
    use rfsim_serve::spec::Priority;

    const NETLIST: &str = "V V1 in gnd drive\nR R1 in out 1k\nC C1 out gnd 160p\n\
                           .sweep amplitudes=0.1,0.2 spacings=10k,20k\n\
                           .analysis mpde f1=1M n1=16 n2=8\n";

    let service = SimService::start(ServeConfig {
        threads: 1,
        ..Default::default()
    });
    let wait = Duration::from_secs(600);
    let run = |s: &SimService| {
        let sub = s
            .submit_netlist(NETLIST, Priority::Normal, None)
            .expect("netlist submit");
        s.wait(sub.job_id, wait).expect("serve")
    };
    let reference = run(&service).digest();
    let mut bit_identical = true;
    let fresh_ns = time_median_ns(reps, || {
        // Evict wholesale: drops the stored grid and unhosts the dynamic
        // registration — the next submit re-registers from its own text
        // under a fresh epoch.
        service.evict(None);
        bit_identical &= run(&service).digest() == reference;
    });
    // Re-prime, then measure pure parse + hash + store service time.
    bit_identical &= run(&service).digest() == reference;
    let hits_before = service.stats().counters.total().memo_hits;
    let memo_ns = time_median_ns(reps, || {
        bit_identical &= run(&service).digest() == reference;
    });
    let memo_hits = service.stats().counters.total().memo_hits - hits_before;
    NetlistSubmitOutcome {
        fresh_ns,
        memo_ns,
        memo_hits,
        bit_identical,
    }
}

/// Outcome of the build-free (keyless) submit scenario.
#[derive(Debug, Clone, Copy)]
pub struct KeylessSubmitOutcome {
    /// Median ns for one memo-hit submit+poll round trip.
    pub memo_submit_ns: f64,
    /// Family-builder invocations observed *during* the memo-hit submits.
    pub builder_calls_during_memo: usize,
    /// Memo-hit completions observed during the memo reps.
    pub memo_hits: usize,
}

impl KeylessSubmitOutcome {
    /// The PR 5 acceptance criterion: memo-hit submits never invoke the
    /// family builder (the store key is folded from the spec and the
    /// family's registration epoch).
    pub fn build_free(&self) -> bool {
        self.builder_calls_during_memo == 0 && self.memo_hits > 0
    }
}

/// The build-free submit scenario (PR 5 acceptance criterion): an
/// `rfsim-serve` service hosting a *counting* family — every builder
/// invocation bumps an atomic — is primed once, then asked for the same
/// grid repeatedly. Every repeat must be a store hit whose key needed no
/// circuit: zero builder invocations (see `docs/serving.md`).
pub fn keyless_submit_scenario(reps: usize) -> KeylessSubmitOutcome {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use rfsim_circuit::{CircuitBuilder, DiodeParams, GROUND};
    use rfsim_serve::service::{ServeConfig, SimService};
    use rfsim_serve::spec::JobSpec;

    let service = SimService::start(ServeConfig {
        threads: 1,
        ..Default::default()
    });
    let builds = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&builds);
    service.register_family("counted_clipper", move |p| {
        counter.fetch_add(1, Ordering::SeqCst);
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let out = b.node("out");
        b.vsource("VRF", inp, GROUND, p.source())?;
        b.resistor("R1", inp, out, 1e3)?;
        b.diode("D1", out, GROUND, DiodeParams::default())?;
        b.capacitor("C1", out, GROUND, 1e-9)?;
        b.build()
    });
    let mut spec = JobSpec::mpde("counted_clipper", 1e6, vec![0.1, 0.2], vec![10e3]);
    spec.n1 = 16;
    spec.n2 = 8;
    let wait = Duration::from_secs(600);
    // Prime: one full solve (one build per sweep point).
    let id = service.submit(&spec).expect("submit");
    service.wait(id, wait).expect("prime solve");
    let builds_before = builds.load(Ordering::SeqCst);
    let hits_before = service.stats().counters.total().memo_hits;
    let memo_submit_ns = time_median_ns(reps, || {
        let id = service.submit(&spec).expect("memo submit");
        service.wait(id, wait).expect("memo result");
    });
    let stats = service.stats();
    KeylessSubmitOutcome {
        memo_submit_ns,
        builder_calls_during_memo: builds.load(Ordering::SeqCst) - builds_before,
        memo_hits: stats.counters.total().memo_hits - hits_before,
    }
}

/// Outcome of the cancel-latency scenario.
#[derive(Debug, Clone, Copy)]
pub struct CancelOutcome {
    /// Median ns from issuing `cancel` on a hung (fault-stalled)
    /// *running* job to observing its settled cancellation.
    pub latency_ns: f64,
    /// The latency bound the gate holds the control plane to (ms).
    pub bound_ms: f64,
    /// Whether every follow-up job submitted after a cancel completed —
    /// the cancelled solve's scheduler slot really came back.
    pub reclaimed: bool,
    /// Whether every cancelled job settled with the typed `Cancelled`
    /// interruption (not a generic failure).
    pub typed: bool,
}

impl CancelOutcome {
    /// Headroom ratio: the bound over the measured latency. ≥ 1 means
    /// cancellation lands within the bound; bigger is better.
    pub fn headroom(&self) -> f64 {
        self.bound_ms * 1e6 / self.latency_ns
    }
}

/// The cancel-latency scenario (PR 6 acceptance criterion): a
/// deliberately-hung job — a deterministic stall fault sleeping per
/// residual evaluation, safety-bounded at 60 s — is cancelled while
/// running, and the gate measures how long the control plane takes to
/// settle it. Cancellation is cooperative (checked per residual
/// evaluation / Krylov matvec), so the latency budget is a few poll
/// intervals plus scheduler turnaround, far under [`CancelOutcome::
/// bound_ms`]. Each rep then runs a real job through the freed slot to
/// prove reclamation.
pub fn cancel_latency_scenario(reps: usize) -> CancelOutcome {
    use std::time::Duration;

    use rfsim_circuit::fault::SolveFault;
    use rfsim_numerics::InterruptReason;
    use rfsim_serve::service::{JobStatus, ServeConfig, SimService};
    use rfsim_serve::spec::JobSpec;

    const BOUND_MS: f64 = 1000.0;
    let service = SimService::start(ServeConfig {
        threads: 1,
        ..Default::default()
    });
    let spec = |amplitude: f64| {
        let mut s = JobSpec::mpde("rc_lowpass", 1e6, vec![amplitude], vec![10e3]);
        s.n1 = 8;
        s.n2 = 4;
        s
    };
    let wait = Duration::from_secs(600);
    let mut latencies = Vec::with_capacity(reps);
    let mut reclaimed = true;
    let mut typed = true;
    for rep in 0..reps {
        service.inject_fault("rc_lowpass", SolveFault::stall(5, 60_000));
        let id = service.submit(&spec(0.1)).expect("submit hung job");
        // Wait for the hang to actually be on a worker.
        loop {
            match service.poll(id).expect("poll") {
                JobStatus::Running => break,
                JobStatus::Queued => std::thread::sleep(Duration::from_millis(1)),
                other => panic!("hung job settled early: {other:?}"),
            }
        }
        let t0 = Instant::now();
        service.cancel(id).expect("cancel");
        let settled = loop {
            match service.poll(id).expect("poll") {
                JobStatus::Failed { interrupted, .. } => break interrupted,
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        latencies.push(t0.elapsed().as_nanos() as f64);
        typed &= settled.map(|i| i.reason) == Some(InterruptReason::Cancelled);
        // The slot must be usable again immediately: un-fault the family
        // and run a fresh (never-memoised) job through it.
        service.clear_fault("rc_lowpass");
        let follow_up = spec(0.2 + 0.01 * rep as f64);
        reclaimed &= service
            .wait(service.submit(&follow_up).expect("submit"), wait)
            .is_ok();
    }
    CancelOutcome {
        latency_ns: median_ns(latencies),
        bound_ms: BOUND_MS,
        reclaimed,
        typed,
    }
}

/// Outcome of the recovery-ladder scenario.
#[derive(Debug, Clone, Copy)]
pub struct LadderOutcome {
    /// Diverge-fault solves that settled with the typed `Diverged`
    /// outcome (not a generic convergence failure, not an interruption).
    pub diverged_typed: usize,
    /// Progress snapshots carrying a non-finite residual — a NaN iterate
    /// the Newton loop committed and reported. The headline PR 7 bug;
    /// must stay zero.
    pub nan_iterates_committed: usize,
    /// Newton iterations the typed divergence consumed (depth of the
    /// deepest progress snapshot; the pre-fix loop burned the whole
    /// ceiling committing NaN iterates).
    pub iterations_to_diverge: usize,
    /// The iteration ceiling of the diverge-fault solve.
    pub max_iters: usize,
    /// Ladder runs whose diverging first rung was rescued by the retry
    /// rung (typed climb, not error-swallowing).
    pub ladder_rescues: usize,
    /// Ladder runs attempted.
    pub ladder_runs: usize,
}

impl LadderOutcome {
    /// Fast-fail headroom: the iteration ceiling over the iterations the
    /// typed divergence actually consumed. The pre-fix step committed
    /// non-finite iterates and ground to the ceiling (headroom ~1); the
    /// fixed step detects the non-finite damping trials on the spot.
    pub fn fast_fail_headroom(&self) -> f64 {
        self.max_iters as f64 / self.iterations_to_diverge.max(1) as f64
    }
}

/// The recovery-ladder scenario (PR 7 acceptance criterion): a
/// deterministic diverge fault — finite residual only at the seed, so
/// every damping trial of the first Newton step is non-finite — must
/// settle with the *typed* [`rfsim_circuit::CircuitError::Diverged`]
/// outcome in far fewer iterations than the ceiling, committing zero
/// NaN iterates along the way (watched via the budget's progress
/// snapshots). A two-rung [`rfsim_circuit::driver::NewtonDriver`]
/// ladder over the same shape
/// then proves the climb: the plain rung diverges, the retry rung
/// rescues the solve, and the outcome records which rung won.
pub fn recovery_ladder_scenario(reps: usize) -> LadderOutcome {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use rfsim_circuit::driver::{NewtonDriver, Rung, RungExec, RungKind};
    use rfsim_circuit::fault::SolveFault;
    use rfsim_circuit::newton::NewtonOptions;
    use rfsim_circuit::CircuitError;

    /// Finite residual only at the seed: the first step diverges.
    struct NanRidge;
    impl NewtonSystem for NanRidge {
        fn dim(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) {
            out[0] = if x[0] == 1.0 { 1.0 } else { f64::NAN };
        }
        fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
            self.residual(x, out);
            jac.push(0, 0, 1.0);
        }
    }

    /// `F(x) = x − ½`: one Newton step from the fresh seed converges.
    struct Anchored;
    impl NewtonSystem for Anchored {
        fn dim(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) {
            out[0] = x[0] - 0.5;
        }
        fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
            self.residual(x, out);
            jac.push(0, 0, 1.0);
        }
    }

    // The diverge fault's pinned iteration ceiling (see
    // `SolveFault::run`): what the pre-fix loop would have burned.
    const FAULT_MAX_ITERS: usize = 8;
    let nan_snapshots = Arc::new(AtomicUsize::new(0));
    let deepest = Arc::new(AtomicUsize::new(0));
    let (nan_c, deep_c) = (Arc::clone(&nan_snapshots), Arc::clone(&deepest));
    let budget = SolveBudget::unlimited().observed(move |p| {
        // Zero-iteration snapshots are rung-entry announcements
        // (`SolveBudget::announce_stage`): no iterate has been committed
        // yet, so their infinite residuals are by design, not the bug
        // this counter guards against.
        if p.iteration > 0 && (!p.residual.is_finite() || !p.best_residual.is_finite()) {
            nan_c.fetch_add(1, Ordering::Relaxed);
        }
        deep_c.fetch_max(p.iteration, Ordering::Relaxed);
    });

    let mut diverged_typed = 0;
    for _ in 0..reps {
        let err = SolveFault::diverge()
            .run(&budget)
            .expect_err("the diverge fault must fail");
        if matches!(err, CircuitError::Diverged { .. }) {
            diverged_typed += 1;
        }
    }
    let iterations_to_diverge = deepest.load(Ordering::Relaxed);

    let mut ladder_rescues = 0;
    let mut workspace = LinearSolverWorkspace::new();
    for _ in 0..reps {
        let outcome = NewtonDriver::new(NewtonOptions {
            max_iters: FAULT_MAX_ITERS,
            ..Default::default()
        })
        .solve_ladder(
            "bench recovery ladder",
            &mut workspace,
            &budget,
            vec![
                Rung::new(RungKind::Plain, |exec: &mut RungExec<'_>| {
                    exec.newton(&NanRidge, &[1.0], &[]).map(|(x, _)| x)
                }),
                Rung::new(RungKind::RetryUnseeded, |exec: &mut RungExec<'_>| {
                    exec.newton(&Anchored, &[0.0], &[]).map(|(x, _)| x)
                }),
            ],
        )
        .expect("the retry rung rescues the solve");
        if outcome.rung == RungKind::RetryUnseeded && outcome.rungs_attempted == 2 {
            ladder_rescues += 1;
        }
    }

    LadderOutcome {
        diverged_typed,
        nan_iterates_committed: nan_snapshots.load(Ordering::Relaxed),
        iterations_to_diverge,
        max_iters: FAULT_MAX_ITERS,
        ladder_rescues,
        ladder_runs: reps,
    }
}

/// Outcome of the sharded-throughput scenario.
#[derive(Debug, Clone, Copy)]
pub struct ShardedOutcome {
    /// Median ns for the clients' solve traffic to complete against one
    /// single-scheduler service while a hung job pins its only
    /// scheduler.
    pub single_ns: f64,
    /// Median ns for the identical traffic against the sharded pool,
    /// where the hung job pins only its owning shard.
    pub sharded_ns: f64,
    /// Shards in the sharded pool.
    pub shards: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Distinct shards the clients' slots routed to (none of them the
    /// hung family's shard — verified by probing, not by luck).
    pub fast_shards: usize,
    /// Whether the hung job was still pending on the sharded pool when
    /// the clients' work had already completed — the isolation property
    /// itself, observed directly every rep.
    pub hung_isolated: bool,
    /// Whether the sharded pool produced digest-for-digest the same
    /// solution as the single scheduler (sharding must not change
    /// results).
    pub bit_identical: bool,
    /// Deadline (ms) bounding the hung job; the single-scheduler side's
    /// time is dominated by it.
    pub hung_deadline_ms: u64,
}

impl ShardedOutcome {
    /// Throughput ratio: single-scheduler time over sharded time for the
    /// same client traffic. ≥ 1 means the shard pool serves the healthy
    /// families no slower; in this scenario it is far above 1 because
    /// the single scheduler head-of-line-blocks every client behind the
    /// hung job while the pool keeps three of four shards serving.
    pub fn speedup(&self) -> f64 {
        self.single_ns / self.sharded_ns
    }
}

/// The sharded-throughput scenario (PR 8 acceptance criterion): the
/// head-of-line-blocking experiment from `docs/scaling.md`. One family
/// (`rc_stiff`) is hung with an injected stall fault — it sleeps instead
/// of converging until its deadline expires, the shape of a pathological
/// model or a wedged solve. Four client threads drive fresh solves of
/// healthy `rc_lowpass` slots while one hung job is in flight. On the
/// single-scheduler service the hung job occupies the only scheduler, so
/// every client waits out its deadline before any healthy work runs. On
/// the 4-shard pool the hung job pins only its owning shard; the
/// clients' slots — probed up front to route elsewhere — are solved
/// immediately by the other shards' schedulers. That is the scale-out
/// property this PR ships, and it holds on a single core precisely
/// because the hung job sleeps (holds no CPU) while healthy shards work.
/// The gate floors the ratio at 1.0; the measured value is
/// deadline-dominated (~deadline / healthy-work), so it is floor-gated
/// rather than baselined.
pub fn sharded_throughput_scenario(reps: usize, iters: usize) -> ShardedOutcome {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use rfsim_circuit::fault::SolveFault;
    use rfsim_serve::service::{JobId, JobStatus, ServeConfig, SimService};
    use rfsim_serve::spec::JobSpec;

    const CLIENTS: usize = 4;
    const SHARDS: usize = 4;
    const HUNG_DEADLINE_MS: u64 = 250;
    // The healthy candidate slots: distinct (family, first-amplitude)
    // routing slots for the rendezvous hash to spread over the shards.
    const AMPLITUDES: [f64; 8] = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45];
    let spec = |first: f64, second: f64| {
        let mut s = JobSpec::mpde("rc_lowpass", 1e6, vec![first, second], vec![10e3]);
        s.n1 = 8;
        s.n2 = 4;
        s
    };
    // Routing keys on the first sweep point only, so varying the second
    // amplitude yields fresh solves that still land on the probed shard.
    let hung_spec = |second: f64| {
        let mut s = JobSpec::mpde("rc_stiff", 1e6, vec![0.5, second], vec![10e3]);
        s.n1 = 8;
        s.n2 = 4;
        s.deadline_ms = Some(HUNG_DEADLINE_MS);
        s
    };
    let wait = Duration::from_secs(600);
    let stall = || SolveFault::stall(5, 60_000);

    // Start the pool paused and probe slot placement: submit a queued
    // job, watch which shard's queue depth grew, cancel it. This pins
    // the hung family's shard and picks client slots that provably
    // route elsewhere — the isolation claim is constructed, not lucky.
    let sharded = SimService::start(ServeConfig {
        threads: 1,
        shards: SHARDS,
        paused: true,
        ..Default::default()
    });
    sharded.inject_fault("rc_stiff", stall());
    let place = |probe: &JobSpec| -> usize {
        let before: Vec<usize> = sharded
            .stats()
            .shards
            .iter()
            .map(|s| s.queue_depth)
            .collect();
        let id = sharded.submit(probe).expect("probe submit");
        let after: Vec<usize> = sharded
            .stats()
            .shards
            .iter()
            .map(|s| s.queue_depth)
            .collect();
        let shard = (0..SHARDS)
            .find(|&i| after[i] > before[i])
            .expect("a probe submit lands on exactly one shard");
        sharded.cancel(id).expect("probe cancel");
        shard
    };
    let hung_shard = place(&hung_spec(0.9));
    let placed: Vec<(f64, usize)> = AMPLITUDES
        .iter()
        .map(|&a| (a, place(&spec(a, 0.9))))
        .collect();
    let mut healthy: Vec<f64> = placed
        .iter()
        .filter(|&&(_, s)| s != hung_shard)
        .map(|&(a, _)| a)
        .collect();
    assert!(
        !healthy.is_empty(),
        "no candidate slot routes away from the hung shard"
    );
    let fast_shards = placed
        .iter()
        .filter(|&&(_, s)| s != hung_shard)
        .map(|&(_, s)| s)
        .collect::<std::collections::HashSet<_>>()
        .len();
    while healthy.len() < CLIENTS {
        let again = healthy.clone();
        healthy.extend(again);
    }
    healthy.truncate(CLIENTS);
    sharded.resume();

    let single = SimService::start(ServeConfig {
        threads: 1,
        ..Default::default()
    });
    single.inject_fault("rc_stiff", stall());

    // Sharding must not change results: one identical fresh solve on
    // each side.
    let check = spec(healthy[0], 0.77);
    let id = single.submit(&check).expect("check submit");
    let single_digest = single.wait(id, wait).expect("check solve").digest();
    let id = sharded.submit(&check).expect("check submit");
    let sharded_digest = sharded.wait(id, wait).expect("check solve").digest();
    let bit_identical = single_digest == sharded_digest;

    // Every timed submit is key-unique (the tag perturbs the second
    // sweep point), so both sides solve fresh work — no memoisation, no
    // coalescing, and the hung jobs never merge across reps.
    let tag = AtomicUsize::new(1);
    let isolated = AtomicBool::new(true);
    let single_hung: RefCell<Vec<JobId>> = RefCell::new(Vec::new());
    let sharded_hung: RefCell<Vec<JobId>> = RefCell::new(Vec::new());
    let hammer =
        |service: &Arc<SimService>, hung_log: &RefCell<Vec<JobId>>, check_isolated: bool| {
            let t = tag.fetch_add(1, Ordering::Relaxed);
            let hung_id = service
                .submit(&hung_spec(0.3 + 1e-4 * t as f64))
                .expect("hung submit");
            hung_log.borrow_mut().push(hung_id);
            std::thread::scope(|scope| {
                for client in 0..CLIENTS {
                    let service = Arc::clone(service);
                    let first = healthy[client];
                    let (spec, tag) = (&spec, &tag);
                    scope.spawn(move || {
                        for _ in 0..iters {
                            let t = tag.fetch_add(1, Ordering::Relaxed);
                            let id = service
                                .submit(&spec(first, 0.2 + 1e-4 * t as f64))
                                .expect("fresh submit");
                            let result = service.wait(id, wait).expect("healthy families solve");
                            assert!(!result.points.is_empty());
                        }
                    });
                }
            });
            if check_isolated {
                let pending = matches!(
                    service.poll(hung_id),
                    Ok(JobStatus::Queued | JobStatus::Running)
                );
                if !pending {
                    isolated.store(false, Ordering::Relaxed);
                }
            }
        };
    let (sharded_ns, single_ns) = time_paired_median_ns(
        reps,
        || hammer(&sharded, &sharded_hung, true),
        || hammer(&single, &single_hung, false),
    );

    // Drain: cancel every hung job (the stall fault polls its budget, so
    // a running one settles within milliseconds) so both services shut
    // down without waiting out queued deadlines.
    for id in single_hung.into_inner() {
        let _ = single.cancel(id);
        let _ = single.wait(id, wait);
    }
    for id in sharded_hung.into_inner() {
        let _ = sharded.cancel(id);
        let _ = sharded.wait(id, wait);
    }

    ShardedOutcome {
        single_ns,
        sharded_ns,
        shards: SHARDS,
        clients: CLIENTS,
        fast_shards,
        hung_isolated: isolated.load(Ordering::Relaxed),
        bit_identical,
        hung_deadline_ms: HUNG_DEADLINE_MS,
    }
}

/// Outcome of the telemetry-overhead scenario.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryOverheadOutcome {
    /// Median ns of a fresh grid solve with the telemetry plane on
    /// (histograms, timelines, trace retention — the default).
    pub on_ns: f64,
    /// Median ns of the identical fresh solve with `--no-telemetry`.
    pub off_ns: f64,
    /// Whether every solve — telemetry on and off alike — carried the
    /// bit-identical sample digest of the first solve.
    pub bit_identical: bool,
    /// Whether the telemetry-on service retained a settled trace for its
    /// final job (the instrumentation actually ran, so the ratio is a
    /// real measurement and not two identical code paths).
    pub traced: bool,
}

impl TelemetryOverheadOutcome {
    /// Telemetry overhead as a throughput ratio: telemetry-off solve
    /// time over telemetry-on solve time. 1.0 means telemetry is free;
    /// below 1.0 the instrumented path is slower by that factor.
    pub fn ratio(&self) -> f64 {
        self.off_ns / self.on_ns
    }
}

/// The telemetry-overhead scenario (PR 9 acceptance criterion): the
/// fresh-solve traffic shape of [`memo_roundtrip`], measured pairwise on
/// two otherwise-identical single-threaded services — one with the
/// telemetry plane on (default), one with `telemetry: false`. Telemetry
/// is designed to be left on, so fresh-solve throughput with it on must
/// stay ≥ 0.9x the uninstrumented baseline, and results must remain
/// bit-identical either way.
pub fn telemetry_overhead_scenario(reps: usize) -> TelemetryOverheadOutcome {
    use std::cell::Cell;
    use std::time::Duration;

    use rfsim_serve::service::{ServeConfig, SimService};
    use rfsim_serve::spec::JobSpec;

    let on = SimService::start(ServeConfig {
        threads: 1,
        ..Default::default()
    });
    let off = SimService::start(ServeConfig {
        threads: 1,
        telemetry: false,
        ..Default::default()
    });
    let mut spec = JobSpec::mpde("diode_clipper", 1e6, vec![0.1, 0.2], vec![10e3, 20e3]);
    spec.n1 = 16;
    spec.n2 = 8;
    let wait = Duration::from_secs(600);
    let run = |s: &SimService| {
        let id = s.submit(&spec).expect("submit");
        let digest = s.wait(id, wait).expect("serve").digest();
        (id, digest)
    };
    let reference = run(&on).1;
    let ok = Cell::new(run(&off).1 == reference);
    let last_on_id = Cell::new(None);
    let (on_ns, off_ns) = time_paired_median_ns(
        reps,
        || {
            on.evict(None);
            let (id, digest) = run(&on);
            last_on_id.set(Some(id));
            ok.set(ok.get() & (digest == reference));
        },
        || {
            off.evict(None);
            ok.set(ok.get() & (run(&off).1 == reference));
        },
    );
    let traced = last_on_id
        .get()
        .and_then(|id| on.trace(id).ok())
        .is_some_and(|t| t.settled && !t.events.is_empty());
    TelemetryOverheadOutcome {
        on_ns,
        off_ns,
        bit_identical: ok.get(),
        traced,
    }
}

// The JSON reader/writer this gate originally carried now lives in
// `rfsim_numerics::json`, where the serve wire protocol shares it;
// re-exported here so gate callers keep working unchanged.
pub use rfsim_numerics::json::Json;

/// One gated ratio: the measured value against its committed baseline.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// Which ratio this row gates.
    pub name: String,
    /// The freshly measured ratio.
    pub measured: f64,
    /// The committed baseline ratio (`None` = new metric, floor-gated
    /// only).
    pub baseline: Option<f64>,
    /// Hard floor the measured value must clear regardless of baseline.
    pub floor: f64,
}

impl GateCheck {
    /// Whether this check passes under `tolerance` (relative slack below
    /// the baseline).
    pub fn passes(&self, tolerance: f64) -> bool {
        let above_floor = self.measured >= self.floor;
        let within_baseline = match self.baseline {
            Some(base) => self.measured >= base * (1.0 - tolerance),
            None => true,
        };
        above_floor && within_baseline
    }
}

/// Evaluates all checks, printing a verdict line per check; returns `true`
/// when every check passes.
pub fn evaluate(checks: &[GateCheck], tolerance: f64) -> bool {
    let mut ok = true;
    for check in checks {
        let pass = check.passes(tolerance);
        ok &= pass;
        let baseline = check
            .baseline
            .map_or("none (new metric)".to_string(), |b| format!("{b:.3}"));
        println!(
            "[{}] {}: measured {:.3}, baseline {}, floor {:.3}",
            if pass { "PASS" } else { "FAIL" },
            check.name,
            check.measured,
            baseline,
            check.floor,
        );
    }
    ok
}

/// Renders a `BENCH_*.json` file (schema in `docs/benching.md`): the
/// raw `benchmarks` medians, one detail section per scenario, and under
/// `ratios` the measured value of every check in `checks`, rounded to
/// three decimals. Deriving `ratios` from the checks is what keeps the
/// committed artefact and the gate from drifting apart. The output is
/// indented two spaces per level, because the committed files are read
/// in diffs, not only parsed.
pub fn bench_json(
    benchmarks: &[(&str, f64)],
    sections: Vec<(&str, Json)>,
    checks: &[GateCheck],
) -> String {
    let mut members = vec![
        (
            "machine_note".to_string(),
            Json::string(
                "emitted by `cargo run --release -p rfsim-bench --bin bench_gate`; \
                 absolute ns are machine-bound, the `ratios` section is what the CI \
                 gate compares (see docs/benching.md)",
            ),
        ),
        (
            "benchmarks".to_string(),
            Json::array(benchmarks.iter().map(|&(name, median_ns)| {
                Json::object([
                    ("name", Json::string(name)),
                    ("median_ns", Json::number(median_ns)),
                ])
            })),
        ),
    ];
    members.extend(sections.into_iter().map(|(k, v)| (k.to_string(), v)));
    members.push((
        "ratios".to_string(),
        Json::object(checks.iter().map(|c| {
            (
                c.name.clone(),
                Json::number((c.measured * 1000.0).round() / 1000.0),
            )
        })),
    ));
    let mut out = String::new();
    write_indented(&Json::Object(members), 0, &mut out);
    out.push('\n');
    out
}

/// Writes `json` at nesting level `depth`, one member or item per line.
fn write_indented(json: &Json, depth: usize, out: &mut String) {
    let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match json {
        Json::Array(items) if !items.is_empty() => {
            ('[', ']', items.iter().map(|v| (None, v)).collect())
        }
        Json::Object(members) if !members.is_empty() => (
            '{',
            '}',
            members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        ),
        scalar => return out.push_str(&scalar.dump()),
    };
    out.push(open);
    for (i, (key, value)) in items.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            out.push_str(&Json::string(key).dump());
            out.push_str(": ");
        }
        write_indented(value, depth + 1, out);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_reexport_reads_bench_schema() {
        // The parser moved to `rfsim_numerics::json` (which carries the
        // UTF-8 regression test); this pins the gate-facing re-export.
        let json = Json::parse(r#"{"ratios": {"x": 1.63}, "note": "naïve"}"#).expect("parse");
        assert_eq!(json.number_at("ratios.x"), Some(1.63));
        assert_eq!(json.path("note"), Some(&Json::String("naïve".into())));
    }

    #[test]
    fn gate_check_tolerance_semantics() {
        let check = |measured, baseline, floor| GateCheck {
            name: "r".into(),
            measured,
            baseline,
            floor,
        };
        // Within 15% of baseline: pass; below: fail; improvements pass.
        assert!(check(1.40, Some(1.63), 0.0).passes(0.15));
        assert!(!check(1.38, Some(1.63), 0.0).passes(0.15));
        assert!(check(2.0, Some(1.63), 0.0).passes(0.15));
        // Floor applies even without a baseline.
        assert!(check(0.95, None, 0.9).passes(0.15));
        assert!(!check(0.85, None, 0.9).passes(0.15));
    }

    #[test]
    fn bench_json_carries_every_check_under_ratios() {
        let check = |name: &str, measured| GateCheck {
            name: name.into(),
            measured,
            baseline: None,
            floor: 1.0,
        };
        let checks = [
            check("refactor_vs_full_factor", 3.8214),
            check("memo_replay_bit_identical", 1.0),
            check("telemetry_overhead", 0.9786),
        ];
        let text = bench_json(
            &[("refactor/refactor_numeric", 4763831.0)],
            vec![(
                "drift",
                Json::object([("full_fallbacks", Json::from(0usize))]),
            )],
            &checks,
        );
        let json = Json::parse(&text).expect("bench JSON parses");
        let Some(Json::Object(ratios)) = json.get("ratios") else {
            panic!("no ratios object in {text}");
        };
        let names: Vec<&str> = ratios.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = checks.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, expected);
        assert_eq!(
            json.number_at("ratios.refactor_vs_full_factor"),
            Some(3.821)
        );
        assert_eq!(json.number_at("drift.full_fallbacks"), Some(0.0));
        let benchmarks = json.array_at("benchmarks").expect("benchmarks list");
        assert_eq!(
            benchmarks[0].string_at("name"),
            Some("refactor/refactor_numeric")
        );
        assert_eq!(benchmarks[0].number_at("median_ns"), Some(4763831.0));
    }

    #[test]
    fn memo_roundtrip_hits_and_replays_bit_identically() {
        // One cheap reprise of the PR 4 acceptance criterion (the >= 10x
        // floor itself is enforced by `bench_gate` in release mode).
        let outcome = memo_roundtrip(1);
        assert!(outcome.memo_hits >= 1, "{outcome:?}");
        assert!(outcome.bit_identical, "{outcome:?}");
        assert!(outcome.speedup() > 1.0, "{outcome:?}");
    }

    #[test]
    fn keyless_submit_never_invokes_the_builder() {
        // One cheap reprise of the PR 5 acceptance criterion: memo-hit
        // submits compute their store key without building a circuit.
        let outcome = keyless_submit_scenario(1);
        assert!(outcome.build_free(), "{outcome:?}");
    }

    #[test]
    fn cancel_scenario_settles_typed_and_reclaims() {
        // One cheap reprise of the PR 6 acceptance criterion (the
        // latency bound itself is enforced by `bench_gate` in release
        // mode): a hung fault-injected job cancels with the typed
        // outcome and its slot serves a follow-up job.
        let outcome = cancel_latency_scenario(1);
        assert!(outcome.typed, "{outcome:?}");
        assert!(outcome.reclaimed, "{outcome:?}");
        assert!(outcome.latency_ns > 0.0, "{outcome:?}");
    }

    #[test]
    fn recovery_ladder_fails_typed_rescues_and_commits_no_nan() {
        // One cheap reprise of the PR 7 acceptance criteria (the gate
        // floors run in release via `bench_gate`): typed divergence,
        // zero committed NaN iterates, and a real rung climb.
        let outcome = recovery_ladder_scenario(1);
        assert_eq!(outcome.diverged_typed, 1, "{outcome:?}");
        assert_eq!(outcome.nan_iterates_committed, 0, "{outcome:?}");
        assert_eq!(outcome.ladder_rescues, 1, "{outcome:?}");
        assert!(outcome.fast_fail_headroom() >= 2.0, "{outcome:?}");
    }

    #[test]
    fn sharded_pool_isolates_a_hung_family() {
        // One cheap reprise of the PR 8 acceptance criterion (the >= 1.0
        // throughput floor itself is enforced by `bench_gate` in release
        // mode): with one family hung on a stall fault, the 4-shard
        // pool finishes the healthy clients' solves while the hung job
        // is still pending, the clients' probed slots avoid the hung
        // shard, and the pool's solutions are bit-identical to the
        // single scheduler's.
        let outcome = sharded_throughput_scenario(1, 1);
        assert!(outcome.hung_isolated, "{outcome:?}");
        assert!(outcome.bit_identical, "{outcome:?}");
        assert!(outcome.fast_shards >= 1, "{outcome:?}");
        assert!(
            outcome.speedup() > 1.0,
            "the hung job must head-of-line-block only the single scheduler: {outcome:?}"
        );
    }

    #[test]
    fn drift_scenario_stays_in_pattern() {
        // One cheap reprise of the acceptance criterion: >= 90% of
        // pivot-stress refreshes repaired in-pattern (the dense-block
        // drift is 100% by construction).
        let outcome = drift_scenario(1);
        assert_eq!(outcome.stressed_refreshes, 12);
        assert!(
            outcome.hit_rate() >= 0.9,
            "hit rate {:.2} below the 90% acceptance floor",
            outcome.hit_rate()
        );
        assert_eq!(outcome.full_fallbacks, 0);
    }
}
