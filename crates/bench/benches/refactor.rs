//! The symbolic-reuse benchmark: factor-once / refactor-many on the
//! scaled-mixer MPDE Jacobian, plus the workspace-level wins it unlocks.
//!
//! * `factor_full` vs `refactor_numeric` — a full Gilbert–Peierls
//!   factorisation (RCM + DFS reach + pivot search) against the
//!   numeric-only `SparseLu::refactor_in_place` on the same matrix: the
//!   per-Newton-iteration cost before and after this optimisation.
//! * `to_csc_compress` vs `csc_assembly_scatter` — triplet compression from
//!   scratch against the cached slot-map scatter.
//! * `transient_mixer` / `mpde_solve_cold` / `mpde_solve_warm` — end-to-end
//!   paths whose Newton iterations ride the persistent
//!   [`rfsim_circuit::newton::LinearSolverWorkspace`]; the warm variant
//!   additionally reuses it across calls.
//! * `drifting_operating_point/*` — a pivot-stressing value sequence
//!   (every refresh kills the current pivot entry of one block's leading
//!   column): `restricted_pivot` repairs in-pattern; `full_fallback`
//!   disables the repair so every detected kill pays a full
//!   re-factorisation — the cost the repair avoids (not the pre-PR-3
//!   code, whose absolute detection would have silently accepted the
//!   tiny pivots). The in-pattern hit rate vs full-fallback rate prints
//!   alongside the wall times (and is gated in CI by `bench_gate`).

use criterion::{criterion_group, criterion_main, Criterion};
use rfsim_bench::gate::{drift_scenario, drift_sequence, mpde_jacobian, DRIFT_STEPS};
use rfsim_circuit::newton::LinearSolverWorkspace;
use rfsim_circuit::transient::{transient, Integrator, TransientOptions};
use rfsim_mpde::solver::{solve_mpde, solve_mpde_budgeted, MpdeOptions};
use rfsim_numerics::sparse::CscAssembly;
use rfsim_numerics::sparse_lu::{LuOptions, SparseLu};
use rfsim_numerics::SolveBudget;

use rfsim_bench::paper::scaled_mixer;

fn bench_factor_vs_refactor(c: &mut Criterion) {
    let jac = mpde_jacobian(24, 16);
    let csc = jac.to_csc();
    let mut group = c.benchmark_group("mpde_jacobian_refactor");
    group.sample_size(10);
    group.bench_function("factor_full", |b| {
        b.iter(|| SparseLu::factor(&csc, LuOptions::default()).expect("factor"))
    });
    group.bench_function("refactor_numeric", |b| {
        let mut lu = SparseLu::factor(&csc, LuOptions::default()).expect("factor");
        b.iter(|| lu.refactor_in_place(&csc).expect("refactor"))
    });
    group.finish();
}

fn bench_assembly(c: &mut Criterion) {
    let jac = mpde_jacobian(24, 16);
    let mut group = c.benchmark_group("mpde_jacobian_assembly");
    group.sample_size(10);
    group.bench_function("to_csc_compress", |b| b.iter(|| jac.to_csc()));
    group.bench_function("csc_assembly_scatter", |b| {
        let asm = CscAssembly::new(&jac);
        let mut csc = asm.zero_matrix();
        b.iter(|| assert!(asm.scatter(&jac, &mut csc)))
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mixer = scaled_mixer(10e6, 100.0);
    let mut group = c.benchmark_group("newton_hot_paths");
    group.sample_size(10);
    group.bench_function("transient_mixer", |b| {
        b.iter(|| {
            transient(
                &mixer.circuit,
                TransientOptions {
                    t_stop: 4.0 * mixer.params.t1_period(),
                    dt_init: mixer.params.t1_period() / 50.0,
                    dt_max: mixer.params.t1_period() / 25.0,
                    integrator: Integrator::Trapezoidal,
                    ..Default::default()
                },
            )
            .expect("transient")
        })
    });
    let opts = MpdeOptions {
        n1: 24,
        n2: 12,
        ..Default::default()
    };
    group.bench_function("mpde_solve_cold", |b| {
        b.iter(|| {
            solve_mpde(
                &mixer.circuit,
                mixer.params.t1_period(),
                mixer.params.t2_period(),
                opts.clone(),
            )
            .expect("mpde")
        })
    });
    group.bench_function("mpde_solve_warm", |b| {
        let mut ws = LinearSolverWorkspace::new();
        let unlimited = SolveBudget::unlimited();
        // Prime the workspace so the measurement shows the steady state of
        // a warm-started sweep.
        solve_mpde_budgeted(
            &mixer.circuit,
            mixer.params.t1_period(),
            mixer.params.t2_period(),
            opts.clone(),
            &mut ws,
            &unlimited,
        )
        .expect("prime");
        b.iter(|| {
            solve_mpde_budgeted(
                &mixer.circuit,
                mixer.params.t1_period(),
                mixer.params.t2_period(),
                opts.clone(),
                &mut ws,
                &unlimited,
            )
            .expect("mpde")
        })
    });
    group.finish();
}

fn bench_drifting_operating_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("drifting_operating_point");
    group.sample_size(10);
    group.bench_function("restricted_pivot", |b| {
        b.iter(|| {
            let (repairs, _) = drift_sequence(true);
            assert!(
                repairs * 10 >= DRIFT_STEPS * 9,
                "drift left the pattern: {repairs}/{DRIFT_STEPS} in-pattern"
            );
            repairs
        })
    });
    group.bench_function("full_fallback", |b| b.iter(|| drift_sequence(false)));
    group.finish();
    let outcome = drift_scenario(3);
    eprintln!(
        "drifting_operating_point: {} pivot-stress refreshes/sequence, \
         in-pattern hit rate {:.0}%, full-fallback rate {:.0}%, \
         restricted {:.2} ms vs full-fallback {:.2} ms ({:.2}x)",
        outcome.stressed_refreshes / 3,
        100.0 * outcome.hit_rate(),
        100.0 * outcome.fallback_rate(),
        outcome.restricted_ns / 1e6,
        outcome.fallback_ns / 1e6,
        outcome.fallback_ns / outcome.restricted_ns,
    );
}

criterion_group!(
    benches,
    bench_factor_vs_refactor,
    bench_assembly,
    bench_end_to_end,
    bench_drifting_operating_point
);
criterion_main!(benches);
