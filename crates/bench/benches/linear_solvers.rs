//! Ablation: direct sparse LU vs GMRES + block-Jacobi on a real MPDE
//! Jacobian (the paper used "iterative linear solution methods"; Newton
//! runs direct LU below 8 000 unknowns and GMRES above — this measures
//! the trade on a 24×16 grid).

use criterion::{criterion_group, criterion_main, Criterion};
use rfsim_bench::paper::{comparison_grid, scaled_mixer};
use rfsim_circuit::newton::NewtonSystem;
use rfsim_mpde::fdtd::MpdeSystem;
use rfsim_numerics::krylov::{gmres, BlockJacobiPrecond, GmresOptions};
use rfsim_numerics::sparse::Triplets;
use rfsim_numerics::sparse_lu::{LuOptions, Ordering, SparseLu};

fn bench_linear(c: &mut Criterion) {
    let mixer = scaled_mixer(10e6, 200.0);
    let grid = comparison_grid(&mixer, 24, 16);
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
    let csc = jac.to_csc();
    let csr = jac.to_csr();
    let rhs: Vec<f64> = r.iter().map(|v| -v).collect();

    let mut group = c.benchmark_group("mpde_jacobian_solve");
    group.sample_size(10);
    group.bench_function("sparse_lu_rcm", |b| {
        b.iter(|| {
            SparseLu::factor(&csc, LuOptions::default())
                .expect("factor")
                .solve(&rhs)
        })
    });
    group.bench_function("sparse_lu_natural", |b| {
        b.iter(|| {
            SparseLu::factor(
                &csc,
                LuOptions {
                    ordering: Ordering::Natural,
                    ..Default::default()
                },
            )
            .expect("factor")
            .solve(&rhs)
        })
    });
    // MNA V-source rows have structurally zero diagonals; block-Jacobi
    // over per-grid-point circuit blocks still factors every block.
    let block = mixer.circuit.num_unknowns();
    group.bench_function("gmres_block_jacobi", |b| {
        b.iter(|| {
            let pre = BlockJacobiPrecond::new(&csr, block).expect("block jacobi");
            gmres(
                &csr,
                &pre,
                &rhs,
                &vec![0.0; dim],
                GmresOptions {
                    rtol: 1e-9,
                    restart: 80,
                    max_iters: 4000,
                    ..Default::default()
                },
            )
            .expect("gmres")
        })
    });
    // The per-Newton-iteration direct cost after the symbolic split:
    // numeric refactorisation + triangular solves, no ordering/reach/pivot.
    group.bench_function("lu_refactor_and_solve", |b| {
        let mut lu = SparseLu::factor(&csc, LuOptions::default()).expect("factor");
        b.iter(|| {
            lu.refactor_in_place(&csc).expect("refactor");
            lu.solve(&rhs)
        })
    });
    group.bench_function("lu_resolve_only", |b| {
        let lu = SparseLu::factor(&csc, LuOptions::default()).expect("factor");
        b.iter(|| lu.solve(&rhs))
    });
    group.finish();
}

criterion_group!(benches, bench_linear);
criterion_main!(benches);
