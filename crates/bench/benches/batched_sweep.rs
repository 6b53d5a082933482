//! The batched multi-topology sweep benchmark behind `BENCH_pr2.json`.
//!
//! * `batched_sweep/sequential_per_topology` — the status-quo baseline:
//!   four circuit families traced one `amplitude_sweep` at a time, each
//!   paying its own cold workspace (full symbolic analysis) and its own
//!   cold first point (DC-replicate Newton).
//! * `batched_sweep/engine_batch_cold` — the same four families through a
//!   freshly constructed [`SweepEngine`]: fingerprint grouping plus
//!   warm-start chaining across same-structure jobs.
//! * `batched_sweep/engine_batch_warm` — the engine in its steady state (a
//!   long-lived engine whose fingerprint-keyed workspaces survive between
//!   batches), the configuration a sweep service actually runs.
//! * `mixed_stream/single_workspace_thrash` vs
//!   `mixed_stream/fingerprint_cache` — an interleaved stream of operating
//!   points alternating between two Jacobian structures: one workspace
//!   thrashes (full re-analysis at every switch), the fingerprint cache
//!   keeps both structures warm.
//!
//! On multi-core hosts the engine additionally spreads topology groups
//! across its worker pool; the committed numbers from the 1-core container
//! isolate the cache + chaining effect.

use criterion::{criterion_group, criterion_main, Criterion};
use rfsim_circuit::newton::LinearSolverWorkspace;
use rfsim_circuit::{BiWaveform, Circuit, CircuitBuilder, Envelope, Result, GROUND};
use rfsim_circuits::{BalancedMixer, BalancedMixerParams};
use rfsim_mpde::solver::{solve_mpde_budgeted, MpdeOptions};
use rfsim_numerics::SolveBudget;
use rfsim_rf::sweep::{amplitude_sweep, MpdeSweepJob, SweepEngine};

const F_LO: f64 = 10e6;
const DISPARITY: f64 = 100.0;
const AMPS: [f64; 3] = [0.02, 0.05, 0.08];

fn mixer_params(rf_amplitude: f64, rd: f64) -> BalancedMixerParams {
    BalancedMixerParams {
        f_lo: F_LO,
        fd: F_LO / DISPARITY,
        rf_bits: vec![],
        rf_amplitude,
        rd,
        ..Default::default()
    }
}

/// Balanced-mixer family: one topology, `rd` selects the variant.
fn mixer_family(rd: f64) -> impl Fn(f64) -> Result<Circuit> + Send + Sync + Clone {
    move |a: f64| Ok(BalancedMixer::build(mixer_params(a, rd))?.circuit)
}

/// Sheared-RC family: a second, much smaller topology in the mix.
fn rc_family() -> impl Fn(f64) -> Result<Circuit> + Send + Sync + Clone {
    let params = mixer_params(0.05, 1e3);
    let (t1, _) = (params.t1_period(), params.t2_period());
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
                f1: 1.0 / t1,
                fd: F_LO / DISPARITY,
                phase: 0.0,
                envelope: Envelope::Unit,
            },
        )?;
        b.resistor("R1", inp, out, 1e3)?;
        b.capacitor("C1", out, GROUND, 3e-12)?;
        b.build()
    }
}

fn grid_options() -> MpdeOptions {
    MpdeOptions {
        n1: 24,
        n2: 12,
        ..Default::default()
    }
}

/// The 4-topology mixed batch: three mixer variants (one shared Jacobian
/// structure) plus the RC stage (a second structure).
fn batch_jobs() -> Vec<MpdeSweepJob> {
    let params = mixer_params(0.05, 1e3);
    let (t1, t2) = (params.t1_period(), params.t2_period());
    let mut jobs: Vec<MpdeSweepJob> = [0.95e3, 1.0e3, 1.05e3]
        .iter()
        .map(|&rd| {
            MpdeSweepJob::new(
                format!("mixer-rd{rd}"),
                AMPS.to_vec(),
                t1,
                t2,
                grid_options(),
                mixer_family(rd),
            )
        })
        .collect();
    jobs.push(MpdeSweepJob::new(
        "rc-stage",
        AMPS.to_vec(),
        t1,
        t2,
        grid_options(),
        rc_family(),
    ));
    jobs
}

fn bench_batched_sweep(c: &mut Criterion) {
    let params = mixer_params(0.05, 1e3);
    let (t1, t2) = (params.t1_period(), params.t2_period());
    let mut group = c.benchmark_group("batched_sweep");
    group.sample_size(10);

    group.bench_function("sequential_per_topology", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for rd in [0.95e3, 1.0e3, 1.05e3] {
                let points = amplitude_sweep(&AMPS, t1, t2, grid_options(), mixer_family(rd))
                    .expect("mixer sweep");
                total += points.len();
            }
            total += amplitude_sweep(&AMPS, t1, t2, grid_options(), rc_family())
                .expect("rc sweep")
                .len();
            assert_eq!(total, 4 * AMPS.len());
            total
        })
    });

    let jobs = batch_jobs();
    group.bench_function("engine_batch_cold", |b| {
        b.iter(|| {
            let engine = SweepEngine::new();
            let results = engine.run_mpde_batch(&jobs);
            results
                .iter()
                .map(|r| r.as_ref().expect("job converges").len())
                .sum::<usize>()
        })
    });

    group.bench_function("engine_batch_warm", |b| {
        let engine = SweepEngine::new();
        // Prime the fingerprint-keyed cache: the steady state of a
        // long-lived sweep service.
        let _ = engine.run_mpde_batch(&jobs);
        b.iter(|| {
            let results = engine.run_mpde_batch(&jobs);
            results
                .iter()
                .map(|r| r.as_ref().expect("job converges").len())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_mixed_stream(c: &mut Criterion) {
    let params = mixer_params(0.05, 1e3);
    let (t1, t2) = (params.t1_period(), params.t2_period());
    // An interleaved stream of operating points: mixer, rc, mixer, rc, …
    // encoded in the sweep value's sign (negative → RC at |v|).
    let stream: Vec<f64> = vec![0.02, -0.02, 0.05, -0.05, 0.08, -0.08];
    let make_mixed = {
        let mixer = mixer_family(1e3);
        let rc = rc_family();
        move |v: f64| {
            if v >= 0.0 {
                mixer(v)
            } else {
                rc(-v)
            }
        }
    };

    let mut group = c.benchmark_group("mixed_stream");
    group.sample_size(10);

    group.bench_function("single_workspace_thrash", |b| {
        // The pre-engine behaviour: one workspace through an alternating
        // stream rebuilds its entire structure at every topology switch.
        let make = make_mixed.clone();
        b.iter(|| {
            let mut ws = LinearSolverWorkspace::new();
            let unlimited = SolveBudget::unlimited();
            let mut n = 0usize;
            for &v in &stream {
                let circuit = make(v).expect("build");
                let sol =
                    solve_mpde_budgeted(&circuit, t1, t2, grid_options(), &mut ws, &unlimited)
                        .expect("solve");
                n += sol.stats.system_size;
            }
            n
        })
    });

    group.bench_function("fingerprint_cache", |b| {
        // The fixed amplitude_sweep: transparent re-keying keeps one
        // warmed workspace per structure.
        let make = make_mixed.clone();
        b.iter(|| {
            let points =
                amplitude_sweep(&stream, t1, t2, grid_options(), &make).expect("mixed sweep");
            assert_eq!(points.len(), stream.len());
            points.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_batched_sweep, bench_mixed_stream);
criterion_main!(benches);
