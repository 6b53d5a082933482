//! Cross-method validation: the same physical problem solved by transient,
//! shooting, periodic FD collocation, harmonic balance and the sheared
//! MPDE must agree. These are the strongest correctness checks in the
//! repository — every engine is hand-rolled, so agreement is meaningful.

use rfsim::circuit::newton::{LinearSolver, LinearSolverWorkspace, NewtonOptions};
use rfsim::circuit::transient::{transient, Integrator, TransientOptions};
use rfsim::circuit::{
    BiWaveform, Circuit, CircuitBuilder, CircuitError, Envelope, Waveform, GROUND,
};
use rfsim::circuits::fixtures::{multiplier_mixer, rc_sheared};
use rfsim::circuits::{BalancedMixer, BalancedMixerParams};
use rfsim::hb::hb2::{hb2_solve, Hb2Options};
use rfsim::mpde::solver::{solve_mpde, solve_mpde_budgeted, MpdeOptions, MpdeStrategy};
use rfsim::numerics::diff::DiffScheme;
use rfsim::numerics::SolveBudget;
use rfsim::rf::pool::WorkerPool;
use rfsim::rf::sweep::{amplitude_sweep, MpdeSweepJob, SweepEngine};
use rfsim::shooting::{periodic_fd_pss, shooting_pss, PeriodicFdOptions, ShootingOptions};
use std::f64::consts::PI;

/// RC low-pass response magnitude at frequency `f`.
fn rc_mag(r: f64, c: f64, f: f64) -> f64 {
    let w = 2.0 * PI * f * r * c;
    1.0 / (1.0 + w * w).sqrt()
}

#[test]
fn mpde_matches_analytic_and_hb_on_linear_circuit() {
    let (f1, fd) = (1e6, 10e3);
    let (r, c) = (1e3, 160e-12);
    let (ckt, out) = rc_sheared(r, c, f1, fd, 1.0).expect("build");
    let mag = rc_mag(r, c, f1 - fd);

    let mpde = solve_mpde(
        &ckt,
        1.0 / f1,
        1.0 / fd,
        MpdeOptions {
            n1: 64,
            n2: 16,
            scheme1: DiffScheme::Central2,
            scheme2: DiffScheme::Central2,
            ..Default::default()
        },
    )
    .expect("mpde");
    let a_mpde = mpde.solution.fast_harmonic_magnitude(out, 1);
    assert!(
        (a_mpde - mag).abs() < 0.02,
        "MPDE amplitude {a_mpde} vs analytic {mag}"
    );

    // HB on the same grid sizes is spectrally exact for this linear problem.
    let hb = hb2_solve(
        &ckt,
        1.0 / f1,
        1.0 / fd,
        None,
        Hb2Options {
            n1: 8,
            n2: 8,
            ..Default::default()
        },
    )
    .expect("hb2");
    let row: Vec<f64> = (0..8).map(|i| hb.state(i, 0)[out]).collect();
    let a_hb = rfsim::numerics::fft::harmonic_amplitude(&row, 1);
    assert!(
        (a_hb - mag).abs() < 1e-4,
        "HB amplitude {a_hb} vs analytic {mag}"
    );
}

#[test]
fn shooting_and_periodic_fd_agree_on_nonlinear_circuit() {
    let (ckt, out) = rfsim::circuits::fixtures::diode_rectifier(1e6, 2.0).expect("build");
    let shoot = shooting_pss(
        &ckt,
        1e-6,
        None,
        ShootingOptions {
            steps_per_period: 512,
            ..Default::default()
        },
    )
    .expect("shooting");
    let fd_pss = periodic_fd_pss(
        &ckt,
        1e-6,
        None,
        PeriodicFdOptions {
            n_samples: 256,
            scheme: DiffScheme::Bdf2,
            ..Default::default()
        },
    )
    .expect("periodic fd");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let m1 = mean(&shoot.signal(out));
    let m2 = mean(&fd_pss.signal(out));
    assert!((m1 - m2).abs() < 0.02, "shooting {m1} vs collocation {m2}");
}

#[test]
fn mpde_diagonal_matches_transient_steady_state() {
    // Ideal multiplier mixer at small disparity: a full transient to steady
    // state is affordable, and the MPDE diagonal must match it.
    let (f1, fd) = (1e5, 1e4);
    let (ckt, out) = multiplier_mixer(f1, fd, vec![]).expect("build");
    let sol = solve_mpde(
        &ckt,
        1.0 / f1,
        1.0 / fd,
        MpdeOptions {
            n1: 64,
            n2: 32,
            scheme1: DiffScheme::Central2,
            scheme2: DiffScheme::Central2,
            ..Default::default()
        },
    )
    .expect("mpde");
    let tr = transient(
        &ckt,
        TransientOptions {
            t_stop: 2.0 / fd,
            dt_init: 0.01 / f1,
            dt_max: 0.02 / f1,
            integrator: Integrator::Trapezoidal,
            ..Default::default()
        },
    )
    .expect("transient");
    // The mixer is memoryless + resistive load: steady state is immediate.
    let mut worst = 0.0f64;
    for k in 0..150 {
        let t = 1.0 / fd + (1.0 / fd) * k as f64 / 150.0;
        let v_mpde = sol.solution.interpolate(out, t, t);
        let v_tr = tr.sample(out, t);
        worst = worst.max((v_mpde - v_tr).abs());
    }
    assert!(worst < 0.02, "diagonal vs transient: worst {worst}");
}

/// Amplitude-parameterised sheared-RC family (one topology per `(r, c)`).
fn rc_family(
    f1: f64,
    fd: f64,
    r: f64,
    c: f64,
) -> impl Fn(f64) -> Result<Circuit, CircuitError> + Send + Sync + 'static {
    move |a: f64| Ok(rc_sheared(r, c, f1, fd, a)?.0)
}

/// Amplitude-parameterised multiplier-mixer family (distinct topology from
/// the RC filters: extra nodes, a nonlinear element, two sources).
fn mixer_family(
    f1: f64,
    fd: f64,
) -> impl Fn(f64) -> Result<Circuit, CircuitError> + Send + Sync + 'static {
    move |a: f64| {
        let mut b = CircuitBuilder::new();
        let lo = b.node("lo");
        let rf = b.node("rf");
        let out = b.node("out");
        b.vsource(
            "VLO",
            lo,
            GROUND,
            BiWaveform::Axis1(Waveform::cosine(1.0, f1)),
        )?;
        b.vsource(
            "VRF",
            rf,
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
        b.multiplier("MIX", out, GROUND, lo, GROUND, rf, GROUND, 1e-3)?;
        b.resistor("RL", out, GROUND, 1e3)?;
        b.build()
    }
}

#[test]
fn batched_engine_bit_identical_to_sequential_per_topology_sweeps() {
    // The engine's contract: a batch over distinct topologies is exactly a
    // set of per-topology `amplitude_sweep` runs — same workspaces state
    // sequence, same warm-start chain, bit-identical solutions — just
    // routed through the fingerprint cache and the worker pool.
    let (f1, fd) = (1e6, 10e3);
    let opts = MpdeOptions {
        n1: 16,
        n2: 8,
        ..Default::default()
    };
    let amps = vec![0.1, 0.25, 0.5];
    let jobs = vec![
        MpdeSweepJob::new(
            "rc-fast",
            amps.clone(),
            1.0 / f1,
            1.0 / fd,
            opts.clone(),
            rc_family(f1, fd, 1e3, 160e-12),
        ),
        MpdeSweepJob::new(
            "rc-slow",
            amps.clone(),
            1.0 / f1,
            1.0 / fd,
            opts.clone(),
            rc_family(f1, fd, 4.7e3, 330e-12),
        ),
        MpdeSweepJob::new(
            "mixer",
            amps.clone(),
            1.0 / f1,
            1.0 / fd,
            opts.clone(),
            mixer_family(f1, fd),
        ),
    ];
    let engine = SweepEngine::with_pool(WorkerPool::new(3));
    let batch = engine.run_mpde_batch(&jobs);

    // Note: rc-fast and rc-slow share one topology, so they form one
    // group; bit-identity for the *second* group member additionally
    // relies on group chaining being semantics-preserving only within
    // tolerance. Compare the group leaders bit-for-bit and the follower
    // against a chained sequential baseline.
    let sequential: Vec<Vec<rfsim::rf::sweep::SweepPoint>> = vec![
        amplitude_sweep(
            &amps,
            1.0 / f1,
            1.0 / fd,
            opts.clone(),
            rc_family(f1, fd, 1e3, 160e-12),
        )
        .expect("rc-fast sequential"),
        amplitude_sweep(
            &amps,
            1.0 / f1,
            1.0 / fd,
            opts.clone(),
            rc_family(f1, fd, 4.7e3, 330e-12),
        )
        .expect("rc-slow sequential"),
        amplitude_sweep(&amps, 1.0 / f1, 1.0 / fd, opts, mixer_family(f1, fd))
            .expect("mixer sequential"),
    ];
    // Group leaders (first job of each fingerprint group) are bit-identical.
    for (label, job_idx) in [("rc-fast", 0), ("mixer", 2)] {
        let b = batch[job_idx].as_ref().expect("batch job");
        for (bp, sp) in b.iter().zip(&sequential[job_idx]) {
            assert_eq!(
                bp.solution.solution.data, sp.solution.solution.data,
                "{label}: batched and sequential solutions must be bit-identical"
            );
        }
    }
    // The chained group follower agrees to solver tolerance.
    let b = batch[1].as_ref().expect("rc-slow batch");
    for (bp, sp) in b.iter().zip(&sequential[1]) {
        let d: f64 = bp
            .solution
            .solution
            .data
            .iter()
            .zip(&sp.solution.solution.data)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(d < 1e-4, "rc-slow: chained vs sequential differ by {d}");
    }

    // With chaining disabled every job is independent: the whole batch is
    // bit-identical to the sequential runs, followers included.
    let strict = SweepEngine::with_pool(WorkerPool::new(2)).chain_topology_groups(false);
    let strict_batch = strict.run_mpde_batch(&jobs);
    for (job_idx, seq) in sequential.iter().enumerate() {
        let b = strict_batch[job_idx].as_ref().expect("strict batch job");
        assert_eq!(b.len(), seq.len());
        for (bp, sp) in b.iter().zip(seq) {
            assert_eq!(
                bp.solution.solution.data, sp.solution.solution.data,
                "job {job_idx}: unchained batch must be bit-identical"
            );
        }
    }
}

#[test]
fn hb2_matches_mpde_across_amplitude_spacing_grid() {
    // Multi-parameter cross-validation: at every (amplitude × tone
    // spacing) grid point, the sheared-MPDE fast-axis response must match
    // two-tone HB (spectrally exact on this linear circuit) and the
    // analytic RC response at the diagonal frequency f1 − fd.
    let f1 = 1e6;
    let (r, c) = (1e3, 160e-12);
    let amplitudes = vec![0.5, 1.0];
    let spacings = [10e3, 25e3];
    // One job per spacing row, the way the service and the CLI run grids.
    let jobs: Vec<MpdeSweepJob> = spacings
        .iter()
        .map(|&fd| {
            MpdeSweepJob::new(
                format!("rc-grid/fd={fd}"),
                amplitudes.clone(),
                1.0 / f1,
                1.0 / fd,
                MpdeOptions {
                    n1: 64,
                    n2: 16,
                    scheme1: DiffScheme::Central2,
                    scheme2: DiffScheme::Central2,
                    ..Default::default()
                },
                move |a: f64| Ok(rc_sheared(r, c, f1, fd, a)?.0),
            )
        })
        .collect();
    let engine = SweepEngine::with_pool(WorkerPool::new(2));
    let rows = engine.run_mpde_batch(&jobs);
    // One Jacobian structure serves the whole grid.
    assert_eq!(engine.cache_stats().patterns, 1);
    for (&fd, row) in spacings.iter().zip(&rows) {
        let row = row.as_ref().expect("grid row");
        assert_eq!(row.len(), amplitudes.len());
        for p in row {
            let amplitude = p.value;
            let (ckt, out) = rc_sheared(r, c, f1, fd, amplitude).expect("build");
            let a_mpde = p.solution.solution.fast_harmonic_magnitude(out, 1);
            let a_ana = amplitude * rc_mag(r, c, f1 - fd);
            assert!(
                (a_mpde - a_ana).abs() < 0.02 * amplitude,
                "({amplitude}, {fd}): MPDE {a_mpde} vs analytic {a_ana}"
            );
            let hb = hb2_solve(
                &ckt,
                1.0 / f1,
                1.0 / fd,
                None,
                Hb2Options {
                    n1: 8,
                    n2: 8,
                    ..Default::default()
                },
            )
            .expect("hb2");
            let hb_row: Vec<f64> = (0..8).map(|i| hb.state(i, 0)[out]).collect();
            let a_hb = rfsim::numerics::fft::harmonic_amplitude(&hb_row, 1);
            assert!(
                (a_mpde - a_hb).abs() < 0.02 * amplitude,
                "({amplitude}, {fd}): MPDE {a_mpde} vs HB {a_hb}"
            );
        }
    }
}

#[test]
fn mpde_envelope_matches_shooting_over_difference_period() {
    // The paper's central quantitative claim, in miniature: MPDE baseband
    // content equals what single-time shooting over the (expensive)
    // difference period produces.
    let (f1, fd) = (1e6, 2e4); // disparity 50: shooting affordable in tests
    let (ckt, out) = multiplier_mixer(f1, fd, vec![]).expect("build");
    let sol = solve_mpde(
        &ckt,
        1.0 / f1,
        1.0 / fd,
        MpdeOptions {
            n1: 32,
            n2: 16,
            scheme1: DiffScheme::Central2,
            scheme2: DiffScheme::Central2,
            ..Default::default()
        },
    )
    .expect("mpde");
    let h_mpde = sol.solution.baseband_harmonic(out, 1).abs();

    let steps = rfsim::shooting::difference_period_steps(f1, fd, 20);
    let shot = shooting_pss(
        &ckt,
        1.0 / fd,
        None,
        ShootingOptions {
            steps_per_period: steps,
            ..Default::default()
        },
    )
    .expect("shooting");
    // Baseband fundamental of the shooting waveform: average fast content
    // out by decimating to one sample per LO period, then take harmonic 1.
    let sig = shot.signal(out);
    let per_lo = 20;
    let slow: Vec<f64> = sig
        .chunks(per_lo)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let h_shoot = rfsim::numerics::fft::harmonic_amplitude(&slow[..50], 1);
    assert!(
        (h_mpde - h_shoot).abs() < 0.05 * h_mpde.max(h_shoot),
        "MPDE baseband {h_mpde} vs shooting baseband {h_shoot}"
    );
}

/// The paper's balanced mixer (450 MHz LO, 15 kHz spacing) carrying a
/// BPSK bit `pattern` such as `"1011"`.
fn paper_mixer(pattern: &str) -> BalancedMixer {
    BalancedMixer::build(BalancedMixerParams {
        rf_bits: pattern.chars().map(|c| c == '1').collect(),
        ..Default::default()
    })
    .expect("mixer builds")
}

#[test]
fn krylov_and_direct_mpde_agree_on_the_paper_mixer() {
    // The paper's 40×30 grid has 18 000 unknowns, above the Newton grid
    // policy's Krylov threshold: the default options run GMRES with one
    // block-Jacobi block per grid point, and forcing direct LU solves the
    // same system independently. `0110` showed the largest deviation of
    // the measured patterns.
    for pattern in ["0110", "1011"] {
        let m = paper_mixer(pattern);
        let solve = |options: MpdeOptions| {
            let mut ws = LinearSolverWorkspace::new();
            let sol = solve_mpde_budgeted(
                &m.circuit,
                m.params.t1_period(),
                m.params.t2_period(),
                options,
                &mut ws,
                &SolveBudget::unlimited(),
            )
            .expect("40x30 solve");
            assert_eq!(sol.stats.strategy, MpdeStrategy::Newton);
            let baseband: Vec<f64> = sol
                .solution
                .envelope(m.out_p)
                .iter()
                .zip(sol.solution.envelope(m.out_n))
                .map(|(p, n)| p - n)
                .collect();
            (baseband, sol.stats.newton_iterations, ws.stats)
        };
        let (krylov, krylov_iters, ks) = solve(MpdeOptions::default());
        let (direct, _, ds) = solve(MpdeOptions {
            newton: NewtonOptions {
                linear: LinearSolver::Direct,
                ..MpdeOptions::default().newton
            },
            ..Default::default()
        });

        assert!(ks.iterative_solves > 0, "{pattern}: {ks:?}");
        assert_eq!(ks.full_factorizations, 0, "{pattern}: {ks:?}");
        assert_eq!(ks.direct_fallbacks, 0, "{pattern}: {ks:?}");
        assert_eq!(ds.iterative_solves, 0, "{pattern}: {ds:?}");
        // Counts, so they hold on any host (measured: 8 Newton
        // iterations, about 8.7 matvecs per Krylov solve).
        assert!(krylov_iters <= 10, "{pattern}: {krylov_iters} iterations");
        let matvecs_per_solve = ks.krylov_matvecs as f64 / ks.iterative_solves as f64;
        assert!(
            matvecs_per_solve <= 20.0,
            "{pattern}: {matvecs_per_solve} matvecs per Krylov solve"
        );
        let worst = krylov
            .iter()
            .zip(&direct)
            .map(|(k, d)| (k - d).abs())
            .fold(0.0f64, f64::max);
        assert!(
            worst < 1e-6,
            "{pattern}: Krylov vs direct baseband differ by {worst} V"
        );
    }
}
