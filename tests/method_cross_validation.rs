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
use rfsim::numerics::fft::harmonic_amplitude;
use rfsim::numerics::SolveBudget;
use rfsim::rf::bits::decode_bpsk_envelope;
use rfsim::rf::measure::differential_baseband_harmonic;
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
    // The engine's contract: a batch is exactly a set of per-job
    // `amplitude_sweep` runs — same workspace state sequence, same
    // warm-start chain, bit-identical solutions — just grouped by
    // topology and run on the worker pool. That holds for jobs sharing a
    // topology too: each solves on workspaces of its own.
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

    // rc-fast and rc-slow share one topology, so they form one group.
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
    for (job_idx, seq) in sequential.iter().enumerate() {
        let b = batch[job_idx].as_ref().expect("batch job");
        assert_eq!(b.len(), seq.len());
        for (bp, sp) in b.iter().zip(seq) {
            assert_eq!(
                bp.solution.solution.data, sp.solution.solution.data,
                "job {job_idx}: batched and sequential solutions must be bit-identical"
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
    let h_shoot = harmonic_amplitude(&slow[..50], 1);
    assert!(
        (h_mpde - h_shoot).abs() < 0.05 * h_mpde.max(h_shoot),
        "MPDE baseband {h_mpde} vs shooting baseband {h_shoot}"
    );
}

#[test]
fn speedup_anchor_methods_agree_on_the_baseband_fundamental() {
    // `speedup_table` times the MPDE against shooting on this mixer, so
    // both must give the same answer. Its first row, with its settings:
    // disparity 50, no bits, the default 40×30 MPDE and shooting at 10
    // steps per LO period. Measured: 0.1322 V vs 0.1373 V, 3.8% apart.
    let m = BalancedMixer::build(BalancedMixerParams {
        f_lo: 10e6,
        fd: 10e6 / 50.0,
        rf_bits: vec![],
        ..Default::default()
    })
    .expect("mixer builds");
    let sol = solve_mpde(
        &m.circuit,
        m.params.t1_period(),
        m.params.t2_period(),
        MpdeOptions::default(),
    )
    .expect("mpde");
    let h_mpde = differential_baseband_harmonic(&sol.solution, m.out_p, Some(m.out_n), 1);

    let per_lo = 10;
    let steps = rfsim::shooting::difference_period_steps(m.params.f_lo, m.params.fd, per_lo);
    let shot = shooting_pss(
        &m.circuit,
        m.params.t2_period(),
        None,
        ShootingOptions {
            steps_per_period: steps,
            max_outer: 10,
            ..Default::default()
        },
    )
    .expect("shooting");
    // v(out_p) − v(out_n) averaged over each LO period: one baseband
    // sample per LO period across the difference period.
    let (p, n) = (shot.signal(m.out_p), shot.signal(m.out_n));
    let slow: Vec<f64> = p[..steps]
        .chunks(per_lo)
        .zip(n[..steps].chunks(per_lo))
        .map(|(cp, cn)| cp.iter().zip(cn).map(|(a, b)| a - b).sum::<f64>() / per_lo as f64)
        .collect();
    let h_shoot = harmonic_amplitude(&slow, 1);
    assert!(
        (h_mpde - h_shoot).abs() < 0.05 * h_mpde.max(h_shoot),
        "MPDE baseband {h_mpde} V vs shooting baseband {h_shoot} V"
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
    // the measured patterns. Both patterns also decode to the sent bits,
    // as Fig. 4 does (`0101` and `1010` are known decode failures).
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

        let sent: Vec<bool> = pattern.chars().map(|c| c == '1').collect();
        let decoded = decode_bpsk_envelope(&krylov, sent.len());
        let inverted: Vec<bool> = decoded.iter().map(|b| !b).collect();
        assert!(
            decoded == sent || inverted == sent,
            "{pattern}: decoded {decoded:?} (up to BPSK polarity)"
        );
    }
}
