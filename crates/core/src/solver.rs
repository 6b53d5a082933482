//! High-level MPDE solve: initial guess → global Newton → continuation.
//!
//! Mirrors the paper's workflow: with a good starting guess, global
//! Newton-Raphson on the 40×30 grid converged in 26 iterations; when it did
//! not converge, continuation reliably obtained solutions. Here the
//! "good starting guess" can be the replicated DC operating point or a few
//! envelope-following sweeps.

use rfsim_circuit::driver::{fall_back, NewtonProfile, RungKind};
use rfsim_circuit::newton::{
    newton_solve_budgeted, LinearSolverWorkspace, NewtonOptions, NewtonSystem,
};
use rfsim_circuit::{Circuit, Result};
use rfsim_numerics::diff::DiffScheme;
use rfsim_numerics::SolveBudget;

use crate::continuation::continuation_solve_rung;
use crate::envelope::{envelope_follow_budgeted, EnvelopeOptions};
use crate::fdtd::MpdeSystem;
use crate::grid::{MultitimeGrid, MultitimeSolution};

/// How the Newton iteration is seeded.
#[derive(Debug, Clone)]
pub enum InitialGuess {
    /// Replicate the DC operating point across the grid (cheapest).
    DcReplicate,
    /// Run envelope-following sweeps first (most robust seed).
    EnvelopeFollowing {
        /// Number of slow-period sweeps.
        sweeps: usize,
    },
    /// Caller-provided flattened samples (e.g. a previous solution on the
    /// same grid, for warm-started parameter sweeps).
    Samples(Vec<f64>),
}

/// Options for [`solve_mpde`].
#[derive(Debug, Clone)]
pub struct MpdeOptions {
    /// Fast-axis grid points (paper: 40).
    pub n1: usize,
    /// Slow-axis grid points (paper: 30).
    pub n2: usize,
    /// Fast-axis differentiation scheme.
    pub scheme1: DiffScheme,
    /// Slow-axis differentiation scheme.
    pub scheme2: DiffScheme,
    /// Newton options for the global solve.
    pub newton: NewtonOptions,
    /// Initial guess strategy.
    pub initial_guess: InitialGuess,
    /// Fall back to source-ramping continuation if plain Newton fails.
    pub continuation_fallback: bool,
}

impl Default for MpdeOptions {
    fn default() -> Self {
        MpdeOptions {
            n1: 40,
            n2: 30,
            scheme1: DiffScheme::BackwardEuler,
            scheme2: DiffScheme::BackwardEuler,
            // The Grid profile: GMRES + block-Jacobi on large
            // grids, direct LU with chord reuse below.
            newton: NewtonProfile::Grid.options(),
            initial_guess: InitialGuess::DcReplicate,
            continuation_fallback: true,
        }
    }
}

/// Which strategy produced the solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpdeStrategy {
    /// Plain Newton from the initial guess.
    Newton,
    /// Source-ramping continuation.
    Continuation,
}

/// Statistics of an MPDE solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpdeStats {
    /// Newton iterations of the final (or only) solve.
    pub newton_iterations: usize,
    /// Total Newton iterations including continuation inner solves.
    pub total_newton_iterations: usize,
    /// Continuation steps taken (0 for plain Newton).
    pub continuation_steps: usize,
    /// Strategy that succeeded.
    pub strategy: MpdeStrategy,
    /// Total grid unknowns (`n·N1·N2`).
    pub system_size: usize,
}

/// An MPDE solution with its statistics.
#[derive(Debug, Clone)]
pub struct MpdeSolution {
    /// The multitime grid (exposed for plotting/reconstruction).
    pub grid: MultitimeGrid,
    /// The solution data.
    pub solution: MultitimeSolution,
    /// Solve statistics.
    pub stats: MpdeStats,
}

/// Solves the sheared MPDE of a circuit over `[0, t1_period) ×
/// [0, t2_period)`.
///
/// `t1_period` is the LO period `1/f1` and `t2_period` the difference
/// period `Td = 1/fd`; the shearing itself is carried by the circuit's
/// bivariate sources (see [`rfsim_circuit::BiWaveform::ShearedCarrier`]).
///
/// # Errors
///
/// * Missing bivariate waveforms on time-varying sources.
/// * Convergence failure of both Newton and (if enabled) continuation.
pub fn solve_mpde(
    circuit: &Circuit,
    t1_period: f64,
    t2_period: f64,
    options: MpdeOptions,
) -> Result<MpdeSolution> {
    solve_mpde_budgeted(
        circuit,
        t1_period,
        t2_period,
        options,
        &mut LinearSolverWorkspace::new(),
        &SolveBudget::unlimited(),
    )
}

/// [`solve_mpde`] with caller-owned linear-solver state, under a
/// [`SolveBudget`].
///
/// The grid Jacobian's structure depends only on the circuit and the grid,
/// so warm-started parameter sweeps (same circuit, same `n1 × n2`) that
/// pass one workspace across calls pay for the RCM ordering, symbolic
/// reach and pivot search exactly once; the workspace is also shared with
/// the continuation fallback inside each call.
///
/// The budget covers the initial-guess construction (DC solve or envelope
/// sweeps), the global Newton solve and the continuation fallback. An
/// interrupted Newton attempt aborts the call instead of falling back to
/// continuation: cancellation is a control-plane stop, not a convergence
/// failure.
///
/// # Errors
///
/// [`rfsim_circuit::CircuitError::Interrupted`] when the budget stops a
/// solve, plus everything [`solve_mpde`] returns.
pub fn solve_mpde_budgeted(
    circuit: &Circuit,
    t1_period: f64,
    t2_period: f64,
    options: MpdeOptions,
    workspace: &mut LinearSolverWorkspace,
    budget: &SolveBudget,
) -> Result<MpdeSolution> {
    let grid = MultitimeGrid::new(options.n1, options.n2, t1_period, t2_period);
    let n = circuit.num_unknowns();
    let mut system = MpdeSystem::new(circuit, grid, options.scheme1, options.scheme2)?;
    let kinds = system.kinds().to_vec();
    let dim = system.dim();

    let x0: Vec<f64> = match &options.initial_guess {
        InitialGuess::DcReplicate => {
            let op = rfsim_circuit::dcop::dc_operating_point_budgeted(
                circuit,
                Default::default(),
                budget,
            )?;
            let mut v = Vec::with_capacity(grid.num_points() * n);
            for _ in 0..grid.num_points() {
                v.extend_from_slice(&op.solution);
            }
            v
        }
        InitialGuess::EnvelopeFollowing { sweeps } => {
            let env = envelope_follow_budgeted(
                circuit,
                grid,
                EnvelopeOptions {
                    scheme1: options.scheme1,
                    sweeps: *sweeps,
                    newton: options.newton,
                },
                budget,
            )?;
            env.data
        }
        InitialGuess::Samples(s) => s.clone(),
    };

    // The paper's two-rung ladder: global Newton from the seed, then
    // source-ramping continuation. `fall_back` classifies the failure:
    // interruptions and structural errors abort without falling back.
    let mut solved = newton_solve_budgeted(&system, &x0, &kinds, options.newton, workspace, budget)
        .map(|(data, stats)| {
            let stats = MpdeStats {
                newton_iterations: stats.iterations,
                total_newton_iterations: stats.iterations,
                continuation_steps: 0,
                strategy: MpdeStrategy::Newton,
                system_size: dim,
            };
            (data, stats)
        });
    if options.continuation_fallback {
        solved = fall_back(
            solved,
            RungKind::Continuation,
            workspace,
            budget,
            |ws, b| {
                let (data, cstats) = continuation_solve_rung(&mut system, &x0, ws, b)?;
                let stats = MpdeStats {
                    newton_iterations: 0,
                    total_newton_iterations: cstats.newton_iterations,
                    continuation_steps: cstats.accepted_steps,
                    strategy: MpdeStrategy::Continuation,
                    system_size: dim,
                };
                Ok((data, stats))
            },
        );
    }
    let (data, stats) = solved?;
    Ok(MpdeSolution {
        grid,
        solution: MultitimeSolution::new(grid, n, data),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim_circuit::{BiWaveform, CircuitBuilder, Envelope, Waveform, GROUND};
    use std::f64::consts::PI;

    fn rc_sheared(f1: f64, fd: f64, r: f64, c: f64) -> (Circuit, usize) {
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let out = b.node("out");
        b.vsource(
            "VRF",
            inp,
            GROUND,
            BiWaveform::ShearedCarrier {
                amplitude: 1.0,
                k: 1,
                f1,
                fd,
                phase: 0.0,
                envelope: Envelope::Unit,
            },
        )
        .expect("v");
        b.resistor("R1", inp, out, r).expect("r");
        b.capacitor("C1", out, GROUND, c).expect("c");
        let ckt = b.build().expect("build");
        let idx = ckt
            .unknown_index_of_node(ckt.node_by_name("out").expect("out"))
            .expect("idx");
        (ckt, idx)
    }

    #[test]
    fn linear_rc_matches_analytic_response_at_f2() {
        // The MPDE solution of a linear filter driven by the sheared carrier
        // cos(2π(f1·t1 − fd·t2)) is the response at the *diagonal* frequency
        // f2 = f1 − fd: amplitude |H(f2)|, phase ∠H(f2).
        let (f1, fd) = (1e6, 10e3);
        let (r, c) = (1e3, 160e-12); // pole ≈ 1 MHz
        let (ckt, out) = rc_sheared(f1, fd, r, c);
        let sol = solve_mpde(
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
        let f2 = f1 - fd;
        let w = 2.0 * PI * f2 * r * c;
        let mag = 1.0 / (1.0 + w * w).sqrt();
        // Fast-axis fundamental amplitude (incoherent average over t2 rows —
        // the sheared carrier's phase rotates with t2) should be |H(f2)|.
        let a = sol.solution.fast_harmonic_magnitude(out, 1);
        assert!(
            (a - mag).abs() < 0.02,
            "MPDE amplitude {a} vs analytic |H(f2)| = {mag}"
        );
        assert_eq!(sol.stats.strategy, MpdeStrategy::Newton);
    }

    #[test]
    fn ideal_multiplier_mixer_downconverts() {
        // LO on axis 1, RF sheared with k=1: the multiplier output contains
        // the difference tone cos(2π·fd·t2) visible directly on the t2 axis.
        let (f1, fd) = (1e6, 10e3);
        let mut b = CircuitBuilder::new();
        let lo = b.node("lo");
        let rf = b.node("rf");
        let out = b.node("out");
        b.vsource(
            "VLO",
            lo,
            GROUND,
            BiWaveform::Axis1(Waveform::cosine(1.0, f1)),
        )
        .expect("vlo");
        b.vsource(
            "VRF",
            rf,
            GROUND,
            BiWaveform::ShearedCarrier {
                amplitude: 1.0,
                k: 1,
                f1,
                fd,
                phase: 0.0,
                envelope: Envelope::Unit,
            },
        )
        .expect("vrf");
        b.multiplier("MIX", out, GROUND, lo, GROUND, rf, GROUND, 1e-3)
            .expect("mix");
        b.resistor("RL", out, GROUND, 1e3).expect("rl");
        let ckt = b.build().expect("build");
        let out_idx = ckt
            .unknown_index_of_node(ckt.node_by_name("out").expect("out"))
            .expect("idx");
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
        // v_out = −K·R·cos(2πf1t1)·cos(2π(f1t1−fd·t2))
        //       = −½KR[cos(2πfd·t2) + cos(2π(2f1t1 − fd·t2))].
        // The baseband envelope (t1-average) is −½KR·cos(2π·fd·t2) = −0.5·cos.
        let env = sol.solution.envelope(out_idx);
        let n2 = env.len();
        for (j, v) in env.iter().enumerate() {
            let expect = -0.5 * (2.0 * PI * j as f64 / n2 as f64).cos();
            assert!(
                (v - expect).abs() < 0.01,
                "envelope[{j}] = {v}, expect {expect}"
            );
        }
        // Conversion "gain" via the harmonic extractor: |env harmonic 1| = ½KR.
        let h1 = sol.solution.baseband_harmonic(out_idx, 1).abs();
        assert!((h1 - 0.5).abs() < 0.01, "baseband fundamental {h1}");
    }

    #[test]
    fn bit_envelope_appears_on_slow_axis() {
        // Modulated carrier through the multiplier: the bit pattern is
        // readable from the sign of the baseband envelope (the paper's
        // "time-domain shape of the bit-stream", Fig. 4).
        let (f1, fd) = (1e6, 10e3);
        let bits = vec![true, false, true, true];
        let mut b = CircuitBuilder::new();
        let lo = b.node("lo");
        let rf = b.node("rf");
        let out = b.node("out");
        b.vsource(
            "VLO",
            lo,
            GROUND,
            BiWaveform::Axis1(Waveform::cosine(1.0, f1)),
        )
        .expect("vlo");
        b.vsource(
            "VRF",
            rf,
            GROUND,
            BiWaveform::ShearedCarrier {
                amplitude: 1.0,
                k: 1,
                f1,
                fd,
                phase: 0.0,
                envelope: Envelope::bits(bits.clone(), 0.05),
            },
        )
        .expect("vrf");
        b.multiplier("MIX", out, GROUND, lo, GROUND, rf, GROUND, 1e-3)
            .expect("mix");
        b.resistor("RL", out, GROUND, 1e3).expect("rl");
        let ckt = b.build().expect("build");
        let out_idx = ckt
            .unknown_index_of_node(ckt.node_by_name("out").expect("out"))
            .expect("idx");
        let sol = solve_mpde(
            &ckt,
            1.0 / f1,
            1.0 / fd,
            MpdeOptions {
                n1: 32,
                n2: 40,
                scheme1: DiffScheme::Central2,
                scheme2: DiffScheme::BackwardEuler,
                ..Default::default()
            },
        )
        .expect("mpde");
        let env = sol.solution.envelope(out_idx);
        // Mixing with cos·cos gives envelope −½·m(fd·t2)·cos(2π·fd·t2)…
        // No: carrier-phase product means env_j = −½·m_j·cos(2π·j/n2).
        // Check sign pattern at bit centres where cos ≠ 0 is messy; instead
        // demodulate: divide by −½cos(2πj/n2) where |cos| > 0.3.
        let n2 = env.len();
        let mut ok = 0;
        let mut checked = 0;
        for j in 0..n2 {
            let phase = 2.0 * PI * j as f64 / n2 as f64;
            let c = phase.cos();
            if c.abs() < 0.3 {
                continue;
            }
            let m = env[j] / (-0.5 * c);
            let bit_idx = (j * bits.len()) / n2;
            // Skip transition regions.
            let pos_in_bit = (j * bits.len()) as f64 / n2 as f64 - bit_idx as f64;
            if pos_in_bit < 0.15 {
                continue;
            }
            let expect = if bits[bit_idx] { 1.0 } else { -1.0 };
            checked += 1;
            if (m - expect).abs() < 0.2 {
                ok += 1;
            }
        }
        assert!(checked >= 10, "enough demodulation points: {checked}");
        assert!(
            ok as f64 >= 0.9 * checked as f64,
            "bit pattern recovered at {ok}/{checked} points"
        );
    }

    #[test]
    fn diagonal_reconstruction_matches_long_transient() {
        // Small disparity so a full transient to steady state is cheap.
        let (f1, fd) = (1e5, 1e4); // disparity 10
        let (r, c) = (1e3, 1.6e-9); // pole ≈ 100 kHz
        let (ckt, out) = rc_sheared(f1, fd, r, c);
        let sol = solve_mpde(
            &ckt,
            1.0 / f1,
            1.0 / fd,
            MpdeOptions {
                n1: 64,
                n2: 64,
                scheme1: DiffScheme::Central2,
                scheme2: DiffScheme::Central2,
                ..Default::default()
            },
        )
        .expect("mpde");
        // Transient for 5 slow periods; compare the last one.
        let res = rfsim_circuit::transient::transient(
            &ckt,
            rfsim_circuit::transient::TransientOptions {
                t_stop: 5.0 / fd,
                dt_init: 0.02 / f1,
                dt_max: 0.05 / f1,
                integrator: rfsim_circuit::transient::Integrator::Trapezoidal,
                ..Default::default()
            },
        )
        .expect("transient");
        let t0 = 4.0 / fd;
        let pts = sol
            .solution
            .reconstruct_diagonal(out, t0, t0 + 1.0 / fd, 200);
        let mut worst = 0.0f64;
        for &(t, v) in &pts {
            let tr = res.sample(out, t);
            worst = worst.max((v - tr).abs());
        }
        assert!(
            worst < 0.05,
            "diagonal reconstruction vs transient: worst {worst}"
        );
    }

    #[test]
    fn warm_start_from_previous_solution() {
        let (f1, fd) = (1e6, 10e3);
        let (ckt, _) = rc_sheared(f1, fd, 1e3, 160e-12);
        let base = MpdeOptions {
            n1: 16,
            n2: 8,
            ..Default::default()
        };
        let first = solve_mpde(&ckt, 1.0 / f1, 1.0 / fd, base.clone()).expect("cold");
        let warm = solve_mpde(
            &ckt,
            1.0 / f1,
            1.0 / fd,
            MpdeOptions {
                initial_guess: InitialGuess::Samples(first.solution.data.clone()),
                ..base
            },
        )
        .expect("warm");
        assert!(
            warm.stats.newton_iterations <= 2,
            "warm start converges immediately: {}",
            warm.stats.newton_iterations
        );
    }

    #[test]
    fn gmres_block_jacobi_matches_direct() {
        // The paper's "iterative linear solution methods": GMRES with a
        // per-grid-point block-Jacobi preconditioner must reproduce the
        // direct-LU solution.
        let (f1, fd) = (1e6, 10e3);
        let (ckt, out) = rc_sheared(f1, fd, 1e3, 160e-12);
        let n = ckt.num_unknowns();
        let base = MpdeOptions {
            n1: 16,
            n2: 8,
            ..Default::default()
        };
        let direct = solve_mpde(&ckt, 1.0 / f1, 1.0 / fd, base.clone()).expect("direct");
        let gmres = solve_mpde(
            &ckt,
            1.0 / f1,
            1.0 / fd,
            MpdeOptions {
                newton: rfsim_circuit::newton::NewtonOptions {
                    linear: rfsim_circuit::newton::LinearSolver::GmresBlockJacobi {
                        block_size: n,
                        rtol: 1e-10,
                        restart: 60,
                        max_iters: 4000,
                    },
                    ..Default::default()
                },
                ..base
            },
        )
        .expect("gmres");
        let d = rfsim_numerics::vector::norm_inf(&rfsim_numerics::vector::sub(
            &direct.solution.surface(out),
            &gmres.solution.surface(out),
        ));
        assert!(d < 1e-5, "direct vs GMRES surfaces differ by {d}");
    }

    #[test]
    fn envelope_following_guess_works() {
        let (f1, fd) = (1e6, 10e3);
        let (ckt, out) = rc_sheared(f1, fd, 1e3, 160e-12);
        let sol = solve_mpde(
            &ckt,
            1.0 / f1,
            1.0 / fd,
            MpdeOptions {
                n1: 16,
                n2: 8,
                initial_guess: InitialGuess::EnvelopeFollowing { sweeps: 1 },
                ..Default::default()
            },
        )
        .expect("mpde");
        let peak = sol
            .solution
            .surface(out)
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(peak > 0.3 && peak <= 1.0, "plausible output: {peak}");
    }

    /// A circuit's DC Newton system `f(x) + b(0) = 0`, from public parts:
    /// it has no compiled Jacobian, so it takes the triplet route.
    struct DcSystem<'a> {
        circuit: &'a Circuit,
        b: Vec<f64>,
    }

    impl NewtonSystem for DcSystem<'_> {
        fn dim(&self) -> usize {
            self.circuit.num_unknowns()
        }

        fn residual(&self, x: &[f64], out: &mut [f64]) {
            self.circuit.eval_f(x, out, None);
            for (o, b) in out.iter_mut().zip(&self.b) {
                *o += b;
            }
        }

        fn residual_and_jacobian(
            &self,
            x: &[f64],
            out: &mut [f64],
            jac: &mut rfsim_numerics::sparse::Triplets,
        ) {
            self.circuit.eval_f(x, out, Some(jac));
            for (o, b) in out.iter_mut().zip(&self.b) {
                *o += b;
            }
        }
    }

    #[test]
    fn one_workspace_switches_routes_bit_for_bit() {
        // Compiled direct LU (16×8), the triplet route (a DC operating
        // point), compiled Krylov (40×30), then 16×8 again, all on one
        // workspace: each answer equals a fresh workspace's bit for bit,
        // and each pattern change rebuilds exactly once.
        let mixer = rfsim_circuits::BalancedMixer::build(rfsim_circuits::BalancedMixerParams {
            rf_bits: vec![true, false, true, true],
            ..Default::default()
        })
        .expect("mixer");
        let circuit = &mixer.circuit;
        let (t1, t2) = (mixer.params.t1_period(), mixer.params.t2_period());
        let mut b = vec![0.0; circuit.num_unknowns()];
        circuit.eval_b(0.0, &mut b);
        let dc = DcSystem { circuit, b };
        let op = rfsim_circuit::dcop::dc_operating_point(circuit, Default::default())
            .expect("dc")
            .solution;
        let dc_x0: Vec<f64> = op.iter().map(|v| 0.9 * v).collect();
        let unlimited = SolveBudget::unlimited();
        let solve = |step: usize, ws: &mut LinearSolverWorkspace| -> Vec<f64> {
            let (n1, n2) = match step {
                1 => {
                    let kinds = circuit.unknown_kinds();
                    let options = NewtonOptions::default();
                    return newton_solve_budgeted(&dc, &dc_x0, kinds, options, ws, &unlimited)
                        .expect("dc newton")
                        .0;
                }
                2 => (40, 30),
                _ => (16, 8),
            };
            let options = MpdeOptions {
                n1,
                n2,
                ..Default::default()
            };
            solve_mpde_budgeted(circuit, t1, t2, options, ws, &unlimited)
                .expect("mpde")
                .solution
                .data
        };
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut shared = LinearSolverWorkspace::new();
        for step in 0..4 {
            let before = shared.stats;
            let got = solve(step, &mut shared);
            let mut fresh = LinearSolverWorkspace::new();
            let expected = solve(step, &mut fresh);
            assert_eq!(bits(&got), bits(&expected), "step {step}");
            // The shared workspace did exactly a fresh one's work: one
            // pattern rebuild, the same factors, refreshes and solves.
            assert_eq!(fresh.stats.pattern_rebuilds, 1, "step {step}");
            let mut sum = before;
            sum.absorb(&fresh.stats);
            assert_eq!(shared.stats, sum, "step {step}");
            let krylov = fresh.stats.iterative_solves > 0;
            assert_eq!(krylov, step == 2, "step {step}: only 40x30 runs GMRES");
        }
        assert_eq!(shared.stats.direct_fallbacks, 0, "{:?}", shared.stats);
    }
}
