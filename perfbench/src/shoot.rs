//! `shooting_baseline`: the paper's comparison method.
//!
//! The balanced mixer at a 10 MHz LO and disparity 1000 (fd = 10 kHz),
//! solved by `shooting_pss` over one difference period at 10 steps per LO
//! period (10 000 steps) with at most 10 outer iterations. It runs the
//! same Newton and sparse-LU code as `fig4_mixer`, but tens of thousands
//! of times on a 15-unknown matrix, so a grid-LU change should leave it
//! flat while any per-call overhead shows.

use std::time::Instant;

use rfsim_circuit::dcop::{dc_operating_point, DcOptions};
use rfsim_circuits::BalancedMixer;
use rfsim_numerics::sparse::Triplets;
use rfsim_numerics::vector::wrms_ratio;
use rfsim_shooting::{difference_period_steps, shooting_pss, ShootingOptions, ShootingResult};

use crate::measure::{mean, median, ms, Tally};
use crate::mixer::{bits_label, build_cases, mixer, parse_reference, run_solver, Case, Cycle};
use crate::replay::{device_eval_ms, replay_lu};
use crate::report::{Metrics, Report};
use crate::trace::Tracer;
use crate::{bits_equal, RunConfig};

/// LO frequency of the scaled mixer (Hz).
pub const F_LO: f64 = 10e6;
/// Frequency disparity `f_LO / fd`.
pub const DISPARITY: f64 = 1000.0;
/// Backward-Euler steps per LO period (the paper's accounting).
pub const STEPS_PER_LO: usize = 10;
/// Steps between stored samples of the orbit: ten LO periods, so every
/// sample sits at the same LO phase.
pub const SAMPLE_STEPS: usize = 100;

/// The stored orbits: one line per pattern, `out_p − out_n` (V) every
/// [`SAMPLE_STEPS`] steps over the difference period.
pub const REFERENCE: &str = include_str!("../reference/shooting_orbits.txt");

/// Largest accepted deviation (V) of a sample of the orbit from its stored
/// reference. It is fixed here, not read from the solver's options. At the
/// commit that added the benchmark the default orbit lies within 0.4 µV of
/// one converged to a relative tolerance of 1e-6, so a change that only
/// reorders rounding passes with a wide margin; a looser Newton tolerance
/// (any `reltol` from 1e-2 to 0.3) moves it by 1.2 mV, and another pattern
/// by 0.85 V, and both fail.
pub const ORBIT_TOL_V: f64 = 5e-4;
/// Relative and absolute (V) tolerance of the periodicity check
/// x(T) ≈ x(0), also fixed here.
pub const PERIOD_TOL: (f64, f64) = (1e-3, 1e-6);

/// The shooting options of every solve.
pub fn options() -> ShootingOptions {
    ShootingOptions {
        steps_per_period: difference_period_steps(F_LO, F_LO / DISPARITY, STEPS_PER_LO),
        max_outer: 10,
        ..Default::default()
    }
}

/// The set-up: one scaled mixer per stored orbit.
fn build_shooting_cases(patterns: &[crate::mixer::Pattern]) -> Result<Vec<Case>, String> {
    build_cases(patterns, F_LO, F_LO / DISPARITY)
}

/// `out_p − out_n` (V) every [`SAMPLE_STEPS`] steps of the final period.
pub fn orbit(m: &BalancedMixer, result: &ShootingResult) -> Vec<f64> {
    (0..result.times.len())
        .step_by(SAMPLE_STEPS)
        .map(|k| result.state(k)[m.out_p] - result.state(k)[m.out_n])
        .collect()
}

/// Whether the converged trajectory is periodic: x(T) ≈ x(0) within
/// [`PERIOD_TOL`].
pub fn periodic(result: &ShootingResult) -> bool {
    let x0 = &result.initial_state;
    let x_t = result.state(result.times.len() - 1);
    let r: Vec<f64> = x_t.iter().zip(x0).map(|(a, b)| a - b).collect();
    r.iter().all(|v| v.is_finite()) && wrms_ratio(&r, x0, PERIOD_TOL.0, PERIOD_TOL.1) <= 1.0
}

/// Whether every sample of `orbit` lies within [`ORBIT_TOL_V`] of
/// `reference`.
pub fn orbit_matches(orbit: &[f64], reference: &[f64]) -> bool {
    orbit.len() == reference.len()
        && orbit
            .iter()
            .zip(reference)
            .all(|(v, r)| (v - r).abs() <= ORBIT_TOL_V)
}

/// The output check: the trajectory is periodic and its orbit matches the
/// stored one. `corrupt` moves one orbit sample by 1 V first.
pub fn orbit_ok(case: &Case, result: &ShootingResult, corrupt: bool) -> bool {
    let mut samples = orbit(&case.mixer, result);
    if corrupt {
        samples[0] += 1.0;
    }
    periodic(result) && orbit_matches(&samples, &case.reference)
}

/// One `shooting_pss` call: wall time (ms), result, check.
fn solve(case: &Case, corrupt: bool) -> (f64, Option<ShootingResult>, bool) {
    let m = &case.mixer;
    let t0 = Instant::now();
    let solved = shooting_pss(&m.circuit, m.params.t2_period(), None, options());
    let elapsed = ms(t0.elapsed());
    match solved {
        Ok(result) => {
            let ok = orbit_ok(case, &result, corrupt);
            (elapsed, Some(result), ok)
        }
        Err(_) => (elapsed, None, false),
    }
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// Set-up failures.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let patterns = parse_reference(REFERENCE)?;
    run_solver(
        cfg,
        || build_shooting_cases(&patterns),
        |case| {
            let (elapsed, _, ok) = solve(case, cfg.corrupt);
            (elapsed, ok)
        },
    )
}

/// The backward-Euler step Jacobian `G + C/h` at `x`, stamped from the
/// public `eval_q`/`eval_f`, and `−f(x)` as a right-hand side.
fn step_jacobian(m: &BalancedMixer, x: &[f64], h: f64) -> (Triplets, Vec<f64>) {
    let n = m.circuit.num_unknowns();
    let (mut q, mut f) = (vec![0.0; n], vec![0.0; n]);
    let mut c = Triplets::with_capacity(n, n, 8 * n);
    let mut jac = Triplets::with_capacity(n, n, 16 * n);
    m.circuit.eval_q(x, &mut q, Some(&mut c));
    m.circuit.eval_f(x, &mut f, Some(&mut jac));
    let c = c.to_csr();
    for r in 0..n {
        let (cols, vals) = c.row(r);
        for (col, v) in cols.iter().zip(vals) {
            jac.push(r, *col, v / h);
        }
    }
    (jac, f.iter().map(|v| -v).collect())
}

/// The traced run: each op solves one pattern twice, plainly and split
/// into a `dcop.seed` span and a `shooting.pss` span seeded with that
/// operating point, and requires bit-identical trajectories. Counts come
/// from `ShootingResult`; per-call LU costs from replaying the step
/// Jacobian at the periodic state.
///
/// # Errors
///
/// Set-up or replay failures.
pub fn run_traced(cfg: &RunConfig) -> Result<(Report, Tracer), String> {
    let cases = build_shooting_cases(&parse_reference(REFERENCE)?)?;
    let mut cycle = Cycle::new(cfg.seed, cases.len());
    let mut tally = Tally::default();
    let started = Instant::now();
    let mut tracer = Tracer::new(started);
    let (mut plain_ms, mut traced_ms, mut dcop_ms, mut step_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut outer, mut inner) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut op = 0;
    while started.elapsed() < cfg.duration() {
        op += 1;
        let case = &cases[cycle.next_index()];
        let m = &case.mixer;
        let (plain, result, plain_ok) = solve(case, cfg.corrupt);
        let t0 = Instant::now();
        let root = tracer.open("shooting.solve", None, op);
        let dc_span = tracer.open("dcop.seed", Some(root), op);
        let dc = dc_operating_point(&m.circuit, DcOptions::default());
        tracer.close(dc_span);
        let pss_span = tracer.open("shooting.pss", Some(root), op);
        let traced = dc.ok().and_then(|dc| {
            shooting_pss(
                &m.circuit,
                m.params.t2_period(),
                Some(&dc.solution),
                options(),
            )
            .ok()
        });
        tracer.close(pss_span);
        tracer.close(root);
        let elapsed = ms(t0.elapsed());
        let identical = match (&traced, &result) {
            (Some(t), Some(r)) => bits_equal(&t.states, &r.states),
            _ => false,
        };
        if tally.record(plain_ok && identical) {
            let t = traced.expect("identical implies solved");
            plain_ms.push(plain);
            traced_ms.push(elapsed);
            dcop_ms.push(tracer.spans()[dc_span].ms());
            step_us.push(tracer.spans()[pss_span].ms() * 1e3 / t.total_steps as f64);
            outer.push(t.outer_iterations as f64);
            inner.push(t.inner_newton_iterations as f64);
            last = Some((m, t.initial_state));
        }
    }
    let mut metrics = Metrics::per_layer();
    if let Some((m, x)) = last {
        let h = m.params.t2_period() / options().steps_per_period as f64;
        let (jac, rhs) = step_jacobian(m, &x, h);
        let costs = replay_lu(&jac, &rhs, &mut tracer, op + 1).map_err(|e| e.to_string())?;
        metrics.set("lu.factor_ms", costs.factor_ms);
        metrics.set("lu.refactor_ms", costs.refactor_ms);
        metrics.set("lu.solve_ms", costs.solve_ms);
        metrics.set("lu.fill_ratio", costs.fill_ratio);
        metrics.set("sparse.scatter_ms", costs.scatter_ms);
        metrics.set(
            "circuit.device_eval_ms",
            device_eval_ms(&m.circuit, &x, &mut tracer, op + 1),
        );
        metrics.set("newton.iters", mean(&inner));
        metrics.set("dcop.seed_ms", median(&dcop_ms));
        metrics.set("shooting.outer_iters", mean(&outer));
        metrics.set("shooting.inner_iters", mean(&inner));
        metrics.set("shooting.step_us", median(&step_us));
        metrics.set(
            "trace.overhead_frac",
            median(&traced_ms) / median(&plain_ms) - 1.0,
        );
    }
    Ok((Report { tally, metrics }, tracer))
}

/// Solves every `fig4_mixer` pattern's scaled mixer and writes the stored
/// orbits: one line per pattern whose trajectory is periodic.
///
/// # Errors
///
/// Build or solve failures, or an unwritable path.
pub fn write_reference(path: &std::path::Path) -> Result<(), String> {
    let mut out = format!(
        "# shooting_baseline reference: <bits> then out_p - out_n (V) every {SAMPLE_STEPS}\n\
         # steps of shooting_pss's periodic trajectory ({F_LO} Hz LO, disparity {DISPARITY}).\n"
    );
    for (bits, _) in parse_reference(crate::mixer::REFERENCE)? {
        let m = mixer(&bits, F_LO, F_LO / DISPARITY)?;
        let result = shooting_pss(&m.circuit, m.params.t2_period(), None, options())
            .map_err(|e| format!("{}: {e}", bits_label(&bits)))?;
        if !periodic(&result) {
            return Err(format!("{}: trajectory is not periodic", bits_label(&bits)));
        }
        let values: Vec<String> = orbit(&m, &result)
            .iter()
            .map(|v| format!("{v:?}"))
            .collect();
        out.push_str(&format!("{} {}\n", bits_label(&bits), values.join(" ")));
    }
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_check_rejects_a_perturbed_end_state() {
        let state = vec![1.0, 2.5, 0.0];
        let mut result = ShootingResult {
            initial_state: state.clone(),
            times: vec![0.0, 0.5, 1.0],
            states: [state.clone(), vec![0.7, 2.0, 0.1], state].concat(),
            num_unknowns: 3,
            outer_iterations: 2,
            inner_newton_iterations: 4,
            total_steps: 4,
        };
        assert!(periodic(&result));
        result.states[6] += 0.01;
        assert!(!periodic(&result));
    }

    #[test]
    fn reference_holds_every_fig4_pattern() {
        let orbits = parse_reference(REFERENCE).expect("reference parses");
        let fig4 = parse_reference(crate::mixer::REFERENCE).expect("fig4 reference parses");
        let bits =
            |p: &[crate::mixer::Pattern]| p.iter().map(|(b, _)| b.clone()).collect::<Vec<_>>();
        assert_eq!(bits(&orbits), bits(&fig4));
        let steps = options().steps_per_period;
        for (_, samples) in &orbits {
            assert_eq!(samples.len(), steps / SAMPLE_STEPS + 1);
        }
    }

    #[test]
    fn orbit_check_rejects_a_wrong_orbit() {
        let orbits = parse_reference(REFERENCE).expect("reference parses");
        let (_, own) = &orbits[0];
        assert!(orbit_matches(own, own));
        let rounded: Vec<f64> = own.iter().map(|v| v + 0.5 * ORBIT_TOL_V).collect();
        assert!(orbit_matches(&rounded, own), "within the tolerance");
        let loose: Vec<f64> = own.iter().map(|v| v + 2.4 * ORBIT_TOL_V).collect();
        assert!(
            !orbit_matches(&loose, own),
            "a looser Newton tolerance's 1.2 mV"
        );
        for (_, other) in &orbits[1..] {
            assert!(!orbit_matches(other, own), "another pattern's orbit");
        }
        assert!(!orbit_matches(&own[1..], own), "a different length");
    }
}
