//! `fig4_mixer`: the paper's §3 experiment, run the way `fig4` runs it.
//!
//! The 450 MHz / 15 kHz balanced mixer carrying a 4-bit BPSK pattern,
//! solved by `solve_mpde` with default options on the 40×30 grid (18 000
//! unknowns). Solves run one after another, each on a cold workspace, as
//! every `rfsim run` or `fig4` invocation pays for one.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use rfsim_circuits::{BalancedMixer, BalancedMixerParams};
use rfsim_mpde::solver::{solve_mpde, MpdeOptions, MpdeStrategy};
use rfsim_rf::bits::decode_bpsk_envelope;

use crate::measure::{mean, median, ms, peak_rss_mb, Rng, SetupClock, Tally};
use crate::replay::{fill_solver_layers, traced_mpde_solve};
use crate::report::{Metrics, Report};
use crate::trace::Tracer;
use crate::{bits_equal, RunConfig};

/// The stored baseband envelopes, one line per pattern.
pub const REFERENCE: &str = include_str!("../reference/fig4_envelopes.txt");

/// Largest accepted deviation (V) of the baseband envelope from its
/// stored reference. Newton accepts an update within 1e-3 relative +
/// 1 µV absolute, about 2.5 mV on each ~2.5 V output node, so up to 5 mV
/// on their difference: a change that only reorders rounding stays well
/// inside 10 mV, while a wrong bit moves the envelope by ~0.25 V.
pub const ENVELOPE_TOL_V: f64 = 1e-2;

/// Set-ups timed before each op of a solver workload, so that a run's
/// set-ups spread over the whole run.
pub const SETUP_REPS: usize = 5;

/// One pattern's mixer and reference envelope.
#[derive(Debug)]
pub struct Case {
    /// The transmitted bits.
    pub bits: Vec<bool>,
    /// The mixer modulated by `bits`.
    pub mixer: BalancedMixer,
    /// The stored baseband envelope.
    pub reference: Vec<f64>,
}

/// One stored pattern: its bits and its baseband envelope.
pub type Pattern = (Vec<bool>, Vec<f64>);

/// Parses the reference file: `# comments`, then `<bits> <v0> <v1> …`.
///
/// # Errors
///
/// A malformed line.
pub fn parse_reference(text: &str) -> Result<Vec<Pattern>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let mut fields = line.split_whitespace();
            let bits = fields
                .next()
                .ok_or("empty reference line")?
                .chars()
                .map(|c| match c {
                    '0' => Ok(false),
                    '1' => Ok(true),
                    _ => Err(format!("bad bit '{c}' in reference line")),
                })
                .collect::<Result<Vec<bool>, String>>()?;
            let values = fields
                .map(|v| {
                    v.parse::<f64>()
                        .map_err(|e| format!("bad reference value {v}: {e}"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            Ok((bits, values))
        })
        .collect()
}

/// Formats a pattern as `1011`.
pub fn bits_label(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// The paper's mixer carrying `bits` at LO `f_lo` and spacing `fd`.
///
/// # Errors
///
/// Mixer build failures.
pub fn mixer(bits: &[bool], f_lo: f64, fd: f64) -> Result<BalancedMixer, String> {
    BalancedMixer::build(BalancedMixerParams {
        f_lo,
        fd,
        rf_bits: bits.to_vec(),
        ..Default::default()
    })
    .map_err(|e| format!("mixer build: {e}"))
}

/// The set-up of a solver workload: one mixer at LO `f_lo` and spacing
/// `fd` per stored pattern. The patterns are parsed beforehand, so only
/// the circuit builds are timed.
///
/// # Errors
///
/// Mixer build failures.
pub fn build_cases(patterns: &[Pattern], f_lo: f64, fd: f64) -> Result<Vec<Case>, String> {
    patterns
        .iter()
        .map(|(bits, reference)| {
            Ok(Case {
                mixer: mixer(bits, f_lo, fd)?,
                bits: bits.clone(),
                reference: reference.clone(),
            })
        })
        .collect()
}

/// The paper-scale cases of `fig4_mixer`.
fn build_fig4_cases(patterns: &[Pattern]) -> Result<Vec<Case>, String> {
    let defaults = BalancedMixerParams::default();
    build_cases(patterns, defaults.f_lo, defaults.fd)
}

/// The differential baseband envelope `out_p − out_n` of a grid solution.
pub fn baseband(mixer: &BalancedMixer, data: &[f64]) -> Vec<f64> {
    let sol = rfsim_mpde::MultitimeSolution::new(
        rfsim_mpde::MultitimeGrid::new(
            MpdeOptions::default().n1,
            MpdeOptions::default().n2,
            mixer.params.t1_period(),
            mixer.params.t2_period(),
        ),
        mixer.circuit.num_unknowns(),
        data.to_vec(),
    );
    sol.envelope(mixer.out_p)
        .iter()
        .zip(sol.envelope(mixer.out_n))
        .map(|(p, n)| p - n)
        .collect()
}

/// The output check: the envelope decodes to the sent pattern (up to BPSK
/// polarity) and stays within [`ENVELOPE_TOL_V`] of the reference.
/// `corrupt` flips the first decoded bit, to prove the check bites.
pub fn envelope_ok(bits: &[bool], envelope: &[f64], reference: &[f64], corrupt: bool) -> bool {
    let mut decoded = decode_bpsk_envelope(envelope, bits.len());
    if corrupt {
        decoded[0] = !decoded[0];
    }
    let inverted: Vec<bool> = decoded.iter().map(|b| !b).collect();
    let recovered = decoded == bits || inverted == bits;
    recovered
        && envelope.len() == reference.len()
        && envelope
            .iter()
            .zip(reference)
            .all(|(v, r)| (v - r).abs() <= ENVELOPE_TOL_V)
}

/// Cycles through `0..n` in seeded shuffles, so every run solves nearly
/// the same mix of patterns whatever its seed.
#[derive(Debug)]
pub struct Cycle {
    rng: Rng,
    order: Vec<usize>,
    pos: usize,
}

impl Cycle {
    /// A cycle over `0..n` drawn from `seed`.
    pub fn new(seed: u64, n: usize) -> Self {
        Cycle {
            rng: Rng::new(seed, 0),
            order: (0..n).collect(),
            pos: n,
        }
    }

    /// The next index.
    pub fn next_index(&mut self) -> usize {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

/// One `solve_mpde` call on `case`: its wall time (ms), the grid data,
/// and whether it passed the output check.
fn solve(case: &Case, corrupt: bool) -> (f64, Option<Vec<f64>>, bool) {
    let m = &case.mixer;
    let t0 = Instant::now();
    let solved = solve_mpde(
        &m.circuit,
        m.params.t1_period(),
        m.params.t2_period(),
        MpdeOptions::default(),
    );
    let elapsed = ms(t0.elapsed());
    match solved {
        Ok(sol) => {
            let env = baseband(m, &sol.solution.data);
            let ok = envelope_ok(&case.bits, &env, &case.reference, corrupt);
            (elapsed, Some(sol.solution.data), ok)
        }
        Err(_) => (elapsed, None, false),
    }
}

/// The untraced loop of a solver workload: before each op the cases are
/// built afresh ([`SETUP_REPS`] timed set-ups, as each `fig4` or `rfsim
/// run` invocation builds its circuit), then `solve` runs one case and
/// returns its wall time (ms) and whether it passed its check.
///
/// # Errors
///
/// Set-up failures.
pub fn run_solver(
    cfg: &RunConfig,
    build: impl Fn() -> Result<Vec<Case>, String>,
    solve: impl Fn(&Case) -> (f64, bool),
) -> Result<Report, String> {
    let mut clock = SetupClock::default();
    let mut cases = clock.time(SETUP_REPS, &build)?;
    let mut cycle = Cycle::new(cfg.seed, cases.len());
    let mut tally = Tally::default();
    let mut times = Vec::new();
    let started = Instant::now();
    while started.elapsed() < cfg.duration() {
        if tally.attempted > 0 {
            cases = clock.time(SETUP_REPS, &build)?;
        }
        let (elapsed, ok) = solve(&cases[cycle.next_index()]);
        if tally.record(ok) {
            times.push(elapsed);
        }
    }
    Ok(Report {
        tally,
        metrics: solver_metrics(clock.median(), &times, started.elapsed()),
    })
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
        || build_fig4_cases(&patterns),
        |case| {
            let (elapsed, _, ok) = solve(case, cfg.corrupt);
            (elapsed, ok)
        },
    )
}

/// The end-to-end metrics of a solver workload from its passing solve
/// times (ms). Solve times are a mean, not a median: on a shared host they
/// fall into a fast and a slow cluster with the host's load, and a run's
/// median jumps between the clusters while its mean moves smoothly with
/// the share of slow solves.
fn solver_metrics(setup_s: f64, times_ms: &[f64], elapsed: Duration) -> Metrics {
    let mut metrics = Metrics::end_to_end();
    metrics.set("setup_s", setup_s);
    metrics.set("solve_s_mean", mean(times_ms) / 1e3);
    metrics.set("jobs_per_s", times_ms.len() as f64 / elapsed.as_secs_f64());
    metrics.set("peak_rss_mb", peak_rss_mb());
    metrics
}

/// The traced run: each op solves one pattern twice, through `solve_mpde`
/// and through the plain rung rebuilt with spans (in alternating order, so
/// neither always runs on the other's freed memory), and requires the two
/// to agree bit for bit. The last traced Jacobian is then replayed for
/// per-call layer costs.
///
/// # Errors
///
/// Set-up or replay failures.
pub fn run_traced(cfg: &RunConfig) -> Result<(Report, Tracer), String> {
    let cases = build_fig4_cases(&parse_reference(REFERENCE)?)?;
    let mut cycle = Cycle::new(cfg.seed, cases.len());
    let mut tally = Tally::default();
    let (mut plain_ms, mut samples) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let log = RefCell::new(Tracer::new(started));
    let mut op = 0;
    while started.elapsed() < cfg.duration() {
        op += 1;
        let case = &cases[cycle.next_index()];
        let m = &case.mixer;
        let plain_first = (op % 2 == 1).then(|| solve(case, cfg.corrupt));
        let traced = traced_mpde_solve(
            &m.circuit,
            m.params.t1_period(),
            m.params.t2_period(),
            &MpdeOptions::default(),
            &log,
            op,
        );
        let (plain, data, plain_ok) = plain_first.unwrap_or_else(|| solve(case, cfg.corrupt));
        let identical = match (&traced, &data) {
            (Ok(t), Some(d)) => bits_equal(&t.data, d),
            _ => false,
        };
        if tally.record(plain_ok && identical) {
            plain_ms.push(plain);
            samples.push(traced.expect("identical implies solved").sample);
        }
    }
    let mut metrics = Metrics::per_layer();
    if !samples.is_empty() {
        fill_solver_layers(&mut metrics, &samples);
        let traced_ms: Vec<f64> = samples.iter().map(|s| s.solve_ms).collect();
        metrics.set(
            "trace.overhead_frac",
            median(&traced_ms) / median(&plain_ms) - 1.0,
        );
    }
    Ok((Report { tally, metrics }, log.into_inner()))
}

/// Solves every 4-bit pattern and writes the reference file: one line per
/// pattern that plain Newton solves and that decodes to the sent bits.
///
/// # Errors
///
/// Build failures or an unwritable path.
pub fn write_reference(path: &std::path::Path) -> Result<(), String> {
    let defaults = BalancedMixerParams::default();
    let mut out = String::from(
        "# fig4_mixer reference: <bits> then the 30-sample baseband envelope\n\
         # (V, out_p - out_n) of solve_mpde's default 40x30 solve.\n",
    );
    for code in 0..16u32 {
        let bits: Vec<bool> = (0..4).map(|k| code & (8 >> k) != 0).collect();
        let m = mixer(&bits, defaults.f_lo, defaults.fd)?;
        let sol = solve_mpde(
            &m.circuit,
            m.params.t1_period(),
            m.params.t2_period(),
            MpdeOptions::default(),
        );
        let Ok(sol) = sol else {
            eprintln!("{}: solve failed", bits_label(&bits));
            continue;
        };
        let env = baseband(&m, &sol.solution.data);
        let decodes = envelope_ok(&bits, &env, &env, false);
        let plain = sol.stats.strategy == MpdeStrategy::Newton;
        eprintln!(
            "{}: {} Newton iterations, plain rung: {plain}, decodes: {decodes}",
            bits_label(&bits),
            sol.stats.total_newton_iterations
        );
        if decodes && plain {
            let values: Vec<String> = env.iter().map(|v| format!("{v:?}")).collect();
            out.push_str(&format!("{} {}\n", bits_label(&bits), values.join(" ")));
        }
    }
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_holds_decodable_patterns() {
        let reference = parse_reference(REFERENCE).expect("reference parses");
        assert_eq!(reference.len(), 14, "every 4-bit pattern but 0101 and 1010");
        for (bits, envelope) in &reference {
            assert_eq!(bits.len(), 4);
            assert_eq!(envelope.len(), MpdeOptions::default().n2);
        }
    }

    #[test]
    fn envelope_check_rejects_wrong_bits_and_drift() {
        let reference = parse_reference(REFERENCE).expect("reference parses");
        let (bits, envelope) = &reference[1];
        assert!(envelope_ok(bits, envelope, envelope, false));
        assert!(
            !envelope_ok(bits, envelope, envelope, true),
            "flipped decoded bit"
        );
        let mut wrong = bits.clone();
        wrong[2] = !wrong[2];
        assert!(
            !envelope_ok(&wrong, envelope, envelope, false),
            "wrong pattern"
        );
        let drifted: Vec<f64> = envelope.iter().map(|v| v + 2.0 * ENVELOPE_TOL_V).collect();
        assert!(
            !envelope_ok(bits, &drifted, envelope, false),
            "drifted envelope"
        );
    }

    #[test]
    fn cycle_visits_every_pattern_once_per_round() {
        let mut cycle = Cycle::new(9, 14);
        let mut round: Vec<usize> = (0..14).map(|_| cycle.next_index()).collect();
        round.sort_unstable();
        assert_eq!(round, (0..14).collect::<Vec<_>>());
    }
}
