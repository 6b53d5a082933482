//! Runs a parsed netlist: the engine behind the `rfsim` CLI.
//!
//! This module is the CLI-side twin of the serve tier's dispatch loop:
//! steady-state analyses go through the **same** [`rfsim_rf::sweep`]
//! jobs with the same options the scheduler builds from a `JobSpec`, and
//! the result digest is [`rfsim_serve::spec::JobResult::digest`] itself
//! — so a golden digest recorded from the CLI is comparable with one a
//! wire client observes for the same netlist.

use std::sync::Arc;
use std::time::Instant;

use rfsim_circuit::dcop::{dc_operating_point, DcOptions};
use rfsim_circuit::transient::{transient, TransientOptions, TransientResult};
use rfsim_circuit::CircuitError;
use rfsim_hb::Hb2Options;
use rfsim_mpde::solver::MpdeOptions;
use rfsim_netlist::{Analysis, DrivePoint, Netlist, NetlistError};
use rfsim_rf::sweep::{Hb2SweepJob, MpdeSweepJob, PeriodicFdSweepJob, SweepEngine};
use rfsim_serve::spec::{JobResult, PointSolution};
use rfsim_shooting::PeriodicFdOptions;

/// Why a run failed: the netlist was invalid, or a solve failed.
#[derive(Debug)]
pub enum RunError {
    /// Parse/validation failure (line-numbered).
    Netlist(NetlistError),
    /// Build or solve failure.
    Circuit(CircuitError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Netlist(e) => write!(f, "netlist: {e}"),
            RunError::Circuit(e) => write!(f, "solve: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<NetlistError> for RunError {
    fn from(e: NetlistError) -> Self {
        RunError::Netlist(e)
    }
}

impl From<CircuitError> for RunError {
    fn from(e: CircuitError) -> Self {
        RunError::Circuit(e)
    }
}

/// An `(x, y)` series for CSV output: out-node value against time (or
/// grid coordinate), and magnitude against frequency.
pub type Series = Vec<(f64, f64)>;

/// Everything a run produced: the serve-shaped result (and its wire
/// digest), solve statistics, and plottable series at the out node.
#[derive(Debug)]
pub struct RunReport {
    /// The analysis keyword that ran (`dcop`, `transient`, ...).
    pub analysis: &'static str,
    /// The content-addressed family name (`netlist:<16 hex>`).
    pub family: String,
    /// The solved points in the serve tier's row-major order
    /// (spacing-outer, amplitude-inner); synthetic single point for
    /// `dcop`/`transient`.
    pub result: JobResult,
    /// `JobResult::digest()` — FNV-1a over every coordinate and sample
    /// bit pattern, the same witness wire clients compare.
    pub digest: u64,
    /// Engine point solves performed (rows × amplitudes, or 1).
    pub solves: usize,
    /// Total Newton iterations across all solves.
    pub newton_iterations: usize,
    /// Unknowns of one point's nonlinear system.
    pub system_size: usize,
    /// Wall-clock seconds spent solving.
    pub elapsed_s: f64,
    /// Out-node waveform (time-like coordinate, value), when resolvable.
    pub waveform: Series,
    /// Out-node spectrum (frequency, magnitude), when resolvable.
    pub spectrum: Series,
}

impl RunReport {
    /// Solves per wall-clock second.
    #[must_use]
    pub fn solves_per_sec(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.solves as f64 / self.elapsed_s
        } else {
            0.0
        }
    }
}

/// Single-sided amplitude spectrum of uniformly sampled `signal` over
/// total duration `span` seconds: `(frequency, magnitude)` pairs.
fn single_sided_spectrum(signal: &[f64], span: f64) -> Series {
    let n = signal.len();
    if n < 2 || span <= 0.0 {
        return Vec::new();
    }
    let bins = rfsim_numerics::fft::fft_real(signal);
    (0..=n / 2)
        .map(|k| {
            let scale = if k == 0 || (n.is_multiple_of(2) && k == n / 2) {
                1.0
            } else {
                2.0
            };
            (k as f64 / span, scale * bins[k].abs() / n as f64)
        })
        .collect()
}

fn transient_series(netlist: &Netlist, result: &TransientResult, t_stop: f64) -> (Series, Series) {
    let circuit = match netlist.build_circuit(None) {
        Ok(c) => c,
        Err(_) => return (Vec::new(), Vec::new()),
    };
    let Some(u) = netlist.out_unknown(&circuit) else {
        return (Vec::new(), Vec::new());
    };
    let signal = result.signal(u);
    let waveform: Series = result.times.iter().copied().zip(signal).collect();
    // The adaptive integrator's grid is non-uniform; resample onto a
    // power-of-two grid for the FFT.
    let m = 512usize;
    let resampled: Vec<f64> = (0..m)
        .map(|k| result.sample(u, t_stop * k as f64 / m as f64))
        .collect();
    (waveform, single_sided_spectrum(&resampled, t_stop))
}

/// Extracts waveform (fast axis at the first slow-axis row) and spectrum
/// (over the slow axis at the first fast-axis column) for the out-node
/// unknown of a bivariate steady-state surface stored as
/// `samples[(j*n1 + i)*n + u]`.
#[allow(clippy::too_many_arguments)]
fn bivariate_series(
    samples: &[f64],
    n: usize,
    n1: usize,
    n2: usize,
    t1_period: f64,
    t2_period: f64,
    unknown: usize,
) -> (Series, Series) {
    if n == 0 || samples.len() < n * n1 * n2 {
        return (Vec::new(), Vec::new());
    }
    let at = |i: usize, j: usize| samples[(j * n1 + i) * n + unknown];
    let waveform: Series = (0..n1)
        .map(|i| (t1_period * i as f64 / n1 as f64, at(i, 0)))
        .collect();
    let envelope: Vec<f64> = (0..n2).map(|j| at(0, j)).collect();
    (waveform, single_sided_spectrum(&envelope, t2_period))
}

/// Runs `netlist`'s analysis directive and returns the report.
///
/// # Errors
///
/// [`RunError::Circuit`] when a build or solve fails. (The netlist is
/// already validated; `RunError::Netlist` is for callers that parse and
/// run in one step.)
pub fn run_netlist(netlist: &Netlist) -> Result<RunReport, RunError> {
    match &netlist.analysis {
        Analysis::Dcop => run_dcop(netlist),
        Analysis::Transient { t_stop, dt, .. } => run_transient(netlist, *t_stop, *dt),
        Analysis::Mpde { .. } | Analysis::Hb2 { .. } | Analysis::PeriodicFd { .. } => {
            run_steady_state(netlist)
        }
    }
}

fn report(
    netlist: &Netlist,
    analysis: &'static str,
    result: JobResult,
    solves: usize,
    newton_iterations: usize,
    system_size: usize,
    elapsed_s: f64,
    series: (Series, Series),
) -> RunReport {
    let digest = result.digest();
    RunReport {
        analysis,
        family: netlist.family_name(),
        result,
        digest,
        solves,
        newton_iterations,
        system_size,
        elapsed_s,
        waveform: series.0,
        spectrum: series.1,
    }
}

fn run_dcop(netlist: &Netlist) -> Result<RunReport, RunError> {
    let circuit = netlist.build_circuit(None)?;
    let start = Instant::now();
    let dc = dc_operating_point(&circuit, DcOptions::default())?;
    let elapsed = start.elapsed().as_secs_f64();
    let system_size = dc.solution.len();
    let newton = dc.stats.iterations;
    // One synthetic point: the operating-point vector is the "samples".
    let result = JobResult {
        points: vec![PointSolution {
            amplitude: 0.0,
            spacing: 0.0,
            samples: dc.solution,
        }],
    };
    Ok(report(
        netlist,
        "dcop",
        result,
        1,
        newton,
        system_size,
        elapsed,
        (Vec::new(), Vec::new()),
    ))
}

fn run_transient(netlist: &Netlist, t_stop: f64, dt: f64) -> Result<RunReport, RunError> {
    let circuit = netlist.build_circuit(None)?;
    let options = TransientOptions {
        t_stop,
        dt_init: dt,
        ..TransientOptions::default()
    };
    let start = Instant::now();
    let tr = transient(&circuit, options)?;
    let elapsed = start.elapsed().as_secs_f64();
    let series = transient_series(netlist, &tr, t_stop);
    // The digested samples are the out-node trajectory when the out node
    // carries an unknown, the final state otherwise.
    let samples = if series.0.is_empty() {
        tr.state(tr.times.len() - 1).to_vec()
    } else {
        series.0.iter().map(|&(_, v)| v).collect()
    };
    let newton = tr.newton_iterations;
    let system_size = tr.num_unknowns;
    let result = JobResult {
        points: vec![PointSolution {
            amplitude: 0.0,
            spacing: 0.0,
            samples,
        }],
    };
    Ok(report(
        netlist,
        "transient",
        result,
        1,
        newton,
        system_size,
        elapsed,
        series,
    ))
}

/// One steady-state row: the spacing it solves at (0 for single-tone).
fn sweep_rows(netlist: &Netlist) -> Vec<f64> {
    let spacings = netlist
        .sweep
        .as_ref()
        .map(|s| s.spacings.clone())
        .unwrap_or_default();
    if spacings.is_empty() {
        vec![0.0]
    } else {
        spacings
    }
}

fn run_steady_state(netlist: &Netlist) -> Result<RunReport, RunError> {
    let (analysis, f1, n1, n2, two_tone) = match &netlist.analysis {
        Analysis::Mpde { f1, n1, n2, .. } => ("mpde", *f1, *n1, *n2, true),
        Analysis::Hb2 { f1, n1, n2, .. } => ("hb2", *f1, *n1, *n2, true),
        Analysis::PeriodicFd { f1, n1, .. } => ("periodic_fd", *f1, *n1, 0, false),
        _ => unreachable!("caller dispatches only steady-state analyses"),
    };
    let amplitudes = netlist
        .sweep
        .as_ref()
        .map(|s| s.amplitudes.clone())
        .unwrap_or_default();
    let rows = sweep_rows(netlist);
    let family = netlist.family_name();
    let shared = Arc::new(netlist.clone());
    // The same family closure the serve tier builds from `PointParams`:
    // substitute the `drive` source at each operating point.
    let make = |fd: f64| {
        let netlist = Arc::clone(&shared);
        move |amplitude: f64| {
            netlist.build_circuit(Some(&DrivePoint {
                amplitude,
                f1,
                spacing: fd,
                two_tone,
            }))
        }
    };

    // Deterministic mode, as the service's default engine runs: no warm
    // start chains across spacing rows, so a multi-row digest here equals
    // the one a wire client observes.
    let engine = SweepEngine::new().chain_topology_groups(false);
    let mut result = JobResult { points: Vec::new() };
    let mut newton_iterations = 0usize;
    let mut system_size = 0usize;
    let mut series = (Vec::new(), Vec::new());
    let start = Instant::now();
    match analysis {
        "mpde" => {
            let jobs: Vec<MpdeSweepJob> = rows
                .iter()
                .map(|&fd| {
                    let options = MpdeOptions {
                        n1,
                        n2,
                        ..Default::default()
                    };
                    MpdeSweepJob::new(
                        format!("{family}/fd={fd}"),
                        amplitudes.clone(),
                        1.0 / f1,
                        1.0 / fd,
                        options,
                        make(fd),
                    )
                })
                .collect();
            for (row, outcome) in rows.iter().zip(engine.run_mpde_batch(&jobs)) {
                for point in outcome? {
                    let sol = point.solution;
                    newton_iterations += sol.stats.total_newton_iterations;
                    system_size = sol.stats.system_size;
                    if series.0.is_empty() {
                        if let Some(u) = circuit_out_unknown(netlist, *row, f1, two_tone) {
                            let (wn1, wn2) = sol.grid.shape();
                            series = bivariate_series(
                                &sol.solution.data,
                                sol.solution.num_unknowns,
                                wn1,
                                wn2,
                                sol.grid.t1_period(),
                                sol.grid.t2_period(),
                                u,
                            );
                        }
                    }
                    result.points.push(PointSolution {
                        amplitude: point.value,
                        spacing: *row,
                        samples: sol.solution.data,
                    });
                }
            }
        }
        "hb2" => {
            let jobs: Vec<Hb2SweepJob> = rows
                .iter()
                .map(|&fd| {
                    let options = Hb2Options {
                        n1,
                        n2,
                        ..Default::default()
                    };
                    Hb2SweepJob::new(
                        format!("{family}/fd={fd}"),
                        amplitudes.clone(),
                        1.0 / f1,
                        1.0 / fd,
                        options,
                        make(fd),
                    )
                })
                .collect();
            for (row, outcome) in rows.iter().zip(engine.run_hb2_batch(&jobs)) {
                for point in outcome? {
                    let sol = point.solution;
                    newton_iterations += sol.stats.iterations;
                    system_size = sol.samples.len();
                    if series.0.is_empty() {
                        if let Some(u) = circuit_out_unknown(netlist, *row, f1, two_tone) {
                            series = bivariate_series(
                                &sol.samples,
                                sol.num_unknowns,
                                sol.shape.0,
                                sol.shape.1,
                                sol.period1,
                                sol.period2,
                                u,
                            );
                        }
                    }
                    result.points.push(PointSolution {
                        amplitude: point.value,
                        spacing: *row,
                        samples: sol.samples,
                    });
                }
            }
        }
        _ => {
            let jobs: Vec<PeriodicFdSweepJob> = rows
                .iter()
                .map(|&fd| {
                    let options = PeriodicFdOptions {
                        n_samples: n1,
                        ..Default::default()
                    };
                    PeriodicFdSweepJob::new(
                        family.clone(),
                        amplitudes.clone(),
                        1.0 / f1,
                        options,
                        make(fd),
                    )
                })
                .collect();
            for (row, outcome) in rows.iter().zip(engine.run_periodic_fd_batch(&jobs)) {
                for point in outcome? {
                    let sol = point.solution;
                    newton_iterations += sol.stats.iterations;
                    system_size = sol.samples.len();
                    if series.0.is_empty() {
                        if let Some(u) = circuit_out_unknown(netlist, *row, f1, two_tone) {
                            let period = 1.0 / f1;
                            let n_pts = sol.samples.len() / sol.num_unknowns.max(1);
                            let signal: Vec<f64> = (0..n_pts).map(|i| sol.state(i)[u]).collect();
                            let waveform: Series = signal
                                .iter()
                                .enumerate()
                                .map(|(i, &v)| (period * i as f64 / n_pts as f64, v))
                                .collect();
                            let spectrum = single_sided_spectrum(&signal, period);
                            series = (waveform, spectrum);
                        }
                    }
                    result.points.push(PointSolution {
                        amplitude: point.value,
                        spacing: *row,
                        samples: sol.samples,
                    });
                }
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let solves = result.points.len();
    Ok(report(
        netlist,
        analysis,
        result,
        solves,
        newton_iterations,
        system_size,
        elapsed,
        series,
    ))
}

/// Resolves the out-node unknown by building one circuit at a nominal
/// drive point (unit amplitude — the unknown index is structural, not
/// value-dependent).
fn circuit_out_unknown(netlist: &Netlist, fd: f64, f1: f64, two_tone: bool) -> Option<usize> {
    let circuit = netlist
        .build_circuit(Some(&DrivePoint {
            amplitude: 1.0,
            f1,
            spacing: fd,
            two_tone,
        }))
        .ok()?;
    netlist.out_unknown(&circuit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcop_runs_and_digests_deterministically() {
        let netlist =
            Netlist::parse("V V1 in gnd dc 1\nR R1 in out 1k\nR R2 out gnd 2k\n.analysis dcop\n")
                .expect("parse");
        let a = run_netlist(&netlist).expect("run");
        let b = run_netlist(&netlist).expect("run again");
        assert_eq!(a.digest, b.digest, "dcop must be bit-deterministic");
        assert_eq!(a.solves, 1);
        // Divider: out = 1 V · 2k / 3k.
        let out = &a.result.points[0].samples;
        assert!((out[1] - 2.0 / 3.0).abs() < 1e-9, "divider voltage {out:?}");
    }

    #[test]
    fn mpde_sweep_runs_every_grid_point() {
        let netlist = Netlist::parse(
            "V V1 in gnd drive\nR R1 in out 1k\nC C1 out gnd 160p\n\
             .sweep amplitudes=0.5,1 spacings=1k,2k\n.analysis mpde f1=1M n1=8 n2=4\n",
        )
        .expect("parse");
        let a = run_netlist(&netlist).expect("run");
        assert_eq!(a.solves, 4, "2 spacings × 2 amplitudes");
        assert_eq!(a.result.points.len(), 4);
        assert!(a.newton_iterations > 0);
        assert!(!a.waveform.is_empty() && !a.spectrum.is_empty());
        let b = run_netlist(&netlist).expect("run again");
        assert_eq!(a.digest, b.digest, "steady state must be bit-deterministic");
    }

    #[test]
    fn transient_waveform_tracks_the_out_node() {
        let netlist = Netlist::parse(
            "V V1 in gnd sine amp=1 freq=1M phase=0 offset=0\nR R1 in out 1k\n\
             C C1 out gnd 160p\n.analysis transient tstop=2u dt=10n\n",
        )
        .expect("parse");
        let r = run_netlist(&netlist).expect("run");
        assert!(r.waveform.len() > 10);
        assert_eq!(r.result.points[0].samples.len(), r.waveform.len());
        assert!(!r.spectrum.is_empty());
    }
}
