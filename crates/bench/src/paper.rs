//! Shared setups for the paper's experiments.

use rfsim_circuits::{BalancedMixer, BalancedMixerParams};
use rfsim_mpde::solver::{solve_mpde, MpdeOptions, MpdeSolution};
use rfsim_mpde::MultitimeGrid;
use std::time::{Duration, Instant};

/// The paper's §3 experiment: balanced mixer at 450 MHz LO / 15 kHz
/// baseband on the 40×30 grid.
///
/// # Panics
///
/// Panics if the build or solve fails (these binaries are the experiment
/// drivers; a failure should abort loudly).
pub fn solve_paper_mixer(bits: Vec<bool>) -> (BalancedMixer, MpdeSolution, Duration) {
    let params = BalancedMixerParams {
        rf_bits: bits,
        ..Default::default()
    };
    let mixer = BalancedMixer::build(params).expect("mixer builds");
    let t0 = Instant::now();
    let sol = solve_mpde(
        &mixer.circuit,
        mixer.params.t1_period(),
        mixer.params.t2_period(),
        MpdeOptions::default(),
    )
    .expect("MPDE solve converges");
    let elapsed = t0.elapsed();
    (mixer, sol, elapsed)
}

/// A disparity-scaled mixer (LO fixed, fd varied) for speedup sweeps.
///
/// # Panics
///
/// Panics if the build fails.
pub fn scaled_mixer(f_lo: f64, disparity: f64) -> BalancedMixer {
    let params = BalancedMixerParams {
        f_lo,
        fd: f_lo / disparity,
        rf_bits: vec![],
        ..Default::default()
    };
    BalancedMixer::build(params).expect("mixer builds")
}

/// Standard grid used when comparing methods at matched resolution.
pub(crate) fn comparison_grid(mixer: &BalancedMixer, n1: usize, n2: usize) -> MultitimeGrid {
    MultitimeGrid::new(n1, n2, mixer.params.t1_period(), mixer.params.t2_period())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_mixer_has_requested_disparity() {
        let m = scaled_mixer(10e6, 250.0);
        assert!((m.params.f_lo / m.params.fd - 250.0).abs() < 1e-9);
    }
}
