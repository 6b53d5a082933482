//! Conversion gain and distortion measurements.

use rfsim_mpde::MultitimeSolution;

/// Converts an amplitude ratio to decibels (`20·log10`).
pub fn ratio_to_db(ratio: f64) -> f64 {
    20.0 * ratio.abs().max(1e-300).log10()
}

/// Down-conversion gain in dB: the baseband fundamental of the
/// (differential) output envelope over the RF input amplitude.
///
/// `out_p`/`out_n` select the differential output (`out_n = None` for
/// single-ended).
pub fn conversion_gain_db(
    solution: &MultitimeSolution,
    out_p: usize,
    out_n: Option<usize>,
    rf_amplitude: f64,
) -> f64 {
    let out = differential_baseband_harmonic(solution, out_p, out_n, 1);
    ratio_to_db(out / rf_amplitude)
}

/// Magnitude of baseband harmonic `m` of the (differential) output
/// envelope.
pub fn differential_baseband_harmonic(
    solution: &MultitimeSolution,
    out_p: usize,
    out_n: Option<usize>,
    m: usize,
) -> f64 {
    let hp = solution.baseband_harmonic(out_p, m);
    match out_n {
        Some(n) => (hp - solution.baseband_harmonic(n, m)).abs(),
        None => hp.abs(),
    }
}

/// Harmonic distortion of order `m` in dBc: `|env_m| / |env_1|`.
pub fn hd_dbc(solution: &MultitimeSolution, out_p: usize, out_n: Option<usize>, m: usize) -> f64 {
    let fund = differential_baseband_harmonic(solution, out_p, out_n, 1);
    let harm = differential_baseband_harmonic(solution, out_p, out_n, m);
    ratio_to_db(harm / fund)
}

/// Total harmonic distortion (up to `max_harmonic`) as a ratio.
pub fn thd(
    solution: &MultitimeSolution,
    out_p: usize,
    out_n: Option<usize>,
    max_harmonic: usize,
) -> f64 {
    let fund = differential_baseband_harmonic(solution, out_p, out_n, 1);
    if fund == 0.0 {
        return 0.0;
    }
    let mut acc = 0.0;
    for m in 2..=max_harmonic {
        let h = differential_baseband_harmonic(solution, out_p, out_n, m);
        acc += h * h;
    }
    acc.sqrt() / fund
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim_mpde::{MultitimeGrid, MultitimeSolution};
    use std::f64::consts::PI;

    fn envelope_solution(env: impl Fn(f64) -> f64, n1: usize, n2: usize) -> MultitimeSolution {
        let grid = MultitimeGrid::new(n1, n2, 1e-6, 1e-3);
        let mut data = Vec::with_capacity(n1 * n2);
        for j in 0..n2 {
            for _i in 0..n1 {
                data.push(env(j as f64 / n2 as f64));
            }
        }
        MultitimeSolution::new(grid, 1, data)
    }

    #[test]
    fn db_roundtrip() {
        assert!((ratio_to_db(10.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn conversion_gain_of_known_envelope() {
        // envelope = 0.5·cos(2π·u): fundamental amplitude 0.5.
        let sol = envelope_solution(|u| 0.5 * (2.0 * PI * u).cos(), 4, 32);
        let g = conversion_gain_db(&sol, 0, None, 0.1);
        // 0.5 / 0.1 = 5× = ~14 dB.
        assert!((g - ratio_to_db(5.0)).abs() < 1e-6);
    }

    #[test]
    fn hd_of_distorted_envelope() {
        // env = cos + 0.1·cos(2·) → HD2 = −20 dBc.
        let sol = envelope_solution(|u| (2.0 * PI * u).cos() + 0.1 * (4.0 * PI * u).cos(), 4, 64);
        let hd2 = hd_dbc(&sol, 0, None, 2);
        assert!((hd2 + 20.0).abs() < 0.1, "HD2 = {hd2}");
        let t = thd(&sol, 0, None, 5);
        assert!((t - 0.1).abs() < 1e-3, "THD = {t}");
    }

    #[test]
    fn differential_doubles_amplitude() {
        let grid = MultitimeGrid::new(2, 16, 1e-6, 1e-3);
        let mut data = Vec::new();
        for j in 0..16 {
            for _i in 0..2 {
                let v = (2.0 * PI * j as f64 / 16.0).cos();
                data.push(v); // out_p
                data.push(-v); // out_n
            }
        }
        let sol = MultitimeSolution::new(grid, 2, data);
        let single = differential_baseband_harmonic(&sol, 0, None, 1);
        let diff = differential_baseband_harmonic(&sol, 0, Some(1), 1);
        assert!((diff - 2.0 * single).abs() < 1e-9);
    }
}
