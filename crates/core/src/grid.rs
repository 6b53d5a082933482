//! Multitime grids and solutions.
//!
//! A [`MultitimeGrid`] discretises `[0, T1) × [0, T2)` uniformly and
//! periodically; a [`MultitimeSolution`] stores all circuit unknowns on the
//! grid and provides the paper's post-processing operations:
//!
//! * bivariate surfaces (Figures 3 and 5),
//! * the baseband envelope along the difference axis (Figure 4),
//! * harmonic extraction on either axis (conversion gain, HD2/HD3),
//! * diagonal reconstruction `x(t) = x̂(t, t)` (Figure 6).

use rfsim_numerics::fft::{goertzel, Complex};
use rfsim_numerics::interp::periodic_bilinear;

/// A uniform periodic grid over the two artificial time scales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultitimeGrid {
    n1: usize,
    n2: usize,
    t1_period: f64,
    t2_period: f64,
}

impl MultitimeGrid {
    /// Creates a grid with `n1 × n2` points over `[0,T1) × [0,T2)`.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or a period non-positive.
    pub fn new(n1: usize, n2: usize, t1_period: f64, t2_period: f64) -> Self {
        assert!(n1 > 0 && n2 > 0, "grid dimensions must be positive");
        assert!(
            t1_period > 0.0 && t2_period > 0.0,
            "grid periods must be positive"
        );
        MultitimeGrid {
            n1,
            n2,
            t1_period,
            t2_period,
        }
    }

    /// Grid dimensions `(n1, n2)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.n1, self.n2)
    }

    /// Total number of grid points.
    pub fn num_points(&self) -> usize {
        self.n1 * self.n2
    }

    /// Fast-axis period `T1`.
    pub fn t1_period(&self) -> f64 {
        self.t1_period
    }

    /// Slow-axis period `T2`.
    pub fn t2_period(&self) -> f64 {
        self.t2_period
    }

    /// Fast-axis coordinate of column `i`.
    pub fn t1(&self, i: usize) -> f64 {
        self.t1_period * i as f64 / self.n1 as f64
    }

    /// Slow-axis coordinate of row `j`.
    pub fn t2(&self, j: usize) -> f64 {
        self.t2_period * j as f64 / self.n2 as f64
    }

    /// Fast-axis step `h1`.
    pub fn h1(&self) -> f64 {
        self.t1_period / self.n1 as f64
    }

    /// Slow-axis step `h2`.
    pub fn h2(&self) -> f64 {
        self.t2_period / self.n2 as f64
    }

    /// Flat index of grid point `(i, j)`.
    #[inline]
    pub fn point(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.n1 && j < self.n2);
        j * self.n1 + i
    }
}

/// A solution of the MPDE on a [`MultitimeGrid`]: every circuit unknown at
/// every grid point.
#[derive(Debug, Clone)]
pub struct MultitimeSolution {
    /// The grid the data lives on.
    pub grid: MultitimeGrid,
    /// Unknowns per grid point.
    pub num_unknowns: usize,
    /// Flattened data: `data[(grid.point(i,j))*n + u]`.
    pub data: Vec<f64>,
}

impl MultitimeSolution {
    /// Wraps flattened data produced by the solvers.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != grid.num_points() * num_unknowns`.
    pub fn new(grid: MultitimeGrid, num_unknowns: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            grid.num_points() * num_unknowns,
            "solution data size mismatch"
        );
        MultitimeSolution {
            grid,
            num_unknowns,
            data,
        }
    }

    /// State vector at grid point `(i, j)`.
    pub fn state(&self, i: usize, j: usize) -> &[f64] {
        let base = self.grid.point(i, j) * self.num_unknowns;
        &self.data[base..base + self.num_unknowns]
    }

    /// Value of one unknown at grid point `(i, j)`.
    pub fn value(&self, unknown: usize, i: usize, j: usize) -> f64 {
        self.state(i, j)[unknown]
    }

    /// Bivariate surface of one unknown, row-major `[j][i]` — the data of
    /// Figures 3 and 5.
    pub fn surface(&self, unknown: usize) -> Vec<f64> {
        let (n1, n2) = self.grid.shape();
        let mut out = Vec::with_capacity(n1 * n2);
        for j in 0..n2 {
            for i in 0..n1 {
                out.push(self.value(unknown, i, j));
            }
        }
        out
    }

    /// Waveform along the fast axis at slow-row `j`.
    pub fn t1_slice(&self, unknown: usize, j: usize) -> Vec<f64> {
        (0..self.grid.shape().0)
            .map(|i| self.value(unknown, i, j))
            .collect()
    }

    /// Waveform along the slow (difference) axis at fast-column `i`.
    pub fn t2_slice(&self, unknown: usize, i: usize) -> Vec<f64> {
        (0..self.grid.shape().1)
            .map(|j| self.value(unknown, i, j))
            .collect()
    }

    /// The baseband envelope: the fast-axis average at each slow point —
    /// the "actual baseband voltage" of Figure 4.
    pub fn envelope(&self, unknown: usize) -> Vec<f64> {
        let (n1, n2) = self.grid.shape();
        (0..n2)
            .map(|j| (0..n1).map(|i| self.value(unknown, i, j)).sum::<f64>() / n1 as f64)
            .collect()
    }

    /// Complex amplitude of harmonic `m` of the baseband envelope along the
    /// slow axis (the `m·fd` component). `m = 1` gives the down-converted
    /// fundamental used for conversion gain; `m = 2, 3` give HD2/HD3.
    pub fn baseband_harmonic(&self, unknown: usize, m: usize) -> Complex {
        goertzel(&self.envelope(unknown), m)
    }

    /// Magnitude of harmonic `m` along the fast axis, averaged
    /// *incoherently* (per-row magnitudes). Sheared carriers rotate their
    /// fast-harmonic phase once per slow period, so the coherent average
    /// vanishes — this is the right extractor for carrier-amplitude
    /// measurements.
    pub fn fast_harmonic_magnitude(&self, unknown: usize, m: usize) -> f64 {
        let (_, n2) = self.grid.shape();
        (0..n2)
            .map(|j| goertzel(&self.t1_slice(unknown, j), m).abs())
            .sum::<f64>()
            / n2 as f64
    }

    /// Evaluates the bivariate solution off-grid by periodic bilinear
    /// interpolation.
    pub fn interpolate(&self, unknown: usize, t1: f64, t2: f64) -> f64 {
        let surf = self.surface(unknown);
        let (n1, n2) = self.grid.shape();
        periodic_bilinear(
            &surf,
            n1,
            n2,
            self.grid.t1_period(),
            self.grid.t2_period(),
            t1,
            t2,
        )
        .expect("surface dimensions are consistent by construction")
    }

    /// Reconstructs the one-time waveform `x(t) = x̂(t, t)` over
    /// `[t_start, t_end]` with `num_points` samples — Figure 6.
    pub fn reconstruct_diagonal(
        &self,
        unknown: usize,
        t_start: f64,
        t_end: f64,
        num_points: usize,
    ) -> Vec<(f64, f64)> {
        let surf = self.surface(unknown);
        let (n1, n2) = self.grid.shape();
        (0..num_points)
            .map(|k| {
                let t = t_start + (t_end - t_start) * k as f64 / (num_points.max(2) - 1) as f64;
                let v = periodic_bilinear(
                    &surf,
                    n1,
                    n2,
                    self.grid.t1_period(),
                    self.grid.t2_period(),
                    t,
                    t,
                )
                .expect("consistent dimensions");
                (t, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn product_solution(n1: usize, n2: usize) -> MultitimeSolution {
        // x̂(t1,t2) = cos(2π t1/T1)·cos(2π t2/T2), plus a constant unknown.
        let grid = MultitimeGrid::new(n1, n2, 1e-6, 1e-3);
        let mut data = Vec::with_capacity(n1 * n2 * 2);
        for j in 0..n2 {
            for i in 0..n1 {
                let u = i as f64 / n1 as f64;
                let v = j as f64 / n2 as f64;
                data.push((2.0 * PI * u).cos() * (2.0 * PI * v).cos());
                data.push(42.0);
            }
        }
        MultitimeSolution::new(grid, 2, data)
    }

    #[test]
    fn grid_coordinates() {
        let g = MultitimeGrid::new(4, 5, 2.0, 10.0);
        assert_eq!(g.shape(), (4, 5));
        assert_eq!(g.num_points(), 20);
        assert!((g.t1(1) - 0.5).abs() < 1e-15);
        assert!((g.t2(1) - 2.0).abs() < 1e-15);
        assert!((g.h1() - 0.5).abs() < 1e-15);
        assert!((g.h2() - 2.0).abs() < 1e-15);
        assert_eq!(g.point(3, 4), 19);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        let _ = MultitimeGrid::new(0, 4, 1.0, 1.0);
    }

    #[test]
    fn surface_and_slices() {
        let s = product_solution(8, 6);
        let surf = s.surface(0);
        assert_eq!(surf.len(), 48);
        assert!((surf[0] - 1.0).abs() < 1e-12);
        let row = s.t1_slice(0, 0);
        assert_eq!(row.len(), 8);
        assert!((row[2] - (2.0 * PI * 0.25).cos()).abs() < 1e-12);
        let col = s.t2_slice(0, 0);
        assert_eq!(col.len(), 6);
        assert!((col[3] - (2.0 * PI * 0.5).cos()).abs() < 1e-10);
    }

    #[test]
    fn envelope_of_product_is_zero_mean_times_cos() {
        // Fast-average of cos(2πu) is 0, so the envelope vanishes.
        let s = product_solution(16, 8);
        for v in s.envelope(0) {
            assert!(v.abs() < 1e-12);
        }
        // The constant unknown's envelope is the constant.
        for v in s.envelope(1) {
            assert!((v - 42.0).abs() < 1e-12);
        }
    }

    #[test]
    fn baseband_harmonic_extraction() {
        // Build x̂ = (1 + cos(2π t2/T2)) so the envelope is 1 + cos.
        let grid = MultitimeGrid::new(8, 16, 1e-6, 1e-3);
        let mut data = Vec::new();
        for j in 0..16 {
            for _i in 0..8 {
                let v = j as f64 / 16.0;
                data.push(1.0 + (2.0 * PI * v).cos());
            }
        }
        let s = MultitimeSolution::new(grid, 1, data);
        let h0 = s.baseband_harmonic(0, 0);
        let h1 = s.baseband_harmonic(0, 1);
        let h2 = s.baseband_harmonic(0, 2);
        assert!((h0.re - 1.0).abs() < 1e-12);
        assert!((h1.abs() - 1.0).abs() < 1e-12);
        assert!(h2.abs() < 1e-12);
    }

    #[test]
    fn diagonal_reconstruction_matches_function() {
        // x̂(t1,t2) separable and band-limited: bilinear interpolation on a
        // fine grid tracks the true diagonal well.
        let s = product_solution(64, 64);
        let pts = s.reconstruct_diagonal(0, 0.0, 2e-6, 41);
        for &(t, v) in &pts {
            let expect = (2.0 * PI * t / 1e-6).cos() * (2.0 * PI * t / 1e-3).cos();
            assert!((v - expect).abs() < 5e-3, "t={t}: got {v}, expect {expect}");
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_data_size_rejected() {
        let grid = MultitimeGrid::new(2, 2, 1.0, 1.0);
        let _ = MultitimeSolution::new(grid, 1, vec![0.0; 3]);
    }
}
