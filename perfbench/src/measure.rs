//! Small measurement helpers: a seeded generator, order statistics,
//! set-up timing, op tallies and the process's peak resident memory.

use std::time::{Duration, Instant};

/// SplitMix64: a tiny, seedable generator. The same seed always yields the
/// same stream, which is all the workload generators need.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, offset by `stream` so independent clients of
    /// one run draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time (ms) of `f`, repeated at least `min_reps` times and
/// until `min_total` has elapsed (capped at 10 000 repetitions).
pub fn time_median_ms(min_reps: usize, min_total: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || (started.elapsed() < min_total && times.len() < 10_000) {
        let t0 = Instant::now();
        f();
        times.push(ms(t0.elapsed()));
    }
    median(&times)
}

/// Set-up timings (s) of one run; their median is the run's `setup_s`.
/// On a shared host a set-up's time swings by up to 1.6× for seconds at a
/// time with the host's load, so set-ups timed in one short window measure
/// whichever state that window fell in. Runs therefore spread their
/// set-ups over the run or time them for seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupClock(Vec<f64>);

impl SetupClock {
    /// Runs and times `build` `reps` times (at least once); returns the
    /// last result. Each earlier result is dropped before the next build
    /// starts, outside the timed span.
    ///
    /// # Errors
    ///
    /// The first error `build` returns.
    pub fn time<T, E>(
        &mut self,
        reps: usize,
        mut build: impl FnMut() -> Result<T, E>,
    ) -> Result<T, E> {
        let mut built = None;
        for _ in 0..reps.max(1) {
            drop(built.take());
            let t0 = Instant::now();
            let value = build()?;
            self.0.push(t0.elapsed().as_secs_f64());
            built = Some(value);
        }
        Ok(built.expect("at least one build"))
    }

    /// The median set-up time (s); 0 before the first.
    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    /// Set-ups timed so far.
    pub fn count(&self) -> usize {
        self.0.len()
    }
}

/// Runs `build` at least `min_reps` times and until `min_total` has
/// elapsed; returns the last result and the median build (s).
///
/// # Errors
///
/// The first error `build` returns.
pub fn repeat_setup<T, E>(
    min_reps: usize,
    min_total: Duration,
    mut build: impl FnMut() -> Result<T, E>,
) -> Result<(T, f64), E> {
    let started = Instant::now();
    let mut clock = SetupClock::default();
    loop {
        let built = clock.time(1, &mut build)?;
        if clock.count() >= min_reps && started.elapsed() >= min_total {
            return Ok((built, clock.median()));
        }
    }
}

/// Ops attempted and failed. An op fails if it errored, was refused, timed
/// out, or failed its output check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one op; returns `ok` so call sites can branch on it.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Adds `other`'s counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The host's aggregate CPU counters from `/proc/stat`: `(steal, total)`
/// clock ticks. Steal is time the hypervisor ran someone else while this
/// machine's virtual CPUs wanted to run.
pub fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident set size of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(mean(&v), 2.5);
    }

    #[test]
    fn repeat_setup_reports_the_median_build() {
        let mut calls = 0;
        let (last, secs) = repeat_setup(3, Duration::ZERO, || {
            calls += 1;
            std::thread::sleep(Duration::from_millis([1, 40, 10][calls - 1]));
            Ok::<_, ()>(calls)
        })
        .expect("builds");
        assert_eq!((last, calls), (3, 3));
        assert!(
            (0.01..0.04).contains(&secs),
            "median of 1, 40, 10 ms: {secs}"
        );
        assert_eq!(
            repeat_setup(3, Duration::ZERO, || Err::<(), _>("no")),
            Err("no")
        );
    }

    #[test]
    fn setup_clock_keeps_every_build() {
        let mut clock = SetupClock::default();
        assert_eq!(clock.median(), 0.0);
        let mut calls = 0;
        let last = clock
            .time(4, || {
                calls += 1;
                Ok::<_, ()>(calls)
            })
            .expect("builds");
        assert_eq!((last, clock.count()), (4, 4));
        assert!(clock.median() > 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(7, 1).next_u64());
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(8, 0).next_u64());
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        assert!(t.record(true));
        assert!(!t.record(false));
        assert_eq!(
            t,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
