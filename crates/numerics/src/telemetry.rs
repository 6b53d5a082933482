//! Fixed-allocation telemetry primitives: log-bucketed latency
//! histograms and bounded per-job lifecycle timelines.
//!
//! Both types are deliberately dependency-free and allocation-bounded so
//! a long-lived service can record *every* job without its telemetry
//! growing with traffic:
//!
//! * [`LatencyHistogram`] — a fixed array of log-2 duration buckets
//!   (1 µs, 2 µs, 4 µs, … ≈ 9 min, + overflow). Recording is a handful
//!   of integer ops; quantiles ([`LatencyHistogram::quantile`],
//!   [`LatencyHistogram::summary`]) interpolate inside the bucket that
//!   holds the target rank, and [`LatencyHistogram::absorb`] merges
//!   shard-local histograms into a fleet view losslessly (identical
//!   bucket boundaries everywhere, by construction).
//! * [`Timeline`] — a bounded, ordered list of typed
//!   [`TimelineEventKind`] lifecycle events
//!   (`admitted → queued → dispatched → rung(label) →
//!   iteration-milestones → settled{…}`) with nanosecond offsets from
//!   the timeline's origin. The final slot is reserved for the settle
//!   event, so a trace always shows how the job ended even when
//!   intermediate milestones were dropped at capacity.
//!
//! Neither type is internally synchronised: the intended deployment is
//! one histogram (or timeline) behind the owner's existing lock, written
//! on the settle path — never inside a Newton inner loop. Mid-solve
//! events ride the [`SolveBudget`](crate::SolveBudget) progress-callback
//! chain via [`Timeline::note_progress`], so a solve with telemetry off
//! pays exactly the budget's existing `is_unlimited` branch and nothing
//! else.

use std::time::{Duration, Instant};

/// Log-2 buckets starting at 1 µs: bucket `i` holds durations in
/// `(bound(i-1), bound(i)]` nanoseconds with `bound(i) = 1000 << i`.
/// Bucket 39 tops out at ≈ 9.2 minutes; anything longer lands in the
/// overflow bucket, whose "upper bound" for quantile purposes is the
/// largest value actually seen.
const BUCKETS: usize = 40;

/// The smallest bucket's upper bound (nanoseconds).
const FIRST_BOUND_NS: u64 = 1_000;

/// A fixed-allocation latency histogram with logarithmic (log-2)
/// bucket boundaries. See the module docs for the deployment model.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// `buckets[i]` counts samples in `(bound(i-1), bound(i)]`;
    /// `buckets[BUCKETS]` is the overflow bucket.
    buckets: [u64; BUCKETS + 1],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The wire-friendly summary of one histogram: count, mean, p50/p90/p99
/// and max, all in milliseconds (except `count`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean (milliseconds).
    pub mean_ms: f64,
    /// Median (milliseconds, bucket-interpolated).
    pub p50_ms: f64,
    /// 90th percentile (milliseconds, bucket-interpolated).
    pub p90_ms: f64,
    /// 99th percentile (milliseconds, bucket-interpolated).
    pub p99_ms: f64,
    /// Largest sample seen (milliseconds, exact).
    pub max_ms: f64,
}

impl LatencyHistogram {
    /// An empty histogram. Allocation-free; the whole struct is a few
    /// hundred bytes of plain integers.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS + 1],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// The number of finite buckets (the overflow bucket is extra).
    pub const fn bucket_count() -> usize {
        BUCKETS
    }

    /// The inclusive upper bound of finite bucket `i`, in nanoseconds.
    ///
    /// # Panics
    ///
    /// If `i >= bucket_count()`.
    pub fn bucket_bound_ns(i: usize) -> u64 {
        assert!(i < BUCKETS, "bucket {i} out of range");
        FIRST_BOUND_NS << i
    }

    /// The finite bucket a duration of `ns` nanoseconds falls in, or
    /// `bucket_count()` for the overflow bucket. Monotone in `ns`.
    pub fn bucket_index(ns: u64) -> usize {
        if ns <= FIRST_BOUND_NS {
            return 0;
        }
        // Smallest i with ns <= 1000 << i  ⇔  ceil(ns/1000) rounded up
        // to a power of two, read off as its exponent.
        let chunks = ns.div_ceil(FIRST_BOUND_NS);
        let i = usize::try_from(chunks.next_power_of_two().trailing_zeros()).unwrap_or(BUCKETS);
        i.min(BUCKETS)
    }

    /// Records one duration.
    pub fn record(&mut self, elapsed: Duration) {
        self.record_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one duration given directly in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations (nanoseconds, saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Largest recorded duration (nanoseconds; 0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Arithmetic mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds, linearly
    /// interpolated inside the bucket holding the target rank. Exact at
    /// the extremes a scraper cares about: never below 0, never above
    /// the true maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based target rank of the quantile sample.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = if i == 0 {
                    0
                } else {
                    Self::bucket_bound_ns(i.min(BUCKETS) - 1)
                };
                let hi = if i < BUCKETS {
                    Self::bucket_bound_ns(i)
                } else {
                    self.max_ns.max(lo)
                };
                let within = (rank - seen) as f64 / n as f64;
                let est = lo as f64 + (hi - lo) as f64 * within;
                return est.min(self.max_ns as f64);
            }
            seen += n;
        }
        self.max_ns as f64
    }

    /// The p50/p90/p99 summary in milliseconds.
    pub fn summary(&self) -> HistogramSummary {
        const MS: f64 = 1e6;
        HistogramSummary {
            count: self.count,
            mean_ms: self.mean_ns() / MS,
            p50_ms: self.quantile(0.50) / MS,
            p90_ms: self.quantile(0.90) / MS,
            p99_ms: self.quantile(0.99) / MS,
            max_ms: self.max_ns as f64 / MS,
        }
    }

    /// Merges `other` into `self` (cross-shard aggregation). Lossless:
    /// every histogram shares the same bucket boundaries.
    pub fn absorb(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// One typed lifecycle event inside a [`Timeline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimelineEventKind {
    /// The job was accepted by the service.
    Admitted,
    /// The job entered the admission queue (absent for memo hits, which
    /// settle at submit).
    Queued,
    /// The scheduler handed the job's execution to the engine.
    Dispatched,
    /// The solve entered a recovery-ladder rung.
    Rung {
        /// The rung's stage label (`plain`, `gmin_stepping`, …).
        label: &'static str,
    },
    /// A Newton iteration milestone (recorded at powers of two, so a
    /// thousand-iteration solve costs ~10 events, not a thousand).
    Iteration {
        /// The rung the iteration ran under.
        rung: &'static str,
        /// Outer iterations completed in that rung.
        iteration: usize,
        /// Residual norm at the milestone.
        residual: f64,
    },
    /// The job settled. Always the final event; the timeline reserves
    /// its last slot for it.
    Settled {
        /// How it ended: `hit`, `solved`, `failed`, `cancelled` or
        /// `deadline_expired`.
        outcome: &'static str,
    },
}

impl TimelineEventKind {
    /// Stable lowercase label (wire protocols, logs).
    pub fn label(&self) -> &'static str {
        match self {
            TimelineEventKind::Admitted => "admitted",
            TimelineEventKind::Queued => "queued",
            TimelineEventKind::Dispatched => "dispatched",
            TimelineEventKind::Rung { .. } => "rung",
            TimelineEventKind::Iteration { .. } => "iteration",
            TimelineEventKind::Settled { .. } => "settled",
        }
    }
}

/// One recorded event: its kind plus the nanosecond offset from the
/// timeline's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineEvent {
    /// Nanoseconds since the timeline's origin instant.
    pub at_ns: u64,
    /// What happened.
    pub kind: TimelineEventKind,
}

/// A bounded, ordered record of one job's lifecycle. See the module
/// docs; construct with [`Timeline::new`], record with
/// [`Timeline::record`] / [`Timeline::note_progress`], and read back
/// with [`Timeline::events`] (or clone the whole timeline as the
/// retained settled trace).
#[derive(Debug, Clone)]
pub struct Timeline {
    origin: Instant,
    events: Vec<TimelineEvent>,
    capacity: usize,
    dropped: usize,
    /// The rung label most recently seen by [`Timeline::note_progress`]
    /// — consecutive progress snapshots from the same rung record no
    /// duplicate rung event.
    last_rung: Option<&'static str>,
}

impl Timeline {
    /// An empty timeline originating *now*, retaining at most
    /// `capacity` events (clamped ≥ 2 so admitted + settled always
    /// fit).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        Timeline {
            origin: Instant::now(),
            events: Vec::with_capacity(capacity.min(32)),
            capacity,
            dropped: 0,
            last_rung: None,
        }
    }

    /// Records `kind` at the current instant. Non-settle events fill at
    /// most `capacity - 1` slots (overflow counts into
    /// [`Timeline::dropped`]); the reserved final slot means the settle
    /// event is always recorded exactly once.
    pub fn record(&mut self, kind: TimelineEventKind) {
        let at_ns = u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let settle = matches!(kind, TimelineEventKind::Settled { .. });
        let cap = if settle {
            self.capacity
        } else {
            self.capacity - 1
        };
        if self.events.len() >= cap {
            self.dropped += 1;
            return;
        }
        self.events.push(TimelineEvent { at_ns, kind });
    }

    /// Folds one [`SolveProgress`](crate::SolveProgress)-shaped snapshot
    /// into the timeline: a rung event when the stage label changes, and
    /// an iteration milestone at power-of-two iteration counts
    /// (`iteration` 0 announces a rung with no milestone). This is the
    /// budget-observer entry point — bounded output for unbounded
    /// iteration streams.
    pub fn note_progress(&mut self, stage: Option<&'static str>, iteration: usize, residual: f64) {
        let rung = stage.unwrap_or("plain");
        if self.last_rung != Some(rung) {
            self.last_rung = Some(rung);
            self.record(TimelineEventKind::Rung { label: rung });
        }
        if iteration > 0 && iteration.is_power_of_two() {
            self.record(TimelineEventKind::Iteration {
                rung,
                iteration,
                residual,
            });
        }
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Events discarded at capacity.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Whether a settle event has been recorded.
    pub fn is_settled(&self) -> bool {
        matches!(
            self.events.last(),
            Some(TimelineEvent {
                kind: TimelineEventKind::Settled { .. },
                ..
            })
        )
    }

    /// The timeline's origin instant (what `at_ns` offsets are relative
    /// to).
    pub fn origin(&self) -> Instant {
        self.origin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_ms, 0.0);
    }

    #[test]
    fn bucket_bounds_are_strictly_increasing() {
        for i in 1..LatencyHistogram::bucket_count() {
            assert!(
                LatencyHistogram::bucket_bound_ns(i) > LatencyHistogram::bucket_bound_ns(i - 1),
                "bound({i})"
            );
        }
    }

    #[test]
    fn quantiles_bracket_recorded_values() {
        let mut h = LatencyHistogram::new();
        // 100 samples at 1 ms, 10 at 100 ms, 1 at 10 s.
        for _ in 0..100 {
            h.record(Duration::from_millis(1));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(100));
        }
        h.record(Duration::from_secs(10));
        let s = h.summary();
        assert_eq!(s.count, 111);
        // p50 lands in the 1 ms bucket (bounds 0.524–1.05 ms).
        assert!(s.p50_ms <= 1.1, "p50 {}", s.p50_ms);
        // p99 lands in the 100 ms bucket (bounds 67–134 ms).
        assert!(s.p99_ms > 10.0 && s.p99_ms < 140.0, "p99 {}", s.p99_ms);
        assert!((s.max_ms - 10_000.0).abs() < 1e-6);
        // Quantiles never exceed the true maximum.
        assert!(h.quantile(1.0) <= h.max_ns() as f64);
    }

    #[test]
    fn absorb_matches_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut merged = LatencyHistogram::new();
        for (i, ns) in [500u64, 1_500, 80_000, 2_000_000, 700_000_000]
            .iter()
            .enumerate()
        {
            if i % 2 == 0 { &mut a } else { &mut b }.record_ns(*ns);
            merged.record_ns(*ns);
        }
        a.absorb(&b);
        assert_eq!(a.count(), merged.count());
        assert_eq!(a.sum_ns(), merged.sum_ns());
        assert_eq!(a.max_ns(), merged.max_ns());
        assert_eq!(a.quantile(0.5), merged.quantile(0.5));
    }

    proptest! {
        // The log-bucket boundary property: every value lands in the
        // unique bucket whose half-open range contains it, and the
        // index is monotone in the value.
        #[test]
        fn bucket_index_is_consistent_and_monotone(ns in 0u64..u64::MAX / 2, delta in 0u64..1_000_000u64) {
            let i = LatencyHistogram::bucket_index(ns);
            if i < LatencyHistogram::bucket_count() {
                prop_assert!(ns <= LatencyHistogram::bucket_bound_ns(i));
                if i > 0 {
                    prop_assert!(ns > LatencyHistogram::bucket_bound_ns(i - 1));
                }
            } else {
                // Overflow: beyond the last finite bound.
                let last = LatencyHistogram::bucket_count() - 1;
                prop_assert!(ns > LatencyHistogram::bucket_bound_ns(last));
            }
            // Monotonicity: a larger value never lands in a smaller bucket.
            let j = LatencyHistogram::bucket_index(ns.saturating_add(delta));
            prop_assert!(j >= i);
        }

        // Quantiles are monotone in q and bounded by the recorded max.
        #[test]
        fn quantiles_are_monotone_and_bounded(samples in proptest::collection::vec(0u64..10_000_000_000u64, 1..200)) {
            let mut h = LatencyHistogram::new();
            for &ns in &samples {
                h.record_ns(ns);
            }
            let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0];
            let mut prev = 0.0;
            for &q in &qs {
                let v = h.quantile(q);
                prop_assert!(v >= prev - 1e-9, "quantile({q}) regressed");
                prop_assert!(v <= h.max_ns() as f64 + 1e-9);
                prev = v;
            }
        }
    }

    #[test]
    fn timeline_orders_events_and_reserves_the_settle_slot() {
        let mut t = Timeline::new(4);
        t.record(TimelineEventKind::Admitted);
        t.record(TimelineEventKind::Queued);
        t.record(TimelineEventKind::Dispatched);
        // Capacity 4, three non-settle events: the reserved final slot
        // refuses a fourth milestone…
        t.record(TimelineEventKind::Rung { label: "plain" });
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.dropped(), 1);
        // …but always records the settle.
        t.record(TimelineEventKind::Settled { outcome: "solved" });
        assert!(t.is_settled());
        assert_eq!(t.events().len(), 4);
        // Offsets are monotone.
        for w in t.events().windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns);
        }
        let labels: Vec<_> = t.events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(labels, ["admitted", "queued", "dispatched", "settled"]);
    }

    #[test]
    fn note_progress_dedupes_rungs_and_thins_iterations() {
        let mut t = Timeline::new(64);
        // Rung announcement (iteration 0) then iterations 1..=20 in
        // "plain", then a rung change.
        t.note_progress(Some("plain"), 0, f64::INFINITY);
        for i in 1..=20usize {
            t.note_progress(Some("plain"), i, 1.0 / i as f64);
        }
        t.note_progress(Some("gmin_stepping"), 1, 0.5);
        let labels: Vec<_> = t.events().iter().map(|e| e.kind.label()).collect();
        // One "rung" per transition; milestones only at 1,2,4,8,16.
        assert_eq!(
            labels,
            [
                "rung",
                "iteration",
                "iteration",
                "iteration",
                "iteration",
                "iteration",
                "rung",
                "iteration"
            ]
        );
        let milestones: Vec<usize> = t
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TimelineEventKind::Iteration { iteration, .. } => Some(iteration),
                _ => None,
            })
            .collect();
        assert_eq!(milestones, [1, 2, 4, 8, 16, 1]);
    }
}
