//! Pseudo-random bit sequences and the BPSK envelope decoder.

/// Maximal-length LFSR (PRBS) generator.
///
/// Supported orders and taps (x^n + x^k + 1):
/// 7 → (7,6), 9 → (9,5), 15 → (15,14), 23 → (23,18), 31 → (31,28).
#[derive(Debug, Clone)]
pub struct Prbs {
    state: u32,
    order: u32,
    tap: u32,
}

impl Prbs {
    /// Creates a PRBS generator of the given order with a non-zero seed.
    ///
    /// # Panics
    ///
    /// Panics for unsupported orders.
    pub fn new(order: u32, seed: u32) -> Self {
        let tap = match order {
            7 => 6,
            9 => 5,
            15 => 14,
            23 => 18,
            31 => 28,
            _ => panic!("unsupported PRBS order {order} (use 7, 9, 15, 23, 31)"),
        };
        let mask = (1u32 << order) - 1;
        let state = (seed & mask).max(1);
        Prbs { state, order, tap }
    }

    /// Next bit of the sequence.
    pub fn next_bit(&mut self) -> bool {
        let new = ((self.state >> (self.order - 1)) ^ (self.state >> (self.tap - 1))) & 1;
        self.state = ((self.state << 1) | new) & ((1u32 << self.order) - 1);
        new == 1
    }

    /// Collects the next `n` bits.
    pub fn take_bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next_bit()).collect()
    }

    /// Period of the maximal-length sequence (`2^order − 1`).
    pub fn period(&self) -> usize {
        (1usize << self.order) - 1
    }
}

/// Decodes bits from a baseband envelope that still carries the residual
/// difference-frequency tone: `env(u) ≈ A·m(u)·cos(2πu + φ)` over one slow
/// period (`u ∈ [0,1)`).
///
/// Coherently demodulates with the estimated carrier phase, integrates per
/// bit slot with a |cos|² weight, and thresholds. The leading bit's sign is
/// ambiguous in BPSK; the convention here resolves the overall polarity so
/// that the *majority* carrier phase matches `φ` from the fundamental bin,
/// which recovers patterns whose first decoded bit may be inverted — callers
/// comparing to a known pattern should also check the complement.
pub fn decode_bpsk_envelope(samples: &[f64], num_bits: usize) -> Vec<bool> {
    let n = samples.len();
    if n == 0 || num_bits == 0 {
        return vec![false; num_bits];
    }
    // Per-bit matched-filter correlations at a trial carrier phase.
    let correlate = |phi: f64| -> Vec<f64> {
        (0..num_bits)
            .map(|k| {
                let mut acc = 0.0;
                let mut weight = 0.0;
                let lo = k * n / num_bits;
                let hi = ((k + 1) * n / num_bits).min(n);
                for j in lo..hi {
                    let u = j as f64 / n as f64;
                    let carrier = (2.0 * std::f64::consts::PI * u + phi).cos();
                    acc += samples[j] * carrier;
                    weight += carrier * carrier;
                }
                if weight > 0.0 {
                    acc / weight
                } else {
                    0.0
                }
            })
            .collect()
    };
    // The fundamental-bin phase is corrupted by the bit pattern's own
    // sidebands, so search a coarse phase grid for the most decisive
    // demodulation (largest total correlation magnitude). The π-periodic
    // polarity ambiguity is inherent to BPSK.
    let mut best: Option<(f64, Vec<f64>)> = None;
    for step in 0..32 {
        let phi = std::f64::consts::PI * step as f64 / 32.0;
        let corr = correlate(phi);
        let score: f64 = corr.iter().map(|c| c.abs()).sum();
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, corr));
        }
    }
    best.expect("at least one phase tried")
        .1
        .iter()
        .map(|&c| c >= 0.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prbs7_has_full_period() {
        let mut p = Prbs::new(7, 1);
        let period = p.period();
        assert_eq!(period, 127);
        let bits = p.take_bits(period);
        // Maximal-length property: 64 ones, 63 zeros.
        let ones = bits.iter().filter(|&&b| b).count();
        assert_eq!(ones, 64);
        // Sequence repeats after one period.
        let mut q = Prbs::new(7, 1);
        let first = q.take_bits(period);
        let second = q.take_bits(period);
        assert_eq!(first, second);
    }

    #[test]
    fn different_seeds_shift_sequence() {
        let a = Prbs::new(9, 1).take_bits(50);
        let b = Prbs::new(9, 77).take_bits(50);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn bad_order_panics() {
        let _ = Prbs::new(4, 1);
    }

    #[test]
    fn zero_seed_coerced_nonzero() {
        // An all-zero LFSR state would lock up; the constructor prevents it.
        let mut p = Prbs::new(7, 0);
        let bits = p.take_bits(20);
        assert!(bits.iter().any(|&b| b) || bits.iter().any(|&b| !b));
        assert!(bits.iter().any(|&b| b), "sequence is not stuck at zero");
    }

    #[test]
    fn bpsk_roundtrip_decode() {
        use std::f64::consts::PI;
        let pattern = vec![true, false, true, true];
        let env = rfsim_circuit::Envelope::bits(pattern.clone(), 0.05);
        let phi = 0.9;
        // Down-converted signal: bits on the residual fd carrier.
        let samples: Vec<f64> = (0..240)
            .map(|k| {
                let u = k as f64 / 240.0;
                0.3 * env.eval(u) * (2.0 * PI * u + phi).cos()
            })
            .collect();
        let decoded = decode_bpsk_envelope(&samples, 4);
        let inverted: Vec<bool> = decoded.iter().map(|b| !b).collect();
        assert!(
            decoded == pattern || inverted == pattern,
            "decoded {decoded:?} (or complement) should match {pattern:?}"
        );
    }

    #[test]
    fn bpsk_decode_empty_input() {
        assert_eq!(decode_bpsk_envelope(&[], 3), vec![false; 3]);
    }
}
