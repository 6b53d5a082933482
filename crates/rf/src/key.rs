//! Quantised job keys for the `rfsim-serve` solution store.
//!
//! A sweep service that wants to serve a repeated request from a solution
//! store needs a stable key for "the same job". The serve layer names the
//! circuit by its hosted family and that family's registration epoch; the
//! *values* (amplitudes, tone spacings, grid dimensions) are `f64`s that
//! may arrive from a wire protocol, a dashboard slider or a config file —
//! textually different spellings of the same physical request. The
//! [`Quantizer`] collapses values that agree to a configurable number of
//! significant decimal digits onto one bucket, and the [`JobKeyBuilder`]
//! folds the tokens and quantised parameters into an FNV-1a hash.
//!
//! Quantisation is a *routing* choice: two requests that land in the same
//! bucket are served the same stored solution, so the digit count bounds
//! how far a served answer can sit from the requested parameters (default:
//! 12 significant digits, far below any physical tolerance in the paper's
//! workloads, far above f64 noise from wire round-trips).

/// Buckets `f64` parameter values by significant decimal digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    sig_digits: u8,
}

impl Default for Quantizer {
    fn default() -> Self {
        Quantizer::new(Self::DEFAULT_SIG_DIGITS)
    }
}

impl Quantizer {
    /// Default significant-digit budget: tight enough that physically
    /// distinct sweep parameters never merge, loose enough that a value's
    /// shortest-round-trip wire spelling re-quantises onto itself.
    pub const DEFAULT_SIG_DIGITS: u8 = 12;

    /// A quantiser keeping `sig_digits` significant decimal digits
    /// (clamped to `1..=17`).
    pub fn new(sig_digits: u8) -> Self {
        Quantizer {
            sig_digits: sig_digits.clamp(1, 17),
        }
    }

    /// The configured significant-digit count.
    pub fn sig_digits(&self) -> u8 {
        self.sig_digits
    }

    /// The canonical spelling of `v`'s bucket: scientific notation with
    /// `sig_digits` significant digits, with `-0` folded onto `0` and
    /// non-finite values spelled out. Two values quantise equal iff their
    /// canonical spellings match.
    pub fn canonical(&self, v: f64) -> String {
        if !v.is_finite() {
            return format!("{v}");
        }
        let v = if v == 0.0 { 0.0 } else { v };
        format!("{:.*e}", usize::from(self.sig_digits) - 1, v)
    }

    /// The bucket of `v` as a hashable token.
    pub fn bucket(&self, v: f64) -> u64 {
        fnv1a_bytes(FNV_OFFSET, self.canonical(v).as_bytes())
    }
}

/// The FNV-1a offset basis — the seed for [`fnv1a_bytes`] chains.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// One FNV-1a absorption step: folds `bytes` into the running hash `h`
/// (seed with [`FNV_OFFSET`]). Shared by the key builder and the serve
/// layer's result digests so the workspace carries one hash definition.
pub fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A stable identity for a memoised sweep job: identifying tokens folded
/// with quantised job parameters.
///
/// This is a 64-bit hash, so it is a routing key: a collision serves a
/// stored solution for a different request, so consumers that cannot
/// tolerate that (none of the current ones) must verify payload metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(u64);

impl JobKey {
    /// The raw hash value (diagnostics, wire encoding).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Accumulates a [`JobKey`] from a job's identifying tokens and
/// parameters. Push order matters and is part of the key's contract.
#[derive(Debug, Clone)]
pub struct JobKeyBuilder {
    h: u64,
    quantizer: Quantizer,
}

impl JobKeyBuilder {
    /// Starts an empty key whose `f64` parameters quantise by `quantizer`.
    pub fn new(quantizer: Quantizer) -> Self {
        JobKeyBuilder {
            h: FNV_OFFSET,
            quantizer,
        }
    }

    /// Folds a raw integer token (grid dimension, backend discriminant).
    #[must_use]
    pub fn push_u64(mut self, v: u64) -> Self {
        self.h = fnv1a_bytes(self.h, &v.to_le_bytes());
        self
    }

    /// Folds a textual token (family name, backend label).
    #[must_use]
    pub fn push_str(mut self, s: &str) -> Self {
        self.h = fnv1a_bytes(self.h, &(s.len() as u64).to_le_bytes());
        self.h = fnv1a_bytes(self.h, s.as_bytes());
        self
    }

    /// Folds one quantised `f64` parameter.
    #[must_use]
    pub fn push_f64(mut self, v: f64) -> Self {
        let bucket = self.quantizer.bucket(v);
        self.h = fnv1a_bytes(self.h, &bucket.to_le_bytes());
        self
    }

    /// Folds a slice of quantised `f64` parameters (length included, so
    /// `[a, b] ++ [c]` never collides with `[a] ++ [b, c]`).
    #[must_use]
    pub fn push_f64s(mut self, vs: &[f64]) -> Self {
        self.h = fnv1a_bytes(self.h, &(vs.len() as u64).to_le_bytes());
        for &v in vs {
            self = self.push_f64(v);
        }
        self
    }

    /// The finished key.
    pub fn finish(self) -> JobKey {
        JobKey(self.h)
    }
}

/// Rendezvous (highest-random-weight) routing of a key onto one of
/// `shards` slots.
///
/// Every `(key, shard)` pair gets a deterministic FNV-1a weight and the
/// key lands on the shard with the highest weight. Unlike `key % shards`,
/// re-sharding moves a *minimal* key range: growing from `n` to `n + 1`
/// shards relocates only the keys whose new shard's weight beats their
/// old maximum — an expected `1 / (n + 1)` fraction — and every relocated
/// key moves *to* the new shard; keys between surviving shards never
/// reshuffle. The serve tier routes on this so a growing pool keeps most
/// stored solutions on the shard that already holds them.
///
/// `shards == 0` is treated as 1 (a pool always has at least one shard).
/// Ties (vanishingly unlikely with 64-bit weights) break toward the lower
/// shard index, deterministically.
pub fn rendezvous_route(key: JobKey, shards: usize) -> usize {
    let shards = shards.max(1);
    let seed = fnv1a_bytes(FNV_OFFSET, &key.as_u64().to_le_bytes());
    let mut best = 0usize;
    let mut best_weight = 0u64;
    for shard in 0..shards {
        let weight = fnv1a_bytes(seed, &(shard as u64).to_le_bytes());
        if shard == 0 || weight > best_weight {
            best = shard;
            best_weight = weight;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantizer_merges_wire_noise_and_splits_real_differences() {
        let q = Quantizer::default();
        // A shortest-round-trip spelling re-parses to the identical f64,
        // so its bucket is trivially stable.
        let v = 0.1234567890123456;
        let rt: f64 = format!("{v}").parse().expect("roundtrip");
        assert_eq!(q.bucket(v), q.bucket(rt));
        // Noise beyond 12 significant digits merges…
        assert_eq!(q.bucket(1.0), q.bucket(1.0 + 1e-13));
        // …while differences a dashboard could ask for stay distinct.
        assert_ne!(q.bucket(1.0), q.bucket(1.0 + 1e-9));
        assert_ne!(q.bucket(10e3), q.bucket(20e3));
        // Signed zero folds onto zero; sign otherwise matters.
        assert_eq!(q.bucket(0.0), q.bucket(-0.0));
        assert_ne!(q.bucket(0.5), q.bucket(-0.5));
    }

    #[test]
    fn quantizer_digit_budget_is_adjustable() {
        let coarse = Quantizer::new(3);
        assert_eq!(coarse.bucket(1.0001), coarse.bucket(1.0002));
        let fine = Quantizer::new(8);
        assert_ne!(fine.bucket(1.0001), fine.bucket(1.0002));
        // Clamped to a sane range.
        assert_eq!(Quantizer::new(0).sig_digits(), 1);
        assert_eq!(Quantizer::new(40).sig_digits(), 17);
    }

    #[test]
    fn job_keys_depend_on_every_component() {
        let q = Quantizer::default();
        let key = |family: &str, epoch: u64, n1: u64, amplitudes: &[f64]| {
            JobKeyBuilder::new(q)
                .push_str(family)
                .push_u64(epoch)
                .push_u64(n1)
                .push_f64s(amplitudes)
                .finish()
        };
        let base = key("rc_lowpass", 1, 16, &[0.1, 0.2]);
        assert_eq!(base, key("rc_lowpass", 1, 16, &[0.1, 0.2]));
        assert_ne!(base, key("diode", 1, 16, &[0.1, 0.2]));
        assert_ne!(base, key("rc_lowpass", 2, 16, &[0.1, 0.2]));
        assert_ne!(base, key("rc_lowpass", 1, 32, &[0.1, 0.2]));
        assert_ne!(base, key("rc_lowpass", 1, 16, &[0.1, 0.3]));
    }

    #[test]
    fn rendezvous_routing_is_deterministic_and_covers_all_shards() {
        let q = Quantizer::default();
        let key_of = |i: u64| JobKeyBuilder::new(q).push_u64(i).finish();
        let shards = 4;
        let mut seen = vec![0usize; shards];
        for i in 0..4096 {
            let k = key_of(i);
            let route = rendezvous_route(k, shards);
            assert_eq!(route, rendezvous_route(k, shards), "stable per key");
            assert!(route < shards);
            seen[route] += 1;
        }
        // FNV weights spread uniformly enough that no shard starves.
        for (shard, count) in seen.iter().enumerate() {
            assert!(*count > 4096 / shards / 4, "shard {shard} got {count}");
        }
        // Degenerate pool sizes collapse sanely.
        assert_eq!(rendezvous_route(key_of(7), 0), 0);
        assert_eq!(rendezvous_route(key_of(7), 1), 0);
    }

    #[test]
    fn rendezvous_resharding_moves_a_minimal_key_range() {
        let q = Quantizer::default();
        let keys: Vec<JobKey> = (0..4096u64)
            .map(|i| JobKeyBuilder::new(q).push_u64(i).finish())
            .collect();
        for n in 1..8usize {
            let mut moved = 0usize;
            for &k in &keys {
                let before = rendezvous_route(k, n);
                let after = rendezvous_route(k, n + 1);
                if before != after {
                    // Every relocated key lands on the new shard only.
                    assert_eq!(after, n, "key may only move to the added shard");
                    moved += 1;
                }
            }
            // Expected movement is |keys| / (n + 1); allow 2x headroom.
            let expected = keys.len() / (n + 1);
            assert!(
                moved <= expected * 2,
                "grow {n}->{} moved {moved} keys (expected ~{expected})",
                n + 1
            );
            assert!(moved > 0, "growth must rebalance something");
        }
    }

    #[test]
    fn slice_lengths_are_part_of_the_key() {
        let q = Quantizer::default();
        let k1 = JobKeyBuilder::new(q)
            .push_f64s(&[1.0, 2.0])
            .push_f64s(&[3.0])
            .finish();
        let k2 = JobKeyBuilder::new(q)
            .push_f64s(&[1.0])
            .push_f64s(&[2.0, 3.0])
            .finish();
        assert_ne!(k1, k2);
    }
}
