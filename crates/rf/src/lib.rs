//! RF measurement layer for the DAC 2002 reproduction.
//!
//! Post-processing the paper's evaluation needs on top of MPDE solutions:
//!
//! * [`bits`] — PRBS generators and bit-envelope construction.
//! * [`measure`] — conversion gain, harmonic distortion (HD2/HD3/THD),
//!   dB/dBm helpers, adjacent-channel power.
//! * [`eye`] — eye diagrams and ISI metrics over baseband envelopes.
//! * [`sweep`] — warm-started parameter sweeps (amplitude → compression)
//!   and the batched multi-topology [`sweep::SweepEngine`]: independent
//!   jobs grouped by circuit structure, executed on a hand-rolled worker
//!   pool.
//! * [`key`] — quantised [`key::JobKey`]s for cross-batch solution
//!   memoisation: the identity the `rfsim-serve` solution store keys on.
//! * [`lru`] — the bounded, tag-evictable [`lru::TaggedLru`] that store
//!   keeps its entries in.
//! * [`pool`] — the fixed-thread [`pool::WorkerPool`] behind the engine.
//!
//! See `docs/architecture.md` for how this crate sits in the ten-crate
//! stack and how the fingerprint → key → memo data flow composes.

#![deny(missing_docs)]

pub mod bits;
pub mod eye;
pub mod key;
pub mod lru;
pub mod measure;
pub mod pool;
pub mod sweep;
