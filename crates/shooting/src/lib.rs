//! Periodic steady-state (PSS) baselines: shooting and 1-D periodic
//! finite-difference collocation.
//!
//! These are the "traditional time-domain approaches" the paper compares
//! against (§3, *Computational speedup*): Newton shooting across one period
//! with a dense monodromy matrix — applied to the *difference-frequency*
//! period for closely spaced tones, which forces ~10 time steps per LO
//! period × the full difference period, i.e. hundreds of thousands of
//! steps — and the 1-D collocation solver that the MPDE engine generalises
//! to two time axes.

pub mod periodic_fd;
pub mod shooting;

pub use periodic_fd::{
    periodic_fd_pss, periodic_fd_pss_budgeted, PeriodicFdOptions, PeriodicFdResult,
};
pub use shooting::{
    difference_period_steps, shooting_pss, shooting_pss_budgeted, ShootingOptions, ShootingResult,
};
