//! Benchmark harness and figure-regeneration support for the DAC 2002
//! reproduction.
//!
//! Every table and figure of the paper has a regeneration binary under
//! `src/bin/` (run with `cargo run --release -p rfsim-bench --bin figN`);
//! the `bench_gate` binary is the CI regression gate (see
//! `docs/benching.md`). CSV outputs land in `target/repro/`. The experiment-to-binary map is in `DESIGN.md` §4
//! and measured results are recorded in `EXPERIMENTS.md`.

pub mod doclinks;
pub mod gate;
pub mod output;
pub mod paper;
