//! The rfsim benchmark: three workloads that stress different layers, one
//! JSON result line per run. See `perfbench/NOTES.md` for what each
//! workload and metric is for.
//!
//! Runs depend only on the product crates' public APIs. An untraced run
//! reports the end-to-end metrics; a traced run (`--trace 1`) times the
//! benchmark's own calls into each layer, reports the per-layer metrics
//! and writes its spans under `.bench_build/perfbench-spans/`.

pub mod measure;
pub mod mixer;
pub mod replay;
pub mod report;
pub mod serve;
pub mod shoot;
pub mod trace;

use std::path::PathBuf;
use std::time::Duration;

use report::Report;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["fig4_mixer", "shooting_baseline", "serve_mixed"];

/// The workloads whose output checks compare against a stored reference.
pub const REFERENCE_WORKLOADS: &[&str] = &["fig4_mixer", "shooting_baseline"];

/// Usage text for argument errors.
pub const USAGE: &str = "usage: perfbench --workload <fig4_mixer|shooting_baseline|serve_mixed> \
--seed <n> --seconds <s> --trace <0|1> [--corrupt]\n       \
perfbench --write-reference <fig4_mixer|shooting_baseline> <path>";

/// One run's settings.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the run measures (s).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Corrupt every op's output before its check (tests the checks).
    pub corrupt: bool,
}

impl RunConfig {
    /// The measuring window.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one workload.
    Run(RunConfig),
    /// Regenerate a solver workload's stored reference at a path.
    WriteReference {
        /// `fig4_mixer` or `shooting_baseline`.
        workload: String,
        /// Where the reference is written.
        path: PathBuf,
    },
}

impl Command {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// Unknown, missing or malformed arguments.
    pub fn parse(args: &[String]) -> Result<Command, String> {
        if let [flag, workload, path] = args {
            if flag == "--write-reference" {
                if !REFERENCE_WORKLOADS.contains(&workload.as_str()) {
                    return Err(format!("no stored reference for {workload}"));
                }
                return Ok(Command::WriteReference {
                    workload: workload.clone(),
                    path: PathBuf::from(path),
                });
            }
        }
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut corrupt = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--corrupt" {
                corrupt = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .map_err(|e| format!("--seconds: {e}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(1.0..=600.0).contains(&seconds) {
            return Err("--seconds must be in [1, 600]".into());
        }
        Ok(Command::Run(RunConfig {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            corrupt,
        }))
    }
}

/// Whether two sample vectors are bit-identical.
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Where a traced run writes its spans (relative to the working directory).
pub fn spans_path(cfg: &RunConfig) -> PathBuf {
    PathBuf::from(format!(
        ".bench_build/perfbench-spans/{}-seed{}.jsonl",
        cfg.workload, cfg.seed
    ))
}

/// Regenerates `workload`'s stored reference at `path`.
///
/// # Errors
///
/// Build or solve failures, or an unwritable path.
pub fn write_reference(workload: &str, path: &std::path::Path) -> Result<(), String> {
    match workload {
        "fig4_mixer" => mixer::write_reference(path),
        _ => shoot::write_reference(path),
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures (a missing corpus file, a failed build, a port that
/// cannot be bound) and span-file write failures.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    if !cfg.trace {
        return match cfg.workload.as_str() {
            "fig4_mixer" => mixer::run(cfg),
            "shooting_baseline" => shoot::run(cfg),
            _ => serve::run(cfg),
        };
    }
    let (report, tracer) = match cfg.workload.as_str() {
        "fig4_mixer" => mixer::run_traced(cfg)?,
        "shooting_baseline" => shoot::run_traced(cfg)?,
        _ => serve::run_traced(cfg)?,
    };
    let path = spans_path(cfg);
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let cmd = Command::parse(&args(
            "--workload serve_mixed --seed 4 --seconds 10 --trace 1",
        ));
        assert_eq!(
            cmd,
            Ok(Command::Run(RunConfig {
                workload: "serve_mixed".into(),
                seed: 4,
                seconds: 10.0,
                trace: true,
                corrupt: false,
            }))
        );
    }

    #[test]
    fn parses_a_reference_request() {
        assert_eq!(
            Command::parse(&args("--write-reference shooting_baseline out.txt")),
            Ok(Command::WriteReference {
                workload: "shooting_baseline".into(),
                path: PathBuf::from("out.txt"),
            })
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fig4_mixer --seconds 1 --trace 0",
            "--workload fig4_mixer --seed 1 --seconds 1 --trace 2",
            "--workload fig4_mixer --seed 1 --seconds 1 --trace 0 --extra 1",
            "--write-reference serve_mixed out.txt",
        ] {
            assert!(Command::parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
