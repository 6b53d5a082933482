//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its metrics, the last line being the JSON
//! result.

use std::process::ExitCode;

use perfbench::measure::host_cpu_ticks;
use perfbench::{Command, USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Command::parse(&args) {
        Ok(Command::Run(cfg)) => cfg,
        Ok(Command::WriteReference { workload, path }) => {
            return match perfbench::write_reference(&workload, &path) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ticks_before = host_cpu_ticks();
    match perfbench::run(&cfg) {
        Ok(report) => {
            println!(
                "perfbench workload={} seed={} seconds={} trace={}",
                cfg.workload,
                cfg.seed,
                cfg.seconds,
                u8::from(cfg.trace)
            );
            for (name, unit, value) in report.metrics.entries() {
                println!("  {name:<34} {value:>14.6} {unit}");
            }
            let tally = report.tally;
            println!(
                "  ops attempted {} failed {} failed_frac {}",
                tally.attempted,
                tally.failed,
                tally.failed as f64 / tally.attempted.max(1) as f64
            );
            if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, host_cpu_ticks()) {
                let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
                println!("  host steal {:.1}% of CPU time", 100.0 * share);
            }
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            ExitCode::FAILURE
        }
    }
}
