//! The `rfsim-serve` daemon: a memoising steady-state simulation service
//! over TCP.
//!
//! ```text
//! rfsim-serve [--addr 127.0.0.1:4520] [--store-capacity 256]
//!             [--queue-capacity 1024] [--shards N] [--threads N]
//!             [--batch-max 16] [--quant-digits 12]
//!             [--default-deadline-ms MS] [--frontend-workers N]
//!             [--max-inflight N] [--slow-log-ms MS] [--no-telemetry]
//!             [--trace-capacity N]
//! ```
//!
//! Binds the address (port 0 picks an ephemeral port; the chosen address
//! is printed), serves the line-delimited JSON protocol (see
//! `docs/serving.md`), and exits on the `shutdown` verb. `--shards N`
//! runs N independent engine shards (see `docs/scaling.md` for sizing);
//! when `--threads` is not given, the default worker count is divided
//! across the shards so the total stays at the machine's parallelism.
//!
//! An unknown flag or a missing or unparsable value prints one line on
//! stderr and exits with code 2; an address that cannot be bound exits
//! with code 1.

use std::process::ExitCode;
use std::str::FromStr;

use rfsim_rf::key::Quantizer;
use rfsim_rf::pool::WorkerPool;
use rfsim_serve::service::{ServeConfig, SimService};
use rfsim_serve::wire::{FrontEndConfig, WireServer};

struct Args {
    addr: String,
    config: ServeConfig,
    frontend: FrontEndConfig,
    explicit_threads: bool,
}

/// The value after `flag`, parsed.
fn parsed<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String> {
    let text = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse '{text}'"))
}

/// Parses the command line; the error is a one-line usage message.
fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:4520".into(),
        config: ServeConfig {
            threads: WorkerPool::from_available_parallelism().threads(),
            ..Default::default()
        },
        frontend: FrontEndConfig::default(),
        explicit_threads: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let it = &mut it;
        match flag.as_str() {
            "--addr" => args.addr = parsed(it, "--addr")?,
            "--store-capacity" => args.config.store_capacity = parsed(it, "--store-capacity")?,
            "--queue-capacity" => args.config.queue_capacity = parsed(it, "--queue-capacity")?,
            "--shards" => args.config.shards = parsed(it, "--shards")?,
            "--threads" => {
                args.config.threads = parsed(it, "--threads")?;
                args.explicit_threads = true;
            }
            "--batch-max" => args.config.batch_max = parsed(it, "--batch-max")?,
            "--quant-digits" => {
                args.config.quantizer = Quantizer::new(parsed(it, "--quant-digits")?)
            }
            "--default-deadline-ms" => {
                args.config.default_deadline_ms = Some(parsed(it, "--default-deadline-ms")?)
            }
            "--frontend-workers" => args.frontend.workers = parsed(it, "--frontend-workers")?,
            "--max-inflight" => args.frontend.max_inflight = parsed(it, "--max-inflight")?,
            "--slow-log-ms" => args.config.slow_log_ms = Some(parsed(it, "--slow-log-ms")?),
            "--no-telemetry" => args.config.telemetry = false,
            "--trace-capacity" => args.config.trace_capacity = parsed(it, "--trace-capacity")?,
            "--help" | "-h" => {
                println!(
                    "rfsim-serve: memoising steady-state simulation daemon\n\
                     flags: --addr HOST:PORT --store-capacity N --queue-capacity N \
                     --shards N --threads N --batch-max N --quant-digits N \
                     --default-deadline-ms MS --frontend-workers N --max-inflight N \
                     --slow-log-ms MS --no-telemetry --trace-capacity N"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    // `threads` is per-shard. Without an explicit override, divide the
    // machine's parallelism across the shards instead of oversubscribing
    // shards × default-threads workers.
    if !args.explicit_threads && args.config.shards > 1 {
        args.config.threads = (args.config.threads / args.config.shards.max(1)).max(1);
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("rfsim-serve: {msg}");
            return ExitCode::from(2);
        }
    };
    let service = SimService::start(args.config.clone());
    let families = service.family_names().join(", ");
    let server = match WireServer::start_with(service, &*args.addr, args.frontend) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("rfsim-serve: binding {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    // The smoke scripts wait for this exact line before connecting.
    println!("rfsim-serve listening on {}", server.local_addr());
    println!(
        "  families: {families}\n  store capacity: {}  queue capacity: {}  shards: {}  \
         threads/shard: {}\n  frontend workers: {}  max inflight/conn: {}",
        args.config.store_capacity,
        args.config.queue_capacity,
        args.config.shards.max(1),
        args.config.threads,
        args.frontend.workers.max(1),
        args.frontend.max_inflight.max(1),
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.join();
    println!("rfsim-serve: shutdown complete");
    ExitCode::SUCCESS
}
