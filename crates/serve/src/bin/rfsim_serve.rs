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

fn parse_args() -> Args {
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
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--store-capacity" => {
                args.config.store_capacity = value("--store-capacity").parse().expect("capacity")
            }
            "--queue-capacity" => {
                args.config.queue_capacity = value("--queue-capacity").parse().expect("capacity")
            }
            "--shards" => args.config.shards = value("--shards").parse().expect("shards"),
            "--threads" => {
                args.config.threads = value("--threads").parse().expect("threads");
                args.explicit_threads = true;
            }
            "--batch-max" => args.config.batch_max = value("--batch-max").parse().expect("batch"),
            "--quant-digits" => {
                args.config.quantizer =
                    Quantizer::new(value("--quant-digits").parse().expect("digits"))
            }
            "--default-deadline-ms" => {
                args.config.default_deadline_ms =
                    Some(value("--default-deadline-ms").parse().expect("deadline"))
            }
            "--frontend-workers" => {
                args.frontend.workers = value("--frontend-workers").parse().expect("workers")
            }
            "--max-inflight" => {
                args.frontend.max_inflight = value("--max-inflight").parse().expect("cap")
            }
            "--slow-log-ms" => {
                args.config.slow_log_ms = Some(value("--slow-log-ms").parse().expect("threshold"))
            }
            "--no-telemetry" => args.config.telemetry = false,
            "--trace-capacity" => {
                args.config.trace_capacity = value("--trace-capacity").parse().expect("capacity")
            }
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
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    // `threads` is per-shard. Without an explicit override, divide the
    // machine's parallelism across the shards instead of oversubscribing
    // shards × default-threads workers.
    if !args.explicit_threads && args.config.shards > 1 {
        args.config.threads = (args.config.threads / args.config.shards.max(1)).max(1);
    }
    args
}

fn main() {
    let args = parse_args();
    let service = SimService::start(args.config.clone());
    let families = service.family_names().join(", ");
    let server = WireServer::start_with(service, &*args.addr, args.frontend)
        .unwrap_or_else(|e| panic!("binding {}: {e}", args.addr));
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
}
