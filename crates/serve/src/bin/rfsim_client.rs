//! The `rfsim-client` CLI: drives a running `rfsim-serve` daemon.
//!
//! ```text
//! rfsim-client --addr 127.0.0.1:4520 run --family rc_lowpass \
//!     --backend mpde --f1 1e6 --amplitudes 0.1,0.2 --spacings 10e3,20e3 \
//!     --n1 16 --n2 8 [--priority high] [--deadline-ms 5000] \
//!     [--expect-memo] [--expect-solve]
//! rfsim-client --addr … submit …      # same job flags, returns the id
//! rfsim-client --addr … submit-netlist --file x.rfn [--priority high] \
//!     [--deadline-ms 5000] [--no-wait] [--expect-memo] [--expect-solve]
//! rfsim-client --addr … poll --job 7 [--wait-ms 500] [--progress]
//! rfsim-client --addr … cancel --job 7
//! rfsim-client --addr … stats [--assert-min-hits N] [--per-shard]
//! rfsim-client --addr … metrics [--json] [--require name1,name2,…]
//! rfsim-client --addr … trace --job 7
//! rfsim-client --addr … evict [--family rc_lowpass]
//! rfsim-client --addr … shutdown
//! ```
//!
//! `run` submits, waits, and prints one summary line ending in
//! `digest=<hex> memo_hit=<bool>` — the smoke scripts compare digests
//! across runs to assert bit-identical replay.
//!
//! Bad input (an unknown command or flag, a missing or unparsable value,
//! an unknown backend or priority) prints one line on stderr and exits
//! with code 2 before connecting. A refused connection, a failed request
//! or a failed `--expect-*`/`--assert-*` check exits with code 1.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

use rfsim_numerics::json::Json;
use rfsim_serve::client::ServeClient;
use rfsim_serve::spec::{BackendKind, JobSpec, Priority};

/// Why the client stops before its command completes.
enum Stop {
    /// Bad input: exit code 2.
    Usage(String),
    /// A refused connection or a failed request: exit code 1.
    Failed(String),
}

type Cli<T> = Result<T, Stop>;

/// The value after `flag`.
fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Cli<String> {
    it.next()
        .ok_or_else(|| Stop::Usage(format!("{flag} needs a value")))
}

/// The value after `flag`, parsed.
fn parsed<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> Cli<T> {
    let text = value(it, flag)?;
    text.parse()
        .map_err(|_| Stop::Usage(format!("{flag}: cannot parse '{text}'")))
}

/// Turns a request's error into a [`Stop::Failed`] naming the request.
fn failed<E: Display>(request: &str) -> impl FnOnce(E) -> Stop + '_ {
    move |e| Stop::Failed(format!("{request}: {e}"))
}

/// The comma-separated numbers after `flag`.
fn parsed_list(it: &mut impl Iterator<Item = String>, flag: &str) -> Cli<Vec<f64>> {
    value(it, flag)?
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|_| Stop::Usage(format!("{flag}: bad number '{s}'")))
        })
        .collect()
}

/// The priority after `--priority`.
fn parsed_priority(it: &mut impl Iterator<Item = String>) -> Cli<Priority> {
    let label = value(it, "--priority")?;
    Priority::parse(&label).ok_or_else(|| Stop::Usage(format!("unknown priority '{label}'")))
}

fn connect(addr: &str) -> Cli<ServeClient> {
    ServeClient::connect(addr).map_err(|e| Stop::Failed(format!("connecting to {addr}: {e}")))
}

/// The job id of `cancel` and `trace`: `--job ID` or a bare positional
/// id (`cancel 7`).
fn parse_job(it: &mut impl Iterator<Item = String>, command: &str) -> Cli<u64> {
    let mut job = None;
    while let Some(flag) = it.next() {
        job = Some(match flag.as_str() {
            "--job" => parsed(it, "--job")?,
            other => other
                .parse()
                .map_err(|_| Stop::Usage(format!("unknown {command} flag {other}")))?,
        });
    }
    job.ok_or_else(|| Stop::Usage(format!("{command} needs a job id")))
}

struct JobFlags {
    spec: JobSpec,
    expect_memo: bool,
    expect_solve: bool,
    timeout: Duration,
}

fn parse_job_flags(it: &mut impl Iterator<Item = String>) -> Cli<JobFlags> {
    let mut flags = JobFlags {
        spec: JobSpec::mpde("rc_lowpass", 1e6, vec![0.1], vec![10e3]),
        expect_memo: false,
        expect_solve: false,
        timeout: Duration::from_secs(300),
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--family" => flags.spec.family = value(it, "--family")?,
            "--backend" => {
                let label = value(it, "--backend")?;
                flags.spec.backend = BackendKind::parse(&label)
                    .ok_or_else(|| Stop::Usage(format!("unknown backend '{label}'")))?;
            }
            "--f1" => flags.spec.f1 = parsed(it, "--f1")?,
            "--amplitudes" => flags.spec.amplitudes = parsed_list(it, "--amplitudes")?,
            "--spacings" => flags.spec.spacings = parsed_list(it, "--spacings")?,
            "--n1" => flags.spec.n1 = parsed(it, "--n1")?,
            "--n2" => flags.spec.n2 = parsed(it, "--n2")?,
            "--priority" => flags.spec.priority = parsed_priority(it)?,
            "--timeout-s" => flags.timeout = Duration::from_secs(parsed(it, "--timeout-s")?),
            "--deadline-ms" => flags.spec.deadline_ms = Some(parsed(it, "--deadline-ms")?),
            "--expect-memo" => flags.expect_memo = true,
            "--expect-solve" => flags.expect_solve = true,
            other => return Err(Stop::Usage(format!("unknown job flag {other}"))),
        }
    }
    Ok(flags)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(Stop::Usage(msg)) => {
            eprintln!("rfsim-client: {msg}");
            ExitCode::from(2)
        }
        Err(Stop::Failed(msg)) => {
            eprintln!("rfsim-client: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the command and its flags, then connects and runs it.
fn run() -> Cli<ExitCode> {
    let mut it = std::env::args().skip(1).peekable();
    let mut addr = "127.0.0.1:4520".to_string();
    if it.peek().map(String::as_str) == Some("--addr") {
        it.next();
        addr = value(&mut it, "--addr")?;
    }
    let Some(command) = it.next() else {
        return Err(Stop::Usage(
            "usage: rfsim-client [--addr HOST:PORT] \
             <run|submit|submit-netlist|poll|cancel|stats|metrics|trace|evict|shutdown> …"
                .into(),
        ));
    };

    match command.as_str() {
        "submit" => {
            let flags = parse_job_flags(&mut it)?;
            let id = connect(&addr)?
                .submit(&flags.spec)
                .map_err(failed("submit"))?;
            println!("job_id={id}");
            Ok(ExitCode::SUCCESS)
        }
        "submit-netlist" => {
            let mut file = None;
            let mut priority = Priority::Normal;
            let mut deadline_ms = None;
            let mut wait = true;
            let mut timeout = Duration::from_secs(300);
            let mut expect_memo = false;
            let mut expect_solve = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--file" => file = Some(value(&mut it, "--file")?),
                    "--priority" => priority = parsed_priority(&mut it)?,
                    "--deadline-ms" => deadline_ms = Some(parsed(&mut it, "--deadline-ms")?),
                    "--timeout-s" => timeout = Duration::from_secs(parsed(&mut it, "--timeout-s")?),
                    "--no-wait" => wait = false,
                    "--expect-memo" => expect_memo = true,
                    "--expect-solve" => expect_solve = true,
                    other => return Err(Stop::Usage(format!("unknown submit-netlist flag {other}"))),
                }
            }
            let file = file.ok_or_else(|| Stop::Usage("submit-netlist needs --file".into()))?;
            let text = std::fs::read_to_string(&file)
                .map_err(|e| Stop::Failed(format!("reading {file}: {e}")))?;
            let mut client = connect(&addr)?;
            let t0 = Instant::now();
            let (id, family) = match client.submit_netlist(&text, priority, deadline_ms) {
                Ok(ok) => ok,
                Err(e) => {
                    eprintln!("refused: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            if !wait {
                println!("job_id={id} family={family}");
                return Ok(ExitCode::SUCCESS);
            }
            let outcome = client.wait(id, timeout).map_err(failed("wait"))?;
            let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
            if outcome.status != "done" {
                eprintln!(
                    "FAIL: job {id} {} ({})",
                    outcome.status,
                    outcome.error.as_deref().unwrap_or("no error reported")
                );
                return Ok(ExitCode::FAILURE);
            }
            let result = outcome
                .result
                .as_ref()
                .ok_or_else(|| Stop::Failed(format!("job {id} is done but has no result")))?;
            let digest = outcome
                .digest
                .clone()
                .unwrap_or_else(|| format!("{:016x}", result.digest()));
            println!(
                "job_id={id} family={family} points={} samples={} elapsed_ms={elapsed_ms:.1} \
                 digest={digest} memo_hit={}",
                result.points.len(),
                result.num_samples(),
                outcome.memo_hit,
            );
            Ok(expectations(expect_memo, expect_solve, outcome.memo_hit))
        }
        "run" => {
            let flags = parse_job_flags(&mut it)?;
            let mut client = connect(&addr)?;
            let t0 = Instant::now();
            let (id, outcome) = client
                .run(&flags.spec, flags.timeout)
                .map_err(failed("run"))?;
            let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
            let result = outcome
                .result
                .as_ref()
                .ok_or_else(|| Stop::Failed(format!("job {id} is done but has no result")))?;
            let digest = outcome
                .digest
                .clone()
                .unwrap_or_else(|| format!("{:016x}", result.digest()));
            println!(
                "job_id={id} points={} samples={} elapsed_ms={elapsed_ms:.1} \
                 digest={digest} memo_hit={}",
                result.points.len(),
                result.num_samples(),
                outcome.memo_hit,
            );
            Ok(expectations(
                flags.expect_memo,
                flags.expect_solve,
                outcome.memo_hit,
            ))
        }
        "poll" => {
            let mut job = None;
            let mut wait_ms = 0u64;
            let mut show_progress = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--job" => job = Some(parsed(&mut it, "--job")?),
                    "--wait-ms" => wait_ms = parsed(&mut it, "--wait-ms")?,
                    "--progress" => show_progress = true,
                    other => return Err(Stop::Usage(format!("unknown poll flag {other}"))),
                }
            }
            let job = job.ok_or_else(|| Stop::Usage("poll needs --job".into()))?;
            let outcome = connect(&addr)?
                .poll(job, wait_ms)
                .map_err(failed("poll"))?;
            match (&outcome.status[..], &outcome.digest) {
                ("done", Some(digest)) => {
                    println!("status=done memo_hit={} digest={digest}", outcome.memo_hit)
                }
                _ => println!(
                    "status={}{}{}{}",
                    outcome.status,
                    outcome
                        .error
                        .map(|e| format!(" error={e}"))
                        .unwrap_or_default(),
                    outcome
                        .interrupt_reason
                        .map(|r| format!(" interrupted={r}"))
                        .unwrap_or_default(),
                    outcome
                        .progress
                        .filter(|_| show_progress)
                        .map(|p| format!(
                            " rung={} iteration={}{}",
                            p.rung,
                            p.iteration,
                            p.best_residual
                                .map(|r| format!(" best_residual={r:.3e}"))
                                .unwrap_or_default()
                        ))
                        .unwrap_or_default()
                ),
            }
            Ok(ExitCode::SUCCESS)
        }
        "cancel" => {
            let job = parse_job(&mut it, "cancel")?;
            let status = connect(&addr)?.cancel(job).map_err(failed("cancel"))?;
            println!("status={status}");
            Ok(ExitCode::SUCCESS)
        }
        "stats" => {
            let mut assert_min_hits = None;
            let mut per_shard = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--assert-min-hits" => {
                        assert_min_hits = Some(parsed::<f64>(&mut it, "--assert-min-hits")?)
                    }
                    "--per-shard" => per_shard = true,
                    other => return Err(Stop::Usage(format!("unknown stats flag {other}"))),
                }
            }
            let stats = connect(&addr)?.stats().map_err(failed("stats"))?;
            println!("{}", stats.dump());
            if per_shard {
                let shards = stats.array_at("shards").unwrap_or_default();
                println!("shard_count={}", shards.len());
                for shard in shards {
                    let n = |path: &str| shard.number_at(path).unwrap_or(0.0);
                    let mut totals = [0.0f64; 4]; // submitted, memo_hits, completed, cancelled
                    if let Some(queues) = shard.path("queues") {
                        for backend in ["mpde", "hb2", "periodic_fd"] {
                            totals[0] += queues
                                .number_at(&format!("{backend}.submitted"))
                                .unwrap_or(0.0);
                            totals[1] += queues
                                .number_at(&format!("{backend}.memo_hits"))
                                .unwrap_or(0.0);
                            totals[2] += queues
                                .number_at(&format!("{backend}.completed"))
                                .unwrap_or(0.0);
                            totals[3] += queues
                                .number_at(&format!("{backend}.cancelled"))
                                .unwrap_or(0.0);
                        }
                    }
                    println!(
                        "shard={} store_len={} store_hit_rate={:.3} queue_depth={} \
                         submitted={} memo_hits={} completed={} cancelled={} \
                         rungs={}/{}",
                        n("shard"),
                        n("store.len"),
                        n("store.hit_rate"),
                        n("queue.depth"),
                        totals[0],
                        totals[1],
                        totals[2],
                        totals[3],
                        n("engine.rung_successes"),
                        n("engine.rung_attempts"),
                    );
                }
            }
            if let Some(min) = assert_min_hits {
                let hits = stats.number_at("store.hits").unwrap_or(0.0);
                if hits < min {
                    eprintln!("FAIL: store hits {hits} below required minimum {min}");
                    return Ok(ExitCode::FAILURE);
                }
                println!("OK: store hits {hits} >= {min}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "metrics" => {
            let mut json = false;
            let mut require: Vec<String> = Vec::new();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--json" => json = true,
                    "--require" => require.extend(
                        value(&mut it, "--require")?
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(str::to_string),
                    ),
                    other => return Err(Stop::Usage(format!("unknown metrics flag {other}"))),
                }
            }
            let mut client = connect(&addr)?;
            if json {
                let stats = client.metrics_json().map_err(failed("metrics"))?;
                println!("{}", stats.dump());
                return Ok(ExitCode::SUCCESS);
            }
            let text = client.metrics().map_err(failed("metrics"))?;
            // Validate the exposition shape before printing: every
            // non-comment line is `name{labels} value`.
            for line in text.lines() {
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let Some((series, value)) = line.rsplit_once(' ') else {
                    eprintln!("FAIL: malformed sample line: {line}");
                    return Ok(ExitCode::FAILURE);
                };
                if value.parse::<f64>().is_err() || series.is_empty() {
                    eprintln!("FAIL: malformed sample line: {line}");
                    return Ok(ExitCode::FAILURE);
                }
            }
            print!("{text}");
            for name in &require {
                let found = text.lines().any(|line| {
                    line.split(['{', ' ']).next() == Some(name.as_str()) && !line.starts_with('#')
                });
                if !found {
                    eprintln!("FAIL: required series '{name}' missing from exposition");
                    return Ok(ExitCode::FAILURE);
                }
            }
            if !require.is_empty() {
                println!("OK: all {} required series present", require.len());
            }
            Ok(ExitCode::SUCCESS)
        }
        "trace" => {
            let job = parse_job(&mut it, "trace")?;
            let trace = connect(&addr)?.trace(job).map_err(failed("trace"))?;
            println!(
                "job={} settled={} events={} dropped={}",
                trace.number_at("job_id").unwrap_or(0.0),
                trace.bool_at("settled").unwrap_or(false),
                trace.array_at("events").map(|e| e.len()).unwrap_or(0),
                trace.number_at("dropped").unwrap_or(0.0),
            );
            for event in trace.array_at("events").unwrap_or_default() {
                let label = event.string_at("event").unwrap_or("?");
                let t_ms = event.number_at("t_ms").unwrap_or(0.0);
                let mut extras = String::new();
                if let Json::Object(members) = event {
                    for (key, value) in members {
                        if key == "event" || key == "t_ms" {
                            continue;
                        }
                        extras.push_str(&format!(" {key}={}", field_text(value)));
                    }
                }
                println!("  +{t_ms:.3}ms {label}{extras}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "evict" => {
            let mut family = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--family" => family = Some(value(&mut it, "--family")?),
                    other => return Err(Stop::Usage(format!("unknown evict flag {other}"))),
                }
            }
            let evicted = connect(&addr)?
                .evict(family.as_deref())
                .map_err(failed("evict"))?;
            println!("evicted={evicted}");
            Ok(ExitCode::SUCCESS)
        }
        "shutdown" => {
            connect(&addr)?.shutdown().map_err(failed("shutdown"))?;
            println!("shutdown acknowledged");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(Stop::Usage(format!(
            "unknown command '{other}' (run|submit|submit-netlist|poll|cancel|stats|metrics|trace|evict|shutdown)"
        ))),
    }
}

/// One trace-event field as `trace` prints it: an integral number as an
/// integer (`iteration=3`), any other number in Rust's shortest
/// scientific form (`residual=8.558810434879679e-21`), anything else as
/// its JSON (`rung="plain"`).
fn field_text(value: &Json) -> String {
    match value {
        Json::Number(x) if x.fract() == 0.0 && x.abs() < 1e15 => format!("{x}"),
        Json::Number(x) => format!("{x:e}"),
        other => other.dump(),
    }
}

/// The exit code of a settled job against `--expect-memo`/`--expect-solve`.
fn expectations(expect_memo: bool, expect_solve: bool, memo_hit: bool) -> ExitCode {
    if expect_memo && !memo_hit {
        eprintln!("FAIL: expected a memo hit, got a fresh solve");
        return ExitCode::FAILURE;
    }
    if expect_solve && memo_hit {
        eprintln!("FAIL: expected a fresh solve, got a memo hit");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_fields_print_integers_and_short_scientific_numbers() {
        assert_eq!(field_text(&Json::Number(3.0)), "3");
        assert_eq!(field_text(&Json::Number(0.0)), "0");
        assert_eq!(
            field_text(&Json::Number(8.558810434879679e-21)),
            "8.558810434879679e-21"
        );
        assert_eq!(field_text(&Json::Number(4.3e-13)), "4.3e-13");
        assert_eq!(field_text(&Json::Number(2.5)), "2.5e0");
        assert_eq!(field_text(&Json::Number(1e300)), "1e300");
        assert_eq!(field_text(&Json::String("plain".into())), "\"plain\"");
        assert_eq!(field_text(&Json::Bool(true)), "true");
    }
}
