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

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rfsim_serve::client::ServeClient;
use rfsim_serve::spec::{BackendKind, JobSpec, Priority};

fn parse_list(text: &str) -> Vec<f64> {
    text.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap_or_else(|_| panic!("bad number '{s}'")))
        .collect()
}

struct JobFlags {
    spec: JobSpec,
    expect_memo: bool,
    expect_solve: bool,
    timeout: Duration,
}

fn parse_job_flags(it: &mut impl Iterator<Item = String>) -> JobFlags {
    let mut flags = JobFlags {
        spec: JobSpec::mpde("rc_lowpass", 1e6, vec![0.1], vec![10e3]),
        expect_memo: false,
        expect_solve: false,
        timeout: Duration::from_secs(300),
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--family" => flags.spec.family = value("--family"),
            "--backend" => {
                let label = value("--backend");
                flags.spec.backend = BackendKind::parse(&label)
                    .unwrap_or_else(|| panic!("unknown backend '{label}'"));
            }
            "--f1" => flags.spec.f1 = value("--f1").parse().expect("f1"),
            "--amplitudes" => flags.spec.amplitudes = parse_list(&value("--amplitudes")),
            "--spacings" => flags.spec.spacings = parse_list(&value("--spacings")),
            "--n1" => flags.spec.n1 = value("--n1").parse().expect("n1"),
            "--n2" => flags.spec.n2 = value("--n2").parse().expect("n2"),
            "--priority" => {
                let label = value("--priority");
                flags.spec.priority =
                    Priority::parse(&label).unwrap_or_else(|| panic!("unknown priority '{label}'"));
            }
            "--timeout-s" => {
                flags.timeout = Duration::from_secs(value("--timeout-s").parse().expect("timeout"))
            }
            "--deadline-ms" => {
                flags.spec.deadline_ms = Some(value("--deadline-ms").parse().expect("deadline"))
            }
            "--expect-memo" => flags.expect_memo = true,
            "--expect-solve" => flags.expect_solve = true,
            other => panic!("unknown job flag {other}"),
        }
    }
    flags
}

fn main() -> ExitCode {
    let mut it = std::env::args().skip(1).peekable();
    let mut addr = "127.0.0.1:4520".to_string();
    if it.peek().map(String::as_str) == Some("--addr") {
        it.next();
        addr = it.next().expect("--addr needs a value");
    }
    let command = it.next().unwrap_or_else(|| {
        eprintln!(
            "usage: rfsim-client [--addr HOST:PORT] \
             <run|submit|submit-netlist|poll|cancel|stats|metrics|trace|evict|shutdown> …"
        );
        std::process::exit(2);
    });
    let mut client =
        ServeClient::connect(&*addr).unwrap_or_else(|e| panic!("connecting to {addr}: {e}"));

    match command.as_str() {
        "submit" => {
            let flags = parse_job_flags(&mut it);
            let id = client
                .submit(&flags.spec)
                .unwrap_or_else(|e| panic!("submit: {e}"));
            println!("job_id={id}");
            ExitCode::SUCCESS
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
                let mut value =
                    |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
                match flag.as_str() {
                    "--file" => file = Some(value("--file")),
                    "--priority" => {
                        let label = value("--priority");
                        priority = Priority::parse(&label)
                            .unwrap_or_else(|| panic!("unknown priority '{label}'"));
                    }
                    "--deadline-ms" => {
                        deadline_ms = Some(value("--deadline-ms").parse().expect("deadline"))
                    }
                    "--timeout-s" => {
                        timeout =
                            Duration::from_secs(value("--timeout-s").parse().expect("timeout"))
                    }
                    "--no-wait" => wait = false,
                    "--expect-memo" => expect_memo = true,
                    "--expect-solve" => expect_solve = true,
                    other => panic!("unknown submit-netlist flag {other}"),
                }
            }
            let file = file.unwrap_or_else(|| panic!("submit-netlist needs --file"));
            let text =
                std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("reading {file}: {e}"));
            let t0 = Instant::now();
            let (id, family) = match client.submit_netlist(&text, priority, deadline_ms) {
                Ok(ok) => ok,
                Err(e) => {
                    eprintln!("refused: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if !wait {
                println!("job_id={id} family={family}");
                return ExitCode::SUCCESS;
            }
            let outcome = client
                .wait(id, timeout)
                .unwrap_or_else(|e| panic!("wait: {e}"));
            let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
            if outcome.status != "done" {
                eprintln!(
                    "FAIL: job {id} {} ({})",
                    outcome.status,
                    outcome.error.as_deref().unwrap_or("no error reported")
                );
                return ExitCode::FAILURE;
            }
            let result = outcome.result.as_ref().expect("done outcome has a result");
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
            if expect_memo && !outcome.memo_hit {
                eprintln!("FAIL: expected a memo hit, got a fresh solve");
                return ExitCode::FAILURE;
            }
            if expect_solve && outcome.memo_hit {
                eprintln!("FAIL: expected a fresh solve, got a memo hit");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let flags = parse_job_flags(&mut it);
            let t0 = Instant::now();
            let (id, outcome) = client
                .run(&flags.spec, flags.timeout)
                .unwrap_or_else(|e| panic!("run: {e}"));
            let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
            let result = outcome.result.as_ref().expect("done outcome has a result");
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
            if flags.expect_memo && !outcome.memo_hit {
                eprintln!("FAIL: expected a memo hit, got a fresh solve");
                return ExitCode::FAILURE;
            }
            if flags.expect_solve && outcome.memo_hit {
                eprintln!("FAIL: expected a fresh solve, got a memo hit");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        "poll" => {
            let mut job = None;
            let mut wait_ms = 0u64;
            let mut show_progress = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--job" => job = Some(it.next().expect("--job id").parse().expect("job id")),
                    "--wait-ms" => {
                        wait_ms = it.next().expect("--wait-ms value").parse().expect("wait")
                    }
                    "--progress" => show_progress = true,
                    other => panic!("unknown poll flag {other}"),
                }
            }
            let outcome = client
                .poll(job.expect("poll needs --job"), wait_ms)
                .unwrap_or_else(|e| panic!("poll: {e}"));
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
            ExitCode::SUCCESS
        }
        "cancel" => {
            let mut job = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--job" => job = Some(it.next().expect("--job id").parse().expect("job id")),
                    // A bare positional id works too: `cancel 7`.
                    other => {
                        job = Some(
                            other
                                .parse()
                                .unwrap_or_else(|_| panic!("unknown cancel flag {other}")),
                        )
                    }
                }
            }
            let status = client
                .cancel(job.expect("cancel needs a job id"))
                .unwrap_or_else(|e| panic!("cancel: {e}"));
            println!("status={status}");
            ExitCode::SUCCESS
        }
        "stats" => {
            let mut assert_min_hits = None;
            let mut per_shard = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--assert-min-hits" => {
                        assert_min_hits =
                            Some(it.next().expect("value").parse::<f64>().expect("count"))
                    }
                    "--per-shard" => per_shard = true,
                    other => panic!("unknown stats flag {other}"),
                }
            }
            let stats = client.stats().unwrap_or_else(|e| panic!("stats: {e}"));
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
                    return ExitCode::FAILURE;
                }
                println!("OK: store hits {hits} >= {min}");
            }
            ExitCode::SUCCESS
        }
        "metrics" => {
            let mut json = false;
            let mut require: Vec<String> = Vec::new();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--json" => json = true,
                    "--require" => require.extend(
                        it.next()
                            .expect("--require names")
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(str::to_string),
                    ),
                    other => panic!("unknown metrics flag {other}"),
                }
            }
            if json {
                let stats = client
                    .metrics_json()
                    .unwrap_or_else(|e| panic!("metrics: {e}"));
                println!("{}", stats.dump());
                return ExitCode::SUCCESS;
            }
            let text = client.metrics().unwrap_or_else(|e| panic!("metrics: {e}"));
            // Validate the exposition shape before printing: every
            // non-comment line is `name{labels} value`.
            for line in text.lines() {
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let Some((series, value)) = line.rsplit_once(' ') else {
                    eprintln!("FAIL: malformed sample line: {line}");
                    return ExitCode::FAILURE;
                };
                if value.parse::<f64>().is_err() || series.is_empty() {
                    eprintln!("FAIL: malformed sample line: {line}");
                    return ExitCode::FAILURE;
                }
            }
            print!("{text}");
            for name in &require {
                let found = text.lines().any(|line| {
                    line.split(['{', ' ']).next() == Some(name.as_str()) && !line.starts_with('#')
                });
                if !found {
                    eprintln!("FAIL: required series '{name}' missing from exposition");
                    return ExitCode::FAILURE;
                }
            }
            if !require.is_empty() {
                println!("OK: all {} required series present", require.len());
            }
            ExitCode::SUCCESS
        }
        "trace" => {
            let mut job = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--job" => job = Some(it.next().expect("--job id").parse().expect("job id")),
                    // A bare positional id works too: `trace 7`.
                    other => {
                        job = Some(
                            other
                                .parse()
                                .unwrap_or_else(|_| panic!("unknown trace flag {other}")),
                        )
                    }
                }
            }
            let trace = client
                .trace(job.expect("trace needs a job id"))
                .unwrap_or_else(|e| panic!("trace: {e}"));
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
                if let rfsim_numerics::json::Json::Object(members) = event {
                    for (key, value) in members {
                        if key == "event" || key == "t_ms" {
                            continue;
                        }
                        extras.push_str(&format!(" {key}={}", value.dump()));
                    }
                }
                println!("  +{t_ms:.3}ms {label}{extras}");
            }
            ExitCode::SUCCESS
        }
        "evict" => {
            let mut family = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--family" => family = Some(it.next().expect("--family name")),
                    other => panic!("unknown evict flag {other}"),
                }
            }
            let evicted = client
                .evict(family.as_deref())
                .unwrap_or_else(|e| panic!("evict: {e}"));
            println!("evicted={evicted}");
            ExitCode::SUCCESS
        }
        "shutdown" => {
            client
                .shutdown()
                .unwrap_or_else(|e| panic!("shutdown: {e}"));
            println!("shutdown acknowledged");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!(
                "unknown command '{other}' (run|submit|submit-netlist|poll|cancel|stats|metrics|trace|evict|shutdown)"
            );
            ExitCode::FAILURE
        }
    }
}
