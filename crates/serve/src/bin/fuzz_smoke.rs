//! Deterministic fuzz smoke — the CI stand-in for a coverage-guided
//! fuzzer, with zero dependencies.
//!
//! Hammers the repo's three text frontiers with seeded pseudo-random
//! input and asserts none of them panic:
//!
//! * the `.rfn` netlist parser (byte mutations of valid seeds, token
//!   soup, and structured random netlists — the latter must also
//!   round-trip through their canonical text),
//! * the JSON parser behind the wire protocol,
//! * the wire `Request` parser (mutated valid requests and raw JSON).
//!
//! Every case is a pure function of `--seed`, so a CI failure reproduces
//! locally from the printed iteration number alone:
//!
//! ```sh
//! fuzz-smoke --iters 100000 --seed 42
//! ```
//!
//! A panic anywhere crashes the process — the CI job's only pass
//! criterion is a clean exit with the final `ok` line. An unknown flag or
//! a missing or unparsable value prints one stderr line and exits with
//! code 2 before any case runs.

use std::process::ExitCode;
use std::str::FromStr;

use rfsim_netlist::fuzz::{mutate, random_netlist, random_token_soup, XorShift64};
use rfsim_netlist::Netlist;
use rfsim_numerics::json::Json;
use rfsim_serve::wire::Request;

/// Valid netlists used as mutation bases — one per analysis directive.
const NETLIST_SEEDS: [&str; 5] = [
    "V V1 in gnd dc 1\nR R1 in out 1k\nR R2 out gnd 2k\n.analysis dcop\n",
    "V V1 in gnd sine amp=1 freq=1M phase=0 offset=0\nR R1 in out 1k\nC C1 out gnd 160p\n\
     .analysis transient tstop=2u dt=10n\n",
    "V V1 in gnd drive\nR R1 in out 1k\nC C1 out gnd 160p\n.sweep amplitudes=0.5,1 spacings=1k\n\
     .analysis mpde f1=1M n1=8 n2=4\n",
    "V V1 in gnd drive\nR R1 in out 1k\nD D1 out gnd is=1e-14 n=1 cj0=0 tt=0\n\
     C C1 out gnd 1n\n.sweep amplitudes=1 spacings=1k\n.analysis hb2 f1=1M n1=8 n2=4\n",
    "V V1 in gnd drive\nR R1 in out 1k\nC C1 out gnd 1n\n.sweep amplitudes=1\n\
     .analysis periodic_fd f1=1M n1=16\n",
];

/// Valid wire lines used as mutation bases — one per verb shape.
const WIRE_SEEDS: [&str; 6] = [
    r#"{"verb":"submit","job":{"family":"rc_lowpass","backend":"mpde","f1":1000000,"amplitudes":[0.1],"spacings":[10000],"n1":8,"n2":4,"priority":"normal"}}"#,
    r#"{"verb":"submit_netlist","netlist":"V V1 in gnd drive\nR R1 in out 1k\n.sweep amplitudes=1 spacings=1k\n.analysis mpde f1=1M n1=8 n2=4\n","priority":"high","deadline_ms":5000}"#,
    r#"{"verb":"poll","job_id":7,"wait_ms":250}"#,
    r#"{"verb":"stats"}"#,
    r#"{"verb":"evict","family":"netlist:0123456789abcdef"}"#,
    r#"{"verb":"metrics","format":"json"}"#,
];

fn exercise_netlist(text: &str) {
    // Ok or a typed error that Displays — either way, no panic.
    match Netlist::parse(text) {
        Ok(netlist) => {
            let _ = netlist.family_name();
            let canon = netlist.canonical();
            let reparsed = Netlist::parse(&canon)
                .unwrap_or_else(|e| panic!("canonical text must reparse, got '{e}':\n{canon}"));
            assert_eq!(reparsed, netlist, "canonical round trip changed the AST");
        }
        Err(e) => {
            let _ = e.to_string();
        }
    }
}

fn exercise_wire(line: &str) {
    if let Ok(request) = Request::parse(line) {
        // A parsed request must dump to a line that reparses to itself.
        let dumped = request.dump();
        let again = Request::parse(&dumped)
            .unwrap_or_else(|e| panic!("dump must reparse, got '{e}': {dumped}"));
        assert_eq!(again, request, "wire round trip changed the request");
    }
}

/// The value after `flag`, parsed.
fn parsed<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String> {
    let text = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse '{text}'"))
}

fn main() -> ExitCode {
    let mut iters: u64 = 100_000;
    let mut seed: u64 = 0x5eed_f00d;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let usage = match flag.as_str() {
            "--iters" => parsed(&mut argv, "--iters").map(|v| iters = v),
            "--seed" => parsed(&mut argv, "--seed").map(|v| seed = v),
            "--help" | "-h" => {
                println!("usage: fuzz-smoke [--iters N] [--seed S]");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag {other} (try --help)")),
        };
        if let Err(msg) = usage {
            eprintln!("fuzz-smoke: {msg}");
            return ExitCode::from(2);
        }
    }

    let mut rng = XorShift64::new(seed);
    let mut parsed_ok = 0u64;
    for i in 0..iters {
        match i % 5 {
            // Byte mutations of valid netlists: the parser sees
            // near-miss input, the hardest rejection path.
            0 => {
                let base = NETLIST_SEEDS[rng.below(NETLIST_SEEDS.len())];
                let edits = 1 + rng.below(12);
                let mutated = mutate(&mut rng, base.as_bytes(), edits);
                exercise_netlist(&String::from_utf8_lossy(&mutated));
            }
            // Token soup: structurally plausible garbage.
            1 => exercise_netlist(&random_token_soup(&mut rng)),
            // Structured random netlists: always valid, so this arm
            // also proves the canonical round trip at volume.
            2 => {
                let netlist = random_netlist(&mut rng);
                exercise_netlist(&netlist.canonical());
                parsed_ok += 1;
            }
            // Mutated wire lines through the JSON and Request parsers.
            3 => {
                let base = WIRE_SEEDS[rng.below(WIRE_SEEDS.len())];
                let edits = 1 + rng.below(8);
                let mutated = mutate(&mut rng, base.as_bytes(), edits);
                let text = String::from_utf8_lossy(&mutated);
                if let Err(e) = Json::parse(&text) {
                    let _ = e.to_string();
                }
                exercise_wire(&text);
            }
            // Raw byte soup straight into the JSON parser.
            _ => {
                let edits = 1 + rng.below(24);
                let soup = mutate(&mut rng, b"{}", edits);
                let text = String::from_utf8_lossy(&soup);
                if let Err(e) = Json::parse(&text) {
                    let _ = e.to_string();
                }
                exercise_wire(&text);
            }
        }
        if i > 0 && i % 100_000 == 0 {
            eprintln!("… {i}/{iters}");
        }
    }
    println!("ok: {iters} iterations, {parsed_ok} structured round trips, 0 panics");
    ExitCode::SUCCESS
}
