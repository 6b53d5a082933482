//! The `rfsim-serve`, `rfsim-client` and `fuzz-smoke` binaries end bad
//! input with a one-line usage error (exit code 2) and a refused
//! connection with a failure (exit code 1), never with a panic. No test
//! here starts a daemon or a fuzz loop.

use std::net::TcpListener;
use std::process::{Command, Output};

const SERVE: &str = env!("CARGO_BIN_EXE_rfsim-serve");
const CLIENT: &str = env!("CARGO_BIN_EXE_rfsim-client");
const FUZZ: &str = env!("CARGO_BIN_EXE_fuzz-smoke");

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let Output { status, stderr, .. } = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    (status.code(), stderr)
}

#[test]
fn serve_rejects_an_unknown_flag_with_a_usage_error() {
    let (code, stderr) = run(SERVE, &["--retry-max", "2"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--retry-max"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

#[test]
fn serve_rejects_an_unparsable_or_missing_value() {
    let (code, stderr) = run(SERVE, &["--shards", "abc"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--shards"), "{stderr}");
    let (code, stderr) = run(SERVE, &["--threads"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--threads"), "{stderr}");
}

#[test]
fn client_reports_a_refused_connection_without_panicking() {
    // Bind an ephemeral port and release it, so nothing listens there.
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("ephemeral port")
        .to_string();
    let (code, stderr) = run(CLIENT, &["--addr", &addr, "stats"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains(&addr), "{stderr}");
}

#[test]
fn client_rejects_bad_input_before_connecting() {
    // Nothing listens on port 1; a usage error must come first.
    for args in [
        &["--addr", "127.0.0.1:1", "run", "--backend", "spice"][..],
        &["--addr", "127.0.0.1:1", "submit", "--priority", "urgent"],
        &["--addr", "127.0.0.1:1", "run", "--n1", "many"],
        &["--addr", "127.0.0.1:1", "poll", "--job"],
        &["--addr", "127.0.0.1:1", "stats", "--retried"],
        &["--addr", "127.0.0.1:1", "launch"],
        &[],
    ] {
        let (code, stderr) = run(CLIENT, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
    }
}

#[test]
fn fuzz_smoke_rejects_bad_input_with_a_usage_error() {
    for (args, named) in [
        (&["--bogus"][..], "--bogus"),
        (&["--iters"], "--iters"),
        (&["--iters", "abc"], "--iters"),
        (&["--seed", "-1"], "--seed"),
    ] {
        let (code, stderr) = run(FUZZ, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
    }
}
