//! The `bench_gate` and `doc_links` binaries end bad input with a
//! one-line usage error (exit code 2), never with a panic. No test here
//! starts a gate measurement.

use std::process::{Command, Output};

const GATE: &str = env!("CARGO_BIN_EXE_bench_gate");
const DOC_LINKS: &str = env!("CARGO_BIN_EXE_doc_links");

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let Output { status, stderr, .. } = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    (status.code(), stderr)
}

#[test]
fn bad_input_ends_with_a_one_line_usage_error() {
    for (bin, args, flag) in [
        (GATE, &["--bogus"][..], "--bogus"),
        (GATE, &["--tolerance", "abc"], "--tolerance"),
        (GATE, &["--reps"], "--reps"),
        (DOC_LINKS, &["--bogus"], "--bogus"),
        (DOC_LINKS, &["--root"], "--root"),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(flag), "{bin} {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
    }
}
