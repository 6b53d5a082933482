//! Short runs of every workload through the real command line: each run
//! emits every metric with its unit, the names match `BENCHMARK.json`, and
//! deliberately corrupted outputs count as failed ops.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build solves the 40×30 grid very slowly).

use std::path::PathBuf;
use std::process::Command;

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::WORKLOADS;
use rfsim_numerics::json::Json;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// Runs the benchmark from the repository root and parses its last line.
fn run(workload: &str, seed: u64, trace: bool, corrupt: bool) -> Json {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(repo_root()).args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "1",
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if corrupt {
        cmd.arg("--corrupt");
    }
    let out = cmd.output().expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"))
}

fn count(result: &Json, key: &str) -> f64 {
    result
        .number_at(key)
        .unwrap_or_else(|| panic!("result lacks '{key}'"))
}

/// Checks a result carries exactly `catalogue`, each with its unit.
fn assert_metrics(result: &Json, catalogue: &[(&str, &str)], what: &str) {
    let Some(Json::Object(metrics)) = result.get("metrics") else {
        panic!("{what}: no metrics object");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected, "{what}: metric names");
    for ((name, unit), (_, metric)) in catalogue.iter().zip(metrics) {
        let value = metric.number_at("value");
        assert!(value.is_some_and(f64::is_finite), "{what}: {name} value");
        assert_eq!(metric.string_at("unit"), Some(*unit), "{what}: {name} unit");
    }
}

fn assert_clean(result: &Json, what: &str) {
    assert_eq!(result.bool_at("correct"), Some(true), "{what}: correct");
    assert!(count(result, "attempted") >= 1.0, "{what}: attempted");
    assert_eq!(count(result, "failed"), 0.0, "{what}: failed");
}

#[test]
fn benchmark_json_names_match_the_catalogue() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
        spec.array_at(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|entry| {
                fields
                    .iter()
                    .map(|f| entry.string_at(f).unwrap_or_default().to_string())
                    .collect()
            })
            .collect()
    };
    let pairs = |catalogue: &[(&str, &str)]| -> Vec<Vec<String>> {
        catalogue
            .iter()
            .map(|(n, u)| vec![n.to_string(), u.to_string()])
            .collect()
    };
    assert_eq!(listed("end_to_end", &["name", "unit"]), pairs(END_TO_END));
    assert_eq!(listed("per_layer", &["name", "unit"]), pairs(PER_LAYER));
    let workloads: Vec<String> = listed("workloads", &["name"]).concat();
    assert_eq!(workloads, WORKLOADS);
    let setup = spec
        .array_at("end_to_end")
        .and_then(|m| m.iter().find(|e| e.string_at("name") == Some("setup_s")))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.string_at("better"), Some("lower"));
}

#[test]
fn fig4_mixer_smoke() {
    let plain = run("fig4_mixer", 101, false, false);
    assert_clean(&plain, "fig4_mixer");
    assert_metrics(&plain, END_TO_END, "fig4_mixer");
    let traced = run("fig4_mixer", 101, true, false);
    assert_clean(&traced, "fig4_mixer traced");
    assert_metrics(&traced, PER_LAYER, "fig4_mixer traced");
    // Metric names contain dots, so look them up directly rather than
    // through a dotted path. One solve's children are priced by a single
    // replay, so a one-second run only checks that they account for most
    // of the span; a 30-second run's median is the number to compare with
    // the 90 % coverage target.
    let coverage = traced
        .get("metrics")
        .and_then(|m| m.get("newton.coverage"))
        .and_then(|m| m.number_at("value"));
    assert!(
        coverage.is_some_and(|c| (0.5..1.5).contains(&c)),
        "measured children cover most of newton.solve: {coverage:?}"
    );
}

#[test]
fn shooting_baseline_smoke() {
    let plain = run("shooting_baseline", 102, false, false);
    assert_clean(&plain, "shooting_baseline");
    assert_metrics(&plain, END_TO_END, "shooting_baseline");
    let traced = run("shooting_baseline", 102, true, false);
    assert_clean(&traced, "shooting_baseline traced");
    assert_metrics(&traced, PER_LAYER, "shooting_baseline traced");
}

#[test]
fn serve_mixed_smoke() {
    let plain = run("serve_mixed", 103, false, false);
    assert_clean(&plain, "serve_mixed");
    assert_metrics(&plain, END_TO_END, "serve_mixed");
    let traced = run("serve_mixed", 103, true, false);
    assert_clean(&traced, "serve_mixed traced");
    assert_metrics(&traced, PER_LAYER, "serve_mixed traced");
}

#[test]
fn corrupted_outputs_count_as_failures() {
    for workload in WORKLOADS {
        let result = run(workload, 104, false, true);
        assert_eq!(
            result.bool_at("correct"),
            Some(false),
            "{workload}: a corrupted run is not correct"
        );
        assert!(
            count(&result, "failed") >= 1.0,
            "{workload}: corrupted outputs are counted as failed"
        );
    }
}

#[test]
fn unknown_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            "fig4_mixer",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "7",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
