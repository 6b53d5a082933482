//! Golden-corpus regression: every `.rfn` under `test_cases/` must
//! parse, canonicalise to a fixed point, solve, and reproduce the bit
//! digest pinned in `test_cases/GOLDENS.json`.
//!
//! The digests witness end-to-end determinism — netlist → circuit →
//! solver → samples — across refactors. If a change legitimately moves
//! the bits (a solver reordering, a new default), regenerate with
//!
//! ```sh
//! RFSIM_REGEN_GOLDENS=1 cargo test --test golden_corpus
//! ```
//!
//! and review the diff like any other contract change.
//!
//! The CLI and the wire must agree: every steady-state netlist served
//! through `submit_netlist` returns the digest `rfsim run` reports.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use rfsim::netlist::Netlist;
use rfsim::runner::run_netlist;
use rfsim::serve::service::{ServeConfig, SimService};
use rfsim::serve::spec::Priority;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("test_cases")
}

fn goldens_path() -> PathBuf {
    corpus_dir().join("GOLDENS.json")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("test_cases/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rfn"))
        .collect();
    files.sort();
    files
}

/// `{"name": "0123456789abcdef", ...}` — written sorted, parsed by hand
/// (two-token grammar, no dependency needed).
fn read_goldens() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(goldens_path())
        .expect("test_cases/GOLDENS.json exists (regenerate with RFSIM_REGEN_GOLDENS=1)");
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let clean = |s: &str| s.trim().trim_matches('"').to_string();
        let (key, value) = (clean(key), clean(value));
        if !key.is_empty() && !value.is_empty() {
            map.insert(key, value);
        }
    }
    map
}

fn write_goldens(map: &BTreeMap<String, String>) {
    let mut text = String::from("{\n");
    let body: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("  \"{k}\": \"{v}\""))
        .collect();
    text.push_str(&body.join(",\n"));
    text.push_str("\n}\n");
    std::fs::write(goldens_path(), text).expect("write GOLDENS.json");
}

#[test]
fn corpus_files_are_canonical_and_span_every_directive() {
    let files = corpus_files();
    assert!(
        files.len() >= 10,
        "the corpus must hold at least 10 netlists, found {}",
        files.len()
    );
    let mut directives = std::collections::BTreeSet::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("read corpus file");
        let netlist =
            Netlist::parse(&text).unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
        // Corpus files are stored in canonical form: the formatter is a
        // fixed point over them, so `git diff` noise can't hide drift.
        assert_eq!(
            netlist.canonical(),
            text,
            "{} is not canonical — rewrite it with `rfsim fmt`",
            path.display()
        );
        directives.insert(netlist.analysis.keyword());
    }
    for directive in ["dcop", "transient", "mpde", "hb2", "periodic_fd"] {
        assert!(
            directives.contains(directive),
            "corpus must exercise the '{directive}' analysis"
        );
    }
}

#[test]
fn corpus_digests_match_the_goldens() {
    let regen = std::env::var("RFSIM_REGEN_GOLDENS").is_ok_and(|v| !v.is_empty() && v != "0");
    let mut fresh = BTreeMap::new();
    for path in corpus_files() {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 name")
            .to_string();
        let text = std::fs::read_to_string(&path).expect("read corpus file");
        let netlist = Netlist::parse(&text).expect("corpus parses (previous test)");
        let report =
            run_netlist(&netlist).unwrap_or_else(|e| panic!("{name} must solve, got: {e}"));
        assert!(report.solves >= 1, "{name} reports its solve count");
        fresh.insert(name, format!("{:016x}", report.digest));
    }
    if regen {
        write_goldens(&fresh);
        eprintln!(
            "regenerated {} with {} entries",
            goldens_path().display(),
            fresh.len()
        );
        return;
    }
    let pinned = read_goldens();
    let fresh_names: Vec<&String> = fresh.keys().collect();
    let pinned_names: Vec<&String> = pinned.keys().collect();
    assert_eq!(
        fresh_names, pinned_names,
        "corpus membership changed — regenerate GOLDENS.json"
    );
    for (name, digest) in &fresh {
        assert_eq!(
            digest, &pinned[name],
            "{name}: digest drifted from the pinned golden — if intentional, \
             regenerate with RFSIM_REGEN_GOLDENS=1 and review the diff"
        );
    }
}

#[test]
fn served_digests_match_cli_digests() {
    let service = SimService::start(ServeConfig::default());
    let mut served = 0;
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("read corpus file");
        let netlist = Netlist::parse(&text).expect("corpus parses");
        if !netlist.analysis.is_steady_state() {
            continue;
        }
        let name = path.display();
        let cli = run_netlist(&netlist).unwrap_or_else(|e| panic!("{name} must solve: {e}"));
        let submission = service
            .submit_netlist(&text, Priority::Normal, None)
            .unwrap_or_else(|e| panic!("{name} must be servable: {e}"));
        let wire = service
            .wait(submission.job_id, Duration::from_secs(300))
            .unwrap_or_else(|e| panic!("{name} must be served: {e}"));
        assert_eq!(
            format!("{:016x}", wire.digest()),
            format!("{:016x}", cli.digest),
            "{name}: the served digest differs from the CLI's"
        );
        served += 1;
    }
    service.shutdown();
    assert!(served > 0, "the corpus holds steady-state netlists");
}
