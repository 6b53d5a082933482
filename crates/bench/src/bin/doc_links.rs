//! CLI wrapper for the docs link checker (the CI `docs` job's second
//! pass): checks `README.md` and `docs/*.md` under `--root` (default the
//! current directory) and fails with a listing of every broken relative
//! link or unresolvable anchor. An unknown flag or a missing `--root`
//! value prints one stderr line and exits with code 2.
//!
//! ```text
//! cargo run -p rfsim-bench --bin doc_links [-- --root /path/to/repo]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use rfsim_bench::doclinks::check_repo_docs;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let path = match flag.as_str() {
            "--root" => it.next().ok_or_else(|| "--root needs a value".to_string()),
            other => Err(format!("unknown flag {other}")),
        };
        let Ok(path) = path.map_err(|msg| eprintln!("doc_links: {msg}")) else {
            return ExitCode::from(2);
        };
        root = PathBuf::from(path);
    }
    match check_repo_docs(&root) {
        Err(why) => {
            eprintln!("doc_links: {why}");
            ExitCode::FAILURE
        }
        Ok(issues) if issues.is_empty() => {
            println!("doc_links: all relative links and anchors resolve");
            ExitCode::SUCCESS
        }
        Ok(issues) => {
            for issue in &issues {
                eprintln!("{issue}");
            }
            eprintln!("doc_links: {} broken link(s)", issues.len());
            ExitCode::FAILURE
        }
    }
}
