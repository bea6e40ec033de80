//! `dp_report`'s command line: `--help` and usage errors return before any
//! solve, so neither writes a result file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A results directory that does not exist yet: any write would create it.
fn fresh_results_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("chain2l-dp-report-{tag}-{}", std::process::id()))
        .join("results");
    assert!(!dir.exists(), "{} is left over from an earlier run", dir.display());
    dir
}

fn dp_report(args: &[&str], results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dp_report"))
        .args(args)
        .env("CHAIN2L_RESULTS_DIR", results)
        .output()
        .expect("run dp_report")
}

#[test]
fn help_prints_usage_and_writes_nothing() {
    let results = fresh_results_dir("help");
    let out = dp_report(&["--help"], &results);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for flag in ["--check", "--print-baseline", "--full", "--wall", "--check-wall", "--help"] {
        assert!(stdout.contains(flag), "usage misses {flag}:\n{stdout}");
    }
    assert!(!results.exists(), "--help wrote {}", results.display());
}

#[test]
fn usage_errors_exit_2_and_write_nothing() {
    let cases: [&[&str]; 6] = [
        &["--bogus"],
        &["--full", "extra"],
        &["--check"],
        &["--check", "--full"],
        &["--wall", "--check-wall"],
        &["--check-wall", "baseline.json"],
    ];
    for (index, args) in cases.into_iter().enumerate() {
        let results = fresh_results_dir(&format!("usage-{index}"));
        let out = dp_report(args, &results);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: dp_report"), "{args:?}: {stderr}");
        assert!(!results.exists(), "{args:?} wrote {}", results.display());
    }
}
