//! Exit codes of the `chain2l` binary's usage paths: `--help` after any
//! command prints help and exits 0, and an option the command does not take,
//! a stray token or a value out of its option's range exits 2 naming it.
//! None of these paths may start a daemon, solve anything or write a file.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// A results directory of its own for one test, removed on drop.
struct ResultsDir(PathBuf);

impl ResultsDir {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("chain2l-usage-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultsDir(dir)
    }

    /// Whether `chain2l` left anything under the directory.
    fn is_empty(&self) -> bool {
        std::fs::read_dir(&self.0).map_or(true, |mut entries| entries.next().is_none())
    }
}

impl Drop for ResultsDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `chain2l` with `CHAIN2L_RESULTS_DIR` set to `results` and kills it
/// if it has not exited within a few seconds (a usage path that started a
/// daemon would otherwise hang the test).
fn chain2l(args: &[&str], results: &ResultsDir) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_chain2l"))
        .args(args)
        .env("CHAIN2L_RESULTS_DIR", &results.0)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn chain2l");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll chain2l").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("chain2l {args:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect chain2l output")
}

#[test]
fn help_after_any_command_exits_0() {
    let results = ResultsDir::new("help");
    for args in [
        &["serve", "--help"][..],
        &["experiment", "--help"],
        &["bench-load", "-h"],
        &["sweep", "all", "--help"],
        &["sweep", "all", "--help", "--tasks", "6", "--validate", "10"],
    ] {
        let out = chain2l(args, &results);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE:"), "{args:?}");
        assert!(results.is_empty(), "{args:?} wrote a result file");
    }
}

#[test]
fn unknown_options_exit_2_and_name_the_key() {
    let results = ResultsDir::new("unknown");
    for (args, key) in [
        (&["optimize", "--taks", "12"][..], "--taks"),
        (&["serve", "--window", "64"], "--window"),
        (&["bench-load", "--fault-rate", "0.1"], "--fault-rate"),
        (&["batch", "--no-simd"], "--no-simd"),
        (&["sweep", "all", "--taks", "6"], "--taks"),
        (&["sweep", "all", "--sim-threads", "2"], "--sim-threads"),
    ] {
        let out = chain2l(args, &results);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("`{key}`")), "{args:?}: {stderr}");
        assert!(results.is_empty(), "{args:?} wrote a result file");
    }
}

#[test]
fn malformed_command_lines_exit_2_naming_the_token_before_anything_runs() {
    let results = ResultsDir::new("malformed");
    for (args, token) in [
        // A flag followed by a token that it once swallowed.
        (&["optimize", "--strips", "12", "--tasks", "5"][..], "`12`"),
        (&["serve", "--stop", "1", "--addr", "127.0.0.1:1"], "`1`"),
        // An option that the experiment name ignores.
        (&["experiment", "fig7", "--quick", "--csv"], "`--csv`"),
        (&["experiment", "fig6", "--paper", "--tasks", "6"], "`--paper`"),
        // Values that once panicked (exit 101) or blamed another option.
        (&["validate", "--replications", "0", "--tasks", "3"], "--replications"),
        (&["sweep", "recall", "--tasks", "0"], "--tasks"),
        (&["sweep", "tail", "--tasks", "0"], "--tasks"),
        (&["sweep", "all", "--tasks", "abc"], "--tasks"),
        (&["experiment", "fig6", "--tasks", "0"], "--tasks"),
        (&["experiment", "fig6", "--weight", "-5"], "--weight"),
        (&["experiment", "fig6", "--weight", "nan"], "--weight"),
        (&["validate", "--weight", "-1"], "--weight"),
        (&["simulate", "--tasks", "3", "--weight", "inf"], "--weight"),
        // A value option with no value; a zero that was once clamped to 1.
        (&["batch", "--remote"], "--remote"),
        (&["bench-load", "--connections", "0"], "--connections"),
    ] {
        let out = chain2l(args, &results);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(stderr.contains(token), "{args:?}: {stderr}");
        assert!(!stderr.contains("--tasks") || token == "--tasks", "{args:?}: {stderr}");
        assert!(results.is_empty(), "{args:?} wrote a result file");
    }
}
