//! Exit codes of the `chain2l` binary's usage paths: `--help` after any
//! command prints help and exits 0, and an option the command does not take
//! exits 2 naming it.  Neither path may start a daemon or solve anything.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `chain2l` and kills it if it has not exited within a few seconds
/// (a usage path that started a daemon would otherwise hang the test).
fn chain2l(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_chain2l"))
        .args(args)
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
    for args in [&["serve", "--help"][..], &["experiment", "--help"], &["bench-load", "-h"]] {
        let out = chain2l(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE:"), "{args:?}");
    }
}

#[test]
fn unknown_options_exit_2_and_name_the_key() {
    for (args, key) in [
        (&["optimize", "--taks", "12"][..], "--taks"),
        (&["serve", "--window", "64"], "--window"),
        (&["bench-load", "--fault-rate", "0.1"], "--fault-rate"),
    ] {
        let out = chain2l(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("`{key}`")), "{args:?}: {stderr}");
    }
}
