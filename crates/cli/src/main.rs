//! `chain2l` — command-line interface of the two-level checkpointing library.
//!
//! Run `chain2l help` for the list of commands; each one maps onto the public
//! APIs of `chain2l-core`, `chain2l-sim` and `chain2l-analysis`.

#![forbid(unsafe_code)]

mod args;
mod commands;

use args::{ArgError, ParsedArgs};
use std::process::ExitCode;

/// Usage errors (unknown command, malformed flag values) exit with 2;
/// runtime failures (I/O, an unreachable daemon) exit with 1.
const USAGE_EXIT: u8 = 2;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match ParsedArgs::parse(raw).and_then(|args| commands::run(&args)) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            if e == ArgError::MissingCommand {
                eprint!("{}", commands::HELP);
            }
            if e.is_usage() {
                ExitCode::from(USAGE_EXIT)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
