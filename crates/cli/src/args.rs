//! Hand-rolled command-line argument parsing.
//!
//! The CLI deliberately avoids an argument-parsing dependency; the grammar is
//! small (`chain2l <command> [name] [--flag | --key value]...`) and this
//! module keeps it explicit and unit-testable.  Which options are flags comes
//! from the option table in [`crate::commands`].

use crate::commands::{option_value, Value};
use std::collections::BTreeMap;
use std::str::FromStr;

/// A parsed command line: the sub-command name plus `--key value` options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// Sub-command (first positional argument).
    pub command: String,
    /// Additional positional arguments after the command.
    pub positionals: Vec<String>,
    /// `--key value` and `--flag` options (flags map to an empty string).
    pub options: BTreeMap<String, String>,
    /// `help`, `--help` or `-h` was given, as the command or anywhere
    /// after it; nothing else was parsed.
    pub help: bool,
}

/// Errors produced while parsing or interpreting the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No sub-command was given.
    MissingCommand,
    /// An option value could not be interpreted.
    InvalidValue {
        /// Option name (without the leading `--`).
        option: String,
        /// Offending value.
        value: String,
        /// What was expected.
        expected: String,
    },
    /// A required option is absent.
    MissingOption {
        /// Option name (without the leading `--`).
        option: String,
    },
    /// An option that takes a value is last, or followed by another option.
    MissingValue {
        /// Option name (without the leading `--`).
        option: String,
    },
    /// Unknown sub-command or sub-argument.
    Unknown {
        /// The unrecognised token.
        what: String,
    },
    /// The arguments were valid but the operation failed at run time
    /// (I/O, a daemon connection, …) — exit code 1, not the usage code 2.
    Runtime {
        /// What was being attempted.
        context: String,
        /// The underlying failure.
        message: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no command given (try `chain2l help`)"),
            ArgError::InvalidValue { option, value, expected } => {
                write!(f, "invalid value `{value}` for --{option}: expected {expected}")
            }
            ArgError::MissingOption { option } => write!(f, "missing required option --{option}"),
            ArgError::MissingValue { option } => write!(f, "option --{option} needs a value"),
            ArgError::Unknown { what } => {
                write!(f, "unknown command or argument `{what}` (try `chain2l help`)")
            }
            ArgError::Runtime { context, message } => write!(f, "{context}: {message}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl ArgError {
    /// Whether this is a usage error (bad arguments — exit code 2) rather
    /// than a runtime failure (exit code 1).
    pub fn is_usage(&self) -> bool {
        !matches!(self, ArgError::Runtime { .. })
    }

    /// Builds a [`ArgError::Runtime`] from anything displayable.
    pub fn runtime(context: &str, error: impl std::fmt::Display) -> ArgError {
        ArgError::Runtime { context: context.to_string(), message: error.to_string() }
    }
}

impl ParsedArgs {
    /// Parses raw arguments (excluding the program name).  A flag never
    /// takes the next token; any other option must be followed by a value
    /// that does not start with `--`.  An option no command takes is an
    /// error here, before its kind would have to be guessed.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut iter = args.into_iter();
        let command = iter.next().ok_or(ArgError::MissingCommand)?;
        let rest: Vec<String> = iter.collect();
        let mut parsed = Self { command, ..Self::default() };
        if matches!(parsed.command.as_str(), "help" | "--help" | "-h")
            || rest.iter().any(|arg| arg == "--help" || arg == "-h")
        {
            parsed.help = true;
            return Ok(parsed);
        }
        let mut rest = rest.into_iter();
        while let Some(arg) = rest.next() {
            let Some(key) = arg.strip_prefix("--") else {
                parsed.positionals.push(arg);
                continue;
            };
            let value = match option_value(key) {
                None => return Err(ArgError::Unknown { what: arg }),
                Some(Value::Flag) => String::new(),
                Some(_) => match rest.next() {
                    Some(value) if !value.starts_with("--") => value,
                    _ => return Err(ArgError::MissingValue { option: key.to_string() }),
                },
            };
            parsed.options.insert(key.to_string(), value);
        }
        Ok(parsed)
    }

    /// String option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(|s| s.as_str()).unwrap_or(default)
    }

    /// Whether a boolean flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Parses an option's value, or `None` when the option is absent.
    pub fn value<T: FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        match self.options.get(key) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| ArgError::InvalidValue {
                option: key.to_string(),
                value: v.clone(),
                expected: "a number".to_string(),
            }),
        }
    }

    /// Parses a `usize` option with a default.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        Ok(self.value(key)?.unwrap_or(default))
    }

    /// Parses an `f64` option with a default.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        Ok(self.value(key)?.unwrap_or(default))
    }

    /// Parses a `u64` option with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        Ok(self.value(key)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<ParsedArgs, ArgError> {
        ParsedArgs::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_positionals_and_options() {
        let args = parse(&["experiment", "fig5", "--quick", "--tasks", "20"]).unwrap();
        assert_eq!(args.command, "experiment");
        assert_eq!(args.positionals, vec!["fig5"]);
        assert!(args.flag("quick"));
        assert_eq!(args.usize_or("tasks", 50).unwrap(), 20);
    }

    #[test]
    fn missing_command_is_an_error() {
        assert_eq!(parse(&[]), Err(ArgError::MissingCommand));
    }

    #[test]
    fn defaults_apply_when_options_absent() {
        let args = parse(&["optimize"]).unwrap();
        assert_eq!(args.get_or("platform", "hera"), "hera");
        assert_eq!(args.usize_or("tasks", 50).unwrap(), 50);
        assert_eq!(args.f64_or("weight", 25_000.0).unwrap(), 25_000.0);
        assert_eq!(args.u64_or("seed", 42).unwrap(), 42);
        assert!(!args.flag("csv"));
    }

    #[test]
    fn invalid_numbers_are_reported() {
        let args = parse(&["optimize", "--tasks", "many"]).unwrap();
        match args.usize_or("tasks", 50) {
            Err(ArgError::InvalidValue { option, .. }) => assert_eq!(option, "tasks"),
            other => panic!("unexpected {other:?}"),
        }
        let args = parse(&["optimize", "--weight", "heavy"]).unwrap();
        assert!(args.f64_or("weight", 1.0).is_err());
    }

    #[test]
    fn flags_followed_by_options_do_not_steal_values() {
        let args = parse(&["simulate", "--csv", "--replications", "100"]).unwrap();
        assert!(args.flag("csv"));
        assert_eq!(args.usize_or("replications", 1).unwrap(), 100);
    }

    #[test]
    fn flags_never_take_a_value_and_value_options_need_one() {
        let args = parse(&["optimize", "--strips", "12"]).unwrap();
        assert!(args.flag("strips"));
        assert_eq!(args.positionals, vec!["12"]);
        for (tokens, option) in [
            (&["optimize", "--tasks"][..], "tasks"),
            (&["optimize", "--tasks", "--strips"], "tasks"),
            (&["batch", "--remote", "--file", "x.txt"], "remote"),
            (&["batch", "--file"], "file"),
            (&["serve", "--failpoints"], "failpoints"),
        ] {
            let missing = ArgError::MissingValue { option: option.into() };
            assert_eq!(parse(tokens), Err(missing), "{tokens:?}");
        }
        assert_eq!(
            parse(&["optimize", "--taks", "5"]),
            Err(ArgError::Unknown { what: "--taks".into() })
        );
        // A negative number is a value, for the range check to reject.
        assert_eq!(parse(&["optimize", "--weight", "-5"]).unwrap().options["weight"], "-5");
        // Help wins over anything after the command.
        assert!(parse(&["optimize", "--taks", "-h"]).unwrap().help);
        assert!(parse(&["help"]).unwrap().help);
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(ArgError::MissingCommand.to_string().contains("help"));
        let e = ArgError::InvalidValue {
            option: "tasks".into(),
            value: "x".into(),
            expected: "an integer".into(),
        };
        assert!(e.to_string().contains("--tasks"));
        assert!(ArgError::MissingOption { option: "platform".into() }
            .to_string()
            .contains("platform"));
        assert!(ArgError::Unknown { what: "fig9".into() }.to_string().contains("fig9"));
    }
}
