//! The result-file helpers of the `dp_report` binary of the `chain2l`
//! reproduction.  The paper's figures and Table I are rendered by
//! `chain2l experiment`, the ablation sweeps and the sweep grid by
//! `chain2l sweep`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;

/// Where `dp_report` writes its result files (`results/` at the
/// workspace root, overridable with the `CHAIN2L_RESULTS_DIR` environment
/// variable).
pub fn results_dir() -> PathBuf {
    match std::env::var_os("CHAIN2L_RESULTS_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from("results"),
    }
}

/// Writes `content` to `<results_dir>/<name>`, creating the directory if
/// needed, and returns the path.  Errors are reported but not fatal (the
/// binary also prints everything to stdout).
pub fn write_result_file(name: &str, content: &str) -> Option<PathBuf> {
    let dir = results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(name);
    match fs::write(&path, content) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_files_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "chain2l-bench-test-{}-{:?}",
            std::process::id(),
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        std::env::set_var("CHAIN2L_RESULTS_DIR", &dir);
        let path = write_result_file("test.csv", "a,b\n1,2\n").expect("writable temp dir");
        assert_eq!(fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        std::env::remove_var("CHAIN2L_RESULTS_DIR");
        let _ = fs::remove_dir_all(dir);
    }
}
