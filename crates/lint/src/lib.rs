#![forbid(unsafe_code)]
//! chain2l-lint — workspace-native static analysis for the four
//! invariants the test suite cannot see (DESIGN.md §9):
//!
//! 1. **Lock discipline** (`locks`): no guard held across a blocking
//!    re-acquisition of the same mutex — directly or through a call —
//!    and no acquisition-order cycles between blocking locks.
//! 2. **Determinism** (`determinism`): output-producing crates never
//!    observe hash iteration order, wall clocks, thread identity or
//!    pointer addresses.
//! 3. **Panic surface** (`panics`): the serve daemon path carries no
//!    unwrap/expect/panic!/indexing without a written justification.
//! 4. **Unsafe confinement** (`unsafety`): `unsafe` lives only in
//!    `vendor/mio_lite`; every other target root forbids it.
//!
//! The analyzer is dependency-free by construction: a hand-rolled lexer
//! ([`lexer`]), a per-file context ([`source`]) and four token-level
//! passes.  It must keep working in the offline build container, so it
//! can never grow a `syn`/`rustc` dependency — the passes are documented
//! approximations, tuned to the shapes this workspace actually uses and
//! regression-pinned by the fixture corpus under `fixtures/`.

pub mod determinism;
pub mod lexer;
pub mod locks;
pub mod panics;
pub mod source;
pub mod unsafety;

use source::{Scope, SourceFile};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Every rule the four passes can emit, keyed by a stable kebab-case
/// code — the code is the contract: allow comments, fixture markers and
/// the JSON output all speak it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    LockReacquire,
    LockHeldAcrossCall,
    LockOrderCycle,
    DetHashIter,
    DetTime,
    DetThreadId,
    DetPtr,
    PanicUnwrap,
    PanicExpect,
    PanicMacro,
    PanicIndex,
    UnsafeCode,
    MissingForbid,
}

impl Rule {
    pub fn code(self) -> &'static str {
        match self {
            Rule::LockReacquire => "lock-reacquire",
            Rule::LockHeldAcrossCall => "lock-held-across-call",
            Rule::LockOrderCycle => "lock-order-cycle",
            Rule::DetHashIter => "det-hash-iter",
            Rule::DetTime => "det-time",
            Rule::DetThreadId => "det-thread-id",
            Rule::DetPtr => "det-ptr",
            Rule::PanicUnwrap => "panic-unwrap",
            Rule::PanicExpect => "panic-expect",
            Rule::PanicMacro => "panic-macro",
            Rule::PanicIndex => "panic-index",
            Rule::UnsafeCode => "unsafe-code",
            Rule::MissingForbid => "missing-forbid",
        }
    }
}

/// One diagnostic.  `allowed` carries the justification text when a
/// `// lint: allow(rule: reason)` suppression covers the site — allowed
/// findings are still reported (they are the audited inventory) but do
/// not fail the check.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub path: PathBuf,
    pub line: u32,
    pub col: u32,
    pub message: String,
    pub allowed: Option<String>,
}

impl Finding {
    pub fn new(sf: &SourceFile, rule: Rule, line: u32, col: u32, message: String) -> Self {
        let allowed = sf.allow_for(rule.code(), line).map(|a| a.reason.clone());
        Finding { rule, path: sf.path.clone(), line, col, message, allowed }
    }

    /// Machine-readable NDJSON record.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"rule\":\"{}\",", self.rule.code()));
        s.push_str(&format!("\"file\":\"{}\",", json_escape(&self.path.display().to_string())));
        s.push_str(&format!("\"line\":{},\"col\":{},", self.line, self.col));
        s.push_str(&format!("\"message\":\"{}\",", json_escape(&self.message)));
        match &self.allowed {
            Some(reason) => s.push_str(&format!("\"allowed\":\"{}\"", json_escape(reason))),
            None => s.push_str("\"allowed\":null"),
        }
        s.push('}');
        s
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.col,
            self.rule.code(),
            self.message
        )?;
        if let Some(reason) = &self.allowed {
            write!(f, " (allowed: {reason})")?;
        }
        Ok(())
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Crates whose outputs must be bit-identical across runs — pass 2's
/// scope (`bench`/`service`/`cli` may time and log; `exec` timestamps
/// its recovery journal by design).
const DETERMINISM_CRATES: [&str; 4] = ["core", "analysis", "model", "sim"];

/// The serve daemon path inside `crates/service` — pass 3's scope.
/// `client.rs` joined when it grew the retry/backoff machinery: a panic
/// in its reconnect loop strands a whole batch, so it is held to the
/// daemon standard.  `loadgen.rs` stays out — harness tooling only.
const DAEMON_FILES: [&str; 7] =
    ["server.rs", "shard.rs", "frame.rs", "json.rs", "protocol.rs", "persist.rs", "client.rs"];

/// Maps a workspace-relative path to its crate namespace and pass scope.
/// `None` means the file is out of scope entirely (vendored readiness
/// shim, fixture corpus).
pub fn scope_for(rel: &str) -> Option<(String, Scope)> {
    let rel = rel.replace('\\', "/");
    if rel.contains("fixtures/") {
        return None;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    let file = *parts.last()?;
    let mut scope = Scope::default();

    let krate: String;
    if parts.first() == Some(&"vendor") {
        krate = (*parts.get(1)?).to_string();
        if krate == "mio_lite" {
            return None; // the one sanctioned unsafe island
        }
        scope.unsafe_scan = true;
        scope.forbid_root = rel.ends_with("src/lib.rs");
        return Some((krate, scope));
    } else if parts.first() == Some(&"crates") {
        krate = (*parts.get(1)?).to_string();
    } else if parts.first() == Some(&"src")
        || parts.first() == Some(&"tests")
        || parts.first() == Some(&"examples")
    {
        krate = "chain2l".to_string();
    } else {
        return None;
    }

    scope.unsafe_scan = true;
    let in_src = parts.contains(&"src");
    scope.locks = in_src;
    scope.determinism = in_src && DETERMINISM_CRATES.contains(&krate.as_str());
    // The daemon path plus two core files: the snapshot decoder parses
    // untrusted input at daemon boot, and the failpoint registry runs
    // inside every I/O hot path whenever fault injection is armed — both
    // must be as panic-free as the daemon itself.
    scope.panics = (krate == "service" && in_src && DAEMON_FILES.contains(&file))
        || (krate == "core" && in_src && (file == "snapshot.rs" || file == "failpoint.rs"));
    scope.forbid_root = rel.ends_with("src/lib.rs")
        || rel.ends_with("src/main.rs")
        || parts.contains(&"bin")
        || parts.contains(&"benches")
        || parts.contains(&"examples");
    Some((krate, scope))
}

/// Walks the workspace from `root` and parses every in-scope `.rs` file,
/// sorted by path so findings order is stable.
pub fn workspace_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    collect_rs(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for rel in paths {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if let Some((krate, scope)) = scope_for(&rel_str) {
            let src = fs::read_to_string(root.join(&rel))?;
            files.push(SourceFile::parse(rel, &krate, scope, &src));
        }
    }
    Ok(files)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), ".git" | "target" | "fixtures" | ".github" | "related") {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Parses the fixture corpus under `crates/lint/fixtures/<pass>/`.  Each
/// file is its own crate namespace (its stem), so lock graphs do not
/// bleed between fixtures; the directory selects the single pass under
/// test.
pub fn fixture_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let base = root.join("crates/lint/fixtures");
    let mut files = Vec::new();
    let mut dirs: Vec<PathBuf> = fs::read_dir(&base)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let pass = dir.file_name().map(|n| n.to_string_lossy().to_string()).unwrap_or_default();
        let scope = match pass.as_str() {
            "locks" => Scope { locks: true, ..Scope::default() },
            "determinism" => Scope { determinism: true, ..Scope::default() },
            "panics" => Scope { panics: true, ..Scope::default() },
            "unsafety" => Scope { unsafe_scan: true, forbid_root: true, ..Scope::default() },
            _ => continue,
        };
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        entries.sort();
        for path in entries {
            let stem =
                path.file_stem().map(|s| s.to_string_lossy().to_string()).unwrap_or_default();
            let src = fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            files.push(SourceFile::parse(rel, &stem, scope, &src));
        }
    }
    Ok(files)
}

/// Runs all four passes over pre-parsed files; findings come back sorted
/// by (path, line, col, rule) so output is deterministic.
pub fn run_passes(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    locks::run(files, &mut findings);
    determinism::run(files, &mut findings);
    panics::run(files, &mut findings);
    unsafety::run(files, &mut findings);
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    findings
}

/// Compares findings against the `//~ rule` markers of a fixture corpus.
/// Returns human-readable mismatch lines: every marker must be hit by an
/// unallowed finding of that rule on that line, and every unallowed
/// finding must be claimed by a marker (near-miss fixtures carry no
/// markers and must stay silent).
pub fn check_fixtures(files: &[SourceFile], findings: &[Finding]) -> Vec<String> {
    let mut problems = Vec::new();
    for sf in files {
        let mut expected: Vec<(u32, &str)> =
            sf.markers.iter().map(|(l, r)| (*l, r.as_str())).collect();
        let mut actual: Vec<(u32, &str)> = findings
            .iter()
            .filter(|f| f.path == sf.path && f.allowed.is_none())
            .map(|f| (f.line, f.rule.code()))
            .collect();
        expected.sort_unstable();
        actual.sort_unstable();
        let mut e = expected.iter().peekable();
        let mut a = actual.iter().peekable();
        loop {
            match (e.peek(), a.peek()) {
                (Some(&&ex), Some(&&ac)) if ex == ac => {
                    e.next();
                    a.next();
                }
                (Some(&&ex), Some(&&ac)) if ex < ac => {
                    problems.push(format!(
                        "{}:{}: expected `{}` was not reported",
                        sf.path.display(),
                        ex.0,
                        ex.1
                    ));
                    e.next();
                }
                (Some(&&ex), None) => {
                    problems.push(format!(
                        "{}:{}: expected `{}` was not reported",
                        sf.path.display(),
                        ex.0,
                        ex.1
                    ));
                    e.next();
                }
                (_, Some(&&ac)) => {
                    problems.push(format!(
                        "{}:{}: unexpected `{}` (no marker)",
                        sf.path.display(),
                        ac.0,
                        ac.1
                    ));
                    a.next();
                }
                (None, None) => break,
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_routing() {
        let (k, s) = scope_for("crates/core/src/engine.rs").expect("in scope");
        assert_eq!(k, "core");
        assert!(s.locks && s.determinism && s.unsafe_scan && !s.panics && !s.forbid_root);

        let (k, s) = scope_for("crates/service/src/server.rs").expect("in scope");
        assert_eq!(k, "service");
        assert!(s.panics && !s.determinism);

        let (_, s) = scope_for("crates/service/src/loadgen.rs").expect("in scope");
        assert!(!s.panics, "loadgen is harness tooling, not the daemon");
        let (_, s) = scope_for("crates/service/src/client.rs").expect("in scope");
        assert!(s.panics, "the retry/backoff client is held to the daemon standard");

        let (_, s) = scope_for("crates/service/src/persist.rs").expect("in scope");
        assert!(s.panics, "the persistence layer runs inside the daemon");
        let (k, s) = scope_for("crates/core/src/snapshot.rs").expect("in scope");
        assert_eq!(k, "core");
        assert!(s.panics && s.determinism, "snapshot decode parses untrusted input");
        let (_, s) = scope_for("crates/core/src/failpoint.rs").expect("in scope");
        assert!(s.panics, "the failpoint registry sits inside armed I/O hot paths");
        let (_, s) = scope_for("crates/core/src/cache.rs").expect("in scope");
        assert!(!s.panics, "only snapshot decode and failpoints join the panic pass from core");

        let (_, s) = scope_for("crates/core/src/lib.rs").expect("in scope");
        assert!(s.forbid_root);
        let (_, s) = scope_for("crates/bench/src/bin/dp_report.rs").expect("in scope");
        assert!(s.forbid_root);
        let (_, s) = scope_for("crates/bench/benches/dp_runtime.rs").expect("in scope");
        assert!(s.forbid_root && !s.locks);

        assert!(scope_for("vendor/mio_lite/src/lib.rs").is_none());
        let (_, s) = scope_for("vendor/serde/src/lib.rs").expect("in scope");
        assert!(s.unsafe_scan && s.forbid_root && !s.locks);
        let (k, s) = scope_for("vendor/wide_lite/src/lib.rs").expect("in scope");
        assert_eq!(k, "wide_lite");
        assert!(
            s.unsafe_scan && s.forbid_root,
            "the SIMD stub gets no unsafe exemption — only the readiness shim does"
        );

        assert!(scope_for("crates/lint/fixtures/locks/reacquire.rs").is_none());

        let (k, s) = scope_for("examples/quickstart.rs").expect("in scope");
        assert_eq!(k, "chain2l");
        assert!(s.forbid_root);
    }

    #[test]
    fn findings_respect_allows() {
        let sf = SourceFile::parse(
            PathBuf::from("d.rs"),
            "svc",
            Scope { panics: true, ..Scope::default() },
            "fn f() {\n    // lint: allow(panic-unwrap: startup config is static)\n    \
             x.unwrap();\n    y.unwrap();\n}\n",
        );
        let findings = run_passes(std::slice::from_ref(&sf));
        assert_eq!(findings.len(), 2);
        assert!(findings[0].allowed.is_some());
        assert!(findings[1].allowed.is_none());
    }

    #[test]
    fn json_output_is_escaped() {
        let sf = SourceFile::parse(
            PathBuf::from("j.rs"),
            "svc",
            Scope { panics: true, ..Scope::default() },
            "fn f() { x.unwrap(); }\n",
        );
        let findings = run_passes(std::slice::from_ref(&sf));
        let json = findings[0].to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rule\":\"panic-unwrap\""));
        assert!(json.contains("\"allowed\":null"));
    }
}
