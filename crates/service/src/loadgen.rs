//! Closed-loop load generator for the daemon: the machinery behind
//! `chain2l bench-load`.
//!
//! Drives hundreds of concurrent pipelined connections against a running
//! daemon from a single non-blocking readiness loop and records sustained
//! throughput plus p50/p99/p999 latency.  Every connection keeps a fixed
//! pipelined window inflight, topping up as responses return — this
//! measures the serving stack's sustainable RPS.
//!
//! The request mix cycles over a handful of small scenarios, so after one
//! cold solve per shard every request is a cache hit: the numbers measure
//! the *serve layer* (framing, routing, scheduling, backpressure), not the
//! DP kernels — those are gated separately by `dp_report --wall`.
//!
//! Like `BENCH_wall.json`, the committed `BENCH_serve.json` baseline is
//! **per hardware class**: re-seed it with `--print-baseline` when the CI
//! fleet changes (see `crates/bench/baselines/`).

use crate::frame::Conn;
use crate::protocol::{self, Request, Response, SolveSpec};
use mio_lite::{Events, Interest, Poll, Token};
use std::io;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Configuration of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address, e.g. `127.0.0.1:4615`.
    pub addr: String,
    /// Concurrent pipelined connections to hold open.
    pub connections: usize,
    /// Requests sent per connection over the run.
    pub requests_per_connection: usize,
    /// Pipelined inflight window per connection.
    pub window: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:4615".to_string(),
            connections: 500,
            requests_per_connection: 20,
            window: 8,
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Connections held open.
    pub connections: usize,
    /// Pipelined window per connection.
    pub window: usize,
    /// Requests sent.
    pub requests: u64,
    /// Requests answered `ok:true`.
    pub completed: u64,
    /// Requests answered `ok:false` (after any shed retries ran out).
    pub errors: u64,
    /// Re-issues of requests the daemon shed with `error:"overloaded"`.
    pub retries: u64,
    /// `overloaded` responses received (admission-control sheds observed).
    pub shed: u64,
    /// Wall-clock duration of the measured phase (seconds).
    pub duration_s: f64,
    /// Sustained requests per second (completed / duration).
    pub rps: f64,
    /// Median latency (milliseconds).
    pub p50_ms: f64,
    /// 99th-percentile latency (milliseconds).
    pub p99_ms: f64,
    /// 99.9th-percentile latency (milliseconds).
    pub p999_ms: f64,
    /// Worst observed latency (milliseconds).
    pub max_ms: f64,
}

/// The cycled request mix: small scenarios across platforms/patterns, each
/// solved cold once by the shard that owns its solving context and served
/// from cache afterwards.  The two Hera specs share a context, so the mix
/// spans three contexts.
fn spec_mix() -> Vec<SolveSpec> {
    let spec = |platform: &str, pattern: &str, tasks: usize| SolveSpec {
        platform: platform.to_string(),
        pattern: pattern.to_string(),
        tasks,
        weight: 25_000.0,
        algorithm: "admv*".to_string(),
    };
    vec![
        spec("hera", "uniform", 6),
        spec("atlas", "decrease", 6),
        spec("coastal-ssd", "uniform", 7),
        spec("hera", "highlow", 5),
    ]
}

struct LoadConn {
    conn: Conn,
    /// Latency origin of wire request `id`, indexed by id.  A shed retry
    /// keeps the *original* arrival instant, so time spent being shed and
    /// re-sent is charged to latency (no coordinated omission).
    issued: Vec<Instant>,
    /// Spec-mix index of wire request `id` (retries resend the same spec).
    spec_of: Vec<usize>,
    /// How many times wire request `id` has already been shed and re-sent.
    attempts: Vec<u32>,
    /// Logical requests issued (fresh sends, not counting shed retries).
    sent: usize,
    /// Logical requests finished (solved, errored, or retries exhausted).
    answered: usize,
}

/// Shed-retry budget per logical request; past it the request counts as an
/// error (a daemon that sheds one request 64 times is genuinely saturated).
const SHED_RETRY_LIMIT: u32 = 64;

/// Overall safety valve: a run that makes no progress for this long fails
/// rather than hanging the bench.
const STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// Runs one load generation pass against a live daemon.
pub fn run(config: &LoadConfig) -> io::Result<LoadReport> {
    let mix = spec_mix();
    let per_conn = config.requests_per_connection.max(1);
    let window = config.window.max(1);
    let total = config.connections * per_conn;
    let mut poll = Poll::new()?;
    let mut events = Events::with_capacity(1024);
    let mut conns: Vec<LoadConn> = Vec::with_capacity(config.connections);
    for index in 0..config.connections {
        let stream = TcpStream::connect(&config.addr)?;
        let conn = Conn::new(stream)?;
        poll.register(&conn.stream, Token(index), Interest::READABLE)?;
        conns.push(LoadConn {
            conn,
            issued: Vec::with_capacity(per_conn),
            spec_of: Vec::with_capacity(per_conn),
            attempts: Vec::with_capacity(per_conn),
            sent: 0,
            answered: 0,
        });
    }

    let mut latencies_ms: Vec<f64> = Vec::with_capacity(total);
    let mut completed: u64 = 0;
    let mut errors: u64 = 0;
    let mut retries: u64 = 0;
    let mut shed: u64 = 0;
    let start = Instant::now();
    let mut last_progress = start;

    for lc in conns.iter_mut() {
        prime(lc, &mix, window, per_conn);
    }

    while (completed + errors) < total as u64 {
        for (index, lc) in conns.iter_mut().enumerate() {
            let mut interest = Interest::READABLE;
            if lc.conn.wants_write() {
                interest = interest | Interest::WRITABLE;
            }
            poll.reregister(&lc.conn.stream, Token(index), interest)?;
        }
        poll.poll(&mut events, Some(Duration::from_millis(50)))?;
        let mut progressed = false;
        let fired: Vec<(usize, bool, bool)> =
            events.iter().map(|e| (e.token().0, e.is_readable(), e.is_writable())).collect();
        for (index, readable, writable) in fired {
            let lc = &mut conns[index];
            if readable {
                progressed |= lc.conn.fill()?;
            }
            if writable && lc.conn.wants_write() {
                lc.conn.flush_out()?;
            }
            let now = Instant::now();
            while let Some(frame) = lc.conn.decoder.next_frame() {
                let line =
                    frame.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                let response = protocol::parse_response(&line)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                let id = response.id() as usize;
                if id >= lc.issued.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("response for unknown request id {id}"),
                    ));
                }
                if response.is_overloaded() {
                    // Admission-control shed: resend the same spec under a
                    // fresh wire id, keeping the original latency origin.
                    shed += 1;
                    if lc.attempts[id] < SHED_RETRY_LIMIT {
                        retries += 1;
                        reissue(lc, &mix, id);
                    } else {
                        latencies_ms.push((now - lc.issued[id]).as_secs_f64() * 1e3);
                        errors += 1;
                        lc.answered += 1;
                    }
                    progressed = true;
                    continue;
                }
                latencies_ms.push((now - lc.issued[id]).as_secs_f64() * 1e3);
                match response {
                    Response::Solve { .. } => completed += 1,
                    _ => errors += 1,
                }
                lc.answered += 1;
                progressed = true;
            }
            if lc.conn.read_closed && lc.answered < per_conn {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed a load connection mid-run",
                ));
            }
            prime(lc, &mix, window, per_conn);
        }
        if progressed {
            last_progress = Instant::now();
        } else if last_progress.elapsed() > STALL_TIMEOUT {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "load run stalled with {} of {total} requests answered",
                    completed + errors
                ),
            ));
        }
    }
    let duration_s = start.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |q: f64| -> f64 {
        if latencies_ms.is_empty() {
            return 0.0;
        }
        let idx = ((latencies_ms.len() - 1) as f64 * q).round() as usize;
        latencies_ms[idx.min(latencies_ms.len() - 1)]
    };
    Ok(LoadReport {
        connections: config.connections,
        window,
        requests: total as u64,
        completed,
        errors,
        retries,
        shed,
        duration_s,
        rps: completed as f64 / duration_s.max(1e-9),
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        p999_ms: pct(0.999),
        max_ms: latencies_ms.last().copied().unwrap_or(0.0),
    })
}

/// Tops a connection's pipelined window back up.
fn prime(lc: &mut LoadConn, mix: &[SolveSpec], window: usize, per_conn: usize) {
    while lc.sent < per_conn && lc.sent - lc.answered < window {
        issue(lc, mix);
    }
}

/// Issues one fresh request on a connection, stamping its latency origin.
fn issue(lc: &mut LoadConn, mix: &[SolveSpec]) {
    let id = lc.issued.len() as u64;
    let spec_idx = lc.sent % mix.len();
    let spec = mix[spec_idx].clone();
    lc.conn.push_line(&protocol::encode_request(&Request::Solve { id, spec }));
    lc.issued.push(Instant::now());
    lc.spec_of.push(spec_idx);
    lc.attempts.push(0);
    lc.sent += 1;
}

/// Re-issues a shed request under a fresh wire id: same spec, same latency
/// origin (so shed-and-retry time shows up in the percentiles), attempt
/// count carried forward.
fn reissue(lc: &mut LoadConn, mix: &[SolveSpec], shed_id: usize) {
    let id = lc.issued.len() as u64;
    let spec = mix[lc.spec_of[shed_id]].clone();
    lc.conn.push_line(&protocol::encode_request(&Request::Solve { id, spec }));
    lc.issued.push(lc.issued[shed_id]);
    lc.spec_of.push(lc.spec_of[shed_id]);
    lc.attempts.push(lc.attempts[shed_id] + 1);
}

/// Renders a report as the line-oriented JSON written to
/// `results/BENCH_serve.json` (one field per line, so the baseline gate can
/// parse it without a JSON dependency — same discipline as
/// `BENCH_wall.json`).
pub fn render_report_json(report: &LoadReport) -> String {
    format!(
        "{{\n  \"bench\": \"serve_load\",\n  \"connections\": {},\n  \"window\": {},\n  \
         \"requests\": {},\n  \"completed\": {},\n  \"errors\": {},\n  \
         \"retries\": {},\n  \"shed\": {},\n  \
         \"duration_s\": {:.4},\n  \"rps\": {:.1},\n  \"p50_ms\": {:.3},\n  \
         \"p99_ms\": {:.3},\n  \"p999_ms\": {:.3},\n  \"max_ms\": {:.3}\n}}\n",
        report.connections,
        report.window,
        report.requests,
        report.completed,
        report.errors,
        report.retries,
        report.shed,
        report.duration_s,
        report.rps,
        report.p50_ms,
        report.p99_ms,
        report.p999_ms,
        report.max_ms,
    )
}

/// Extracts one numeric field from line-oriented report JSON.
pub fn report_field(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    for line in json.lines() {
        if let Some(pos) = line.find(&needle) {
            let value = line[pos + needle.len()..].trim().trim_end_matches(',');
            return value.parse().ok();
        }
    }
    None
}

/// Regression tolerance of the `--check` gate: throughput may drop to
/// 1/`TOLERANCE` of the baseline and p99 latency may grow by the same
/// factor before the gate fails.  Deliberately loose — shared CI runners
/// are noisy and the baseline is per hardware class.
pub const CHECK_TOLERANCE: f64 = 2.0;

/// Gates `report` against a committed baseline (the JSON previously written
/// by [`render_report_json`]).  Returns a human-readable verdict;
/// `Err` means the gate failed (regression or unreadable baseline).
pub fn check_against(report: &LoadReport, baseline_json: &str) -> Result<String, String> {
    let base_rps = report_field(baseline_json, "rps")
        .ok_or_else(|| "baseline has no `rps` field".to_string())?;
    let base_p99 = report_field(baseline_json, "p99_ms")
        .ok_or_else(|| "baseline has no `p99_ms` field".to_string())?;
    if report.errors > 0 {
        return Err(format!("{} request(s) failed", report.errors));
    }
    let rps_floor = base_rps / CHECK_TOLERANCE;
    let p99_ceiling = base_p99 * CHECK_TOLERANCE;
    if report.rps < rps_floor {
        return Err(format!(
            "throughput regressed: {:.1} rps < floor {:.1} (baseline {:.1} / {CHECK_TOLERANCE})",
            report.rps, rps_floor, base_rps
        ));
    }
    if report.p99_ms > p99_ceiling {
        return Err(format!(
            "p99 latency regressed: {:.3} ms > ceiling {:.3} (baseline {:.3} × {CHECK_TOLERANCE})",
            report.p99_ms, p99_ceiling, base_p99
        ));
    }
    Ok(format!(
        "load gate ok: {:.1} rps ≥ {:.1}, p99 {:.3} ms ≤ {:.3} ms",
        report.rps, rps_floor, report.p99_ms, p99_ceiling
    ))
}

/// Writes report JSON to `<results dir>/BENCH_serve.json` (the directory is
/// `results/`, overridable with `CHAIN2L_RESULTS_DIR` — identical behavior
/// to `chain2l_bench::write_result_file`, duplicated here so the CLI does
/// not need the bench crate).
pub fn write_report_file(json: &str) -> Option<PathBuf> {
    let dir = match std::env::var_os("CHAIN2L_RESULTS_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from("results"),
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join("BENCH_serve.json");
    match std::fs::write(&path, json) {
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

    fn report() -> LoadReport {
        LoadReport {
            connections: 500,
            window: 8,
            requests: 10_000,
            completed: 10_000,
            errors: 0,
            retries: 0,
            shed: 0,
            duration_s: 1.25,
            rps: 8_000.0,
            p50_ms: 1.2,
            p99_ms: 4.5,
            p999_ms: 9.0,
            max_ms: 12.5,
        }
    }

    #[test]
    fn report_json_round_trips_the_gated_fields() {
        let json = render_report_json(&report());
        assert_eq!(report_field(&json, "rps"), Some(8_000.0));
        assert_eq!(report_field(&json, "p99_ms"), Some(4.5));
        assert_eq!(report_field(&json, "connections"), Some(500.0));
        assert_eq!(report_field(&json, "missing"), None);
    }

    #[test]
    fn check_gate_passes_within_tolerance_and_fails_beyond() {
        let baseline = render_report_json(&report());
        let mut fine = report();
        fine.rps /= 1.5;
        fine.p99_ms *= 1.5;
        assert!(check_against(&fine, &baseline).is_ok());
        let mut slow = report();
        slow.rps /= 3.0;
        assert!(check_against(&slow, &baseline).unwrap_err().contains("throughput"));
        let mut laggy = report();
        laggy.p99_ms *= 3.0;
        assert!(check_against(&laggy, &baseline).unwrap_err().contains("p99"));
        let mut failed = report();
        failed.errors = 1;
        assert!(check_against(&failed, &baseline).is_err());
        assert!(check_against(&report(), "{}").is_err());
    }
}
