//! The versioned NDJSON request/response protocol of the `chain2l` daemon.
//!
//! Every frame is one flat JSON object on one line (see [`crate::json`]).
//! Requests carry the protocol version `v`, a caller-chosen `id` (echoed in
//! the matching response, so pipelined requests may be answered in any
//! order) and an `op`:
//!
//! ```text
//! {"v":2,"id":7,"op":"solve","platform":"hera","pattern":"uniform",
//!  "tasks":20,"weight":25000.0,"algorithm":"admv"}
//! {"v":2,"id":8,"op":"stats"}
//! {"v":2,"id":9,"op":"ping"}
//! {"v":2,"id":10,"op":"health"}
//! {"v":2,"id":11,"op":"shutdown"}
//! ```
//!
//! Responses echo `v`, `id` and `op` and add `ok`; failed requests (unknown
//! op, version mismatch, invalid scenario, malformed frame) get
//! `{"ok":false,"error":"…"}` — a malformed line never kills the connection,
//! let alone the daemon.  Solve responses carry the optimum:
//!
//! ```text
//! {"v":2,"id":7,"ok":true,"op":"solve","expected_makespan":25822.97…,
//!  "normalized_makespan":1.03…,"disk":1,"memory":3,"guaranteed":5,"partial":2}
//! ```
//!
//! Version 2 (this build) added the `health` op — the daemon answers from
//! its supervision state without touching workers — and overload shedding:
//! when the global inflight cap is hit, a solve is refused immediately with
//! `{"ok":false,"error":"overloaded"}` ([`OVERLOADED`]) rather than queued
//! unboundedly.  Shed requests are safe to retry: solves are idempotent
//! pure functions of the spec, and responses are keyed by `id`.
//!
//! Floats are encoded with Rust's shortest round-trip formatting, so the
//! remote client re-materialises bit-identical `f64`s — that is what makes
//! `chain2l batch --remote` byte-identical to the offline `chain2l batch`.
//! Unknown fields are ignored (forward compatibility); a missing or
//! different `v` is a hard error (frames are versioned, not guessed).

use crate::json::{self, Object, ObjectBuilder, Value};
use chain2l_core::{Algorithm, Solution};
use chain2l_model::platform::scr;
use chain2l_model::{Scenario, WeightPattern};
use std::fmt::Write;

/// The protocol version this build speaks.
pub const VERSION: u64 = 2;

/// The error message of an overload-shed solve response.  Clients treat
/// exactly this string as retryable; every other error is permanent.
pub const OVERLOADED: &str = "overloaded";

/// A protocol-level failure: malformed frame, version mismatch, unknown op
/// or missing field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    message: String,
}

impl ProtocolError {
    fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// One solve request payload: the same fields as a `chain2l batch` line.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveSpec {
    /// Platform name (resolved with [`scr::by_name`]).
    pub platform: String,
    /// Weight pattern name (resolved with [`WeightPattern::by_name`]).
    pub pattern: String,
    /// Number of tasks.
    pub tasks: usize,
    /// Total computational weight (seconds).
    pub weight: f64,
    /// Algorithm label (resolved with [`Algorithm::parse`]).
    pub algorithm: String,
}

/// The optimum reported for one solve request.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Optimal expected makespan (seconds).
    pub expected_makespan: f64,
    /// Expected makespan over the error-free time.
    pub normalized_makespan: f64,
    /// Disk checkpoints placed.
    pub disk: u64,
    /// Memory checkpoints placed.
    pub memory: u64,
    /// Guaranteed verifications placed.
    pub guaranteed: u64,
    /// Partial verifications placed.
    pub partial: u64,
}

impl SolveResult {
    /// Extracts the wire payload from a solver [`Solution`].
    pub fn from_solution(solution: &Solution) -> Self {
        Self {
            expected_makespan: solution.expected_makespan,
            normalized_makespan: solution.normalized_makespan,
            disk: solution.counts.disk_checkpoints as u64,
            memory: solution.counts.memory_checkpoints as u64,
            guaranteed: solution.counts.guaranteed_verifications as u64,
            partial: solution.counts.partial_verifications as u64,
        }
    }
}

/// One request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Solve one scenario.
    Solve {
        /// Caller-chosen id, echoed in the response.
        id: u64,
        /// The scenario to solve.
        spec: SolveSpec,
    },
    /// Report engine statistics (the daemon aggregates across shards).
    Stats {
        /// Caller-chosen id, echoed in the response.
        id: u64,
    },
    /// Liveness probe.
    Ping {
        /// Caller-chosen id, echoed in the response.
        id: u64,
    },
    /// Per-shard liveness/respawn/failed state, answered by the daemon
    /// parent from its supervision bookkeeping (no worker round-trip).
    Health {
        /// Caller-chosen id, echoed in the response.
        id: u64,
    },
    /// Graceful shutdown of the daemon and its shards.
    Shutdown {
        /// Caller-chosen id, echoed in the response.
        id: u64,
    },
}

/// The daemon's supervision state, as reported by the `health` op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Configured shard count.
    pub shards: u64,
    /// Shards currently live (worker running, link open).
    pub live: u64,
    /// Shards marked failed (respawn budget exhausted).
    pub failed: u64,
    /// Total worker respawns since boot.
    pub respawns: u64,
    /// Solve requests shed with [`OVERLOADED`] since boot.
    pub shed: u64,
    /// Solve requests currently inflight across all connections.
    pub inflight: u64,
    /// One human-readable line per shard
    /// (`shard 0: live (respawns 1)`, `shard 2: failed`).
    pub detail: String,
}

/// One response frame.
#[derive(Debug, Clone)]
pub enum Response {
    /// A successful solve.
    Solve {
        /// Echo of the request id.
        id: u64,
        /// The optimum.
        result: SolveResult,
    },
    /// Engine statistics.
    Stats {
        /// Echo of the request id.
        id: u64,
        /// Number of shards covered by `detail`.
        shards: u64,
        /// Human-readable per-shard statistics, one shard per line.
        detail: String,
    },
    /// Liveness reply.
    Pong {
        /// Echo of the request id.
        id: u64,
    },
    /// Supervision-state reply.
    Health {
        /// Echo of the request id.
        id: u64,
        /// The daemon's current supervision state.
        report: HealthReport,
    },
    /// Shutdown acknowledged; the daemon exits after sending this.
    ShuttingDown {
        /// Echo of the request id.
        id: u64,
    },
    /// The request failed (the connection stays usable).
    Error {
        /// Echo of the request id (0 when the frame was too malformed to
        /// carry one).
        id: u64,
        /// What went wrong.
        message: String,
    },
}

impl Response {
    /// The echoed request id of any response kind.
    pub fn id(&self) -> u64 {
        match self {
            Response::Solve { id, .. }
            | Response::Stats { id, .. }
            | Response::Pong { id }
            | Response::Health { id, .. }
            | Response::ShuttingDown { id }
            | Response::Error { id, .. } => *id,
        }
    }

    /// True for an overload-shed refusal — the one error that is always
    /// safe and sensible to retry.
    pub fn is_overloaded(&self) -> bool {
        matches!(self, Response::Error { message, .. } if message == OVERLOADED)
    }

    /// The shed response for a solve refused by the inflight cap.
    pub fn overloaded(id: u64) -> Self {
        Response::Error { id, message: OVERLOADED.to_string() }
    }
}

fn head(op: &str, id: u64) -> ObjectBuilder {
    ObjectBuilder::new().u64("v", VERSION).u64("id", id).str("op", op)
}

/// Encodes a request as one NDJSON line (no trailing newline).
pub fn encode_request(request: &Request) -> String {
    match request {
        Request::Solve { id, spec } => head("solve", *id)
            .str("platform", &spec.platform)
            .str("pattern", &spec.pattern)
            .u64("tasks", spec.tasks as u64)
            .f64("weight", spec.weight)
            .str("algorithm", &spec.algorithm)
            .finish(),
        Request::Stats { id } => head("stats", *id).finish(),
        Request::Ping { id } => head("ping", *id).finish(),
        Request::Health { id } => head("health", *id).finish(),
        Request::Shutdown { id } => head("shutdown", *id).finish(),
    }
}

/// Encodes a response as one NDJSON line (no trailing newline).
pub fn encode_response(response: &Response) -> String {
    match response {
        Response::Solve { id, result } => head("solve", *id)
            .bool("ok", true)
            .f64("expected_makespan", result.expected_makespan)
            .f64("normalized_makespan", result.normalized_makespan)
            .u64("disk", result.disk)
            .u64("memory", result.memory)
            .u64("guaranteed", result.guaranteed)
            .u64("partial", result.partial)
            .finish(),
        Response::Stats { id, shards, detail } => head("stats", *id)
            .bool("ok", true)
            .u64("shards", *shards)
            .str("detail", detail)
            .finish(),
        Response::Pong { id } => head("ping", *id).bool("ok", true).finish(),
        Response::Health { id, report } => head("health", *id)
            .bool("ok", true)
            .u64("shards", report.shards)
            .u64("live", report.live)
            .u64("failed", report.failed)
            .u64("respawns", report.respawns)
            .u64("shed", report.shed)
            .u64("inflight", report.inflight)
            .str("detail", &report.detail)
            .finish(),
        Response::ShuttingDown { id } => head("shutdown", *id).bool("ok", true).finish(),
        Response::Error { id, message } => ObjectBuilder::new()
            .u64("v", VERSION)
            .u64("id", *id)
            .bool("ok", false)
            .str("error", message)
            .finish(),
    }
}

/// The shard worker's startup line announcing its ephemeral port.
pub fn encode_hello(port: u16) -> String {
    head("hello", 0).u64("port", u64::from(port)).finish()
}

/// Parses a shard worker's startup line.
pub fn parse_hello(line: &str) -> Result<u16, ProtocolError> {
    let map = checked_object(line)?;
    if field(&map, "op")?.as_str() != Some("hello") {
        return Err(ProtocolError::new("expected a hello frame"));
    }
    field(&map, "port")?
        .as_u64()
        .and_then(|p| u16::try_from(p).ok())
        .ok_or_else(|| ProtocolError::new("hello frame carries no valid port"))
}

/// The head every response frame starts with: [`encode_response`] writes
/// `v` and then `id` first, whatever the response kind.
const RESPONSE_HEAD: &str = "{\"v\":2,\"id\":";

/// Splits a response frame into its id and the bytes after the id, reading
/// only the fixed head `{"v":2,"id":` and the id's digits — the rest of the
/// frame is not parsed.  `None` when the frame does not start with that head
/// or no `u64` follows it.
///
/// With [`with_response_id`] this re-keys a frame without parsing and
/// re-encoding it: `with_response_id(new, tail)` is byte for byte the
/// [`encode_response`] of the same response carrying id `new`.
pub fn split_response_id(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix(RESPONSE_HEAD)?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let (id, tail) = rest.split_at_checked(digits)?;
    Some((id.parse().ok()?, tail))
}

/// Rebuilds a response frame under id `id` from the `tail` that
/// [`split_response_id`] returned.
pub fn with_response_id(id: u64, tail: &str) -> String {
    // 20 bytes hold any u64 in decimal.
    let mut line = String::with_capacity(RESPONSE_HEAD.len() + 20 + tail.len());
    line.push_str(RESPONSE_HEAD);
    let _ = write!(line, "{id}"); // writing to a String cannot fail
    line.push_str(tail);
    line
}

fn checked_object(line: &str) -> Result<Object<'_>, ProtocolError> {
    let map = json::parse_object(line).map_err(ProtocolError::new)?;
    match field(&map, "v")?.as_u64() {
        Some(VERSION) => Ok(map),
        Some(v) => Err(ProtocolError::new(format!(
            "unsupported protocol version {v} (this daemon speaks {VERSION})"
        ))),
        None => Err(ProtocolError::new("field `v` is not an integer")),
    }
}

fn field<'m, 'a>(map: &'m Object<'a>, key: &str) -> Result<&'m Value<'a>, ProtocolError> {
    map.get(key).ok_or_else(|| ProtocolError::new(format!("missing field `{key}`")))
}

fn str_field(map: &Object<'_>, key: &str) -> Result<String, ProtocolError> {
    field(map, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ProtocolError::new(format!("field `{key}` is not a string")))
}

fn id_field(map: &Object<'_>) -> Result<u64, ProtocolError> {
    field(map, "id")?
        .as_u64()
        .ok_or_else(|| ProtocolError::new("field `id` is not an unsigned integer"))
}

/// Best-effort extraction of a frame's id for error responses to frames that
/// fail full parsing; 0 when even that is impossible.
pub fn best_effort_id(line: &str) -> u64 {
    json::parse_object(line).ok().and_then(|map| map.get("id")?.as_u64()).unwrap_or(0)
}

/// Parses one request frame.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let map = checked_object(line)?;
    let id = id_field(&map)?;
    match str_field(&map, "op")?.as_str() {
        "solve" => {
            let spec = SolveSpec {
                platform: str_field(&map, "platform")?,
                pattern: str_field(&map, "pattern")?,
                tasks: field(&map, "tasks")?.as_usize().ok_or_else(|| {
                    ProtocolError::new("field `tasks` is not an unsigned integer")
                })?,
                weight: field(&map, "weight")?
                    .as_f64()
                    .ok_or_else(|| ProtocolError::new("field `weight` is not a number"))?,
                algorithm: str_field(&map, "algorithm")?,
            };
            Ok(Request::Solve { id, spec })
        }
        "stats" => Ok(Request::Stats { id }),
        "ping" => Ok(Request::Ping { id }),
        "health" => Ok(Request::Health { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(ProtocolError::new(format!("unknown op `{other}`"))),
    }
}

/// Parses one response frame.
pub fn parse_response(line: &str) -> Result<Response, ProtocolError> {
    let map = checked_object(line)?;
    let id = id_field(&map)?;
    let ok = field(&map, "ok")?
        .as_bool()
        .ok_or_else(|| ProtocolError::new("field `ok` is not a boolean"))?;
    if !ok {
        return Ok(Response::Error { id, message: str_field(&map, "error")? });
    }
    match str_field(&map, "op")?.as_str() {
        "solve" => {
            let num = |key: &str| -> Result<f64, ProtocolError> {
                field(&map, key)?
                    .as_f64()
                    .ok_or_else(|| ProtocolError::new(format!("field `{key}` is not a number")))
            };
            let count = |key: &str| -> Result<u64, ProtocolError> {
                field(&map, key)?.as_u64().ok_or_else(|| {
                    ProtocolError::new(format!("field `{key}` is not an unsigned integer"))
                })
            };
            Ok(Response::Solve {
                id,
                result: SolveResult {
                    expected_makespan: num("expected_makespan")?,
                    normalized_makespan: num("normalized_makespan")?,
                    disk: count("disk")?,
                    memory: count("memory")?,
                    guaranteed: count("guaranteed")?,
                    partial: count("partial")?,
                },
            })
        }
        "stats" => Ok(Response::Stats {
            id,
            shards: field(&map, "shards")?
                .as_u64()
                .ok_or_else(|| ProtocolError::new("field `shards` is not an unsigned integer"))?,
            detail: str_field(&map, "detail")?,
        }),
        "ping" => Ok(Response::Pong { id }),
        "health" => {
            let count = |key: &str| -> Result<u64, ProtocolError> {
                field(&map, key)?.as_u64().ok_or_else(|| {
                    ProtocolError::new(format!("field `{key}` is not an unsigned integer"))
                })
            };
            Ok(Response::Health {
                id,
                report: HealthReport {
                    shards: count("shards")?,
                    live: count("live")?,
                    failed: count("failed")?,
                    respawns: count("respawns")?,
                    shed: count("shed")?,
                    inflight: count("inflight")?,
                    detail: str_field(&map, "detail")?,
                },
            })
        }
        "shutdown" => Ok(Response::ShuttingDown { id }),
        other => Err(ProtocolError::new(format!("unknown response op `{other}`"))),
    }
}

/// Resolves a [`SolveSpec`] into the scenario and algorithm it names.
///
/// This is the single validation path shared by the daemon parent (which
/// needs the scenario to compute the routing digest) and every shard
/// worker — both sides resolving the same spec is what guarantees they agree
/// on the scenario being solved.
pub fn resolve_spec(spec: &SolveSpec) -> Result<(Scenario, Algorithm), String> {
    let platform = scr::by_name(&spec.platform)
        .ok_or_else(|| format!("unknown platform `{}`", spec.platform))?;
    let pattern = WeightPattern::by_name(&spec.pattern)
        .ok_or_else(|| format!("unknown pattern `{}`", spec.pattern))?;
    let algorithm = Algorithm::parse(&spec.algorithm)
        .ok_or_else(|| format!("unknown algorithm `{}`", spec.algorithm))?;
    let scenario = Scenario::paper_setup(&platform, &pattern, spec.tasks, spec.weight)
        .map_err(|e| format!("invalid scenario: {e}"))?;
    Ok((scenario, algorithm))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SolveSpec {
        SolveSpec {
            platform: "hera".into(),
            pattern: "uniform".into(),
            tasks: 20,
            weight: 25_000.0,
            algorithm: "admv".into(),
        }
    }

    #[test]
    fn request_frames_round_trip() {
        for request in [
            Request::Solve { id: 7, spec: spec() },
            Request::Stats { id: 8 },
            Request::Ping { id: 9 },
            Request::Health { id: 10 },
            Request::Shutdown { id: u64::MAX },
        ] {
            let line = encode_request(&request);
            assert_eq!(parse_request(&line).unwrap(), request, "{line}");
        }
    }

    #[test]
    fn solve_response_round_trips_floats_bit_exactly() {
        let result = SolveResult {
            expected_makespan: 25_822.971_312_345_67,
            normalized_makespan: 1.0 / 3.0,
            disk: 1,
            memory: 3,
            guaranteed: 5,
            partial: 2,
        };
        let line = encode_response(&Response::Solve { id: 4, result: result.clone() });
        match parse_response(&line).unwrap() {
            Response::Solve { id, result: back } => {
                assert_eq!(id, 4);
                assert_eq!(back.expected_makespan.to_bits(), result.expected_makespan.to_bits());
                assert_eq!(
                    back.normalized_makespan.to_bits(),
                    result.normalized_makespan.to_bits()
                );
                assert_eq!((back.disk, back.memory, back.guaranteed, back.partial), (1, 3, 5, 2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        // Both a future version and the retired v1 are hard errors: the
        // protocol is versioned, not guessed.
        let line = encode_request(&Request::Ping { id: 1 }).replace("\"v\":2", "\"v\":3");
        let err = parse_request(&line).unwrap_err();
        assert!(err.to_string().contains("version 3"), "{err}");
        let line = encode_request(&Request::Ping { id: 1 }).replace("\"v\":2", "\"v\":1");
        let err = parse_request(&line).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    #[test]
    fn malformed_frames_error_with_best_effort_id() {
        assert!(parse_request("{\"v\":2,\"id\":5}").is_err(), "missing op");
        assert_eq!(best_effort_id("{\"v\":2,\"id\":5}"), 5);
        assert_eq!(best_effort_id("garbage"), 0);
        assert!(parse_request("").is_err());
        assert!(parse_response("{\"v\":2,\"id\":1,\"ok\":true,\"op\":\"solve\"}").is_err());
    }

    #[test]
    fn health_frames_round_trip() {
        let report = HealthReport {
            shards: 4,
            live: 3,
            failed: 1,
            respawns: 7,
            shed: 42,
            inflight: 5,
            detail: "shard 0: live\nshard 1: failed".into(),
        };
        let line = encode_response(&Response::Health { id: 6, report: report.clone() });
        match parse_response(&line).unwrap() {
            Response::Health { id, report: back } => {
                assert_eq!(id, 6);
                assert_eq!(back, report);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn overloaded_sheds_are_recognised_and_retryable() {
        let line = encode_response(&Response::overloaded(9));
        assert!(line.contains("\"ok\":false"), "{line}");
        assert!(line.contains("\"error\":\"overloaded\""), "{line}");
        let parsed = parse_response(&line).unwrap();
        assert!(parsed.is_overloaded());
        assert_eq!(parsed.id(), 9);
        // Any other error is permanent.
        let other = Response::Error { id: 9, message: "unknown platform `titan`".into() };
        assert!(!other.is_overloaded());
    }

    #[test]
    fn error_responses_round_trip() {
        let line =
            encode_response(&Response::Error { id: 3, message: "unknown platform `titan`".into() });
        match parse_response(&line).unwrap() {
            Response::Error { id, message } => {
                assert_eq!(id, 3);
                assert!(message.contains("titan"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// One response of every kind, each carrying id `id`.
    fn every_response_kind(id: u64) -> Vec<Response> {
        vec![
            Response::Solve {
                id,
                result: SolveResult {
                    expected_makespan: 25_822.971_312_345_67,
                    normalized_makespan: f64::NAN,
                    disk: 1,
                    memory: 3,
                    guaranteed: 5,
                    partial: 2,
                },
            },
            Response::Error { id, message: "unknown platform `titan`".into() },
            Response::overloaded(id),
            Response::Pong { id },
            Response::Stats { id, shards: 2, detail: "shard 0: \"x\"\nshard 1: ü".into() },
            Response::Health {
                id,
                report: HealthReport {
                    shards: 1,
                    live: 1,
                    detail: "shard 0: live".into(),
                    ..Default::default()
                },
            },
            Response::ShuttingDown { id },
        ]
    }

    #[test]
    fn splicing_the_id_equals_re_encoding_every_response_kind() {
        for old in [0, 1, u64::MAX] {
            for (response, kind) in every_response_kind(old).into_iter().zip(0..) {
                let line = encode_response(&response);
                let (id, tail) = split_response_id(&line).expect("response head");
                assert_eq!(id, old, "{line}");
                for new in [0, 1, u64::MAX] {
                    let rekeyed = every_response_kind(new).swap_remove(kind);
                    assert_eq!(with_response_id(new, tail), encode_response(&rekeyed), "{line}");
                }
            }
        }
    }

    #[test]
    fn frames_without_a_response_head_have_no_id() {
        for line in [
            "",
            "{\"v\":2,\"id\":",
            "{\"v\":2,\"id\":,\"ok\":true}",
            "{\"v\":2,\"id\":-1,\"ok\":true}",
            "{\"v\":2,\"id\":18446744073709551616,\"ok\":true}",
            "{\"v\":3,\"id\":7,\"ok\":true}",
            "{\"id\":7,\"v\":2,\"ok\":true}",
            " {\"v\":2,\"id\":7}",
            "garbage",
        ] {
            assert_eq!(split_response_id(line), None, "{line}");
        }
        assert_eq!(split_response_id("{\"v\":2,\"id\":7}"), Some((7, "}")));
    }

    #[test]
    fn hello_frames_round_trip() {
        assert_eq!(parse_hello(&encode_hello(43_210)).unwrap(), 43_210);
        assert!(parse_hello("{\"v\":2,\"op\":\"ping\",\"id\":0}").is_err());
    }

    #[test]
    fn resolve_spec_validates_every_field() {
        let (scenario, algorithm) = resolve_spec(&spec()).unwrap();
        assert_eq!(scenario.task_count(), 20);
        assert_eq!(algorithm, Algorithm::TwoLevelPartial);
        for (bad, needle) in [
            (SolveSpec { platform: "titan".into(), ..spec() }, "platform"),
            (SolveSpec { pattern: "random".into(), ..spec() }, "pattern"),
            (SolveSpec { algorithm: "magic".into(), ..spec() }, "algorithm"),
            (SolveSpec { tasks: 0, ..spec() }, "scenario"),
            (SolveSpec { weight: f64::NAN, ..spec() }, "scenario"),
        ] {
            let err = resolve_spec(&bad).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention {needle}");
        }
    }
}
