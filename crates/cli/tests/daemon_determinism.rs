//! End-to-end daemon tests with real shard worker *processes*
//! (`chain2l serve --internal-shard`): concurrent clients receive
//! byte-identical, bit-exact answers at every shard count, one solving
//! context's growing chain is held and extended by one shard only, a shard
//! worker killed mid-stream is respawned with its inflight requests
//! replayed (same byte stream as an undisturbed run), malformed input never
//! takes the daemon down, and graceful shutdown reports per-shard
//! statistics.

use chain2l_core::Engine;
use chain2l_service::protocol::{self, Request, Response, SolveResult, SolveSpec};
use chain2l_service::{client, ServeConfig, ServeSummary, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::Command;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A daemon whose shard workers are `chain2l serve --internal-shard`
/// processes — the same worker the CLI daemon spawns.
fn worker_config(shards: usize) -> ServeConfig {
    ServeConfig::new(
        "127.0.0.1:0",
        shards,
        PathBuf::from(env!("CARGO_BIN_EXE_chain2l")),
        vec!["serve".to_string(), "--internal-shard".to_string()],
    )
}

fn start_server_with_pids(shards: usize) -> (SocketAddr, Vec<u32>, JoinHandle<ServeSummary>) {
    let config = worker_config(shards);
    let server = Server::bind(&config).expect("daemon binds");
    let addr = server.local_addr();
    let pids = server.shard_pids();
    let handle = std::thread::spawn(move || server.run().expect("daemon runs"));
    (addr, pids, handle)
}

fn start_server(shards: usize) -> (SocketAddr, JoinHandle<ServeSummary>) {
    let (addr, _pids, handle) = start_server_with_pids(shards);
    (addr, handle)
}

/// A daemon whose shard workers persist warm-start snapshots into
/// `state_dir`.  The periodic timer is parked far out so only the exit-path
/// snapshots (graceful shutdown, parent death) are in play — tests stay
/// timing-independent.
fn start_persistent_server(
    shards: usize,
    state_dir: &std::path::Path,
) -> (SocketAddr, Vec<u32>, JoinHandle<ServeSummary>) {
    let mut config = worker_config(shards);
    config.state_dir = Some(state_dir.to_path_buf());
    config.snapshot_every_secs = 3600;
    let server = Server::bind(&config).expect("daemon binds");
    let addr = server.local_addr();
    let pids = server.shard_pids();
    let handle = std::thread::spawn(move || server.run().expect("daemon runs"));
    (addr, pids, handle)
}

fn spec(platform: &str, pattern: &str, tasks: usize, algorithm: &str) -> SolveSpec {
    SolveSpec {
        platform: platform.to_string(),
        pattern: pattern.to_string(),
        tasks,
        weight: 25_000.0,
        algorithm: algorithm.to_string(),
    }
}

/// A request mix spanning platforms, patterns and algorithms, with
/// duplicates so shard-local caches are exercised.
fn request_set() -> Vec<SolveSpec> {
    vec![
        spec("hera", "uniform", 8, "admv*"),
        spec("atlas", "decrease", 6, "adv*"),
        spec("coastal-ssd", "uniform", 7, "admv"),
        spec("hera", "uniform", 8, "admv*"), // duplicate of #0
        spec("hera", "highlow", 5, "admv"),
        spec("coastal", "uniform", 6, "admv*"),
        spec("atlas", "decrease", 6, "adv*"), // duplicate of #1
        spec("hera", "uniform", 9, "adv*"),
    ]
}

/// Bit-exact comparison key of one outcome.
fn key(result: &SolveResult) -> (u64, u64, u64, u64, u64, u64) {
    (
        result.expected_makespan.to_bits(),
        result.normalized_makespan.to_bits(),
        result.disk,
        result.memory,
        result.guaranteed,
        result.partial,
    )
}

fn local_reference(specs: &[SolveSpec]) -> Vec<(u64, u64, u64, u64, u64, u64)> {
    let engine = Engine::new();
    specs
        .iter()
        .map(|s| {
            let (scenario, algorithm) = protocol::resolve_spec(s).expect("valid spec");
            key(&SolveResult::from_solution(&engine.solve(&scenario, algorithm)))
        })
        .collect()
}

#[test]
fn concurrent_clients_get_bit_identical_answers_at_every_shard_count() {
    let specs = request_set();
    let reference = local_reference(&specs);
    for shards in [1usize, 2, 4] {
        let (addr, handle) = start_server(shards);
        let addr_text = addr.to_string();

        // Several clients stream the full batch concurrently.
        let clients: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr_text.clone();
                let specs = specs.clone();
                std::thread::spawn(move || client::solve_batch(&addr, &specs))
            })
            .collect();
        for client_handle in clients {
            let outcomes = client_handle.join().expect("client thread").expect("batch succeeds");
            assert_eq!(outcomes.len(), specs.len());
            let keys: Vec<_> =
                outcomes.iter().map(|o| key(o.as_ref().expect("every request succeeds"))).collect();
            assert_eq!(keys, reference, "{shards} shard(s): remote differs from local");
        }

        // Per-shard statistics are reported for every worker, led by the
        // daemon's own admission/supervision line.
        let (reported, detail) = client::stats(&addr_text).expect("stats");
        assert_eq!(reported as usize, shards);
        assert_eq!(detail.lines().count(), shards + 1, "{detail}");
        assert!(detail.starts_with("daemon: inflight 0, shed 0, respawns 0"), "{detail}");
        assert!(detail.contains(&format!("failed shards 0/{shards}")), "{detail}");
        assert!(detail.contains("shard 0:"), "{detail}");

        // The health verb reports the same supervision state, typed.
        let health = client::health(&addr_text).expect("health");
        assert_eq!(health.shards as usize, shards);
        assert_eq!(health.live as usize, shards);
        assert_eq!(health.failed, 0);
        assert_eq!(health.respawns, 0);
        assert_eq!(health.inflight, 0, "no solve may leak an inflight entry");
        assert_eq!(health.detail.lines().count(), shards);
        assert!(health.detail.contains("shard 0: live (respawns 0)"), "{}", health.detail);

        // Graceful shutdown returns the final per-shard statistics.
        client::shutdown(&addr_text).expect("shutdown");
        let summary = handle.join().expect("server thread");
        assert_eq!(summary.per_shard.len(), shards);
        assert!(summary.connections >= 4, "3 clients + control ops, got {}", summary.connections);
        // Every distinct fingerprint was solved somewhere, none twice: the
        // shard engines' miss counts sum to the number of distinct specs.
        let total_misses: u64 = summary
            .per_shard
            .iter()
            .map(|line| {
                let misses = line.split(" misses").next().and_then(|s| s.split(", ").last());
                misses.and_then(|m| m.parse::<u64>().ok()).unwrap_or(0)
            })
            .sum();
        assert_eq!(total_misses, 6, "8 requests, 2 duplicates: {:?}", summary.per_shard);
    }
}

/// The number in front of `label` in a per-shard statistics line, e.g.
/// `count_before(line, " extended")` for "…, 7 extended, …".
fn count_before(line: &str, label: &str) -> u64 {
    line.split(label)
        .next()
        .and_then(|head| head.rsplit([' ', '(']).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no count before {label:?} in {line}"))
}

#[test]
fn one_context_is_extended_by_one_shard_only() {
    // A weak-scaling series of one solving context: 400 s per task, so each
    // chain's weights are a bitwise prefix of the next one's.
    let series: Vec<SolveSpec> = (5..=12)
        .map(|n| SolveSpec { weight: 400.0 * n as f64, ..spec("hera", "uniform", n, "admv*") })
        .collect();
    let offline: String = {
        let engine = Engine::new();
        series
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let (scenario, algorithm) = protocol::resolve_spec(s).expect("valid spec");
                let result = SolveResult::from_solution(&engine.solve(&scenario, algorithm));
                format!(
                    "{}\n",
                    protocol::encode_response(&Response::Solve { id: id as u64, result })
                )
            })
            .collect()
    };
    for shards in [2usize, 4] {
        let (addr, handle) = start_server(shards);
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        // One request at a time, so each length extends the previous one's
        // settled tables.
        let mut replies = String::new();
        for (id, s) in series.iter().enumerate() {
            let request =
                protocol::encode_request(&Request::Solve { id: id as u64, spec: s.clone() });
            writer.write_all(format!("{request}\n").as_bytes()).expect("send");
            let n = reader.read_line(&mut replies).expect("read reply");
            assert!(n > 0, "{shards} shards: daemon closed the connection");
        }
        assert_eq!(replies, offline, "{shards} shards: replies differ from the offline run");

        // Exactly one shard retains the context and made all 7 extensions.
        let (_, detail) = client::stats(&addr.to_string()).expect("stats");
        let mut per_shard: Vec<(u64, u64)> = detail
            .lines()
            .filter(|l| l.starts_with("shard "))
            .map(|l| (count_before(l, " retained"), count_before(l, " extended")))
            .collect();
        per_shard.sort_unstable();
        let mut expected = vec![(0, 0); shards - 1];
        expected.push((1, 7));
        assert_eq!(per_shard, expected, "{shards} shards: {detail}");
        client::shutdown(&addr.to_string()).expect("shutdown");
        handle.join().expect("server thread");
    }
}

/// Pipelines `payload` over one raw connection, reads exactly `responses`
/// NDJSON lines and returns the raw response byte stream.  `kill_after_first`
/// SIGKILLs that pid right after the first response arrives, so the
/// remaining requests are guaranteed to be mid-stream when the worker dies.
fn raw_batch(
    addr: &str,
    payload: &str,
    responses: usize,
    kill_after_first: Option<u32>,
) -> Vec<u8> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(payload.as_bytes()).expect("pipeline requests");
    writer.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    let mut bytes = Vec::new();
    for index in 0..responses {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "daemon closed the connection after {index} of {responses} responses");
        bytes.extend_from_slice(line.as_bytes());
        if index == 0 {
            if let Some(pid) = kill_after_first {
                let status =
                    Command::new("kill").args(["-9", &pid.to_string()]).status().expect("run kill");
                assert!(status.success(), "kill -9 {pid} failed");
            }
        }
    }
    bytes
}

/// Waits (bounded) until the daemon's `health` reports a respawn.  A
/// worker killed after its last reply leaves nothing to replay, so only the
/// parent's loop noticing the dead link records the respawn, and a shutdown
/// sent right away could otherwise beat it.
fn await_respawn(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while client::health(addr).expect("health").respawns == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn killing_a_shard_mid_stream_leaves_the_byte_stream_identical() {
    // A batch large enough that ~all of it is still inflight when the first
    // response arrives (the whole payload is pipelined up front and the
    // default window is far larger than the batch).
    let specs: Vec<SolveSpec> = request_set().into_iter().cycle().take(32).collect();
    let payload: String = specs
        .iter()
        .enumerate()
        .map(|(id, spec)| {
            format!(
                "{}\n",
                protocol::encode_request(&Request::Solve { id: id as u64, spec: spec.clone() })
            )
        })
        .collect();

    // Undisturbed reference run.
    let (addr, handle) = start_server(2);
    let undisturbed = raw_batch(&addr.to_string(), &payload, specs.len(), None);
    client::shutdown(&addr.to_string()).expect("shutdown");
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.respawns, 0, "no worker should die in the reference run");

    // Same batch, but one shard worker is SIGKILLed right after the first
    // response: the parent must respawn it, replay its inflight requests and
    // deliver the exact same byte stream (ordered release + deterministic
    // solves + bit-exact float round-trips).
    let (addr, pids, handle) = start_server_with_pids(2);
    assert_eq!(pids.len(), 2);
    let disturbed = raw_batch(&addr.to_string(), &payload, specs.len(), Some(pids[0]));
    await_respawn(&addr.to_string());
    client::shutdown(&addr.to_string()).expect("shutdown");
    let summary = handle.join().expect("server thread");
    assert!(summary.respawns >= 1, "the killed worker must have been respawned");
    assert_eq!(
        String::from_utf8_lossy(&disturbed),
        String::from_utf8_lossy(&undisturbed),
        "byte stream changed across a worker kill + respawn"
    );
    assert_eq!(disturbed, undisturbed);
}

#[test]
fn restarted_daemon_serves_warm_from_snapshots_with_identical_bytes() {
    let state_dir =
        std::env::temp_dir().join(format!("chain2l-restart-det-{}", std::process::id()));
    std::fs::create_dir_all(&state_dir).expect("create state dir");
    let specs: Vec<SolveSpec> = request_set().into_iter().cycle().take(32).collect();
    let payload: String = specs
        .iter()
        .enumerate()
        .map(|(id, spec)| {
            format!(
                "{}\n",
                protocol::encode_request(&Request::Solve { id: id as u64, spec: spec.clone() })
            )
        })
        .collect();

    // Run 1: cold boot, solves everything, snapshots on graceful shutdown.
    let (addr, _pids, handle) = start_persistent_server(2, &state_dir);
    let cold_run = raw_batch(&addr.to_string(), &payload, specs.len(), None);
    client::shutdown(&addr.to_string()).expect("shutdown");
    handle.join().expect("server thread");
    for shard in 0..2 {
        let snap = state_dir.join(format!("shard-{shard}-of-2.snap"));
        assert!(snap.is_file(), "graceful shutdown must leave {}", snap.display());
    }

    // Run 2: a fresh daemon over the same state dir boots warm and serves
    // the whole batch from restored state — byte-identically.
    let (addr, _pids, handle) = start_persistent_server(2, &state_dir);
    let warm_run = raw_batch(&addr.to_string(), &payload, specs.len(), None);
    let (_, detail) = client::stats(&addr.to_string()).expect("stats");
    client::shutdown(&addr.to_string()).expect("shutdown");
    handle.join().expect("server thread");
    assert_eq!(
        String::from_utf8_lossy(&warm_run),
        String::from_utf8_lossy(&cold_run),
        "restart from snapshots changed the response byte stream"
    );
    assert_eq!(warm_run, cold_run);
    // Both shards really were warm: boot loads succeeded and not a single
    // request missed the restored cache.
    assert_eq!(detail.matches("load: warm").count(), 2, "{detail}");
    for line in detail.lines().filter(|l| l.starts_with("shard ")) {
        let misses = line.split(" misses").next().and_then(|s| s.split(", ").last());
        assert_eq!(misses.and_then(|m| m.parse::<u64>().ok()), Some(0), "{line}");
    }

    // Run 3: SIGKILL a worker mid-stream.  The respawned worker warm-boots
    // from its snapshot (a SIGKILL'd process cannot write one, so this is
    // the file from run 2's shutdown) and replay keeps the bytes identical.
    let (addr, pids, handle) = start_persistent_server(2, &state_dir);
    let disturbed = raw_batch(&addr.to_string(), &payload, specs.len(), Some(pids[0]));
    await_respawn(&addr.to_string());
    client::shutdown(&addr.to_string()).expect("shutdown");
    let summary = handle.join().expect("server thread");
    assert!(summary.respawns >= 1, "the killed worker must have been respawned");
    assert_eq!(disturbed, cold_run, "kill + warm respawn changed the byte stream");

    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn malformed_and_invalid_requests_never_kill_the_daemon() {
    let (addr, handle) = start_server(2);
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut read_line = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        line.trim_end().to_string()
    };

    // Garbage, a truncated frame, a wrong version and an unknown platform —
    // each answered with ok:false on the same connection.
    writer.write_all(b"this is not json\n").unwrap();
    assert!(read_line().contains("\"ok\":false"));
    writer.write_all(b"{\"v\":1,\"id\":7,\"op\":\"solve\",\"platform\":\n").unwrap();
    assert!(read_line().contains("\"ok\":false"));
    writer.write_all(b"{\"v\":99,\"id\":8,\"op\":\"ping\"}\n").unwrap();
    let line = read_line();
    assert!(line.contains("\"ok\":false") && line.contains("version"), "{line}");
    let bad_platform = protocol::encode_request(&protocol::Request::Solve {
        id: 9,
        spec: spec("titan", "uniform", 5, "admv*"),
    });
    writer.write_all(format!("{bad_platform}\n").as_bytes()).unwrap();
    let line = read_line();
    assert!(line.contains("\"ok\":false") && line.contains("titan"), "{line}");

    // The daemon is still healthy: a valid request on the same connection.
    let good = protocol::encode_request(&protocol::Request::Solve {
        id: 10,
        spec: spec("hera", "uniform", 5, "admv*"),
    });
    writer.write_all(format!("{good}\n").as_bytes()).unwrap();
    let line = read_line();
    assert!(line.contains("\"ok\":true") && line.contains("\"id\":10"), "{line}");

    client::shutdown(&addr.to_string()).expect("shutdown");
    handle.join().expect("server thread");
}
