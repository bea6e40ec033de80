//! Seeded chaos soak of the serve path: a daemon with real shard worker
//! processes runs a pipelined batch while **four fault classes** fire —
//!
//! 1. a shard worker SIGKILLed mid-stream (respawn + inflight replay),
//! 2. failpoint-injected snapshot/persist write errors inside the workers
//!    (`snapshot.fsync=err`, `persist.write=err`),
//! 3. failpoint-injected shard-link write errors in the daemon
//!    (`link.write=err`, tearing the link down and forcing respawn),
//! 4. failpoint-injected connection faults on the client (`client.read=err`,
//!    exercising reconnect-and-resend with backoff),
//!
//! — and the batch outcomes must be **bit-identical** to an undisturbed
//! run, twice in a row with the same failpoint seed, with zero inflight
//! entries leaked (observed through the `health` verb).  The failpoint
//! schedule is seeded, so each site fires at the same draw positions in
//! every run; deterministic solves + ordered release + retry idempotence
//! turn that into identical results.

use chain2l_core::failpoint;
use chain2l_service::protocol::{SolveResult, SolveSpec};
use chain2l_service::{client, ClientConfig, ServeConfig, ServeSummary, Server};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;
use std::thread::JoinHandle;

/// The failpoint registry is process-global; serialize the tests in this
/// binary so one test's armed faults never leak into the other.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn spec(platform: &str, pattern: &str, tasks: usize, algorithm: &str) -> SolveSpec {
    SolveSpec {
        platform: platform.to_string(),
        pattern: pattern.to_string(),
        tasks,
        weight: 25_000.0,
        algorithm: algorithm.to_string(),
    }
}

/// A 48-request mix spanning platforms, patterns, algorithms and duplicates.
fn request_set() -> Vec<SolveSpec> {
    let base = vec![
        spec("hera", "uniform", 8, "admv*"),
        spec("atlas", "decrease", 6, "adv*"),
        spec("coastal-ssd", "uniform", 7, "admv"),
        spec("hera", "highlow", 5, "admv"),
        spec("coastal", "uniform", 6, "admv*"),
        spec("hera", "uniform", 9, "adv*"),
    ];
    base.into_iter().cycle().take(48).collect()
}

/// Bit-exact comparison key of one outcome (`f64` fields by `to_bits`).
type OutcomeKey = (u64, u64, u64, u64, u64, u64);

fn key(result: &SolveResult) -> OutcomeKey {
    (
        result.expected_makespan.to_bits(),
        result.normalized_makespan.to_bits(),
        result.disk,
        result.memory,
        result.guaranteed,
        result.partial,
    )
}

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

fn start_server(
    failpoints: Option<&str>,
    state_dir: Option<&std::path::Path>,
) -> (SocketAddr, Vec<u32>, JoinHandle<ServeSummary>) {
    let mut config = worker_config(2);
    config.failpoints = failpoints.map(str::to_string);
    config.state_dir = state_dir.map(|d| d.to_path_buf());
    config.snapshot_every_secs = 3600;
    let server = Server::bind(&config).expect("daemon binds");
    let addr = server.local_addr();
    let pids = server.shard_pids();
    let handle = std::thread::spawn(move || server.run().expect("daemon runs"));
    (addr, pids, handle)
}

/// Runs the full batch with the fault-tolerant client and returns the
/// bit-exact outcome keys (every request must eventually succeed).
fn soak_batch(addr: &str, specs: &[SolveSpec]) -> (Vec<OutcomeKey>, u32, u64) {
    let config = ClientConfig {
        request_timeout: std::time::Duration::from_secs(120),
        max_retries: 40,
        backoff_base_ms: 2,
        backoff_cap_ms: 40,
        retry_seed: 2016,
    };
    let report = client::solve_batch_with(addr, specs, &config).expect("soak batch succeeds");
    let keys = report
        .outcomes
        .iter()
        .map(|o| key(o.as_ref().expect("every request eventually succeeds")))
        .collect();
    (keys, report.retries, report.shed)
}

/// One chaos run: daemon with the seeded failpoint schedule + persistence,
/// a worker SIGKILLed shortly after the batch starts, client-side
/// connection faults armed in this process.  Returns the outcome keys and
/// the post-batch health report.
fn chaos_run(
    specs: &[SolveSpec],
    state_dir: &std::path::Path,
) -> (Vec<OutcomeKey>, chain2l_service::HealthReport) {
    // One spec, every class: worker-side snapshot/persist errors (via the
    // inherited environment), daemon-side link write errors, client-side
    // read errors.  `seed=` pins every site's draw schedule.
    let spec_text = "snapshot.fsync=err@1/4;persist.write=err@1/8;\
                     link.write=err@1/96;client.read=err@1/12;seed=2016";
    let (addr, pids, handle) = start_server(Some(spec_text), Some(state_dir));
    let addr_text = addr.to_string();

    // Fault class 1: SIGKILL one worker while the batch is inflight.
    let kill_pid = pids[0];
    let killer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(40));
        let status =
            Command::new("kill").args(["-9", &kill_pid.to_string()]).status().expect("run kill");
        assert!(status.success(), "kill -9 {kill_pid} failed");
    });
    let (keys, _retries, _shed) = soak_batch(&addr_text, specs);
    killer.join().expect("killer thread");

    // Disarm this process's failpoints (the daemon thread shares the
    // registry) so the control-plane epilogue runs cleanly; the injected
    // faults already happened while the batch was inflight.
    failpoint::clear();
    let health = client::health(&addr_text).expect("health");
    client::shutdown(&addr_text).expect("shutdown");
    handle.join().expect("server thread");
    (keys, health)
}

#[test]
fn chaos_soak_is_byte_identical_and_reproducible() {
    let _guard = REGISTRY_LOCK.lock().expect("registry lock");
    let specs = request_set();

    // Undisturbed reference: no failpoints, no kills, no persistence.
    let (addr, _pids, handle) = start_server(None, None);
    let (reference, retries, shed) = soak_batch(&addr.to_string(), &specs);
    client::health(&addr.to_string()).expect("health");
    client::shutdown(&addr.to_string()).expect("shutdown");
    handle.join().expect("server thread");
    assert_eq!(retries, 0, "no retries without faults");
    assert_eq!(shed, 0, "no shedding without an inflight cap");

    // Two chaos runs with the same seed, each over a fresh state dir.
    for round in 0..2 {
        let state_dir =
            std::env::temp_dir().join(format!("chain2l-chaos-{round}-{}", std::process::id()));
        std::fs::create_dir_all(&state_dir).expect("create state dir");
        let (keys, health) = chaos_run(&specs, &state_dir);
        assert_eq!(
            keys, reference,
            "round {round}: chaos run diverged from the undisturbed results"
        );
        // Zero leaked inflight entries: every pending solve was either
        // answered or replayed-and-answered; nothing is stuck.
        assert_eq!(health.inflight, 0, "round {round}: leaked inflight entries: {health:?}");
        assert_eq!(health.shards, 2);
        assert_eq!(
            health.live + health.failed,
            2,
            "round {round}: every shard accounted for: {health:?}"
        );
        assert!(
            health.live >= 1,
            "round {round}: at least the unkilled shard must be live: {health:?}"
        );
        let _ = std::fs::remove_dir_all(&state_dir);
    }
}

#[test]
fn overload_shedding_is_absorbed_by_client_retry() {
    let _guard = REGISTRY_LOCK.lock().expect("registry lock");
    // A daemon with a tiny admission cap under a pipelined batch: sheds
    // must occur, every shed must be retried to success, and the results
    // stay bit-identical to an uncapped run.
    let specs = request_set();
    let (addr, _pids, handle) = start_server(None, None);
    let (reference, _r, _s) = soak_batch(&addr.to_string(), &specs);
    client::shutdown(&addr.to_string()).expect("shutdown");
    handle.join().expect("server thread");

    let mut config = worker_config(2);
    config.max_inflight = 2;
    let server = Server::bind(&config).expect("daemon binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("daemon runs"));

    let (keys, _retries, shed) = soak_batch(&addr, &specs);
    assert_eq!(keys, reference, "shedding changed the results");
    assert!(shed > 0, "a 48-deep pipeline against max_inflight=2 must shed");
    let health = client::health(&addr).expect("health");
    assert_eq!(health.inflight, 0, "leaked inflight entries: {health:?}");
    assert_eq!(health.shed, shed, "daemon and client disagree on sheds: {health:?}");
    let summary_shed = {
        client::shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread").shed
    };
    assert_eq!(summary_shed, shed, "shutdown summary must carry the shed counter");
}
