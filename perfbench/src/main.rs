//! perfbench: the end-to-end and per-layer benchmark of `chain2l serve`.
//!
//! ```text
//! perfbench --daemon PATH --work-dir DIR --workload hit|cold|grow \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! One run spawns the daemon as its own process, sets it up for the
//! workload, drives the workload's seeded streams from this process (at
//! most two connections and two threads), checks every answer against an
//! in-process solve and prints every metric by name with its unit.  The
//! last line of standard output is one JSON object: with `--trace 0` it
//! holds the end-to-end metrics, with `--trace 1` the per-layer metrics of
//! a separate traced pass over the same seed (see README.md).

mod check;
mod daemon;
mod load;
mod replay;
mod trace;
mod workload;

use check::SpecKey;
use daemon::{Daemon, ShardCounts, Worker};
use load::{ProbeRun, Sample, Wire};
use replay::{Replay, Replayed, Route};
use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Trace;
use workload::{Plan, Workload};

/// Attempts at a round before a run whose probe generator keeps running
/// late fails.
const ATTEMPTS: usize = 3;
/// Generator lag (p99 of send time minus due time) beyond which a round is
/// discarded, in milliseconds: half a probe interval.
const LAG_BOUND_MS: f64 = 50.0;
/// Request ids: warm-up solves count from 1, connection `c` from
/// `(c + 1) · ID_BLOCK`, probes from `PROBE_IDS`.
const ID_BLOCK: u64 = 1_000_000_000;
const PROBE_IDS: u64 = 9 * ID_BLOCK;
/// Fewest cache hits the direct worker pass times.
const WORKER_PASS_MIN: usize = 500;
/// Most timed requests whose spans a traced run keeps (an evenly spaced
/// sample in send order); every request is still replayed and counted.
const SPANNED_MAX: usize = 5_000;

struct Args {
    daemon: PathBuf,
    work_dir: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut options: HashMap<String, String> = HashMap::new();
    let mut tokens = std::env::args().skip(1);
    while let Some(flag) = tokens.next() {
        let name = flag.strip_prefix("--").ok_or(format!("unexpected argument `{flag}`"))?;
        let value = tokens.next().ok_or(format!("`{flag}` needs a value"))?;
        options.insert(name.to_string(), value);
    }
    let get = |name: &str| options.get(name).ok_or(format!("missing --{name}"));
    let number = |name: &str| -> Result<u64, String> {
        get(name)?.parse().map_err(|_| format!("--{name} must be a whole number"))
    };
    let workload = get("workload")?;
    Ok(Args {
        daemon: PathBuf::from(get("daemon")?),
        work_dir: PathBuf::from(get("work-dir")?),
        workload: Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: number("seed")?,
        seconds: number("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

/// The plan's requests, encoded once, with their ids.
struct Wires {
    warm: Vec<Wire>,
    streams: Vec<Vec<Wire>>,
    probes: Vec<Wire>,
}

impl Wires {
    fn new(plan: &Plan) -> Wires {
        let warm =
            plan.warm.iter().enumerate().map(|(i, s)| Wire::solve(1 + i as u64, s)).collect();
        let streams = plan
            .streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let base = (c as u64 + 1) * ID_BLOCK;
                stream.iter().enumerate().map(|(i, s)| Wire::solve(base + i as u64, s)).collect()
            })
            .collect();
        let probes = plan.probes.as_ref().map_or(Vec::new(), |p| {
            (0..p.count)
                .map(|i| Wire::solve(PROBE_IDS + i as u64, &p.specs[i % p.specs.len()]))
                .collect()
        });
        Wires { warm, streams, probes }
    }

    /// Every request, by id.
    fn by_id(&self) -> HashMap<u64, &Wire> {
        let all = self.warm.iter().chain(self.streams.iter().flatten()).chain(&self.probes);
        all.map(|wire| (wire.id, wire)).collect()
    }
}

/// One timed phase and the daemon's state right after it.
struct Phase {
    streams: Vec<Vec<Sample>>,
    probes: Option<ProbeRun>,
    start: Instant,
    peak_rss_mb: f64,
    health: chain2l_service::HealthReport,
    counts: Vec<ShardCounts>,
}

/// Latencies of the answered main-stream requests of one or more phases,
/// and how long those phases ran.
struct Summary {
    latencies_ms: Vec<f64>,
    span_s: f64,
}

impl Summary {
    /// The summaries of several phases as one.
    fn pooled(parts: impl IntoIterator<Item = Summary>) -> Summary {
        let mut all = Summary { latencies_ms: Vec::new(), span_s: 0.0 };
        for part in parts {
            all.latencies_ms.extend(part.latencies_ms);
            all.span_s += part.span_s;
        }
        all
    }

    fn p50_ms(&self) -> f64 {
        percentile(&self.latencies_ms, 0.5)
    }

    fn p99_ms(&self) -> f64 {
        percentile(&self.latencies_ms, 0.99)
    }

    /// Answered requests per second of run time.
    fn rps(&self) -> f64 {
        if self.span_s > 0.0 {
            self.latencies_ms.len() as f64 / self.span_s
        } else {
            0.0
        }
    }
}

impl Phase {
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.streams.iter().flatten().chain(self.probes.iter().flat_map(|p| p.samples.iter()))
    }

    fn summary(&self) -> Summary {
        let answered: Vec<&Sample> =
            self.streams.iter().flatten().filter(|s| s.done.is_some() && s.reply.is_ok()).collect();
        let first = answered.iter().map(|s| s.sent).min();
        let last = answered.iter().filter_map(|s| s.done).max();
        let span_s = match (first, last) {
            (Some(first), Some(last)) => last.saturating_duration_since(first).as_secs_f64(),
            _ => 0.0,
        };
        Summary {
            latencies_ms: answered.iter().filter_map(|s| s.latency()).map(ms).collect(),
            span_s,
        }
    }
}

/// One round: a fresh daemon, its (timed) set-up and a timed phase.
struct Round {
    setup_s: f64,
    phase: Phase,
}

/// The rounds of one pass, plus every warm-up reply they got.
struct Pass {
    warm: Vec<Sample>,
    rounds: Vec<Round>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile (`q` in `[0, 1]`); 0 for no values.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    percentile(&values.into_iter().collect::<Vec<_>>(), 0.5)
}

fn mean(total: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// What round `r` sends of `items`: the `r`-th consecutive segment, or all
/// of it when every round boots from the same saved state.
fn part<'a, T>(items: &'a [T], plan: &Plan, r: usize) -> &'a [T] {
    if plan.restart {
        items
    } else {
        &items[r * items.len() / plan.rounds..(r + 1) * items.len() / plan.rounds]
    }
}

/// Runs round `r`'s streams (and probes) against `daemon`.
fn timed_phase(daemon: &Daemon, plan: &Plan, wires: &Wires, r: usize) -> Result<Phase, String> {
    let addr: SocketAddr = daemon.addr;
    let start = Instant::now() + Duration::from_millis(5);
    let (streams, probes) = std::thread::scope(|scope| {
        let helpers: Vec<_> = wires.streams[1..]
            .iter()
            .map(|stream| {
                let stream = part(stream, plan, r);
                scope.spawn(move || {
                    sleep_until(start);
                    load::closed_loop(addr, stream)
                })
            })
            .collect();
        let prober = plan.probes.as_ref().map(|probes| {
            let wires = part(&wires.probes, plan, r);
            scope.spawn(move || load::open_loop(addr, wires, start, probes.interval))
        });
        sleep_until(start);
        let mut streams = vec![load::closed_loop(addr, part(&wires.streams[0], plan, r))];
        for helper in helpers {
            streams.push(helper.join().map_err(|_| "load thread panicked".to_string())?);
        }
        let probes = match prober {
            Some(handle) => Some(handle.join().map_err(|_| "probe thread panicked".to_string())?),
            None => None,
        };
        Ok::<_, String>((streams, probes))
    })?;
    let peak_rss_mb = daemon.peak_rss_mb();
    let health = daemon::health(addr).map_err(|e| format!("health: {e}"))?;
    let counts = daemon::shard_counts(addr, plan.shards).map_err(|e| format!("stats: {e}"))?;
    Ok(Phase { streams, probes, start, peak_rss_mb, health, counts })
}

/// Spawns the daemon and waits until every shard answers `stats`.
fn spawn(
    args: &Args,
    plan: &Plan,
    state_dir: Option<&Path>,
) -> Result<(Daemon, Vec<ShardCounts>), String> {
    let log = args.work_dir.join(format!("daemon-{}.log", std::process::id()));
    let daemon = Daemon::spawn(&args.daemon, plan.shards, state_dir, &log)
        .map_err(|e| format!("spawning the daemon: {e}"))?;
    let counts =
        daemon::shard_counts(daemon.addr, plan.shards).map_err(|e| format!("readiness: {e}"))?;
    Ok((daemon, counts))
}

fn stop(daemon: Daemon) -> Result<(), String> {
    daemon.stop().map_err(|e| format!("stopping the daemon: {e}"))
}

/// Copies every file of `from` into a fresh directory `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("copying {} to {}: {e}", from.display(), to.display());
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).map_err(fail)?;
    for entry in fs::read_dir(from).map_err(fail)? {
        let entry = entry.map_err(fail)?;
        fs::copy(entry.path(), to.join(entry.file_name())).map_err(fail)?;
    }
    Ok(())
}

/// One round on a fresh daemon: set-up (timed: spawn until every shard
/// answers `stats` and the warm-up is done), then the timed phase.  With a
/// `walked` state directory the set-up is a warm boot from a copy of it.
fn round(
    args: &Args,
    plan: &Plan,
    wires: &Wires,
    r: usize,
    walked: Option<&Path>,
) -> Result<(Round, Vec<Sample>), String> {
    let state_dir = args.work_dir.join(format!("state-{}", std::process::id()));
    if let Some(walked) = walked {
        copy_dir(walked, &state_dir)?;
    }
    let begin = Instant::now();
    let (daemon, counts) = spawn(args, plan, walked.map(|_| &*state_dir))?;
    let warm = if walked.is_some() {
        if let Some(cold) = counts.iter().find(|c| c.load != "warm") {
            return Err(format!("a shard booted without its snapshot (load: {})", cold.load));
        }
        Vec::new()
    } else {
        load::closed_loop(daemon.addr, &wires.warm)
    };
    let setup_s = begin.elapsed().as_secs_f64();
    let phase = timed_phase(&daemon, plan, wires, r)?;
    stop(daemon)?;
    let _ = fs::remove_dir_all(&state_dir);
    let _ = fs::remove_file(args.work_dir.join(format!("daemon-{}.log", std::process::id())));
    Ok((Round { setup_s, phase }, warm))
}

/// Rounds `rounds` of a pass.  A `restart` workload first walks its
/// warm-up on a persistent daemon and stops it; every round then boots from
/// a copy of the state that leaves.  A round whose probe generator ran late
/// is discarded and run again on a fresh daemon.
fn pass(
    args: &Args,
    plan: &Plan,
    wires: &Wires,
    rounds: std::ops::Range<usize>,
) -> Result<Pass, String> {
    let walked = args.work_dir.join(format!("walked-{}", std::process::id()));
    let mut warm = Vec::new();
    if plan.restart {
        let _ = fs::remove_dir_all(&walked);
        fs::create_dir_all(&walked).map_err(|e| format!("{}: {e}", walked.display()))?;
        let (daemon, _) = spawn(args, plan, Some(&walked))?;
        warm = load::closed_loop(daemon.addr, &wires.warm);
        stop(daemon)?;
    }
    let mut done = Vec::new();
    for r in rounds {
        let mut attempt_no = 1;
        loop {
            let (round, round_warm) =
                round(args, plan, wires, r, plan.restart.then_some(&*walked))?;
            let lag = round.phase.probes.as_ref().map_or(0.0, |p| percentile(&p.lag_ms, 0.99));
            if lag <= LAG_BOUND_MS {
                warm.extend(round_warm);
                done.push(round);
                break;
            }
            eprintln!(
                "perfbench: round {r} attempt {attempt_no} discarded: the probe generator ran \
                 {lag:.2} ms late (p99, bound {LAG_BOUND_MS} ms)"
            );
            if attempt_no == ATTEMPTS {
                return Err(format!("the probe generator ran late in all {ATTEMPTS} attempts"));
            }
            attempt_no += 1;
        }
    }
    let _ = fs::remove_dir_all(&walked);
    Ok(Pass { warm, rounds: done })
}

/// Failures among the requests a run sent.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }

    /// Counts `samples` and fails each that errored or whose answer differs
    /// from `answer(id)`.
    fn check<'a>(
        &mut self,
        samples: impl IntoIterator<Item = &'a Sample>,
        answer: impl Fn(u64) -> Option<chain2l_service::SolveResult>,
    ) {
        for sample in samples {
            self.attempted += 1;
            match (&sample.reply, answer(sample.id)) {
                (Err(e), _) => self.fail(format!("request {}: {e}", sample.id)),
                (Ok(got), Some(want)) if check::same_answer(got, &want) => {}
                (Ok(got), want) => {
                    self.fail(format!("request {}: answer {got:?}, expected {want:?}", sample.id))
                }
            }
        }
    }
}

/// Validity of a timed phase from the daemon's own counters.
fn validity(phase: &Phase, shards: usize) -> Result<(), String> {
    let h = &phase.health;
    if h.inflight != 0 || h.shed != 0 || h.respawns != 0 || h.live != shards as u64 || h.failed != 0
    {
        return Err(format!(
            "daemon unhealthy after the timed phase: inflight {}, shed {}, respawns {}, \
             live {}/{}, failed {}",
            h.inflight, h.shed, h.respawns, h.live, h.shards, h.failed
        ));
    }
    Ok(())
}

fn counts_text(counts: &[ShardCounts]) -> String {
    counts.iter().enumerate().map(|(i, c)| format!("shard {i}: {c}")).collect::<Vec<_>>().join("; ")
}

/// A metric as printed and reported.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit, note: note.into() }
}

/// End-to-end metrics of a pass: latency and throughput over the timed
/// phases of all its rounds together, set-up and memory medians over them.
fn end_to_end(pass: &Pass) -> Vec<Metric> {
    let all = Summary::pooled(pass.rounds.iter().map(|r| r.phase.summary()));
    let pooled = format!("{} samples over {} rounds", all.latencies_ms.len(), pass.rounds.len());
    let note = format!("median of {} rounds", pass.rounds.len());
    vec![
        metric("latency_p50_ms", all.p50_ms(), "ms", pooled.clone()),
        metric("latency_p99_ms", all.p99_ms(), "ms", pooled.clone()),
        metric("throughput_rps", all.rps(), "1/s", pooled),
        metric("setup_s", median(pass.rounds.iter().map(|r| r.setup_s)), "s", note.clone()),
        metric("peak_rss_mb", median(pass.rounds.iter().map(|r| r.phase.peak_rss_mb)), "MiB", note),
    ]
}

/// Probe latency (from due time) and generator lag over a pass's rounds.
fn probe_metrics(pass: &Pass) -> Vec<Metric> {
    let probes = pass.rounds.iter().filter_map(|r| r.phase.probes.as_ref());
    let latencies: Vec<f64> =
        probes.clone().flat_map(|p| p.samples.iter().filter_map(Sample::latency)).map(ms).collect();
    let lag: Vec<f64> = probes.flat_map(|p| p.lag_ms.iter().copied()).collect();
    let samples = format!("{} samples", latencies.len());
    vec![
        metric("probe_latency_p50_ms", percentile(&latencies, 0.5), "ms", samples.clone()),
        metric("probe_latency_p99_ms", percentile(&latencies, 0.99), "ms", samples),
        metric("loadgen.lag_p99_ms", percentile(&lag, 0.99), "ms", format!("{} sends", lag.len())),
    ]
}

/// Round trips of cache hits sent straight to a standalone worker.
fn worker_pass(args: &Args, warm: &[Wire]) -> Result<Vec<f64>, String> {
    let log = args.work_dir.join(format!("worker-{}.log", std::process::id()));
    let worker = Worker::spawn(&args.daemon, &log).map_err(|e| format!("worker: {e}"))?;
    let fill = load::closed_loop(worker.addr, warm);
    let mut rtt_us = Vec::new();
    if fill.iter().all(|s| s.reply.is_ok()) {
        for _ in 0..WORKER_PASS_MIN.div_ceil(warm.len().max(1)) {
            rtt_us.extend(
                load::closed_loop(worker.addr, warm).iter().filter_map(Sample::latency).map(us),
            );
        }
    }
    worker.stop().map_err(|e| format!("stopping the worker: {e}"))?;
    let _ = fs::remove_file(&log);
    if rtt_us.is_empty() {
        return Err("the direct worker pass failed".into());
    }
    Ok(rtt_us)
}

/// Per-layer metrics of the traced pass (see README.md for each).
fn per_layer(
    plan: &Plan,
    replay: &Replay,
    cycle: &replay::SnapshotCycle,
    kernel: &replay::KernelCounts,
    traced: &Phase,
    rtt_us: &[f64],
) -> Vec<Metric> {
    let timed: Vec<&Replayed> = replay.replayed.iter().filter(|r| r.id >= ID_BLOCK).collect();
    let n = timed.len();
    let spanned = timed.iter().filter(|r| r.spans).count();
    let own = replay.trace.self_times();
    let mut self_us: HashMap<&str, (f64, usize)> = HashMap::new();
    for (span, own) in replay.trace.spans().iter().zip(&own) {
        if span.request >= ID_BLOCK {
            let entry = self_us.entry(span.name).or_default();
            entry.0 += us(*own);
            entry.1 += 1;
        }
    }
    let per_request = |name: &str| mean(self_us.get(name).map_or(0.0, |e| e.0), spanned);
    let per_span_ms = |name: &str| self_us.get(name).map_or(0.0, |e| mean(e.0, e.1) / 1e3);
    let routes = |route: Route| timed.iter().filter(|r| r.route == route).count();
    let solve_mean = |route: Route| {
        let picked: Vec<f64> =
            timed.iter().filter(|r| r.route == route).map(|r| us(r.solve)).collect();
        mean(picked.iter().sum(), picked.len())
    };
    let stats: Vec<_> = replay.engines.iter().map(|e| e.stats()).collect();
    let sum =
        |f: &dyn Fn(&chain2l_core::EngineStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let checkouts = sum(&|s| s.arena.checkouts);
    let distinct: BTreeSet<(&str, &str)> = plan
        .warm
        .iter()
        .chain(plan.streams.iter().flatten())
        .map(|s| (s.platform.as_str(), s.algorithm.as_str()))
        .collect();

    // The hit decomposition: daemon median = parent + worker + shard loop
    // + server loop, over the timed requests the engine served from cache.
    let client: HashMap<u64, &Sample> = traced.samples().map(|s| (s.id, s)).collect();
    let hits: Vec<&&Replayed> = timed.iter().filter(|r| r.route == Route::Hit).collect();
    let daemon_us: Vec<f64> = hits
        .iter()
        .filter_map(|r| {
            let sample = client.get(&r.id)?;
            Some(us(sample.done?.saturating_duration_since(sample.sent)))
        })
        .collect();
    let daemon_p50 = percentile(&daemon_us, 0.5);
    let parent_us = percentile(&hits.iter().map(|r| us(r.parent)).collect::<Vec<_>>(), 0.5);
    let worker_us = percentile(&hits.iter().map(|r| us(r.worker)).collect::<Vec<_>>(), 0.5);
    let rtt = percentile(rtt_us, 0.5);
    let hit_note = format!("{} hits", hits.len());

    let k = kernel;
    vec![
        metric("frame.decode_us", per_request("frame.decode"), "us", "per request, 3 frames"),
        metric(
            "frame.request_bytes",
            mean(timed.iter().map(|r| r.bytes.0 as f64).sum(), n),
            "B",
            "",
        ),
        metric(
            "frame.response_bytes",
            mean(timed.iter().map(|r| r.bytes.1 as f64).sum(), n),
            "B",
            "",
        ),
        metric(
            "protocol.parse_request_us",
            per_request("protocol.parse_request"),
            "us",
            "per request, 3 parses",
        ),
        metric(
            "protocol.resolve_spec_us",
            per_request("protocol.resolve_spec"),
            "us",
            "per request, 2 resolves",
        ),
        metric(
            "protocol.encode_request_us",
            per_request("protocol.encode_request"),
            "us",
            "per request",
        ),
        metric(
            "protocol.encode_response_us",
            per_request("protocol.encode_response"),
            "us",
            "per request",
        ),
        metric("server.rekey_us", per_request("server.rekey"), "us", "per request"),
        metric("cache.fingerprint_us", per_request("cache.fingerprint"), "us", "per request"),
        metric(
            "cache.hit_rate",
            mean(routes(Route::Hit) as f64, n),
            "ratio",
            format!("{n} timed requests"),
        ),
        metric("cache.entries", sum(&|s| s.cache.entries as u64), "count", "all shards"),
        metric(
            "cache.approx_kb",
            sum(&|s| s.cache.approx_bytes as u64) / 1024.0,
            "KiB",
            "all shards",
        ),
        metric("shard.rtt_us", rtt, "us", format!("median of {} direct hits", rtt_us.len())),
        metric("shard.loop_us", rtt - worker_us, "us", "worker round trip minus worker work"),
        metric(
            "server.loop_us",
            daemon_p50 - rtt - parent_us,
            "us",
            "daemon minus worker round trip minus parent work",
        ),
        metric("hit.daemon_p50_us", daemon_p50, "us", hit_note.clone()),
        metric("hit.parent_us", parent_us, "us", hit_note.clone()),
        metric("hit.worker_us", worker_us, "us", hit_note),
        metric("engine.routes.hit", routes(Route::Hit) as f64, "count", ""),
        metric("engine.routes.reused", routes(Route::Reused) as f64, "count", ""),
        metric("engine.routes.extended", routes(Route::Extended) as f64, "count", ""),
        metric("engine.routes.cold", routes(Route::Cold) as f64, "count", ""),
        metric("engine.solve_hit_us", solve_mean(Route::Hit), "us", "mean"),
        metric("engine.solve_reuse_ms", solve_mean(Route::Reused) / 1e3, "ms", "mean"),
        metric("engine.solve_extend_ms", solve_mean(Route::Extended) / 1e3, "ms", "mean"),
        metric("engine.solve_cold_ms", solve_mean(Route::Cold) / 1e3, "ms", "mean"),
        metric("engine.contexts", sum(&|s| s.contexts as u64), "count", "retained, all shards"),
        metric(
            "engine.contexts_distinct",
            distinct.len() as f64,
            "count",
            "distinct (platform, algorithm)",
        ),
        metric("kernel.compute_ms.adv_star", per_span_ms("kernel.compute.adv_star"), "ms", "mean"),
        metric(
            "kernel.compute_ms.admv_star",
            per_span_ms("kernel.compute.admv_star"),
            "ms",
            "mean",
        ),
        metric("kernel.compute_ms.admv", per_span_ms("kernel.compute.admv"), "ms", "mean"),
        metric(
            "kernel.compute_ms.admv_refined",
            per_span_ms("kernel.compute.admv_refined"),
            "ms",
            "mean",
        ),
        metric("kernel.extend_ms", per_span_ms("kernel.extend"), "ms", "mean"),
        metric("kernel.reconstruct_ms", per_span_ms("kernel.reconstruct"), "ms", "mean"),
        metric("segment.new_ms", per_span_ms("segment.new"), "ms", "mean"),
        metric(
            "kernel.simd_block_share",
            mean(k.simd_blocks as f64, (k.simd_blocks + k.scalar_fallbacks) as usize),
            "ratio",
            "",
        ),
        metric("kernel.candidates", k.candidates as f64, "count", "timed phase, exact"),
        metric("kernel.table_entries", k.table_entries as f64, "count", "timed phase, exact"),
        metric(
            "arena.pool_hit_rate",
            mean(sum(&|s| s.arena.pool_hits), checkouts as usize),
            "ratio",
            "",
        ),
        metric("arena.pooled_mb", sum(&|s| s.arena.pooled_bytes) / (1024.0 * 1024.0), "MiB", ""),
        metric("arena.trimmed", sum(&|s| s.arena.trimmed), "count", ""),
        metric("snapshot.bytes", cycle.bytes as f64, "B", "all shards"),
        metric("snapshot.encode_ms", ms(cycle.encode), "ms", "all shards"),
        metric("snapshot.save_ms", ms(cycle.save), "ms", "all shards"),
        metric("snapshot.load_ms", ms(cycle.load), "ms", "all shards"),
    ]
}

/// The traced pass: round 0 again on a fresh daemon, the direct worker
/// pass and the in-process replay of what that round sent.
fn traced_pass(
    args: &Args,
    plan: &Plan,
    wires: &Wires,
    untraced: &Pass,
    build: u64,
    tally: &mut Tally,
    problems: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let traced = pass(args, plan, wires, 0..1)?;
    let phase = &traced.rounds[0].phase;
    let base = &untraced.rounds[0].phase;
    if let Err(e) = validity(phase, plan.shards) {
        problems.push(e);
    }
    if phase.counts != base.counts {
        problems.push(format!(
            "route counts differ between the untraced and the traced phase\n  untraced: {}\n  traced:   {}",
            counts_text(&base.counts),
            counts_text(&phase.counts)
        ));
    }
    let rtt_us = worker_pass(args, &wires.warm)?;

    // The daemon's order is the order the requests were sent in.
    let by_id = wires.by_id();
    let mut order: Vec<&Sample> = phase.samples().collect();
    order.sort_by_key(|s| (s.sent, s.id));
    let every = order.len().div_ceil(SPANNED_MAX).max(1);
    let mut trace = Trace::new(base.start.min(phase.start));
    for sample in order.iter().step_by(every) {
        if let Some(done) = sample.done {
            trace.record("client.request", None, sample.id, sample.sent, done);
        }
    }
    let mut replay = Replay::new(plan.shards, trace);
    for wire in &wires.warm {
        replay.request(wire.id, &wire.line, false)?;
    }
    let restart_cycle =
        if plan.restart { Some(replay.snapshot_cycle(&args.work_dir, true)?) } else { None };
    let warm_kernel = replay.kernel;
    for (position, sample) in order.iter().enumerate() {
        let wire = by_id.get(&sample.id).ok_or(format!("no request with id {}", sample.id))?;
        replay.request(sample.id, &wire.line, position % every == 0)?;
    }
    let cycle = match restart_cycle {
        Some(cycle) => cycle,
        None => replay.snapshot_cycle(&args.work_dir, false)?,
    };
    let kernel = replay::KernelCounts {
        candidates: replay.kernel.candidates - warm_kernel.candidates,
        table_entries: replay.kernel.table_entries - warm_kernel.table_entries,
        simd_blocks: replay.kernel.simd_blocks - warm_kernel.simd_blocks,
        scalar_fallbacks: replay.kernel.scalar_fallbacks - warm_kernel.scalar_fallbacks,
    };

    // The replay must route exactly as the daemon did, shard by shard.
    let replay_counts: Vec<ShardCounts> = replay
        .engines
        .iter()
        .zip(&phase.counts)
        .map(|(engine, daemon)| {
            let s = engine.stats();
            ShardCounts {
                hits: s.cache.hits,
                reused: s.reused,
                extended: s.extended,
                cold: s.cold(),
                contexts: s.contexts as u64,
                load: daemon.load.clone(),
            }
        })
        .collect();
    if replay_counts != phase.counts {
        problems.push(format!(
            "the replay routed differently from the daemon\n  daemon: {}\n  replay: {}",
            counts_text(&phase.counts),
            counts_text(&replay_counts)
        ));
    }
    let kernel_key =
        format!("{}-s{}-t{}-{build:016x}-kernel", args.workload.name(), args.seed, args.seconds);
    let kernel_text =
        format!("candidates {} table_entries {}", kernel.candidates, kernel.table_entries);
    if let Err(e) = check::repeatable(&args.work_dir, &kernel_key, &kernel_text) {
        problems.push(e);
    }

    // Every traced reply is checked against the replay's in-process solve.
    let answers: HashMap<u64, chain2l_service::SolveResult> =
        replay.replayed.iter().map(|r| (r.id, r.result.clone())).collect();
    tally.check(traced.warm.iter().chain(phase.samples()), |id| answers.get(&id).cloned());

    let trace_path =
        args.work_dir.join(format!("trace-{}-s{}.jsonl", args.workload.name(), args.seed));
    replay.trace.write_jsonl(&trace_path).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        replay.trace.spans().len(),
        trace_path.display()
    );

    let mut metrics = per_layer(plan, &replay, &cycle, &kernel, phase, &rtt_us);
    metrics.extend(probe_metrics(untraced));
    let h = &phase.health;
    metrics.push(metric("daemon.shed", h.shed as f64, "count", "after the timed phase"));
    metrics.push(metric("daemon.respawns", h.respawns as f64, "count", "after the timed phase"));
    metrics.push(metric(
        "daemon.inflight_end",
        h.inflight as f64,
        "count",
        "after the timed phase",
    ));
    let (plain, with) = (base.summary(), phase.summary());
    let note = "traced minus untraced round 0";
    metrics.push(metric(
        "trace.overhead.latency_p50_ms",
        with.p50_ms() - plain.p50_ms(),
        "ms",
        note,
    ));
    metrics.push(metric(
        "trace.overhead.latency_p99_ms",
        with.p99_ms() - plain.p99_ms(),
        "ms",
        note,
    ));
    metrics.push(metric("trace.overhead.throughput_rps", with.rps() - plain.rps(), "1/s", note));
    Ok(metrics)
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run(args: &Args) -> Result<Report, String> {
    fs::create_dir_all(&args.work_dir).map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    if !args.daemon.is_file() {
        return Err(format!("no daemon binary at {}", args.daemon.display()));
    }
    let build = check::file_digest(&args.daemon)
        ^ std::env::current_exe().map_or(0, |exe| check::file_digest(&exe)).rotate_left(1);
    let plan = workload::plan(args.workload, args.seed, args.seconds);
    let wires = Wires::new(&plan);
    eprintln!(
        "perfbench: workload {} seed {} seconds {}: {} warm-up, {} timed, {} probe request(s)",
        args.workload.name(),
        args.seed,
        args.seconds,
        wires.warm.len(),
        wires.streams.iter().map(Vec::len).sum::<usize>(),
        wires.probes.len()
    );

    let mut problems = Vec::new();
    let mut tally = Tally::default();
    let untraced = pass(args, &plan, &wires, 0..plan.rounds)?;
    for (r, round) in untraced.rounds.iter().enumerate() {
        if let Err(e) = validity(&round.phase, plan.shards) {
            problems.push(e);
        }
        let key =
            format!("{}-s{}-t{}-r{r}-{build:016x}", args.workload.name(), args.seed, args.seconds);
        if let Err(e) = check::repeatable(&args.work_dir, &key, &counts_text(&round.phase.counts)) {
            problems.push(e);
        }
    }
    let specs = plan.warm.iter().chain(plan.streams.iter().flatten());
    let answers = check::expected(specs.chain(plan.probes.iter().flat_map(|p| p.specs.iter())))?;
    let by_id = wires.by_id();
    let answer = |id| answers.get(&SpecKey::of(&by_id.get(&id)?.spec)).cloned();
    let samples = untraced.rounds.iter().flat_map(|r| r.phase.samples());
    tally.check(untraced.warm.iter().chain(samples), answer);
    let mut metrics = if args.trace {
        traced_pass(args, &plan, &wires, &untraced, build, &mut tally, &mut problems)?
    } else {
        for extra in probe_metrics(&untraced) {
            eprintln!(
                "perfbench: {:<32} {:>14.4} {:<6} {}",
                extra.name, extra.value, extra.unit, extra.note
            );
        }
        end_to_end(&untraced)
    };
    let error_rate = mean(tally.failed as f64, tally.attempted as usize);
    problems.extend(tally.notes.iter().cloned());
    for problem in &problems {
        eprintln!("perfbench: INCORRECT: {problem}");
    }
    if args.trace {
        metrics.push(metric(
            "error_rate",
            error_rate,
            "ratio",
            format!("{} attempted", tally.attempted),
        ));
    } else {
        eprintln!(
            "perfbench: error_rate {error_rate} ({} of {} failed)",
            tally.failed, tally.attempted
        );
    }
    Ok(Report {
        correct: problems.is_empty() && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut fields = Vec::new();
    for m in &report.metrics {
        println!("{:<32} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
        fields.push(format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        fields.join(",")
    );
    ExitCode::SUCCESS
}
