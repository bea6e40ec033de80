//! Implementation of the CLI sub-commands.
//!
//! Every command returns the text it would print, so the unit tests can check
//! outputs without capturing stdout.

use crate::args::{ArgError, ParsedArgs};
use chain2l_analysis::experiments::{self, ExperimentConfig};
use chain2l_analysis::sweep;
use chain2l_analysis::validation;
use chain2l_core::cache::SolveRequest;
use chain2l_core::evaluator::expected_makespan;
use chain2l_core::{optimize, Algorithm, Engine, EngineLimits, PartialCostModel, Solution};
use chain2l_model::platform::scr;
use chain2l_model::{Platform, Scenario, Schedule, WeightPattern};
use chain2l_service::{client, ServeConfig, Server, SolveSpec};
use chain2l_sim::runner::{run_monte_carlo, MonteCarloConfig};

/// Text shown by `chain2l help` (and on any argument error).
pub const HELP: &str = "\
chain2l — two-level checkpointing and verifications for linear task graphs
(reproduction of Benoit, Cavelan, Robert, Sun — IPDPSW/PDSEC 2016)

USAGE:
  chain2l <command> [options]

COMMANDS:
  platforms                       print the Table I platforms
  optimize                        run one of the optimizers on one scenario
  evaluate                        evaluate a hand-written schedule
  simulate                        Monte-Carlo replay of the optimal schedule
  validate                        analytical-vs-simulation agreement table
  experiment fig5|fig6|fig7|fig8|table1
                                  regenerate a paper figure or table
  sweep recall|cost|rates|tail|heuristics
                                  run an ablation sweep
  batch                           solve a scenario list in one engine batch call
                                  (or on a remote daemon with --remote)
  serve                           run the long-lived solver daemon (or query it
                                  with --stats / --health, stop it with --stop)
  bench-load                      load-test a daemon: pipelined connections,
                                  sustained RPS and p50/p99/p999 latency
  solve                           solve a weak-scaling n-series (fixed per-task
                                  weight), extending DP tables point to point
  sensitivity                     elasticity of the optimum w.r.t. every parameter
  help                            show this message

COMMON OPTIONS:
  --platform <hera|atlas|coastal|coastal-ssd>   (default: hera)
  --pattern  <uniform|decrease|highlow>         (default: uniform)
  --tasks    <n>                                (default: 50)
  --weight   <seconds>                          (default: 25000)
  --algorithm <adv*|admv*|admv|admv-refined>    (default: admv)
  --csv                                         print CSV instead of aligned text

OPTIMIZE / EVALUATE:
  --strips                        also print the Figure-6 style placement strips
  --schedule <actions>            (evaluate) one character per task:
                                  . none, p partial, v guaranteed, M memory, D disk

SIMULATE / VALIDATE:
  --replications <n>              (default: 10000)
  --seed <n>                      (default: 42)
  --threads <n>                   (default: 4)
  --histogram                     (simulate) print the makespan distribution

BATCH:
  --file <path>                   scenario list (default or `-`: read stdin);
                                  one request per line, `,` or space separated:
                                  platform pattern tasks [weight [algorithm]]
                                  (blank lines and # comments ignored); results
                                  stream back as CSV in input order, duplicates
                                  are solved once and served from the cache
  --remote <host:port>            solve on a running `chain2l serve` daemon;
                                  output is byte-identical to the offline path
  --retries <n>                   (--remote) reconnect-and-resend attempts on
                                  transport failure or shedding (default: 4);
                                  only unanswered requests are re-sent
  --request-timeout <seconds>     (--remote) per-request deadline, surviving
                                  reconnects (default: 300)
  --retry-seed <n>                (--remote) seed of the deterministic retry
                                  backoff jitter (default: 0)
  --no-simd                       force the original scalar candidate scans
                                  (A/B escape hatch; results are bit-identical
                                  either way, see also CHAIN2L_NO_SIMD)

SERVE:
  --addr <host:port>              listen address (default: 127.0.0.1:4615)
  --shards <n>                    worker processes, each owning a disjoint
                                  slice of the scenario space (default: 2)
  --cache-cap <n>                 bound every shard engine to n cached
                                  solutions and n retained DP table contexts
                                  (LRU eviction; default: unbounded)
  --window <n>                    per-connection inflight window before the
                                  daemon defers reads (backpressure; default: 128)
  --state-dir <dir>               persist each shard's warm state into this
                                  (existing, writable) directory: snapshots are
                                  loaded at boot, written every --snapshot-every
                                  seconds and on shutdown, so a restarted daemon
                                  serves warm; corrupt or mismatched snapshots
                                  fall back to a cold start
  --snapshot-every <seconds>      periodic snapshot interval (default: 30;
                                  requires --state-dir)
  --max-inflight <n>              global inflight solve cap: excess requests
                                  are shed with an overloaded error that
                                  clients retry (default: unbounded)
  --failpoints <spec>             arm deterministic fault injection, e.g.
                                  snapshot.fsync=err@1/8;shard.spawn=delay:10ms;
                                  frame.read=short@1/16;seed=7 (also read from
                                  CHAIN2L_FAILPOINTS; default: disabled)
  --stats | --stop                query / gracefully stop the daemon at --addr
  --health                        per-shard liveness, respawn, shed and
                                  inflight counters of the daemon at --addr

BENCH-LOAD:
  --addr <host:port>              attach to a running daemon (default: spawn a
                                  private one, load it, shut it down)
  --shards <n>                    shards of the spawned daemon (default: 2)
  --connections <n>               concurrent pipelined connections (default: 500)
  --requests <n>                  requests per connection (default: 20)
  --window <n>                    pipelined window per connection (default: 8)
  --fault-rate <p>                inject benign short-I/O faults on the spawned
                                  daemon's frame paths with probability p
                                  (results stay correct; default: 0)
  --failpoints <spec>             explicit failpoint schedule for the spawned
                                  daemon (combinable with --fault-rate)
  --max-inflight <n>              admission-control cap of the spawned daemon;
                                  sheds appear in the report's shed/retries
  --check <baseline.json>         gate against a recorded baseline, exit 1 on
                                  regression (see crates/bench/baselines/)
  --print-baseline                print report JSON to commit as the baseline
                                  (baselines are per hardware class)

SOLVE:
  --series <n1,n2,...>            ascending chain lengths (default: 10,20,30,40,50)
  --per-task-weight <seconds>     weight of every task (default: 500)

SENSITIVITY:
  --step <fraction>               relative perturbation (default: 0.05)

EXPERIMENT:
  --quick | --coarse | --paper    sweep granularity (default: --coarse)
  --tasks <n>                     strip size for fig6 (default: 50)
";

/// Runs the command described by `args` and returns the text to print.
pub fn run(args: &ParsedArgs) -> Result<String, ArgError> {
    match args.command.as_str() {
        "help" | "--help" | "-h" => Ok(HELP.to_string()),
        "platforms" => Ok(render_table(&experiments::table1(), args)),
        "optimize" => cmd_optimize(args),
        "evaluate" => cmd_evaluate(args),
        "simulate" => cmd_simulate(args),
        "validate" => cmd_validate(args),
        "experiment" => cmd_experiment(args),
        "sweep" => cmd_sweep(args),
        "batch" => cmd_batch(args),
        "serve" => cmd_serve(args),
        "bench-load" => cmd_load_bench(args),
        "solve" => cmd_solve(args),
        "sensitivity" => cmd_sensitivity(args),
        other => Err(ArgError::Unknown { what: other.to_string() }),
    }
}

fn render_table(table: &chain2l_analysis::Table, args: &ParsedArgs) -> String {
    if args.flag("csv") {
        table.to_csv()
    } else {
        table.to_aligned_text()
    }
}

fn parse_platform(args: &ParsedArgs) -> Result<Platform, ArgError> {
    let name = args.get_or("platform", "hera");
    scr::by_name(name).ok_or_else(|| ArgError::InvalidValue {
        option: "platform".into(),
        value: name.to_string(),
        expected: "hera, atlas, coastal or coastal-ssd".into(),
    })
}

/// Looks a weight pattern up by its CLI name.
fn pattern_by_name(name: &str) -> Option<WeightPattern> {
    match name {
        "uniform" => Some(WeightPattern::Uniform),
        "decrease" => Some(WeightPattern::Decrease),
        "increase" => Some(WeightPattern::Increase),
        "highlow" => Some(WeightPattern::high_low_default()),
        _ => None,
    }
}

fn parse_pattern(args: &ParsedArgs) -> Result<WeightPattern, ArgError> {
    let name = args.get_or("pattern", "uniform");
    pattern_by_name(name).ok_or_else(|| ArgError::InvalidValue {
        option: "pattern".into(),
        value: name.to_string(),
        expected: "uniform, decrease, increase or highlow".into(),
    })
}

fn parse_algorithm(args: &ParsedArgs) -> Result<Algorithm, ArgError> {
    let label = args.get_or("algorithm", "admv");
    Algorithm::parse(label).ok_or_else(|| ArgError::InvalidValue {
        option: "algorithm".into(),
        value: label.to_string(),
        expected: "adv*, admv*, admv or admv-refined".into(),
    })
}

fn parse_scenario(args: &ParsedArgs) -> Result<Scenario, ArgError> {
    let platform = parse_platform(args)?;
    let pattern = parse_pattern(args)?;
    let tasks = args.usize_or("tasks", 50)?;
    let weight = args.f64_or("weight", experiments::PAPER_TOTAL_WEIGHT)?;
    Scenario::paper_setup(&platform, &pattern, tasks, weight).map_err(|e| ArgError::InvalidValue {
        option: "tasks".into(),
        value: format!("{tasks}"),
        expected: leak(format!("a valid scenario ({e})")),
    })
}

/// `ArgError` carries `&'static str` expectations only in `InvalidValue`'s
/// `expected: String`; this helper keeps dynamic messages simple.
fn leak(message: String) -> String {
    message
}

fn cmd_optimize(args: &ParsedArgs) -> Result<String, ArgError> {
    let scenario = parse_scenario(args)?;
    let algorithm = parse_algorithm(args)?;
    let solution = optimize(&scenario, algorithm);
    let mut out = String::new();
    out.push_str(&format!(
        "{} on {} ({} pattern, n = {}, W = {} s)\n",
        algorithm.label(),
        scenario.platform.name,
        args.get_or("pattern", "uniform"),
        scenario.task_count(),
        scenario.chain.total_weight()
    ));
    out.push_str(&format!(
        "expected makespan: {:.2} s (normalized {:.5}, overhead {:.2} %)\n",
        solution.expected_makespan,
        solution.normalized_makespan,
        solution.overhead() * 100.0
    ));
    let c = solution.counts;
    out.push_str(&format!(
        "placements: {} disk ckpts, {} memory ckpts, {} guaranteed verifs, {} partial verifs\n",
        c.disk_checkpoints,
        c.memory_checkpoints,
        c.guaranteed_verifications,
        c.partial_verifications
    ));
    out.push_str(&format!("schedule: {}\n", solution.schedule));
    if args.flag("strips") {
        out.push_str(&solution.schedule.render_strips("placement strips"));
    }
    Ok(out)
}

/// Parses the compact schedule notation (one character per task boundary);
/// thin wrapper over [`Schedule::parse_compact`] mapping errors to [`ArgError`].
pub fn parse_schedule_string(spec: &str) -> Result<Schedule, ArgError> {
    Schedule::parse_compact(spec).map_err(|e| ArgError::InvalidValue {
        option: "schedule".into(),
        value: spec.to_string(),
        expected: leak(e.to_string()),
    })
}

fn cmd_evaluate(args: &ParsedArgs) -> Result<String, ArgError> {
    let scenario = parse_scenario(args)?;
    let spec = args
        .options
        .get("schedule")
        .ok_or(ArgError::MissingOption { option: "schedule".into() })?;
    let schedule = parse_schedule_string(spec)?;
    let value =
        expected_makespan(&scenario, &schedule, PartialCostModel::PaperExact).map_err(|e| {
            ArgError::InvalidValue {
                option: "schedule".into(),
                value: spec.clone(),
                expected: leak(e.to_string()),
            }
        })?;
    Ok(format!(
        "schedule {} on {}: expected makespan {:.2} s (normalized {:.5})\n",
        schedule,
        scenario.platform.name,
        value,
        value / scenario.error_free_time()
    ))
}

fn cmd_simulate(args: &ParsedArgs) -> Result<String, ArgError> {
    let scenario = parse_scenario(args)?;
    let algorithm = parse_algorithm(args)?;
    let solution = optimize(&scenario, algorithm);
    let config = MonteCarloConfig {
        replications: args.usize_or("replications", 10_000)?,
        seed: args.u64_or("seed", 42)?,
        threads: args.usize_or("threads", 4)?,
    };
    let report = run_monte_carlo(&scenario, &solution.schedule, config).map_err(|e| {
        ArgError::InvalidValue {
            option: "replications".into(),
            value: format!("{}", config.replications),
            expected: leak(e.to_string()),
        }
    })?;
    let mut out = format!(
        "{} on {} (n = {}): analytical {:.2} s, simulated {:.2} s ± {:.2} \
         (95 % CI over {} replications, relative error {:+.3} %)\n\
         mean errors per run: {:.3} fail-stop, {:.3} silent; \
         mean wasted work {:.1} s, mean overhead {:.1} s\n",
        algorithm.label(),
        scenario.platform.name,
        scenario.task_count(),
        solution.expected_makespan,
        report.makespan.mean,
        report.makespan.ci_half_width(),
        report.replications,
        report.relative_error_vs(solution.expected_makespan) * 100.0,
        report.mean_fail_stop_errors,
        report.mean_silent_errors,
        report.mean_wasted_work,
        report.mean_resilience_overhead,
    );
    if args.flag("histogram") {
        let convergence = chain2l_sim::convergence::ConvergenceConfig {
            target_relative_half_width: 1e-4,
            batch_size: config.replications.max(1),
            max_replications: config.replications.max(1),
            min_replications: config.replications.max(1),
            seed: config.seed,
        };
        let dist = chain2l_sim::convergence::run_until_converged(
            &scenario,
            &solution.schedule,
            convergence,
        )
        .map_err(|e| ArgError::InvalidValue {
            option: "histogram".into(),
            value: String::new(),
            expected: leak(e.to_string()),
        })?
        .distribution;
        out.push_str(&format!(
            "p50 {:.1} s, p95 {:.1} s, p99 {:.1} s, max {:.1} s\n",
            dist.quantile(0.50).unwrap_or(f64::NAN),
            dist.quantile(0.95).unwrap_or(f64::NAN),
            dist.quantile(0.99).unwrap_or(f64::NAN),
            dist.max().unwrap_or(f64::NAN),
        ));
        out.push_str(&dist.histogram(12));
    }
    Ok(out)
}

fn cmd_batch(args: &ParsedArgs) -> Result<String, ArgError> {
    if args.flag("no-simd") {
        // The scalar escape hatch only reaches the local engine; a remote
        // daemon keeps its own setting.
        chain2l_core::set_simd_enabled(false);
    }
    let remote = match args.options.get("remote").map(String::as_str) {
        Some("") => return Err(ArgError::MissingOption { option: "remote <host:port>".into() }),
        remote => remote.map(str::to_string),
    };
    let input = match args.options.get("file").map(String::as_str) {
        None | Some("") | Some("-") => {
            use std::io::Read;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| ArgError::runtime("reading stdin", e))?;
            buf
        }
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| ArgError::runtime(&format!("reading {path}"), e))?,
    };
    match remote.as_deref() {
        Some(addr) => run_batch_remote(&input, addr, &remote_client_config(args)?),
        None => {
            let engine = Engine::new();
            let out = run_batch(&input, &engine)?;
            eprintln!("batch: solver engine — {}", engine.stats());
            Ok(out)
        }
    }
}

/// One parsed batch line: display fields for the CSV row, the raw tokens
/// for the wire, and the locally-resolved scenario.
struct BatchItem {
    platform: String,
    pattern: String,
    raw_platform: String,
    raw_pattern: String,
    n: usize,
    weight: f64,
    algorithm: Algorithm,
    scenario: Scenario,
}

/// Parses a batch scenario list: one request per line —
/// `platform pattern tasks [weight [algorithm]]`, comma- or
/// whitespace-separated; blank lines and `#` comments are skipped.
/// `weight` defaults to the paper's 25 000 s and `algorithm` to `admv`.
/// Every field is validated here, so both the offline and the remote path
/// reject malformed input with the offending line number before any solving
/// starts.
fn parse_batch(input: &str) -> Result<Vec<BatchItem>, ArgError> {
    let mut items: Vec<BatchItem> = Vec::new();
    for (index, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |expected: String| ArgError::InvalidValue {
            option: format!("batch line {}", index + 1),
            value: raw.to_string(),
            expected,
        };
        let fields: Vec<&str> =
            line.split(|c: char| c == ',' || c.is_whitespace()).filter(|f| !f.is_empty()).collect();
        if !(3..=5).contains(&fields.len()) {
            return Err(bad("platform pattern tasks [weight [algorithm]]".into()));
        }
        let platform = scr::by_name(fields[0])
            .ok_or_else(|| bad(format!("a known platform, not `{}`", fields[0])))?;
        let pattern = pattern_by_name(fields[1])
            .ok_or_else(|| bad(format!("a known pattern, not `{}`", fields[1])))?;
        let n: usize =
            fields[2].parse().map_err(|_| bad(format!("a task count, not `{}`", fields[2])))?;
        let weight: f64 = match fields.get(3) {
            Some(w) => w.parse().map_err(|_| bad(format!("a total weight, not `{w}`")))?,
            None => experiments::PAPER_TOTAL_WEIGHT,
        };
        let algorithm = match fields.get(4) {
            Some(a) => Algorithm::parse(a)
                .ok_or_else(|| bad(format!("adv*, admv*, admv or admv-refined, not `{a}`")))?,
            None => Algorithm::TwoLevelPartial,
        };
        let scenario = Scenario::paper_setup(&platform, &pattern, n, weight)
            .map_err(|e| bad(format!("a valid scenario ({e})")))?;
        items.push(BatchItem {
            platform: platform.name.clone(),
            pattern: pattern.name().to_string(),
            raw_platform: fields[0].to_string(),
            raw_pattern: fields[1].to_string(),
            n,
            weight,
            algorithm,
            scenario,
        });
    }
    Ok(items)
}

const BATCH_HEADER: &str = "platform,pattern,n,T,algorithm,expected_makespan,\
                            normalized_makespan,disk,memory,guaranteed,partial\n";

/// Renders one batch CSV row.  Both the offline and the remote path feed
/// this exact formatter — with bit-identical inputs (the wire protocol
/// round-trips every float exactly), which is what makes
/// `chain2l batch --remote` output byte-identical to the offline command.
#[allow(clippy::too_many_arguments)] // one column per argument, nothing more
fn batch_row(
    item: &BatchItem,
    expected_makespan: f64,
    normalized_makespan: f64,
    disk: u64,
    memory: u64,
    guaranteed: u64,
    partial: u64,
) -> String {
    format!(
        "{},{},{},{},{},{:.6},{:.6},{},{},{},{}\n",
        item.platform,
        item.pattern,
        item.n,
        item.weight,
        item.algorithm.label(),
        expected_makespan,
        normalized_makespan,
        disk,
        memory,
        guaranteed,
        partial,
    )
}

/// Parses and solves a batch scenario list through `engine` (see
/// [`parse_batch`] for the line format).  All requests are solved in one
/// [`Engine::solve_batch`] call, so duplicates run the DP once, and the
/// results come back as pure CSV **in input order** (statistics go to
/// stderr, never stdout).
pub fn run_batch(input: &str, engine: &Engine) -> Result<String, ArgError> {
    let items = parse_batch(input)?;
    let requests: Vec<SolveRequest> =
        items.iter().map(|item| SolveRequest::new(item.scenario.clone(), item.algorithm)).collect();
    let solutions = engine.solve_batch(&requests);
    let mut out = String::from(BATCH_HEADER);
    for (item, sol) in items.iter().zip(&solutions) {
        out.push_str(&batch_row(
            item,
            sol.expected_makespan,
            sol.normalized_makespan,
            sol.counts.disk_checkpoints as u64,
            sol.counts.memory_checkpoints as u64,
            sol.counts.guaranteed_verifications as u64,
            sol.counts.partial_verifications as u64,
        ));
    }
    Ok(out)
}

/// Builds the remote client's retry configuration from the `--retries` /
/// `--request-timeout` / `--retry-seed` options (defaults apply when
/// omitted).
fn remote_client_config(args: &ParsedArgs) -> Result<chain2l_service::ClientConfig, ArgError> {
    let mut config = chain2l_service::ClientConfig::default();
    config.max_retries = args.u64_or("retries", u64::from(config.max_retries))? as u32;
    if args.options.contains_key("request-timeout") {
        let secs = args.u64_or("request-timeout", 0)?;
        if secs == 0 {
            return Err(ArgError::InvalidValue {
                option: "request-timeout".into(),
                value: "0".into(),
                expected: "a positive per-request deadline in seconds".into(),
            });
        }
        config.request_timeout = std::time::Duration::from_secs(secs);
    }
    config.retry_seed = args.u64_or("retry-seed", config.retry_seed)?;
    Ok(config)
}

/// [`run_batch`], but solved on the `chain2l serve` daemon at `addr`.
/// Output is byte-identical to the offline path for the same input.
pub fn run_batch_remote(
    input: &str,
    addr: &str,
    config: &chain2l_service::ClientConfig,
) -> Result<String, ArgError> {
    let items = parse_batch(input)?;
    let specs: Vec<SolveSpec> = items
        .iter()
        .map(|item| SolveSpec {
            platform: item.raw_platform.clone(),
            pattern: item.raw_pattern.clone(),
            tasks: item.n,
            weight: item.weight,
            algorithm: item.algorithm.label().to_string(),
        })
        .collect();
    let report = client::solve_batch_with(addr, &specs, config)
        .map_err(|e| ArgError::runtime(&format!("remote batch on {addr}"), e))?;
    if report.retries > 0 || report.shed > 0 {
        eprintln!(
            "batch: remote transport — {} retry attempt(s), {} shed response(s) absorbed",
            report.retries, report.shed
        );
    }
    let mut out = String::from(BATCH_HEADER);
    for (index, (item, outcome)) in items.iter().zip(&report.outcomes).enumerate() {
        let result = outcome.as_ref().map_err(|message| {
            ArgError::runtime(&format!("remote batch request {}", index + 1), message)
        })?;
        out.push_str(&batch_row(
            item,
            result.expected_makespan,
            result.normalized_makespan,
            result.disk,
            result.memory,
            result.guaranteed,
            result.partial,
        ));
    }
    if let Ok((shards, detail)) = client::stats(addr) {
        eprintln!("batch: remote daemon — {shards} shard(s)");
        for line in detail.lines() {
            eprintln!("batch: {line}");
        }
    }
    Ok(out)
}

/// Runs the `chain2l serve` daemon (or its `--stats` / `--stop` control
/// operations, or one shard worker when re-executed with
/// `--internal-shard`).
fn cmd_serve(args: &ParsedArgs) -> Result<String, ArgError> {
    let cache_cap = match args.options.get("cache-cap") {
        None => None,
        Some(_) => {
            let cap = args.usize_or("cache-cap", 0)?;
            if cap == 0 {
                return Err(ArgError::InvalidValue {
                    option: "cache-cap".into(),
                    value: "0".into(),
                    expected: "a positive entry cap (omit the option for unbounded)".into(),
                });
            }
            Some(cap)
        }
    };
    let window = args.u64_or("window", chain2l_service::server::DEFAULT_WINDOW)?;
    if window == 0 {
        return Err(ArgError::InvalidValue {
            option: "window".into(),
            value: "0".into(),
            expected: "a positive inflight window (a zero window would never read a request)"
                .into(),
        });
    }
    let snapshot_every = match args.options.get("snapshot-every") {
        None => None,
        Some(_) => {
            let secs = args.u64_or("snapshot-every", 0)?;
            if secs == 0 {
                return Err(ArgError::InvalidValue {
                    option: "snapshot-every".into(),
                    value: "0".into(),
                    expected: "a positive number of seconds between snapshots \
                               (omit the option for the default)"
                        .into(),
                });
            }
            Some(secs)
        }
    };
    if args.flag("internal-shard") {
        let limits = cache_cap.map(EngineLimits::entry_cap).unwrap_or_default();
        // Persistence flags are appended by the parent daemon's spawner;
        // a worker without --state-dir simply runs without snapshots.
        let persister = match args.options.get("state-dir") {
            None => None,
            Some(dir) => Some(std::sync::Arc::new(chain2l_service::Persister::new(
                chain2l_service::PersistConfig {
                    state_dir: std::path::PathBuf::from(dir),
                    snapshot_every_secs: snapshot_every
                        .unwrap_or(chain2l_service::server::DEFAULT_SNAPSHOT_EVERY_SECS),
                    identity: chain2l_core::ShardIdentity::new(
                        args.u64_or("shard-index", 0)? as u32,
                        args.u64_or("shard-count", 1)? as u32,
                    ),
                },
            ))),
        };
        chain2l_service::shard::run_shard(limits, persister)
            .map_err(|e| ArgError::runtime("shard worker", e))?;
        return Ok(String::new());
    }
    let state_dir = match args.options.get("state-dir") {
        None => {
            if snapshot_every.is_some() {
                return Err(ArgError::InvalidValue {
                    option: "snapshot-every".into(),
                    value: args.get_or("snapshot-every", "").to_string(),
                    expected: "--state-dir to be set as well (snapshots need \
                               a directory to persist into)"
                        .into(),
                });
            }
            None
        }
        Some(dir) => {
            let dir = std::path::PathBuf::from(dir);
            chain2l_service::persist::check_state_dir(&dir).map_err(|why| {
                ArgError::InvalidValue {
                    option: "state-dir".into(),
                    value: dir.display().to_string(),
                    expected: format!("an existing writable directory ({why})"),
                }
            })?;
            Some(dir)
        }
    };
    let max_inflight = match args.options.get("max-inflight") {
        None => 0, // admission control disabled
        Some(_) => {
            let cap = args.u64_or("max-inflight", 0)?;
            if cap == 0 {
                return Err(ArgError::InvalidValue {
                    option: "max-inflight".into(),
                    value: "0".into(),
                    expected: "a positive global inflight cap \
                               (omit the option to disable shedding)"
                        .into(),
                });
            }
            cap
        }
    };
    let failpoints = match args.options.get("failpoints").map(String::as_str) {
        Some("") => {
            return Err(ArgError::MissingOption { option: "failpoints <site=action;...>".into() })
        }
        spec => spec.map(str::to_string),
    };
    let addr = args.get_or("addr", "127.0.0.1:4615");
    if args.flag("stop") {
        client::shutdown(addr)
            .map_err(|e| ArgError::runtime(&format!("stopping daemon at {addr}"), e))?;
        return Ok(format!("daemon at {addr} shut down gracefully\n"));
    }
    if args.flag("health") {
        let report = client::health(addr)
            .map_err(|e| ArgError::runtime(&format!("querying daemon at {addr}"), e))?;
        let mut out = format!(
            "daemon at {addr}: {} of {} shard(s) live, {} failed\n\
             inflight {}, shed {}, respawns {}\n",
            report.live,
            report.shards,
            report.failed,
            report.inflight,
            report.shed,
            report.respawns
        );
        for line in report.detail.lines() {
            out.push_str(line);
            out.push('\n');
        }
        return Ok(out);
    }
    if args.flag("stats") {
        let (shards, detail) = client::stats(addr)
            .map_err(|e| ArgError::runtime(&format!("querying daemon at {addr}"), e))?;
        let mut out = format!("daemon at {addr}: {shards} shard(s)\n");
        for line in detail.lines() {
            out.push_str(line);
            out.push('\n');
        }
        return Ok(out);
    }
    let shards = args.usize_or("shards", 2)?;
    if shards == 0 {
        return Err(ArgError::InvalidValue {
            option: "shards".into(),
            value: "0".into(),
            expected: "at least one shard worker".into(),
        });
    }
    let mut config = ServeConfig::self_hosted(addr, shards, cache_cap)
        .map_err(|e| ArgError::runtime("resolving the shard worker command", e))?;
    config.window = window;
    config.state_dir = state_dir;
    config.max_inflight = max_inflight;
    config.failpoints = failpoints;
    if let Some(secs) = snapshot_every {
        config.snapshot_every_secs = secs;
    }
    let server =
        Server::bind(&config).map_err(|e| ArgError::runtime(&format!("binding {addr}"), e))?;
    eprintln!(
        "chain2l serve: listening on {} with {shards} shard worker process(es); \
         stop with `chain2l serve --stop --addr {}`",
        server.local_addr(),
        server.local_addr()
    );
    let summary = server.run().map_err(|e| ArgError::runtime("serving", e))?;
    let mut out =
        format!("serve: shut down gracefully after {} client connection(s)\n", summary.connections);
    for line in &summary.per_shard {
        out.push_str(line);
        out.push('\n');
    }
    Ok(out)
}

/// Spawns a private `chain2l serve` daemon for the load bench (ephemeral
/// port, parsed from its startup line) and returns its address + child.
/// Running the daemon in a separate *process* keeps the bench's hundreds of
/// client sockets and the daemon's accepted sockets under separate fd
/// limits — a CI runner's default 1024 would not fit both.
fn spawn_bench_daemon(
    shards: usize,
    extra: &[String],
) -> Result<(String, std::process::Child), ArgError> {
    use std::io::BufRead;
    let exe = std::env::current_exe()
        .map_err(|e| ArgError::runtime("resolving the chain2l binary", e))?;
    let mut child = std::process::Command::new(exe)
        .args(["serve", "--addr", "127.0.0.1:0", "--shards", &shards.to_string()])
        .args(extra)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| ArgError::runtime("spawning the bench daemon", e))?;
    let stderr = child.stderr.take().expect("stderr was piped");
    let mut reader = std::io::BufReader::new(stderr);
    let mut line = String::new();
    let addr = reader
        .read_line(&mut line)
        .ok()
        .filter(|&n| n > 0)
        .and_then(|_| line.split("listening on ").nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .map(|addr| addr.to_string());
    // Keep draining stderr so the daemon never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        loop {
            sink.clear();
            if reader.read_line(&mut sink).unwrap_or(0) == 0 {
                break;
            }
        }
    });
    match addr {
        Some(addr) => Ok((addr, child)),
        None => {
            let _ = child.kill();
            let _ = child.wait();
            Err(ArgError::runtime(
                "spawning the bench daemon",
                format!("daemon did not announce its address (got {line:?})"),
            ))
        }
    }
}

/// `chain2l bench-load`: the closed-loop load generator against a daemon —
/// either one it spawns privately or an already-running one via `--addr` —
/// reporting sustained RPS and latency percentiles, writing
/// `results/BENCH_serve.json`, and optionally gating against a recorded
/// baseline with `--check` (exit 1 on regression).
fn cmd_load_bench(args: &ParsedArgs) -> Result<String, ArgError> {
    let connections = args.usize_or("connections", 500)?.max(1);
    let requests = args.usize_or("requests", 20)?.max(1);
    let window = args.usize_or("window", 8)?.max(1);
    let shards = args.usize_or("shards", 2)?.max(1);

    // Fault-injection passthrough for the spawned daemon: an explicit
    // failpoint schedule, a convenience `--fault-rate` (benign short-I/O
    // faults on the daemon's frame paths — results stay correct, the
    // robustness machinery gets exercised), and the admission-control cap.
    let fault_rate = match args.options.get("fault-rate") {
        None => 0.0,
        Some(_) => {
            let rate = args.f64_or("fault-rate", 0.0)?;
            if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
                return Err(ArgError::InvalidValue {
                    option: "fault-rate".into(),
                    value: rate.to_string(),
                    expected: "a fault probability in [0, 1]".into(),
                });
            }
            rate
        }
    };
    let mut fault_clauses: Vec<String> = Vec::new();
    if fault_rate > 0.0 {
        let num = ((fault_rate * 1024.0).round() as u64).clamp(1, 1024);
        fault_clauses.push(format!("frame.read=short@{num}/1024"));
        fault_clauses.push(format!("frame.write=short@{num}/1024"));
    }
    if let Some(spec) = args.options.get("failpoints") {
        fault_clauses.push(spec.clone());
    }
    let mut extra: Vec<String> = Vec::new();
    if !fault_clauses.is_empty() {
        extra.push("--failpoints".into());
        extra.push(fault_clauses.join(";"));
    }
    if let Some(cap) = args.options.get("max-inflight") {
        extra.push("--max-inflight".into());
        extra.push(cap.clone());
    }

    let (addr, child) = match args.options.get("addr") {
        Some(addr) => {
            if !extra.is_empty() {
                return Err(ArgError::InvalidValue {
                    option: "addr".into(),
                    value: addr.clone(),
                    expected: "no --failpoints/--fault-rate/--max-inflight (those configure \
                               the spawned daemon; an attached daemon sets its own)"
                        .into(),
                });
            }
            (addr.clone(), None)
        }
        None => {
            let (addr, child) = spawn_bench_daemon(shards, &extra)?;
            (addr, Some(child))
        }
    };
    let teardown = |child: Option<std::process::Child>| {
        if let Some(mut child) = child {
            if client::shutdown(&addr).is_err() {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    };

    // Wait for the daemon (and its shard workers) to accept connections.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        if client::ping(&addr).is_ok() {
            break;
        }
        if std::time::Instant::now() > deadline {
            teardown(child);
            return Err(ArgError::runtime(
                "bench-load",
                format!("daemon at {addr} not answering pings"),
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    let config = chain2l_service::loadgen::LoadConfig {
        addr: addr.clone(),
        connections,
        requests_per_connection: requests,
        window,
    };
    let outcome = chain2l_service::loadgen::run(&config);
    teardown(child);
    let report = outcome.map_err(|e| ArgError::runtime("bench-load run", e))?;

    let json = chain2l_service::loadgen::render_report_json(&report);
    if args.flag("print-baseline") {
        return Ok(json);
    }
    let mut out = format!(
        "bench-load: {} connection(s) x {} request(s), window {}\n",
        report.connections, requests, report.window,
    );
    out.push_str(&format!(
        "  completed {} of {} ({} error(s), {} retry(s), {} shed) in {:.2} s -> {:.1} rps\n",
        report.completed,
        report.requests,
        report.errors,
        report.retries,
        report.shed,
        report.duration_s,
        report.rps
    ));
    out.push_str(&format!(
        "  latency p50 {:.3} ms, p99 {:.3} ms, p999 {:.3} ms, max {:.3} ms\n",
        report.p50_ms, report.p99_ms, report.p999_ms, report.max_ms
    ));
    if let Some(path) = chain2l_service::loadgen::write_report_file(&json) {
        out.push_str(&format!("  report written to {}\n", path.display()));
    }
    if let Some(baseline_path) = args.options.get("check") {
        let baseline = std::fs::read_to_string(baseline_path)
            .map_err(|e| ArgError::runtime(&format!("reading baseline {baseline_path}"), e))?;
        match chain2l_service::loadgen::check_against(&report, &baseline) {
            Ok(verdict) => out.push_str(&format!("  {verdict}\n")),
            Err(why) => return Err(ArgError::runtime("bench-load --check", why)),
        }
    }
    Ok(out)
}

/// `chain2l solve`: a weak-scaling `n`-series (fixed per-task weight, so the
/// task-weight vectors nest) solved point by point through one
/// strategy-routing engine, which extends the previous point's finished DP
/// tables instead of starting over.  Results are bit-identical to cold
/// solves — only the amount of work changes, reported in the trailing
/// `# solver:` comment.
fn cmd_solve(args: &ParsedArgs) -> Result<String, ArgError> {
    let platform = parse_platform(args)?;
    let algorithm = parse_algorithm(args)?;
    let per_task_weight = args.f64_or("per-task-weight", 500.0)?;
    if !(per_task_weight.is_finite() && per_task_weight > 0.0) {
        return Err(ArgError::InvalidValue {
            option: "per-task-weight".into(),
            value: per_task_weight.to_string(),
            expected: "a positive weight in seconds".into(),
        });
    }
    let series_spec = args.get_or("series", "10,20,30,40,50");
    let mut series: Vec<usize> = Vec::new();
    for part in series_spec.split(',') {
        let n: usize = part.trim().parse().map_err(|_| ArgError::InvalidValue {
            option: "series".into(),
            value: series_spec.to_string(),
            expected: "comma-separated task counts, e.g. 10,20,50".into(),
        })?;
        if n == 0 {
            return Err(ArgError::InvalidValue {
                option: "series".into(),
                value: series_spec.to_string(),
                expected: "task counts of at least 1".into(),
            });
        }
        series.push(n);
    }

    let engine = Engine::new();
    let mut out =
        String::from("n,expected_makespan,normalized_makespan,disk,memory,guaranteed,partial\n");
    let start = std::time::Instant::now();
    for &n in &series {
        let scenario =
            chain2l_analysis::experiments::weak_scaling_scenario(&platform, n, per_task_weight);
        out.push_str(&series_row(n, &engine.solve(&scenario, algorithm)));
    }
    out.push_str(&format!(
        "# solver: engine ({}) in {:.1} ms\n",
        engine.stats(),
        start.elapsed().as_secs_f64() * 1e3
    ));
    Ok(out)
}

/// One `chain2l solve` CSV row.
fn series_row(n: usize, solution: &Solution) -> String {
    format!(
        "{},{:.6},{:.6},{},{},{},{}\n",
        n,
        solution.expected_makespan,
        solution.normalized_makespan,
        solution.counts.disk_checkpoints,
        solution.counts.memory_checkpoints,
        solution.counts.guaranteed_verifications,
        solution.counts.partial_verifications,
    )
}

fn cmd_sensitivity(args: &ParsedArgs) -> Result<String, ArgError> {
    let scenario = parse_scenario(args)?;
    let algorithm = parse_algorithm(args)?;
    let step = args.f64_or("step", 0.05)?;
    if !(step > 0.0 && step < 1.0) {
        return Err(ArgError::InvalidValue {
            option: "step".into(),
            value: step.to_string(),
            expected: "a fraction strictly between 0 and 1".into(),
        });
    }
    let report = chain2l_core::sensitivity::analyze(&scenario, algorithm, step);
    Ok(chain2l_analysis::markdown::sensitivity_to_markdown(&report))
}

fn cmd_validate(args: &ParsedArgs) -> Result<String, ArgError> {
    let replications = args.usize_or("replications", 10_000)?;
    let seed = args.u64_or("seed", 42)?;
    let threads = args.usize_or("threads", 4)?;
    let tasks = args.usize_or("tasks", 20)?;
    let weight = args.f64_or("weight", experiments::PAPER_TOTAL_WEIGHT)?;
    let pattern = parse_pattern(args)?;
    let mut rows = Vec::new();
    for platform in scr::all() {
        let scenario = Scenario::paper_setup(&platform, &pattern, tasks, weight).map_err(|e| {
            ArgError::InvalidValue {
                option: "tasks".into(),
                value: format!("{tasks}"),
                expected: leak(format!("a valid scenario ({e})")),
            }
        })?;
        for algorithm in [Algorithm::SingleLevel, Algorithm::TwoLevel, Algorithm::TwoLevelPartial] {
            rows.push(validation::validate(&scenario, algorithm, replications, seed, threads));
        }
    }
    Ok(render_table(&validation::validation_table(&rows), args))
}

fn experiment_config(args: &ParsedArgs) -> ExperimentConfig {
    if args.flag("paper") {
        ExperimentConfig::paper()
    } else if args.flag("quick") {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::coarse()
    }
}

fn cmd_experiment(args: &ParsedArgs) -> Result<String, ArgError> {
    let which = args
        .positionals
        .first()
        .map(|s| s.as_str())
        .ok_or(ArgError::MissingOption { option: "experiment name".into() })?;
    let config = experiment_config(args);
    let engine = Engine::new();
    match which {
        "table1" => Ok(render_table(&experiments::table1(), args)),
        "fig5" => {
            let data = experiments::fig5(&config, &engine);
            if args.flag("csv") {
                Ok(data.to_tables().iter().map(|t| t.to_csv()).collect::<Vec<_>>().join("\n"))
            } else {
                Ok(data.render())
            }
        }
        "fig6" => {
            let n = args.usize_or("tasks", 50)?;
            let weight = args.f64_or("weight", experiments::PAPER_TOTAL_WEIGHT)?;
            let strips = experiments::fig6(n, weight, &engine);
            Ok(strips.iter().map(|s| s.render()).collect::<Vec<_>>().join("\n"))
        }
        "fig7" => Ok(experiments::fig7(&config, &engine).render()),
        "fig8" => Ok(experiments::fig8(&config, &engine).render()),
        other => Err(ArgError::Unknown { what: other.to_string() }),
    }
}

fn cmd_sweep(args: &ParsedArgs) -> Result<String, ArgError> {
    let which = args
        .positionals
        .first()
        .map(|s| s.as_str())
        .ok_or(ArgError::MissingOption { option: "sweep name".into() })?;
    let platform = parse_platform(args)?;
    let tasks = args.usize_or("tasks", 20)?;
    let weight = args.f64_or("weight", experiments::PAPER_TOTAL_WEIGHT)?;
    let engine = Engine::new();
    let table = match which {
        "recall" => {
            sweep::recall_sweep(&platform, tasks, weight, &[0.2, 0.4, 0.6, 0.8, 1.0], &engine)
        }
        "cost" => sweep::partial_cost_sweep(
            &platform,
            tasks,
            weight,
            &[1.0, 10.0, 100.0, 1000.0],
            &engine,
        ),
        "rates" => sweep::rate_scaling_sweep(
            &platform,
            tasks,
            weight,
            &[1.0, 2.0, 5.0, 10.0, 50.0],
            &engine,
        ),
        "tail" => sweep::tail_accounting_comparison(&scr::all(), tasks, weight, &engine),
        "heuristics" => sweep::heuristic_comparison(&platform, tasks, weight, &engine),
        other => return Err(ArgError::Unknown { what: other.to_string() }),
    };
    eprintln!("sweep: solver engine — {}", engine.stats());
    Ok(render_table(&table, args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_tokens(tokens: &[&str]) -> Result<String, ArgError> {
        let args = ParsedArgs::parse(tokens.iter().map(|s| s.to_string()))?;
        run(&args)
    }

    #[test]
    fn help_lists_every_command() {
        let out = run_tokens(&["help"]).unwrap();
        for cmd in [
            "platforms",
            "optimize",
            "evaluate",
            "simulate",
            "experiment",
            "sweep",
            "batch",
            "serve",
            "--remote",
        ] {
            assert!(out.contains(cmd), "help misses {cmd}");
        }
    }

    #[test]
    fn platforms_prints_table_one() {
        let out = run_tokens(&["platforms"]).unwrap();
        assert!(out.contains("Hera"));
        assert!(out.contains("Coastal SSD"));
        let csv = run_tokens(&["platforms", "--csv"]).unwrap();
        assert!(csv.starts_with("platform,"));
    }

    #[test]
    fn optimize_reports_makespan_and_counts() {
        let out = run_tokens(&[
            "optimize",
            "--platform",
            "hera",
            "--tasks",
            "10",
            "--algorithm",
            "admv*",
        ])
        .unwrap();
        assert!(out.contains("ADMV* on Hera"));
        assert!(out.contains("expected makespan"));
        assert!(out.contains("disk ckpts"));
    }

    #[test]
    fn optimize_with_strips_renders_rows() {
        let out =
            run_tokens(&["optimize", "--tasks", "8", "--algorithm", "admv", "--strips"]).unwrap();
        assert!(out.contains("Partial verifs"));
    }

    #[test]
    fn evaluate_parses_compact_schedules() {
        let out = run_tokens(&["evaluate", "--tasks", "6", "--schedule", "..M..D"]).unwrap();
        assert!(out.contains("expected makespan"));
        // Schedule must match the task count.
        let err = run_tokens(&["evaluate", "--tasks", "5", "--schedule", "..M..D"]);
        assert!(err.is_err());
        // Unknown characters are rejected.
        let err = run_tokens(&["evaluate", "--tasks", "3", "--schedule", "..X"]);
        assert!(err.is_err());
        // Missing option.
        let err = run_tokens(&["evaluate", "--tasks", "3"]);
        assert!(matches!(err, Err(ArgError::MissingOption { .. })));
    }

    #[test]
    fn parse_schedule_string_accepts_decorations() {
        let s = parse_schedule_string("|.pvMD|").unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.render_compact(), "|.pvMD|");
    }

    #[test]
    fn simulate_reports_agreement() {
        let out = run_tokens(&[
            "simulate",
            "--tasks",
            "8",
            "--replications",
            "500",
            "--threads",
            "2",
            "--algorithm",
            "admv*",
        ])
        .unwrap();
        assert!(out.contains("analytical"));
        assert!(out.contains("simulated"));
        assert!(out.contains("relative error"));
    }

    #[test]
    fn experiment_table1_and_fig6_run() {
        let out = run_tokens(&["experiment", "table1"]).unwrap();
        assert!(out.contains("Hera"));
        let out = run_tokens(&["experiment", "fig6", "--tasks", "10"]).unwrap();
        assert!(out.contains("Platform Hera with ADMV and n=10"));
        assert!(out.contains("Platform Coastal SSD"));
    }

    #[test]
    fn experiment_requires_a_known_name() {
        assert!(matches!(run_tokens(&["experiment"]), Err(ArgError::MissingOption { .. })));
        assert!(matches!(run_tokens(&["experiment", "fig9"]), Err(ArgError::Unknown { .. })));
    }

    #[test]
    fn sweep_heuristics_runs() {
        let out = run_tokens(&["sweep", "heuristics", "--tasks", "10"]).unwrap();
        assert!(out.contains("optimal"));
        assert!(out.contains("Young/Daly"));
    }

    #[test]
    fn simulate_with_histogram_prints_percentiles() {
        let out = run_tokens(&[
            "simulate",
            "--tasks",
            "6",
            "--replications",
            "400",
            "--threads",
            "1",
            "--algorithm",
            "admv*",
            "--histogram",
        ])
        .unwrap();
        assert!(out.contains("p95"));
        assert!(out.contains('#'));
    }

    #[test]
    fn sensitivity_reports_every_parameter() {
        let out =
            run_tokens(&["sensitivity", "--tasks", "8", "--algorithm", "admv*", "--step", "0.1"])
                .unwrap();
        for label in ["lambda_f", "lambda_s", "C_D", "C_M", "elasticity"] {
            assert!(out.contains(label), "missing {label}:\n{out}");
        }
        assert!(run_tokens(&["sensitivity", "--step", "2.0", "--tasks", "5"]).is_err());
    }

    #[test]
    fn batch_solves_requests_in_order_and_dedups() {
        let input = "\
# figure panel cells
hera uniform 8
hera uniform 8 25000 admv*
atlas,decrease,6,25000,adv*

hera uniform 8
";
        let engine = Engine::new();
        let out = run_batch(input, &engine).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("platform,pattern,n,T,algorithm"));
        assert_eq!(lines.len(), 1 + 4, "header + 4 rows, stats on stderr only:\n{out}");
        assert!(lines[1].starts_with("Hera,uniform,8,25000,ADMV,"), "{}", lines[1]);
        assert!(lines[2].starts_with("Hera,uniform,8,25000,ADMV*,"), "{}", lines[2]);
        assert!(lines[3].starts_with("Atlas,decrease,6,25000,ADV*,"), "{}", lines[3]);
        // Line 4 repeats line 1: identical output, served from cache.
        assert_eq!(lines[1], lines[4]);
        let stats = engine.stats();
        assert_eq!((stats.cache.hits, stats.cache.misses), (1, 3), "{stats:?}");
    }

    #[test]
    fn batch_rejects_malformed_lines_with_their_line_number() {
        for bad in [
            "titan uniform 5",
            "hera uniform many",
            "hera uniform",
            "hera uniform 5 1 zzz",
            "hera uniform 0",
            "hera uniform 5 nan",
        ] {
            let err = run_batch(&format!("hera uniform 3\n{bad}\n"), &Engine::new()).unwrap_err();
            assert!(err.is_usage(), "{bad}");
            match err {
                ArgError::InvalidValue { option, .. } => {
                    assert_eq!(option, "batch line 2", "{bad}")
                }
                other => panic!("unexpected {other:?} for `{bad}`"),
            }
        }
    }

    #[test]
    fn batch_command_reads_a_scenario_file() {
        let path = std::env::temp_dir().join(format!("chain2l-batch-{}.txt", std::process::id()));
        std::fs::write(&path, "hera uniform 6 25000 admv*\ncoastal-ssd uniform 6\n").unwrap();
        let out = run_tokens(&["batch", "--file", path.to_str().unwrap()]).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(out.lines().count(), 1 + 2, "pure CSV, stats on stderr");
        assert!(out.contains("Hera,uniform,6"));
        assert!(out.contains("Coastal SSD,uniform,6"));
        // Missing files are a runtime error (exit code 1), not a usage one.
        let err = run_tokens(&["batch", "--file", "/nonexistent/scenarios.txt"]).unwrap_err();
        assert!(matches!(err, ArgError::Runtime { .. }));
        assert!(!err.is_usage());
        // `--remote` without an address is a usage error.
        let err = run_tokens(&["batch", "--remote", "--file", "x.txt"]).unwrap_err();
        assert!(err.is_usage());
    }

    #[test]
    fn solve_series_rows_equal_cold_solves_and_report_extensions() {
        let out = run_tokens(&[
            "solve",
            "--series",
            "6,12,18",
            "--per-task-weight",
            "500",
            "--algorithm",
            "admv*",
        ])
        .unwrap();
        let rows: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(rows.len(), 1 + 3, "header + one row per point:\n{out}");
        assert!(rows[0].starts_with("n,expected_makespan,"), "{out}");
        for (row, n) in rows[1..].iter().zip([6usize, 12, 18]) {
            let scenario =
                chain2l_analysis::experiments::weak_scaling_scenario(&scr::hera(), n, 500.0);
            let cold = optimize(&scenario, Algorithm::TwoLevel);
            assert_eq!(format!("{row}\n"), series_row(n, &cold), "results must be bit-identical");
        }
        // One cold solve, then every later point extends its tables.
        assert!(out.contains("2 extended"), "{out}");
        assert!(out.contains("1 cold (pruned)"), "{out}");
    }

    #[test]
    fn solve_rejects_malformed_series_and_weights() {
        assert!(run_tokens(&["solve", "--series", "5,abc"]).is_err());
        assert!(run_tokens(&["solve", "--series", "0,5"]).is_err());
        assert!(run_tokens(&["solve", "--per-task-weight", "-3"]).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run_tokens(&["frobnicate"]).unwrap_err();
        assert!(matches!(err, ArgError::Unknown { .. }));
        assert!(err.is_usage(), "unknown commands are usage errors (exit 2)");
    }

    #[test]
    fn validate_rejects_invalid_scenario_parameters_without_panicking() {
        for bad in [
            vec!["validate", "--tasks", "0"],
            vec!["validate", "--weight", "nan", "--replications", "10"],
        ] {
            let err = run_tokens(&bad).unwrap_err();
            assert!(matches!(err, ArgError::InvalidValue { .. }), "{bad:?} → {err:?}");
        }
    }

    #[test]
    fn serve_control_flags_fail_cleanly_without_a_daemon() {
        // Nothing listens on this port: both control ops must report a
        // runtime error (exit code 1), not panic or hang.
        for flags in [
            ["serve", "--stop", "--addr", "127.0.0.1:1"],
            ["serve", "--stats", "--addr", "127.0.0.1:1"],
        ] {
            let err = run_tokens(&flags).unwrap_err();
            assert!(matches!(err, ArgError::Runtime { .. }), "{flags:?} → {err:?}");
            assert!(!err.is_usage());
        }
        // Zero shards is a usage error before anything is spawned.
        let err = run_tokens(&["serve", "--shards", "0"]).unwrap_err();
        assert!(err.is_usage());
        // An unparseable cache cap is a usage error too (before the daemon
        // binds or any worker is spawned).
        let err = run_tokens(&["serve", "--cache-cap", "lots"]).unwrap_err();
        assert!(matches!(&err, ArgError::InvalidValue { option, .. } if option == "cache-cap"));
        assert!(err.is_usage());
    }

    #[test]
    fn serve_rejects_zero_window_and_zero_cache_cap() {
        // A zero window would deadlock every connection (nothing is ever
        // read) and a zero cache cap would evict each solution as it is
        // inserted: both are usage errors (exit code 2) before the daemon
        // binds, not silent clamps.
        let err = run_tokens(&["serve", "--window", "0"]).unwrap_err();
        assert!(matches!(&err, ArgError::InvalidValue { option, value, .. }
            if option == "window" && value == "0"));
        assert!(err.is_usage());

        let err = run_tokens(&["serve", "--cache-cap", "0"]).unwrap_err();
        assert!(matches!(&err, ArgError::InvalidValue { option, value, .. }
            if option == "cache-cap" && value == "0"));
        assert!(err.is_usage());

        // The same validation covers the worker half: an internal shard
        // with a zero cap must fail identically.
        let err = run_tokens(&["serve", "--internal-shard", "--cache-cap", "0"]).unwrap_err();
        assert!(err.is_usage());

        // Boundary: one is the smallest legal value.  Validation runs
        // before the `--stats` control op, so this exercises the window
        // parse without binding a daemon; only the socket then fails.
        let err = run_tokens(&["serve", "--stats", "--window", "1", "--addr", "127.0.0.1:1"])
            .unwrap_err();
        assert!(!err.is_usage(), "window=1 must parse; only the socket may fail");
        let err = run_tokens(&["serve", "--stats", "--window", "0", "--addr", "127.0.0.1:1"])
            .unwrap_err();
        assert!(err.is_usage(), "window=0 is rejected even on control ops");
    }

    #[test]
    fn serve_validates_state_dir_and_snapshot_interval() {
        // A nonexistent state dir is a usage error (exit code 2) with the
        // expectation spelled out, before any worker is spawned.
        let err = run_tokens(&["serve", "--state-dir", "/nonexistent-chain2l-state"]).unwrap_err();
        assert!(matches!(&err, ArgError::InvalidValue { option, value, expected }
            if option == "state-dir"
                && value == "/nonexistent-chain2l-state"
                && expected.contains("existing writable directory")));
        assert!(err.is_usage());

        // A state dir that is actually a file fails the same way.
        let file =
            std::env::temp_dir().join(format!("chain2l-cli-statefile-{}", std::process::id()));
        std::fs::write(&file, b"not a dir").unwrap();
        let err = run_tokens(&["serve", "--state-dir", file.to_str().unwrap()]).unwrap_err();
        assert!(matches!(&err, ArgError::InvalidValue { option, .. } if option == "state-dir"));
        let _ = std::fs::remove_file(&file);

        // A zero snapshot interval would spin the snapshotter; reject it
        // whether or not a state dir is given (and on the worker path too).
        let err = run_tokens(&["serve", "--snapshot-every", "0"]).unwrap_err();
        assert!(matches!(&err, ArgError::InvalidValue { option, value, .. }
            if option == "snapshot-every" && value == "0"));
        assert!(err.is_usage());
        let err = run_tokens(&["serve", "--internal-shard", "--snapshot-every", "0"]).unwrap_err();
        assert!(err.is_usage());

        // --snapshot-every without --state-dir has nowhere to persist:
        // usage error naming the missing half.
        let err = run_tokens(&["serve", "--snapshot-every", "5"]).unwrap_err();
        assert!(matches!(&err, ArgError::InvalidValue { option, expected, .. }
            if option == "snapshot-every" && expected.contains("--state-dir")));
        assert!(err.is_usage());

        // Validation runs before control ops, so a good dir + --stats only
        // fails at the (dead) socket — proving the probe accepts a real,
        // writable directory.
        let dir = std::env::temp_dir().join(format!("chain2l-cli-statedir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = run_tokens(&[
            "serve",
            "--stats",
            "--addr",
            "127.0.0.1:1",
            "--state-dir",
            dir.to_str().unwrap(),
            "--snapshot-every",
            "5",
        ])
        .unwrap_err();
        assert!(!err.is_usage(), "a writable dir must pass validation: {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runtime_errors_render_their_context() {
        let err = ArgError::runtime("reading scenarios.txt", "permission denied");
        assert_eq!(err.to_string(), "reading scenarios.txt: permission denied");
        assert!(!err.is_usage());
    }

    #[test]
    fn bad_platform_and_algorithm_are_rejected() {
        assert!(run_tokens(&["optimize", "--platform", "titan"]).is_err());
        assert!(run_tokens(&["optimize", "--algorithm", "magic"]).is_err());
        assert!(run_tokens(&["optimize", "--pattern", "random"]).is_err());
    }
}
