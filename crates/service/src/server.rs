//! The long-lived `chain2l serve` daemon: a single non-blocking readiness
//! loop multiplexing every client connection onto persistent shard-worker
//! links, with supervised worker respawn.
//!
//! Topology: the parent process owns the public [`TcpListener`] and `N`
//! shard worker child processes (spawned from a configurable command — the
//! CLI re-executes itself with `serve --internal-shard`).  Each worker owns
//! one [`chain2l_core::Engine`], i.e. one disjoint cache-and-tables slice of
//! the solving contexts: the parent resolves every solve request, computes
//! [`ScenarioFingerprint::stable_hash_of`]` % N` — a digest of the rates,
//! costs and algorithm, not the weights — and forwards the frame to the
//! owning shard.  A fingerprint determines its context, so the same
//! scenario always lands on the same process and no solve is ever
//! duplicated across shards; and every length of a growing chain lands on
//! the one shard that retains and extends its tables.  Shard links are
//! loopback TCP connections to the workers' announced ports.
//!
//! Concurrency: everything in the parent runs on one [`mio_lite::Poll`]
//! loop.  Requests are decoded as their bytes arrive (partial frames
//! tolerated) and dispatched immediately; each forwarded request is
//! re-keyed with a parent-unique internal id — client ids from different
//! connections may collide on a shared link — and the worker's response is
//! re-keyed back before relay.  The relay reads only the id at the fixed
//! head of the worker's reply and splices the client id into the worker's
//! bytes ([`protocol::split_response_id`], [`protocol::with_response_id`]);
//! only `stats` replies, whose detail the parent aggregates, are parsed in
//! full.  So the parent parses each client request once and no solve reply
//! at all.  Responses complete **out of order** as
//! workers finish, but every client connection releases its responses in
//! request order through the [`crate::frame::Conn`] sequence window, so a
//! connection's response byte stream is a deterministic function of its
//! request stream.  The same window (see [`ServeConfig::window`]) applies
//! backpressure: a connection at its inflight limit simply stops being read
//! until responses drain.
//!
//! Supervision: the parent holds one persistent link per worker.  A link
//! EOF or transport error means the worker died; the parent respawns it
//! from the same config and **replays** the dead worker's inflight requests
//! (solves are pure functions of the spec, so replay cannot change any
//! response byte).  Only requests that cannot be replayed — the worker
//! cannot be respawned after repeated attempts — fail, with per-request
//! `ok:false` responses.
//!
//! Shutdown: a `shutdown` frame stops accepting, drains inflight solves
//! (bounded wait), collects each shard's final statistics, stops the
//! workers, answers the requester and returns a [`ServeSummary`] from
//! [`Server::run`].  If the parent dies uncleanly instead, the workers
//! notice their stdin pipe closing and exit on their own.

// lint: allow-file(panic-index: every index is bounded by construction — shard ids are `hash % shards.len()`, client/slot indices come from `position`-or-`push`, and token arithmetic inverts `client_token`)

use crate::frame::Conn;
use crate::protocol::{self, Request, Response};
use chain2l_core::ScenarioFingerprint;
use mio_lite::{Events, Interest, Poll, Token};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Default per-connection inflight window (see [`ServeConfig::window`]).
pub const DEFAULT_WINDOW: u64 = 128;

/// How long a graceful shutdown waits for inflight solves, and then for the
/// final statistics round, before forcing the issue.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Consecutive worker deaths (without a single successful response in
/// between) after which a shard is declared failed instead of respawned.
const MAX_CONSECUTIVE_RESPAWNS: u32 = 5;

/// Spawn attempts per death before giving up on a shard.
const MAX_SPAWN_ATTEMPTS: u32 = 3;

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:4615` (port 0 picks an ephemeral one).
    pub addr: String,
    /// Number of shard worker processes (≥ 1).
    pub shards: usize,
    /// Program spawned for each shard worker.
    pub shard_program: PathBuf,
    /// Arguments passed to the shard program.
    pub shard_args: Vec<String>,
    /// Per-connection inflight window: how many requests may be accepted
    /// but not yet answered before the daemon stops reading from that
    /// connection (backpressure).  Also bounds the per-connection reorder
    /// buffer.  Clamped to ≥ 1.
    pub window: u64,
    /// Warm-start state directory: when set, every shard worker loads its
    /// snapshot (`shard-<i>-of-<N>.snap`) at boot and persists it
    /// periodically and on exit, so a restarted daemon serves warm.
    pub state_dir: Option<PathBuf>,
    /// Seconds between periodic shard snapshots (only meaningful with
    /// `state_dir`; clamped to ≥ 1 by the worker).
    pub snapshot_every_secs: u64,
    /// Global admission cap: solve requests inflight across *all*
    /// connections.  At the cap, further solves are refused immediately
    /// with `ok:false, error:"overloaded"` instead of queueing without
    /// bound.  `0` (the default) disables the cap.
    pub max_inflight: u64,
    /// Failpoint spec armed in the parent and exported to every shard
    /// worker via `CHAIN2L_FAILPOINTS` (see [`chain2l_core::failpoint`]).
    pub failpoints: Option<String>,
}

/// Default seconds between periodic shard snapshots (`--snapshot-every`).
pub const DEFAULT_SNAPSHOT_EVERY_SECS: u64 = 30;

impl ServeConfig {
    /// A daemon with the given shard worker command and the default
    /// inflight window.
    pub fn new(addr: &str, shards: usize, shard_program: PathBuf, shard_args: Vec<String>) -> Self {
        Self {
            addr: addr.to_string(),
            shards,
            shard_program,
            shard_args,
            window: DEFAULT_WINDOW,
            state_dir: None,
            snapshot_every_secs: DEFAULT_SNAPSHOT_EVERY_SECS,
            max_inflight: 0,
            failpoints: None,
        }
    }

    /// A daemon whose shard workers re-execute the current binary with
    /// `serve --internal-shard` (how the `chain2l` CLI hosts itself).
    ///
    /// `cache_cap`, when set, is forwarded to every worker as
    /// `--cache-cap N`: each shard engine then keeps at most `N` cached
    /// solutions and `N` retained DP table contexts (LRU eviction), so the
    /// daemon's memory is bounded under sustained traffic.
    pub fn self_hosted(addr: &str, shards: usize, cache_cap: Option<usize>) -> io::Result<Self> {
        let mut shard_args = vec!["serve".to_string(), "--internal-shard".to_string()];
        if let Some(cap) = cache_cap {
            shard_args.push("--cache-cap".to_string());
            shard_args.push(cap.to_string());
        }
        Ok(Self::new(addr, shards, std::env::current_exe()?, shard_args))
    }
}

/// What the daemon observed over its lifetime, returned by [`Server::run`]
/// after a graceful shutdown.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Final engine statistics of each shard, in shard order.
    pub per_shard: Vec<String>,
    /// Client connections accepted.
    pub connections: u64,
    /// Shard workers respawned after dying mid-service.
    pub respawns: u64,
    /// Solve requests shed by the global inflight cap.
    pub shed: u64,
}

struct ShardWorker {
    child: Child,
    port: u16,
    /// Held open for the child's lifetime: dropping it (e.g. when the parent
    /// dies or reaps the worker) is the child's signal to exit, so the
    /// shutdown path can never hang on a worker that missed its `shutdown`
    /// frame.
    stdin: Option<ChildStdin>,
    _stdout: BufReader<ChildStdout>,
}

/// A bound daemon: shards are running and the listener is open, but no
/// client is served until [`Server::run`].
pub struct Server {
    listener: TcpListener,
    workers: Vec<ShardWorker>,
    config: ServeConfig,
    local_addr: SocketAddr,
}

impl Server {
    /// Spawns the shard workers and binds the public listener.
    pub fn bind(config: &ServeConfig) -> io::Result<Server> {
        if config.shards == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "at least one shard required"));
        }
        // Arm the parent's failpoint registry before any shard spawns, so
        // `shard.spawn` faults apply from the first worker on.  The spec is
        // validated here once; workers inherit it via the environment.
        if let Some(spec) = &config.failpoints {
            chain2l_core::failpoint::configure(spec)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        }
        let mut workers = Vec::with_capacity(config.shards);
        for index in 0..config.shards {
            workers.push(spawn_shard(config, index)?);
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Server { listener, workers, config: config.clone(), local_addr })
    }

    /// The address the daemon accepts clients on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Process ids of the current shard worker children (exposed so
    /// supervision tests can kill one mid-stream).
    pub fn shard_pids(&self) -> Vec<u32> {
        self.workers.iter().map(|w| w.child.id()).collect()
    }

    /// Serves clients until a graceful shutdown request, then stops the
    /// shard workers and reports their final statistics.
    pub fn run(self) -> io::Result<ServeSummary> {
        let Server { listener, workers, config, .. } = self;
        let mut event_loop = EventLoop::new(listener, workers, &config)?;
        let outcome = event_loop.serve();
        let mut summary = ServeSummary {
            per_shard: event_loop.final_stats.clone(),
            connections: event_loop.accepted,
            respawns: event_loop.respawns,
            shed: event_loop.shed,
        };
        // The shutdown path already asked every worker to exit; closing its
        // stdin pipe first covers a worker that missed the frame (its EOF
        // watchdog fires), so `wait` cannot block indefinitely.
        for (index, shard) in event_loop.shards.iter_mut().enumerate() {
            if let Some(mut worker) = shard.worker.take() {
                drop(worker.stdin.take());
                if worker.child.wait().is_err() {
                    let _ = worker.child.kill();
                }
            }
            if summary.per_shard.len() <= index {
                summary.per_shard.push(format!("shard {index}: no final statistics"));
            }
        }
        outcome?;
        Ok(summary)
    }
}

fn spawn_shard(config: &ServeConfig, index: usize) -> io::Result<ShardWorker> {
    // `shard.spawn` covers both the initial spawn and every respawn: `err`
    // makes a spawn attempt fail (exercising the retry/declare-dead
    // ladder), `delay` widens the window in which the shard is absent.
    chain2l_core::failpoint::fail_io("shard.spawn")?;
    // Persistence flags are per-worker (each owns one slice of the
    // partition), so they are appended here rather than in `shard_args` —
    // and a *respawned* worker gets the same flags, so it warm-boots from
    // the snapshot its predecessor left behind.
    let mut persist_args: Vec<String> = Vec::new();
    if let Some(dir) = &config.state_dir {
        persist_args.extend([
            "--state-dir".to_string(),
            dir.display().to_string(),
            "--shard-index".to_string(),
            index.to_string(),
            "--shard-count".to_string(),
            config.shards.to_string(),
            "--snapshot-every".to_string(),
            config.snapshot_every_secs.to_string(),
        ]);
    }
    let mut command = Command::new(&config.shard_program);
    command
        .args(&config.shard_args)
        .args(&persist_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(spec) = &config.failpoints {
        // Workers arm their own registries from the environment (see
        // `shard::run_shard`); passing the spec explicitly covers the
        // `--failpoints` flag, which never touches the parent's own env.
        command.env(chain2l_core::failpoint::ENV_FAILPOINTS, spec);
    }
    let mut child = command.spawn()?;
    // lint: allow(panic-expect: Stdio::piped() above guarantees the stdin handle; runs at startup before any connection is accepted)
    let stdin = child.stdin.take().expect("piped stdin");
    // lint: allow(panic-expect: Stdio::piped() above guarantees the stdout handle; runs at startup before any connection is accepted)
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut hello = String::new();
    stdout.read_line(&mut hello)?;
    let port = protocol::parse_hello(hello.trim_end()).map_err(|e| {
        let _ = child.kill();
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("shard {index} announced no port ({e}); startup line: {hello:?}"),
        )
    })?;
    Ok(ShardWorker { child, port, stdin: Some(stdin), _stdout: stdout })
}

const LISTENER: Token = Token(0);
const LINK_BASE: usize = 1;

struct ClientSlot {
    conn: Conn,
    gen: u64,
}

struct ShardState {
    worker: Option<ShardWorker>,
    link: Option<Conn>,
    /// Declared failed: respawn gave up, requests routed here error out.
    dead: bool,
    /// Deaths since the last successful response (crash-loop breaker).
    consecutive_respawns: u32,
    /// Lifetime respawns of this shard (reported by the `health` op).
    respawns_total: u64,
}

enum PendingKind {
    /// A forwarded solve: where its re-keyed response goes.
    Solve { slot: usize, gen: u64, seq: u64, client_id: u64 },
    /// One shard's contribution to a statistics aggregate.
    Stats { agg: u64, shard: usize },
}

/// One request inflight on a shard link, keyed by its internal id.  `line`
/// is the exact frame sent (already re-keyed), kept for replay.
struct Pending {
    shard: usize,
    line: String,
    kind: PendingKind,
}

/// A statistics fan-out being assembled from per-shard answers.
struct StatsAgg {
    /// Destination; `None` aggregates the final statistics at shutdown.
    target: Option<(usize, u64, u64, u64)>,
    remaining: usize,
    details: Vec<Option<String>>,
}

enum Phase {
    Running,
    /// Stopped accepting; waiting for inflight solves (bounded).
    Draining {
        deadline: Instant,
    },
    /// Final statistics round inflight (bounded).
    Collecting {
        deadline: Instant,
        agg: u64,
    },
    /// Shutdown acknowledged; flushing the requester's stream.
    Flushing,
}

struct EventLoop<'a> {
    config: &'a ServeConfig,
    poll: Poll,
    listener: TcpListener,
    shards: Vec<ShardState>,
    clients: Vec<Option<ClientSlot>>,
    next_gen: u64,
    pending: HashMap<u64, Pending>,
    next_internal: u64,
    solve_inflight: usize,
    aggs: HashMap<u64, StatsAgg>,
    next_agg: u64,
    window: u64,
    max_inflight: u64,
    accepted: u64,
    respawns: u64,
    shed: u64,
    phase: Phase,
    /// Who asked for shutdown: (slot, gen, seq, client id).
    requester: Option<(usize, u64, u64, u64)>,
    final_stats: Vec<String>,
}

impl<'a> EventLoop<'a> {
    fn new(
        listener: TcpListener,
        workers: Vec<ShardWorker>,
        config: &'a ServeConfig,
    ) -> io::Result<EventLoop<'a>> {
        listener.set_nonblocking(true)?;
        let mut poll = Poll::new()?;
        poll.register(&listener, LISTENER, Interest::READABLE)?;
        let shards = workers
            .into_iter()
            .map(|worker| ShardState {
                worker: Some(worker),
                link: None,
                dead: false,
                consecutive_respawns: 0,
                respawns_total: 0,
            })
            .collect();
        let mut this = EventLoop {
            config,
            poll,
            listener,
            shards,
            clients: Vec::new(),
            next_gen: 0,
            pending: HashMap::new(),
            next_internal: 0,
            solve_inflight: 0,
            aggs: HashMap::new(),
            next_agg: 0,
            window: config.window.max(1),
            max_inflight: config.max_inflight,
            accepted: 0,
            respawns: 0,
            shed: 0,
            phase: Phase::Running,
            requester: None,
            final_stats: Vec::new(),
        };
        for shard in 0..this.shards.len() {
            if this.connect_link(shard).is_err() {
                this.link_failed(shard);
            }
        }
        Ok(this)
    }

    fn client_token(&self, index: usize) -> Token {
        Token(LINK_BASE + self.shards.len() + index)
    }

    /// Opens (and registers) the persistent link to `shard`'s worker.
    fn connect_link(&mut self, shard: usize) -> io::Result<()> {
        let port = match &self.shards[shard].worker {
            Some(worker) => worker.port,
            None => return Err(io::Error::new(io::ErrorKind::NotFound, "no worker")),
        };
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        let conn = Conn::new(stream)?;
        self.poll.register(&conn.stream, Token(LINK_BASE + shard), Interest::READABLE)?;
        self.shards[shard].link = Some(conn);
        Ok(())
    }

    fn serve(&mut self) -> io::Result<()> {
        let mut events = Events::with_capacity(256);
        loop {
            self.refresh_interests()?;
            let timeout = match self.phase {
                Phase::Running => Duration::from_millis(500),
                _ => Duration::from_millis(25),
            };
            self.poll.poll(&mut events, Some(timeout))?;
            let fired: Vec<(Token, bool, bool)> =
                events.iter().map(|e| (e.token(), e.is_readable(), e.is_writable())).collect();
            for (token, readable, writable) in fired {
                let Token(raw) = token;
                if token == LISTENER {
                    if matches!(self.phase, Phase::Running) {
                        self.accept_clients()?;
                    }
                } else if raw < LINK_BASE + self.shards.len() {
                    let shard = raw - LINK_BASE;
                    let mut failed = false;
                    if readable {
                        failed = self.link_read(shard);
                    }
                    if !failed && writable {
                        failed = self.link_flush(shard);
                    }
                    if failed {
                        self.link_failed(shard);
                    }
                } else {
                    let index = raw - LINK_BASE - self.shards.len();
                    let mut dead = false;
                    if let Some(slot) = self.clients.get_mut(index).and_then(Option::as_mut) {
                        if readable {
                            dead = slot.conn.fill().is_err();
                        }
                        if !dead && writable {
                            dead = slot.conn.flush_out().is_err();
                        }
                    }
                    if dead {
                        self.close_client(index);
                    }
                }
            }
            // Admit newly-decoded (or newly-admissible) frames, flush
            // completions queued outside write events, close drained peers.
            if matches!(self.phase, Phase::Running) {
                for index in 0..self.clients.len() {
                    self.pump_client(index);
                }
            }
            self.flush_peers();
            if self.advance_shutdown() {
                return Ok(());
            }
        }
    }

    /// Recomputes every registered source's interest from its buffer and
    /// window state (level-triggered readiness: interest is the valve).
    fn refresh_interests(&mut self) -> io::Result<()> {
        let accept = matches!(self.phase, Phase::Running);
        self.poll.reregister(
            &self.listener,
            LISTENER,
            if accept { Interest::READABLE } else { Interest::NONE },
        )?;
        for (shard, state) in self.shards.iter().enumerate() {
            if let Some(link) = &state.link {
                let mut interest = Interest::READABLE;
                if link.wants_write() {
                    interest = interest | Interest::WRITABLE;
                }
                self.poll.reregister(&link.stream, Token(LINK_BASE + shard), interest)?;
            }
        }
        let reading = matches!(self.phase, Phase::Running);
        for index in 0..self.clients.len() {
            let token = self.client_token(index);
            if let Some(slot) = self.clients.get(index).and_then(Option::as_ref) {
                let mut interest = Interest::NONE;
                if reading && slot.conn.wants_read(self.window) {
                    interest = interest | Interest::READABLE;
                }
                if slot.conn.wants_write() {
                    interest = interest | Interest::WRITABLE;
                }
                self.poll.reregister(&slot.conn.stream, token, interest)?;
            }
        }
        Ok(())
    }

    fn accept_clients(&mut self) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let conn = match Conn::new(stream) {
                        Ok(conn) => conn,
                        Err(_) => continue,
                    };
                    self.accepted += 1;
                    self.next_gen += 1;
                    let slot = ClientSlot { conn, gen: self.next_gen };
                    let index =
                        self.clients.iter().position(Option::is_none).unwrap_or_else(|| {
                            self.clients.push(None);
                            self.clients.len() - 1
                        });
                    let token = self.client_token(index);
                    self.poll.register(&slot.conn.stream, token, Interest::READABLE)?;
                    self.clients[index] = Some(slot);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Ok(()),
            }
        }
    }

    fn close_client(&mut self, index: usize) {
        if let Some(slot) = self.clients.get_mut(index).and_then(Option::take) {
            let _ = self.poll.deregister(&slot.conn.stream);
        }
    }

    /// Admits decoded frames from client `index` while its window has room.
    fn pump_client(&mut self, index: usize) {
        loop {
            let (frame, seq, gen) = {
                let Some(slot) = self.clients.get_mut(index).and_then(Option::as_mut) else {
                    return;
                };
                if slot.conn.inflight() >= self.window {
                    return;
                }
                let Some(frame) = slot.conn.decoder.next_frame() else {
                    return;
                };
                (frame, slot.conn.accept_seq(), slot.gen)
            };
            match frame {
                Err(err) => {
                    let response =
                        Response::Error { id: 0, message: crate::shard::frame_error_message(&err) };
                    self.complete_client(index, gen, seq, &protocol::encode_response(&response));
                }
                Ok(line) => self.dispatch_client_frame(index, gen, seq, &line),
            }
        }
    }

    fn dispatch_client_frame(&mut self, slot: usize, gen: u64, seq: u64, line: &str) {
        match protocol::parse_request(line) {
            Err(e) => {
                let response =
                    Response::Error { id: protocol::best_effort_id(line), message: e.to_string() };
                self.complete_client(slot, gen, seq, &protocol::encode_response(&response));
            }
            Ok(Request::Ping { id }) => {
                self.complete_client(
                    slot,
                    gen,
                    seq,
                    &protocol::encode_response(&Response::Pong { id }),
                );
            }
            Ok(Request::Stats { id }) => self.start_stats(Some((slot, gen, seq, id))),
            Ok(Request::Health { id }) => {
                // Answered from the parent's supervision bookkeeping: no
                // worker round-trip, so `health` works even when every
                // shard is wedged.
                let report = self.health_report();
                self.complete_client(
                    slot,
                    gen,
                    seq,
                    &protocol::encode_response(&Response::Health { id, report }),
                );
            }
            Ok(Request::Shutdown { id }) => {
                if matches!(self.phase, Phase::Running) {
                    self.requester = Some((slot, gen, seq, id));
                    self.phase = Phase::Draining { deadline: Instant::now() + DRAIN_DEADLINE };
                } else {
                    // A second requester: acknowledge right away.
                    self.complete_client(
                        slot,
                        gen,
                        seq,
                        &protocol::encode_response(&Response::ShuttingDown { id }),
                    );
                }
            }
            Ok(Request::Solve { id, spec }) => {
                // Global admission control: shed before doing any work for
                // the request.  Shed responses release through the same
                // sequence window as real ones, so ordering is preserved
                // and the client can retry by id.
                if self.max_inflight > 0 && self.solve_inflight as u64 >= self.max_inflight {
                    self.shed += 1;
                    self.complete_client(
                        slot,
                        gen,
                        seq,
                        &protocol::encode_response(&Response::overloaded(id)),
                    );
                    return;
                }
                self.dispatch_solve(slot, gen, seq, id, spec);
            }
        }
    }

    fn dispatch_solve(
        &mut self,
        slot: usize,
        gen: u64,
        seq: u64,
        id: u64,
        spec: protocol::SolveSpec,
    ) {
        match protocol::resolve_spec(&spec) {
            Err(message) => {
                let response = Response::Error { id, message };
                self.complete_client(slot, gen, seq, &protocol::encode_response(&response));
            }
            Ok((scenario, algorithm)) => {
                let shard = (ScenarioFingerprint::stable_hash_of(&scenario, algorithm)
                    % self.shards.len() as u64) as usize;
                if self.shards[shard].dead || self.shards[shard].link.is_none() {
                    let response = Response::Error {
                        id,
                        message: format!("shard {shard} failed and was not respawned"),
                    };
                    self.complete_client(slot, gen, seq, &protocol::encode_response(&response));
                    return;
                }
                let internal = self.next_internal;
                self.next_internal += 1;
                let forwarded = protocol::encode_request(&Request::Solve { id: internal, spec });
                self.pending.insert(
                    internal,
                    Pending {
                        shard,
                        line: forwarded.clone(),
                        kind: PendingKind::Solve { slot, gen, seq, client_id: id },
                    },
                );
                self.solve_inflight += 1;
                if let Some(link) = self.shards[shard].link.as_mut() {
                    link.push_line(&forwarded);
                }
            }
        }
    }

    /// The `health` answer: per-shard liveness/respawn/failed state plus
    /// the daemon's global counters, straight from supervision state.
    fn health_report(&self) -> protocol::HealthReport {
        let mut live = 0u64;
        let mut failed = 0u64;
        let mut lines = Vec::with_capacity(self.shards.len());
        for (index, shard) in self.shards.iter().enumerate() {
            if shard.dead {
                failed += 1;
                lines.push(format!("shard {index}: failed (respawns {})", shard.respawns_total));
            } else if shard.link.is_some() {
                live += 1;
                lines.push(format!("shard {index}: live (respawns {})", shard.respawns_total));
            } else {
                failed += 1;
                lines.push(format!("shard {index}: down (respawns {})", shard.respawns_total));
            }
        }
        protocol::HealthReport {
            shards: self.shards.len() as u64,
            live,
            failed,
            respawns: self.respawns,
            shed: self.shed,
            inflight: self.solve_inflight as u64,
            detail: lines.join("\n"),
        }
    }

    /// The `daemon:` line prepended to every statistics fan-out, so the
    /// admission/supervision counters are visible through `--stats`.
    fn daemon_stats_line(&self) -> String {
        let failed = self.shards.iter().filter(|s| s.dead).count();
        format!(
            "daemon: inflight {}, shed {}, respawns {}, failed shards {}/{}",
            self.solve_inflight,
            self.shed,
            self.respawns,
            failed,
            self.shards.len()
        )
    }

    /// Routes a completed response line into a client's sequence window.
    fn complete_client(&mut self, index: usize, gen: u64, seq: u64, line: &str) {
        if let Some(slot) = self.clients.get_mut(index).and_then(Option::as_mut) {
            if slot.gen == gen {
                slot.conn.complete(seq, line);
            }
        }
    }

    /// Fans a statistics request out to every shard; dead shards contribute
    /// an `unreachable` line immediately.
    fn start_stats(&mut self, target: Option<(usize, u64, u64, u64)>) {
        let agg_id = self.next_agg;
        self.next_agg += 1;
        let shard_count = self.shards.len();
        let mut agg = StatsAgg { target, remaining: 0, details: vec![None; shard_count] };
        let mut sends: Vec<(usize, String)> = Vec::new();
        for shard in 0..shard_count {
            if self.shards[shard].dead || self.shards[shard].link.is_none() {
                agg.details[shard] = Some(format!("shard {shard}: unreachable (worker failed)"));
            } else {
                let internal = self.next_internal;
                self.next_internal += 1;
                let line = protocol::encode_request(&Request::Stats { id: internal });
                self.pending.insert(
                    internal,
                    Pending {
                        shard,
                        line: line.clone(),
                        kind: PendingKind::Stats { agg: agg_id, shard },
                    },
                );
                agg.remaining += 1;
                sends.push((shard, line));
            }
        }
        self.aggs.insert(agg_id, agg);
        for (shard, line) in sends {
            if let Some(link) = self.shards[shard].link.as_mut() {
                link.push_line(&line);
            }
        }
        self.maybe_finalize_agg(agg_id);
    }

    /// Delivers a finished aggregate to its destination.
    fn maybe_finalize_agg(&mut self, agg_id: u64) {
        let done = self.aggs.get(&agg_id).is_some_and(|agg| agg.remaining == 0);
        if !done {
            return;
        }
        let Some(agg) = self.aggs.remove(&agg_id) else {
            return; // unreachable: `done` proved the entry exists
        };
        let detail: Vec<String> = agg
            .details
            .into_iter()
            .enumerate()
            .map(|(shard, line)| line.unwrap_or_else(|| format!("shard {shard}: no statistics")))
            .collect();
        match agg.target {
            Some((slot, gen, seq, client_id)) => {
                // Client-facing `stats` leads with the daemon's own line so
                // shedding, respawn and failed-shard state are observable
                // through `--stats`; the shutdown summary stays per-shard.
                let detail = format!("{}\n{}", self.daemon_stats_line(), detail.join("\n"));
                let response =
                    Response::Stats { id: client_id, shards: self.shards.len() as u64, detail };
                self.complete_client(slot, gen, seq, &protocol::encode_response(&response));
            }
            None => {
                self.final_stats = detail;
                self.finish_collecting();
            }
        }
    }

    /// Reads and dispatches whatever the worker link has; returns `true` on
    /// link failure (EOF or transport error).
    fn link_read(&mut self, shard: usize) -> bool {
        let mut failed = false;
        let mut lines: Vec<String> = Vec::new();
        if let Some(link) = self.shards[shard].link.as_mut() {
            failed =
                chain2l_core::failpoint::fail_io("link.read").and_then(|()| link.fill()).is_err();
            while let Some(frame) = link.decoder.next_frame() {
                if let Ok(line) = frame {
                    lines.push(line);
                }
            }
            if link.read_closed {
                failed = true;
            }
        }
        for line in &lines {
            self.dispatch_link_response(shard, line);
        }
        failed
    }

    fn link_flush(&mut self, shard: usize) -> bool {
        match self.shards[shard].link.as_mut() {
            Some(link) => chain2l_core::failpoint::fail_io("link.write")
                .and_then(|()| link.flush_out())
                .is_err(),
            None => false,
        }
    }

    /// Re-keys one worker response to its origin and delivers it.  Only the
    /// id is read: a solve or error reply is relayed by splicing the client
    /// id into the worker's bytes, and only a `stats` reply, whose detail is
    /// aggregated, is parsed in full.
    fn dispatch_link_response(&mut self, shard: usize, line: &str) {
        let Some((internal, tail)) = protocol::split_response_id(line) else {
            return; // a worker never sends malformed frames; ignore
        };
        let Some(pending) = self.pending.remove(&internal) else {
            return; // stale (answered by a pre-death worker, then replayed)
        };
        self.shards[shard].consecutive_respawns = 0;
        match pending.kind {
            PendingKind::Solve { slot, gen, seq, client_id } => {
                self.solve_inflight -= 1;
                self.complete_client(slot, gen, seq, &protocol::with_response_id(client_id, tail));
            }
            PendingKind::Stats { agg, shard: stats_shard } => {
                if let Some(entry) = self.aggs.get_mut(&agg) {
                    let detail = match protocol::parse_response(line) {
                        Ok(Response::Stats { detail, .. }) => {
                            format!("shard {stats_shard}: {detail}")
                        }
                        other => format!("shard {stats_shard}: unexpected response {other:?}"),
                    };
                    entry.details[stats_shard] = Some(detail);
                    entry.remaining -= 1;
                }
                self.maybe_finalize_agg(agg);
            }
        }
    }

    /// The supervision path: a worker died (or its link broke).  Reap it,
    /// respawn from the same config and replay its inflight requests; after
    /// repeated failures, declare the shard dead and fail what cannot be
    /// replayed.
    fn link_failed(&mut self, shard: usize) {
        if let Some(link) = self.shards[shard].link.take() {
            let _ = self.poll.deregister(&link.stream);
        }
        if matches!(self.phase, Phase::Collecting { .. } | Phase::Flushing) {
            // Workers exit on request during shutdown; no respawn, just
            // resolve whatever this shard still owed.
            self.fail_shard_pending(shard, "worker exited during shutdown");
            return;
        }
        if let Some(mut worker) = self.shards[shard].worker.take() {
            drop(worker.stdin.take());
            let _ = worker.child.kill();
            let _ = worker.child.wait();
        }
        self.shards[shard].consecutive_respawns += 1;
        if self.shards[shard].consecutive_respawns > MAX_CONSECUTIVE_RESPAWNS {
            self.shards[shard].dead = true;
            self.fail_shard_pending(shard, "worker died repeatedly");
            return;
        }
        for _ in 0..MAX_SPAWN_ATTEMPTS {
            let Ok(worker) = spawn_shard(self.config, shard) else {
                continue;
            };
            self.shards[shard].worker = Some(worker);
            if self.connect_link(shard).is_ok() {
                self.respawns += 1;
                self.shards[shard].respawns_total += 1;
                eprintln!(
                    "chain2l serve: shard {shard} worker died; respawned and replaying {} inflight request(s)",
                    self.pending.values().filter(|p| p.shard == shard).count()
                );
                self.replay_shard(shard);
                return;
            }
            if let Some(mut worker) = self.shards[shard].worker.take() {
                drop(worker.stdin.take());
                let _ = worker.child.kill();
                let _ = worker.child.wait();
            }
        }
        self.shards[shard].dead = true;
        self.fail_shard_pending(shard, "worker could not be respawned");
    }

    /// Re-sends every request that was inflight on `shard` when its worker
    /// died, in original submission order (internal ids are monotonic).
    fn replay_shard(&mut self, shard: usize) {
        let mut ids: Vec<u64> =
            self.pending.iter().filter(|(_, p)| p.shard == shard).map(|(id, _)| *id).collect();
        ids.sort_unstable();
        for id in ids {
            let line = self.pending[&id].line.clone();
            if let Some(link) = self.shards[shard].link.as_mut() {
                link.push_line(&line);
            }
        }
    }

    /// Fails every request inflight on a shard that will not answer.
    fn fail_shard_pending(&mut self, shard: usize, why: &str) {
        let ids: Vec<u64> =
            self.pending.iter().filter(|(_, p)| p.shard == shard).map(|(id, _)| *id).collect();
        let mut touched_aggs = Vec::new();
        for id in ids {
            let Some(pending) = self.pending.remove(&id) else { continue };
            match pending.kind {
                PendingKind::Solve { slot, gen, seq, client_id } => {
                    self.solve_inflight -= 1;
                    let response = Response::Error {
                        id: client_id,
                        message: format!("shard {shard} failed: {why}"),
                    };
                    self.complete_client(slot, gen, seq, &protocol::encode_response(&response));
                }
                PendingKind::Stats { agg, shard: stats_shard } => {
                    if let Some(entry) = self.aggs.get_mut(&agg) {
                        entry.details[stats_shard] =
                            Some(format!("shard {stats_shard}: unreachable ({why})"));
                        entry.remaining -= 1;
                    }
                    touched_aggs.push(agg);
                }
            }
        }
        for agg in touched_aggs {
            self.maybe_finalize_agg(agg);
        }
    }

    /// Flushes queued bytes on every peer and closes fully-drained clients.
    fn flush_peers(&mut self) {
        for shard in 0..self.shards.len() {
            let wants = self.shards[shard].link.as_ref().is_some_and(Conn::wants_write);
            if wants && self.link_flush(shard) {
                self.link_failed(shard);
            }
        }
        for index in 0..self.clients.len() {
            let mut drop_it = false;
            if let Some(slot) = self.clients.get_mut(index).and_then(Option::as_mut) {
                let failed = slot.conn.wants_write() && slot.conn.flush_out().is_err();
                let drained = slot.conn.read_closed
                    && slot.conn.inflight() == 0
                    && !slot.conn.wants_write()
                    && slot.conn.decoder.buffered() == 0;
                drop_it = failed || drained;
            }
            if drop_it {
                self.close_client(index);
            }
        }
    }

    /// Drives the shutdown state machine; `true` means the loop is done.
    fn advance_shutdown(&mut self) -> bool {
        match self.phase {
            Phase::Running => false,
            Phase::Draining { deadline } => {
                if self.solve_inflight == 0 || Instant::now() >= deadline {
                    if Instant::now() >= deadline {
                        // Force the issue: whatever is still inflight gets an
                        // error so no sequence window stays blocked.
                        for shard in 0..self.shards.len() {
                            self.fail_shard_pending(shard, "shutdown drain deadline");
                        }
                    }
                    let agg = self.next_agg;
                    self.phase =
                        Phase::Collecting { deadline: Instant::now() + DRAIN_DEADLINE, agg };
                    self.start_stats(None);
                }
                false
            }
            Phase::Collecting { deadline, agg } => {
                if Instant::now() >= deadline && self.aggs.contains_key(&agg) {
                    if let Some(entry) = self.aggs.get_mut(&agg) {
                        entry.remaining = 0;
                    }
                    self.maybe_finalize_agg(agg);
                }
                false
            }
            Phase::Flushing => {
                let Some((slot, gen, _, _)) = self.requester else { return true };
                match self.clients.get(slot).and_then(Option::as_ref) {
                    Some(client) if client.gen == gen => !client.conn.wants_write(),
                    _ => true, // the requester vanished; nothing to flush
                }
            }
        }
    }

    /// Final statistics are in: stop the workers, acknowledge the requester.
    fn finish_collecting(&mut self) {
        for shard in 0..self.shards.len() {
            let internal = self.next_internal;
            self.next_internal += 1;
            let line = protocol::encode_request(&Request::Shutdown { id: internal });
            if let Some(link) = self.shards[shard].link.as_mut() {
                link.push_line(&line);
            }
        }
        self.phase = Phase::Flushing;
        if let Some((slot, gen, seq, id)) = self.requester {
            self.complete_client(
                slot,
                gen,
                seq,
                &protocol::encode_response(&Response::ShuttingDown { id }),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_hosted_forwards_the_cache_cap_to_every_shard() {
        let plain = ServeConfig::self_hosted("127.0.0.1:0", 2, None).unwrap();
        assert_eq!(plain.shard_args, vec!["serve", "--internal-shard"]);
        assert_eq!(plain.window, DEFAULT_WINDOW);
        let capped = ServeConfig::self_hosted("127.0.0.1:0", 2, Some(128)).unwrap();
        assert_eq!(capped.shard_args, vec!["serve", "--internal-shard", "--cache-cap", "128"]);
        assert_eq!(capped.shards, 2);
    }
}
