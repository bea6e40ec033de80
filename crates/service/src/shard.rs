//! The shard worker process: one [`Engine`] per process, serving NDJSON
//! requests over a loopback TCP socket through a non-blocking readiness
//! loop.
//!
//! A worker binds an ephemeral `127.0.0.1` port, announces it to the parent
//! daemon with one [`protocol::encode_hello`] line on stdout, and then
//! multiplexes every connection on a single [`mio_lite::Poll`] loop.  Frames
//! are decoded as they arrive (partial frames tolerated) and each is parsed
//! **once**, on the loop.  Whatever can be answered without running a solve
//! is answered right there: control frames (`ping` / `stats` / malformed
//! input), invalid specs, and **cache hits** — a settled
//! [`Engine::cached`] lookup never blocks, never allocates and counts the
//! same hit a solve would.  Only a cache miss becomes a `Job` (carrying
//! the already-resolved scenario) for a small solver-thread pool sharing the
//! process's engine, whose cache and retained DP tables are this shard's
//! disjoint slice of the solving contexts: the parent only routes a solve
//! here when `stable_hash() % shards` of its context (rates, costs,
//! algorithm) says so, so every length of one chain meets the tables it
//! extends.  Finished solves re-enter the loop through a `UnixStream::pair`
//! waker.
//!
//! Answers complete **out of order** — a hit completes at once, a miss when
//! its solve finishes — but each connection releases its responses in
//! request order through the [`crate::frame::Conn`] sequence window, so a
//! hit queued behind a pending miss waits for it, and a worker's response
//! stream is a deterministic function of its request stream regardless of
//! solver-thread timing.
//!
//! Lifecycle: the worker exits when it receives a `shutdown` frame (sent by
//! the parent during graceful shutdown, acknowledged and flushed first)
//! **or** when its stdin reaches EOF — the parent holds the write end of
//! that pipe, so even a `kill -9`'d parent takes its orphans down with it.

// lint: allow-file(panic-expect: a poisoned jobs/done lock or condvar means a solver thread already panicked; propagating tears the worker down, which the parent daemon detects and reroutes)

use crate::frame::{Conn, FrameError};
use crate::persist::Persister;
use crate::protocol::{self, Request, Response, SolveResult};
use chain2l_core::{Algorithm, Engine, EngineLimits, Solution};
use chain2l_model::Scenario;
use mio_lite::{Events, Interest, Poll, Token};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Per-connection inflight window of a worker.  Deliberately generous: the
/// parent daemon multiplexes many clients onto one link and applies the
/// per-client backpressure itself; the worker window only bounds worst-case
/// reorder-buffer memory.
const WORKER_WINDOW: u64 = 4096;

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
const CONN_BASE: usize = 2;

/// How the event loop answers one parsed request.
enum Answer {
    /// Answered on the loop: control frames, invalid specs and settled
    /// cache hits.
    Now(Response),
    /// A solve the cache cannot answer yet, already resolved: it goes to
    /// the solver pool.
    Solve { id: u64, scenario: Scenario, algorithm: Algorithm },
}

/// Answers one parsed request without ever running or waiting for a solve.
fn respond(request: Request, engine: &Engine) -> Answer {
    let response = match request {
        Request::Ping { id } => Response::Pong { id },
        Request::Stats { id } => {
            Response::Stats { id, shards: 1, detail: engine.stats().to_string() }
        }
        Request::Shutdown { id } => Response::ShuttingDown { id },
        // Health is answered by the daemon from its supervision state; a
        // worker reached directly has no shard fleet to report on.
        Request::Health { id } => {
            Response::Error { id, message: "health is a daemon-level op".into() }
        }
        Request::Solve { id, spec } => match protocol::resolve_spec(&spec) {
            Err(message) => Response::Error { id, message },
            Ok((scenario, algorithm)) => match engine.cached(&scenario, algorithm) {
                Some(solution) => solved(id, &solution),
                None => return Answer::Solve { id, scenario, algorithm },
            },
        },
    };
    Answer::Now(response)
}

fn solved(id: u64, solution: &Solution) -> Response {
    Response::Solve { id, result: SolveResult::from_solution(solution) }
}

/// One cache miss handed to the pool; `gen` guards against a connection
/// slot being reused while the solve was in flight.
struct Job {
    slot: usize,
    gen: u64,
    seq: u64,
    id: u64,
    scenario: Scenario,
    algorithm: Algorithm,
}

/// One finished solve travelling back to the event loop.
struct Done {
    slot: usize,
    gen: u64,
    seq: u64,
    line: String,
}

#[derive(Default)]
struct PoolQueue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

/// Number of solver threads: enough to keep pipelined requests from
/// serialising, bounded so the per-solve rayon pools are not oversubscribed.
fn solver_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(1)
}

struct ConnSlot {
    conn: Conn,
    gen: u64,
}

/// Runs a shard worker until shutdown (see the module docs) — this is what
/// `chain2l serve --internal-shard` executes.
///
/// The worker's [`Engine`] is bounded by `limits`, which is how
/// `chain2l serve --cache-cap N` bounds every shard's solution cache and
/// retained DP tables.  When a [`Persister`] is given, the worker loads its
/// snapshot before serving, snapshots periodically in the background, and
/// takes a final snapshot on every exit path (graceful shutdown and parent
/// death alike).
pub fn run_shard(limits: EngineLimits, persister: Option<Arc<Persister>>) -> std::io::Result<()> {
    // Workers inherit the daemon's failpoint schedule through the
    // environment (`spawn_shard` forwards `--failpoints`); each worker
    // process arms its own independent per-site streams.
    chain2l_core::failpoint::configure_from_env()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    listener.set_nonblocking(true)?;
    let port = listener.local_addr()?.port();
    {
        let mut out = std::io::stdout().lock();
        writeln!(out, "{}", protocol::encode_hello(port))?;
        out.flush()?;
    }
    let engine = Arc::new(Engine::with_limits(limits));
    if let Some(persister) = &persister {
        persister.boot_load(&engine);
        persister.spawn_periodic(&engine);
    }
    // Tie this process's lifetime to the parent's: stdin EOF means the
    // parent is gone (it holds the pipe's write end), so exit instead of
    // leaking an orphan listener — after one last snapshot, so even a
    // `kill -9`'d daemon restarts warm with everything its workers learned.
    {
        let engine = Arc::clone(&engine);
        let persister = persister.clone();
        std::thread::spawn(move || {
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin().lock();
            loop {
                match stdin.read(&mut sink) {
                    Ok(0) | Err(_) => {
                        if let Some(persister) = &persister {
                            persister.snapshot_now(&engine);
                        }
                        std::process::exit(0);
                    }
                    Ok(_) => {}
                }
            }
        });
    }
    let queue = Arc::new(PoolQueue::default());
    let done: Arc<Mutex<Vec<Done>>> = Arc::new(Mutex::new(Vec::new()));
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    for _ in 0..solver_threads() {
        let engine = Arc::clone(&engine);
        let queue = Arc::clone(&queue);
        let done = Arc::clone(&done);
        let wake = wake_tx.try_clone()?;
        std::thread::spawn(move || solver_loop(&engine, &queue, &done, &wake));
    }

    let mut poll = Poll::new()?;
    let mut events = Events::with_capacity(64);
    poll.register(&listener, LISTENER, Interest::READABLE)?;
    poll.register(&wake_rx, WAKER, Interest::READABLE)?;

    let mut slots: Vec<Option<ConnSlot>> = Vec::new();
    let mut next_gen: u64 = 0;
    // Set once a shutdown response is queued: (slot, gen) to flush, then exit.
    let mut shutting_down: Option<(usize, u64)> = None;

    loop {
        // Recompute every connection's interest from its window and buffer
        // state (level-triggered readiness: interest *is* the loop's
        // backpressure valve).
        for (index, slot) in slots.iter().enumerate() {
            if let Some(slot) = slot {
                let mut interest = Interest::NONE; // closure is always observed
                if slot.conn.wants_read(WORKER_WINDOW) {
                    interest = interest | Interest::READABLE;
                }
                if slot.conn.wants_write() {
                    interest = interest | Interest::WRITABLE;
                }
                poll.reregister(&slot.conn.stream, Token(CONN_BASE + index), interest)?;
            }
        }
        poll.poll(&mut events, Some(Duration::from_millis(500)))?;
        let fired: Vec<(Token, bool, bool)> =
            events.iter().map(|e| (e.token(), e.is_readable(), e.is_writable())).collect();
        for (token, readable, writable) in fired {
            match token {
                LISTENER => accept_new(&listener, &mut poll, &mut slots, &mut next_gen)?,
                WAKER => {
                    drain_waker(&wake_rx);
                    let finished: Vec<Done> = std::mem::take(&mut *done.lock().expect("done"));
                    for item in finished {
                        if let Some(slot) = slots.get_mut(item.slot).and_then(Option::as_mut) {
                            if slot.gen == item.gen {
                                slot.conn.complete(item.seq, &item.line);
                                // Window space freed: decoded frames may now
                                // be admissible again.
                                pump(slot, item.slot, &engine, &queue, &mut shutting_down);
                            }
                        }
                    }
                }
                Token(t) if t >= CONN_BASE => {
                    let index = t - CONN_BASE;
                    let mut dead = false;
                    if let Some(slot) = slots.get_mut(index).and_then(Option::as_mut) {
                        if readable {
                            dead = slot.conn.fill().is_err();
                        }
                        if !dead {
                            pump(slot, index, &engine, &queue, &mut shutting_down);
                        }
                        if !dead && writable {
                            dead = slot.conn.flush_out().is_err();
                        }
                    }
                    if dead {
                        close_slot(&mut poll, &mut slots, index);
                    }
                }
                _ => {}
            }
        }
        // Opportunistic flush (completions queue bytes outside write events)
        // and closure of fully-drained connections.
        for index in 0..slots.len() {
            let mut drop_it = false;
            if let Some(slot) = slots.get_mut(index).and_then(Option::as_mut) {
                let failed = slot.conn.wants_write() && slot.conn.flush_out().is_err();
                let drained = slot.conn.read_closed
                    && slot.conn.inflight() == 0
                    && !slot.conn.wants_write()
                    && slot.conn.decoder.buffered() == 0;
                drop_it = failed || drained;
            }
            if drop_it {
                close_slot(&mut poll, &mut slots, index);
            }
        }
        if let Some((index, gen)) = shutting_down {
            let flushed = match slots.get(index).and_then(Option::as_ref) {
                Some(slot) => slot.gen != gen || !slot.conn.wants_write(),
                None => true, // the requester vanished; nothing left to flush
            };
            if flushed {
                if let Some(persister) = &persister {
                    persister.snapshot_now(&engine);
                }
                std::process::exit(0);
            }
        }
    }
}

fn accept_new(
    listener: &TcpListener,
    poll: &mut Poll,
    slots: &mut Vec<Option<ConnSlot>>,
    next_gen: &mut u64,
) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn = match Conn::new(stream) {
                    Ok(conn) => conn,
                    Err(_) => continue,
                };
                *next_gen += 1;
                let slot = ConnSlot { conn, gen: *next_gen };
                let index = slots.iter().position(Option::is_none).unwrap_or_else(|| {
                    slots.push(None);
                    slots.len() - 1
                });
                poll.register(&slot.conn.stream, Token(CONN_BASE + index), Interest::READABLE)?;
                // lint: allow(panic-index: `index` is a position hit or `slots.len() - 1` after a push)
                slots[index] = Some(slot);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Ok(()),
        }
    }
}

fn close_slot(poll: &mut Poll, slots: &mut [Option<ConnSlot>], index: usize) {
    if let Some(slot) = slots.get_mut(index).and_then(Option::take) {
        let _ = poll.deregister(&slot.conn.stream);
    }
}

/// Admits decoded frames while the window has room.  Each frame is parsed
/// once; everything [`respond`] can answer completes here, on the event
/// loop (still through the sequence window, so an answer cannot overtake an
/// earlier request on its connection), and cache misses go to the pool.
fn pump(
    slot: &mut ConnSlot,
    index: usize,
    engine: &Engine,
    queue: &PoolQueue,
    shutting_down: &mut Option<(usize, u64)>,
) {
    while slot.conn.inflight() < WORKER_WINDOW {
        let frame = match slot.conn.decoder.next_frame() {
            Some(frame) => frame,
            None => break,
        };
        let seq = slot.conn.accept_seq();
        let response = match frame {
            Err(err) => Response::Error { id: 0, message: frame_error_message(&err) },
            Ok(line) => match protocol::parse_request(&line) {
                Err(e) => {
                    Response::Error { id: protocol::best_effort_id(&line), message: e.to_string() }
                }
                Ok(request) => match respond(request, engine) {
                    Answer::Now(response) => response,
                    Answer::Solve { id, scenario, algorithm } => {
                        let job = Job { slot: index, gen: slot.gen, seq, id, scenario, algorithm };
                        queue.jobs.lock().expect("jobs").push_back(job);
                        queue.ready.notify_one();
                        continue;
                    }
                },
            },
        };
        if matches!(response, Response::ShuttingDown { .. }) {
            *shutting_down = Some((index, slot.gen));
        }
        slot.conn.complete(seq, &protocol::encode_response(&response));
    }
}

pub(crate) fn frame_error_message(err: &FrameError) -> String {
    format!("unreadable frame: {err}")
}

fn solver_loop(engine: &Engine, queue: &PoolQueue, done: &Mutex<Vec<Done>>, wake: &UnixStream) {
    loop {
        let job = {
            let mut jobs = queue.jobs.lock().expect("jobs");
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                jobs = queue.ready.wait(jobs).expect("jobs");
            }
        };
        let finished = solve_job(engine, job);
        done.lock().expect("done").push(finished);
        // A full wake pipe is fine: the loop drains the queue on any byte.
        let mut tx = wake;
        let _ = tx.write(&[1]);
    }
}

/// Solves one queued miss and encodes its response.
fn solve_job(engine: &Engine, job: Job) -> Done {
    let response = solved(job.id, &engine.solve(&job.scenario, job.algorithm));
    Done { slot: job.slot, gen: job.gen, seq: job.seq, line: protocol::encode_response(&response) }
}

fn drain_waker(wake_rx: &UnixStream) {
    let mut sink = [0u8; 256];
    let mut rx = wake_rx;
    while matches!(rx.read(&mut sink), Ok(n) if n > 0) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SolveSpec;
    use chain2l_core::optimize;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    /// A worker-side connection slot and the peer end of its loopback
    /// socket.
    fn loopback() -> (ConnSlot, BufReader<TcpStream>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (ConnSlot { conn: Conn::new(stream).unwrap(), gen: 1 }, BufReader::new(peer))
    }

    fn spec(platform: &str, tasks: usize) -> SolveSpec {
        SolveSpec {
            platform: platform.into(),
            pattern: "decrease".into(),
            tasks,
            weight: 25_000.0,
            algorithm: "admv*".into(),
        }
    }

    fn solve_frame(id: u64, spec: &SolveSpec) -> String {
        protocol::encode_request(&Request::Solve { id, spec: spec.clone() })
    }

    /// Pushes `lines` into the slot's decoder and pumps them.
    fn pump_lines(slot: &mut ConnSlot, engine: &Engine, queue: &PoolQueue, lines: &[String]) {
        for line in lines {
            slot.conn.decoder.push(line.as_bytes());
            slot.conn.decoder.push(b"\n");
        }
        let mut shutting_down = None;
        pump(slot, 0, engine, queue, &mut shutting_down);
        assert_eq!(shutting_down, None);
    }

    /// Flushes every released response and reads `n` of them back.
    fn released(slot: &mut ConnSlot, peer: &mut BufReader<TcpStream>, n: usize) -> Vec<Response> {
        slot.conn.flush_out().unwrap();
        (0..n)
            .map(|_| {
                let mut line = String::new();
                peer.read_line(&mut line).unwrap();
                protocol::parse_response(line.trim_end()).unwrap()
            })
            .collect()
    }

    fn assert_solves(response: &Response, id: u64, spec: &SolveSpec) {
        let (scenario, algorithm) = protocol::resolve_spec(spec).unwrap();
        let direct = optimize(&scenario, algorithm);
        match response {
            Response::Solve { id: got, result } => {
                assert_eq!(*got, id);
                assert_eq!(result.expected_makespan.to_bits(), direct.expected_makespan.to_bits());
                assert_eq!(result.disk, direct.counts.disk_checkpoints as u64);
            }
            other => panic!("expected a solve for id {id}, got {other:?}"),
        }
    }

    #[test]
    fn settled_hits_complete_on_the_event_loop() {
        let engine = Engine::new();
        let queue = PoolQueue::default();
        let (mut slot, mut peer) = loopback();
        let hit = spec("atlas", 9);
        let (scenario, algorithm) = protocol::resolve_spec(&hit).unwrap();
        engine.solve(&scenario, algorithm);
        pump_lines(&mut slot, &engine, &queue, &[solve_frame(11, &hit)]);
        assert!(queue.jobs.lock().unwrap().is_empty(), "a settled hit must not reach the pool");
        assert_eq!(slot.conn.inflight(), 0);
        assert_solves(&released(&mut slot, &mut peer, 1)[0], 11, &hit);
        let stats = engine.stats();
        assert_eq!((stats.cache.hits, stats.cache.misses), (1, 1), "{stats:?}");
    }

    #[test]
    fn a_miss_enqueues_one_resolved_job_and_counts_nothing() {
        let engine = Engine::new();
        let queue = PoolQueue::default();
        let (mut slot, _peer) = loopback();
        let miss = spec("hera", 7);
        let fresh = engine.stats();
        pump_lines(&mut slot, &engine, &queue, &[solve_frame(5, &miss)]);
        let jobs = queue.jobs.lock().unwrap();
        assert_eq!(jobs.len(), 1);
        let job = jobs.front().unwrap();
        let (scenario, algorithm) = protocol::resolve_spec(&miss).unwrap();
        assert_eq!((job.slot, job.gen, job.seq, job.id), (0, 1, 0, 5));
        assert_eq!((&job.scenario, job.algorithm), (&scenario, algorithm));
        assert_eq!(slot.conn.inflight(), 1);
        assert_eq!(engine.stats(), fresh, "nothing may be counted or solved");
    }

    #[test]
    fn a_hit_behind_a_pending_miss_waits_for_it() {
        let engine = Engine::new();
        let queue = PoolQueue::default();
        let (mut slot, mut peer) = loopback();
        let (miss, hit) = (spec("hera", 7), spec("atlas", 9));
        let (scenario, algorithm) = protocol::resolve_spec(&hit).unwrap();
        engine.solve(&scenario, algorithm);
        pump_lines(&mut slot, &engine, &queue, &[solve_frame(1, &miss), solve_frame(2, &hit)]);
        assert_eq!(slot.conn.inflight(), 2, "the hit is answered but held");
        assert!(!slot.conn.wants_write(), "nothing may be released before the miss");
        let job = queue.jobs.lock().unwrap().pop_front().expect("the miss");
        let done = solve_job(&engine, job);
        slot.conn.complete(done.seq, &done.line);
        let responses = released(&mut slot, &mut peer, 2);
        assert_solves(&responses[0], 1, &miss);
        assert_solves(&responses[1], 2, &hit);
        assert_eq!(slot.conn.inflight(), 0);
    }

    #[test]
    fn control_frames_invalid_specs_and_malformed_lines_are_answered_inline() {
        let engine = Engine::new();
        let queue = PoolQueue::default();
        let (mut slot, mut peer) = loopback();
        let lines = [
            protocol::encode_request(&Request::Ping { id: 7 }),
            protocol::encode_request(&Request::Stats { id: 8 }),
            protocol::encode_request(&Request::Health { id: 9 }),
            solve_frame(3, &spec("titan", 9)),
            solve_frame(4, &spec("atlas", 0)),
            "garbage".to_string(),
            "{\"v\":9,\"id\":1,\"op\":\"ping\"}".to_string(),
            "{\"v\":2,\"id\":2}".to_string(),
        ];
        pump_lines(&mut slot, &engine, &queue, &lines);
        assert!(queue.jobs.lock().unwrap().is_empty());
        let responses = released(&mut slot, &mut peer, lines.len());
        assert!(matches!(responses[0], Response::Pong { id: 7 }));
        assert!(matches!(&responses[1], Response::Stats { id: 8, shards: 1, .. }));
        let error_ids: Vec<u64> = responses[2..]
            .iter()
            .map(|response| match response {
                Response::Error { id, .. } => *id,
                other => panic!("expected ok:false, got {other:?}"),
            })
            .collect();
        assert_eq!(error_ids, [9, 3, 4, 0, 1, 2]);
        let mut shutting_down = None;
        slot.conn.decoder.push(b"{\"v\":2,\"id\":10,\"op\":\"shutdown\"}\n");
        pump(&mut slot, 0, &engine, &queue, &mut shutting_down);
        assert_eq!(shutting_down, Some((0, 1)));
        assert!(matches!(released(&mut slot, &mut peer, 1)[0], Response::ShuttingDown { id: 10 }));
    }
}
