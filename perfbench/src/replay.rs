//! The traced run's in-process replay.
//!
//! The request lines the daemon served go, in the daemon's order, through
//! the public functions the daemon calls, on in-process engines partitioned
//! like the shards (`stable_hash() % shards`):
//!
//! * parent: frame decode, `parse_request`, `resolve_spec`, fingerprint and
//!   shard choice, `encode_request` of the forwarded frame;
//! * worker: frame decode, `parse_request` twice (admission check, then
//!   `respond`), `resolve_spec`, `Engine::solve`, `encode_response`;
//! * relay: the parent decodes the worker's reply and re-keys it
//!   (`parse_response` + `encode_response`).
//!
//! For every solve the engine did not answer from its cache, the kernel
//! work is timed again on a private arena — `SegmentCalculator::new` and
//! the kernel's `compute`/`extend`/`reconstruct` — against a mirror of each
//! shard engine's retained tables, under a `kernel.replay` span of the same
//! request.

use crate::trace::{SpanId, Trace};
use chain2l_core::{
    kernel_for, snapshot, Algorithm, Engine, EngineStats, KernelState, ScenarioFingerprint,
    SegmentCalculator, ShardIdentity, SnapshotLoadOutcome, TableArena,
};
use chain2l_model::Scenario;
use chain2l_service::frame::FrameDecoder;
use chain2l_service::protocol::{self, Request, Response, SolveResult};
use std::collections::HashMap;
use std::path::Path;
use std::time::Duration;

/// How the engine served a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// From the solution cache.
    Hit,
    /// From retained tables, with no DP work.
    Reused,
    /// By extending retained tables.
    Extended,
    /// By a cold kernel run.
    Cold,
}

/// What the replay learned about one request.
pub struct Replayed {
    /// The request id.
    pub id: u64,
    /// The engine route.
    pub route: Route,
    /// The in-process answer.
    pub result: SolveResult,
    /// Parent-side work: decode, parse, resolve, fingerprint, forward, relay.
    pub parent: Duration,
    /// Worker-side work: decode, parses, resolve, solve, encode.
    pub worker: Duration,
    /// Duration of the `Engine::solve` call.
    pub solve: Duration,
    /// Bytes of the client's request frame and of the reply it gets.
    pub bytes: (usize, usize),
    /// Whether the request's spans were kept in the trace.
    pub spans: bool,
}

/// Work counts of the replayed kernel runs (cold computes plus the deltas
/// of extensions).
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelCounts {
    /// Candidate positions examined.
    pub candidates: u64,
    /// DP table entries finalized.
    pub table_entries: u64,
    /// 4-lane blocks on the vectorized path.
    pub simd_blocks: u64,
    /// 4-lane blocks resolved lane by lane.
    pub scalar_fallbacks: u64,
}

/// One snapshot cycle of every replay engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct SnapshotCycle {
    /// Encoded bytes, summed over shards.
    pub bytes: u64,
    /// `snapshot::encode` time, summed over shards.
    pub encode: Duration,
    /// `snapshot::write_atomic` time, summed over shards.
    pub save: Duration,
    /// `snapshot::load` time into a fresh engine, summed over shards.
    pub load: Duration,
}

/// Span names of the cold compute of each algorithm.
const COMPUTE_SPANS: [&str; 4] = [
    "kernel.compute.adv_star",
    "kernel.compute.admv_star",
    "kernel.compute.admv",
    "kernel.compute.admv_refined",
];

fn algorithm_index(algorithm: Algorithm) -> usize {
    match algorithm {
        Algorithm::SingleLevel => 0,
        Algorithm::TwoLevel => 1,
        Algorithm::TwoLevelPartial => 2,
        Algorithm::TwoLevelPartialRefined => 3,
    }
}

fn route_of(before: &EngineStats, after: &EngineStats) -> Route {
    if after.cache.hits > before.cache.hits {
        Route::Hit
    } else if after.reused > before.reused {
        Route::Reused
    } else if after.extended > before.extended {
        Route::Extended
    } else {
        Route::Cold
    }
}

fn bitwise_prefix(prefix: &[f64], weights: &[f64]) -> bool {
    prefix.len() <= weights.len()
        && prefix.iter().zip(weights).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The tables a shard engine retains for one context, mirrored.
struct Retained {
    weights: Vec<f64>,
    state: KernelState,
}

/// The replay engines, the mirror of their retained tables and the trace.
pub struct Replay {
    /// Every span recorded so far.
    pub trace: Trace,
    /// One engine per shard.
    pub engines: Vec<Engine>,
    /// Per-request results, in replay order.
    pub replayed: Vec<Replayed>,
    /// Kernel work counts.
    pub kernel: KernelCounts,
    retained: HashMap<(usize, String, Algorithm), Retained>,
    arena: TableArena,
    /// Persistent decoders: client connection, worker link, parent link.
    decoders: [FrameDecoder; 3],
    next_internal: u64,
}

impl Replay {
    /// Fresh engines for `shards` shards; spans count from `trace`'s origin.
    pub fn new(shards: usize, trace: Trace) -> Replay {
        Replay {
            trace,
            engines: (0..shards).map(|_| Engine::new()).collect(),
            replayed: Vec::new(),
            kernel: KernelCounts::default(),
            retained: HashMap::new(),
            arena: TableArena::new(),
            decoders: [FrameDecoder::new(), FrameDecoder::new(), FrameDecoder::new()],
            next_internal: 0,
        }
    }

    fn decode(
        &mut self,
        which: usize,
        parent: SpanId,
        id: u64,
        bytes: &[u8],
    ) -> Result<String, String> {
        let span = self.trace.open("frame.decode", Some(parent), id);
        self.decoders[which].push(bytes);
        let frame = self.decoders[which].next_frame();
        self.trace.close(span);
        match frame {
            Some(Ok(line)) => Ok(line),
            other => Err(format!("request {id}: frame did not decode: {other:?}")),
        }
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.trace.open(name, Some(parent), id);
        let out = f();
        self.trace.close(span);
        out
    }

    /// Replays one client request frame (newline included); unless
    /// `keep_spans`, its spans are dropped once its figures are taken.
    pub fn request(&mut self, id: u64, line: &[u8], keep_spans: bool) -> Result<(), String> {
        let shards = self.engines.len() as u64;
        let mark = self.trace.spans().len();
        let root = self.trace.open("replay.request", None, id);

        // Parent: decode, parse, resolve, fingerprint, forward.
        let parent = self.trace.open("parent", Some(root), id);
        let frame = self.decode(0, parent, id, line)?;
        let parsed =
            self.timed("protocol.parse_request", parent, id, || protocol::parse_request(&frame));
        let Ok(Request::Solve { id: client_id, spec }) = parsed else {
            return Err(format!("request {id}: not a solve: {frame}"));
        };
        let resolved =
            self.timed("protocol.resolve_spec", parent, id, || protocol::resolve_spec(&spec));
        let (scenario, algorithm) = resolved.map_err(|e| format!("request {id}: {e}"))?;
        let shard = self.timed("cache.fingerprint", parent, id, || {
            (ScenarioFingerprint::new(&scenario, algorithm).stable_hash() % shards) as usize
        });
        let internal = self.next_internal;
        self.next_internal += 1;
        let forwarded = self.timed("protocol.encode_request", parent, id, || {
            let mut line = protocol::encode_request(&Request::Solve { id: internal, spec });
            line.push('\n');
            line
        });
        self.trace.close(parent);

        // Worker: decode, admission parse, then `respond`.
        let worker = self.trace.open("worker", Some(root), id);
        let frame = self.decode(1, worker, id, forwarded.as_bytes())?;
        let admitted = self.timed("protocol.parse_request", worker, id, || {
            matches!(protocol::parse_request(&frame), Ok(Request::Solve { .. }))
        });
        let parsed =
            self.timed("protocol.parse_request", worker, id, || protocol::parse_request(&frame));
        let (true, Ok(Request::Solve { id: worker_id, spec })) = (admitted, parsed) else {
            return Err(format!("request {id}: worker refused {frame}"));
        };
        let resolved =
            self.timed("protocol.resolve_spec", worker, id, || protocol::resolve_spec(&spec));
        let (scenario, algorithm) = resolved.map_err(|e| format!("request {id}: {e}"))?;
        let engine = &self.engines[shard];
        let before = engine.stats();
        let span = self.trace.open("engine.solve", Some(worker), id);
        let solution = engine.solve(&scenario, algorithm);
        self.trace.close(span);
        let solve = self.trace.duration(span);
        let route = route_of(&before, &engine.stats());
        let reply = self.timed("protocol.encode_response", worker, id, || {
            let result = SolveResult::from_solution(&solution);
            let mut line = protocol::encode_response(&Response::Solve { id: worker_id, result });
            line.push('\n');
            line
        });
        self.trace.close(worker);

        // Parent: decode the worker's reply and re-key it for the client.
        let relay = self.trace.open("relay", Some(root), id);
        let frame = self.decode(2, relay, id, reply.as_bytes())?;
        let rekeyed =
            self.timed("server.rekey", relay, id, || match protocol::parse_response(&frame) {
                Ok(Response::Solve { result, .. }) => Ok((
                    protocol::encode_response(&Response::Solve {
                        id: client_id,
                        result: result.clone(),
                    }),
                    result,
                )),
                other => Err(format!("request {id}: worker reply {other:?}")),
            });
        let (client_line, result) = rekeyed?;
        self.trace.close(relay);
        self.trace.close(root);

        self.kernels(id, shard, &scenario, algorithm, route, solution.expected_makespan)?;
        self.replayed.push(Replayed {
            id,
            route,
            result,
            parent: self.trace.duration(parent) + self.trace.duration(relay),
            worker: self.trace.duration(worker),
            solve,
            bytes: (line.len(), client_line.len() + 1),
            spans: keep_spans,
        });
        if !keep_spans {
            self.trace.truncate(mark);
        }
        Ok(())
    }

    /// Re-runs the kernel work of a non-hit route on the mirror, checking
    /// that the mirror reproduces the engine's makespan bit for bit.
    fn kernels(
        &mut self,
        id: u64,
        shard: usize,
        scenario: &Scenario,
        algorithm: Algorithm,
        route: Route,
        makespan: f64,
    ) -> Result<(), String> {
        if route == Route::Hit {
            return Ok(());
        }
        let kernel = kernel_for(algorithm);
        let n = scenario.task_count();
        let weights = scenario.chain.weights();
        let key = (shard, scenario.platform.name.clone(), algorithm);
        let t = &mut self.trace;
        let root = t.open("kernel.replay", None, id);
        let span = t.open("segment.new", Some(root), id);
        let calc = SegmentCalculator::new(scenario);
        t.close(span);
        let mut cold_state = None;
        let state: &KernelState = match route {
            Route::Hit => unreachable!("hits returned above"),
            Route::Reused => {
                let ctx =
                    self.retained.get(&key).ok_or(format!("request {id}: reuse, no mirror"))?;
                &ctx.state
            }
            Route::Extended => {
                let ctx = self
                    .retained
                    .get_mut(&key)
                    .ok_or(format!("request {id}: extend, no mirror"))?;
                let before = ctx.state.statistics();
                let span = t.open("kernel.extend", Some(root), id);
                kernel.extend(&calc, &mut ctx.state, ctx.weights.len(), n, &self.arena);
                t.close(span);
                let after = ctx.state.statistics();
                self.kernel.candidates += after.candidates_examined - before.candidates_examined;
                self.kernel.table_entries += (after.table_entries - before.table_entries) as u64;
                self.kernel.simd_blocks += after.simd_blocks - before.simd_blocks;
                self.kernel.scalar_fallbacks += after.scalar_fallbacks - before.scalar_fallbacks;
                ctx.weights = weights.to_vec();
                &ctx.state
            }
            Route::Cold => {
                let span = t.open(COMPUTE_SPANS[algorithm_index(algorithm)], Some(root), id);
                let computed = cold_state.insert(kernel.compute(&calc, n, &self.arena));
                t.close(span);
                let stats = computed.statistics();
                self.kernel.candidates += stats.candidates_examined;
                self.kernel.table_entries += stats.table_entries as u64;
                self.kernel.simd_blocks += stats.simd_blocks;
                self.kernel.scalar_fallbacks += stats.scalar_fallbacks;
                computed
            }
        };
        let span = t.open("kernel.reconstruct", Some(root), id);
        let schedule = kernel.reconstruct(&calc, state, n);
        t.close(span);
        t.close(root);
        std::hint::black_box(schedule);
        if state.expected_makespan(n).to_bits() != makespan.to_bits() {
            return Err(format!("request {id}: kernel mirror diverged from the engine"));
        }
        if let Some(state) = cold_state {
            // Mirror the engine's install rule: retain cold tables only when
            // they seed the context or extend the retained chain.
            let install =
                self.retained.get(&key).is_none_or(|ctx| bitwise_prefix(&ctx.weights, weights));
            if install {
                let fresh = Retained { weights: weights.to_vec(), state };
                if let Some(old) = self.retained.insert(key, fresh) {
                    old.state.recycle(&self.arena);
                }
            } else {
                state.recycle(&self.arena);
            }
        }
        Ok(())
    }

    /// Snapshots every engine (`encode`, `write_atomic`), loads each
    /// snapshot into a fresh engine and, when `restart` is set, carries on
    /// with the loaded engines — the replay's image of a daemon restart.
    pub fn snapshot_cycle(&mut self, dir: &Path, restart: bool) -> Result<SnapshotCycle, String> {
        let mut cycle = SnapshotCycle::default();
        let count = self.engines.len() as u32;
        for (index, engine) in self.engines.iter_mut().enumerate() {
            let identity = ShardIdentity::new(index as u32, count);
            let path = dir.join(format!("replay-shard-{index}-of-{count}.snap"));
            let span = self.trace.open("snapshot.encode", None, 0);
            let bytes = snapshot::encode(engine, identity);
            self.trace.close(span);
            cycle.encode += self.trace.duration(span);
            let span = self.trace.open("snapshot.save", None, 0);
            let saved = snapshot::write_atomic(&path, &bytes);
            self.trace.close(span);
            cycle.save += self.trace.duration(span);
            cycle.bytes += saved.map_err(|e| format!("{}: {e}", path.display()))?;
            let fresh = Engine::new();
            let span = self.trace.open("snapshot.load", None, 0);
            let report = snapshot::load(&fresh, &path, identity);
            self.trace.close(span);
            cycle.load += self.trace.duration(span);
            let _ = std::fs::remove_file(&path);
            if report.outcome != SnapshotLoadOutcome::Loaded {
                return Err(format!("replay snapshot did not load: {}", report.detail));
            }
            if restart {
                *engine = fresh;
            }
        }
        Ok(cycle)
    }
}
