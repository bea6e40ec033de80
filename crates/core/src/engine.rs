//! The strategy-routing solver engine: one front door for every dynamic
//! program in this crate.
//!
//! [`Engine`] composes the direct kernels ([`crate::optimize`]), the
//! memoizing [`SolutionCache`] and the retained DP tables of each solving
//! context: each solve is routed through the **cheapest sound strategy**, in
//! order:
//!
//! 1. **cache hit** — the `(scenario, algorithm)` fingerprint was solved
//!    before; the cached [`Solution`] is returned without touching a kernel;
//! 2. **prefix reuse** — the context's retained tables already cover the
//!    scenario (its weight vector is a bitwise prefix of the solved one);
//!    only the argmin walk runs;
//! 3. **incremental extension** — the scenario bitwise-extends the retained
//!    tables; only the new columns and disk-segment slices are computed.
//!    Every recurrence is *prefix-local* (entries with boundary indices
//!    `≤ m` depend only on `w_1..w_m`), so the extended tables equal a cold
//!    fill at the larger size, [`DpStatistics`] included;
//! 4. **pruned kernel** — a cold solve with candidate pruning active;
//! 5. **exhaustive fallback** — a cold solve with the exhaustive scans, used
//!    when pruning was disabled or the cost model defeats the soundness
//!    guard ([`SegmentCalculator::pruning_sound`]).
//!
//! Every strategy is bit-identical to a cold pruned solve of the same
//! scenario (enforced by `tests/kernel_equivalence.rs`), so routing can never
//! change results — only the amount of work, which the per-strategy counters
//! in [`EngineStats`] make observable.
//!
//! The four §III algorithms are expressed as two [`Kernel`] implementations
//! ([`TwoLevelKernel`] with and without interior memory checkpoints,
//! [`PartialKernel`] with either tail accounting); [`kernel_for`] maps an
//! [`Algorithm`] onto its static instance.  A future kernel only has to
//! implement the trait's cold-fill / extend / reconstruct triple to
//! participate in all five strategies.
//!
//! Locking discipline: cold solves never hold a context lock (concurrent
//! same-context requests with no prefix relation run fully parallel), and
//! the reuse/extension check uses `try_lock` — under contention the engine
//! conservatively falls back to a cold solve instead of queueing behind a
//! long extension.  See DESIGN.md §6.

use crate::arena::{ArenaStats, TableArena};
use crate::cache::{CacheLimits, CacheStats, ContextKey, SolutionCache, SolveRequest};
use crate::dp::DpTables;
use crate::lru::LruList;
use crate::segment::{PartialCostModel, SegmentCalculator};
use crate::snapshot::{SnapshotLoadOutcome, SnapshotStats};
use crate::solution::{DpStatistics, Solution};
use crate::two_level::TwoLevelOptions;
use crate::{partial, two_level, Algorithm, PartialOptions};
use chain2l_model::{Scenario, Schedule};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Opaque finished DP state of one [`Kernel`] run: the tables a kernel
/// cold-fills, extends across chain growth and reconstructs schedules from.
pub struct KernelState {
    pub(crate) tables: DpTables,
}

impl KernelState {
    /// The optimal expected makespan recorded for an `n`-task chain
    /// (`n` at most the size the tables were filled for).
    pub fn expected_makespan(&self, n: usize) -> f64 {
        self.tables.edisk[n]
    }

    /// Honest statistics of the backing tables: finalized (actually written)
    /// entries, cumulative candidates examined and blocked-scan tallies.
    pub fn statistics(&self) -> DpStatistics {
        DpStatistics {
            table_entries: self.tables.finalized_entries(),
            candidates_examined: self.tables.candidates,
            simd_blocks: self.tables.scan.simd_blocks,
            scalar_fallbacks: self.tables.scan.scalar_fallbacks,
        }
    }

    /// Retires the state, returning every table buffer to `arena` for the
    /// next solve to reuse.
    pub fn recycle(self, arena: &TableArena) {
        self.tables.recycle(arena);
    }
}

/// One dynamic-programming kernel: the cold-fill / extend / reconstruct
/// triple every solve strategy of the [`Engine`] is built from.
///
/// Implementations must be deterministic pure functions of the
/// [`SegmentCalculator`]'s scenario: `extend` on a bitwise-unchanged weight
/// prefix must produce tables bit-identical to `compute` at the larger size,
/// and `reconstruct` must not mutate state — that is what makes all routing
/// strategies interchangeable.
pub trait Kernel: Send + Sync {
    /// The algorithm label this kernel implements (matches
    /// [`Algorithm::label`]).
    fn label(&self) -> &'static str;

    /// Whether candidate pruning is active for this scenario — `false` for
    /// the exhaustive reference kernels and when the cost model defeats the
    /// pruning soundness guard.
    fn pruning_active(&self, calc: &SegmentCalculator<'_>) -> bool;

    /// Cold-fills the DP tables for an `n`-task chain, drawing every table
    /// and scratch buffer from `arena`.
    fn compute(&self, calc: &SegmentCalculator<'_>, n: usize, arena: &TableArena) -> KernelState;

    /// Extends finished tables from `old_n` to `new_n` tasks (new slices
    /// drawn from `arena`); requires the task-weight prefix to be bitwise
    /// unchanged.
    fn extend(
        &self,
        calc: &SegmentCalculator<'_>,
        state: &mut KernelState,
        old_n: usize,
        new_n: usize,
        arena: &TableArena,
    );

    /// Walks the argmin tables and reconstructs the optimal schedule for an
    /// `n`-task chain (`n` at most the computed size).
    fn reconstruct(&self, calc: &SegmentCalculator<'_>, state: &KernelState, n: usize) -> Schedule;
}

/// The §III-A guaranteed-verification kernel (`A_DMV*`, and `A_DV*` when
/// interior memory checkpoints are forbidden).
pub struct TwoLevelKernel {
    options: TwoLevelOptions,
}

impl Kernel for TwoLevelKernel {
    fn label(&self) -> &'static str {
        if self.options.allow_interior_memory_checkpoints {
            "ADMV*"
        } else {
            "ADV*"
        }
    }

    fn pruning_active(&self, _calc: &SegmentCalculator<'_>) -> bool {
        self.options.prune
    }

    fn compute(&self, calc: &SegmentCalculator<'_>, n: usize, arena: &TableArena) -> KernelState {
        KernelState { tables: two_level::compute_tables(calc, n, self.options, arena) }
    }

    fn extend(
        &self,
        calc: &SegmentCalculator<'_>,
        state: &mut KernelState,
        old_n: usize,
        new_n: usize,
        arena: &TableArena,
    ) {
        two_level::extend_tables(calc, &mut state.tables, old_n, new_n, self.options, arena);
    }

    fn reconstruct(
        &self,
        _calc: &SegmentCalculator<'_>,
        state: &KernelState,
        n: usize,
    ) -> Schedule {
        two_level::reconstruct(&state.tables, n)
    }
}

/// The §III-B partial-verification kernel (`A_DMV`, either tail accounting).
pub struct PartialKernel {
    options: PartialOptions,
}

impl Kernel for PartialKernel {
    fn label(&self) -> &'static str {
        match self.options.cost_model {
            PartialCostModel::PaperExact => "ADMV",
            PartialCostModel::Refined => "ADMV(refined)",
        }
    }

    fn pruning_active(&self, calc: &SegmentCalculator<'_>) -> bool {
        self.options.prune && calc.pruning_sound()
    }

    fn compute(&self, calc: &SegmentCalculator<'_>, n: usize, arena: &TableArena) -> KernelState {
        KernelState { tables: partial::compute_tables(calc, n, self.options, arena) }
    }

    fn extend(
        &self,
        calc: &SegmentCalculator<'_>,
        state: &mut KernelState,
        old_n: usize,
        new_n: usize,
        arena: &TableArena,
    ) {
        partial::extend_tables(calc, &mut state.tables, old_n, new_n, self.options, arena);
    }

    fn reconstruct(&self, calc: &SegmentCalculator<'_>, state: &KernelState, n: usize) -> Schedule {
        partial::reconstruct(calc, &state.tables, n, self.options)
    }
}

static SINGLE_LEVEL: TwoLevelKernel = TwoLevelKernel {
    options: TwoLevelOptions { allow_interior_memory_checkpoints: false, prune: true },
};
static TWO_LEVEL: TwoLevelKernel = TwoLevelKernel {
    options: TwoLevelOptions { allow_interior_memory_checkpoints: true, prune: true },
};
static PARTIAL_PAPER: PartialKernel = PartialKernel {
    options: PartialOptions { cost_model: PartialCostModel::PaperExact, prune: true },
};
static PARTIAL_REFINED: PartialKernel = PartialKernel {
    options: PartialOptions { cost_model: PartialCostModel::Refined, prune: true },
};

/// The static [`Kernel`] instance implementing `algorithm`.
pub fn kernel_for(algorithm: Algorithm) -> &'static dyn Kernel {
    match algorithm {
        Algorithm::SingleLevel => &SINGLE_LEVEL,
        Algorithm::TwoLevel => &TWO_LEVEL,
        Algorithm::TwoLevelPartial => &PARTIAL_PAPER,
        Algorithm::TwoLevelPartialRefined => &PARTIAL_REFINED,
    }
}

/// Assembles a [`Solution`] from a kernel's finished state.
fn assemble(
    kernel: &dyn Kernel,
    calc: &SegmentCalculator<'_>,
    state: &KernelState,
    n: usize,
    scenario: &Scenario,
) -> Solution {
    let schedule = kernel.reconstruct(calc, state, n);
    Solution::new(state.expected_makespan(n), schedule, scenario, state.statistics())
}

/// True when `prefix` is a bitwise prefix of `weights` (`f64` bit patterns,
/// so `-0.0 ≠ 0.0` and equal-looking but differently-rounded weights do not
/// alias — exactly the equality the DP tables require).
fn bitwise_prefix(prefix: &[f64], weights: &[f64]) -> bool {
    prefix.len() <= weights.len()
        && prefix.iter().zip(weights).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The tables retained for one context: the weights of the largest chain
/// solved and the kernel state at that size.
struct EngineContext {
    weights: Vec<f64>,
    state: KernelState,
}

/// One retained context captured for (or restored from) a snapshot: the
/// context key, the solved weight vector and an owned, bit-exact copy of
/// its DP tables.
pub(crate) struct ContextExport {
    pub(crate) key: ContextKey,
    pub(crate) weights: Vec<f64>,
    pub(crate) tables: DpTables,
}

/// One retained-context slot plus its recency-list node.
struct ContextSlot {
    slot: Arc<Mutex<Option<EngineContext>>>,
    lru_id: usize,
}

/// The engine's context store: the map plus an intrusive recency list
/// ([`LruList`]), `lru_keys[lru_id]` mapping a list node back to its map
/// key so tail eviction needs no full-store scan.
#[derive(Default)]
struct ContextStore {
    map: HashMap<ContextKey, ContextSlot>,
    lru: LruList,
    /// Map key of each recency node, indexed by node id (slab-stable).
    lru_keys: Vec<ContextKey>,
}

/// Resource bounds of one [`Engine`] (all unbounded by default).
///
/// `cache_entries`/`cache_bytes` bound the memoizing [`SolutionCache`]
/// (least-recently-used entries are evicted first, see [`CacheLimits`]);
/// `contexts` bounds the number of retained DP table sets — evicted
/// contexts return their buffers to the engine's arena, so a bounded
/// daemon's memory stays proportional to its caps, not its request history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineLimits {
    /// Maximum number of cached solutions (`None` = unbounded).
    pub cache_entries: Option<usize>,
    /// Approximate byte budget of the cached solutions (`None` = unbounded).
    pub cache_bytes: Option<usize>,
    /// Maximum number of contexts retaining DP tables (`None` = unbounded).
    pub contexts: Option<usize>,
}

impl EngineLimits {
    /// The `--cache-cap N` convenience: at most `cap` cached solutions and
    /// `cap` retained table contexts, no byte budget.
    pub fn entry_cap(cap: usize) -> Self {
        Self { cache_entries: Some(cap), cache_bytes: None, contexts: Some(cap) }
    }
}

/// Per-strategy routing counters plus the embedded cache statistics — the
/// "extended `CacheStats`" the engine reports (see the module docs for the
/// strategy order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Hit/miss/entry statistics of the memoization layer.  `cache.misses`
    /// equals the sum of the four routing counters below.
    pub cache: CacheStats,
    /// Misses served from retained tables with no DP work (prefix reuse).
    pub reused: u64,
    /// Misses served by extending retained tables to a larger `n`.
    pub extended: u64,
    /// Cold solves with candidate pruning active.
    pub cold_pruned: u64,
    /// Cold solves on the exhaustive scans (pruning disabled or unsound for
    /// the cost model).
    pub cold_exhaustive: u64,
    /// Checkout/return counters of the engine's table arena.
    pub arena: ArenaStats,
    /// Contexts currently retaining DP tables.
    pub contexts: usize,
    /// Retained contexts evicted by the `contexts` limit.
    pub context_evictions: u64,
    /// Warm-start persistence counters (snapshots written, last size and
    /// duration, boot-load outcome).
    pub snapshot: SnapshotStats,
}

impl EngineStats {
    /// Total solves routed past the cache (the engine's miss count).
    pub fn routed(&self) -> u64 {
        self.reused + self.extended + self.cold_pruned + self.cold_exhaustive
    }

    /// Total cold solves (either kernel flavour).
    pub fn cold(&self) -> u64 {
        self.cold_pruned + self.cold_exhaustive
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}; routes: {} reused, {} extended, {} cold (pruned), {} cold (exhaustive); \
             arena: {}; contexts: {} retained ({} evicted); snapshots: {}",
            self.cache,
            self.reused,
            self.extended,
            self.cold_pruned,
            self.cold_exhaustive,
            self.arena,
            self.contexts,
            self.context_evictions,
            self.snapshot
        )
    }
}

/// The strategy-routing solver engine (see the module documentation).
///
/// Share one engine across figure panels, sweeps, batches and service
/// shards: `&Engine` is all the API needs, and every strategy is
/// bit-identical, so sharing can only skip work, never change results.
///
/// # Examples
///
/// ```
/// use chain2l_core::{optimize, Algorithm, Engine};
/// use chain2l_model::platform::scr;
/// use chain2l_model::{ResilienceCosts, Scenario, TaskChain};
///
/// let platform = scr::hera();
/// let costs = ResilienceCosts::paper_defaults(&platform);
/// let weak = |n: usize| {
///     Scenario::new(TaskChain::from_weights(vec![500.0; n]).unwrap(), platform.clone(), costs)
///         .unwrap()
/// };
/// let engine = Engine::new();
/// engine.solve(&weak(10), Algorithm::TwoLevel); // cold
/// engine.solve(&weak(25), Algorithm::TwoLevel); // extends 10 → 25
/// let again = engine.solve(&weak(25), Algorithm::TwoLevel); // cache hit
/// assert_eq!(
///     again.expected_makespan.to_bits(),
///     optimize(&weak(25), Algorithm::TwoLevel).expected_makespan.to_bits()
/// );
/// let stats = engine.stats();
/// assert_eq!((stats.cold(), stats.extended, stats.cache.hits), (1, 1, 1));
/// ```
#[derive(Default)]
pub struct Engine {
    cache: SolutionCache,
    contexts: Mutex<ContextStore>,
    arena: TableArena,
    limits: EngineLimits,
    reused: AtomicU64,
    extended: AtomicU64,
    cold_pruned: AtomicU64,
    cold_exhaustive: AtomicU64,
    context_evictions: AtomicU64,
    snapshots_written: AtomicU64,
    snapshot_last_bytes: AtomicU64,
    snapshot_last_micros: AtomicU64,
    snapshot_load: Mutex<SnapshotLoadOutcome>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Resolve the count before the builder chain: a guard temporary held
        // across `self.stats()` (which locks the context map itself) would
        // self-deadlock.
        let contexts = self.context_count();
        f.debug_struct("Engine").field("contexts", &contexts).field("stats", &self.stats()).finish()
    }
}

impl Engine {
    /// Creates an unbounded engine with an empty cache and no retained
    /// tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine whose solution cache and retained-context store are
    /// bounded by `limits` (least-recently-used entries evicted first).
    pub fn with_limits(limits: EngineLimits) -> Self {
        Self {
            cache: SolutionCache::with_limits(CacheLimits {
                max_entries: limits.cache_entries,
                max_bytes: limits.cache_bytes,
            }),
            limits,
            ..Self::default()
        }
    }

    /// Solves `(scenario, algorithm)` through the cheapest sound strategy.
    ///
    /// The expected makespan and schedule are bit-identical to
    /// [`crate::optimize`] on the same inputs, whichever strategy serves the
    /// request; concurrent callers with the same fingerprint block on the
    /// single in-flight solve instead of duplicating it.
    pub fn solve(&self, scenario: &Scenario, algorithm: Algorithm) -> Arc<Solution> {
        self.cache.solve_with(scenario, algorithm, || self.route(scenario, algorithm))
    }

    /// The settled cached solution for `(scenario, algorithm)`, without ever
    /// solving, blocking or allocating — `None` when the fingerprint is not
    /// cached or its solve is still in flight (see [`SolutionCache::cached`]).
    ///
    /// A `Some` counts as one cache hit, exactly as the same request through
    /// [`Self::solve`] would; a `None` counts nothing, so following it with
    /// [`Self::solve`] leaves every counter where [`Self::solve`] alone
    /// would have.  This is how a service answers hits without handing them
    /// to a solver thread.
    pub fn cached(&self, scenario: &Scenario, algorithm: Algorithm) -> Option<Arc<Solution>> {
        self.cache.cached(scenario, algorithm)
    }

    /// Solves every request and returns the solutions **in request order**,
    /// running the misses concurrently on the work-stealing pool.
    pub fn solve_batch(&self, requests: &[SolveRequest]) -> Vec<Arc<Solution>> {
        let mut results: Vec<Option<Arc<Solution>>> = requests.iter().map(|_| None).collect();
        rayon::scope(|s| {
            for (slot, request) in results.iter_mut().zip(requests) {
                s.spawn(move |_| *slot = Some(self.solve(&request.scenario, request.algorithm)));
            }
        });
        results.into_iter().map(|r| r.expect("scope joined all solves")).collect()
    }

    /// Routes one cache miss: prefix reuse → incremental extension → cold
    /// kernel (pruned or exhaustive).
    fn route(&self, scenario: &Scenario, algorithm: Algorithm) -> Solution {
        let kernel = kernel_for(algorithm);
        let n = scenario.task_count();
        let calc = SegmentCalculator::new(scenario);
        let key = ContextKey::new(scenario, algorithm);
        let slot = {
            let mut store = self.contexts.lock().expect("context map poisoned");
            match store.map.get(&key) {
                Some(entry) => {
                    let (lru_id, slot) = (entry.lru_id, entry.slot.clone());
                    store.lru.touch(lru_id);
                    slot
                }
                None => {
                    let lru_id = store.lru.push_front();
                    if lru_id == store.lru_keys.len() {
                        store.lru_keys.push(key.clone());
                    } else {
                        store.lru_keys[lru_id] = key.clone();
                    }
                    let slot: Arc<Mutex<Option<EngineContext>>> = Arc::default();
                    store.map.insert(key, ContextSlot { slot: slot.clone(), lru_id });
                    slot
                }
            }
        };

        // Reuse/extension check under `try_lock`: if another request of this
        // context is mid-extension, fall through to a parallel cold solve
        // rather than queueing (the results are bit-identical either way).
        if let Ok(mut guard) = slot.try_lock() {
            if let Some(ctx) = guard.as_mut() {
                if bitwise_prefix(scenario.chain.weights(), &ctx.weights) {
                    self.reused.fetch_add(1, Ordering::Relaxed);
                    return assemble(kernel, &calc, &ctx.state, n, scenario);
                }
                if bitwise_prefix(&ctx.weights, scenario.chain.weights()) {
                    let old_n = ctx.weights.len();
                    kernel.extend(&calc, &mut ctx.state, old_n, n, &self.arena);
                    ctx.weights = scenario.chain.weights().to_vec();
                    self.extended.fetch_add(1, Ordering::Relaxed);
                    return assemble(kernel, &calc, &ctx.state, n, scenario);
                }
            }
        }

        // Cold solve with no context lock held: same-context scenarios with
        // no prefix relation (e.g. a fixed-total-weight n-sweep) must not
        // serialize behind each other.
        if kernel.pruning_active(&calc) {
            self.cold_pruned.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cold_exhaustive.fetch_add(1, Ordering::Relaxed);
        }
        let state = kernel.compute(&calc, n, &self.arena);
        let solution = assemble(kernel, &calc, &state, n, scenario);

        // Install the finished tables only when they extend (or seed) the
        // retained state — an incompatible chain never evicts tables that
        // future requests could still extend, so a hostile request mix cannot
        // thrash the store.  Tables that are not retained (and any they
        // replace) return their buffers to the arena.
        let mut leftover = Some(state);
        if let Ok(mut guard) = slot.try_lock() {
            let install = match guard.as_ref() {
                None => true,
                Some(ctx) => bitwise_prefix(&ctx.weights, scenario.chain.weights()),
            };
            if install {
                let replaced = guard.replace(EngineContext {
                    weights: scenario.chain.weights().to_vec(),
                    state: leftover.take().expect("state not yet consumed"),
                });
                if let Some(old) = replaced {
                    old.state.recycle(&self.arena);
                }
            }
        }
        if let Some(state) = leftover {
            state.recycle(&self.arena);
        }
        self.enforce_context_cap();
        solution
    }

    /// Evicts least-recently-used retained contexts beyond the `contexts`
    /// limit, returning their table buffers to the arena.  Contexts whose
    /// slot is locked by an in-flight solve are left alone (they will be
    /// reconsidered on the next solve).
    ///
    /// A victim's slot lock is acquired *before* it leaves the map and held
    /// across the removal (the store lock is held throughout, so no solver
    /// can acquire a slot between the probe and the removal): an entry is
    /// only evicted — and only counted — when its tables were actually
    /// reclaimed, never detached mid-extension.
    fn enforce_context_cap(&self) {
        let Some(cap) = self.limits.contexts else {
            return;
        };
        let mut store = self.contexts.lock().expect("context map poisoned");
        if store.map.len() <= cap {
            return;
        }
        // Walk victims least-recently-used first; ids stay valid while the
        // entries they name remain in the map.
        let candidates: Vec<usize> = store.lru.iter_lru().collect();
        for lru_id in candidates {
            if store.map.len() <= cap {
                break;
            }
            let key = store.lru_keys[lru_id].clone();
            // Clone the Arc so the mutex outlives the map entry while the
            // guard is held.
            let slot = store.map.get(&key).expect("candidate key present").slot.clone();
            let locked = slot.try_lock();
            if let Ok(mut guard) = locked {
                store.map.remove(&key);
                store.lru.remove(lru_id);
                if let Some(ctx) = guard.take() {
                    ctx.state.recycle(&self.arena);
                }
                self.context_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The resource bounds this engine was constructed with.
    pub fn limits(&self) -> EngineLimits {
        self.limits
    }

    /// The memoizing solution cache (snapshot capture/restore only).
    pub(crate) fn snapshot_cache(&self) -> &SolutionCache {
        &self.cache
    }

    /// The table arena (snapshot capture/restore draws its buffers here so
    /// repeated snapshot cycles reuse pooled buffers instead of growing the
    /// heap).
    pub(crate) fn snapshot_arena(&self) -> &TableArena {
        &self.arena
    }

    /// Snapshot view of every idle retained context, ordered least- to
    /// most-recently used: the context key, the solved weight vector and a
    /// bit-exact deep copy of the DP tables.
    ///
    /// Each slot is probed with `try_lock` — a context mid-extension is
    /// simply skipped, so capturing can never serialize behind a solve.
    /// The caller owns the table copies and should recycle them into the
    /// engine's arena when done.
    pub(crate) fn export_contexts(&self) -> Vec<ContextExport> {
        // Capture the LRU-ordered keys first, then clone outside the store
        // lock: deep-copying a large table set must not stall the hot path's
        // map access.
        let slots: Vec<(ContextKey, Arc<Mutex<Option<EngineContext>>>)> = {
            let store = self.contexts.lock().expect("context map poisoned");
            store
                .lru
                .iter_lru()
                .filter_map(|lru_id| {
                    let key = store.lru_keys[lru_id].clone();
                    let slot = store.map.get(&key)?.slot.clone();
                    Some((key, slot))
                })
                .collect()
        };
        let mut out = Vec::with_capacity(slots.len());
        for (key, slot) in slots {
            if let Ok(guard) = slot.try_lock() {
                if let Some(ctx) = guard.as_ref() {
                    out.push(ContextExport {
                        key,
                        weights: ctx.weights.clone(),
                        tables: ctx.state.tables.deep_clone_in(&self.arena),
                    });
                }
            }
        }
        out
    }

    /// Re-installs one snapshot-restored context at the most-recently-used
    /// position, returning whether it was installed.  A key that is already
    /// present wins over the import (its tables may be fresher); the
    /// imported tables are then recycled into the arena.  Counts toward the
    /// `contexts` limit, not toward any routing counter.
    pub(crate) fn import_context(&self, export: ContextExport) -> bool {
        let ContextExport { key, weights, tables } = export;
        let slot = {
            let mut store = self.contexts.lock().expect("context map poisoned");
            if store.map.contains_key(&key) {
                None
            } else {
                let lru_id = store.lru.push_front();
                if lru_id == store.lru_keys.len() {
                    store.lru_keys.push(key.clone());
                } else {
                    store.lru_keys[lru_id] = key.clone();
                }
                let slot: Arc<Mutex<Option<EngineContext>>> = Arc::default();
                store.map.insert(key, ContextSlot { slot: slot.clone(), lru_id });
                Some(slot)
            }
        };
        match slot {
            Some(slot) => {
                if let Ok(mut guard) = slot.try_lock() {
                    *guard = Some(EngineContext { weights, state: KernelState { tables } });
                }
                self.enforce_context_cap();
                true
            }
            None => {
                tables.recycle(&self.arena);
                false
            }
        }
    }

    /// Records one finished snapshot write (its encoded size and wall-clock
    /// duration, measured by the caller — the persistence layer owns the
    /// clock; this crate stays time-free).
    pub fn note_snapshot_written(&self, bytes: u64, micros: u64) {
        self.snapshots_written.fetch_add(1, Ordering::Relaxed);
        self.snapshot_last_bytes.store(bytes, Ordering::Relaxed);
        self.snapshot_last_micros.store(micros, Ordering::Relaxed);
    }

    /// Records the outcome of the boot-time snapshot load.
    pub fn note_snapshot_load(&self, outcome: SnapshotLoadOutcome) {
        *self.snapshot_load.lock().expect("snapshot outcome poisoned") = outcome;
    }

    /// Cache and per-strategy routing statistics accumulated since
    /// construction.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            cache: self.cache.stats(),
            reused: self.reused.load(Ordering::Relaxed),
            extended: self.extended.load(Ordering::Relaxed),
            cold_pruned: self.cold_pruned.load(Ordering::Relaxed),
            cold_exhaustive: self.cold_exhaustive.load(Ordering::Relaxed),
            arena: self.arena.stats(),
            contexts: self.context_count(),
            context_evictions: self.context_evictions.load(Ordering::Relaxed),
            snapshot: SnapshotStats {
                written: self.snapshots_written.load(Ordering::Relaxed),
                last_bytes: self.snapshot_last_bytes.load(Ordering::Relaxed),
                last_write_micros: self.snapshot_last_micros.load(Ordering::Relaxed),
                load: *self.snapshot_load.lock().expect("snapshot outcome poisoned"),
            },
        }
    }

    /// Checkout/return counters of the engine's table arena.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Number of contexts currently retaining tables.
    pub fn context_count(&self) -> usize {
        self.contexts.lock().expect("context map poisoned").map.len()
    }

    /// Drops every cached solution and retained table set (the counters keep
    /// accumulating; retained tables return their buffers to the arena).
    ///
    /// Walks the LRU list rather than draining the hash map: recycle order
    /// is then stable run-to-run, so the arena pool's bucket state — and
    /// every stats snapshot derived from it — stays deterministic.
    pub fn clear(&self) {
        self.cache.clear();
        let mut store = self.contexts.lock().expect("context map poisoned");
        let victims: Vec<usize> = store.lru.iter_lru().collect();
        for lru_id in victims {
            let key = store.lru_keys[lru_id].clone();
            if let Some(entry) = store.map.remove(&key) {
                store.lru.remove(lru_id);
                if let Ok(mut guard) = entry.slot.try_lock() {
                    if let Some(ctx) = guard.take() {
                        ctx.state.recycle(&self.arena);
                    }
                }
            }
        }
        store.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize;
    use chain2l_model::platform::scr;
    use chain2l_model::{ResilienceCosts, Scenario, TaskChain, WeightPattern};

    fn weak_scaling(n: usize, w: f64) -> Scenario {
        let platform = scr::hera();
        let costs = ResilienceCosts::paper_defaults(&platform);
        Scenario::new(TaskChain::from_weights(vec![w; n]).unwrap(), platform, costs).unwrap()
    }

    fn paper(n: usize) -> Scenario {
        Scenario::paper_setup(&scr::hera(), &WeightPattern::Uniform, n, 25_000.0).unwrap()
    }

    #[test]
    fn kernel_labels_match_algorithms() {
        for a in [
            Algorithm::SingleLevel,
            Algorithm::TwoLevel,
            Algorithm::TwoLevelPartial,
            Algorithm::TwoLevelPartialRefined,
        ] {
            assert_eq!(kernel_for(a).label(), a.label());
        }
    }

    #[test]
    fn kernel_compute_matches_optimize_for_every_algorithm() {
        let s = paper(10);
        let calc = SegmentCalculator::new(&s);
        for a in [
            Algorithm::SingleLevel,
            Algorithm::TwoLevel,
            Algorithm::TwoLevelPartial,
            Algorithm::TwoLevelPartialRefined,
        ] {
            let kernel = kernel_for(a);
            let arena = TableArena::new();
            let state = kernel.compute(&calc, 10, &arena);
            let sol = assemble(kernel, &calc, &state, 10, &s);
            let direct = optimize(&s, a);
            assert_eq!(sol.expected_makespan.to_bits(), direct.expected_makespan.to_bits(), "{a}");
            assert_eq!(sol.schedule, direct.schedule, "{a}");
            assert_eq!(sol.stats, direct.stats, "{a}");
            assert_eq!(state.expected_makespan(10).to_bits(), sol.expected_makespan.to_bits());
        }
    }

    #[test]
    fn engine_routes_cold_extend_reuse_and_hits() {
        let engine = Engine::new();
        // Cold at 10, extension to 25, reuse at 7, then a cache hit at 25.
        for (n, check) in [(10usize, "cold"), (25, "extend"), (7, "reuse"), (25, "hit")] {
            let s = weak_scaling(n, 500.0);
            let sol = engine.solve(&s, Algorithm::TwoLevel);
            let direct = optimize(&s, Algorithm::TwoLevel);
            assert_eq!(
                sol.expected_makespan.to_bits(),
                direct.expected_makespan.to_bits(),
                "{check} n={n}"
            );
            assert_eq!(sol.schedule, direct.schedule, "{check} n={n}");
        }
        let stats = engine.stats();
        assert_eq!(stats.cold_pruned, 1, "{stats:?}");
        assert_eq!(stats.extended, 1, "{stats:?}");
        assert_eq!(stats.reused, 1, "{stats:?}");
        assert_eq!(stats.cache.hits, 1, "{stats:?}");
        assert_eq!(stats.cache.misses, stats.routed(), "{stats:?}");
        assert_eq!(engine.context_count(), 1);
    }

    #[test]
    fn incompatible_chains_solve_cold_without_evicting_retained_tables() {
        let engine = Engine::new();
        engine.solve(&weak_scaling(20, 500.0), Algorithm::TwoLevel);
        // Same context, incompatible weights: cold, and the 500 s tables stay.
        let sol = engine.solve(&weak_scaling(10, 600.0), Algorithm::TwoLevel);
        let direct = optimize(&weak_scaling(10, 600.0), Algorithm::TwoLevel);
        assert_eq!(sol.expected_makespan.to_bits(), direct.expected_makespan.to_bits());
        assert_eq!(engine.stats().cold(), 2);
        // The retained tables still serve the original series.
        engine.solve(&weak_scaling(30, 500.0), Algorithm::TwoLevel);
        let stats = engine.stats();
        assert_eq!((stats.extended, stats.cold()), (1, 2), "{stats:?}");
    }

    #[test]
    fn fixed_total_weight_sweep_is_correct_and_all_cold() {
        // The paper's fixed-total-weight sweeps are not prefix-stable: every
        // point must be a cold solve, none may corrupt another.
        let engine = Engine::new();
        for n in [5usize, 10, 15] {
            let s = paper(n);
            let sol = engine.solve(&s, Algorithm::TwoLevelPartial);
            let direct = optimize(&s, Algorithm::TwoLevelPartial);
            assert_eq!(sol.expected_makespan.to_bits(), direct.expected_makespan.to_bits());
            assert_eq!(sol.schedule, direct.schedule);
        }
        let stats = engine.stats();
        assert_eq!((stats.cold(), stats.extended, stats.reused), (3, 0, 0), "{stats:?}");
    }

    #[test]
    fn hostile_cost_model_routes_to_the_exhaustive_fallback() {
        let mut s = paper(8);
        s.costs.partial_verification = s.costs.guaranteed_verification * 3.0;
        let engine = Engine::new();
        let sol = engine.solve(&s, Algorithm::TwoLevelPartial);
        let direct = optimize(&s, Algorithm::TwoLevelPartial);
        assert_eq!(sol.expected_makespan.to_bits(), direct.expected_makespan.to_bits());
        let stats = engine.stats();
        assert_eq!((stats.cold_exhaustive, stats.cold_pruned), (1, 0), "{stats:?}");
    }

    #[test]
    fn solve_batch_preserves_order_and_dedups() {
        let engine = Engine::new();
        let requests = vec![
            SolveRequest::new(paper(8), Algorithm::TwoLevel),
            SolveRequest::new(paper(10), Algorithm::SingleLevel),
            SolveRequest::new(paper(8), Algorithm::TwoLevel), // duplicate of #0
        ];
        let solutions = engine.solve_batch(&requests);
        assert_eq!(solutions.len(), 3);
        assert!(Arc::ptr_eq(&solutions[0], &solutions[2]));
        for (req, sol) in requests.iter().zip(&solutions) {
            let direct = optimize(&req.scenario, req.algorithm);
            assert_eq!(direct.expected_makespan.to_bits(), sol.expected_makespan.to_bits());
        }
        let stats = engine.stats();
        assert_eq!(stats.cache.misses, 2);
        assert_eq!(stats.cache.hits, 1);
        // A second identical batch is all hits.
        let again = engine.solve_batch(&requests);
        assert!(Arc::ptr_eq(&solutions[1], &again[1]));
        assert_eq!(engine.stats().cache.misses, 2);
    }

    #[test]
    fn contexts_are_isolated_by_rates_costs_and_algorithm() {
        let engine = Engine::new();
        let s = weak_scaling(8, 500.0);
        engine.solve(&s, Algorithm::TwoLevel);
        engine.solve(&s, Algorithm::SingleLevel);
        let mut expensive = s.clone();
        expensive.costs.disk_checkpoint *= 2.0;
        engine.solve(&expensive, Algorithm::TwoLevel);
        let mut faster_errors = s.clone();
        faster_errors.platform.lambda_silent *= 2.0;
        engine.solve(&faster_errors, Algorithm::TwoLevel);
        assert_eq!(engine.context_count(), 4);
        assert_eq!(engine.stats().cold(), 4, "no context may serve another's scenario");
        engine.clear();
        assert_eq!(engine.context_count(), 0);
    }

    #[test]
    fn clear_drops_solutions_and_tables() {
        let engine = Engine::new();
        engine.solve(&weak_scaling(8, 500.0), Algorithm::TwoLevel);
        engine.clear();
        assert_eq!(engine.context_count(), 0);
        engine.solve(&weak_scaling(8, 500.0), Algorithm::TwoLevel);
        assert_eq!(engine.stats().cold(), 2, "cleared engine must re-solve");
    }

    #[test]
    fn stats_display_names_every_strategy() {
        let engine = Engine::new();
        engine.solve(&weak_scaling(4, 500.0), Algorithm::TwoLevel);
        let text = engine.stats().to_string();
        for needle in [
            "reused",
            "extended",
            "cold (pruned)",
            "cold (exhaustive)",
            "hit rate",
            "arena",
            "retained",
            "snapshots",
            "load: none",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in `{text}`");
        }
        let debug = format!("{engine:?}");
        assert!(debug.contains("contexts"), "{debug}");
    }

    #[test]
    fn arena_recycles_retired_tables_across_cold_solves() {
        let engine = Engine::new();
        // Paper scenarios share no weight prefix, so every solve is cold;
        // each one retires the previously retained tables into the arena and
        // draws its own buffers from the pool.
        for n in [10usize, 11, 12, 13] {
            engine.solve(&paper(n), Algorithm::TwoLevel);
        }
        let arena = engine.arena_stats();
        assert!(arena.returns > 0, "{arena:?}");
        assert!(arena.pool_hits > 0, "{arena:?}");
        assert_eq!(engine.stats().arena, arena);
    }

    #[test]
    fn context_cap_evicts_lru_contexts_and_recycles_their_tables() {
        let engine = Engine::with_limits(EngineLimits::entry_cap(2));
        let s = paper(8);
        for algorithm in [Algorithm::SingleLevel, Algorithm::TwoLevel, Algorithm::TwoLevelPartial] {
            engine.solve(&s, algorithm);
        }
        let stats = engine.stats();
        assert_eq!(stats.contexts, 2, "{stats:?}");
        assert_eq!(stats.context_evictions, 1, "{stats:?}");
        assert!(stats.arena.returns > 0, "evicted tables must return buffers: {stats:?}");
        // The evicted context re-solves cold and stays correct.
        let sol = engine.solve(&paper(8), Algorithm::SingleLevel);
        let direct = optimize(&paper(8), Algorithm::SingleLevel);
        assert_eq!(sol.expected_makespan.to_bits(), direct.expected_makespan.to_bits());
    }

    #[test]
    fn cached_answers_settled_hits_and_counts_like_solve() {
        let engine = Engine::new();
        let s = paper(8);
        let fresh = engine.stats();
        assert!(engine.cached(&s, Algorithm::TwoLevel).is_none());
        assert_eq!(engine.stats(), fresh, "a miss must count nothing");
        let solved = engine.solve(&s, Algorithm::TwoLevel);
        let hit = engine.cached(&s, Algorithm::TwoLevel).expect("settled entry");
        assert!(Arc::ptr_eq(&hit, &solved));
        let stats = engine.stats();
        assert_eq!((stats.cache.hits, stats.cache.misses, stats.cold()), (1, 1, 1), "{stats:?}");
    }

    #[test]
    fn cached_touch_keeps_its_entry_from_being_the_lru_victim() {
        let engine = Engine::with_limits(EngineLimits::entry_cap(2));
        let (a, b, c) = (paper(4), paper(5), paper(6));
        engine.solve(&a, Algorithm::TwoLevel);
        engine.solve(&b, Algorithm::TwoLevel);
        // A `cached` hit on `a` makes `b` the least recently used…
        assert!(engine.cached(&a, Algorithm::TwoLevel).is_some());
        // …so inserting `c` evicts `b`, not `a`.
        engine.solve(&c, Algorithm::TwoLevel);
        assert!(engine.cached(&a, Algorithm::TwoLevel).is_some(), "a must still be cached");
        assert!(engine.cached(&b, Algorithm::TwoLevel).is_none(), "b must have been evicted");
        let stats = engine.stats();
        assert_eq!((stats.cache.hits, stats.cache.evictions), (2, 1), "{stats:?}");
    }

    #[test]
    fn cache_cap_limits_are_threaded_through_the_engine() {
        let engine = Engine::with_limits(EngineLimits::entry_cap(1));
        engine.solve(&paper(6), Algorithm::TwoLevel);
        engine.solve(&paper(7), Algorithm::TwoLevel);
        let stats = engine.stats();
        assert_eq!(stats.cache.entries, 1, "{stats:?}");
        assert_eq!(stats.cache.evictions, 1, "{stats:?}");
        // The evicted scenario is a miss again, and still bit-correct.
        let sol = engine.solve(&paper(6), Algorithm::TwoLevel);
        let direct = optimize(&paper(6), Algorithm::TwoLevel);
        assert_eq!(sol.expected_makespan.to_bits(), direct.expected_makespan.to_bits());
        assert_eq!(engine.stats().cache.misses, 3);
    }
}
