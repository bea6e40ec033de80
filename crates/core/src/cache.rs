//! Shared solution cache and batch solver service.
//!
//! The §IV harness re-solves the same `(platform, pattern, n, T)` scenarios
//! dozens of times across figure panels and sweeps: every count panel of
//! Figure 5 repeats the cells of its makespan panel, and the ablation sweeps
//! revisit grid cells at their default parameter values.  [`SolutionCache`]
//! memoizes those solves behind a canonical [`ScenarioFingerprint`] so each
//! distinct `(scenario, algorithm)` dynamic program runs **exactly once**,
//! even under concurrent access: entries are initialised through a per-entry
//! [`OnceLock`], so racing threads block on the single in-flight solve
//! instead of duplicating it.
//!
//! The cache is the memoization layer of [`crate::Engine`], which plugs its
//! strategy router in through [`SolutionCache::solve_with`] and batches
//! [`SolveRequest`]s on the work-stealing pool.  Hit/miss statistics
//! ([`CacheStats`]) make the sharing observable, which is how the harness
//! proves that repeated cells are served from cache.
//!
//! Two process-stable digests come out of a fingerprint.  The cache files
//! entries under the full one, which covers the weights (the crate-private
//! `bucket_key`).  The service routes by [`ScenarioFingerprint::stable_hash`],
//! which covers only the solving context — rates, costs and algorithm, the
//! engine's `ContextKey` — so every length of one chain, and every weight
//! pattern on one platform, lands on the shard that retains its DP tables.
//!
//! Because every optimizer in this crate is a deterministic pure function of
//! the scenario and algorithm, cached and uncached solves are bit-identical —
//! the cache can never change results, only skip recomputation.

use crate::lru::LruList;
use crate::solution::Solution;
use crate::{optimize, Algorithm};
use chain2l_model::Scenario;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One solving context: everything the kernels read besides the weights —
/// the platform error rates and the seven cost-model fields as exact `f64`
/// bit patterns, and the algorithm.  The engine retains one DP table set
/// per context, and the service routes by its digest
/// ([`ScenarioFingerprint::stable_hash`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ContextKey {
    pub(crate) lambda_fail_stop: u64,
    pub(crate) lambda_silent: u64,
    pub(crate) costs: [u64; 7],
    pub(crate) algorithm: Algorithm,
}

impl ContextKey {
    pub(crate) fn new(scenario: &Scenario, algorithm: Algorithm) -> Self {
        let c = &scenario.costs;
        Self {
            lambda_fail_stop: scenario.platform.lambda_fail_stop.to_bits(),
            lambda_silent: scenario.platform.lambda_silent.to_bits(),
            costs: [
                c.disk_checkpoint.to_bits(),
                c.memory_checkpoint.to_bits(),
                c.disk_recovery.to_bits(),
                c.memory_recovery.to_bits(),
                c.guaranteed_verification.to_bits(),
                c.partial_verification.to_bits(),
                c.partial_recall.to_bits(),
            ],
            algorithm,
        }
    }

    /// FNV-1a over the rates, the costs, `weights` and the algorithm label,
    /// in that order (little-endian bytes).  With a chain's weights this is
    /// the fingerprint's bucket key; with none, the context's own stream.
    fn fnv1a(&self, weights: impl Iterator<Item = u64>) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(&self.lambda_fail_stop.to_le_bytes());
        eat(&self.lambda_silent.to_le_bytes());
        for c in &self.costs {
            eat(&c.to_le_bytes());
        }
        for w in weights {
            eat(&w.to_le_bytes());
        }
        eat(self.algorithm.label().as_bytes());
        hash
    }

    /// The routing digest: FNV-1a over the context fields, folded by
    /// Murmur3's `fmix64` finalizer.  FNV-1a's low bits mix poorly (its
    /// lowest bit is the parity of the input bytes' lowest bits), and the
    /// service takes the digest `% shards`.
    fn digest(&self) -> u64 {
        let mut k = self.fnv1a(std::iter::empty());
        k ^= k >> 33;
        k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
        k ^= k >> 33;
        k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        k ^ (k >> 33)
    }
}

/// Canonical fingerprint of one `(scenario, algorithm)` solve.
///
/// The fingerprint captures exactly the inputs the optimizers read: the
/// solving context (platform error rates, every field of the resilience
/// cost model and the algorithm — which also fixes the tail-accounting cost
/// model, `Algorithm::TwoLevelPartial` vs. `Algorithm::TwoLevelPartialRefined`)
/// and the task weight vector, all as exact `f64` bit patterns.
/// Presentation-only fields — the platform `name` and `nodes`, and the raw
/// platform checkpoint costs that [`chain2l_model::ResilienceCosts`] has
/// already absorbed — are deliberately excluded, so a renamed but otherwise
/// identical platform still hits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScenarioFingerprint {
    pub(crate) context: ContextKey,
    pub(crate) weights: Vec<u64>,
}

impl ScenarioFingerprint {
    /// Deterministic, process-stable 64-bit digest of the fingerprint's
    /// solving context — rates, costs and algorithm, **not** the weights.
    ///
    /// This is the service's shard-routing digest: the parent daemon sends
    /// a solve to shard `stable_hash() % shard_count`.  Unlike
    /// `Hash`/`RandomState`, the digest is identical across processes and
    /// runs, so the parent, every worker and any replay agree on it without
    /// sharing hasher state.  Because it ignores the weights, every length
    /// of one chain lands on the shard whose engine retains that context's
    /// tables.  Changing it re-partitions every shard snapshot, so it is
    /// covered by [`crate::snapshot::FORMAT_VERSION`].
    pub fn stable_hash(&self) -> u64 {
        self.context.digest()
    }

    /// [`Self::stable_hash`] computed directly from the scenario, without
    /// materialising a fingerprint (`stable_hash_of(s, a) ==
    /// ScenarioFingerprint::new(s, a).stable_hash()` by construction: both
    /// digest the same context key).
    pub fn stable_hash_of(scenario: &Scenario, algorithm: Algorithm) -> u64 {
        ContextKey::new(scenario, algorithm).digest()
    }

    /// The cache's bucket key: FNV-1a over every fingerprint field, weights
    /// included.
    pub(crate) fn bucket_key(&self) -> u64 {
        self.context.fnv1a(self.weights.iter().copied())
    }

    /// [`Self::bucket_key`] streamed straight off the scenario — the
    /// allocation-free lookup key of the cache's hit path.
    pub(crate) fn bucket_key_of(scenario: &Scenario, algorithm: Algorithm) -> u64 {
        ContextKey::new(scenario, algorithm)
            .fnv1a(scenario.chain.weights().iter().map(|w| w.to_bits()))
    }

    /// Whether this fingerprint is exactly the one [`Self::new`] would
    /// compute for `(scenario, algorithm)` — field-by-field bitwise
    /// comparison, no allocation.
    pub fn matches(&self, scenario: &Scenario, algorithm: Algorithm) -> bool {
        self.context == ContextKey::new(scenario, algorithm)
            && self.weights.len() == scenario.chain.weights().len()
            && self
                .weights
                .iter()
                .zip(scenario.chain.weights())
                .all(|(stored, w)| *stored == w.to_bits())
    }

    /// Computes the fingerprint of `scenario` solved with `algorithm`.
    pub fn new(scenario: &Scenario, algorithm: Algorithm) -> Self {
        Self {
            context: ContextKey::new(scenario, algorithm),
            weights: scenario.chain.weights().iter().map(|w| w.to_bits()).collect(),
        }
    }
}

/// One request of an [`crate::Engine::solve_batch`] call.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// The scenario to optimize.
    pub scenario: Scenario,
    /// The algorithm to run on it.
    pub algorithm: Algorithm,
}

impl SolveRequest {
    /// Bundles a scenario with the algorithm to run on it.
    pub fn new(scenario: Scenario, algorithm: Algorithm) -> Self {
        Self { scenario, algorithm }
    }
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests that found an existing entry (served without re-solving).
    pub hits: u64,
    /// Requests that created a new entry; each one ran the DP exactly once.
    pub misses: u64,
    /// Number of distinct fingerprints currently cached.
    pub entries: usize,
    /// Entries evicted by the configured [`CacheLimits`].
    pub evictions: u64,
    /// Approximate bytes held by the cached entries (fingerprint + solution
    /// estimate; see [`CacheLimits::max_bytes`]).
    pub approx_bytes: usize,
}

impl CacheStats {
    /// Fraction of requests served from cache (`0.0` before any request).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits, {} misses ({:.1} % hit rate), {} entries ({} evicted, ~{} KiB)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.evictions,
            self.approx_bytes / 1024
        )
    }
}

/// A per-fingerprint slot; the `OnceLock` guarantees the solve runs once.
type CacheEntry = Arc<OnceLock<Arc<Solution>>>;

/// Capacity bounds of a [`SolutionCache`] (both unbounded by default).
///
/// When either bound is exceeded the least-recently-used entries are
/// evicted first; an in-flight entry that is evicted simply finishes for
/// its current waiters and is forgotten — eviction can never change a
/// result, only force a future re-solve.
///
/// Victim selection walks an intrusive doubly-linked recency list
/// ([`crate::lru::LruList`]): O(1) per eviction, and the hit path's only
/// bookkeeping is an O(1), allocation-free relink — the zero-allocation
/// hit-path guarantee (`tests/alloc_free.rs`) holds at any cap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLimits {
    /// Maximum number of cached entries (`None` = unbounded).
    pub max_entries: Option<usize>,
    /// Approximate byte budget (`None` = unbounded).  Entry sizes are
    /// estimated from the fingerprint and schedule footprint — the cache
    /// does not measure the allocator, it bounds growth.
    pub max_bytes: Option<usize>,
}

/// One cached fingerprint: the entry, its recency-list node and its size
/// estimate.
struct Slot {
    fingerprint: ScenarioFingerprint,
    entry: CacheEntry,
    lru_id: usize,
    approx_bytes: usize,
}

/// The cache's bucketed store, keyed by the process-stable bucket key
/// (`ScenarioFingerprint::bucket_key`, which covers the weights) so the
/// hit path never materialises a fingerprint (collisions are
/// resolved by exact comparison inside the bucket).  Recency lives in an
/// intrusive [`LruList`]; `lru_hashes[slot.lru_id]` maps a list node back
/// to its bucket, so evicting the tail is O(1) plus a scan of one
/// (almost always single-entry) bucket.
#[derive(Default)]
struct Store {
    buckets: HashMap<u64, Vec<Slot>>,
    lru: LruList,
    /// Bucket hash of each recency node, indexed by node id (slab-stable).
    lru_hashes: Vec<u64>,
    entries: usize,
    approx_bytes: usize,
}

impl Store {
    /// The slot cached for `(scenario, algorithm)` under bucket key `hash`, found
    /// by allocation-free comparison inside the bucket.
    fn find(&self, hash: u64, scenario: &Scenario, algorithm: Algorithm) -> Option<&Slot> {
        self.buckets.get(&hash)?.iter().find(|slot| slot.fingerprint.matches(scenario, algorithm))
    }

    /// Links a fresh recency node for the slot being inserted under `hash`.
    fn lru_insert(&mut self, hash: u64) -> usize {
        let id = self.lru.push_front();
        if id == self.lru_hashes.len() {
            self.lru_hashes.push(hash);
        } else {
            self.lru_hashes[id] = hash;
        }
        id
    }

    /// Evicts least-recently-used slots until both limits hold, sparing the
    /// node `spare` (the one the caller just inserted).  Returns the number
    /// of evictions.
    fn enforce(&mut self, limits: &CacheLimits, spare: usize) -> u64 {
        let over = |store: &Store| {
            limits.max_entries.is_some_and(|cap| store.entries > cap)
                || limits.max_bytes.is_some_and(|cap| store.approx_bytes > cap)
        };
        let mut evicted = 0;
        while over(self) {
            let victim = match self.lru.tail() {
                Some(id) if id != spare => id,
                _ => break,
            };
            let hash = self.lru_hashes[victim];
            let bucket = self.buckets.get_mut(&hash).expect("victim's bucket present");
            let index =
                bucket.iter().position(|slot| slot.lru_id == victim).expect("victim in bucket");
            let slot = bucket.swap_remove(index);
            if bucket.is_empty() {
                self.buckets.remove(&hash);
            }
            self.lru.remove(victim);
            self.entries -= 1;
            self.approx_bytes -= slot.approx_bytes;
            evicted += 1;
        }
        evicted
    }
}

/// Size estimate of one cached entry: fingerprint weights, the solution
/// struct and its schedule actions (one byte-sized action per boundary),
/// plus fixed bookkeeping overhead.
fn approx_entry_bytes(n: usize) -> usize {
    160 + 16 * n
}

/// Concurrency-safe, memoizing solver front-end (see the module docs).
///
/// Share one cache (`&SolutionCache` is all the API needs) across figure
/// panels, sweeps and batch calls to deduplicate their scenario solves.
///
/// # Examples
///
/// ```
/// use chain2l_core::cache::SolutionCache;
/// use chain2l_core::Algorithm;
/// use chain2l_model::platform::scr;
/// use chain2l_model::{Scenario, WeightPattern};
///
/// let cache = SolutionCache::new();
/// let s = Scenario::paper_setup(&scr::hera(), &WeightPattern::Uniform, 10, 25_000.0).unwrap();
/// let first = cache.solve(&s, Algorithm::TwoLevel);
/// let second = cache.solve(&s, Algorithm::TwoLevel);
/// assert_eq!(first.expected_makespan, second.expected_makespan);
/// let stats = cache.stats();
/// assert_eq!((stats.misses, stats.hits), (1, 1));
/// ```
#[derive(Default)]
pub struct SolutionCache {
    store: Mutex<Store>,
    limits: CacheLimits,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for SolutionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolutionCache")
            .field("stats", &self.stats())
            .field("limits", &self.limits)
            .finish()
    }
}

impl SolutionCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache bounded by `limits`: when the entry count or
    /// the approximate byte footprint exceeds its cap, least-recently-used
    /// entries are evicted (observable through [`CacheStats::evictions`]).
    pub fn with_limits(limits: CacheLimits) -> Self {
        Self { limits, ..Self::default() }
    }

    /// Returns the optimal solution for `(scenario, algorithm)`, running the
    /// dynamic program at most once per fingerprint.
    ///
    /// Concurrent callers with the same fingerprint block on the single
    /// in-flight solve instead of duplicating it.
    pub fn solve(&self, scenario: &Scenario, algorithm: Algorithm) -> Arc<Solution> {
        self.solve_with(scenario, algorithm, || optimize(scenario, algorithm))
    }

    /// The memoization primitive behind [`Self::solve`]: returns the cached
    /// solution for `(scenario, algorithm)`, running `solve` at most once per
    /// fingerprint to produce it.
    ///
    /// `solve` must be a deterministic pure function of the scenario and
    /// algorithm (every solver in this crate is), otherwise the cache would
    /// make results dependent on request order.  [`crate::Engine`] plugs its
    /// strategy router in here.
    ///
    /// The hit path performs **zero heap allocations**: the lookup key is
    /// the process-stable bucket key streamed straight off the scenario
    /// (`ScenarioFingerprint::bucket_key_of`), bucket collisions are
    /// resolved by the allocation-free [`ScenarioFingerprint::matches`], and
    /// the cached `Arc` is cloned — which is what makes a warm
    /// [`crate::Engine::solve`] allocation-free end to end (proved by the
    /// counting-allocator test in `tests/alloc_free.rs`).
    pub fn solve_with(
        &self,
        scenario: &Scenario,
        algorithm: Algorithm,
        solve: impl FnOnce() -> Solution,
    ) -> Arc<Solution> {
        let hash = ScenarioFingerprint::bucket_key_of(scenario, algorithm);
        let entry = {
            let mut store = self.store.lock().expect("cache store poisoned");
            let hit =
                store.find(hash, scenario, algorithm).map(|slot| (slot.lru_id, slot.entry.clone()));
            match hit {
                Some((lru_id, entry)) => {
                    store.lru.touch(lru_id);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    entry
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let fingerprint = ScenarioFingerprint::new(scenario, algorithm);
                    let entry: CacheEntry = Arc::new(OnceLock::new());
                    let approx_bytes = approx_entry_bytes(scenario.task_count());
                    let lru_id = store.lru_insert(hash);
                    store.buckets.entry(hash).or_default().push(Slot {
                        fingerprint,
                        entry: entry.clone(),
                        lru_id,
                        approx_bytes,
                    });
                    store.entries += 1;
                    store.approx_bytes += approx_bytes;
                    let evicted = store.enforce(&self.limits, lru_id);
                    if evicted > 0 {
                        self.evictions.fetch_add(evicted, Ordering::Relaxed);
                    }
                    entry
                }
            }
        };
        // Outside the store lock: other fingerprints stay unblocked while
        // the (possibly expensive) DP runs.
        entry.get_or_init(|| Arc::new(solve())).clone()
    }

    /// The settled solution for `(scenario, algorithm)`, if there is one —
    /// a lookup that never solves, never blocks and never allocates.
    ///
    /// A settled entry counts one hit and is touched in the recency list
    /// exactly as a [`Self::solve_with`] hit would be.  An absent
    /// fingerprint, or one whose solve is still in flight, returns `None`
    /// and counts nothing: the caller's later [`Self::solve_with`] then
    /// counts the miss or the hit it would have counted anyway.  Only the
    /// store mutex is taken, and no caller holds it across a solve.
    pub fn cached(&self, scenario: &Scenario, algorithm: Algorithm) -> Option<Arc<Solution>> {
        let hash = ScenarioFingerprint::bucket_key_of(scenario, algorithm);
        let mut store = self.store.lock().expect("cache store poisoned");
        let (lru_id, solution) = store
            .find(hash, scenario, algorithm)
            .and_then(|slot| Some((slot.lru_id, slot.entry.get()?.clone())))?;
        store.lru.touch(lru_id);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(solution)
    }

    /// Hit/miss/entry statistics accumulated since construction.
    pub fn stats(&self) -> CacheStats {
        let (entries, approx_bytes) = {
            let store = self.store.lock().expect("cache store poisoned");
            (store.entries, store.approx_bytes)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            evictions: self.evictions.load(Ordering::Relaxed),
            approx_bytes,
        }
    }

    /// Number of distinct fingerprints cached.
    pub fn len(&self) -> usize {
        self.store.lock().expect("cache store poisoned").entries
    }

    /// True when no solve has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot view of every *settled* entry as `(fingerprint, solution)`
    /// pairs, ordered least- to most-recently used.
    ///
    /// Entries whose solve is still in flight (unset `OnceLock`) are skipped
    /// — `get()` never blocks, so exporting can never serialize behind a
    /// cold solve.  Re-inserting the pairs in the returned order through
    /// [`Self::restore_entry`] reproduces the recency order exactly.
    pub(crate) fn export_entries(&self) -> Vec<(ScenarioFingerprint, Arc<Solution>)> {
        let store = self.store.lock().expect("cache store poisoned");
        let mut out = Vec::with_capacity(store.entries);
        for lru_id in store.lru.iter_lru() {
            let hash = store.lru_hashes[lru_id];
            let Some(bucket) = store.buckets.get(&hash) else { continue };
            let Some(slot) = bucket.iter().find(|slot| slot.lru_id == lru_id) else { continue };
            if let Some(solution) = slot.entry.get() {
                out.push((slot.fingerprint.clone(), solution.clone()));
            }
        }
        out
    }

    /// Re-installs one snapshot-restored entry with its solution already
    /// settled, inserting at the most-recently-used position.
    ///
    /// Counts toward the entry/byte limits (evicting if needed) but not
    /// toward hits or misses — a restore is neither.  Returns `false` when
    /// the fingerprint is already cached (the existing entry wins).
    pub(crate) fn restore_entry(
        &self,
        fingerprint: ScenarioFingerprint,
        solution: Arc<Solution>,
    ) -> bool {
        let hash = fingerprint.bucket_key();
        let approx_bytes = approx_entry_bytes(fingerprint.weights.len());
        let mut store = self.store.lock().expect("cache store poisoned");
        if store
            .buckets
            .get(&hash)
            .is_some_and(|bucket| bucket.iter().any(|slot| slot.fingerprint == fingerprint))
        {
            return false;
        }
        let entry: CacheEntry = Arc::new(OnceLock::new());
        let _ = entry.set(solution);
        let lru_id = store.lru_insert(hash);
        store.buckets.entry(hash).or_default().push(Slot {
            fingerprint,
            entry,
            lru_id,
            approx_bytes,
        });
        store.entries += 1;
        store.approx_bytes += approx_bytes;
        let evicted = store.enforce(&self.limits, lru_id);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        true
    }

    /// Drops every cached entry (the hit/miss/eviction counters keep
    /// accumulating).
    pub fn clear(&self) {
        let mut store = self.store.lock().expect("cache store poisoned");
        store.buckets.clear();
        store.lru = LruList::new();
        store.lru_hashes.clear();
        store.entries = 0;
        store.approx_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain2l_model::platform::scr;
    use chain2l_model::WeightPattern;

    fn hera_uniform(n: usize) -> Scenario {
        Scenario::paper_setup(&scr::hera(), &WeightPattern::Uniform, n, 25_000.0).unwrap()
    }

    #[test]
    fn fingerprint_ignores_presentation_fields() {
        let s = hera_uniform(10);
        let mut renamed_platform = scr::hera();
        renamed_platform.name = "Hera (renamed)".to_string();
        renamed_platform.nodes = 1;
        let renamed =
            Scenario::paper_setup(&renamed_platform, &WeightPattern::Uniform, 10, 25_000.0)
                .unwrap();
        assert_eq!(
            ScenarioFingerprint::new(&s, Algorithm::TwoLevel),
            ScenarioFingerprint::new(&renamed, Algorithm::TwoLevel)
        );
    }

    #[test]
    fn fingerprint_distinguishes_every_optimizer_input() {
        let base = ScenarioFingerprint::new(&hera_uniform(10), Algorithm::TwoLevel);
        // Different algorithm.
        assert_ne!(base, ScenarioFingerprint::new(&hera_uniform(10), Algorithm::SingleLevel));
        // Different chain.
        assert_ne!(base, ScenarioFingerprint::new(&hera_uniform(11), Algorithm::TwoLevel));
        // Different cost model.
        let mut costs_changed = hera_uniform(10);
        costs_changed.costs.partial_recall = 0.5;
        assert_ne!(base, ScenarioFingerprint::new(&costs_changed, Algorithm::TwoLevel));
        // Different rates.
        let scaled = scr::hera().with_scaled_rates(2.0).unwrap();
        let scaled = Scenario::paper_setup(&scaled, &WeightPattern::Uniform, 10, 25_000.0).unwrap();
        assert_ne!(base, ScenarioFingerprint::new(&scaled, Algorithm::TwoLevel));
    }

    #[test]
    fn solve_memoizes_and_counts_hits() {
        let cache = SolutionCache::new();
        let s = hera_uniform(12);
        let direct = optimize(&s, Algorithm::TwoLevel);
        let first = cache.solve(&s, Algorithm::TwoLevel);
        let second = cache.solve(&s, Algorithm::TwoLevel);
        assert!(Arc::ptr_eq(&first, &second), "hit must return the cached allocation");
        assert_eq!(direct.expected_makespan.to_bits(), first.expected_makespan.to_bits());
        assert_eq!(direct.schedule, first.schedule);
        assert_eq!(direct.stats, first.stats);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn cached_counts_only_settled_entries() {
        let cache = SolutionCache::new();
        let s = hera_uniform(8);
        // Absent: nothing is counted and nothing is inserted.
        assert!(cache.cached(&s, Algorithm::TwoLevel).is_none());
        assert_eq!((cache.stats().hits, cache.stats().misses, cache.len()), (0, 0, 0));
        // In flight: the entry exists but its solve has not settled.
        let solved = cache.solve_with(&s, Algorithm::TwoLevel, || {
            assert!(cache.cached(&s, Algorithm::TwoLevel).is_none());
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1), "{stats:?}");
            optimize(&s, Algorithm::TwoLevel)
        });
        // Settled: the cached allocation, and exactly one more hit.
        let hit = cache.cached(&s, Algorithm::TwoLevel).expect("settled entry");
        assert!(Arc::ptr_eq(&hit, &solved));
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
        assert!(cache.cached(&s, Algorithm::SingleLevel).is_none(), "another algorithm");
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cache = SolutionCache::new();
        let s = hera_uniform(6);
        cache.solve(&s, Algorithm::TwoLevel);
        cache.clear();
        assert!(cache.is_empty());
        cache.solve(&s, Algorithm::TwoLevel);
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "cleared entry must be re-solved");
    }

    #[test]
    fn streaming_hash_and_matches_agree_with_materialised_fingerprints() {
        let scenarios = [hera_uniform(5), hera_uniform(9)];
        let algorithms = [Algorithm::TwoLevel, Algorithm::TwoLevelPartial];
        for s in &scenarios {
            for a in algorithms {
                let fingerprint = ScenarioFingerprint::new(s, a);
                assert_eq!(
                    fingerprint.stable_hash(),
                    ScenarioFingerprint::stable_hash_of(s, a),
                    "streamed digest must equal the materialised one"
                );
                assert!(fingerprint.matches(s, a));
                for other in &scenarios {
                    for b in algorithms {
                        if (other.task_count(), b) != (s.task_count(), a) {
                            assert!(!fingerprint.matches(other, b));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn streaming_bucket_key_agrees_with_materialised_fingerprints() {
        // Lookups hash the scenario while restores hash the stored
        // fingerprint: if the two keys drifted apart, every restored entry
        // would silently miss.
        let scenarios = [hera_uniform(5), hera_uniform(9)];
        let algorithms = [Algorithm::TwoLevel, Algorithm::TwoLevelPartial];
        let cache = SolutionCache::new();
        for s in &scenarios {
            for a in algorithms {
                let fingerprint = ScenarioFingerprint::new(s, a);
                assert_eq!(
                    fingerprint.bucket_key(),
                    ScenarioFingerprint::bucket_key_of(s, a),
                    "streamed bucket key must equal the materialised one"
                );
                assert!(cache.restore_entry(fingerprint, Arc::new(optimize(s, a))));
            }
        }
        for s in &scenarios {
            for a in algorithms {
                assert!(
                    cache.cached(s, a).is_some(),
                    "restored n={} {a:?} must hit",
                    s.task_count()
                );
            }
        }
        assert_eq!((cache.stats().hits, cache.stats().misses), (4, 0));
    }

    #[test]
    fn entry_cap_evicts_least_recently_used_entries() {
        let cache =
            SolutionCache::with_limits(CacheLimits { max_entries: Some(2), max_bytes: None });
        let (a, b, c) = (hera_uniform(4), hera_uniform(5), hera_uniform(6));
        cache.solve(&a, Algorithm::TwoLevel);
        cache.solve(&b, Algorithm::TwoLevel);
        // Touch `a` so `b` becomes the least recently used…
        cache.solve(&a, Algorithm::TwoLevel);
        // …and inserting `c` evicts `b`, not `a`.
        cache.solve(&c, Algorithm::TwoLevel);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1), "{stats:?}");
        cache.solve(&a, Algorithm::TwoLevel);
        assert_eq!(cache.stats().hits, 2, "a must still be cached");
        cache.solve(&b, Algorithm::TwoLevel);
        assert_eq!(cache.stats().misses, 4, "b must have been evicted and re-solved");
        assert_eq!(cache.stats().evictions, 2, "re-inserting b evicts again");
    }

    #[test]
    fn byte_cap_bounds_the_approximate_footprint() {
        let budget = 2 * super::approx_entry_bytes(10);
        let cache =
            SolutionCache::with_limits(CacheLimits { max_entries: None, max_bytes: Some(budget) });
        for n in 4..10 {
            cache.solve(&hera_uniform(n), Algorithm::SingleLevel);
        }
        let stats = cache.stats();
        assert!(stats.approx_bytes <= budget, "{stats:?}");
        assert!(stats.entries >= 1 && stats.entries <= 2, "{stats:?}");
        assert!(stats.evictions >= 4, "{stats:?}");
        // Results are still correct after heavy eviction.
        let sol = cache.solve(&hera_uniform(4), Algorithm::SingleLevel);
        let direct = optimize(&hera_uniform(4), Algorithm::SingleLevel);
        assert_eq!(sol.expected_makespan.to_bits(), direct.expected_makespan.to_bits());
    }

    #[test]
    fn hit_rate_is_zero_not_nan_before_any_lookup() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert_eq!(SolutionCache::new().stats().hit_rate(), 0.0);
    }

    #[test]
    fn stable_hash_is_deterministic_and_input_sensitive() {
        let base = ScenarioFingerprint::new(&hera_uniform(10), Algorithm::TwoLevel);
        let again = ScenarioFingerprint::new(&hera_uniform(10), Algorithm::TwoLevel);
        assert_eq!(base.stable_hash(), again.stable_hash());
        assert_eq!(base.bucket_key(), again.bucket_key());
        let other_algorithm = ScenarioFingerprint::new(&hera_uniform(10), Algorithm::SingleLevel);
        assert_ne!(base.stable_hash(), other_algorithm.stable_hash());
        // The weights reach the bucket key, not the routing digest.
        for other in
            [ScenarioFingerprint::new(&hera_uniform(11), Algorithm::TwoLevel), other_algorithm]
        {
            assert_ne!(base.bucket_key(), other.bucket_key());
        }
    }

    #[test]
    fn stable_hash_follows_the_context_not_the_weights() {
        let platforms = scr::all();
        let digest = |platform: &chain2l_model::Platform, pattern, n, algorithm| {
            let s = Scenario::paper_setup(platform, pattern, n, 400.0 * n as f64).unwrap();
            ScenarioFingerprint::stable_hash_of(&s, algorithm)
        };
        let patterns = [WeightPattern::Uniform, WeightPattern::Decrease, WeightPattern::Increase];
        let mut contexts = Vec::new();
        for platform in &platforms {
            for algorithm in [
                Algorithm::SingleLevel,
                Algorithm::TwoLevel,
                Algorithm::TwoLevelPartial,
                Algorithm::TwoLevelPartialRefined,
            ] {
                let first = digest(platform, &WeightPattern::Uniform, 5, algorithm);
                for pattern in &patterns {
                    for n in 5..=12 {
                        assert_eq!(
                            digest(platform, pattern, n, algorithm),
                            first,
                            "{} {pattern:?} n={n} {algorithm:?}: one context, one digest",
                            platform.name
                        );
                    }
                }
                contexts.push(first);
            }
        }
        // Every (platform, algorithm) pair is its own context.
        let mut distinct = contexts.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), contexts.len(), "{contexts:x?}");
    }

    #[test]
    fn stable_hash_golden_value() {
        let digest = ScenarioFingerprint::stable_hash_of(&hera_uniform(10), Algorithm::TwoLevel);
        assert_eq!(
            digest, GOLDEN_HERA_ADMV_STAR,
            "the routing digest changed ({digest:#018x}): that re-partitions every shard \
             snapshot, so bump snapshot::FORMAT_VERSION and then update this value"
        );
    }

    /// `stable_hash` of Hera's `A_DMV*` context (any chain).
    const GOLDEN_HERA_ADMV_STAR: u64 = 0xc535_9c4b_4f01_e942;

    #[test]
    fn stats_display_is_readable() {
        let stats = CacheStats { hits: 3, misses: 1, entries: 1, evictions: 0, approx_bytes: 2048 };
        let text = stats.to_string();
        assert!(text.contains("3 hits"), "{text}");
        assert!(text.contains("75.0 % hit rate"), "{text}");
    }
}
