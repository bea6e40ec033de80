//! Pooled DP-table storage: the [`TableArena`] buffer pool behind the
//! allocation-free solve hot path.
//!
//! Every cold solve of the §III dynamic programs used to allocate a fresh
//! set of per-`d1` slice tables (value plane, argmin plane, `Emem` row and
//! its argmins) plus the inner-DP scratch vectors, and drop them all when
//! the [`crate::Solution`] was assembled — `O(n)` heap round-trips per
//! solve, repeated for every request of a daemon or sweep workload.  The
//! arena breaks that churn: finished tables **return** their backing `Vec`s
//! here instead of freeing them, and the next checkout reuses the
//! allocation (`clear` + `resize`, so every cell is re-initialised to the
//! requested fill — recycled buffers can never leak stale values, which the
//! NaN-poisoning tests below prove).
//!
//! The free lists are **size-bucketed** (one set for `f64` value/scratch
//! buffers, one for `u32` argmin planes) behind mutexes, with relaxed
//! counters for observability ([`ArenaStats`]).  Bucket `k` holds buffers
//! whose capacity rounds up to `2^k`; a checkout for `len` takes the
//! smallest buffer of its own capacity class whose capacity is at least
//! `len`, else the smallest of the next class up (whose buffers are always
//! large enough), the newest on a tie.  A checkout therefore never
//! reallocates the buffer it is handed — it is *fitted* — so pooled
//! capacities stay where they are instead of creeping up a class per
//! reuse, and a mixed workload never hands a tiny recycled buffer to a huge
//! table or parks a huge buffer under a tiny request.  A checkout that
//! finds no fitting buffer falls back to a fresh allocation.  After a warmup the pool serves most
//! checkouts, but a solve still allocates whenever no parked buffer fits
//! one of its tables — retained contexts keep theirs, and a mixed stream's
//! live set shifts between classes — so the per-solve allocation count
//! falls but does not reach zero.  Per-bucket hit counters
//! ([`ArenaStats::bucket_hits`]) show *which* size classes the reuse comes
//! from.
//!
//! Ownership: each [`crate::Engine`] owns one arena and threads
//! `&TableArena` through the kernels; the plain
//! [`crate::optimize`] entry points use a throwaway arena per call (same
//! behaviour as before the pool existed).  Sharing is safe by construction —
//! buffers are re-filled on checkout, so which solve previously used an
//! allocation is unobservable (see DESIGN.md §7 for the lifecycle:
//! checkout → fill → retain-or-return).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of capacity classes: bucket `k` holds buffers whose capacity
/// rounds up to `2^k`, so 28 classes cover every table this crate can
/// build (`2^27` elements ≈ 1 GiB of `f64`s; larger buffers share the
/// last bucket).
pub const ARENA_BUCKETS: usize = 28;

/// Default total free-list budget of [`TableArena::new`], split evenly
/// between the `f64` and `u32` pools.  A long-lived daemon that sees one
/// burst of huge chains no longer parks those buffers forever: returns
/// beyond the budget trim the pool, oldest buffer first.
pub const DEFAULT_ARENA_BYTE_CAP: usize = 256 * 1024 * 1024;

/// The capacity class of a buffer of `len` elements: the exponent of the
/// next power of two, clamped to the last bucket.
fn bucket_of(len: usize) -> usize {
    (len.max(1).next_power_of_two().trailing_zeros() as usize).min(ARENA_BUCKETS - 1)
}

/// Checkout/return counters of one [`TableArena`], cumulative since
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Buffers checked out (pool hit or fresh allocation).
    pub checkouts: u64,
    /// Checkouts served by recycling a pooled buffer.
    pub pool_hits: u64,
    /// Buffers returned to the pool.
    pub returns: u64,
    /// Pool hits per capacity class: `bucket_hits[k]` counts checkouts
    /// served by a buffer from bucket `k` (capacity rounding up to `2^k`),
    /// whichever bucket the request's own class was.
    pub bucket_hits: [u64; ARENA_BUCKETS],
    /// Bytes currently parked on the free lists (both element types).
    pub pooled_bytes: u64,
    /// Total free-list budget (both pools; each is bounded by half).
    pub byte_cap: u64,
    /// Buffers dropped by the byte cap since construction, oldest first.
    pub trimmed: u64,
}

impl ArenaStats {
    /// Fraction of checkouts served from the pool (`0.0` before any
    /// checkout).
    pub fn hit_rate(&self) -> f64 {
        if self.checkouts == 0 {
            0.0
        } else {
            self.pool_hits as f64 / self.checkouts as f64
        }
    }

    /// Compact rendering of the non-zero per-bucket hit counters, e.g.
    /// `"2^3:5 2^6:2"` (empty when the pool has never hit).
    pub fn bucket_summary(&self) -> String {
        self.bucket_hits
            .iter()
            .enumerate()
            .filter(|(_, &hits)| hits > 0)
            .map(|(k, hits)| format!("2^{k}:{hits}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl std::fmt::Display for ArenaStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} checkouts ({:.1} % pooled), {} returned, {} KiB parked (cap {} KiB, {} trimmed)",
            self.checkouts,
            self.hit_rate() * 100.0,
            self.returns,
            self.pooled_bytes / 1024,
            self.byte_cap / 1024,
            self.trimmed
        )
    }
}

/// A buffer pool for the DP tables' backing storage (see the module docs).
///
/// Checked-out buffers are plain `Vec`s — the arena does not track them;
/// callers return them with [`TableArena::give_f64`] / [`TableArena::give_u32`]
/// when the table is retired (dropping one instead merely forgoes the reuse).
#[derive(Debug)]
pub struct TableArena {
    f64_pool: Mutex<BucketedPool<f64>>,
    u32_pool: Mutex<BucketedPool<u32>>,
    /// Free-list byte budget **per pool** (half the configured total).
    /// Each `give_*` consults only its own pool's budget, so returning a
    /// buffer never needs both pool locks — no acquisition ordering exists
    /// between them on the return path.
    per_pool_cap: usize,
    checkouts: AtomicU64,
    pool_hits: AtomicU64,
    returns: AtomicU64,
    trimmed: AtomicU64,
    bucket_hits: [AtomicU64; ARENA_BUCKETS],
}

impl Default for TableArena {
    fn default() -> Self {
        Self::with_byte_cap(DEFAULT_ARENA_BYTE_CAP)
    }
}

/// One element type's size-bucketed free lists, bounded by an approximate
/// byte budget.
///
/// Each list is kept in return order.  Each parked buffer carries a
/// monotonic stamp from its return; when a return pushes the pool past its
/// budget, the buffer idle longest (the smallest stamp — a list front) is
/// dropped first, repeating until the pool fits.  Newest-first tie-breaks
/// on checkout + oldest-first trim keep the recently-hot capacity classes
/// and let a one-off burst of huge tables age out instead of pinning
/// memory forever.
#[derive(Debug)]
struct BucketedPool<T> {
    buckets: [Vec<(u64, Vec<T>)>; ARENA_BUCKETS],
    /// Approximate bytes parked: sum of `capacity * size_of::<T>()`.
    bytes: usize,
    /// Monotonic return counter; stamps order trim victims.
    stamp: u64,
}

impl<T> Default for BucketedPool<T> {
    fn default() -> Self {
        Self { buckets: std::array::from_fn(|_| Vec::new()), bytes: 0, stamp: 0 }
    }
}

impl<T> BucketedPool<T> {
    /// Pops a recycled buffer for a `len`-element request: the smallest
    /// buffer of the request's own capacity class that holds `len`
    /// elements, else the smallest of the class above (always big enough);
    /// the newest wins a tie.  Returns the buffer together with the bucket
    /// it came from.
    ///
    /// Class `k` spans capacities `(2^(k−1), 2^k]`, so its buffers can be
    /// shorter than a request of the same class.  Handing one out would make
    /// the checkout's `resize` reallocate it and park it a class higher on
    /// return: on a mixed-size stream buffers would creep upward until no
    /// request could use them, and the pool would fill toward its byte cap.
    /// Taking the best fit rather than any fit leaves the larger buffers of
    /// a class for the larger requests of the same round.
    fn pop_for(&mut self, len: usize) -> Option<(Vec<T>, usize)> {
        let class = bucket_of(len);
        for k in [class, class + 1] {
            let Some(bucket) = self.buckets.get_mut(k) else { continue };
            let best_fit = bucket
                .iter()
                .enumerate()
                .rev()
                .filter(|(_, (_, buf))| buf.capacity() >= len)
                .min_by_key(|(_, (_, buf))| buf.capacity())
                .map(|(pos, _)| pos);
            if let Some(pos) = best_fit {
                // `remove` keeps the list in return order, oldest first,
                // which the trim in `push` relies on.
                let (_, buf) = bucket.remove(pos);
                self.bytes = self.bytes.saturating_sub(buf.capacity() * std::mem::size_of::<T>());
                return Some((buf, k));
            }
        }
        None
    }

    /// Parks a buffer on its capacity class's free list, then drops the
    /// oldest parked buffers (across all classes) until the pool fits in
    /// `cap_bytes`.  Returns how many buffers were trimmed.
    fn push(&mut self, buf: Vec<T>, cap_bytes: usize) -> u64 {
        self.stamp += 1;
        self.bytes += buf.capacity() * std::mem::size_of::<T>();
        self.buckets[bucket_of(buf.capacity())].push((self.stamp, buf));
        let mut trimmed = 0;
        while self.bytes > cap_bytes {
            let oldest = self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, b)| !b.is_empty())
                .min_by_key(|(_, b)| b[0].0)
                .map(|(k, _)| k);
            let Some(k) = oldest else { break };
            let (_, old) = self.buckets[k].remove(0);
            self.bytes = self.bytes.saturating_sub(old.capacity() * std::mem::size_of::<T>());
            trimmed += 1;
        }
        trimmed
    }

    fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }
}

impl TableArena {
    /// Creates an arena with the default free-list budget
    /// ([`DEFAULT_ARENA_BYTE_CAP`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an arena whose free lists are bounded by `total_bytes`
    /// (split evenly between the `f64` and `u32` pools).  Checked-out
    /// buffers are never counted — the cap bounds idle memory, not live
    /// tables.
    pub fn with_byte_cap(total_bytes: usize) -> Self {
        Self {
            f64_pool: Mutex::default(),
            u32_pool: Mutex::default(),
            per_pool_cap: total_bytes / 2,
            checkouts: AtomicU64::new(0),
            pool_hits: AtomicU64::new(0),
            returns: AtomicU64::new(0),
            trimmed: AtomicU64::new(0),
            bucket_hits: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one pool hit served from bucket `k`.
    fn record_hit(&self, k: usize) {
        self.pool_hits.fetch_add(1, Ordering::Relaxed);
        self.bucket_hits[k].fetch_add(1, Ordering::Relaxed);
    }

    /// Checks out a `len`-element `f64` buffer with every cell set to
    /// `fill`, reusing a pooled allocation of a fitting capacity class when
    /// one is available.
    pub fn take_f64(&self, len: usize, fill: f64) -> Vec<f64> {
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        match self.f64_pool.lock().expect("arena pool poisoned").pop_for(len) {
            Some((mut buf, k)) => {
                self.record_hit(k);
                buf.clear();
                buf.resize(len, fill);
                buf
            }
            None => vec![fill; len],
        }
    }

    /// Checks out a `len`-element `u32` buffer with every cell set to
    /// `fill`, reusing a pooled allocation of a fitting capacity class when
    /// one is available.
    pub fn take_u32(&self, len: usize, fill: u32) -> Vec<u32> {
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        match self.u32_pool.lock().expect("arena pool poisoned").pop_for(len) {
            Some((mut buf, k)) => {
                self.record_hit(k);
                buf.clear();
                buf.resize(len, fill);
                buf
            }
            None => vec![fill; len],
        }
    }

    /// Returns an `f64` buffer to its capacity class's free list
    /// (zero-capacity buffers are dropped — there is no allocation to
    /// recycle).  If the return pushes the pool past its byte budget, the
    /// oldest parked buffers are dropped until it fits.
    pub fn give_f64(&self, buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        self.returns.fetch_add(1, Ordering::Relaxed);
        let trimmed =
            self.f64_pool.lock().expect("arena pool poisoned").push(buf, self.per_pool_cap);
        if trimmed > 0 {
            self.trimmed.fetch_add(trimmed, Ordering::Relaxed);
        }
    }

    /// Returns a `u32` buffer to its capacity class's free list
    /// (zero-capacity buffers are dropped), trimming the oldest parked
    /// buffers when the pool's byte budget overflows.
    pub fn give_u32(&self, buf: Vec<u32>) {
        if buf.capacity() == 0 {
            return;
        }
        self.returns.fetch_add(1, Ordering::Relaxed);
        let trimmed =
            self.u32_pool.lock().expect("arena pool poisoned").push(buf, self.per_pool_cap);
        if trimmed > 0 {
            self.trimmed.fetch_add(trimmed, Ordering::Relaxed);
        }
    }

    /// Checkout/return counters accumulated since construction.
    pub fn stats(&self) -> ArenaStats {
        let f64_bytes = self.f64_pool.lock().expect("arena pool poisoned").bytes;
        let u32_bytes = self.u32_pool.lock().expect("arena pool poisoned").bytes;
        ArenaStats {
            checkouts: self.checkouts.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
            bucket_hits: std::array::from_fn(|k| self.bucket_hits[k].load(Ordering::Relaxed)),
            pooled_bytes: (f64_bytes + u32_bytes) as u64,
            byte_cap: (self.per_pool_cap as u64) * 2,
            trimmed: self.trimmed.load(Ordering::Relaxed),
        }
    }

    /// Number of buffers currently pooled (both element types, all
    /// buckets).
    pub fn pooled(&self) -> usize {
        self.f64_pool.lock().expect("arena pool poisoned").len()
            + self.u32_pool.lock().expect("arena pool poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_recycles_and_reinitialises_every_cell() {
        let arena = TableArena::new();
        let first = arena.take_f64(8, f64::INFINITY);
        assert!(first.iter().all(|v| v.is_infinite()));
        arena.give_f64(first);
        assert_eq!(arena.pooled(), 1);
        // The recycled buffer must come back fully re-filled, even when the
        // requested length shrinks or grows.  len 3 (class 2) is served from
        // the class above (the capacity-8 buffer), len 8 hits its own class,
        // len 20 (class 5) is out of any pooled class's reach → fresh.
        for len in [3usize, 8, 20] {
            let buf = arena.take_f64(len, 1.5);
            assert_eq!(buf.len(), len);
            assert!(buf.iter().all(|&v| v == 1.5), "stale cells at len {len}");
            arena.give_f64(buf);
        }
        let stats = arena.stats();
        assert_eq!(stats.checkouts, 4);
        assert_eq!(stats.pool_hits, 2);
        assert_eq!(stats.returns, 4);
        assert_eq!(stats.bucket_hits[3], 2, "both hits came from the capacity-8 class");
        assert_eq!(stats.bucket_hits.iter().sum::<u64>(), stats.pool_hits);
        assert_eq!(stats.bucket_summary(), "2^3:2");
    }

    #[test]
    fn buckets_keep_sizes_apart() {
        let arena = TableArena::new();
        // Park one small and one huge buffer.
        arena.give_f64(Vec::with_capacity(8)); // class 3
        arena.give_f64(Vec::with_capacity(4096)); // class 12
                                                  // A small request must not consume the huge buffer…
        let small = arena.take_f64(6, 0.0);
        assert!(small.capacity() <= 16, "small request got a {}-cap buffer", small.capacity());
        // …and a huge request must not be handed the (now re-pooled) small
        // one, which would force an immediate regrow.
        arena.give_f64(small);
        let huge = arena.take_f64(3000, 0.0);
        assert!(huge.capacity() >= 4096, "huge request got a {}-cap buffer", huge.capacity());
        let stats = arena.stats();
        assert_eq!(stats.pool_hits, 2);
        assert_eq!((stats.bucket_hits[3], stats.bucket_hits[12]), (1, 1));
        // The class-3 buffer is still pooled; a class-2..3 request finds it.
        assert_eq!(arena.pooled(), 1);
    }

    #[test]
    fn mixed_sizes_reach_a_fixed_point_after_one_round() {
        // Lengths inside one capacity class (65..=128 is class 7) and across
        // classes, all checked out together and returned together, as
        // concurrent slice fills do.  Were a class's shorter buffer handed to
        // a longer request of the same class, `resize` would reallocate it
        // and it would come back a class higher, so the pool would grow
        // every round.  Fitted checkouts make round 1's allocations serve
        // every later round exactly.
        let lens = [100usize, 70, 128, 65, 90, 300, 129, 257, 12, 9];
        let arena = TableArena::new();
        let mut parked = None;
        for round in 0..6 {
            let bufs: Vec<Vec<f64>> = lens.iter().map(|&len| arena.take_f64(len, 0.5)).collect();
            let mut checked_out = 0u64;
            for (buf, &len) in bufs.iter().zip(&lens) {
                assert_eq!(buf.len(), len);
                assert!(buf.capacity() >= len);
                checked_out += (buf.capacity() * std::mem::size_of::<f64>()) as u64;
            }
            for buf in bufs {
                arena.give_f64(buf);
            }
            let pooled = arena.stats().pooled_bytes;
            assert_eq!(pooled, checked_out, "round {round}: every buffer comes back as it left");
            match parked {
                None => parked = Some(pooled),
                Some(first) => assert_eq!(pooled, first, "round {round}: the pool grew"),
            }
        }
        let stats = arena.stats();
        assert_eq!(stats.pool_hits, 5 * lens.len() as u64, "every later checkout is a hit");
        assert_eq!(arena.pooled(), lens.len());
    }

    #[test]
    fn checkout_never_hands_out_a_shorter_buffer() {
        // A class-7 request of 100 must skip the parked 70 (same class) and
        // take the best fit above it, not the newest.
        let arena = TableArena::new();
        arena.give_f64(Vec::with_capacity(120)); // class 7
        arena.give_f64(Vec::with_capacity(101)); // class 7
        arena.give_f64(Vec::with_capacity(70)); // class 7, newest
        let buf = arena.take_f64(100, 0.0);
        assert_eq!(buf.capacity(), 101);
        // With no fitting class-7 buffer left, the class above serves.
        arena.give_f64(Vec::with_capacity(200)); // class 8
        let big = arena.take_f64(125, 0.0);
        assert_eq!(big.capacity(), 200);
        assert_eq!(arena.stats().bucket_hits[7..9], [1, 1]);
    }

    #[test]
    fn nan_poisoned_returns_never_leak_into_checkouts() {
        // The strongest stale-cell detector: fill a returned buffer with NaN
        // (which would poison any DP arithmetic that read it) and prove the
        // next checkout observes only the requested fill.
        let arena = TableArena::new();
        arena.give_f64(vec![f64::NAN; 64]);
        arena.give_u32(vec![0xDEAD_BEEF; 64]);
        let values = arena.take_f64(64, 0.0);
        assert!(values.iter().all(|&v| v == 0.0 && !v.is_nan()));
        let argmins = arena.take_u32(32, u32::MAX);
        assert!(argmins.iter().all(|&v| v == u32::MAX));
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let arena = TableArena::new();
        arena.give_f64(Vec::new());
        arena.give_u32(Vec::new());
        assert_eq!(arena.pooled(), 0);
        assert_eq!(arena.stats().returns, 0);
    }

    #[test]
    fn byte_cap_trims_oldest_first() {
        // Per-pool budget of 1088 B: an 8-cap f64 buffer (64 B) plus two
        // 64-cap buffers (512 B each) fill it exactly; the next return
        // overflows and must evict the oldest parked buffers — the small
        // one first, then the first 512 B buffer — until the pool fits.
        let arena = TableArena::with_byte_cap(2 * 1088);
        arena.give_f64(Vec::with_capacity(8));
        arena.give_f64(Vec::with_capacity(64));
        arena.give_f64(Vec::with_capacity(64));
        assert_eq!(arena.stats().trimmed, 0);
        assert_eq!(arena.stats().pooled_bytes, 1088);
        arena.give_f64(Vec::with_capacity(64));
        let stats = arena.stats();
        assert_eq!(stats.trimmed, 2, "expected the two oldest buffers evicted");
        assert_eq!(stats.pooled_bytes, 1024);
        assert_eq!(stats.returns, 4, "trimmed buffers still count as returns");
        assert_eq!(arena.pooled(), 2);
        // The capacity-8 buffer is gone: a class-3 request allocates fresh.
        let small = arena.take_f64(8, 0.0);
        assert!(small.capacity() < 64, "trimmed buffer resurfaced");
        assert_eq!(arena.stats().pool_hits, 0);
    }

    #[test]
    fn byte_budgets_are_per_pool() {
        // u32 returns must not charge the f64 budget: with 128 B per pool,
        // a 64 B buffer of each element type parks without any trim.
        let arena = TableArena::with_byte_cap(2 * 128);
        arena.give_f64(Vec::with_capacity(16)); // 128 B — fills the f64 pool
        arena.give_u32(Vec::with_capacity(16)); // 64 B — charged to u32 only
        let stats = arena.stats();
        assert_eq!(stats.trimmed, 0);
        assert_eq!(stats.pooled_bytes, 192);
        assert_eq!(arena.pooled(), 2);
    }

    #[test]
    fn stats_display_is_readable() {
        let arena = TableArena::new();
        let buf = arena.take_u32(4, 0);
        arena.give_u32(buf);
        let _ = arena.take_u32(2, 0);
        let text = arena.stats().to_string();
        assert!(text.contains("2 checkouts"), "{text}");
        assert!(text.contains("50.0 % pooled"), "{text}");
        assert!(text.contains("1 returned"), "{text}");
        assert_eq!(ArenaStats::default().hit_rate(), 0.0);
    }
}
