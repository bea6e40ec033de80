//! Counting-allocator proof of the allocation-free warm path: a repeat
//! [`Engine::solve`] of an already-cached scenario, and an
//! [`Engine::cached`] lookup of it, must perform **zero** heap allocations.
//!
//! The warm path is: stream the process-stable fingerprint digest straight
//! off the scenario (no fingerprint materialised), find the cache slot by
//! allocation-free comparison, clone the cached `Arc`.  Any regression that
//! re-introduces an allocation — a materialised fingerprint, a rebuilt key,
//! a formatted log line — trips the counter below.
//!
//! This test lives alone in its own integration binary: the counting
//! `#[global_allocator]` observes the whole process, so no other test may
//! run (and allocate) concurrently with the measured window.

use chain2l_core::{optimize, Algorithm, Engine};
use chain2l_model::platform::scr;
use chain2l_model::{Scenario, WeightPattern};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
// lint: allow-file(unsafe-code: GlobalAlloc has an unsafe-only interface; this counting shim delegates verbatim to System and exists to enforce the alloc-free gate)
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn warm_engine_repeat_solve_performs_zero_heap_allocations() {
    let engine = Engine::new();
    let scenario =
        Scenario::paper_setup(&scr::hera(), &WeightPattern::Uniform, 12, 25_000.0).unwrap();
    let reference = optimize(&scenario, Algorithm::TwoLevelPartial);

    // Cold solve: allocates freely (tables, scratch, the cached solution).
    let cold = engine.solve(&scenario, Algorithm::TwoLevelPartial);
    assert_eq!(cold.expected_makespan.to_bits(), reference.expected_makespan.to_bits());
    assert!(ALLOCATIONS.load(Ordering::Relaxed) > 0, "cold solve must have allocated");

    // Warm repeat solves and settled-hit lookups: the measured window must
    // not touch the heap.
    for name in ["solve", "cached"] {
        for round in 0..3 {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let warm = match name {
                "solve" => Some(engine.solve(&scenario, Algorithm::TwoLevelPartial)),
                _ => engine.cached(&scenario, Algorithm::TwoLevelPartial),
            };
            let after = ALLOCATIONS.load(Ordering::Relaxed);
            assert_eq!(
                after - before,
                0,
                "warm {name} round {round} performed {} heap allocation(s)",
                after - before
            );
            let warm = warm.expect("settled entry");
            assert_eq!(warm.expected_makespan.to_bits(), cold.expected_makespan.to_bits());
            assert_eq!(warm.schedule, cold.schedule);
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.cache.hits, 6, "{stats:?}");
    assert_eq!(stats.cache.misses, 1, "{stats:?}");
}
