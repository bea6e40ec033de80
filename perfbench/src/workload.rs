//! Seeded request generators for the three workloads.
//!
//! Every stream is a pure function of `(workload, seed, seconds)`: the same
//! arguments give the same requests, in the same order, on every machine.
//! Stream lengths are fixed per second of run time (not "as many as fit"),
//! so the deterministic counters — routes per shard, kernel candidates and
//! table entries — repeat exactly between runs of one seed.

use chain2l_service::protocol::SolveSpec;
use std::time::Duration;

/// The four Table I platforms.
pub const PLATFORMS: [&str; 4] = ["hera", "atlas", "coastal", "coastal-ssd"];
/// The paper's three weight patterns.
pub const PATTERNS: [&str; 3] = ["uniform", "decrease", "highlow"];
/// The four algorithms, by their protocol labels.
pub const ALGORITHMS: [&str; 4] = ["adv*", "admv*", "admv", "admv-refined"];

/// Rounds of `hit` and of `cold`: fresh daemons, each set up and sent one
/// segment of the streams.  Latency percentiles pool the samples of every
/// round (a run sends at least 1,000 main-stream requests, so its p99 has
/// ten samples beyond it); the other end-to-end figures are medians over
/// rounds.
const HIT_ROUNDS: usize = 10;
const COLD_ROUNDS: usize = 5;
/// Rounds of `grow`: each boots from the same walked state and replays the
/// whole stream.
const GROW_ROUNDS: usize = 5;

/// `hit`: specs per (platform, pattern, algorithm) in the warm set.
const HIT_WARM_PER_COMBO: usize = 2;
/// Shortest chain of a warm-set spec; each algorithm's warm specs take the
/// lengths from here up, each once, in seeded order — so the warm-up costs
/// about the same for every seed.
const WARM_FLOOR: usize = 8;
/// `hit`: requests per second of run time.
const HIT_RATE: usize = 7_500;

/// `cold`: chain lengths of the cold stream per algorithm (in `ALGORITHMS`
/// order), chosen so every algorithm's cold solves cost 3–6 ms: long enough
/// that the daemon's per-request hops, whose cost swings by a few hundred
/// microseconds from run to run on a shared machine, stay a small share.
const COLD_TASKS: [(usize, usize); 4] = [(110, 170), (56, 68), (30, 38), (30, 38)];
/// `cold`: cold requests per second of run time.
const COLD_RATE: usize = 200;
/// `cold`: probes per second, sent on schedule.
const PROBE_HZ: u64 = 10;

/// `grow`: per-task weight of every weak-scaling context (an integer, so
/// the total `w·n` and the uniform split `w·n / n = w` are exact).
const GROW_WEIGHT: usize = 400;
/// `grow`: the set-up walk stops at this chain length.
const GROW_MID: usize = 56;
/// `grow`: no chain grows past this length.
const GROW_TOP: usize = 90;
/// `grow`: shortest chain a walk starts from.
const GROW_FLOOR: usize = 6;
/// `grow`: share of timed requests that extend their context by one task.
const GROW_P_EXTEND: f64 = 0.3;
/// `grow`: share of timed requests that repeat a chain length already
/// solved (cache hits); the rest revisit any smaller length.
const GROW_P_REPEAT: f64 = 0.35;
/// `grow`: requests per second of run time.
const GROW_RATE: usize = 300;

/// SplitMix64: a small seedable generator, so the streams depend on nothing
/// but the seed.
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of seed `seed` (streams of one seed are independent).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

/// Cards dealt in seeded order from a deck that is reshuffled whenever it
/// runs out, so every card turns up equally often in any long stretch of
/// the stream, whatever the seed.
struct Deck<T> {
    cards: Vec<T>,
    dealt: usize,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Deck<T> {
        Deck { dealt: cards.len(), cards }
    }

    fn deal(&mut self, rng: &mut Rng) -> T {
        if self.dealt == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.dealt = 0;
        }
        self.dealt += 1;
        self.cards[self.dealt - 1]
    }
}

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every timed request is a cache hit: the serve path alone.
    Hit,
    /// Every timed request is a cold solve, plus open-loop cache-hit probes.
    Cold,
    /// Weak-scaling series extended after a warm restart.
    Grow,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hit" => Some(Workload::Hit),
            "cold" => Some(Workload::Cold),
            "grow" => Some(Workload::Grow),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hit => "hit",
            Workload::Cold => "cold",
            Workload::Grow => "grow",
        }
    }
}

/// Open-loop cache-hit probes, sent on a fixed schedule whatever the
/// responses.
pub struct Probes {
    /// Probe `i` sends `specs[i % specs.len()]`.
    pub specs: Vec<SolveSpec>,
    /// Time between two due sends.
    pub interval: Duration,
    /// Number of probes.
    pub count: usize,
}

/// Everything one run sends to the daemon.
pub struct Plan {
    /// Shard worker processes of the daemon.
    pub shards: usize,
    /// Solves sent one at a time on one connection before the timed phase
    /// (for `grow`, before the restart).
    pub warm: Vec<SolveSpec>,
    /// The timed closed-loop streams, one per connection, depth 1.
    pub streams: Vec<Vec<SolveSpec>>,
    /// The open-loop probes of the timed phase (`cold` only).
    pub probes: Option<Probes>,
    /// Whether the daemon persists its state and the timed phase runs on a
    /// daemon restarted from it.
    pub restart: bool,
    /// Rounds per run, each on a fresh daemon: round `r` sends the `r`-th
    /// segment of the streams and probes, or (with `restart`) all of them.
    pub rounds: usize,
}

/// The plan of `workload` for `seed`, sized for `seconds` of run time.
pub fn plan(workload: Workload, seed: u64, seconds: u64) -> Plan {
    let seconds = seconds.max(1) as usize;
    match workload {
        Workload::Hit => hit(seed, seconds * HIT_RATE),
        Workload::Cold => cold(seed, seconds * COLD_RATE, seconds * PROBE_HZ as usize),
        Workload::Grow => grow(seed, seconds * GROW_RATE),
    }
}

fn spec(platform: &str, pattern: &str, tasks: usize, weight: f64, algorithm: &str) -> SolveSpec {
    SolveSpec {
        platform: platform.to_string(),
        pattern: pattern.to_string(),
        tasks,
        weight,
        algorithm: algorithm.to_string(),
    }
}

/// `count` random picks from `pool`.
fn picks(rng: &mut Rng, pool: &[SolveSpec], count: usize) -> Vec<SolveSpec> {
    (0..count).map(|_| pool[rng.range(0, pool.len() - 1)].clone()).collect()
}

/// `count` chain lengths from `WARM_FLOOR` up, in seeded order.
fn dealt_lengths(rng: &mut Rng, count: usize) -> Vec<usize> {
    let mut lengths: Vec<usize> = (WARM_FLOOR..WARM_FLOOR + count).collect();
    rng.shuffle(&mut lengths);
    lengths
}

/// A warm-set spec: seeded integer total weight.
fn warm_spec(
    rng: &mut Rng,
    platform: &str,
    pattern: &str,
    tasks: usize,
    algorithm: &str,
) -> SolveSpec {
    spec(platform, pattern, tasks, rng.range(20_000, 30_000) as f64, algorithm)
}

/// `hit`: a warm set covering every platform, pattern and algorithm, and
/// `count` requests drawn from it for one closed-loop connection.  One, not
/// two: with two closed loops on two cores the p99 is set by run-queue
/// contention among the generator's and the daemon's own threads, and
/// swings 30-40 % from run to run.
pub fn hit(seed: u64, count: usize) -> Plan {
    let mut rng = Rng::new(seed, 1);
    let mut warm = Vec::new();
    for algorithm in ALGORITHMS {
        let slots = PLATFORMS.len() * PATTERNS.len() * HIT_WARM_PER_COMBO;
        let mut lengths = dealt_lengths(&mut rng, slots).into_iter();
        for platform in PLATFORMS {
            for pattern in PATTERNS {
                for tasks in lengths.by_ref().take(HIT_WARM_PER_COMBO) {
                    warm.push(warm_spec(&mut rng, platform, pattern, tasks, algorithm));
                }
            }
        }
    }
    let streams = vec![picks(&mut Rng::new(seed, 10), &warm, count)];
    Plan { shards: 2, warm, streams, probes: None, restart: false, rounds: HIT_ROUNDS }
}

/// `cold`: `count` specs over every platform, pattern and algorithm, each
/// with its own total weight (so no cache entry, retained prefix or
/// extension can serve it), plus `probes` cache-hit probes from a warm set.
/// Algorithms, each algorithm's chain lengths and its (platform, pattern)
/// pairs are dealt from decks, so every seed sends the same mix of solve
/// costs, in its own order: the seed moves the latency percentiles only
/// through the weights.
pub fn cold(seed: u64, count: usize, probes: usize) -> Plan {
    let mut rng = Rng::new(seed, 2);
    let mut probe_specs = Vec::new();
    for (a, algorithm) in ALGORITHMS.into_iter().enumerate() {
        let lengths = dealt_lengths(&mut rng, PLATFORMS.len());
        for (p, (platform, tasks)) in PLATFORMS.into_iter().zip(lengths).enumerate() {
            let pattern = PATTERNS[(a + p) % PATTERNS.len()];
            probe_specs.push(warm_spec(&mut rng, platform, pattern, tasks, algorithm));
        }
    }
    let mut rng = Rng::new(seed, 3);
    let mut algorithms = Deck::new((0..ALGORITHMS.len()).collect());
    let mut lengths: Vec<Deck<usize>> =
        COLD_TASKS.iter().map(|&(lo, hi)| Deck::new((lo..=hi).collect())).collect();
    let pairs: Vec<(&str, &str)> =
        PLATFORMS.iter().flat_map(|&p| PATTERNS.iter().map(move |&t| (p, t))).collect();
    let mut settings: Vec<Deck<(&str, &str)>> =
        ALGORITHMS.iter().map(|_| Deck::new(pairs.clone())).collect();
    let stream = (0..count)
        .map(|_| {
            let a = algorithms.deal(&mut rng);
            let tasks = lengths[a].deal(&mut rng);
            let (platform, pattern) = settings[a].deal(&mut rng);
            spec(platform, pattern, tasks, 25_000.0 * (0.9 + 0.2 * rng.unit()), ALGORITHMS[a])
        })
        .collect();
    Plan {
        shards: 1,
        warm: probe_specs.clone(),
        streams: vec![stream],
        probes: Some(Probes {
            specs: probe_specs,
            interval: Duration::from_nanos(1_000_000_000 / PROBE_HZ),
            count: probes,
        }),
        restart: false,
        rounds: COLD_ROUNDS,
    }
}

/// One weak-scaling context of `grow`: uniform chains of `GROW_WEIGHT`
/// seconds per task on one platform with one algorithm.
struct Series {
    platform: &'static str,
    algorithm: &'static str,
    /// Longest chain requested so far.
    top: usize,
    /// Chain lengths requested so far.
    solved: Vec<usize>,
}

impl Series {
    fn spec(&mut self, tasks: usize) -> SolveSpec {
        if !self.solved.contains(&tasks) {
            self.solved.push(tasks);
        }
        spec(self.platform, "uniform", tasks, (GROW_WEIGHT * tasks) as f64, self.algorithm)
    }
}

/// `grow`: every (platform, algorithm) context walks a weak-scaling series
/// in seeded steps up to `GROW_MID` before the restart; then one connection
/// sends `count` requests that visit the contexts in turn and, in seeded
/// order, extend a context by one task (up to `GROW_TOP`), repeat a length
/// already solved or revisit a smaller one.  One connection, not two: with
/// two closed loops, two busy workers, the daemon and the generator share
/// two cores, and cache hits queue behind extensions on the run queue.
pub fn grow(seed: u64, count: usize) -> Plan {
    let mut rng = Rng::new(seed, 4);
    let mut contexts: Vec<Series> = PLATFORMS
        .into_iter()
        .flat_map(|platform| {
            ALGORITHMS.map(|algorithm| Series { platform, algorithm, top: 0, solved: Vec::new() })
        })
        .collect();
    // The set-up walk: every context in seeded steps, interleaved round-robin.
    let mut warm = Vec::new();
    let mut next: Vec<usize> =
        contexts.iter().map(|_| rng.range(GROW_FLOOR, GROW_FLOOR + 4)).collect();
    while next.iter().any(|&n| n <= GROW_MID) {
        for (series, n) in contexts.iter_mut().zip(next.iter_mut()) {
            if *n <= GROW_MID {
                warm.push(series.spec(*n));
                series.top = *n;
                *n += rng.range(1, 4);
            }
        }
    }
    let mut rng = Rng::new(seed, 20);
    let n_contexts = contexts.len();
    let stream = (0..count)
        .map(|i| {
            let series = &mut contexts[i % n_contexts];
            let roll = rng.unit();
            let tasks = if roll < GROW_P_EXTEND && series.top < GROW_TOP {
                series.top += 1;
                series.top
            } else if roll < GROW_P_EXTEND + GROW_P_REPEAT {
                series.solved[rng.range(0, series.solved.len() - 1)]
            } else {
                rng.range(GROW_FLOOR, series.top)
            };
            series.spec(tasks)
        })
        .collect();
    Plan {
        shards: 2,
        warm,
        streams: vec![stream],
        probes: None,
        restart: true,
        rounds: GROW_ROUNDS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain2l_core::Engine;
    use chain2l_service::protocol::resolve_spec;
    use std::collections::BTreeMap;

    fn lines(plan: &Plan) -> Vec<String> {
        let probes = plan.probes.iter().flat_map(|p| p.specs.iter());
        plan.warm
            .iter()
            .chain(plan.streams.iter().flatten())
            .chain(probes)
            .map(|s| format!("{s:?}"))
            .collect()
    }

    #[test]
    fn one_seed_always_gives_the_same_stream() {
        for workload in [Workload::Hit, Workload::Cold, Workload::Grow] {
            let a = lines(&plan(workload, 7, 1));
            assert_eq!(a, lines(&plan(workload, 7, 1)), "{workload:?}");
            assert_ne!(a, lines(&plan(workload, 8, 1)), "{workload:?}");
        }
    }

    #[test]
    fn stream_lengths_are_fixed_per_second() {
        for workload in [Workload::Hit, Workload::Cold, Workload::Grow] {
            let one = plan(workload, 3, 1);
            let two = plan(workload, 3, 2);
            for (a, b) in one.streams.iter().zip(&two.streams) {
                assert_eq!(2 * a.len(), b.len(), "{workload:?}");
            }
        }
        assert_eq!(plan(Workload::Cold, 3, 2).probes.unwrap().count, 2 * PROBE_HZ as usize);
    }

    fn solve(engine: &Engine, spec: &SolveSpec) {
        let (scenario, algorithm) = resolve_spec(spec).expect("generated specs are valid");
        engine.solve(&scenario, algorithm);
    }

    #[test]
    fn every_cold_request_routes_cold() {
        for seed in [1, 2] {
            let plan = cold(seed, 40, 10);
            let engine = Engine::new();
            for spec in &plan.warm {
                solve(&engine, spec);
            }
            let before = engine.stats();
            for spec in &plan.streams[0] {
                solve(&engine, spec);
            }
            let after = engine.stats();
            assert_eq!(after.cold() - before.cold(), 40, "seed {seed}: {after}");
            assert_eq!(after.routed() - before.routed(), 40, "seed {seed}: {after}");
        }
    }

    #[test]
    fn every_timed_hit_request_is_a_cache_hit() {
        let plan = hit(5, 400);
        let engine = Engine::new();
        for spec in &plan.warm {
            solve(&engine, spec);
        }
        let before = engine.stats();
        for spec in plan.streams.iter().flatten() {
            solve(&engine, spec);
        }
        let after = engine.stats();
        assert_eq!(after.cache.hits - before.cache.hits, 400, "{after}");
        assert_eq!(after.cache.misses, before.cache.misses, "{after}");
    }

    #[test]
    fn hit_warm_set_covers_every_platform_pattern_and_algorithm() {
        let plan = hit(9, 1);
        for platform in PLATFORMS {
            for pattern in PATTERNS {
                for algorithm in ALGORITHMS {
                    assert!(plan.warm.iter().any(|s| s.platform == platform
                        && s.pattern == pattern
                        && s.algorithm == algorithm));
                }
            }
        }
    }

    #[test]
    fn every_grow_chain_is_a_prefix_of_its_contexts_longer_chains() {
        let plan = grow(11, 300);
        let mut contexts: BTreeMap<(String, String), BTreeMap<usize, Vec<u64>>> = BTreeMap::new();
        for spec in plan.warm.iter().chain(plan.streams.iter().flatten()) {
            let (scenario, _) = resolve_spec(spec).expect("generated specs are valid");
            let bits = scenario.chain.weights().iter().map(|w| w.to_bits()).collect();
            contexts
                .entry((spec.platform.clone(), spec.algorithm.clone()))
                .or_default()
                .insert(spec.tasks, bits);
        }
        assert_eq!(contexts.len(), PLATFORMS.len() * ALGORITHMS.len());
        for chains in contexts.values() {
            let longest = chains.values().last().expect("every context has chains");
            for chain in chains.values() {
                assert_eq!(chain[..], longest[..chain.len()]);
            }
        }
    }

    /// Whether `counts` holds every one of `keys` equally often, give or
    /// take one (a deck dealt whole some times, then in part).
    fn balanced<K: Ord>(counts: &BTreeMap<K, usize>, keys: impl IntoIterator<Item = K>) -> bool {
        let seen: Vec<usize> =
            keys.into_iter().map(|k| counts.get(&k).copied().unwrap_or(0)).collect();
        seen.iter().max().unwrap() - seen.iter().min().unwrap() <= 1
    }

    #[test]
    fn every_seed_sends_the_same_cold_mix() {
        for seed in [1, 2, 3] {
            let plan = cold(seed, 400, 1);
            let mut algorithms: BTreeMap<&str, usize> = BTreeMap::new();
            let mut lengths = BTreeMap::new();
            let mut settings = BTreeMap::new();
            for s in &plan.streams[0] {
                let a = s.algorithm.as_str();
                *algorithms.entry(a).or_default() += 1;
                *lengths.entry((a, s.tasks)).or_default() += 1;
                *settings.entry((a, s.platform.as_str(), s.pattern.as_str())).or_default() += 1;
            }
            assert!(algorithms.values().all(|&n| n == 100), "seed {seed}: {algorithms:?}");
            for (a, (lo, hi)) in ALGORITHMS.into_iter().zip(COLD_TASKS) {
                assert!(balanced(&lengths, (lo..=hi).map(|n| (a, n))), "seed {seed}: {a}");
                let pairs =
                    PLATFORMS.iter().flat_map(|&p| PATTERNS.iter().map(move |&t| (a, p, t)));
                assert!(balanced(&settings, pairs), "seed {seed}: {a}");
            }
        }
    }
}
